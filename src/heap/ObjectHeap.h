//===- heap/ObjectHeap.h - Object-level allocator --------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object-level heap: small objects carved from single-page blocks
/// of equal-size slots, large objects on dedicated page runs.  Design
/// points that come straight from the paper:
///
///   * No object headers, no in-object free-list links.  All metadata
///     lives off-heap — allocation and pin bits in the block
///     descriptors, mark bits in one address-indexed MarkTable — so the
///     allocator never plants heap addresses in reusable memory (§3.1:
///     the allocator and collector should "carefully clean up after
///     themselves").
///   * Slots that a collection finds marked-but-free (a false reference
///     points at them) are *pinned*: unusable until a later collection
///     no longer sees the reference.  This models the paper's implicit
///     after-the-fact blacklisting of already-allocated memory.
///   * Blocks optionally place their first slot at a small nonzero
///     offset so object addresses avoid long runs of trailing zeros
///     (the Figure-1 integer-concatenation hazard).
///   * Per-class block selection is address-ordered (lowest block
///     first), the fragmentation-reducing discipline the paper's
///     conclusions recommend.  Each lane lists its blocks in a page set
///     of their start pages (heap/PageSet.h), and one rule, relist,
///     decides which blocks are listed.
///   * Sweeping is lazy, as in the paper's collector: with the world
///     stopped, a collection only releases the blocks its mark left
///     empty (one 64-byte mark-table test per block) and counts the
///     rest from the marker's tallies.  A partly marked block is left
///     *pending*, listed with its marks, and swept a word of the
///     off-heap bitmaps at a time when a mutator first takes a slot
///     from it, checks it out or frees into it; a block no mutator
///     reaches is swept when the next mark begins.  No sweep writes
///     slot memory, and neither does an explicit free: a slot is zeroed
///     once, when it is handed out, and the marker never scans a free
///     slot, so the bytes a dead object leaves behind retain nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_OBJECTHEAP_H
#define CGC_HEAP_OBJECTHEAP_H

#include "heap/BlockTable.h"
#include "heap/GuardedHeap.h"
#include "heap/HeapUnits.h"
#include "heap/HeapVerifier.h"
#include "heap/MarkTable.h"
#include "heap/ObjectKind.h"
#include "heap/PageAllocator.h"
#include "heap/PageMap.h"
#include "heap/PageSet.h"
#include "heap/SizeClassTable.h"
#include "heap/TypeDescriptor.h"
#include "heap/VirtualArena.h"
#include <bit>
#include <vector>

namespace cgc {

struct ObjectHeapConfig {
  /// Offset the first slot of each small block by two granules so that
  /// no object lands on an address with ~12 trailing zero bits.
  bool AvoidTrailingZeroAddresses = true;
  /// Page-run constraint for pointer-containing allocations; set from
  /// the collector's interior-pointer policy.
  PageConstraint PointerPageConstraint = PageConstraint::AllPagesClean;
  /// Guarded-heap mode: every untyped (LayoutId 0) object carries a
  /// debug header + redzone that sweep and verify re-check through this
  /// layer.  Owned by the Collector; const reads only from here.  The
  /// collector guarantees the quarantine is empty whenever a sweep
  /// pass runs (every collection flushes it first), so the pass
  /// validates all allocated untyped slots unconditionally, pending
  /// blocks included.
  const GuardLayer *Guards = nullptr;
};

struct ObjectHeapStats {
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesRequested = 0;
  uint64_t SmallBlocksCreated = 0;
  uint64_t LargeBlocksCreated = 0;
  uint64_t BlocksReleased = 0;
  uint64_t ExplicitFrees = 0;
  /// Pending blocks swept when a mutator first reached them (a locked
  /// take, a checkout or a locked free), and the time those sweeps took.
  uint64_t HandOutSweeps = 0;
  uint64_t HandOutSweepNanos = 0;
  /// Pending blocks no mutator reached, swept when the next mark began,
  /// and the time those sweeps took.
  uint64_t CycleStartSweeps = 0;
  uint64_t CycleStartSweepNanos = 0;
};

struct SweepResult {
  uint64_t BytesSweptFree = 0;
  uint64_t ObjectsSweptFree = 0;
  uint64_t BytesLive = 0;
  uint64_t ObjectsLive = 0;
  uint64_t PagesReleased = 0;
  uint64_t SlotsPinned = 0;
  /// Guarded mode: canary/redzone violations found while sweeping, in
  /// block order; the collector sorts them by seqno before reporting.
  std::vector<GuardViolation> GuardViolations;
};

/// Identifies an object (or candidate) resolved by the heap.
struct ObjectRef {
  BlockId Block = InvalidBlockId;
  uint32_t Slot = 0;
  bool valid() const { return Block != InvalidBlockId; }
};

class ObjectHeap {
public:
  ObjectHeap(VirtualArena &Arena, PageAllocator &Pages, PageMap &Map,
             BlockTable &Blocks, const ObjectHeapConfig &Config);

  //===--------------------------------------------------------------===//
  // Lanes.  Every small block belongs to one lane: one per
  // (kind, size class) of untyped blocks, numbered
  // Kind * NumClasses + Class, then one per Precise descriptor,
  // numbered NumObjectKinds * NumClasses + LayoutId.  Allocation,
  // checkout and the thread caches all address blocks by lane.
  //===--------------------------------------------------------------===//

  /// The lane of a large request: it has none.
  static constexpr unsigned NoLane = ~0u;

  /// The lane untyped \p Kind objects of \p Bytes come from; NoLane for
  /// a large size.  Reads only the immutable size-class table, so the
  /// lock-free fast path may call it.
  unsigned laneFor(size_t Bytes, ObjectKind Kind) const {
    if (!SizeClassTable::isSmall(Bytes))
      return NoLane;
    return unsigned(Kind) * numSizeClasses() +
           sizeClassFor(Bytes == 0 ? 1 : Bytes);
  }

  /// The lane objects of descriptor \p Id come from: its own lane for a
  /// Precise descriptor, and its kind's untyped lane for a degenerate
  /// one (Conservative is Normal, PointerFree is PointerFree).
  unsigned laneFor(LayoutId Id) const;

  /// Descriptor \p Id's own lane.  Arithmetic only, so the lock-free
  /// fast path may call it without reading the descriptor table; only a
  /// Precise descriptor's own lane ever holds blocks.
  unsigned typedLane(LayoutId Id) const {
    return NumObjectKinds * numSizeClasses() + Id;
  }

  /// The kind of the objects in \p Lane.
  ObjectKind laneKind(unsigned Lane) const {
    return Lane < typedLane(0) ? ObjectKind(Lane / numSizeClasses())
                               : ObjectKind::Normal;
  }

  /// Allocates one object from \p Lane's existing blocks, \p Bytes being
  /// its requested size; nullptr when the lane needs a new block.
  void *allocateFromExisting(unsigned Lane, size_t Bytes);

  /// Acquires a fresh page for \p Lane; false on OOM.
  bool addBlock(unsigned Lane);

  //===--------------------------------------------------------------===//
  // Thread-owned blocks (heap/ThreadCache.h).  Callers hold the heap
  // lock.  A checked-out block leaves its lane and belongs to one
  // mutator thread until it is returned; the owner sets and clears its
  // AllocBits with atomic word operations and keeps the counter deltas
  // privately, and returnBlock refolds the block's counts from the
  // bitmap, so the ledger is kept per block, not per slot.
  //===--------------------------------------------------------------===//

  /// Checks out the block the next slot of \p Lane would come from: its
  /// lowest-address listed block, which leaves the lane.  InvalidBlockId
  /// when the lane needs a new block.
  BlockId checkoutBlock(unsigned Lane);

  /// Ends ownership of \p Id: AllocatedCount and the heap's allocated
  /// bytes are refolded from the bitmap, and the block is relisted when
  /// it has a usable slot.  \returns the block's usable free slots.
  uint32_t returnBlock(BlockId Id);

  /// Folds an owner's private deltas into the lifetime stats: objects
  /// handed out, their slot bytes, and explicit frees.
  void foldOwnerCounts(uint64_t Allocs, uint64_t Bytes, uint64_t Frees) {
    Stats.ObjectsAllocated += Allocs;
    Stats.BytesRequested += Bytes;
    Stats.ExplicitFrees += Frees;
  }

  /// Blocks currently checked out to thread caches.
  size_t ownedBlockCount() const { return OwnedBlocks; }

  /// Live blocks of an uncollectable kind: the root scan marks them
  /// whole, and skips its walk for them when there are none.
  size_t uncollectableBlockCount() const { return UncollectableBlocks; }

  /// Sets the mark bit on an allocated object (small or large): pins an
  /// object allocated from a mid-collection callback so the cycle's own
  /// sweep cannot reclaim it before the callback returns.
  /// Allocation-free.
  void markAllocatedObjectLive(const void *Ptr);

  /// Size-class geometry (immutable, so lock-free readers may use it).
  unsigned numSizeClasses() const { return SizeClasses.numClasses(); }
  unsigned sizeClassFor(size_t Bytes) const {
    return SizeClasses.classForSize(Bytes);
  }
  size_t sizeClassBytes(unsigned Class) const {
    return SizeClasses.classSize(Class);
  }

  /// Allocates a large object on its own page run; nullptr on OOM.
  /// With \p IgnoreOffPage, only first-page pointers retain the object
  /// (and only the first page needs to be blacklist-clean).
  void *allocateLarge(size_t Bytes, ObjectKind Kind,
                      bool IgnoreOffPage = false);

  /// Registers (interning) a type descriptor; \returns its id.
  /// \p PointerWords[I] true means word I may hold a pointer.  All-true
  /// and all-false bitmaps classify as degenerate Conservative /
  /// PointerFree descriptors whose allocations use their kind's lane
  /// (see heap/TypeDescriptor.h); only mixed bitmaps mint Precise
  /// descriptors, and each of those gets a lane of typed blocks.
  LayoutId registerLayout(const std::vector<bool> &PointerWords,
                          size_t SizeBytes);

  /// \returns the interned descriptor (Id must be valid and nonzero).
  const TypeDescriptor &layout(LayoutId Id) const {
    return Descriptors.get(Id);
  }

  /// The descriptor registry (for reports and tests).
  const TypeDescriptorTable &descriptorTable() const { return Descriptors; }

  /// How an explicit-free candidate pointer classifies, computed
  /// without mutating anything; the collector's free-path validation
  /// turns the bad classes into warnings (unguarded) or structured
  /// incidents (guarded) instead of undefined behavior.
  enum class FreeClass : unsigned char {
    /// An allocated object base: deallocateExplicit will succeed, unless
    /// the object lies in another thread's owned block and that owner
    /// frees it first.
    Ok,
    /// Not inside the heap arena's committed object pages.
    NonHeap,
    /// Inside the heap but not an object base (interior or slop).
    NotObjectBase,
    /// A valid slot base that is not currently allocated (double free,
    /// a pointer into a swept block, or a dead object of a pending
    /// block).
    NotAllocated,
  };
  FreeClass classifyExplicitFree(const void *Ptr) const;

  /// Explicitly frees \p Ptr (any kind).  Required for Uncollectable
  /// objects; legal for others (leak-detector workloads free manually).
  /// Aborts on invalid frees; callers wanting graceful handling must
  /// classifyExplicitFree first (the Collector's free path does).  A
  /// free writes no slot memory.  A free into a block another thread
  /// owns only clears the bit: the block stays off its lane and its
  /// counts are refolded when ownership ends.  \returns false, changing
  /// nothing, when that owner freed the slot after the classification
  /// (a double free the caller reports); true otherwise.
  bool deallocateExplicit(void *Ptr);

  /// Resolves an exact object base address; invalid ref otherwise.
  ObjectRef refForBase(WindowOffset Offset) const;

  /// \returns the object's base window offset.
  WindowOffset baseOffset(ObjectRef Ref) const;

  /// \returns the client-visible size of the object.
  size_t objectSize(ObjectRef Ref) const;

  /// Whether \p Ref holds an object.  The alloc bit is read atomically:
  /// the block may be owned by a running mutator (an owned block is
  /// never pending).
  bool isAllocated(ObjectRef Ref) const {
    const BlockDescriptor &Block = Blocks.get(Ref.Block);
    return Block.AllocBits.testAtomic(Ref.Slot) &&
           (!Block.Pending || Marks.isMarked(Block, Ref.Slot));
  }

  /// Whether slot \p Slot of \p Block holds an object: its alloc bit is
  /// set and, while the block is pending, its mark bit too.  For readers
  /// that hold the heap lock or run with the world stopped.
  bool slotAllocated(const BlockDescriptor &Block, uint32_t Slot) const {
    return Block.AllocBits.test(Slot) &&
           (!Block.Pending || Marks.isMarked(Block, Slot));
  }

  /// Calls \p Fn(Slot) for every slot of \p Block that slotAllocated
  /// accepts, in slot order, a bitmap word at a time: the alloc word,
  /// and the gathered marks with it while the block is pending.  For
  /// the same readers as slotAllocated.
  template <typename FnT>
  void forEachAllocatedSlot(const BlockDescriptor &Block, FnT Fn) const {
    const bool Pending = Block.Pending;
    uint64_t Mark[MarkTable::MaxSlotWords];
    if (Pending)
      Marks.gather(Block, Mark);
    const uint64_t *Alloc = Block.AllocBits.words();
    for (size_t W = 0, E = Block.AllocBits.numWords(); W != E; ++W) {
      uint64_t Bits = Alloc[W] & Block.slotWordMask(W);
      if (Pending)
        Bits &= Mark[W];
      for (; Bits != 0; Bits &= Bits - 1)
        Fn(static_cast<uint32_t>(W * 64 + std::countr_zero(Bits)));
    }
  }

  /// Whether the last mark set \p Ref's mark bit.
  bool isMarked(ObjectRef Ref) const {
    return Marks.isMarked(Blocks.get(Ref.Block), Ref.Slot);
  }

  /// The heap's mark bits (heap/MarkTable.h).
  MarkTable &markTable() { return Marks; }
  const MarkTable &markTable() const { return Marks; }

  /// The state a mark starts from: sweeps every pending block (their
  /// marks are the only record of which of their objects are live),
  /// clears every mark bit, and starts a new mark epoch.  A collection
  /// calls it before anything reads the heap; marks otherwise stay set
  /// from one mark to the next, so wasMarkedLive-style queries answer
  /// for the last mark.
  void clearMarks();

  /// The current mark epoch: the marker stamps each block it marks in
  /// with it (tallyMark), and clearMarks starts a new one.
  uint32_t markEpoch() const { return MarkEpoch; }

  /// The marker's per-block tally, kept as it sets the mark of slot
  /// base in \p Block during epoch \p Epoch: the sweep pass takes a
  /// partly marked block's pin count from it instead of gathering the
  /// block's marks.
  static void tallyMark(BlockDescriptor &Block, bool Allocated,
                        uint32_t Epoch) {
    if (Block.MarkEpoch != Epoch) {
      Block.MarkEpoch = Epoch;
      Block.MarkedFree = 0;
    }
    if (!Allocated)
      ++Block.MarkedFree;
  }

  /// The stopped-world sweep pass, against the current marks: releases
  /// empty blocks, pins marked-free slots and counts the cycle.
  /// Uncollectable blocks are exempt from reclamation.
  ///
  /// One sequential pass in block-id order: each small collectable
  /// block no thread owns goes through sweepSmallBlock, and unmarked
  /// large blocks are released last, after the walk.  A small block
  /// whose mark line is empty or full is swept in the pass, with no
  /// gather; any other one is counted from the marker's tally and left
  /// pending.  Every small block it visits is relisted in place: a
  /// block that stays listed costs one bit store, and no lane is
  /// emptied.  The SweepResult is the one an eager sweep of every block
  /// would return.
  SweepResult sweep();

  /// Sweeps every pending block now.  clearMarks does this; so may a
  /// caller that reads the bitmaps directly.
  void finishPendingSweeps();

  /// Blocks the last sweep pass left pending and no one has swept since.
  size_t pendingBlockCount() const { return PendingBlocks; }

  /// Runs the deep heap verifier (heap/HeapVerifier.h): block table ↔
  /// page map ↔ free runs ↔ lane listing ↔ bitmaps/byte accounting.
  /// Accumulates a diagnostic report instead of aborting.  O(heap);
  /// intended for tests and debugging sessions.
  HeapVerifyReport verify();

  /// Checks that no mark bit is set on any committed heap page: the
  /// state clearMarks leaves and a root scan must begin from.
  HeapVerifyReport verifyMarksClear();

  /// verify(), with the historical abort semantics: prints the full
  /// report and fatals on any inconsistency.
  void verifyHeap();

  /// The verifier's self-healing pass (HeapVerifier::verifyAndRepair):
  /// counters resynced from bitmaps, page map re-derived, lanes relisted
  /// and free runs rebuilt, irreparable blocks quarantined.  Callers
  /// must hold the heap lock with the world stopped.
  HeapVerifyReport verifyAndRepair(HeapRepairStats &Stats);

  /// Deterministic metadata corruption (the Metadata* fault-injection
  /// sites): each armed site that fires mutilates live metadata exactly
  /// the way a wild client store would — a header counter bit-flip, a
  /// smashed free-list link, a clobbered page-map entry, a stray alloc
  /// bit.  Driven by the collector at collection entry (after any
  /// unsealing) so corrupt-soak runs replay bit-for-bit.  No-op when
  /// nothing fires.
  void injectMetadataFaults();

  const ObjectHeapStats &stats() const { return Stats; }

  /// Total bytes in allocated slots (client-usable view of heap usage).
  uint64_t allocatedBytes() const { return AllocatedBytes; }

  /// Calls \p Fn(BlockId, BlockDescriptor&) for every live block.
  template <typename FnT> void forEachBlock(FnT Fn) { Blocks.forEach(Fn); }

  VirtualArena &arena() { return Arena; }
  BlockTable &blockTable() { return Blocks; }

  /// When set, pointer-containing page runs accept AllPagesClean →
  /// FirstPageClean relaxation: the allocation ladder's emergency mode
  /// trades blacklist avoidance for survival right before reporting
  /// out-of-memory.
  void setEmergencyPageRelaxation(bool On) { EmergencyRelaxation = On; }

private:
  friend class HeapVerifier;

  /// Hands out \p Block's lowest usable slot, zeroed.
  void *takeSlot(BlockDescriptor &Block);
  /// The block the next slot of \p Lane comes from, its lowest-address
  /// listed one, swept if it was pending; InvalidBlockId when the lane
  /// needs a fresh block.  A block its sweep leaves with no usable slot
  /// leaves the lane and the next one is tried.
  BlockId pickAllocationBlock(unsigned Lane);
  /// The lane small block \p Block belongs to.
  unsigned laneOf(const BlockDescriptor &Block) const {
    return Block.LayoutId != 0 ? typedLane(Block.LayoutId)
                               : laneFor(Block.ObjectSize, Block.Kind);
  }
  /// Guarded mode: re-checks the header canaries and redzone of every
  /// allocated untyped slot in \p Block, appending violations to
  /// \p Result.  Pure reads of the block's pages and bitmaps.
  void validateGuardedBlock(const BlockDescriptor &Block,
                            SweepResult &Result);
  /// The sweep pass over one small block no thread owns.  An empty or
  /// full mark line makes every slot's mark the same, so the block is
  /// swept here (sweepSlots) with no gather; otherwise its counts come
  /// from the marker's tally and it is left pending.  Either way the
  /// counters in \p Result and the block's counts are the swept ones,
  /// and the block is released if empty or relisted.
  void sweepSmallBlock(BlockId Id, SweepResult &Result);
  /// Frees \p Block's allocated slots that \p Mark leaves unmarked, a
  /// 64-slot word at a time, and rebuilds its pins.  \returns the number
  /// of slots freed; AllocatedCount and the heap's byte count are the
  /// caller's to charge.
  static uint32_t sweepSlots(BlockDescriptor &Block, const uint64_t *Mark);
  /// Sweeps pending \p Block against its marks and relists it: the
  /// bitmaps catch up with the counts the pass already charged, and its
  /// marks do not change.  Timed into the hand-out or the cycle-start
  /// stats by \p AtHandOut.
  void sweepPendingBlock(BlockDescriptor &Block, bool AtHandOut);
  /// Rebuilds \p Block's PinnedBits and PinnedCount word-wise from its
  /// gathered slot marks \p Mark: a slot is pinned when it is marked
  /// but not allocated.
  static void pinMarkedFreeSlots(BlockDescriptor &Block,
                                 const uint64_t *Mark);
  /// The listing rule: a small block is listed on its lane exactly when
  /// no thread owns it and it has a usable slot.  A large block has no
  /// lane.
  static bool listable(const BlockDescriptor &Block) {
    return !Block.IsLarge && !Block.Owned && Block.usableFreeCount() != 0;
  }
  /// Sets \p Block's bit in its lane to listable(Block).  The only
  /// writer of lane membership, called wherever a block's state
  /// changes.
  void relist(const BlockDescriptor &Block);
  void releaseBlock(BlockId Id);
  PageConstraint constraintFor(ObjectKind Kind, bool Large) const;

  VirtualArena &Arena;
  PageAllocator &Pages;
  PageMap &Map;
  BlockTable &Blocks;
  /// One mark bit per granule of the heap arena: the only record of
  /// marks.  clearMarks clears each live block's bits and releaseBlock
  /// a released block's.
  MarkTable Marks;
  ObjectHeapConfig Config;
  SizeClassTable SizeClasses;
  /// Per lane, the start pages of its listed blocks; the block on a
  /// page is Map.blockAt(page), and first fit is lowest().  Untyped
  /// lanes come first and typed ones follow in descriptor-id order;
  /// registerLayout adds lanes.  A set starts empty, and only addBlock
  /// grows it, to the committed range, so neither the sweep nor the
  /// cache flush allocates to relist.
  std::vector<PageSet> Lanes;
  TypeDescriptorTable Descriptors;
  ObjectHeapStats Stats;
  uint64_t AllocatedBytes = 0;
  size_t OwnedBlocks = 0;
  size_t PendingBlocks = 0;
  size_t UncollectableBlocks = 0;
  /// Never 0, so a descriptor's default MarkEpoch is never current.
  uint32_t MarkEpoch = 1;
  bool EmergencyRelaxation = false;
  /// sweep()'s scratch list, cleared each cycle and kept at capacity so
  /// that a warmed sweep does not allocate it again.
  std::vector<BlockId> LargeToRelease;
};

} // namespace cgc

#endif // CGC_HEAP_OBJECTHEAP_H
