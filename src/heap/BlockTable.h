//===- heap/BlockTable.h - Block descriptors -------------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-block metadata.  A *block* is a run of pages holding either many
/// identical small-object slots (small block, one page) or one large
/// object (large block, >= one page).  Slot metadata — allocation and
/// pin bits — lives off-page in the descriptor, so the collector never
/// scans its own bookkeeping and client objects need no headers.  Mark
/// bits live off-page too, in the heap's address-indexed MarkTable
/// (heap/MarkTable.h), not here.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_BLOCKTABLE_H
#define CGC_HEAP_BLOCKTABLE_H

#include "heap/HeapUnits.h"
#include "heap/ObjectKind.h"
#include "support/Assert.h"
#include "support/BitVector.h"
#include "support/MetadataArena.h"
#include <memory>
#include <vector>

namespace cgc {

struct BlockDescriptor {
  // The fields the mark loop's validity test reads come first and fill
  // the first 32 bytes, then the mark tally, then AllocBits' word
  // pointer, so a candidate's descriptor probe rarely spans two cache
  // lines.
  PageIndex StartPage = 0;
  /// Slot size for small blocks; exact requested size for large blocks.
  uint32_t ObjectSize = 0;
  /// Number of slots (1 for large blocks).
  uint32_t ObjectCount = 0;
  /// Byte offset from the block start to the first slot.  Nonzero when
  /// the heap avoids giving objects addresses with many trailing zeros
  /// (the paper's Figure-1 countermeasure).
  uint32_t FirstObjectOffset = 0;
  /// reciprocalOf(ObjectSize), so slotContaining divides by multiplying
  /// (bdwgc keeps the same per-block inverse, hb_inv_sz).  Set with the
  /// rest of the geometry by setSlotGeometry.
  uint64_t SlotReciprocal = 0;
  /// Nonzero: objects carry a registered layout (see ObjectHeap's
  /// layout registry); the marker scans only the words the layout marks
  /// as pointers.  This is the paper's "less conservative" end of the
  /// spectrum — exact heap information, conservative roots.
  uint32_t LayoutId = 0;
  ObjectKind Kind = ObjectKind::Normal;
  /// Large-object option (paper, observation 7): pointers beyond the
  /// first page do not retain this object, regardless of the global
  /// interior-pointer policy.  Lets huge objects coexist with a
  /// blacklist-rich address space.
  bool IgnoreOffPage = false;
  bool IsLarge = false;
  /// Checked out to one mutator thread's ThreadCache (heap/ThreadCache.h):
  /// off its lane, allocated from and freed into by the owner
  /// without the heap lock.  While set, AllocBits is the only live
  /// record of slot state; AllocatedCount keeps its checkout-time value
  /// and is refolded from the bitmap when ownership ends.  Written only
  /// under the heap lock.
  bool Owned = false;
  /// The marker's tally for the sweep pass: MarkedFree counts the free
  /// slots the marker marked in this block during mark epoch MarkEpoch
  /// (ObjectHeap::markEpoch).  Only a tally of the current epoch counts;
  /// a take or a free between the mark and the pass resets MarkEpoch to
  /// 0, and the pass then counts the block from its gathered marks.
  /// Kept beside the fields the mark loop already reads, since it
  /// updates them with every new mark.
  uint32_t MarkEpoch = 0;
  uint16_t MarkedFree = 0;
  /// Set by a collection's sweep pass on a small block it kept without
  /// sweeping.  AllocatedCount and PinnedCount already hold the swept
  /// values, but AllocBits still includes the dead objects and
  /// PinnedBits the previous pins: until the block is swept, a slot is
  /// allocated only if its alloc bit and its mark bit are both set.
  /// The first mutation of the block sweeps it
  /// (ObjectHeap::sweepPendingBlock).  Written only under the heap lock.
  bool Pending = false;
  /// One bit per slot: the slot holds a client-allocated object.  Kept
  /// off-heap so the allocator never writes link words into client
  /// memory — the collector must not manufacture stale heap pointers
  /// itself (the paper's "clean up after themselves" discipline).
  BitVector AllocBits;
  /// One bit per slot: the slot is free but was marked by the last
  /// collection (a false reference points at it), so it must not be
  /// reused until a later collection clears the reference.  This is the
  /// paper's "false references render a section of memory unusable ...
  /// some blacklisting occurs implicitly, after the fact".
  BitVector PinnedBits;
  uint32_t NumPages = 0;
  /// Number of set bits in AllocBits, maintained incrementally.
  uint32_t AllocatedCount = 0;
  /// Number of set bits in PinnedBits.
  uint32_t PinnedCount = 0;

  /// ceil(2^64 / \p Size): for any 32-bit N, N / Size is the high half
  /// of the 128-bit product N * reciprocalOf(Size) (Lemire, Kaser and
  /// Kurz, "Faster remainder by direct computation", 2019).  Size >= 2.
  static uint64_t reciprocalOf(uint32_t Size) {
    return ~uint64_t(0) / Size + 1;
  }

  /// Sets the slot geometry: \p Count slots of \p Size bytes starting
  /// \p FirstOffset bytes into the block.
  void setSlotGeometry(uint32_t Size, uint32_t Count, uint32_t FirstOffset) {
    ObjectSize = Size;
    ObjectCount = Count;
    FirstObjectOffset = FirstOffset;
    SlotReciprocal = reciprocalOf(Size);
  }

  uint32_t usableFreeCount() const {
    return ObjectCount - AllocatedCount - PinnedCount;
  }

  /// The bits of bitmap word \p Word that stand for slots: all ones
  /// except in a partial last word.  Word-wise passes mask with this so
  /// a stray bit at or past ObjectCount never reads as a slot.
  uint64_t slotWordMask(size_t Word) const {
    size_t Left = ObjectCount - Word * 64;
    return Left >= 64 ? ~uint64_t(0) : (uint64_t(1) << Left) - 1;
  }

  WindowOffset startOffset() const { return offsetOfPage(StartPage); }
  WindowOffset endOffset() const {
    return offsetOfPage(StartPage) + uint64_t(NumPages) * PageSize;
  }
  WindowOffset firstSlotOffset() const {
    return startOffset() + FirstObjectOffset;
  }

  /// \returns the slot index containing window offset \p Offset, or -1
  /// if \p Offset is not inside any slot (header gap or tail waste).
  /// The mark loop calls this for every candidate, so it never divides:
  /// once \p Offset is known to lie inside the slot run (ObjectCount *
  /// ObjectSize bytes, at most one block), the delta fits in 32 bits
  /// and the quotient is a multiply by SlotReciprocal, and a one-slot
  /// block needs neither.
  int32_t slotContaining(WindowOffset Offset) const {
    WindowOffset First = firstSlotOffset();
    if (Offset < First)
      return -1;
    uint64_t Delta = Offset - First;
    if (Delta >= uint64_t(ObjectCount) * ObjectSize)
      return -1;
    if (ObjectCount == 1)
      return 0;
    CGC_ASSERT(Delta <= UINT32_MAX, "multi-slot block larger than 4 GiB");
    CGC_ASSERT(SlotReciprocal == reciprocalOf(ObjectSize),
               "slot geometry set without setSlotGeometry");
    return static_cast<int32_t>(
        (static_cast<unsigned __int128>(SlotReciprocal) * Delta) >> 64);
  }

  WindowOffset slotOffset(uint32_t Slot) const {
    CGC_ASSERT(Slot < ObjectCount, "slot index out of range");
    return firstSlotOffset() + uint64_t(Slot) * ObjectSize;
  }
};

/// Owns every block descriptor and recycles identifiers.  A destroyed
/// id keeps its descriptor, bitmap capacity included, and create hands
/// both out again, so the sweep's block releases and the allocator's
/// block creations call no system allocator.  With a MetadataArena,
/// descriptors are placement-constructed in sealable pages so wild
/// stores into them fault instead of corrupting silently (their
/// BitVector word arrays still live on the ordinary heap — a documented
/// gap; the verifier cross-checks catch those).
class BlockTable {
public:
  explicit BlockTable(MetadataArena *Arena = nullptr) : Arena(Arena) {}
  ~BlockTable();

  BlockTable(const BlockTable &) = delete;
  BlockTable &operator=(const BlockTable &) = delete;

  /// Creates a descriptor with every field at its default and returns
  /// its id (never InvalidBlockId).  The most recently destroyed id is
  /// reused first.
  BlockId create();

  /// Destroys descriptor \p Id; the id and its descriptor may be reused
  /// later.  Never allocates.
  void destroy(BlockId Id);

  BlockDescriptor &get(BlockId Id) {
    CGC_ASSERT(isLive(Id), "dereferencing a dead block id");
    return *Blocks[Id - 1];
  }

  const BlockDescriptor &get(BlockId Id) const {
    CGC_ASSERT(isLive(Id), "dereferencing a dead block id");
    return *Blocks[Id - 1];
  }

  /// Attributes a wild metadata write: when \p Addr lands inside a live
  /// descriptor object, \returns its id (else InvalidBlockId).  Linear
  /// scan — only the incident-report path uses it.
  BlockId descriptorContaining(const void *Addr) const {
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    for (BlockId Id = 1; Id <= Blocks.size(); ++Id) {
      if (!Live.test(Id - 1))
        continue;
      uintptr_t Base = reinterpret_cast<uintptr_t>(Blocks[Id - 1]);
      if (A >= Base && A < Base + sizeof(BlockDescriptor))
        return Id;
    }
    return InvalidBlockId;
  }

  bool isLive(BlockId Id) const {
    return Id != InvalidBlockId && Id <= Blocks.size() && Live.test(Id - 1);
  }

  size_t liveCount() const { return NumLive; }

  /// Calls \p Fn(BlockId, BlockDescriptor&) on every live block in id
  /// order.  Sweeping iterates this way and relies on ids being stable
  /// across the callback (the callback may destroy the current block).
  template <typename FnT> void forEach(FnT Fn) {
    for (BlockId Id = 1; Id <= Blocks.size(); ++Id)
      if (Live.test(Id - 1))
        Fn(Id, *Blocks[Id - 1]);
  }

private:
  BlockDescriptor *newDescriptor();
  void deleteDescriptor(BlockDescriptor *D);

  MetadataArena *Arena;
  /// Blocks[Id - 1] is id Id's descriptor, live or dead.
  std::vector<BlockDescriptor *> Blocks;
  /// Bit Id - 1 is set while id Id is live.
  BitVector Live;
  /// Dead ids, most recently destroyed last.  Its capacity never falls
  /// below Blocks.size(), so destroy's push never allocates.
  std::vector<BlockId> FreeIds;
  size_t NumLive = 0;
};

} // namespace cgc

#endif // CGC_HEAP_BLOCKTABLE_H
