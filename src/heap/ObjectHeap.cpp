//===- heap/ObjectHeap.cpp - Object-level allocator -----------------------===//

#include "heap/ObjectHeap.h"
#include "support/Clock.h"
#include "support/FaultInjection.h"
#include "support/MathExtras.h"
#include <algorithm>
#include <bit>
#include <cstring>

using namespace cgc;

ObjectHeap::ObjectHeap(VirtualArena &Arena, PageAllocator &Pages,
                       PageMap &Map, BlockTable &Blocks,
                       const ObjectHeapConfig &Config)
    : Arena(Arena), Pages(Pages), Map(Map), Blocks(Blocks),
      Marks(Pages.arenaBasePage(), Pages.arenaLimitPage()), Config(Config) {
  Lanes.resize(typedLane(0), PageSet(Pages.arenaBasePage()));
}

unsigned ObjectHeap::laneFor(LayoutId Id) const {
  const TypeDescriptor &D = layout(Id);
  switch (D.Class) {
  case DescriptorClass::Precise:
    return typedLane(Id);
  case DescriptorClass::PointerFree:
    return laneFor(D.SizeBytes, ObjectKind::PointerFree);
  case DescriptorClass::Conservative:
    return laneFor(D.SizeBytes, ObjectKind::Normal);
  }
  CGC_UNREACHABLE("bad descriptor class");
}

PageConstraint ObjectHeap::constraintFor(ObjectKind Kind, bool Large) const {
  // The emergency allocation mode would rather risk false retention on
  // a blacklisted interior page than report out of memory.
  PageConstraint Pointer = Config.PointerPageConstraint;
  if (EmergencyRelaxation && Pointer == PageConstraint::AllPagesClean)
    Pointer = PageConstraint::FirstPageClean;
  switch (Kind) {
  case ObjectKind::Uncollectable:
    // Never reclaimed, so a false reference costs nothing extra.
    return PageConstraint::None;
  case ObjectKind::PointerFreeUncollectable:
    // Both exemptions at once: never scanned and never reclaimed.
    return PageConstraint::None;
  case ObjectKind::PointerFree:
    // Small pointer-free objects are the paper's designated tenants of
    // blacklisted pages: pinning one retains only its own few bytes.
    // Large pointer-free objects still retain their full size when
    // pinned, so they honor the pointer constraint.
    return Large ? Pointer : PageConstraint::None;
  case ObjectKind::Normal:
    return Pointer;
  }
  CGC_UNREACHABLE("bad object kind");
}

BlockId ObjectHeap::pickAllocationBlock(unsigned Lane) {
  for (PageIndex Page; (Page = Lanes[Lane].lowest()) != PageSet::NoPage;) {
    BlockId Id = Map.blockAt(Page);
    BlockDescriptor &Block = Blocks.get(Id);
    if (!Block.Pending)
      return Id;
    sweepPendingBlock(Block, /*AtHandOut=*/true);
    if (listable(Block))
      return Id;
  }
  return InvalidBlockId;
}

void *ObjectHeap::allocateFromExisting(unsigned Lane, size_t Bytes) {
  BlockId Id = pickAllocationBlock(Lane);
  if (Id == InvalidBlockId)
    return nullptr;
  Stats.BytesRequested += std::max<size_t>(Bytes, 1);
  return takeSlot(Blocks.get(Id));
}

BlockId ObjectHeap::checkoutBlock(unsigned Lane) {
  BlockId Id = pickAllocationBlock(Lane);
  if (Id != InvalidBlockId) {
    BlockDescriptor &Block = Blocks.get(Id);
    Block.Owned = true;
    Block.MarkEpoch = 0;
    ++OwnedBlocks;
    relist(Block);
  }
  return Id;
}

uint32_t ObjectHeap::returnBlock(BlockId Id) {
  BlockDescriptor &Block = Blocks.get(Id);
  CGC_CHECK(Block.Owned, "returning a block that is not checked out");
  CGC_ASSERT(OwnedBlocks > 0, "owned-block count underflow");
  uint32_t Live = static_cast<uint32_t>(Block.AllocBits.count());
  AllocatedBytes = AllocatedBytes + uint64_t(Live) * Block.ObjectSize -
                   uint64_t(Block.AllocatedCount) * Block.ObjectSize;
  Block.AllocatedCount = Live;
  Block.Owned = false;
  Block.MarkEpoch = 0;
  --OwnedBlocks;
  relist(Block);
  return Block.usableFreeCount();
}

void ObjectHeap::markAllocatedObjectLive(const void *Ptr) {
  Address Addr = reinterpret_cast<Address>(Ptr);
  // Tolerant by contract: callers pin whatever a mid-collection
  // allocation handed back, and a pointer outside the arena (a libc
  // fallback, a bootstrap chunk) simply is not this heap's to pin.
  if (!Arena.contains(Addr))
    return;
  ObjectRef Ref = refForBase(Arena.offsetOf(Addr));
  if (!Ref.valid())
    return;
  BlockDescriptor &Block = Blocks.get(Ref.Block);
  CGC_CHECK(slotAllocated(Block, Ref.Slot), "pin of an unallocated slot");
  Marks.set(Block.slotOffset(Ref.Slot));
}

void *ObjectHeap::takeSlot(BlockDescriptor &Block) {
  // Lowest-index usable slot: address order within the block.
  size_t Slot = 0;
  while (true) {
    Slot = Block.AllocBits.findFirstUnset(Slot);
    CGC_CHECK(Slot != BitVector::Npos, "takeSlot on a full block");
    if (!Block.PinnedBits.test(Slot))
      break;
    ++Slot;
  }
  // Zeroed here, once: no free path clears a slot, so it may still hold
  // its last object's bytes.
  void *Result =
      Arena.pointerTo(Block.slotOffset(static_cast<uint32_t>(Slot)));
  std::memset(Result, 0, Block.ObjectSize);
  Block.AllocBits.set(Slot);
  ++Block.AllocatedCount;
  Block.MarkEpoch = 0;
  AllocatedBytes += Block.ObjectSize;
  ++Stats.ObjectsAllocated;
  relist(Block);
  return Result;
}

bool ObjectHeap::addBlock(unsigned Lane) {
  ObjectKind Kind = laneKind(Lane);
  LayoutId Layout = Lane < typedLane(0) ? 0 : Lane - typedLane(0);
  CGC_ASSERT(Layout == 0 || layout(Layout).Class == DescriptorClass::Precise,
             "only a Precise descriptor's own lane holds blocks");
  size_t SlotSize = SizeClasses.classSize(
      Layout != 0 ? SizeClasses.classForSize(layout(Layout).SizeBytes)
                  : Lane % SizeClasses.numClasses());
  // No page zeroing: every slot is zeroed when it is handed out, and
  // nothing reads the rest of the page.
  auto Run = Pages.allocateRun(1, constraintFor(Kind, /*Large=*/false),
                               /*Zeroed=*/false);
  if (!Run)
    return false;

  uint32_t FirstOffset = 0;
  if (Config.AvoidTrailingZeroAddresses && SlotSize <= PageSize / 4)
    FirstOffset = 2 * GranuleBytes;
  uint32_t Count = static_cast<uint32_t>((PageSize - FirstOffset) / SlotSize);
  CGC_CHECK(Count > 0, "size class slot does not fit a page");

  BlockId Id = Blocks.create();
  BlockDescriptor &Block = Blocks.get(Id);
  Block.StartPage = *Run;
  Block.NumPages = 1;
  Block.setSlotGeometry(static_cast<uint32_t>(SlotSize), Count, FirstOffset);
  Block.Kind = Kind;
  Block.IsLarge = false;
  Block.LayoutId = Layout;
  Block.AllocBits.resize(Count);
  Block.PinnedBits.resize(Count);
  Map.assignRun(*Run, 1, Id);
  Lanes[Lane].reserve(Pages.committedLimitPage());
  relist(Block);
  UncollectableBlocks += kindIsUncollectable(Kind);
  ++Stats.SmallBlocksCreated;
  return true;
}

LayoutId ObjectHeap::registerLayout(const std::vector<bool> &PointerWords,
                                    size_t SizeBytes) {
  CGC_CHECK(SizeBytes > 0 && SizeClassTable::isSmall(SizeBytes),
            "layouts describe small objects");
  CGC_CHECK(PointerWords.size() * WordBytes >= SizeBytes ||
                PointerWords.size() ==
                    (SizeBytes + WordBytes - 1) / WordBytes,
            "layout word count must cover the object");
  uint32_t Aligned =
      static_cast<uint32_t>(alignTo(SizeBytes, GranuleBytes));
  LayoutId Id = Descriptors.intern(PointerWords, Aligned);
  // Every id gets a lane, so lanes stay indexed by id; only a Precise
  // descriptor's lane is ever used.
  Lanes.resize(typedLane(LayoutId(Descriptors.size())) + 1,
               PageSet(Pages.arenaBasePage()));
  return Id;
}

void *ObjectHeap::allocateLarge(size_t Bytes, ObjectKind Kind,
                                bool IgnoreOffPage) {
  CGC_CHECK(Bytes > MaxSmallObjectBytes, "large-object path only");
  uint32_t FirstOffset =
      Config.AvoidTrailingZeroAddresses ? 2 * GranuleBytes : 0;
  uint64_t TotalBytes = uint64_t(Bytes) + FirstOffset;
  uint32_t NumPages = static_cast<uint32_t>(divideCeil(TotalBytes, PageSize));

  // Ignore-off-page objects only retain through first-page pointers, so
  // only the first page needs to dodge the blacklist (observation 7).
  PageConstraint Constraint = constraintFor(Kind, /*Large=*/true);
  if (IgnoreOffPage && Constraint == PageConstraint::AllPagesClean)
    Constraint = PageConstraint::FirstPageClean;
  auto Run = Pages.allocateRun(NumPages, Constraint);
  if (!Run)
    return nullptr;

  BlockId Id = Blocks.create();
  BlockDescriptor &Block = Blocks.get(Id);
  Block.StartPage = *Run;
  Block.NumPages = NumPages;
  Block.setSlotGeometry(static_cast<uint32_t>(Bytes), 1, FirstOffset);
  Block.Kind = Kind;
  Block.IsLarge = true;
  Block.IgnoreOffPage = IgnoreOffPage;
  Block.AllocBits.resize(1);
  Block.PinnedBits.resize(1);
  Block.AllocBits.set(0);
  Block.AllocatedCount = 1;
  Map.assignRun(*Run, NumPages, Id);
  AllocatedBytes += Bytes;
  UncollectableBlocks += kindIsUncollectable(Kind);
  ++Stats.ObjectsAllocated;
  Stats.BytesRequested += Bytes;
  ++Stats.LargeBlocksCreated;
  return Arena.pointerTo(Block.slotOffset(0));
}

ObjectHeap::FreeClass
ObjectHeap::classifyExplicitFree(const void *Ptr) const {
  Address Addr = reinterpret_cast<Address>(Ptr);
  if (!Arena.contains(Addr))
    return FreeClass::NonHeap;
  ObjectRef Ref = refForBase(Arena.offsetOf(Addr));
  if (!Ref.valid())
    return FreeClass::NotObjectBase;
  if (!isAllocated(Ref))
    return FreeClass::NotAllocated;
  return FreeClass::Ok;
}

bool ObjectHeap::deallocateExplicit(void *Ptr) {
  Address Addr = reinterpret_cast<Address>(Ptr);
  CGC_CHECK(Arena.contains(Addr), "explicit free of a non-heap pointer");
  WindowOffset Offset = Arena.offsetOf(Addr);
  ObjectRef Ref = refForBase(Offset);
  CGC_CHECK(Ref.valid(), "explicit free of a non-object pointer");
  BlockDescriptor &Block = Blocks.get(Ref.Block);

  if (Block.Owned) {
    // A free into another thread's owned block.  Its owner frees without
    // the lock, so it may have freed this slot since the caller's
    // classification, and may even have handed it out again: only the
    // atomic clear decides, and the loser is a double free.  Like every
    // free, this one leaves the slot's bytes: the next take zeroes them.
    // The block's counts are refolded from the bitmap when ownership
    // ends, and only the owner may relist the block.
    if (!Block.AllocBits.testAndResetAtomic(Ref.Slot))
      return false;
    ++Stats.ExplicitFrees;
    return true;
  }
  CGC_CHECK(isAllocated(Ref), "double free");
  ++Stats.ExplicitFrees;
  AllocatedBytes -= Block.ObjectSize;
  if (Block.IsLarge) {
    releaseBlock(Ref.Block);
    return true;
  }
  // Swept first: a free slot left marked in a pending block would be
  // pinned by its sweep.
  if (Block.Pending)
    sweepPendingBlock(Block, /*AtHandOut=*/true);
  Block.AllocBits.reset(Ref.Slot);
  --Block.AllocatedCount;
  Block.MarkEpoch = 0;
  relist(Block);
  return true;
}

ObjectRef ObjectHeap::refForBase(WindowOffset Offset) const {
  BlockId Id = Map.blockAt(pageOfOffset(Offset));
  if (Id == InvalidBlockId)
    return {};
  const BlockDescriptor &Block = Blocks.get(Id);
  int32_t Slot = Block.slotContaining(Offset);
  if (Slot < 0 || Block.slotOffset(static_cast<uint32_t>(Slot)) != Offset)
    return {};
  return {Id, static_cast<uint32_t>(Slot)};
}

WindowOffset ObjectHeap::baseOffset(ObjectRef Ref) const {
  return Blocks.get(Ref.Block).slotOffset(Ref.Slot);
}

size_t ObjectHeap::objectSize(ObjectRef Ref) const {
  return Blocks.get(Ref.Block).ObjectSize;
}

void ObjectHeap::clearMarks() {
  Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
    if (Block.Pending)
      sweepPendingBlock(Block, /*AtHandOut=*/false);
    Marks.clearBlock(Block);
  });
  if (++MarkEpoch == 0)
    MarkEpoch = 1;
}

void ObjectHeap::finishPendingSweeps() {
  if (PendingBlocks == 0)
    return;
  Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
    if (Block.Pending)
      sweepPendingBlock(Block, /*AtHandOut=*/false);
  });
}

void ObjectHeap::validateGuardedBlock(const BlockDescriptor &Block,
                                      SweepResult &Result) {
  if (!Config.Guards || Block.LayoutId != 0)
    return;
  // The collector flushes the quarantine before any sweep, so every
  // allocated untyped slot here carries an armed header.  Validate all
  // of them — including garbage about to be freed — so a smash is
  // caught even when the smashed object is already unreachable.  The
  // pass never validates a pending block.
  forEachAllocatedSlot(Block, [&](uint32_t Slot) {
    WindowOffset Base = Block.slotOffset(Slot);
    GuardLayer::Decoded Info =
        GuardLayer::inspect(Arena.pointerTo(Base), Block.ObjectSize);
    if (Info.HeaderIntact && Info.RedzoneIntact)
      return;
    GuardViolation V;
    V.Kind = Info.HeaderIntact ? GuardViolationKind::RedzoneSmash
                               : GuardViolationKind::HeaderSmash;
    V.Base = Base;
    V.Seqno = Info.Seqno;
    V.Site = Info.Site;
    V.UserBytes = Info.UserBytes;
    Result.GuardViolations.push_back(V);
  });
}

void ObjectHeap::pinMarkedFreeSlots(BlockDescriptor &Block,
                                    const uint64_t *Mark) {
  const uint64_t *Alloc = Block.AllocBits.words();
  uint64_t *Pinned = Block.PinnedBits.words();
  uint32_t PinnedCount = 0;
  for (size_t W = 0, E = Block.PinnedBits.numWords(); W != E; ++W) {
    uint64_t Pin = Mark[W] & ~Alloc[W] & Block.slotWordMask(W);
    Pinned[W] = Pin;
    PinnedCount += static_cast<uint32_t>(std::popcount(Pin));
  }
  Block.PinnedCount = PinnedCount;
}

uint32_t ObjectHeap::sweepSlots(BlockDescriptor &Block,
                                const uint64_t *Mark) {
  // A word of slots at a time: free unmarked allocated slots and pin
  // marked free slots.  Freed slots keep their bytes; the marker never
  // scans a free slot, and the allocator zeroes a slot when it hands
  // it out.
  pinMarkedFreeSlots(Block, Mark);
  uint64_t *Alloc = Block.AllocBits.words();
  uint32_t Freed = 0;
  for (size_t W = 0, E = Block.AllocBits.numWords(); W != E; ++W) {
    uint64_t Free = Alloc[W] & ~Mark[W] & Block.slotWordMask(W);
    Alloc[W] &= ~Free;
    Freed += static_cast<uint32_t>(std::popcount(Free));
  }
  return Freed;
}

void ObjectHeap::sweepPendingBlock(BlockDescriptor &Block, bool AtHandOut) {
  uint64_t Start = monotonicNanos();
  uint64_t Mark[MarkTable::MaxSlotWords];
  Marks.gather(Block, Mark);
  sweepSlots(Block, Mark);
  Block.Pending = false;
  Block.MarkEpoch = 0;
  --PendingBlocks;
  relist(Block);
  uint64_t Nanos = monotonicNanos() - Start;
  if (AtHandOut) {
    ++Stats.HandOutSweeps;
    Stats.HandOutSweepNanos += Nanos;
  } else {
    ++Stats.CycleStartSweeps;
    Stats.CycleStartSweepNanos += Nanos;
  }
}

void ObjectHeap::sweepSmallBlock(BlockId Id, SweepResult &Result) {
  BlockDescriptor &Block = Blocks.get(Id);
  CGC_ASSERT(!Block.IsLarge && !kindIsUncollectable(Block.Kind) &&
                 !Block.Owned && !Block.Pending,
             "sweepSmallBlock on wrong block kind");
  validateGuardedBlock(Block, Result);
  // Marks sit only at slot bases, so the line's population is the
  // number of marked slots.
  const uint64_t *Line = Marks.pageWords(Block.StartPage);
  uint32_t Marked = 0;
  for (size_t W = 0; W != MarkTable::WordsPerPage; ++W)
    Marked += static_cast<uint32_t>(std::popcount(Line[W]));
  const size_t NumWords = Block.AllocBits.numWords();
  uint32_t Freed = 0;
  bool Defer = Marked != 0 && Marked != Block.ObjectCount;
  if (!Defer) {
    // No slot marked, or every one: the slot-indexed marks need no
    // gather, and the sweep is a few word operations.
    uint64_t Mark[MarkTable::MaxSlotWords];
    for (size_t W = 0; W != NumWords; ++W)
      Mark[W] = Marked != 0 ? Block.slotWordMask(W) : 0;
    Freed = sweepSlots(Block, Mark);
  } else {
    // Partly marked: the block is swept when a mutator first reaches
    // it.  Its counts are charged now, from the marker's tally of the
    // free slots it marked, without touching its bitmaps; a block the
    // tally does not cover is counted from its gathered marks instead.
    uint32_t Pinned = Block.MarkedFree;
    uint32_t Live = Marked - Pinned;
    if (Block.MarkEpoch == MarkEpoch && Pinned <= Marked &&
        Live <= Block.AllocatedCount) {
      Freed = Block.AllocatedCount - Live;
    } else {
      const uint64_t *Alloc = Block.AllocBits.words();
      uint64_t Mark[MarkTable::MaxSlotWords];
      Marks.gather(Block, Mark);
      Pinned = 0;
      for (size_t W = 0; W != NumWords; ++W) {
        uint64_t Mask = Block.slotWordMask(W);
        Freed +=
            static_cast<uint32_t>(std::popcount(Alloc[W] & ~Mark[W] & Mask));
        Pinned +=
            static_cast<uint32_t>(std::popcount(Mark[W] & ~Alloc[W] & Mask));
      }
    }
    Block.PinnedCount = Pinned;
  }
  uint64_t BytesFreed = uint64_t(Freed) * Block.ObjectSize;
  Block.AllocatedCount -= Freed;
  AllocatedBytes -= BytesFreed;
  Result.BytesSweptFree += BytesFreed;
  Result.ObjectsSweptFree += Freed;
  Result.ObjectsLive += Block.AllocatedCount;
  Result.BytesLive += uint64_t(Block.AllocatedCount) * Block.ObjectSize;
  Result.SlotsPinned += Block.PinnedCount;
  if (Block.AllocatedCount == 0 && Block.PinnedCount == 0) {
    Result.PagesReleased += Block.NumPages;
    releaseBlock(Id);
    return;
  }
  if (Defer) {
    Block.Pending = true;
    ++PendingBlocks;
  }
  relist(Block);
}

SweepResult ObjectHeap::sweep() {
  SweepResult Result;
  // Only a caller that runs the pass twice over one mark finds pending
  // blocks here.
  finishPendingSweeps();

  // One walk in block-id order.  Uncollectable blocks get word-wise
  // pin scans, and small collectable blocks go through sweepSmallBlock,
  // which may release the block being visited (forEach allows that).
  // Unmarked large blocks are released after the walk: this release
  // order, small blocks in id order and then large ones, fixes the
  // free-page runs.  The lanes are not emptied: each visited block is
  // relisted in place, and a block that stays listed costs one bit
  // store.
  LargeToRelease.clear();
  Blocks.forEach([&](BlockId Id, BlockDescriptor &Block) {
    if (kindIsUncollectable(Block.Kind)) {
      validateGuardedBlock(Block, Result);
      // Never reclaimed; free slots may still be pinned by marks.
      uint64_t Mark[MarkTable::MaxSlotWords];
      Marks.gather(Block, Mark);
      pinMarkedFreeSlots(Block, Mark);
      Result.ObjectsLive += Block.AllocatedCount;
      Result.BytesLive += uint64_t(Block.AllocatedCount) * Block.ObjectSize;
      Result.SlotsPinned += Block.PinnedCount;
      relist(Block);
      return;
    }

    if (Block.IsLarge) {
      CGC_ASSERT(Block.AllocatedCount == 1,
                 "live large block must hold its object");
      validateGuardedBlock(Block, Result);
      if (!Marks.isMarked(Block, 0)) {
        Result.BytesSweptFree += Block.ObjectSize;
        ++Result.ObjectsSweptFree;
        Result.PagesReleased += Block.NumPages;
        AllocatedBytes -= Block.ObjectSize;
        LargeToRelease.push_back(Id);
      } else {
        ++Result.ObjectsLive;
        Result.BytesLive += Block.ObjectSize;
      }
      return;
    }

    if (Block.Owned) {
      // Still checked out: its owner is frozen by the suspend signal,
      // possibly in the middle of a lock-free allocation or free, so
      // the block is neither swept nor released this cycle.
      uint64_t Live = Block.AllocBits.count();
      Result.ObjectsLive += Live;
      Result.BytesLive += Live * Block.ObjectSize;
      return;
    }
    sweepSmallBlock(Id, Result);
  });

  for (BlockId Id : LargeToRelease)
    releaseBlock(Id);
  return Result;
}

HeapVerifyReport ObjectHeap::verify() { return HeapVerifier(*this).run(); }

HeapVerifyReport ObjectHeap::verifyMarksClear() {
  return HeapVerifier(*this).checkMarksClear();
}

HeapVerifyReport ObjectHeap::verifyAndRepair(HeapRepairStats &Stats) {
  return HeapVerifier(*this).verifyAndRepair(Stats);
}

#ifdef CGC_FAULT_INJECTION_ENABLED
/// \returns the \p N-th live block (mod the live count), or
/// InvalidBlockId on an empty table.  Deterministic: id order.
static BlockId nthLiveBlock(BlockTable &Blocks, uint64_t N) {
  size_t Live = Blocks.liveCount();
  if (Live == 0)
    return InvalidBlockId;
  N %= Live;
  BlockId Found = InvalidBlockId;
  uint64_t I = 0;
  Blocks.forEach([&](BlockId Id, BlockDescriptor &) {
    if (I++ == N)
      Found = Id;
  });
  return Found;
}
#endif

void ObjectHeap::injectMetadataFaults() {
#ifdef CGC_FAULT_INJECTION_ENABLED
  FaultInjector &Injector = FaultInjector::instance();

  if (CGC_INJECT_FAULT(MetadataHeaderFlip)) {
    // Flip the low bit of a live block's allocated counter: header
    // damage the counter/bitmap cross-check must catch.
    uint64_t N = Injector.firedRelaxed(FaultSite::MetadataHeaderFlip);
    BlockId Id = nthLiveBlock(Blocks, N);
    if (Id != InvalidBlockId)
      Blocks.get(Id).AllocatedCount ^= 1;
  }

  if (CGC_INJECT_FAULT(MetadataFreeListSmash)) {
    // Delist the lowest block of the first nonempty lane: a block with
    // usable slots goes invisible to the allocator.
    for (PageSet &Listed : Lanes)
      if (PageIndex Page = Listed.lowest(); Page != PageSet::NoPage) {
        Listed.erase(Page);
        break;
      }
  }

  if (CGC_INJECT_FAULT(MetadataPageMapClobber)) {
    // Zero a live block's start-page entry: the block's pages orphan.
    uint64_t N = Injector.firedRelaxed(FaultSite::MetadataPageMapClobber);
    BlockId Id = nthLiveBlock(Blocks, N);
    if (Id != InvalidBlockId)
      Map.setRaw(Blocks.get(Id).StartPage, InvalidBlockId);
  }

  if (CGC_INJECT_FAULT(MetadataAllocBitFlip)) {
    // SET a clear, non-pinned alloc bit (never clear one — repair
    // trusts the bitmap, and clearing would free a live object).  The
    // repaired heap leaks that one slot until the next sweep reclaims
    // it as unmarked garbage.
    uint64_t N = Injector.firedRelaxed(FaultSite::MetadataAllocBitFlip);
    size_t Live = Blocks.liveCount();
    for (size_t Try = 0; Try != Live; ++Try) {
      BlockId Id = nthLiveBlock(Blocks, N + Try);
      if (Id == InvalidBlockId)
        break;
      BlockDescriptor &B = Blocks.get(Id);
      if (B.IsLarge)
        continue;
      bool Flipped = false;
      for (uint32_t Slot = 0; Slot != B.ObjectCount; ++Slot) {
        if (!B.AllocBits.test(Slot) && !B.PinnedBits.test(Slot)) {
          B.AllocBits.set(Slot);
          Flipped = true;
          break;
        }
      }
      if (Flipped)
        break;
    }
  }
#endif
}

void ObjectHeap::verifyHeap() {
  HeapVerifyReport Report = verify();
  if (Report.clean())
    return;
  Report.fatal("heap verification failed", "cgc heap verification failed");
}

void ObjectHeap::releaseBlock(BlockId Id) {
  BlockDescriptor &Block = Blocks.get(Id);
  CGC_ASSERT(!Block.Pending, "releasing a pending block");
  // A released block has no slots, so it leaves its lane.
  Block.ObjectCount = 0;
  relist(Block);
  UncollectableBlocks -= kindIsUncollectable(Block.Kind);
  // A stale bit would let the mark loop's first test accept a base on
  // a free page, skipping that page's near-miss note.
  Marks.clearBlock(Block);
  Map.clearRun(Block.StartPage, Block.NumPages);
  Pages.freeRun(Block.StartPage, Block.NumPages);
  ++Stats.BlocksReleased;
  Blocks.destroy(Id);
}

void ObjectHeap::relist(const BlockDescriptor &Block) {
  if (Block.IsLarge)
    return;
  PageSet &Listed = Lanes[laneOf(Block)];
  if (listable(Block))
    Listed.insert(Block.StartPage);
  else
    Listed.erase(Block.StartPage);
}
