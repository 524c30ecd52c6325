//===- tests/TestHeap.cpp - Heap layer unit tests -------------------------===//

#include "heap/BlockTable.h"
#include "heap/ObjectHeap.h"
#include "heap/PageAllocator.h"
#include "heap/PageMap.h"
#include "heap/SizeClassTable.h"
#include "heap/ThreadCache.h"
#include "heap/VirtualArena.h"
#include "support/BitVector.h"
#include "support/Random.h"
#include <cstring>
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <vector>

using namespace cgc;

//===----------------------------------------------------------------------===//
// VirtualArena
//===----------------------------------------------------------------------===//

TEST(VirtualArena, ReserveAndConvert) {
  VirtualArena Arena(64 << 20);
  EXPECT_EQ(Arena.size(), uint64_t(64) << 20);
  EXPECT_EQ(Arena.numPages(), (64u << 20) / PageSize);
  Address Base = Arena.base();
  EXPECT_NE(Base, 0u);
  EXPECT_TRUE(Arena.contains(Base));
  EXPECT_TRUE(Arena.contains(Base + Arena.size() - 1));
  EXPECT_FALSE(Arena.contains(Base + Arena.size()));
  EXPECT_EQ(Arena.offsetOf(Base + 12345), 12345u);
  EXPECT_EQ(Arena.addressOf(777), Base + 777);
}

TEST(VirtualArena, MemoryIsZeroAndWritable) {
  VirtualArena Arena(4 << 20);
  auto *P = static_cast<unsigned char *>(Arena.pointerTo(PageSize * 3));
  EXPECT_EQ(P[0], 0);
  P[0] = 42;
  P[PageSize - 1] = 43;
  EXPECT_EQ(P[0], 42);
}

TEST(VirtualArena, DecommitZeroes) {
  VirtualArena Arena(4 << 20);
  auto *P = static_cast<unsigned char *>(Arena.pointerTo(PageSize));
  std::memset(P, 0xAA, PageSize);
  Arena.decommit(PageSize, PageSize);
  EXPECT_EQ(P[0], 0);
  EXPECT_EQ(P[PageSize - 1], 0);
}

//===----------------------------------------------------------------------===//
// SizeClassTable
//===----------------------------------------------------------------------===//

TEST(SizeClassTable, RoundTripInvariant) {
  SizeClassTable Table;
  // Every size maps to a class whose slot size fits it, and no smaller
  // class would.
  for (size_t Bytes = 1; Bytes <= MaxSmallObjectBytes; ++Bytes) {
    unsigned Class = Table.classForSize(Bytes);
    size_t Slot = Table.classSize(Class);
    EXPECT_GE(Slot, Bytes) << "class too small for " << Bytes;
    if (Class > 0) {
      EXPECT_LT(Table.classSize(Class - 1), Bytes)
          << "not the tightest class for " << Bytes;
    }
  }
}

TEST(SizeClassTable, FineGranularityAtBottom) {
  SizeClassTable Table;
  // The paper's 8-byte cells must get an exact class.
  EXPECT_EQ(Table.classSize(Table.classForSize(8)), 8u);
  EXPECT_EQ(Table.classSize(Table.classForSize(16)), 16u);
  EXPECT_EQ(Table.classSize(Table.classForSize(9)), 16u);
  EXPECT_EQ(Table.classSize(Table.classForSize(512)), 512u);
}

TEST(SizeClassTable, ClassSizesStrictlyIncrease) {
  SizeClassTable Table;
  for (unsigned C = 1; C != Table.numClasses(); ++C)
    EXPECT_LT(Table.classSize(C - 1), Table.classSize(C));
  EXPECT_EQ(Table.classSize(Table.numClasses() - 1), MaxSmallObjectBytes);
}

//===----------------------------------------------------------------------===//
// BlockTable
//===----------------------------------------------------------------------===//

TEST(BlockTable, CreateDestroyReuse) {
  BlockTable Table;
  BlockId A = Table.create();
  BlockId B = Table.create();
  EXPECT_NE(A, InvalidBlockId);
  EXPECT_NE(A, B);
  EXPECT_TRUE(Table.isLive(A));
  EXPECT_EQ(Table.liveCount(), 2u);
  Table.destroy(A);
  EXPECT_FALSE(Table.isLive(A));
  EXPECT_EQ(Table.liveCount(), 1u);
  BlockId C = Table.create();
  EXPECT_EQ(C, A); // Id recycled.
  EXPECT_TRUE(Table.isLive(C));

  // A recycled descriptor comes back with every field at its default.
  BlockDescriptor &Used = Table.get(B);
  Used.StartPage = 7;
  Used.NumPages = 3;
  Used.setSlotGeometry(/*Size=*/32, /*Count=*/100, /*FirstOffset=*/16);
  Used.LayoutId = 5;
  Used.Kind = ObjectKind::Uncollectable;
  Used.IgnoreOffPage = true;
  Used.IsLarge = true;
  Used.Owned = true;
  Used.AllocBits.resize(100);
  Used.PinnedBits.resize(100);
  Used.AllocBits.setAll();
  Used.PinnedBits.set(99);
  Used.AllocatedCount = 100;
  Used.PinnedCount = 1;
  const BlockDescriptor *Address = &Used;
  Table.destroy(B);
  EXPECT_EQ(Table.descriptorContaining(Address), InvalidBlockId)
      << "a dead id's descriptor must not be attributed";
  BlockId D = Table.create();
  ASSERT_EQ(D, B);
  const BlockDescriptor &Fresh = Table.get(D);
  EXPECT_EQ(Fresh.StartPage, 0u);
  EXPECT_EQ(Fresh.NumPages, 0u);
  EXPECT_EQ(Fresh.ObjectSize, 0u);
  EXPECT_EQ(Fresh.ObjectCount, 0u);
  EXPECT_EQ(Fresh.FirstObjectOffset, 0u);
  EXPECT_EQ(Fresh.SlotReciprocal, 0u);
  EXPECT_EQ(Fresh.LayoutId, 0u);
  EXPECT_EQ(Fresh.Kind, ObjectKind::Normal);
  EXPECT_FALSE(Fresh.IgnoreOffPage);
  EXPECT_FALSE(Fresh.IsLarge);
  EXPECT_FALSE(Fresh.Owned);
  EXPECT_EQ(Fresh.AllocatedCount, 0u);
  EXPECT_EQ(Fresh.PinnedCount, 0u);
  EXPECT_TRUE(Fresh.AllocBits.empty());
  EXPECT_TRUE(Fresh.PinnedBits.empty());
  EXPECT_EQ(Table.descriptorContaining(&Fresh), D);

  // Re-created with fewer slots, the block starts with no alloc or pin
  // bit set, even where the old, longer bitmaps had them.
  BlockDescriptor &Smaller = Table.get(D);
  Smaller.AllocBits.resize(70);
  Smaller.PinnedBits.resize(70);
  EXPECT_EQ(Smaller.AllocBits.count(), 0u);
  EXPECT_EQ(Smaller.PinnedBits.count(), 0u);
  EXPECT_EQ(Smaller.AllocBits.findFirstSet(), BitVector::Npos);
  EXPECT_EQ(Table.liveCount(), 2u);
}

TEST(BlockTable, SlotGeometry) {
  BlockDescriptor Block;
  Block.StartPage = 10;
  Block.NumPages = 1;
  Block.setSlotGeometry(/*Size=*/8, /*Count=*/510, /*FirstOffset=*/16);
  WindowOffset Start = offsetOfPage(10);
  EXPECT_EQ(Block.firstSlotOffset(), Start + 16);
  EXPECT_EQ(Block.slotOffset(0), Start + 16);
  EXPECT_EQ(Block.slotOffset(2), Start + 32);
  EXPECT_EQ(Block.slotContaining(Start + 16), 0);
  EXPECT_EQ(Block.slotContaining(Start + 23), 0);
  EXPECT_EQ(Block.slotContaining(Start + 24), 1);
  EXPECT_EQ(Block.slotContaining(Start + 15), -1); // Header gap.
  EXPECT_EQ(Block.slotContaining(Start + 16 + 510 * 8), -1); // Tail.
}

namespace {

/// slotContaining as first written: a 64-bit divide, then a range check.
int32_t referenceSlotContaining(const BlockDescriptor &Block,
                                WindowOffset Offset) {
  WindowOffset First = Block.firstSlotOffset();
  if (Offset < First)
    return -1;
  uint64_t Slot = (Offset - First) / Block.ObjectSize;
  return Slot >= Block.ObjectCount ? -1 : static_cast<int32_t>(Slot);
}

} // namespace

TEST(BlockTable, SlotContainingMatchesReferenceDivision) {
  // Small blocks: every size class, every byte of its one-page block
  // and of the page after it, with and without a header gap.  The
  // reciprocal multiply must agree with the divide everywhere.
  SizeClassTable Classes;
  for (unsigned Class = 0; Class != Classes.numClasses(); ++Class) {
    for (uint32_t FirstOffset : {0u, 16u}) {
      BlockDescriptor Block;
      Block.StartPage = 37;
      Block.NumPages = 1;
      uint32_t Size = static_cast<uint32_t>(Classes.classSize(Class));
      uint32_t Count = static_cast<uint32_t>((PageSize - FirstOffset) / Size);
      if (Count == 0)
        continue;
      Block.setSlotGeometry(Size, Count, FirstOffset);
      WindowOffset Start = Block.startOffset();
      for (WindowOffset Offset = Start; Offset != Start + 2 * PageSize;
           ++Offset)
        ASSERT_EQ(Block.slotContaining(Offset),
                  referenceSlotContaining(Block, Offset))
            << "slot size " << Block.ObjectSize << ", first offset "
            << FirstOffset << ", byte " << Offset - Start;
    }
  }

  // Every multi-slot size, class or not, over the bytes of its block.
  for (uint32_t Size = 2; Size <= PageSize / 2; ++Size) {
    BlockDescriptor Block;
    Block.StartPage = 41;
    Block.NumPages = 1;
    Block.setSlotGeometry(Size, static_cast<uint32_t>(PageSize / Size), 0);
    uint64_t Mismatches = 0;
    WindowOffset Start = Block.startOffset();
    for (WindowOffset Offset = Start; Offset != Start + PageSize; ++Offset)
      Mismatches += Block.slotContaining(Offset) !=
                    referenceSlotContaining(Block, Offset);
    ASSERT_EQ(Mismatches, 0u) << "slot size " << Size;
  }

  // Large blocks: one slot, no divide.  Probe the header gap, the first
  // and last byte of the object, one past its end, and the block's
  // tail page.
  for (uint32_t FirstOffset : {0u, 16u}) {
    for (uint32_t Bytes : {uint32_t(PageSize) + 1, uint32_t(5 * PageSize),
                           uint32_t(3 << 20) - 7}) {
      BlockDescriptor Block;
      Block.StartPage = 300;
      Block.NumPages =
          static_cast<uint32_t>((Bytes + FirstOffset + PageSize - 1) /
                                PageSize);
      Block.setSlotGeometry(Bytes, 1, FirstOffset);
      Block.IsLarge = true;
      WindowOffset First = Block.firstSlotOffset();
      for (WindowOffset Offset :
           {Block.startOffset(), First, First + 1, First + Bytes - 1,
            First + Bytes, Block.endOffset() - 1, Block.endOffset()})
        EXPECT_EQ(Block.slotContaining(Offset),
                  referenceSlotContaining(Block, Offset))
            << "large object of " << Bytes << " bytes, byte "
            << Offset - Block.startOffset();
      EXPECT_EQ(Block.slotContaining(First), 0);
      EXPECT_EQ(Block.slotContaining(First + Bytes - 1), 0);
      EXPECT_EQ(Block.slotContaining(First + Bytes), -1);
    }
  }
}

//===----------------------------------------------------------------------===//
// PageMap
//===----------------------------------------------------------------------===//

TEST(PageMap, AssignAndClear) {
  PageMap Map(1024);
  EXPECT_EQ(Map.blockAt(5), InvalidBlockId);
  Map.assignRun(5, 3, 7);
  EXPECT_EQ(Map.blockAt(4), InvalidBlockId);
  EXPECT_EQ(Map.blockAt(5), 7u);
  EXPECT_EQ(Map.blockAt(7), 7u);
  EXPECT_EQ(Map.blockAt(8), InvalidBlockId);
  Map.clearRun(5, 3);
  EXPECT_EQ(Map.blockAt(6), InvalidBlockId);
  // Out of range reads are safe and empty.
  EXPECT_EQ(Map.blockAt(5000), InvalidBlockId);
}

//===----------------------------------------------------------------------===//
// PageAllocator
//===----------------------------------------------------------------------===//

namespace {

struct PageAllocFixture : public ::testing::Test {
  PageAllocFixture()
      : Arena(64 << 20),
        Pages(Arena, /*BasePage=*/256, /*MaxPages=*/2048,
              /*GrowthPages=*/64) {}
  VirtualArena Arena;
  PageAllocator Pages;
};

} // namespace

TEST_F(PageAllocFixture, GrowOnDemandAndAddressOrder) {
  auto A = Pages.allocateRun(4, PageConstraint::None);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(*A, 256u); // Lowest address first.
  auto B = Pages.allocateRun(4, PageConstraint::None);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(*B, 260u);
  EXPECT_EQ(Pages.stats().CommittedPages, 64u);
}

TEST_F(PageAllocFixture, FreeCoalescesAndReusesLowest) {
  auto A = Pages.allocateRun(4, PageConstraint::None);
  auto B = Pages.allocateRun(4, PageConstraint::None);
  auto C = Pages.allocateRun(4, PageConstraint::None);
  ASSERT_TRUE(A && B && C);
  Pages.freeRun(*A, 4);
  Pages.freeRun(*C, 4);
  // A and C are separated by live B: two runs plus the growth tail.
  size_t Runs = 0;
  Pages.forEachFreeRun([&](PageIndex, uint32_t) { ++Runs; });
  EXPECT_EQ(Runs, 2u); // [A..A+4) and [C.. end of committed).
  Pages.freeRun(*B, 4);
  Runs = 0;
  uint32_t TotalFree = 0;
  Pages.forEachFreeRun([&](PageIndex, uint32_t Len) {
    ++Runs;
    TotalFree += Len;
  });
  EXPECT_EQ(Runs, 1u) << "adjacent runs must coalesce";
  EXPECT_EQ(TotalFree, 64u);
  // Next allocation comes from the lowest address again.
  auto D = Pages.allocateRun(2, PageConstraint::None);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 256u);
}

namespace {
bool pageResident(const void *Page) {
  unsigned char Vec = 0;
  EXPECT_EQ(::mincore(const_cast<void *>(Page), PageSize, &Vec), 0);
  return (Vec & 1) != 0;
}
bool pageIsZero(const unsigned char *Page) {
  for (size_t I = 0; I != PageSize; ++I)
    if (Page[I] != 0)
      return false;
  return true;
}
} // namespace

// A freed page is decommitted only once it has stayed free from one
// ageDeferredDecommits call to the next.  Reused before that, it is
// zeroed in place; reused after, it refaults as zero.  Either way a
// fresh run reads as zero.
TEST_F(PageAllocFixture, FreedPagesDecommitAfterAgingAndReadZero) {
  auto A = Pages.allocateRun(1, PageConstraint::None);
  ASSERT_TRUE(A.has_value());
  auto *Mem = static_cast<unsigned char *>(Arena.pointerTo(offsetOfPage(*A)));
  std::memset(Mem, 0xcd, PageSize);
  Pages.freeRun(*A, 1);
  Pages.ageDeferredDecommits();
  EXPECT_TRUE(pageResident(Mem)) << "one aging call must not decommit";
  auto B = Pages.allocateRun(1, PageConstraint::None);
  ASSERT_EQ(B, A);
  EXPECT_TRUE(pageIsZero(Mem)) << "reused before aging: zeroed in place";

  std::memset(Mem, 0xcd, PageSize);
  Pages.freeRun(*A, 1);
  Pages.ageDeferredDecommits();
  Pages.ageDeferredDecommits();
  EXPECT_FALSE(pageResident(Mem)) << "a whole cycle free: decommitted";
  auto C = Pages.allocateRun(1, PageConstraint::None);
  ASSERT_EQ(C, A);
  EXPECT_TRUE(pageIsZero(Mem));
}

TEST_F(PageAllocFixture, ArenaLimitRespected) {
  auto Big = Pages.allocateRun(2048, PageConstraint::None);
  ASSERT_TRUE(Big.has_value());
  auto TooMuch = Pages.allocateRun(1, PageConstraint::None);
  EXPECT_FALSE(TooMuch.has_value());
  EXPECT_GE(Pages.stats().FailedRequests, 1u);
  Pages.freeRun(*Big, 2048);
  auto Retry = Pages.allocateRun(1, PageConstraint::None);
  EXPECT_TRUE(Retry.has_value());
}

TEST_F(PageAllocFixture, BlacklistFirstPageClean) {
  BitVector Bad(Arena.numPages());
  Bad.set(256);
  Bad.set(257);
  Pages.setBlacklistQuery([&](PageIndex P) { return Bad.test(P); });
  auto Run = Pages.allocateRun(2, PageConstraint::FirstPageClean);
  ASSERT_TRUE(Run.has_value());
  EXPECT_EQ(*Run, 258u) << "must skip blacklisted first pages";
  // FirstPageClean allows later pages of the run to be blacklisted.
  Bad.set(261);
  auto Run2 = Pages.allocateRun(2, PageConstraint::FirstPageClean);
  ASSERT_TRUE(Run2.has_value());
  EXPECT_EQ(*Run2, 260u);
}

TEST_F(PageAllocFixture, BlacklistAllPagesClean) {
  BitVector Bad(Arena.numPages());
  Bad.set(258); // A hole two pages in.
  Pages.setBlacklistQuery([&](PageIndex P) { return Bad.test(P); });
  auto Run = Pages.allocateRun(4, PageConstraint::AllPagesClean);
  ASSERT_TRUE(Run.has_value());
  EXPECT_EQ(*Run, 259u) << "run must not span a blacklisted page";
  EXPECT_GT(Pages.stats().BlacklistSkippedPages, 0u);
  // Pointer-free placement ignores the blacklist entirely.
  auto Free = Pages.allocateRun(1, PageConstraint::None);
  ASSERT_TRUE(Free.has_value());
  EXPECT_EQ(*Free, 256u);
}

TEST_F(PageAllocFixture, FullyBlacklistedForcesGrowth) {
  // Blacklist the entire first growth increment.
  Pages.setBlacklistQuery([](PageIndex P) { return P < 256 + 64; });
  auto Run = Pages.allocateRun(1, PageConstraint::AllPagesClean);
  ASSERT_TRUE(Run.has_value());
  EXPECT_GE(*Run, 256u + 64u) << "heap must grow past blacklisted pages";
  EXPECT_GE(Pages.stats().GrowEvents, 2u);
}

TEST_F(PageAllocFixture, PotentialHeapBounds) {
  EXPECT_FALSE(Pages.inPotentialHeap(255));
  EXPECT_TRUE(Pages.inPotentialHeap(256));
  EXPECT_TRUE(Pages.inPotentialHeap(256 + 2047));
  EXPECT_FALSE(Pages.inPotentialHeap(256 + 2048));
}

//===----------------------------------------------------------------------===//
// ObjectHeap
//===----------------------------------------------------------------------===//

namespace {

struct ObjectHeapFixture : public ::testing::Test {
  ObjectHeapFixture()
      : Arena(64 << 20),
        Pages(Arena, 256, 2048, 64),
        Map(Arena.numPages()) {
    ObjectHeapConfig Config;
    Heap = std::make_unique<ObjectHeap>(Arena, Pages, Map, Blocks, Config);
  }

  void *allocSmall(size_t Bytes, ObjectKind Kind = ObjectKind::Normal) {
    unsigned Lane = Heap->laneFor(Bytes, Kind);
    void *P = Heap->allocateFromExisting(Lane, Bytes);
    if (!P) {
      EXPECT_TRUE(Heap->addBlock(Lane));
      P = Heap->allocateFromExisting(Lane, Bytes);
    }
    return P;
  }

  BlockDescriptor &blockOf(void *P) {
    WindowOffset Off = Arena.offsetOf(reinterpret_cast<Address>(P));
    return Blocks.get(Map.blockAt(pageOfOffset(Off)));
  }

  VirtualArena Arena;
  PageAllocator Pages;
  PageMap Map;
  BlockTable Blocks;
  std::unique_ptr<ObjectHeap> Heap;
};

} // namespace

TEST_F(ObjectHeapFixture, SmallAllocationBasics) {
  void *A = allocSmall(8);
  void *B = allocSmall(8);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(A, B);
  // Same page, adjacent slots, address-ordered.
  EXPECT_EQ(reinterpret_cast<Address>(B), reinterpret_cast<Address>(A) + 8);
  EXPECT_EQ(Heap->allocatedBytes(), 16u);
  ObjectRef RefA = Heap->refForBase(Arena.offsetOf(
      reinterpret_cast<Address>(A)));
  ASSERT_TRUE(RefA.valid());
  EXPECT_EQ(Heap->objectSize(RefA), 8u);
  EXPECT_TRUE(Heap->isAllocated(RefA));
}

TEST_F(ObjectHeapFixture, TrailingZeroAvoidance) {
  void *A = allocSmall(8);
  // With AvoidTrailingZeroAddresses the first slot sits 16 bytes into
  // the page: the address cannot have 12+ trailing zero bits.
  EXPECT_EQ(reinterpret_cast<Address>(A) % PageSize, 16u);
}

TEST_F(ObjectHeapFixture, RefForBaseRejectsNonBase) {
  void *A = allocSmall(32);
  WindowOffset Base = Arena.offsetOf(reinterpret_cast<Address>(A));
  EXPECT_TRUE(Heap->refForBase(Base).valid());
  EXPECT_FALSE(Heap->refForBase(Base + 8).valid());
  EXPECT_FALSE(Heap->refForBase(Base - 16).valid()); // Header gap.
}

TEST_F(ObjectHeapFixture, ExplicitFreeAndReuse) {
  void *A = allocSmall(8);
  void *B = allocSmall(8);
  (void)B;
  Heap->deallocateExplicit(A);
  EXPECT_EQ(Heap->stats().ExplicitFrees, 1u);
  void *C = allocSmall(8);
  EXPECT_EQ(C, A) << "address-ordered reuse takes the lowest free slot";
}

TEST_F(ObjectHeapFixture, ClassifyExplicitFreeCoversEveryMisuseClass) {
  // The Collector's unguarded free path classifies before freeing so
  // hostile pointers become incidents instead of CGC_CHECK aborts;
  // this is the classifier's ground truth.
  void *A = allocSmall(32);
  EXPECT_EQ(Heap->classifyExplicitFree(A), ObjectHeap::FreeClass::Ok);

  int Local = 0;
  EXPECT_EQ(Heap->classifyExplicitFree(&Local),
            ObjectHeap::FreeClass::NonHeap);

  EXPECT_EQ(Heap->classifyExplicitFree(static_cast<char *>(A) + 8),
            ObjectHeap::FreeClass::NotObjectBase);

  Heap->deallocateExplicit(A);
  EXPECT_EQ(Heap->classifyExplicitFree(A),
            ObjectHeap::FreeClass::NotAllocated);

  // Large objects classify through the same ladder.
  void *Big = Heap->allocateLarge(3 * PageSize, ObjectKind::Normal);
  EXPECT_EQ(Heap->classifyExplicitFree(Big), ObjectHeap::FreeClass::Ok);
  EXPECT_EQ(Heap->classifyExplicitFree(static_cast<char *>(Big) + 64),
            ObjectHeap::FreeClass::NotObjectBase);
}

TEST_F(ObjectHeapFixture, MarkAllocatedObjectLivePinsAcrossSweep) {
  // Objects allocated from inside a collection (observer callbacks via
  // the redirect layer) are pinned by setting their mark bit so the
  // in-flight cycle's sweep cannot reclaim them.
  void *A = allocSmall(48);
  void *B = allocSmall(48);
  Heap->markAllocatedObjectLive(A);

  ObjectRef RefA = Heap->refForBase(
      Arena.offsetOf(reinterpret_cast<Address>(A)));
  ObjectRef RefB = Heap->refForBase(
      Arena.offsetOf(reinterpret_cast<Address>(B)));
  ASSERT_TRUE(RefA.valid());
  ASSERT_TRUE(RefB.valid());
  EXPECT_TRUE(Heap->isMarked(RefA));
  EXPECT_FALSE(Heap->isMarked(RefB));

  // Pointers outside the arena are ignored, not fatal.
  int Local = 0;
  Heap->markAllocatedObjectLive(&Local);
}

namespace {
/// Fills \p Bytes at \p P with a nonzero pattern.
void dirty(void *P, size_t Bytes) { std::memset(P, 0xAB, Bytes); }
/// \returns true if every byte at \p P reads \p Value.
bool allBytesAre(const void *P, size_t Bytes, unsigned char Value) {
  const auto *B = static_cast<const unsigned char *>(P);
  for (size_t I = 0; I != Bytes; ++I)
    if (B[I] != Value)
      return false;
  return true;
}
} // namespace

// Frees and the sweep leave a slot's bytes; every path that hands the
// slot out again zeroes it first.
TEST_F(ObjectHeapFixture, EveryHandOutPathZeroesTheSlot) {
  const size_t Size = 48;
  const unsigned Lane = Heap->laneFor(Size, ObjectKind::Normal);

  // Locked take after an explicit free.
  void *A = allocSmall(Size);
  void *Keep = allocSmall(Size); // Keeps the block alive below.
  dirty(A, Size);
  Heap->deallocateExplicit(A);
  EXPECT_TRUE(allBytesAre(A, Size, 0xAB)) << "a free writes no slot memory";
  ASSERT_EQ(allocSmall(Size), A);
  EXPECT_TRUE(allBytesAre(A, Size, 0)) << "locked take after a free";

  // Locked take after a sweep.
  dirty(A, Size);
  Heap->clearMarks();
  Heap->markTable().set(Arena.offsetOf(reinterpret_cast<Address>(Keep)));
  ASSERT_EQ(Heap->sweep().ObjectsSweptFree, 1u);
  EXPECT_TRUE(allBytesAre(A, Size, 0xAB)) << "the sweep writes no slot memory";
  ASSERT_EQ(allocSmall(Size), A);
  EXPECT_TRUE(allBytesAre(A, Size, 0)) << "locked take after a sweep";
  Heap->deallocateExplicit(A);

  // Cached takes from an owned block, after the owner's free and after
  // a free from another thread (the locked path into an owned block).
  BlockId Id = Heap->checkoutBlock(Lane);
  ASSERT_NE(Id, InvalidBlockId);
  BlockDescriptor &Block = Blocks.get(Id);
  ThreadCache Cache;
  Cache.install(Lane, Id, Block, Arena.pointerTo(Block.firstSlotOffset()));
  void *B = Cache.take(Lane);
  ASSERT_EQ(B, A) << "the block's lowest free slot";
  EXPECT_TRUE(allBytesAre(B, Size, 0)) << "cached take of a dirty slot";
  dirty(B, Size);
  ASSERT_TRUE(Cache.release(B, Id));
  EXPECT_TRUE(allBytesAre(B, Size, 0xAB)) << "an owner free writes nothing";
  ASSERT_EQ(Cache.take(Lane), B);
  EXPECT_TRUE(allBytesAre(B, Size, 0)) << "cached take after an owner free";
  dirty(B, Size);
  ASSERT_TRUE(Heap->deallocateExplicit(B));
  EXPECT_TRUE(allBytesAre(B, Size, 0xAB)) << "a remote free writes nothing";
  ASSERT_EQ(Cache.take(Lane), B);
  EXPECT_TRUE(allBytesAre(B, Size, 0)) << "cached take after a remote free";
  Cache.releaseAll([&](BlockId Owned) { Heap->returnBlock(Owned); });
  EXPECT_TRUE(Heap->verify().clean());

  // A page a sweep released stays resident, old bytes and all, until
  // its decommit ages out.  A small block placed on it zeroes each slot
  // it hands out, not the page; a large object's run is zeroed whole.
  const PageIndex First = Block.StartPage;
  auto *Page =
      static_cast<unsigned char *>(Arena.pointerTo(offsetOfPage(First)));
  Heap->clearMarks();
  ASSERT_EQ(Heap->sweep().PagesReleased, 1u);
  dirty(Page, PageSize);
  void *C = allocSmall(Size);
  ASSERT_EQ(pageOfOffset(Arena.offsetOf(reinterpret_cast<Address>(C))),
            First);
  EXPECT_TRUE(allBytesAre(C, Size, 0)) << "small block on a resident page";
  EXPECT_TRUE(allBytesAre(Page + PageSize - 8, 8, 0xAB))
      << "a small block does not zero its page";
  Heap->deallocateExplicit(C);
  Heap->clearMarks();
  ASSERT_EQ(Heap->sweep().PagesReleased, 1u);
  dirty(Page, PageSize);
  const size_t Big = PageSize - 64;
  void *L = Heap->allocateLarge(Big, ObjectKind::Normal);
  ASSERT_EQ(pageOfOffset(Arena.offsetOf(reinterpret_cast<Address>(L))),
            First);
  EXPECT_TRUE(allBytesAre(L, Big, 0)) << "large object on a resident page";
  Heap->deallocateExplicit(L);
  EXPECT_TRUE(Heap->verify().clean());
}

TEST_F(ObjectHeapFixture, LargeObjectLifecycle) {
  void *Big = Heap->allocateLarge(3 * PageSize, ObjectKind::Normal);
  ASSERT_NE(Big, nullptr);
  WindowOffset Off = Arena.offsetOf(reinterpret_cast<Address>(Big));
  ObjectRef Ref = Heap->refForBase(Off);
  ASSERT_TRUE(Ref.valid());
  EXPECT_EQ(Heap->objectSize(Ref), 3 * PageSize);
  BlockDescriptor &Block = blockOf(Big);
  EXPECT_TRUE(Block.IsLarge);
  EXPECT_EQ(Block.NumPages, 4u) << "3 pages + offset spills to a 4th";
  uint64_t Before = Pages.freePageCount();
  Heap->deallocateExplicit(Big);
  EXPECT_EQ(Pages.freePageCount(), Before + 4);
  EXPECT_FALSE(Heap->refForBase(Off).valid());
}

TEST_F(ObjectHeapFixture, SweepFreesUnmarked) {
  void *A = allocSmall(8);
  void *B = allocSmall(8);
  // Mark only B.
  Heap->clearMarks();
  Heap->markTable().set(Arena.offsetOf(reinterpret_cast<Address>(B)));
  SweepResult Swept = Heap->sweep();
  EXPECT_EQ(Swept.ObjectsSweptFree, 1u);
  EXPECT_EQ(Swept.ObjectsLive, 1u);
  EXPECT_FALSE(Heap->isAllocated(Heap->refForBase(
      Arena.offsetOf(reinterpret_cast<Address>(A)))));
  EXPECT_TRUE(Heap->isAllocated(Heap->refForBase(
      Arena.offsetOf(reinterpret_cast<Address>(B)))));
}

TEST_F(ObjectHeapFixture, SweepReleasesEmptyBlocksAndPages) {
  std::vector<void *> Ptrs;
  for (int I = 0; I != 600; ++I) // More than one page of 8-byte slots.
    Ptrs.push_back(allocSmall(8));
  EXPECT_GE(Blocks.liveCount(), 2u);
  Heap->clearMarks();
  SweepResult Swept = Heap->sweep();
  EXPECT_EQ(Swept.ObjectsSweptFree, 600u);
  EXPECT_GT(Swept.PagesReleased, 0u);
  EXPECT_EQ(Blocks.liveCount(), 0u);
  EXPECT_EQ(Heap->allocatedBytes(), 0u);
}

TEST_F(ObjectHeapFixture, PinnedSlotNotReused) {
  void *A = allocSmall(8);
  void *B = allocSmall(8);
  Heap->deallocateExplicit(A);
  // A false reference marks the now-free slot A.
  Heap->clearMarks();
  BlockDescriptor &Block = blockOf(B);
  uint32_t SlotA = static_cast<uint32_t>(
      Block.slotContaining(Arena.offsetOf(reinterpret_cast<Address>(A))));
  uint32_t SlotB = static_cast<uint32_t>(
      Block.slotContaining(Arena.offsetOf(reinterpret_cast<Address>(B))));
  MarkTable &Marks = Heap->markTable();
  Marks.set(Block.slotOffset(SlotA));
  Marks.set(Block.slotOffset(SlotB));
  SweepResult Swept = Heap->sweep();
  EXPECT_EQ(Swept.SlotsPinned, 1u);
  // The pinned slot must be skipped: the next allocation goes above it.
  void *C = allocSmall(8);
  EXPECT_NE(C, A) << "pinned slot must not be reused";
  // A later collection no longer sees the false reference: slot A is
  // usable again ("some blacklisting occurs implicitly, after the
  // fact" — and recovers).
  Heap->clearMarks();
  Marks.set(Block.slotOffset(SlotB));
  Marks.set(Arena.offsetOf(reinterpret_cast<Address>(C)));
  Heap->sweep();
  void *D = allocSmall(8);
  EXPECT_EQ(D, A) << "unpinned slot becomes usable again";
}

TEST_F(ObjectHeapFixture, UncollectableSurvivesSweep) {
  void *U = allocSmall(16, ObjectKind::Uncollectable);
  Heap->clearMarks();
  SweepResult Swept = Heap->sweep();
  EXPECT_EQ(Swept.ObjectsSweptFree, 0u);
  EXPECT_TRUE(Heap->isAllocated(Heap->refForBase(
      Arena.offsetOf(reinterpret_cast<Address>(U)))));
  // Explicit free is the only way out.
  Heap->deallocateExplicit(U);
}

TEST_F(ObjectHeapFixture, KindsUseSeparateBlocks) {
  void *N = allocSmall(8, ObjectKind::Normal);
  void *P = allocSmall(8, ObjectKind::PointerFree);
  EXPECT_NE(pageOfOffset(Arena.offsetOf(reinterpret_cast<Address>(N))),
            pageOfOffset(Arena.offsetOf(reinterpret_cast<Address>(P))))
      << "different kinds never share a block";
  EXPECT_EQ(blockOf(N).Kind, ObjectKind::Normal);
  EXPECT_EQ(blockOf(P).Kind, ObjectKind::PointerFree);
}

TEST_F(ObjectHeapFixture, LargeAllocationFailsAtArenaLimitAndRecovers) {
  // Fill the 2048-page arena with large objects until a request cannot
  // be satisfied.  Each 256-page object occupies 257 pages (the first
  // object starts past the block header offset), so seven fit.
  constexpr size_t LargeBytes = 256 * PageSize;
  std::vector<void *> Bigs;
  while (void *P = Heap->allocateLarge(LargeBytes, ObjectKind::Normal))
    Bigs.push_back(P);
  ASSERT_GE(Bigs.size(), 2u);
  EXPECT_EQ(Heap->allocateLarge(LargeBytes, ObjectKind::Normal), nullptr)
      << "exhaustion reports nullptr instead of aborting";
  EXPECT_GT(Pages.stats().FailedRequests, 0u);
  Heap->verifyHeap();

  // A collection that reclaims the objects returns their page runs;
  // the identical request then succeeds.
  Heap->clearMarks();
  Heap->sweep();
  void *After = Heap->allocateLarge(LargeBytes, ObjectKind::Normal);
  EXPECT_NE(After, nullptr);
  Heap->verifyHeap();
}

//===----------------------------------------------------------------------===//
// Sweep differential test: the word-at-a-time sweep against a per-slot
// reference model of the same cycle.
//===----------------------------------------------------------------------===//

namespace {

/// One slot's state going into the sweep.
struct SlotState {
  bool Allocated;
  bool Marked;
};

struct SweepPattern {
  const char *Name;
  SlotState (*At)(uint32_t Slot, uint32_t Count);
};

/// A freed run [Begin, End) over an otherwise live, fully allocated
/// block.
template <uint32_t Begin, uint32_t End>
SlotState freedRun(uint32_t Slot, uint32_t) {
  return {true, Slot < Begin || Slot >= End};
}

const SweepPattern SweepPatterns[] = {
    {"all-free", [](uint32_t, uint32_t) { return SlotState{true, false}; }},
    {"all-live", [](uint32_t, uint32_t) { return SlotState{true, true}; }},
    {"none-allocated",
     [](uint32_t, uint32_t) { return SlotState{false, false}; }},
    {"alternating",
     [](uint32_t Slot, uint32_t) { return SlotState{true, Slot % 2 == 1}; }},
    {"alternating-with-pins",
     [](uint32_t Slot, uint32_t) {
       return SlotState{Slot % 2 == 0, Slot % 3 == 0};
     }},
    {"run-across-word-boundary", freedRun<60, 70>},
    {"full-64-slot-run", freedRun<64, 128>},
    {"two-word-run", freedRun<0, 128>},
    {"run-to-last-slot",
     [](uint32_t Slot, uint32_t Count) {
       return SlotState{true, Slot + 5 < Count};
     }},
    {"pins-to-last-slot",
     [](uint32_t Slot, uint32_t Count) {
       return SlotState{Slot + 3 < Count, Slot + 7 >= Count};
     }},
};

/// A fresh heap holding exactly one full block of \p SlotBytes slots of
/// \p Kind, which the test then shapes into a sweep pattern.
struct SweepHarness {
  SweepHarness(bool AvoidTrailingZeros, size_t SlotBytes, ObjectKind Kind)
      : Arena(64 << 20), Pages(Arena, 256, 2048, 64), Map(Arena.numPages()),
        SlotBytes(SlotBytes), Kind(Kind) {
    ObjectHeapConfig Config;
    Config.AvoidTrailingZeroAddresses = AvoidTrailingZeros;
    Heap = std::make_unique<ObjectHeap>(Arena, Pages, Map, Blocks, Config);
    EXPECT_TRUE(Heap->addBlock(Heap->laneFor(SlotBytes, Kind)));
    Blocks.forEach([this](BlockId Only, BlockDescriptor &) { Id = Only; });
    BlockDescriptor &Block = Blocks.get(Id);
    for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot)
      EXPECT_EQ(Heap->allocateFromExisting(Heap->laneFor(SlotBytes, Kind),
                                           SlotBytes),
                slot(Slot));
  }

  void *slot(uint32_t Slot) {
    return Arena.pointerTo(Blocks.get(Id).slotOffset(Slot));
  }

  VirtualArena Arena;
  PageAllocator Pages;
  PageMap Map;
  BlockTable Blocks;
  std::unique_ptr<ObjectHeap> Heap;
  size_t SlotBytes;
  ObjectKind Kind;
  BlockId Id = InvalidBlockId;
};

/// Shapes the harness block into \p States, sweeps it, and checks every
/// bitmap, counter, result field and byte against a per-slot model.
void checkSweepAgainstModel(SweepHarness &H,
                            const std::vector<SlotState> &States) {
  BlockDescriptor &Block = H.Blocks.get(H.Id);
  const uint32_t Count = Block.ObjectCount;
  const uint64_t Size = Block.ObjectSize;
  const bool Collectable = !kindIsUncollectable(H.Kind);
  for (uint32_t Slot = 0; Slot != Count; ++Slot)
    if (!States[Slot].Allocated)
      H.Heap->deallocateExplicit(H.slot(Slot));

  // Every byte of the page — header gap, slots, tail waste — gets a
  // nonzero, position-dependent value.
  auto *Page = static_cast<unsigned char *>(
      H.Arena.pointerTo(Block.startOffset()));
  for (size_t I = 0; I != PageSize; ++I)
    Page[I] = static_cast<unsigned char>(I * 131 + 17) | 1;
  std::vector<unsigned char> Before(Page, Page + PageSize);

  H.Heap->clearMarks();
  for (uint32_t Slot = 0; Slot != Count; ++Slot)
    if (States[Slot].Marked)
      H.Heap->markTable().set(Block.slotOffset(Slot));

  // The reference: one slot at a time.
  std::vector<bool> Freed(Count), WantAlloc(Count), WantPinned(Count);
  uint64_t NumFreed = 0, NumLive = 0, NumPinned = 0;
  for (uint32_t Slot = 0; Slot != Count; ++Slot) {
    auto [A, M] = States[Slot];
    Freed[Slot] = Collectable && A && !M;
    WantAlloc[Slot] = A && !Freed[Slot];
    WantPinned[Slot] = !A && M;
    NumFreed += Freed[Slot];
    NumLive += WantAlloc[Slot];
    NumPinned += WantPinned[Slot];
  }
  bool WantReleased = Collectable && NumLive == 0 && NumPinned == 0;
  uint64_t BytesBefore = H.Heap->allocatedBytes();

  SweepResult R = H.Heap->sweep();
  EXPECT_EQ(R.ObjectsSweptFree, NumFreed);
  EXPECT_EQ(R.BytesSweptFree, NumFreed * Size);
  EXPECT_EQ(R.ObjectsLive, NumLive);
  EXPECT_EQ(R.BytesLive, NumLive * Size);
  EXPECT_EQ(R.SlotsPinned, NumPinned);
  EXPECT_EQ(R.PagesReleased, WantReleased ? 1u : 0u);
  EXPECT_EQ(BytesBefore - H.Heap->allocatedBytes(), NumFreed * Size);

  if (WantReleased) {
    EXPECT_EQ(H.Blocks.liveCount(), 0u);
    return;
  }

  // A partly marked collectable block is left pending: its counts above
  // are already the swept ones, each slot reads as the model says, and
  // its bitmaps catch up when it is swept.
  uint32_t NumMarked = 0;
  for (const SlotState &S : States)
    NumMarked += S.Marked;
  EXPECT_EQ(Block.Pending, Collectable && NumMarked != 0 && NumMarked != Count);
  EXPECT_EQ(Block.AllocatedCount, NumLive);
  EXPECT_EQ(Block.PinnedCount, NumPinned);
  for (uint32_t Slot = 0; Slot != Count; ++Slot)
    EXPECT_EQ(H.Heap->slotAllocated(Block, Slot), bool(WantAlloc[Slot]))
        << Slot;
  EXPECT_TRUE(H.Heap->verify().clean()) << H.Heap->verify().str();
  H.Heap->finishPendingSweeps();
  EXPECT_FALSE(Block.Pending);

  for (uint32_t Slot = 0; Slot != Count; ++Slot) {
    EXPECT_EQ(Block.AllocBits.test(Slot), bool(WantAlloc[Slot])) << Slot;
    EXPECT_EQ(Block.PinnedBits.test(Slot), bool(WantPinned[Slot])) << Slot;
  }
  EXPECT_EQ(Block.AllocBits.count(), NumLive);
  EXPECT_EQ(Block.PinnedBits.count(), NumPinned);
  EXPECT_EQ(Block.AllocatedCount, NumLive);
  EXPECT_EQ(Block.PinnedCount, NumPinned);

  // The sweep writes no slot memory: freed, live and pinned slots, the
  // header gap and the tail waste are all byte-identical.  (A freed
  // slot is zeroed when it is handed out again.)
  for (size_t I = 0; I != PageSize; ++I)
    ASSERT_EQ(Page[I], Before[I]) << "byte " << I << " changed";

  // The block stays listed exactly when it has a usable slot, and the
  // next allocation takes the lowest one, zeroed.
  uint32_t FirstUsable = Count;
  for (uint32_t Slot = 0; Slot != Count && FirstUsable == Count; ++Slot)
    if (!WantAlloc[Slot] && !WantPinned[Slot])
      FirstUsable = Slot;
  void *Next = H.Heap->allocateFromExisting(
      H.Heap->laneFor(H.SlotBytes, H.Kind), H.SlotBytes);
  if (FirstUsable == Count) {
    EXPECT_EQ(Next, nullptr);
    return;
  }
  ASSERT_EQ(Next, H.slot(FirstUsable));
  for (size_t I = 0; I != Size; ++I)
    ASSERT_EQ(static_cast<unsigned char *>(Next)[I], 0) << "byte " << I;
}

} // namespace

TEST(SweepDifferential, WordSweepMatchesPerSlotModel) {
  // 8-byte slots: 510 per block behind the two-granule header, 512
  // without; 24: 170; 56: 72 or 73; 1152: 3 (no header either way).
  const size_t SlotSizes[] = {8, 24, 56, 1152};
  const ObjectKind Kinds[] = {ObjectKind::Normal, ObjectKind::Uncollectable};
  for (bool Offset : {true, false})
    for (size_t Size : SlotSizes)
      for (ObjectKind Kind : Kinds)
        for (const SweepPattern &P : SweepPatterns) {
          SCOPED_TRACE(testing::Message()
                       << P.Name << " size " << Size << " offset " << Offset
                       << " kind " << unsigned(Kind));
          SweepHarness H(Offset, Size, Kind);
          uint32_t Count = H.Blocks.get(H.Id).ObjectCount;
          std::vector<SlotState> States;
          for (uint32_t Slot = 0; Slot != Count; ++Slot)
            States.push_back(P.At(Slot, Count));
          checkSweepAgainstModel(H, States);
        }
}

TEST(SweepDifferential, RandomPatternsMatchPerSlotModel) {
  Rng Random(0x5eeb);
  for (int Round = 0; Round != 40; ++Round) {
    bool Offset = Random.nextBool(0.5);
    size_t Size = 8 * Random.nextInRange(1, 16);
    ObjectKind Kind = Random.nextBool(0.25) ? ObjectKind::Uncollectable
                                            : ObjectKind::Normal;
    SCOPED_TRACE(testing::Message() << "round " << Round << " size " << Size);
    SweepHarness H(Offset, Size, Kind);
    uint32_t Count = H.Blocks.get(H.Id).ObjectCount;
    // Dense and sparse mixes, so runs of every length turn up.
    double PAlloc = Random.nextDouble(), PMark = Random.nextDouble();
    std::vector<SlotState> States;
    for (uint32_t Slot = 0; Slot != Count; ++Slot)
      States.push_back({Random.nextBool(PAlloc), Random.nextBool(PMark)});
    checkSweepAgainstModel(H, States);
  }
}

TEST(SweepDifferential, StrayBitPastLastSlotIsNeverFreed) {
  // 104-byte slots: 39 of them behind the two-granule header, then 24
  // bytes of tail waste.  A stray allocation bit for "slot 39" must not
  // become a freed run, or its memset would zero the tail and run on
  // into the next page.
  SweepHarness H(/*AvoidTrailingZeros=*/true, 104, ObjectKind::Normal);
  BlockDescriptor &Block = H.Blocks.get(H.Id);
  ASSERT_EQ(Block.ObjectCount, 39u);
  auto *Page =
      static_cast<unsigned char *>(H.Arena.pointerTo(Block.startOffset()));
  std::memset(Page, 0xA5, 2 * PageSize);
  H.Heap->clearMarks();
  H.Heap->markTable().set(Block.slotOffset(0));
  Block.AllocBits.words()[0] |= uint64_t(1) << 39;
  SweepResult R = H.Heap->sweep();
  EXPECT_EQ(R.ObjectsSweptFree, 38u);
  EXPECT_EQ(Block.AllocatedCount, 1u);
  for (size_t I = 16 + 39 * 104; I != 2 * PageSize; ++I)
    ASSERT_EQ(Page[I], 0xA5) << "byte " << I << " past the slots changed";
}
