//===- tests/TestMarkTable.cpp - Address-indexed mark bit tests -----------===//

#include "core/Collector.h"
#include "heap/MarkTable.h"
#include "heap/ObjectHeap.h"
#include "support/Random.h"
#include <bit>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <vector>

using namespace cgc;

namespace {

GcConfig tableConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

/// A bare object heap over a 64 MiB window, as the heap unit tests
/// build it.
struct HeapHarness {
  explicit HeapHarness(bool AvoidTrailingZeros)
      : Arena(64 << 20), Pages(Arena, 256, 2048, 64), Map(Arena.numPages()) {
    ObjectHeapConfig Config;
    Config.AvoidTrailingZeroAddresses = AvoidTrailingZeros;
    Heap = std::make_unique<ObjectHeap>(Arena, Pages, Map, Blocks, Config);
  }

  /// Fills a fresh block of \p SlotBytes slots; \returns its id.
  BlockId fullBlock(size_t SlotBytes) {
    unsigned Lane = Heap->laneFor(SlotBytes, ObjectKind::Normal);
    EXPECT_TRUE(Heap->addBlock(Lane));
    BlockId Id = InvalidBlockId;
    while (void *P = Heap->allocateFromExisting(Lane, SlotBytes))
      Id = Map.blockAt(
          pageOfOffset(Arena.offsetOf(reinterpret_cast<Address>(P))));
    return Id;
  }

  VirtualArena Arena;
  PageAllocator Pages;
  PageMap Map;
  BlockTable Blocks;
  std::unique_ptr<ObjectHeap> Heap;
};

/// Every set bit of the committed heap range: its window offset.
std::vector<WindowOffset> setBits(Collector &GC) {
  const MarkTable &Marks = GC.objectHeap().markTable();
  PageAllocator &Pages = GC.pageAllocator();
  std::vector<WindowOffset> Bits;
  for (PageIndex P = Pages.arenaBasePage(); P < Pages.committedLimitPage();
       ++P) {
    const uint64_t *Words = Marks.pageWords(P);
    for (size_t W = 0; W != MarkTable::WordsPerPage; ++W)
      for (uint64_t Set = Words[W]; Set != 0; Set &= Set - 1)
        Bits.push_back(offsetOfPage(P) +
                       (W * 64 + std::countr_zero(Set)) * GranuleBytes);
  }
  return Bits;
}

} // namespace

//===----------------------------------------------------------------------===//
// The table itself
//===----------------------------------------------------------------------===//

TEST(MarkTable, FastTestNeedsAnAlignedCoveredGranule) {
  MarkTable Marks(/*BasePage=*/16, /*LimitPage=*/32);
  WindowOffset Base = offsetOfPage(20) + 48;
  EXPECT_FALSE(Marks.isMarkedBase(Base));
  Marks.set(Base);
  EXPECT_TRUE(Marks.test(Base));
  EXPECT_TRUE(Marks.isMarkedBase(Base));
  EXPECT_FALSE(Marks.isMarkedBase(Base + 4)) << "unaligned";
  EXPECT_FALSE(Marks.isMarkedBase(Base + GranuleBytes)) << "next granule";
  EXPECT_FALSE(Marks.isMarkedBase(offsetOfPage(15))) << "below the heap";
  EXPECT_FALSE(Marks.isMarkedBase(offsetOfPage(32))) << "past the heap";
  EXPECT_FALSE(Marks.isMarkedBase(0));
  Marks.clearPages(20, 1);
  EXPECT_FALSE(Marks.isMarkedBase(Base));
}

TEST(MarkTable, GatherRoundTripsEverySizeClass) {
  // Scatter a random slot subset into the table at slot bases, gather
  // it back: the slot-indexed words must name exactly those slots.
  SplitMix64 Random(1993);
  for (bool AvoidTrailingZeros : {false, true}) {
    HeapHarness H(AvoidTrailingZeros);
    MarkTable &Marks = H.Heap->markTable();
    for (unsigned Class = 0; Class != H.Heap->numSizeClasses(); ++Class) {
      size_t Size = H.Heap->sizeClassBytes(Class);
      BlockDescriptor &Block = H.Blocks.get(H.fullBlock(Size));
      uint32_t Expected =
          AvoidTrailingZeros && Size <= PageSize / 4 ? 16 : 0;
      ASSERT_EQ(Block.FirstObjectOffset, Expected) << Size << "-byte slots";
      for (int Round = 0; Round != 4; ++Round) {
        uint64_t Want[MarkTable::MaxSlotWords] = {};
        Marks.clearBlock(Block);
        for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot)
          if (Round == 3 || Random.next() % (Round + 2) == 0) {
            Marks.set(Block.slotOffset(Slot));
            Want[Slot / 64] |= uint64_t(1) << (Slot % 64);
          }
        uint64_t Got[MarkTable::MaxSlotWords];
        Marks.gather(Block, Got);
        for (size_t W = 0; W != MarkTable::MaxSlotWords; ++W)
          ASSERT_EQ(Got[W], Want[W])
              << Size << "-byte slots, round " << Round << ", word " << W;
        for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot)
          ASSERT_EQ(Marks.isMarked(Block, Slot),
                    ((Want[Slot / 64] >> (Slot % 64)) & 1) != 0);
      }
      // A bit inside a slot marks nothing.
      if (Size > GranuleBytes) {
        Marks.clearBlock(Block);
        Marks.set(Block.slotOffset(0) + GranuleBytes);
        uint64_t Got[MarkTable::MaxSlotWords];
        Marks.gather(Block, Got);
        for (size_t W = 0; W != MarkTable::MaxSlotWords; ++W)
          ASSERT_EQ(Got[W], 0u) << Size << "-byte slots";
      }
      Marks.clearBlock(Block);
    }

    // A large block: its one slot's mark, unset and then set.
    void *Big = H.Heap->allocateLarge(3 * PageSize, ObjectKind::Normal);
    ASSERT_NE(Big, nullptr);
    WindowOffset Base = H.Arena.offsetOf(reinterpret_cast<Address>(Big));
    BlockDescriptor &Block = H.Blocks.get(H.Map.blockAt(pageOfOffset(Base)));
    ASSERT_TRUE(Block.IsLarge);
    uint64_t Got[MarkTable::MaxSlotWords];
    Marks.gather(Block, Got);
    EXPECT_EQ(Got[0], 0u);
    Marks.set(Base);
    Marks.gather(Block, Got);
    EXPECT_EQ(Got[0], 1u);
    for (size_t W = 1; W != MarkTable::MaxSlotWords; ++W)
      EXPECT_EQ(Got[W], 0u);
  }
}

//===----------------------------------------------------------------------===//
// The invariant: a set bit is a marked slot's base
//===----------------------------------------------------------------------===//

TEST(MarkTableInvariant, EverySetBitResolvesToAMarkedBase) {
  for (InteriorPolicy Policy :
       {InteriorPolicy::All, InteriorPolicy::BaseOnly,
        InteriorPolicy::FirstPage}) {
    SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(Policy));
    GcConfig Config = tableConfig();
    Config.Interior = Policy;
    Collector GC(Config);
    GC.registerDisplacement(8);

    // Roots by base, by a registered displacement, by an arbitrary
    // interior offset, into a free slot past a live one, and into an
    // ignore-off-page large object's first page and a later page.
    auto *A = static_cast<char *>(GC.allocate(48));
    auto *B = static_cast<char *>(GC.allocate(48));
    auto *C = static_cast<char *>(GC.allocate(200));
    auto *D = static_cast<char *>(GC.allocate(24));
    auto *Big = static_cast<char *>(GC.allocateIgnoreOffPage(5 * PageSize));
    auto *Plain = static_cast<char *>(GC.allocate(3 * PageSize));
    // A linked chain, so the heap scan marks through interior links.
    auto **Chain = static_cast<char **>(GC.allocate(64));
    Chain[0] = A + 8;
    Chain[1] = Plain + 100;
    void *Held = GC.allocate(16, ObjectKind::Uncollectable);
    static_cast<char **>(Held)[0] = reinterpret_cast<char *>(Chain);
    uint64_t Roots[] = {
        reinterpret_cast<uint64_t>(B),
        reinterpret_cast<uint64_t>(C + 8),
        reinterpret_cast<uint64_t>(C + 77),
        reinterpret_cast<uint64_t>(D + 24),
        reinterpret_cast<uint64_t>(Big + 8),
        reinterpret_cast<uint64_t>(Big + 2 * PageSize),
    };
    GC.addRootRange(Roots, Roots + std::size(Roots), RootEncoding::Native64,
                    RootSource::Client, "roots");
    CollectionStats Stats = GC.measureLiveness();
    ASSERT_GT(Stats.ObjectsMarked, 2u);

    MarkContext &M = GC.marker();
    ObjectHeap &Heap = GC.objectHeap();
    std::vector<WindowOffset> Bits = setBits(GC);
    for (WindowOffset Offset : Bits) {
      ObjectRef Ref = M.resolveCandidate(Offset);
      ASSERT_TRUE(Ref.valid()) << "bit at 0x" << std::hex << Offset;
      EXPECT_EQ(Heap.baseOffset(Ref), Offset);
      EXPECT_TRUE(Heap.isMarked(Ref));
    }
    EXPECT_EQ(Bits.size(), Stats.ObjectsMarked)
        << "one bit per marked object";
    EXPECT_TRUE(GC.wasMarkedLive(B));
    EXPECT_TRUE(GC.wasMarkedLive(Big)) << "first-page pointer retains";
    EXPECT_TRUE(GC.objectHeap().verify().clean());
  }
}

TEST(MarkTableInvariant, ReleasedBlockLeavesNoBit) {
  // A marked large block is freed, then its old base is presented as a
  // root: with no live block on the page, the candidate is a near miss
  // and blacklists the page.  A bit left behind by the release would
  // instead answer "already marked" before the page-map probe.
  Collector GC(tableConfig());
  auto *Big = static_cast<char *>(GC.allocate(3 * PageSize));
  uint64_t Root = reinterpret_cast<uint64_t>(Big);
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "old base");
  CollectionStats First = GC.collect();
  ASSERT_TRUE(GC.wasMarkedLive(Big));
  EXPECT_EQ(First.NearMisses, 0u);
  WindowOffset Base = GC.windowOffsetOf(Big);
  GC.deallocate(Big);
  EXPECT_FALSE(GC.objectHeap().markTable().test(Base));

  CollectionStats Second = GC.collect();
  EXPECT_EQ(Second.NearMisses, 1u);
  EXPECT_TRUE(GC.blacklist().isBlacklisted(pageOfOffset(Base)));
}

//===----------------------------------------------------------------------===//
// Verifier checks
//===----------------------------------------------------------------------===//

TEST(MarkTableVerify, StrayBitsAreFoundAndRepaired) {
  HeapHarness H(/*AvoidTrailingZeros=*/true);
  BlockDescriptor &Block = H.Blocks.get(H.fullBlock(48));
  MarkTable &Marks = H.Heap->markTable();
  Marks.set(Block.slotOffset(3));
  EXPECT_TRUE(H.Heap->verify().clean());

  // A bit inside a slot, not at its base.
  Marks.set(Block.slotOffset(5) + GranuleBytes);
  HeapVerifyReport OffBase = H.Heap->verify();
  ASSERT_EQ(OffBase.Findings.size(), 1u) << OffBase.str();
  EXPECT_EQ(OffBase.Findings[0].Kind, VerifyFindingKind::CounterMismatch);
  EXPECT_NE(OffBase.str().find("off its slot bases"), std::string::npos);

  // A bit on a committed page that no block covers.
  PageIndex Free = Block.StartPage + 1;
  ASSERT_EQ(H.Map.blockAt(Free), InvalidBlockId);
  ASSERT_LT(Free, H.Pages.committedLimitPage());
  Marks.set(offsetOfPage(Free) + 64);
  HeapVerifyReport Both = H.Heap->verify();
  ASSERT_EQ(Both.Findings.size(), 2u) << Both.str();
  EXPECT_EQ(Both.Findings[1].Page, Free);
  EXPECT_NE(Both.str().find("no live block covers"), std::string::npos);

  HeapRepairStats Stats;
  HeapVerifyReport Repaired = H.Heap->verifyAndRepair(Stats);
  EXPECT_TRUE(Repaired.RepairedClean) << Repaired.str();
  EXPECT_TRUE(H.Heap->verify().clean());
  EXPECT_TRUE(Marks.isMarked(Block, 3)) << "a valid mark survives repair";
  EXPECT_FALSE(Marks.test(offsetOfPage(Free) + 64));
}
