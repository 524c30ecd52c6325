//===- tests/TestObjectHeapFirstFit.cpp - Page sets and first fit ---------===//
//
// Every ordered page set of the heap is a PageSet (heap/PageSet.h), and a
// lane's next block is its set's lowest member.  The PageSet cases hold
// the set to std::set.  ObjectHeapFirstFit drives one ObjectHeap through
// random allocations, checkouts and returns, explicit frees, sweeps over
// random marks and the block releases they cause, over several lanes:
// each pick must be the lowest-address usable block a shadow model
// names, and the verifier must stay clean after every step.
//
//===----------------------------------------------------------------------===//

#include "heap/ObjectHeap.h"
#include "heap/PageSet.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

using namespace cgc;

namespace {

using Runs = std::vector<std::pair<PageIndex, uint32_t>>;

/// The maximal runs of consecutive members of \p Pages, lowest first.
Runs runsOf(const std::set<PageIndex> &Pages) {
  Runs Result;
  for (PageIndex Page : Pages) {
    if (!Result.empty() &&
        Result.back().first + Result.back().second == Page)
      ++Result.back().second;
    else
      Result.emplace_back(Page, 1);
  }
  return Result;
}

Runs runsOf(const PageSet &Set, PageIndex From, PageIndex Limit) {
  Runs Result;
  Set.forEachRun(From, Limit, [&](PageIndex Start, uint32_t Length) {
    Result.emplace_back(Start, Length);
    return true;
  });
  return Result;
}

} // namespace

TEST(PageSet, MatchesStdSetUnderRandomInsertsAndErases) {
  constexpr PageIndex Base = 100, NumPages = 300;
  PageSet Set(Base, NumPages);
  std::set<PageIndex> Model;
  Rng R(7);
  for (int Step = 0; Step != 4000; ++Step) {
    PageIndex Start = Base + static_cast<PageIndex>(R.nextBelow(NumPages));
    uint32_t Length = static_cast<uint32_t>(
        std::min<uint64_t>(R.nextInRange(1, 70), Base + NumPages - Start));
    // Erasing slightly more often keeps the set sparse enough for runs
    // to start and end everywhere.
    if (R.nextBool(0.45)) {
      Set.insert(Start, Length);
      for (uint32_t I = 0; I != Length; ++I)
        Model.insert(Start + I);
    } else {
      Set.erase(Start, Length);
      for (uint32_t I = 0; I != Length; ++I)
        Model.erase(Start + I);
    }
    // lowest() raises the bound, so later erases land below or at it.
    if (R.nextBool(0.5)) {
      ASSERT_EQ(Set.lowest(),
                Model.empty() ? PageSet::NoPage : *Model.begin());
    }
    ASSERT_EQ(Set.count(), Model.size());
    bool Any = false, All = true;
    for (uint32_t I = 0; I != Length; ++I) {
      Any |= Model.count(Start + I) != 0;
      All &= Model.count(Start + I) != 0;
    }
    ASSERT_EQ(Set.containsAny(Start, Length), Any);
    ASSERT_EQ(Set.containsAll(Start, Length), All);
    if (Step % 40 == 0) {
      for (PageIndex Page = Base - 2; Page != Base + NumPages + 2; ++Page)
        ASSERT_EQ(Set.contains(Page), Model.count(Page) != 0) << Page;
      ASSERT_EQ(runsOf(Set, Base, Base + NumPages), runsOf(Model));
      // A walk over a window sees the runs clipped to it.
      PageIndex From = Start, Limit = Start + Length;
      std::set<PageIndex> Window(Model.lower_bound(From),
                                 Model.lower_bound(Limit));
      ASSERT_EQ(runsOf(Set, From, Limit), runsOf(Window));
    }
  }
}

TEST(PageSet, LowestFindsPagesBelowItsBoundAndGrowsWithReserve) {
  PageSet Set(64, 256);
  Set.insert(200);
  Set.insert(300);
  EXPECT_EQ(Set.lowest(), 200u);
  // Erasing the lowest member moves the answer up...
  Set.erase(200);
  EXPECT_EQ(Set.lowest(), 300u);
  // ...and a page inserted below the raised bound is found again.
  Set.insert(70, 2);
  EXPECT_EQ(Set.lowest(), 70u);
  EXPECT_EQ(runsOf(Set, 64, 320), (Runs{{70, 2}, {300, 1}}));
  Set.erase(70, 2);
  Set.erase(300);
  EXPECT_EQ(Set.lowest(), PageSet::NoPage);
  EXPECT_EQ(Set.count(), 0u);
  Set.insert(64);
  EXPECT_EQ(Set.lowest(), 64u);

  // A lane's set starts empty and holds no page until it is reserved.
  PageSet Lane(64);
  EXPECT_FALSE(Lane.contains(64));
  EXPECT_EQ(Lane.lowest(), PageSet::NoPage);
  Lane.reserve(64 + 130);
  Lane.insert(64 + 129);
  EXPECT_EQ(Lane.lowest(), 64u + 129);
  Lane.reserve(64 + 10); // Never shrinks.
  EXPECT_TRUE(Lane.contains(64 + 129));
  EXPECT_EQ(Lane.count(), 1u);
}

namespace {

/// One small block as the shadow model holds it.
struct ModelBlock {
  unsigned Lane = 0;
  std::vector<bool> Alloc, Pinned;
  bool Owned = false;

  /// The lowest slot that is neither allocated nor pinned, or -1.
  int lowestUsableSlot() const {
    for (size_t Slot = 0; Slot != Alloc.size(); ++Slot)
      if (!Alloc[Slot] && !Pinned[Slot])
        return static_cast<int>(Slot);
    return -1;
  }
  uint32_t usable() const {
    uint32_t Count = 0;
    for (size_t Slot = 0; Slot != Alloc.size(); ++Slot)
      Count += !Alloc[Slot] && !Pinned[Slot];
    return Count;
  }
};

class FirstFitHarness {
public:
  explicit FirstFitHarness(uint64_t Seed)
      : Arena(64 << 20), Pages(Arena, 256, 1024, 16), Map(Arena.numPages()),
        R(Seed) {
    Heap = std::make_unique<ObjectHeap>(Arena, Pages, Map, Blocks,
                                        ObjectHeapConfig());
    // Few slots per block in most lanes, so blocks fill up, empty out
    // and come back to their lane often.
    const std::pair<size_t, ObjectKind> Kinds[] = {
        {48, ObjectKind::Normal},
        {512, ObjectKind::Normal},
        {2048, ObjectKind::Normal},
        {1024, ObjectKind::PointerFree}};
    for (auto [Bytes, Kind] : Kinds)
      LaneSizes.emplace_back(Heap->laneFor(Bytes, Kind), Bytes);
  }

  void run(unsigned Steps) {
    for (unsigned Step = 0; Step != Steps; ++Step) {
      uint64_t Op = R.nextBelow(100);
      if (Op < 55)
        allocate();
      else if (Op < 63)
        checkout();
      else if (Op < 71)
        returnOne();
      else if (Op < 93)
        freeOne();
      else
        sweep();
      ASSERT_NO_FATAL_FAILURE(check(Step));
    }
    // The run did real work: picks among several usable blocks, blocks
    // released, and pending blocks swept when a pick reached them.
    EXPECT_GT(ContestedPicks, 100u);
    EXPECT_GT(Heap->stats().BlocksReleased, 100u);
    EXPECT_GT(Heap->stats().HandOutSweeps, 100u);
  }

private:
  /// The page first fit must pick in \p Lane, or NoPage.
  PageIndex expectedPick(unsigned Lane) const {
    auto It = Usable.find(Lane);
    return It == Usable.end() || It->second.empty() ? PageSet::NoPage
                                                    : *It->second.begin();
  }

  /// Brings the usable-page sets up to date with \p Page's block.
  void refresh(PageIndex Page) {
    auto It = Model.find(Page);
    if (It != Model.end() && !It->second.Owned && It->second.usable() != 0)
      Usable[It->second.Lane].insert(Page);
    else
      for (auto &[Lane, Set] : Usable)
        Set.erase(Page);
  }

  BlockDescriptor &blockAt(PageIndex Page) {
    return Blocks.get(Map.blockAt(Page));
  }

  void allocate() {
    auto [Lane, Bytes] = LaneSizes[R.nextBelow(LaneSizes.size())];
    PageIndex Expected = expectedPick(Lane);
    ContestedPicks += Usable[Lane].size() > 1;
    void *P = Heap->allocateFromExisting(Lane, Bytes);
    if (Expected == PageSet::NoPage) {
      ASSERT_EQ(P, nullptr) << "lane " << Lane << " has no usable block";
      ASSERT_TRUE(Heap->addBlock(Lane));
      P = Heap->allocateFromExisting(Lane, Bytes);
      ASSERT_NE(P, nullptr);
      PageIndex Fresh = pageOfOffset(Arena.offsetOf(Address(P)));
      ASSERT_EQ(Model.count(Fresh), 0u) << "a new block on a listed page";
      ModelBlock &B = Model[Fresh];
      B.Lane = Lane;
      B.Alloc.assign(blockAt(Fresh).ObjectCount, false);
      B.Pinned.assign(B.Alloc.size(), false);
      Expected = Fresh;
    }
    ASSERT_NE(P, nullptr) << "lane " << Lane << " lists a usable block";
    ObjectRef Ref = Heap->refForBase(Arena.offsetOf(Address(P)));
    ASSERT_TRUE(Ref.valid());
    const BlockDescriptor &Block = Blocks.get(Ref.Block);
    ASSERT_EQ(Block.StartPage, Expected) << "first fit in lane " << Lane;
    ModelBlock &B = Model[Expected];
    ASSERT_EQ(static_cast<int>(Ref.Slot), B.lowestUsableSlot());
    B.Alloc[Ref.Slot] = true;
    refresh(Expected);
  }

  void checkout() {
    unsigned Lane = LaneSizes[R.nextBelow(LaneSizes.size())].first;
    PageIndex Expected = expectedPick(Lane);
    BlockId Id = Heap->checkoutBlock(Lane);
    if (Expected == PageSet::NoPage) {
      ASSERT_EQ(Id, InvalidBlockId);
      return;
    }
    ASSERT_NE(Id, InvalidBlockId);
    BlockDescriptor &Block = Blocks.get(Id);
    ASSERT_EQ(Block.StartPage, Expected) << "checkout in lane " << Lane;
    ModelBlock &B = Model[Expected];
    B.Owned = true;
    refresh(Expected);
    // The owner takes a few slots without the heap's help, the way a
    // thread cache does: bits only, lowest usable first.
    for (uint64_t N = R.nextBelow(4); N != 0; --N) {
      int Slot = B.lowestUsableSlot();
      if (Slot < 0)
        break;
      Block.AllocBits.set(static_cast<size_t>(Slot));
      B.Alloc[Slot] = true;
    }
  }

  void returnOne() {
    std::vector<PageIndex> Owned;
    for (auto &[Page, B] : Model)
      if (B.Owned)
        Owned.push_back(Page);
    if (Owned.empty())
      return;
    PageIndex Page = Owned[R.nextBelow(Owned.size())];
    ModelBlock &B = Model[Page];
    B.Owned = false;
    ASSERT_EQ(Heap->returnBlock(Map.blockAt(Page)), B.usable());
    refresh(Page);
  }

  void freeOne() {
    std::vector<std::pair<PageIndex, uint32_t>> Live;
    for (auto &[Page, B] : Model)
      if (!B.Owned)
        for (uint32_t Slot = 0; Slot != B.Alloc.size(); ++Slot)
          if (B.Alloc[Slot])
            Live.emplace_back(Page, Slot);
    if (Live.empty())
      return;
    auto [Page, Slot] = Live[R.nextBelow(Live.size())];
    void *P = Arena.pointerTo(blockAt(Page).slotOffset(Slot));
    ASSERT_EQ(Heap->classifyExplicitFree(P), ObjectHeap::FreeClass::Ok);
    ASSERT_TRUE(Heap->deallocateExplicit(P));
    Model[Page].Alloc[Slot] = false;
    refresh(Page);
  }

  /// A collection's heap side: each block no thread owns is left
  /// unmarked (one time in ten), or gets every allocated slot marked
  /// (three in ten) or a random half of them, plus, when marked at all,
  /// the odd false reference to a free slot.  The sweep then frees,
  /// pins, leaves pending or releases, and the model sweeps eagerly.
  void sweep() {
    Heap->clearMarks();
    std::map<PageIndex, std::vector<bool>> Marked;
    for (auto &[Page, B] : Model) {
      if (B.Owned)
        continue;
      const BlockDescriptor &Block = blockAt(Page);
      uint64_t Draw = R.nextBelow(10);
      bool None = Draw == 0, All = Draw >= 7;
      std::vector<bool> &Mark = Marked[Page];
      Mark.assign(B.Alloc.size(), false);
      for (uint32_t Slot = 0; Slot != B.Alloc.size(); ++Slot) {
        Mark[Slot] = !None && (B.Alloc[Slot] ? All || R.nextBool(0.5)
                                             : R.nextBool(0.05));
        if (Mark[Slot])
          Heap->markTable().set(Block.slotOffset(Slot));
      }
    }
    Heap->sweep();
    for (auto &[Page, Mark] : Marked) {
      ModelBlock &B = Model[Page];
      bool Empty = true;
      for (size_t Slot = 0; Slot != Mark.size(); ++Slot) {
        B.Pinned[Slot] = Mark[Slot] && !B.Alloc[Slot];
        B.Alloc[Slot] = B.Alloc[Slot] && Mark[Slot];
        Empty &= !B.Alloc[Slot] && !B.Pinned[Slot];
      }
      if (Empty) {
        ASSERT_EQ(Map.blockAt(Page), InvalidBlockId)
            << "an empty block was not released";
        Model.erase(Page);
      }
      refresh(Page);
    }
  }

  void check(unsigned Step) {
    ASSERT_EQ(Blocks.liveCount(), Model.size()) << "step " << Step;
    for (auto &[Page, B] : Model) {
      if (!B.Owned) {
        ASSERT_EQ(blockAt(Page).usableFreeCount(), B.usable())
            << "step " << Step << ", block at page " << Page;
      }
    }
    HeapVerifyReport Report = Heap->verify();
    ASSERT_TRUE(Report.clean()) << "step " << Step << ":\n" << Report.str();
  }

  VirtualArena Arena;
  PageAllocator Pages;
  PageMap Map;
  BlockTable Blocks;
  std::unique_ptr<ObjectHeap> Heap;
  Rng R;
  /// The lanes the run uses, with the request size of each.
  std::vector<std::pair<unsigned, size_t>> LaneSizes;
  std::map<PageIndex, ModelBlock> Model;
  /// Per lane, the start pages of its usable blocks no thread owns.
  std::map<unsigned, std::set<PageIndex>> Usable;
  /// Allocations made while their lane had more than one usable block.
  unsigned ContestedPicks = 0;
};

} // namespace

TEST(ObjectHeapFirstFit, RandomOperationsPickTheLowestUsableBlock) {
  for (uint64_t Seed : {61, 62, 63}) {
    SCOPED_TRACE(Seed);
    FirstFitHarness Harness(Seed);
    ASSERT_NO_FATAL_FAILURE(Harness.run(3000));
  }
}
