//===- tests/TestBlacklist.cpp - Blacklist unit tests ---------------------===//

#include "core/Blacklist.h"
#include "core/Collector.h"
#include "core/GcConfig.h"
#include "support/Random.h"
#include <gtest/gtest.h>

using namespace cgc;

//===----------------------------------------------------------------------===//
// Blacklist, flat mode
//===----------------------------------------------------------------------===//

TEST(FlatBitmapBlacklist, BasicNoteAndQuery) {
  auto BL = Blacklist::flat(1024, /*Aging=*/false);
  EXPECT_FALSE(BL.isBlacklisted(5));
  BL.noteCandidate(5);
  EXPECT_TRUE(BL.isBlacklisted(5));
  EXPECT_FALSE(BL.isBlacklisted(6));
  EXPECT_EQ(BL.entryCount(), 1u);
  EXPECT_EQ(BL.stats().CandidatesNoted, 1u);
  // Out-of-range pages are ignored, not fatal.
  BL.noteCandidate(5000);
  EXPECT_EQ(BL.entryCount(), 1u);
}

TEST(FlatBitmapBlacklist, WithoutAgingMonotonic) {
  auto BL = Blacklist::flat(1024, /*Aging=*/false);
  BL.beginCycle();
  BL.noteCandidate(1);
  BL.endCycle();
  BL.beginCycle();
  BL.noteCandidate(2);
  BL.endCycle();
  EXPECT_TRUE(BL.isBlacklisted(1));
  EXPECT_TRUE(BL.isBlacklisted(2));
  EXPECT_EQ(BL.entryCount(), 2u);
}

TEST(FlatBitmapBlacklist, AgingDropsUnseenEntries) {
  auto BL = Blacklist::flat(1024, /*Aging=*/true);
  BL.beginCycle();
  BL.noteCandidate(1);
  BL.noteCandidate(2);
  BL.endCycle();
  EXPECT_EQ(BL.entryCount(), 2u);
  // Next cycle re-observes only page 2.
  BL.beginCycle();
  BL.noteCandidate(2);
  BL.endCycle();
  EXPECT_FALSE(BL.isBlacklisted(1)) << "unseen entry must age out";
  EXPECT_TRUE(BL.isBlacklisted(2));
}

TEST(FlatBitmapBlacklist, MidCycleNotesVisibleImmediately) {
  auto BL = Blacklist::flat(1024, true);
  BL.beginCycle();
  BL.noteCandidate(7);
  // Allocation decisions during the same collection already see it.
  EXPECT_TRUE(BL.isBlacklisted(7));
  BL.endCycle();
  EXPECT_TRUE(BL.isBlacklisted(7));
}

//===----------------------------------------------------------------------===//
// Blacklist, hashed mode
//===----------------------------------------------------------------------===//

TEST(HashedBlacklist, NoteAndQuery) {
  auto BL = Blacklist::hashed(/*BitsLog2=*/12, /*Aging=*/false);
  BL.noteCandidate(123);
  EXPECT_TRUE(BL.isBlacklisted(123));
  EXPECT_EQ(BL.entryCount(), 1u);
}

TEST(HashedBlacklist, CollisionsBlacklistHashClass) {
  // With a tiny table, distinct pages collide: "If a false reference is
  // seen to any of the pages with a given hash address, all of them are
  // effectively blacklisted."
  auto BL = Blacklist::hashed(/*BitsLog2=*/4, /*Aging=*/false);
  for (PageIndex P = 0; P != 64; ++P)
    BL.noteCandidate(P);
  // All 16 buckets are set, so every page everywhere reads blacklisted.
  EXPECT_EQ(BL.entryCount(), 16u);
  EXPECT_TRUE(BL.isBlacklisted(9999));
}

TEST(HashedBlacklist, LargeTableRarelyCollides) {
  auto BL = Blacklist::hashed(/*BitsLog2=*/20, /*Aging=*/false);
  for (PageIndex P = 0; P != 1000; ++P)
    BL.noteCandidate(P * 7);
  // ~1000 distinct buckets out of a million: collisions are rare.
  EXPECT_GE(BL.entryCount(), 990u);
  // A page that was never noted is almost surely clean.
  size_t FalsePositives = 0;
  for (PageIndex P = 0; P != 1000; ++P)
    FalsePositives += BL.isBlacklisted(P * 7 + 3);
  EXPECT_LT(FalsePositives, 10u);
}

TEST(HashedBlacklist, AgingWorks) {
  auto BL = Blacklist::hashed(12, /*Aging=*/true);
  BL.beginCycle();
  BL.noteCandidate(50);
  BL.endCycle();
  BL.beginCycle();
  BL.endCycle();
  EXPECT_FALSE(BL.isBlacklisted(50));
}

// The running entry count never drifts from the bitmap it summarizes:
// after every note, cycle end and refresh it equals a fresh popcount,
// in both modes, with aging on and off.
TEST(BitmapBlacklist, RunningCountMatchesPopcount) {
  for (bool Hashed : {false, true}) {
    for (bool Aging : {false, true}) {
      SCOPED_TRACE(std::string(Hashed ? "hashed" : "flat") +
                   (Aging ? ", aging" : ", no aging"));
      auto BL = Hashed ? Blacklist::hashed(/*BitsLog2=*/6, Aging)
                       : Blacklist::flat(/*NumPages=*/96, Aging);
      Rng Random(0x5eed + 2 * Hashed + Aging);
      for (int Step = 0; Step != 2000; ++Step) {
        uint64_t Op = Random.nextBelow(100);
        if (Op < 80)
          BL.noteCandidate(static_cast<PageIndex>(Random.nextBelow(128)));
        else if (Op < 88)
          BL.beginCycle();
        else if (Op < 96)
          BL.endCycle();
        else
          BL.refresh();
        ASSERT_EQ(BL.entryCount(), BL.bits().count()) << "step " << Step;
      }
    }
  }
}

namespace {

/// The blacklist cycle as a plain model: every cycle clears and copies
/// whole bitmaps, with no word ranges.  The page-to-bit mapping repeats
/// Blacklist's.
struct WholeBitmapModel {
  WholeBitmapModel(size_t NumBits, unsigned HashBitsLog2, bool Aging)
      : Current(NumBits), Seen(NumBits), HashBitsLog2(HashBitsLog2),
        Aging(Aging) {}

  size_t bitFor(PageIndex Page) const {
    if (HashBitsLog2 != 0)
      return static_cast<size_t>((uint64_t(Page) * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - HashBitsLog2));
    return Page < Current.size() ? Page : Current.size();
  }
  void note(PageIndex Page) {
    size_t Bit = bitFor(Page);
    if (Bit == Current.size())
      return;
    Current.set(Bit);
    if (InCycle)
      Seen.set(Bit);
  }
  void beginCycle() {
    Seen.clearAll();
    InCycle = true;
  }
  void endCycle() {
    InCycle = false;
    if (Aging)
      Current = Seen;
  }
  void refresh() {
    if (!InCycle)
      Current = Seen;
  }

  BitVector Current, Seen;
  unsigned HashBitsLog2;
  bool Aging;
  bool InCycle = false;
};

} // namespace

// The word-range blacklist ends every operation with the same bitmap
// and count as a model that clears and copies whole bitmaps: random
// notes (first and last bit included), cycles, abandoned cycles that
// re-begin, and back-to-back refreshes, in both modes, aging on and off.
TEST(BitmapBlacklist, WordRangesMatchWholeBitmapModel) {
  constexpr PageIndex FlatPages = 1000; // Not a multiple of 64.
  constexpr unsigned HashLog2 = 10;
  for (bool Hashed : {false, true}) {
    for (bool Aging : {false, true}) {
      SCOPED_TRACE(std::string(Hashed ? "hashed" : "flat") +
                   (Aging ? ", aging" : ", no aging"));
      auto BL = Hashed ? Blacklist::hashed(HashLog2, Aging)
                       : Blacklist::flat(FlatPages, Aging);
      WholeBitmapModel Model(Hashed ? size_t(1) << HashLog2 : FlatPages,
                             Hashed ? HashLog2 : 0, Aging);
      // Pages standing for the first and the last bit.
      PageIndex LastBitPage = FlatPages - 1;
      if (Hashed)
        for (LastBitPage = 1;
             Model.bitFor(LastBitPage) != (size_t(1) << HashLog2) - 1;
             ++LastBitPage) {
        }
      Rng Random(0xb1ac + 2 * Hashed + Aging);
      for (int Step = 0; Step != 4000; ++Step) {
        uint64_t Op = Random.nextBelow(100);
        auto Note = [&](PageIndex Page) {
          BL.noteCandidate(Page);
          Model.note(Page);
        };
        if (Op < 5) {
          Note(0);
        } else if (Op < 10) {
          Note(LastBitPage);
        } else if (Op < 60) {
          // Clustered notes, so the touched word range moves about.
          PageIndex Center = static_cast<PageIndex>(
              Random.nextBelow(FlatPages + 16));
          Note(Center + static_cast<PageIndex>(Random.nextBelow(8)));
        } else if (Op < 75) {
          BL.beginCycle(); // Re-begins when the last cycle was abandoned.
          Model.beginCycle();
        } else if (Op < 90) {
          BL.endCycle();
          Model.endCycle();
        } else if (Op < 95) {
          BL.refresh();
          Model.refresh();
        } else {
          BL.refresh();
          BL.refresh();
          Model.refresh();
          Model.refresh();
        }
        ASSERT_EQ(BL.bits(), Model.Current) << "step " << Step;
        ASSERT_EQ(BL.entryCount(), Model.Current.count()) << "step " << Step;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Blacklisting off, and the factory
//===----------------------------------------------------------------------===//

TEST(Blacklist, NullNeverBlacklists) {
  // Off is a flat blacklist over zero pages.
  auto BL = createBlacklist(BlacklistMode::Off, 100, 10, true);
  BL->beginCycle();
  BL->noteCandidate(1);
  EXPECT_FALSE(BL->isBlacklisted(1));
  EXPECT_EQ(BL->entryCount(), 0u);
  EXPECT_EQ(BL->stats().CandidatesNoted, 1u) << "still counts for stats";
  BL->endCycle();
  BL->refresh();
  EXPECT_FALSE(BL->isBlacklisted(1));
  EXPECT_EQ(BL->entryCount(), 0u);
  EXPECT_EQ(BL->stats().Cycles, 1u);
}

TEST(Blacklist, FactoryDispatch) {
  auto Off = createBlacklist(BlacklistMode::Off, 100, 10, true);
  auto Flat = createBlacklist(BlacklistMode::FlatBitmap, 100, 10, true);
  auto Hashed = createBlacklist(BlacklistMode::Hashed, 100, 10, true);
  Off->noteCandidate(3);
  Flat->noteCandidate(3);
  Hashed->noteCandidate(3);
  EXPECT_FALSE(Off->isBlacklisted(3));
  EXPECT_TRUE(Flat->isBlacklisted(3));
  EXPECT_TRUE(Hashed->isBlacklisted(3));
}

//===----------------------------------------------------------------------===//
// Collector integration
//===----------------------------------------------------------------------===//

namespace {

GcConfig blConfig(BlacklistMode Mode) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 32 << 20;
  Config.Blacklist = Mode;
  Config.GcAtStartup = true;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

} // namespace

TEST(BlacklistIntegration, PersistentFalseRefNeverPinsNewObjects) {
  // The headline mechanism: a static near-miss that exists before any
  // allocation can never pin anything, because the page it points at
  // is never used for pointer-bearing objects.
  Collector GC(blConfig(BlacklistMode::FlatBitmap));
  uint64_t FalseWord = GC.arena().base() + (16 << 20) + 3 * PageSize + 40;
  GC.addRootRange(&FalseWord, &FalseWord + 1, RootEncoding::Native64,
                  RootSource::StaticData, "static-false-ref");
  // Allocate a lot, drop everything, collect: nothing may survive.
  for (int Round = 0; Round != 3; ++Round) {
    for (int I = 0; I != 20000; ++I)
      GC.allocate(24);
    CollectionStats Cycle = GC.collect();
    EXPECT_EQ(Cycle.ObjectsLive, 0u)
        << "blacklisted page must never hold a pinnable object";
  }
}

TEST(BlacklistIntegration, WithoutBlacklistTheSameRefPins) {
  Collector GC(blConfig(BlacklistMode::Off));
  uint64_t FalseWord = GC.arena().base() + (16 << 20) + 3 * PageSize + 40;
  GC.addRootRange(&FalseWord, &FalseWord + 1, RootEncoding::Native64,
                  RootSource::StaticData, "static-false-ref");
  for (int I = 0; I != 20000; ++I)
    GC.allocate(24);
  CollectionStats Cycle = GC.collect();
  EXPECT_GE(Cycle.ObjectsLive, 1u)
      << "without blacklisting the false ref pins the object under it";
}

TEST(BlacklistIntegration, HeapGrowsToCompensate) {
  // Blacklist many pages; the heap must expand past them and still
  // serve all allocations (the paper's observation 6).
  Collector GC(blConfig(BlacklistMode::FlatBitmap));
  std::vector<uint64_t> Pollution;
  for (int I = 0; I != 512; ++I) // Every other page of the first 4 MiB.
    Pollution.push_back(GC.arena().base() + (16 << 20) +
                        uint64_t(2 * I) * PageSize + 8);
  GC.addRootRange(Pollution.data(), Pollution.data() + Pollution.size(),
                  RootEncoding::Native64, RootSource::StaticData,
                  "pollution");
  std::vector<void *> Kept;
  uint64_t Root[1] = {0};
  GC.addRootRange(Root, Root + 1, RootEncoding::Native64,
                  RootSource::Client, "keep");
  for (int I = 0; I != 100000; ++I) {
    void *P = GC.allocate(16);
    ASSERT_NE(P, nullptr);
    EXPECT_FALSE(GC.blacklist().isBlacklisted(
        pageOfOffset(GC.windowOffsetOf(P))));
  }
  EXPECT_GE(GC.blacklistedPageCount(), 500u);
}

TEST(BlacklistIntegration, PointerFreeStillUsesBlacklistedPages) {
  Collector GC(blConfig(BlacklistMode::FlatBitmap));
  uint64_t FalseWord = GC.arena().base() + (16 << 20) + 8;
  GC.addRootRange(&FalseWord, &FalseWord + 1, RootEncoding::Native64,
                  RootSource::StaticData, "false-ref");
  // The very first pointer-free block may land on the blacklisted
  // first page; the first normal block must not.
  void *Atomic = GC.allocate(64, ObjectKind::PointerFree);
  void *Normal = GC.allocate(64, ObjectKind::Normal);
  EXPECT_EQ(pageOfOffset(GC.windowOffsetOf(Atomic)),
            pageOfOffset(WindowOffset(16 << 20)));
  EXPECT_NE(pageOfOffset(GC.windowOffsetOf(Normal)),
            pageOfOffset(WindowOffset(16 << 20)));
}
