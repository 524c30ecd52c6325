//===- tests/TestPageAllocatorFuzz.cpp - Page allocator fuzzing -----------===//
//
// Randomized allocate/free of page runs cross-checked against a shadow
// occupancy bitmap: no double handouts, no lost pages, coalescing and
// blacklist constraints always honored, every handed-out page reads as
// zero whether its deferred decommit ran or not, and every request
// lands at the lowest feasible start (address-ordered first fit).
//
//===----------------------------------------------------------------------===//

#include "heap/PageAllocator.h"
#include "support/BitVector.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <map>
#include <optional>

using namespace cgc;

namespace {

struct Shadow {
  explicit Shadow(PageIndex Base, PageIndex Max)
      : Base(Base), InUse(Max) {}

  void markAllocated(PageIndex Start, uint32_t Num) {
    for (uint32_t I = 0; I != Num; ++I) {
      ASSERT_FALSE(InUse.test(Start - Base + I))
          << "page handed out twice: " << Start + I;
      InUse.set(Start - Base + I);
    }
  }

  void markFreed(PageIndex Start, uint32_t Num) {
    for (uint32_t I = 0; I != Num; ++I) {
      ASSERT_TRUE(InUse.test(Start - Base + I))
          << "freeing an unallocated page: " << Start + I;
      InUse.reset(Start - Base + I);
    }
  }

  /// The lowest start at which \p Num pages are free below \p Limit
  /// and satisfy \p Constraint, or nullopt.  Pages at or past Limit are
  /// not committed, so never free.
  std::optional<PageIndex> lowestFeasible(uint32_t Num,
                                          PageConstraint Constraint,
                                          PageIndex Limit,
                                          const BitVector *Blacklisted) const {
    auto Bad = [&](PageIndex P) {
      return Blacklisted && Blacklisted->test(P);
    };
    for (PageIndex Start = Base; Start + Num <= Limit; ++Start) {
      bool Fits = true;
      for (uint32_t I = 0; I != Num && Fits; ++I)
        Fits = !InUse.test(Start - Base + I) &&
               (Constraint != PageConstraint::AllPagesClean ||
                !Bad(Start + I));
      if (Fits && Constraint == PageConstraint::FirstPageClean)
        Fits = !Bad(Start);
      if (Fits)
        return Start;
    }
    return std::nullopt;
  }

  PageIndex Base;
  BitVector InUse;
};

void fuzzPageAllocator(bool WithBlacklist, uint64_t Seed) {
  VirtualArena Arena(64 << 20);
  constexpr PageIndex Base = 64, Max = 4096;
  PageAllocator Pages(Arena, Base, Max, /*GrowthPages=*/32);
  BitVector Blacklisted(Arena.numPages());
  Rng R(Seed);
  if (WithBlacklist) {
    for (int I = 0; I != 200; ++I)
      Blacklisted.set(Base + static_cast<PageIndex>(R.nextBelow(Max)));
    Pages.setBlacklistQuery(
        [&](PageIndex P) { return Blacklisted.test(P); });
  }

  Shadow Mirror(Base, Max);
  std::map<PageIndex, uint32_t> Live; // start -> length
  uint64_t TotalAllocated = 0;

  for (int Step = 0; Step != 4000; ++Step) {
    bool DoAllocate = Live.size() < 4 || R.nextBool(0.55);
    if (DoAllocate) {
      uint32_t Num = static_cast<uint32_t>(R.nextInRange(1, 12));
      PageConstraint Constraint =
          WithBlacklist
              ? (R.nextBool(0.5) ? PageConstraint::AllPagesClean
                                 : PageConstraint::FirstPageClean)
              : PageConstraint::None;
      auto Start = Pages.allocateRun(Num, Constraint);
      // First fit: the run starts at the lowest feasible page below the
      // commit limit.  A request that had to grow the heap found no
      // feasible start below the old limit, and growth only adds free
      // pages above it, so the final limit gives the same answer.
      auto Expected =
          Mirror.lowestFeasible(Num, Constraint, Pages.committedLimitPage(),
                                WithBlacklist ? &Blacklisted : nullptr);
      ASSERT_EQ(Start, Expected) << "request for " << Num << " pages";
      if (!Start)
        continue; // Arena pressure; acceptable.
      // Constraint honored?
      if (Constraint == PageConstraint::FirstPageClean) {
        EXPECT_FALSE(Blacklisted.test(*Start));
      }
      if (Constraint == PageConstraint::AllPagesClean) {
        for (uint32_t I = 0; I != Num; ++I) {
          EXPECT_FALSE(Blacklisted.test(*Start + I));
        }
      }
      // Bounds.
      ASSERT_GE(*Start, Base);
      ASSERT_LE(uint64_t(*Start) + Num, uint64_t(Base) + Max);
      // Fresh pages read as zero; dirty the first and last word of each
      // so a later reuse that skipped the zeroing would show.
      for (uint32_t I = 0; I != Num; ++I) {
        auto *Page = static_cast<uint64_t *>(
            Arena.pointerTo(offsetOfPage(*Start + I)));
        ASSERT_EQ(Page[0], 0u) << "page reused without zeroing: " << *Start + I;
        ASSERT_EQ(Page[PageSize / 8 - 1], 0u);
        Page[0] = Page[PageSize / 8 - 1] = ~uint64_t(0);
      }
      Mirror.markAllocated(*Start, Num);
      Live[*Start] = Num;
      TotalAllocated += Num;
    } else {
      auto It = Live.begin();
      std::advance(It, R.pickIndex(Live.size()));
      Mirror.markFreed(It->first, It->second);
      Pages.freeRun(It->first, It->second);
      Live.erase(It);
    }
    // The collector ages deferred decommits once per collection.
    if (Step % 97 == 96)
      Pages.ageDeferredDecommits();

    if (Step % 500 == 499) {
      // Free-run accounting: free pages + live pages == committed.
      uint64_t LivePages = 0;
      for (auto &[S, N] : Live)
        LivePages += N;
      EXPECT_EQ(Pages.freePageCount() + LivePages,
                Pages.committedLimitPage() - Pages.arenaBasePage());
      // Free runs never overlap live allocations and are coalesced.
      PageIndex PrevEnd = 0;
      bool PrevSeen = false;
      Pages.forEachFreeRun([&](PageIndex Start, uint32_t Len) {
        for (uint32_t I = 0; I != Len; ++I) {
          EXPECT_FALSE(Mirror.InUse.test(Start - Base + I))
              << "free run overlaps allocation";
        }
        if (PrevSeen) {
          EXPECT_LT(PrevEnd, Start) << "adjacent runs must coalesce";
        }
        PrevEnd = Start + Len;
        PrevSeen = true;
      });
    }
  }
  EXPECT_GT(TotalAllocated, 1000u) << "fuzz did real work";
}

} // namespace

TEST(PageAllocatorFuzz, NoBlacklist) { fuzzPageAllocator(false, 51); }
TEST(PageAllocatorFuzz, WithBlacklist) { fuzzPageAllocator(true, 52); }
TEST(PageAllocatorFuzz, SecondSeeds) {
  fuzzPageAllocator(false, 53);
  fuzzPageAllocator(true, 54);
}
