//===- heap/PageAllocator.cpp - Page-run allocator ------------------------===//

#include "heap/PageAllocator.h"
#include "support/Assert.h"
#include "support/FaultInjection.h"
#include "support/MathExtras.h"
#include <cstring>

using namespace cgc;

PageAllocator::PageAllocator(VirtualArena &Arena, PageIndex BasePage,
                             PageIndex MaxPages, uint32_t GrowthPages,
                             MetadataArena *MetaArena)
    : Arena(Arena), BasePage(BasePage), MaxPages(MaxPages),
      GrowthPages(GrowthPages), CommitLimit(BasePage),
      Free(BasePage, MaxPages, MetadataAllocator<uint64_t>(MetaArena)),
      Quarantined(BasePage, MaxPages, MetadataAllocator<uint64_t>(MetaArena)),
      Resident(BasePage, MaxPages), Aged(BasePage, MaxPages) {
  CGC_CHECK(GrowthPages > 0, "growth increment must be positive");
  CGC_CHECK(uint64_t(BasePage) + MaxPages <= Arena.numPages(),
            "heap arena exceeds the window");
}

std::optional<PageIndex>
PageAllocator::allocateRun(uint32_t NumPages, PageConstraint Constraint,
                           bool Zeroed) {
  CGC_CHECK(NumPages > 0, "allocating an empty page run");
  while (true) {
    if (auto Start = findInFreeRuns(NumPages, Constraint)) {
      carveFromFreeRun(*Start, NumPages);
      Stats.AllocatedPages += NumPages;
      // A page whose decommit is still pending holds its old contents;
      // zero it here, as the OS would have on the refault, unless the
      // caller zeroes what it hands out.
      Resident.forEachRun(*Start, *Start + NumPages,
                          [&](PageIndex Run, uint32_t Length) {
                            Resident.erase(Run, Length);
                            Aged.erase(Run, Length);
                            if (Zeroed)
                              std::memset(Arena.pointerTo(offsetOfPage(Run)),
                                          0, Length * PageSize);
                            return true;
                          });
      return Start;
    }
    ++Stats.GrowEvents;
    if (!grow(NumPages)) {
      ++Stats.FailedRequests;
      return std::nullopt;
    }
  }
}

std::optional<PageIndex>
PageAllocator::findInFreeRuns(uint32_t NumPages, PageConstraint Constraint) {
  // Injected run-search failure: report "no fit" so callers exercise
  // their grow/collect fallbacks.
  if (CGC_INJECT_FAULT(PageRunSearch))
    return std::nullopt;
  // Address-ordered first fit.  No page at or past the commit limit is
  // free, so the walk stops there, and it starts at the lowest free
  // page.
  std::optional<PageIndex> Found;
  Free.forEachRun(Free.lowest(), CommitLimit,
                  [&](PageIndex RunStart, uint32_t RunLen) {
                    if (RunLen >= NumPages)
                      Found =
                          findInRun(RunStart, RunLen, NumPages, Constraint);
                    return !Found;
                  });
  return Found;
}

std::optional<PageIndex>
PageAllocator::findInRun(PageIndex RunStart, uint32_t RunLen,
                         uint32_t NumPages, PageConstraint Constraint) {
  if (Constraint == PageConstraint::None || !IsBlacklisted)
    return RunStart;

  PageIndex LastStart = RunStart + RunLen - NumPages;
  if (Constraint == PageConstraint::FirstPageClean) {
    for (PageIndex Start = RunStart; Start <= LastStart; ++Start) {
      if (!pageBlacklisted(Start))
        return Start;
      ++Stats.BlacklistSkippedPages;
    }
    return std::nullopt;
  }

  // AllPagesClean: scan forward, restarting just past each blacklisted
  // page, so the search is linear in the run length.
  PageIndex Start = RunStart;
  while (Start <= LastStart) {
    bool Clean = true;
    for (PageIndex P = Start; P != Start + NumPages; ++P) {
      if (pageBlacklisted(P)) {
        Stats.BlacklistSkippedPages += (P + 1) - Start;
        Start = P + 1;
        Clean = false;
        break;
      }
    }
    if (Clean)
      return Start;
  }
  return std::nullopt;
}

bool PageAllocator::grow(uint32_t AtLeastPages) {
  // Injected commit failure: behave exactly like an exhausted arena so
  // the allocation ladder's collect-and-retry rungs get exercised.
  if (CGC_INJECT_FAULT(ArenaGrow))
    return false;
  PageIndex Limit = arenaLimitPage();
  if (CommitLimit >= Limit)
    return false;
  uint64_t Want = std::max<uint64_t>(GrowthPages, AtLeastPages);
  uint64_t Available = Limit - CommitLimit;
  uint32_t Extend = static_cast<uint32_t>(std::min(Want, Available));
  // The new pages start exactly at CommitLimit, so freeRun skips the
  // decommit (they are untouched and already zero-filled).
  freeRun(CommitLimit, Extend);
  CommitLimit += Extend;
  Stats.CommittedPages = CommitLimit - BasePage;
  return true;
}

void PageAllocator::freeRun(PageIndex Start, uint32_t NumPages) {
  CGC_CHECK(NumPages > 0, "freeing an empty page run");
  CGC_CHECK(Start >= BasePage &&
                uint64_t(Start) + NumPages <= arenaLimitPage(),
            "freeing pages outside the heap arena");

  CGC_CHECK(!Free.containsAny(Start, NumPages), "double free of a page run");
  // The decommit itself waits for ageDeferredDecommits.
  if (Start < CommitLimit)
    Resident.insert(Start, NumPages);
  Free.insert(Start, NumPages);
}

void PageAllocator::ageDeferredDecommits() {
  // Pages resident at the previous call and still resident now have
  // gone a whole cycle unused: return them a maximal run at a time.
  Aged.intersect(Resident);
  Aged.forEachRun(BasePage, CommitLimit, [&](PageIndex Start, uint32_t Length) {
    Resident.erase(Start, Length);
    Arena.decommit(offsetOfPage(Start), uint64_t(Length) * PageSize);
    return true;
  });
  Aged = Resident;
}

void PageAllocator::carveFromFreeRun(PageIndex Start, uint32_t NumPages) {
  CGC_CHECK(Start >= BasePage &&
                uint64_t(Start) + NumPages <= arenaLimitPage() &&
                Free.containsAll(Start, NumPages),
            "carve range not inside a free run");
  Free.erase(Start, NumPages);
}

void PageAllocator::quarantineRun(PageIndex Start, uint32_t NumPages) {
  CGC_CHECK(NumPages > 0, "quarantining an empty page run");
  CGC_CHECK(Start >= BasePage &&
                uint64_t(Start) + NumPages <= arenaLimitPage(),
            "quarantining pages outside the heap arena");
  Quarantined.insert(Start, NumPages);
  Stats.QuarantinedPages += NumPages;
}

void PageAllocator::rebuildFreeRuns(
    const std::vector<std::pair<PageIndex, uint32_t>> &Runs) {
  Free.clear();
  for (const auto &[Start, Length] : Runs)
    freeRun(Start, Length);
}
