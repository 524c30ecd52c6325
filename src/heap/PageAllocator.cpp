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
      Free(MetadataAllocator<uint64_t>(MetaArena)),
      FirstFree(MaxPages),
      Quarantined(RunMap::key_compare(),
                  MetadataAllocator<std::pair<const PageIndex, uint32_t>>(
                      MetaArena)) {
  CGC_CHECK(GrowthPages > 0, "growth increment must be positive");
  CGC_CHECK(uint64_t(BasePage) + MaxPages <= Arena.numPages(),
            "heap arena exceeds the window");
  Free.resize(MaxPages);
  Resident.resize(MaxPages);
  Aged.resize(MaxPages);
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
      for (PageIndex P = *Start; P != *Start + NumPages; ++P)
        if (Resident.test(P - BasePage)) {
          Resident.reset(P - BasePage);
          Aged.reset(P - BasePage);
          if (Zeroed)
            std::memset(Arena.pointerTo(offsetOfPage(P)), 0, PageSize);
        }
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
  // free, so the walk stops there, and none below FirstFree is, so it
  // starts there; the bound moves up to the lowest free page.
  size_t Limit = CommitLimit - BasePage;
  FirstFree = std::min(Free.findFirstSet(FirstFree, Limit), Limit);
  std::optional<PageIndex> Found;
  walkFreeRuns(FirstFree, Limit,
               [&](PageIndex RunStart, uint32_t RunLen) {
                 if (RunLen >= NumPages)
                   Found = findInRun(RunStart, RunLen, NumPages, Constraint);
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

  size_t Begin = Start - BasePage, End = Begin + NumPages;
  CGC_CHECK(!Free.anyInRange(Begin, End), "double free of a page run");
  // The decommit itself waits for ageDeferredDecommits.
  if (Start < CommitLimit)
    Resident.setRange(Begin, End);
  Free.setRange(Begin, End);
  FirstFree = std::min(FirstFree, Begin);
}

void PageAllocator::ageDeferredDecommits() {
  // Pages resident at the previous call and still resident now have
  // gone a whole cycle unused: return them, coalescing neighbors.
  size_t Limit = CommitLimit - BasePage;
  for (size_t I = 0; I != Limit;) {
    if (!Aged.test(I) || !Resident.test(I)) {
      ++I;
      continue;
    }
    size_t Begin = I;
    while (I != Limit && Aged.test(I) && Resident.test(I))
      ++I;
    Resident.resetRange(Begin, I);
    Arena.decommit(offsetOfPage(BasePage + static_cast<PageIndex>(Begin)),
                   uint64_t(I - Begin) * PageSize);
  }
  Aged = Resident;
}

void PageAllocator::carveFromFreeRun(PageIndex Start, uint32_t NumPages) {
  size_t Begin = Start - BasePage, End = Begin + NumPages;
  CGC_CHECK(Start >= BasePage && End <= MaxPages &&
                Free.findFirstUnset(Begin, End) == Free.Npos,
            "carve range not inside a free run");
  Free.resetRange(Begin, End);
}

void PageAllocator::quarantineRun(PageIndex Start, uint32_t NumPages) {
  CGC_CHECK(NumPages > 0, "quarantining an empty page run");
  CGC_CHECK(Start >= BasePage &&
                uint64_t(Start) + NumPages <= arenaLimitPage(),
            "quarantining pages outside the heap arena");
  PageIndex End = Start + NumPages;

  // Coalesce with neighbors, so repeated repairs of adjacent blocks do
  // not fragment the quarantine map.
  auto After = Quarantined.lower_bound(Start);
  if (After != Quarantined.end() && After->first == End) {
    NumPages += After->second;
    Quarantined.erase(After);
  }
  auto Before = Quarantined.lower_bound(Start);
  if (Before != Quarantined.begin()) {
    --Before;
    if (Before->first + Before->second == Start) {
      Before->second += NumPages;
      Stats.QuarantinedPages += End - Start;
      return;
    }
  }
  Quarantined.emplace(Start, NumPages);
  Stats.QuarantinedPages += End - Start;
}

bool PageAllocator::pageQuarantined(PageIndex Page) const {
  auto It = Quarantined.upper_bound(Page);
  if (It == Quarantined.begin())
    return false;
  --It;
  return Page >= It->first && Page < It->first + It->second;
}

void PageAllocator::rebuildFreeRuns(
    const std::vector<std::pair<PageIndex, uint32_t>> &Runs) {
  Free.clearAll();
  FirstFree = MaxPages;
  for (const auto &[Start, Length] : Runs)
    freeRun(Start, Length);
}
