//===- support/FaultInjection.cpp - Deterministic fault injection ---------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/Assert.h"
#include "support/SignalSuspend.h"

namespace cgc {

const char *faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::ArenaGrow:
    return "arena-grow";
  case FaultSite::PageRunSearch:
    return "page-run-search";
  case FaultSite::MarkStackOverflow:
    return "mark-stack-overflow";
  case FaultSite::WedgedMutator:
    return "wedged-mutator";
  case FaultSite::MetadataHeaderFlip:
    return "metadata-header-flip";
  case FaultSite::MetadataFreeListSmash:
    return "metadata-free-list-smash";
  case FaultSite::MetadataPageMapClobber:
    return "metadata-page-map-clobber";
  case FaultSite::MetadataAllocBitFlip:
    return "metadata-alloc-bit-flip";
  }
  if (static_cast<unsigned>(Site) == RetiredFaultSite)
    return "retired";
  CGC_UNREACHABLE("unknown fault site");
}

FaultInjector &FaultInjector::instance() {
  static FaultInjector Injector;
  return Injector;
}

void FaultInjector::arm(FaultSite Site, uint64_t SkipHits,
                        uint64_t FailCount) {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  if (S.Arming == Mode::Disarmed)
    ArmedCount.fetch_add(1, std::memory_order_relaxed);
  S.Arming = Mode::Deterministic;
  S.SkipHits = SkipHits;
  S.FailCount = FailCount;
  ArmedMirror[static_cast<unsigned>(Site)].store(1,
                                                 std::memory_order_relaxed);
}

void FaultInjector::armRandom(FaultSite Site, double Probability,
                              uint64_t Seed) {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  if (S.Arming == Mode::Disarmed)
    ArmedCount.fetch_add(1, std::memory_order_relaxed);
  S.Arming = Mode::Probabilistic;
  S.Probability = Probability;
  S.Stream.reseed(Seed);
  ArmedMirror[static_cast<unsigned>(Site)].store(1,
                                                 std::memory_order_relaxed);
}

void FaultInjector::disarm(FaultSite Site) {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  if (S.Arming != Mode::Disarmed)
    ArmedCount.fetch_sub(1, std::memory_order_relaxed);
  S.Arming = Mode::Disarmed;
  ArmedMirror[static_cast<unsigned>(Site)].store(0,
                                                 std::memory_order_relaxed);
}

void FaultInjector::disarmAll() {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  for (SiteState &S : Sites)
    S.Arming = Mode::Disarmed;
  ArmedCount.store(0, std::memory_order_relaxed);
  for (unsigned I = 0; I != NumFaultSites; ++I)
    ArmedMirror[I].store(0, std::memory_order_relaxed);
}

FaultSiteStats FaultInjector::stats(FaultSite Site) const {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  return Sites[static_cast<unsigned>(Site)].Stats;
}

void FaultInjector::resetStats() {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  for (SiteState &S : Sites)
    S.Stats = FaultSiteStats();
  for (unsigned I = 0; I != NumFaultSites; ++I)
    FiredMirror[I].store(0, std::memory_order_relaxed);
}

bool FaultInjector::shouldFailSlow(FaultSite Site) {
  suspend::SuspendCriticalScope NoSuspend;
  std::lock_guard<std::mutex> Guard(Lock);
  SiteState &S = Sites[static_cast<unsigned>(Site)];
  ++S.Stats.Hits;
  switch (S.Arming) {
  case Mode::Disarmed:
    return false;
  case Mode::Deterministic:
    if (S.SkipHits > 0) {
      --S.SkipHits;
      return false;
    }
    if (S.FailCount == 0)
      return false;
    if (S.FailCount != UINT64_MAX && --S.FailCount == 0) {
      S.Arming = Mode::Disarmed;
      ArmedCount.fetch_sub(1, std::memory_order_relaxed);
      ArmedMirror[static_cast<unsigned>(Site)].store(
          0, std::memory_order_relaxed);
    }
    ++S.Stats.Fired;
    FiredMirror[static_cast<unsigned>(Site)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
  case Mode::Probabilistic:
    if (!S.Stream.nextBool(S.Probability))
      return false;
    ++S.Stats.Fired;
    FiredMirror[static_cast<unsigned>(Site)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
  }
  CGC_UNREACHABLE("unknown fault arming mode");
}

} // namespace cgc
