//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable fault injection for the collector's
/// resource-acquisition sites.  The paper's collector has to stay alive
/// inside a fixed address range under adversarial conditions; this
/// harness lets tests *manufacture* those conditions on demand: a page
/// commit that fails, a free-run search that comes up empty, a mark
/// stack that overflows.
///
/// Injection points are expressed as `CGC_INJECT_FAULT(Site)` checks.
/// When the build disables `CGC_FAULT_INJECTION` the macro folds to
/// constant `false` and the sites compile to nothing; when enabled, a
/// disarmed injector costs a single relaxed atomic load.  Every site
/// but one sits on a slow path that already touches a mutex.  The
/// exception is MarkStackOverflow in MarkWorker::push, which runs once
/// per marked pointer-bearing object: each MarkWorker reads
/// FaultInjector::anyArmed() once, when it is constructed, and only a
/// worker built while some site was armed evaluates the site.
/// An armed injector therefore still sees one hit per push.
///
/// Two arming modes, both deterministic:
///  - arm(Site, SkipHits, FailCount): let SkipHits calls through, then
///    fail the next FailCount calls.
///  - armRandom(Site, Probability, Seed): fail each hit with a fixed
///    probability drawn from a seeded xoshiro256** stream, so fuzz runs
///    replay bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_FAULTINJECTION_H
#define CGC_SUPPORT_FAULTINJECTION_H

#include "support/Random.h"
#include <atomic>
#include <cstdint>
#include <mutex>

namespace cgc {

/// Every place the collector can be told to fail on purpose.
enum class FaultSite : unsigned {
  /// PageAllocator::grow — the arena refuses to commit more pages, as
  /// if the window's commit limit had been reached early.
  ArenaGrow = 0,
  /// PageAllocator free-run search — pretends no run satisfies the
  /// request even if one exists, forcing the grow/collect paths.
  PageRunSearch = 1,
  // 2 is retired (it was WorkerSpawn, the deleted parallel marker's
  // thread spawn).  It stays unused so the sites above and below, and
  // CGC_FAULT_*, keep their numbers; see RetiredFaultSite.
  /// MarkWorker::push — the mark stack "overflows" and drops the item;
  /// marking must recover by rescanning marked objects to a fixpoint.
  MarkStackOverflow = 3,
  /// ThreadRegistry::parkAtSafepoint — the mutator ignores the
  /// safepoint poll and keeps running, as if wedged in a compute loop;
  /// the handshake watchdog must stop it preemptively.
  WedgedMutator = 4,

  // Metadata-corruption sites (ObjectHeap::injectMetadataFaults, run at
  // collection entry): each one deterministically mutilates live GC
  // metadata the way a wild client store would, so the verifier's
  // detect-repair-retry path can be driven seed-replayably.  They must
  // stay contiguous above the allocation/thread sites — soak_chaos's
  // historical digests draw from the first NumChaosFaultSites only.
  /// BlockDescriptor header bit-flip: the chosen live block's
  /// AllocatedCount has its low bit flipped, so counter and alloc
  /// bitmap disagree.
  MetadataHeaderFlip = 5,
  /// Free-list link smash: the first nonempty lane's lowest block is
  /// delisted, leaving a block with free slots invisible to the
  /// allocator.
  MetadataFreeListSmash = 6,
  /// Page-map entry clobber: the chosen live block's start-page entry
  /// is overwritten with InvalidBlockId, orphaning the block.
  MetadataPageMapClobber = 7,
  /// Alloc-bit flip: a clear, non-pinned alloc bit in the chosen block
  /// is set, so the bitmap claims one more object than the counter.
  MetadataAllocBitFlip = 8,
};

inline constexpr unsigned NumFaultSites = 9;

/// The one number below NumFaultSites that names no site.  Arming it
/// through the C API is a no-op.
inline constexpr unsigned RetiredFaultSite = 2;

/// \returns a stable human-readable name for \p Site.
const char *faultSiteName(FaultSite Site);

/// Per-site counters, readable while armed.
struct FaultSiteStats {
  /// Times the site was reached (armed or not, when compiled in).
  uint64_t Hits = 0;
  /// Times the site was forced to fail.
  uint64_t Fired = 0;
};

/// Process-global fault injector.  All state is behind a mutex except
/// the armed-site count, which gates the disarmed fast path with one
/// relaxed load.  Tests arm sites directly or through the C API.
/// Every lock section is a suspend::SuspendCriticalScope: a mutator
/// polling an armed WedgedMutator site is inside this mutex on every
/// safepoint, and the watchdog's preemptive suspension must not park
/// it there — the stop initiator takes the same mutex at each
/// CGC_INJECT_FAULT site mid-collection.
class FaultInjector {
public:
  /// \returns the process-wide injector.
  static FaultInjector &instance();

  /// Arms \p Site deterministically: the next \p SkipHits calls
  /// succeed, the \p FailCount after that fail, then the site disarms
  /// itself.  FailCount of UINT64_MAX means "fail forever".
  void arm(FaultSite Site, uint64_t SkipHits = 0, uint64_t FailCount = 1);

  /// Arms \p Site probabilistically: each hit fails with probability
  /// \p Probability, drawn from a stream seeded with \p Seed.
  void armRandom(FaultSite Site, double Probability, uint64_t Seed);

  /// Disarms \p Site; its counters survive until resetStats().
  void disarm(FaultSite Site);

  /// Disarms every site.
  void disarmAll();

  /// \returns the counters for \p Site.
  FaultSiteStats stats(FaultSite Site) const;

  /// Zeroes every site's counters (leaves arming untouched).
  void resetStats();

  /// Called from CGC_INJECT_FAULT.  \returns true when the site must
  /// fail this time.  Disarmed process: one relaxed load, no locking.
  bool shouldFail(FaultSite Site) {
    if (ArmedCount.load(std::memory_order_relaxed) == 0)
      return false;
    return shouldFailSlow(Site);
  }

  /// \returns true when any site is armed.  One relaxed load; the
  /// hot-path gate for sites that snapshot it (see MarkWorker).
  bool anyArmed() const {
    return ArmedCount.load(std::memory_order_relaxed) != 0;
  }

  /// Lock-free mirrors of per-site state, readable from a signal
  /// handler (the crash reporter's armed-fault-sites line).  Values may
  /// trail the mutex-guarded truth by one update; never blocks.
  bool armedRelaxed(FaultSite Site) const {
    return ArmedMirror[static_cast<unsigned>(Site)].load(
               std::memory_order_relaxed) != 0;
  }
  uint64_t firedRelaxed(FaultSite Site) const {
    return FiredMirror[static_cast<unsigned>(Site)].load(
        std::memory_order_relaxed);
  }

private:
  enum class Mode { Disarmed, Deterministic, Probabilistic };

  struct SiteState {
    Mode Arming = Mode::Disarmed;
    uint64_t SkipHits = 0;
    uint64_t FailCount = 0;
    double Probability = 0.0;
    Rng Stream;
    FaultSiteStats Stats;
  };

  bool shouldFailSlow(FaultSite Site);

  mutable std::mutex Lock;
  SiteState Sites[NumFaultSites];
  std::atomic<uint64_t> ArmedCount{0};
  /// Signal-handler-readable mirrors; see armedRelaxed/firedRelaxed.
  std::atomic<uint8_t> ArmedMirror[NumFaultSites] = {};
  std::atomic<uint64_t> FiredMirror[NumFaultSites] = {};
};

/// True when the build compiled the injection sites in.  Benchmarks
/// report this so a "with hooks" run is distinguishable from a "hooks
/// compiled out" run in the emitted JSON.
#ifdef CGC_FAULT_INJECTION_ENABLED
inline constexpr bool FaultInjectionCompiled = true;
#else
inline constexpr bool FaultInjectionCompiled = false;
#endif

} // namespace cgc

/// Injection-site check.  Folds to constant false (and the whole
/// `if (CGC_INJECT_FAULT(...))` body to nothing) when the hooks are
/// compiled out.
#ifdef CGC_FAULT_INJECTION_ENABLED
#define CGC_INJECT_FAULT(Site)                                                 \
  (::cgc::FaultInjector::instance().shouldFail(::cgc::FaultSite::Site))
#else
#define CGC_INJECT_FAULT(Site) (false)
#endif

#endif // CGC_SUPPORT_FAULTINJECTION_H
