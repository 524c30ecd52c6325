//===- core/GcSentinel.h - Retention-storm sentinel ------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime defense against the paper's §2 failure mode: conservative
/// misidentification silently retaining garbage until the heap grows
/// without bound.  The collector calls the sentinel at the end of every
/// collection, before any observer's onCollectionEnd.  It watches the
/// live-bytes trajectory across a sliding window of collections
/// (GcConfig::SentinelPolicy) and, when sustained growth exceeds the
/// configured slope/floor, climbs a four-level escalation ladder of the
/// paper's own remedies:
///
///   level 1  force §3.1 cheap stack clearing (dead-frame residue is
///            Appendix B's dominant leak source)
///   level 2  refresh the blacklist (drop entries the last collection
///            no longer observed, even with aging off)
///   level 3  request that interior-pointer recognition tighten from
///            All to FirstPage for TightenCycles collections
///            (observation 7's remedy); the collector owns the policy
///            and keeps this request apart from the exhaustion
///            ladder's own
///   level 4  emit a structured GcIncident — cause, trajectory window,
///            top retained-bytes-by-root-source sampled through
///            RetentionTracer — via onIncident, then GcWarnProc
///
/// CalmCollections consecutive non-growing collections stand the
/// sentinel down: the stack-clearing mode is restored, the tightening
/// request dropped, and the level returns to 0.  Detection requires a
/// full window with most deltas positive, so sawtooth workloads (grow,
/// drop, grow, drop) do not flap the ladder.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_GCSENTINEL_H
#define CGC_CORE_GCSENTINEL_H

#include "core/GcConfig.h"
#include "core/GcIncident.h"
#include <optional>
#include <vector>

namespace cgc {

class Collector;
struct CollectionStats;

struct GcSentinelStats {
  /// Windows that met the storm criteria (counted even while the
  /// ladder is saturated or cooling down).
  uint64_t StormsDetected = 0;
  uint64_t StackClearForces = 0;
  uint64_t BlacklistRefreshes = 0;
  uint64_t InteriorTightenings = 0;
  uint64_t IncidentsRaised = 0;
  uint64_t Deescalations = 0;
  /// Current ladder level, 0 (calm) through 4 (incident raised).
  unsigned CurrentLevel = 0;
};

class GcSentinel {
public:
  /// A storm's window growth must also be at least this fraction of
  /// the live bytes at window start.
  static constexpr double GrowthSlopeFraction = 0.05;
  /// Collections to wait between escalation steps, so one response can
  /// take effect before the next is judged necessary.
  static constexpr unsigned EscalationCooldown = 2;
  /// Collections the level-3 interior-pointer tightening stays active.
  static constexpr unsigned TightenCycles = 8;

  GcSentinel(Collector &GC, const SentinelPolicy &Policy);

  /// Samples the finished collection \p CollectionIndex and climbs,
  /// holds or stands down the ladder.
  void collectionEnded(uint64_t CollectionIndex,
                       const CollectionStats &Stats);

  const GcSentinelStats &stats() const { return Stats; }
  unsigned currentLevel() const { return Stats.CurrentLevel; }
  /// The current trajectory window, oldest first (tests and the soak
  /// harness assert on it).
  const std::vector<SentinelSample> &trajectory() const { return Window; }
  /// The last incident raised, if any (copied at emission time).
  const std::optional<GcIncident> &lastIncident() const {
    return LastIncident;
  }

  /// Restores the stack-clearing mode, drops the tightening request
  /// and returns to level 0.  Called on de-escalation and before the
  /// sentinel is torn down.
  void standDown();

private:
  bool windowIsStorm(uint64_t &GrowthOut) const;
  void escalate(uint64_t CollectionIndex, uint64_t GrowthBytes);
  void raiseStormIncident(uint64_t CollectionIndex, uint64_t GrowthBytes);

  Collector &GC;
  SentinelPolicy Policy;
  GcSentinelStats Stats;
  std::vector<SentinelSample> Window;
  std::optional<GcIncident> LastIncident;

  /// Stack-clearing mode to restore on stand-down.
  std::optional<StackClearMode> SavedStackClearing;
  /// Collection index at which the level-3 tightening expires; empty
  /// while none is requested.
  std::optional<uint64_t> TightenUntil;

  /// Collection index of the last escalation, for the cooldown.
  uint64_t LastEscalationIndex = 0;
  bool EverEscalated = false;
  /// Consecutive non-growing collections (de-escalation hysteresis).
  unsigned CalmStreak = 0;
};

} // namespace cgc

#endif // CGC_CORE_GCSENTINEL_H
