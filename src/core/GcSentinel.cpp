//===- core/GcSentinel.cpp - Retention-storm sentinel ---------------------===//

#include "core/GcSentinel.h"
#include "core/Collector.h"
#include "core/RetentionTracer.h"
#include <algorithm>

using namespace cgc;

GcSentinel::GcSentinel(Collector &GC, const SentinelPolicy &Policy)
    : GC(GC), Policy(Policy) {
  if (this->Policy.WindowCollections < 2)
    this->Policy.WindowCollections = 2;
  Window.reserve(this->Policy.WindowCollections);
}

bool GcSentinel::windowIsStorm(uint64_t &GrowthOut) const {
  if (Window.size() < Policy.WindowCollections)
    return false;
  uint64_t First = Window.front().BytesLive;
  uint64_t Last = Window.back().BytesLive;
  if (Last <= First)
    return false;
  uint64_t Growth = Last - First;
  if (Growth < Policy.GrowthFloorBytes)
    return false;
  if (static_cast<double>(Growth) <
      GrowthSlopeFraction * static_cast<double>(First))
    return false;
  // Most deltas must point up, or a sawtooth whose net drift happens to
  // clear the floor would flap the ladder.  Ceiling division: a 4-sample
  // sawtooth has 2 of 3 deltas growing, and floor(3*3/4) = 2 would let
  // it through.
  unsigned Deltas = static_cast<unsigned>(Window.size()) - 1;
  unsigned Needed = (Deltas * 3 + 3) / 4;
  unsigned Growing = 0;
  for (size_t I = 0; I + 1 < Window.size(); ++I)
    if (Window[I + 1].BytesLive > Window[I].BytesLive)
      ++Growing;
  if (Growing < Needed)
    return false;
  GrowthOut = Growth;
  return true;
}

void GcSentinel::collectionEnded(uint64_t CollectionIndex,
                                 const CollectionStats &Stats) {
  SentinelSample Sample;
  Sample.CollectionIndex = CollectionIndex;
  Sample.BytesLive = Stats.BytesLive;
  Sample.BlacklistedPages = Stats.BlacklistedPages;
  Sample.NearMisses = Stats.NearMisses;

  bool Grew = !Window.empty() && Sample.BytesLive > Window.back().BytesLive;
  if (Window.size() == Policy.WindowCollections)
    Window.erase(Window.begin());
  Window.push_back(Sample);

  // Level-3 tightening expires on its own, independent of calm: the
  // override is a probe, not a permanent policy change.
  if (TightenUntil && CollectionIndex >= *TightenUntil) {
    GC.requestInteriorTightening(Collector::InteriorTightening::Sentinel,
                                 false);
    TightenUntil.reset();
  }

  CalmStreak = Grew ? 0 : CalmStreak + 1;
  if (this->Stats.CurrentLevel > 0 && CalmStreak >= Policy.CalmCollections) {
    standDown();
    ++this->Stats.Deescalations;
    GC.emit({.Kind = GcEventKind::SentinelEscalation, .Value = 0});
    return;
  }

  uint64_t Growth = 0;
  if (!windowIsStorm(Growth))
    return;
  ++this->Stats.StormsDetected;

  // Saturated ladder: level 4 already raised its incident; re-raising
  // every collection until calm would flap the observer stream.
  if (this->Stats.CurrentLevel >= 4)
    return;
  if (EverEscalated &&
      CollectionIndex - LastEscalationIndex < EscalationCooldown)
    return;

  escalate(CollectionIndex, Growth);
}

void GcSentinel::escalate(uint64_t CollectionIndex, uint64_t GrowthBytes) {
  EverEscalated = true;
  LastEscalationIndex = CollectionIndex;
  unsigned Level = ++Stats.CurrentLevel;
  GC.emit({.Kind = GcEventKind::SentinelEscalation, .Value = Level});

  switch (Level) {
  case 1:
    // Appendix B: dead-frame residue on the allocator's own stack is
    // the dominant accidental retention source; §3.1 clearing is cheap.
    if (!SavedStackClearing)
      SavedStackClearing = GC.Config.StackClearing;
    GC.Config.StackClearing = StackClearMode::Cheap;
    ++Stats.StackClearForces;
    break;
  case 2:
    // Drop blacklist entries the last collection no longer observed —
    // stale entries squeeze allocation onto fewer pages, which raises
    // the density of objects under any surviving false reference.
    GC.BlacklistImpl->refresh();
    ++Stats.BlacklistRefreshes;
    break;
  case 3:
    // Observation 7 in reverse: if arbitrary interior pointers are
    // pinning the growth, requiring first-page references for
    // TightenCycles collections lets the next cycles reclaim objects
    // held only by deep interior misidentifications.
    GC.requestInteriorTightening(Collector::InteriorTightening::Sentinel,
                                 true);
    TightenUntil = CollectionIndex + TightenCycles;
    ++Stats.InteriorTightenings;
    break;
  default:
    raiseStormIncident(CollectionIndex, GrowthBytes);
    break;
  }
}

void GcSentinel::raiseStormIncident(uint64_t CollectionIndex,
                                    uint64_t GrowthBytes) {
  GcIncident Incident;
  Incident.Cause = GcIncidentCause::RetentionStorm;
  Incident.CollectionIndex = CollectionIndex;
  Incident.EscalationLevel = Stats.CurrentLevel;
  Incident.WindowGrowthBytes = GrowthBytes;
  Incident.Trajectory = Window;

  // Sample live objects evenly and ask the tracer which root source
  // anchors each one.  A sample, not a census: the incident is a
  // debugging lead ("your stack residue holds 80% of the growth"), not
  // an accounting statement.
  std::vector<void *> Bases;
  GC.forEachObject([&](void *Ptr, size_t, ObjectKind) {
    Bases.push_back(Ptr);
  });
  constexpr size_t MaxSamples = 32;
  constexpr unsigned NumRootSources = 4; // RootSource enumerator count.
  size_t Stride = std::max<size_t>(1, Bases.size() / MaxSamples);
  RetentionTracer Tracer(GC);
  uint64_t PerSource[NumRootSources][2] = {};
  for (size_t I = 0; I < Bases.size() && Incident.ObjectsSampled < MaxSamples;
       I += Stride) {
    ++Incident.ObjectsSampled;
    RetentionTrace Trace = Tracer.explain(Bases[I]);
    if (!Trace.Reached)
      continue;
    unsigned Source = static_cast<unsigned>(Trace.Source);
    PerSource[Source][0] += 1;
    PerSource[Source][1] += GC.objectSizeOf(Bases[I]);
  }
  for (unsigned S = 0; S != NumRootSources; ++S) {
    if (PerSource[S][0] == 0)
      continue;
    GcIncidentRootSummary Summary;
    Summary.Source = static_cast<RootSource>(S);
    Summary.Objects = PerSource[S][0];
    Summary.Bytes = PerSource[S][1];
    Incident.RetainedByRoot.push_back(Summary);
  }
  std::sort(Incident.RetainedByRoot.begin(), Incident.RetainedByRoot.end(),
            [](const GcIncidentRootSummary &A,
               const GcIncidentRootSummary &B) { return A.Bytes > B.Bytes; });

  ++Stats.IncidentsRaised;
  LastIncident = std::move(Incident);
  GC.raiseIncident(*LastIncident, Collector::WarnEvent::SentinelIncident,
                   "cgc: retention storm: live bytes kept growing through "
                   "every sentinel escalation",
                   GrowthBytes);
}

void GcSentinel::standDown() {
  if (SavedStackClearing) {
    GC.Config.StackClearing = *SavedStackClearing;
    SavedStackClearing.reset();
  }
  if (TightenUntil) {
    GC.requestInteriorTightening(Collector::InteriorTightening::Sentinel,
                                 false);
    TightenUntil.reset();
  }
  Stats.CurrentLevel = 0;
}
