//===- tests/TestSentinel.cpp - Retention-storm sentinel tests ------------===//
//
// Covers the GcSentinel escalation ladder: storms detected within the
// configured window, rungs fired in order (stack clearing -> blacklist
// refresh -> interior tightening -> incident), hysteresis (no flapping
// on a sawtooth live-bytes trajectory), incident payload contents, and
// the acceptance claim that escalation measurably reduces retained
// bytes versus a sentinel-off collector on a false-retention workload.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcIncident.h"
#include "core/GcSentinel.h"
#include <gtest/gtest.h>
#include <vector>

using namespace cgc;

namespace {

GcConfig sentinelConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = uint64_t(128) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Explicit collections only.
  return Config;
}

/// An aggressive policy so tests escalate in a handful of collections:
/// with the fixed two-collection cooldown, steady growth climbs a rung
/// every other collection from the fourth on.
SentinelPolicy stormPolicy() {
  SentinelPolicy Policy;
  Policy.Enabled = true;
  Policy.WindowCollections = 4;
  Policy.GrowthFloorBytes = 4 << 10;
  Policy.CalmCollections = 100; // No stand-down mid-test.
  return Policy;
}

/// Captures incidents dispatched through the observer hook.
class IncidentRecorder final : public GcObserver {
public:
  void onIncident(const GcIncident &Incident) override {
    Incidents.push_back(Incident);
  }
  std::vector<GcIncident> Incidents;
};

/// Fixed block of root slots (a vector would move when it grows and
/// invalidate the registered range).
struct RootSlots {
  explicit RootSlots(Collector &GC) : GC(GC) {
    Id = GC.addRootRange(Slots, Slots + MaxSlots, RootEncoding::Native64,
                         RootSource::Client, "sentinel-test-roots");
  }
  ~RootSlots() { GC.removeRootRange(Id); }

  static constexpr size_t MaxSlots = 512;
  uint64_t Slots[MaxSlots] = {};
  Collector &GC;
  RootId Id;
};

} // namespace

TEST(Sentinel, StormDetectedWithinConfiguredWindow) {
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Collector GC(Config);
  RootSlots Roots(GC);

  // Monotonic growth: every collection retains one more 32 KB object.
  // The window holds WindowCollections samples, so the storm must be
  // flagged by the WindowCollections-th collection (growth clears the
  // floor immediately at this allocation size).
  ASSERT_NE(GC.sentinel(), nullptr);
  unsigned Collections = 0;
  for (; Collections != Config.Sentinel.WindowCollections; ++Collections) {
    Roots.Slots[Collections] =
        reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
  }
  EXPECT_GE(GC.sentinel()->stats().StormsDetected, 1u)
      << "sustained growth not flagged within the configured window";
  EXPECT_EQ(GC.sentinel()->stats().CurrentLevel, 1u);
}

TEST(Sentinel, EscalationLadderFiresInOrder) {
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Collector GC(Config);
  RootSlots Roots(GC);
  IncidentRecorder Recorder;
  GC.addObserver(&Recorder);

  // Keep growing until the ladder saturates; record the collection at
  // which each rung first fired.
  uint64_t FirstAt[4] = {0, 0, 0, 0};
  for (unsigned I = 0; I != 24 && GC.sentinel()->stats().IncidentsRaised == 0;
       ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
    const GcSentinelStats &S = GC.sentinel()->stats();
    if (S.StackClearForces && !FirstAt[0])
      FirstAt[0] = I + 1;
    if (S.BlacklistRefreshes && !FirstAt[1])
      FirstAt[1] = I + 1;
    if (S.InteriorTightenings && !FirstAt[2])
      FirstAt[2] = I + 1;
    if (S.IncidentsRaised && !FirstAt[3])
      FirstAt[3] = I + 1;
  }

  const GcSentinelStats &S = GC.sentinel()->stats();
  EXPECT_EQ(S.StackClearForces, 1u);
  EXPECT_EQ(S.BlacklistRefreshes, 1u);
  EXPECT_EQ(S.InteriorTightenings, 1u);
  EXPECT_EQ(S.IncidentsRaised, 1u);
  EXPECT_EQ(S.CurrentLevel, 4u);
  // Strict ladder order: each rung strictly after the previous one.
  EXPECT_GT(FirstAt[0], 0u);
  EXPECT_LT(FirstAt[0], FirstAt[1]);
  EXPECT_LT(FirstAt[1], FirstAt[2]);
  EXPECT_LT(FirstAt[2], FirstAt[3]);
  EXPECT_EQ(Recorder.Incidents.size(), 1u);
}

TEST(Sentinel, IncidentPayloadDescribesTheStorm) {
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Collector GC(Config);
  RootSlots Roots(GC);
  IncidentRecorder Recorder;
  GC.addObserver(&Recorder);

  for (unsigned I = 0; I != 24 && Recorder.Incidents.empty(); ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
  }
  ASSERT_EQ(Recorder.Incidents.size(), 1u);
  const GcIncident &Incident = Recorder.Incidents.front();

  EXPECT_EQ(Incident.Cause, GcIncidentCause::RetentionStorm);
  EXPECT_STREQ(gcIncidentCauseName(Incident.Cause), "retention-storm");
  EXPECT_EQ(Incident.EscalationLevel, 4u);
  EXPECT_GT(Incident.WindowGrowthBytes, 0u);
  EXPECT_EQ(Incident.Trajectory.size(), Config.Sentinel.WindowCollections);
  // The trajectory is the storm: live bytes grew across the window.
  EXPECT_GT(Incident.Trajectory.back().BytesLive,
            Incident.Trajectory.front().BytesLive);
  // Every retained object is pinned by a Client root slot; the tracer
  // breakdown must say so.
  EXPECT_GT(Incident.ObjectsSampled, 0u);
  ASSERT_FALSE(Incident.RetainedByRoot.empty());
  EXPECT_EQ(Incident.RetainedByRoot.front().Source, RootSource::Client);
  EXPECT_GT(Incident.RetainedByRoot.front().Bytes, 0u);
  // A matching lastIncident snapshot stays queryable on the sentinel.
  ASSERT_TRUE(GC.sentinel()->lastIncident().has_value());
  EXPECT_EQ(GC.sentinel()->lastIncident()->WindowGrowthBytes,
            Incident.WindowGrowthBytes);
}

TEST(Sentinel, SawtoothDoesNotFlapTheLadder) {
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Config.Sentinel.CalmCollections = 4;
  Collector GC(Config);
  RootSlots Roots(GC);

  // Sawtooth: a 256 KB spike appears and disappears on alternate
  // collections.  Peaks drift upward (each cycle also retains a small
  // 4 KB object) so the window's net growth clears the floor — but the
  // deltas alternate sign, and the growing-delta quorum must hold the
  // ladder at level 0.
  for (unsigned I = 0; I != 24; ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(4 << 10));
    if (I % 2 == 0)
      Roots.Slots[RootSlots::MaxSlots - 1] =
          reinterpret_cast<uint64_t>(GC.allocate(256 << 10));
    else
      Roots.Slots[RootSlots::MaxSlots - 1] = 0;
    GC.collect("test");
  }
  const GcSentinelStats &S = GC.sentinel()->stats();
  EXPECT_EQ(S.StormsDetected, 0u);
  EXPECT_EQ(S.CurrentLevel, 0u);
  EXPECT_EQ(S.StackClearForces, 0u);
}

TEST(Sentinel, CalmStreakStandsTheLadderDown) {
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Config.Sentinel.CalmCollections = 3;
  Collector GC(Config);
  RootSlots Roots(GC);

  StackClearMode Saved = GC.config().StackClearing;
  unsigned I = 0;
  for (; I != 24 && GC.sentinel()->stats().CurrentLevel == 0; ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
  }
  ASSERT_GT(GC.sentinel()->stats().CurrentLevel, 0u);
  EXPECT_NE(GC.config().StackClearing, Saved)
      << "level 1 must force stack clearing on";

  // Stop growing; after CalmCollections flat collections the sentinel
  // must stand down and restore the saved knobs.
  for (unsigned Calm = 0; Calm != 4; ++Calm)
    GC.collect("test");
  EXPECT_EQ(GC.sentinel()->stats().CurrentLevel, 0u);
  EXPECT_GE(GC.sentinel()->stats().Deescalations, 1u);
  EXPECT_EQ(GC.config().StackClearing, Saved)
      << "stand-down must restore the pre-escalation stack-clearing mode";
}

TEST(Sentinel, EscalationReducesRetainedBytesVsSentinelOff) {
  // The acceptance workload: multi-page objects pinned ONLY by interior
  // pointers two pages past the base.  Under InteriorPolicy::All they
  // are retained forever; once the ladder reaches level 3 and tightens
  // to FirstPage, the pins stop holding and the heap drains.  The
  // sentinel-off control keeps every object.
  auto RunWorkload = [](bool WithSentinel) {
    GcConfig Config = sentinelConfig();
    Config.Interior = InteriorPolicy::All;
    if (WithSentinel)
      Config.Sentinel = stormPolicy();
    Collector GC(Config);
    RootSlots Roots(GC);
    uint64_t FinalLive = 0;
    for (unsigned I = 0; I != 16; ++I) {
      auto *Obj = static_cast<char *>(GC.allocate(64 << 10));
      if (Obj)
        Roots.Slots[I] = reinterpret_cast<uint64_t>(Obj + 2 * PageSize);
      FinalLive = GC.collect("test").BytesLive;
    }
    if (WithSentinel) {
      EXPECT_GE(GC.sentinel()->stats().InteriorTightenings, 1u)
          << "the workload never reached the tightening rung";
    }
    return FinalLive;
  };

  uint64_t WithSentinel = RunWorkload(true);
  uint64_t Control = RunWorkload(false);
  EXPECT_GT(Control, uint64_t(900) << 10)
      << "control must retain the interior-pinned objects";
  EXPECT_LT(WithSentinel, Control / 2)
      << "escalation should reclaim most interior-pinned bytes";
}

TEST(Sentinel, ReconfigureAndDisableRestoresState) {
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Collector GC(Config);
  ASSERT_NE(GC.sentinel(), nullptr);

  // Escalate at least one rung, then disable the sentinel entirely:
  // overridden knobs must be restored even though the sentinel object
  // is destroyed.
  RootSlots Roots(GC);
  StackClearMode Saved = GC.config().StackClearing;
  for (unsigned I = 0; I != 24 && GC.sentinel()->stats().CurrentLevel == 0;
       ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
  }
  ASSERT_GT(GC.sentinel()->stats().CurrentLevel, 0u);

  SentinelPolicy Off;
  Off.Enabled = false;
  GC.configureSentinel(Off);
  EXPECT_EQ(GC.sentinel(), nullptr);
  EXPECT_EQ(GC.config().StackClearing, Saved);

  // And collections keep working without the observer.
  GC.collect("test");
}

TEST(Sentinel, StormIncidentPrecedesItsWarning) {
  // Every incident runs in one order: onIncident, then the rate-limited
  // warning that names it.
  GcConfig Config = sentinelConfig();
  Config.Sentinel = stormPolicy();
  Collector GC(Config);
  RootSlots Roots(GC);

  class OrderRecorder final : public GcObserver {
  public:
    void onIncident(const GcIncident &) override { Order.push_back('I'); }
    void onWarning(const char *, uint64_t) override { Order.push_back('W'); }
    std::vector<char> Order;
  } Recorder;
  GC.addObserver(&Recorder);

  for (unsigned I = 0; I != 24 && GC.sentinel()->stats().IncidentsRaised == 0;
       ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
  }
  ASSERT_EQ(GC.sentinel()->stats().IncidentsRaised, 1u);
  EXPECT_EQ(Recorder.Order, (std::vector<char>{'I', 'W'}));
}

TEST(Sentinel, RunsBeforeAnEarlierClientsCollectionEnd) {
  // A client registered before the sentinel was enabled still sees each
  // collection's sentinel step done when its onCollectionEnd runs.
  Collector GC(sentinelConfig());
  RootSlots Roots(GC);

  class LevelReader final : public GcObserver {
  public:
    explicit LevelReader(Collector &GC) : GC(GC) {}
    void onCollectionEnd(uint64_t, const CollectionStats &) override {
      Levels.push_back(GC.sentinel() ? GC.sentinel()->currentLevel() : 0);
    }
    Collector &GC;
    std::vector<unsigned> Levels;
  } Reader(GC);
  GC.addObserver(&Reader);
  GC.configureSentinel(stormPolicy());

  std::vector<unsigned> After;
  for (unsigned I = 0; I != 24 && GC.sentinel()->currentLevel() < 2; ++I) {
    Roots.Slots[I] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
    After.push_back(GC.sentinel()->currentLevel());
  }
  ASSERT_EQ(GC.sentinel()->currentLevel(), 2u);
  EXPECT_EQ(Reader.Levels, After);
}

TEST(Sentinel, TighteningOnAnEmergencyCollectionOutlivesTheLadder) {
  // The collector owns the interior policy: the sentinel's level-3
  // request and the exhaustion ladder's emergency request are kept
  // apart, so the ladder dropping its own request cannot end the
  // sentinel's tightening, and the tightening's expiry restores the
  // configured policy rather than the ladder's temporary one.
  GcConfig Config = sentinelConfig();
  Config.MaxHeapBytes = uint64_t(4) << 20;
  Config.Interior = InteriorPolicy::All;
  Config.Sentinel = stormPolicy();
  Config.Sentinel.WindowCollections = 8;
  Collector GC(Config);
  RootSlots Roots(GC);

  // Steady growth: level 1 at collection 7, level 2 at collection 9.
  unsigned Slot = 0;
  for (; Slot != 10; ++Slot) {
    Roots.Slots[Slot] = reinterpret_cast<uint64_t>(GC.allocate(32 << 10));
    GC.collect("test");
  }
  ASSERT_EQ(GC.sentinel()->currentLevel(), 2u);

  // Fill the heap.  The failing request runs the ladder: collection 10
  // (heap-exhausted, still cooling down) and collection 11 (emergency),
  // where the storm climbs to level 3.
  while (void *P = GC.allocate(32 << 10)) {
    ASSERT_LT(Slot, RootSlots::MaxSlots);
    Roots.Slots[Slot++] = reinterpret_cast<uint64_t>(P);
  }
  ASSERT_EQ(GC.resilienceStats().EmergencyCollections, 1u);
  ASSERT_EQ(GC.sentinel()->stats().InteriorTightenings, 1u);
  EXPECT_EQ(GC.config().Interior, InteriorPolicy::FirstPage)
      << "the ladder's end dropped the sentinel's tightening";

  // The tightening lasts GcSentinel::TightenCycles collections, then
  // the configured policy comes back.
  for (unsigned I = 0; I != GcSentinel::TightenCycles; ++I)
    GC.collect("test");
  EXPECT_EQ(GC.config().Interior, InteriorPolicy::All)
      << "the tightening's expiry must restore the configured policy";
}
