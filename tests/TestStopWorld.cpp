//===- tests/TestStopWorld.cpp - Stop-the-world hardening -----------------===//
//
// The handshake watchdog and its escalation ladder: cooperative
// handshakes stay bit-identical with the watchdog armed, a wedged
// mutator is stopped preemptively by the suspend signal, the
// final-timeout rung raises a structured incident and degrades instead
// of hanging, the crash handlers mask the reserved signal, and a forked
// child can rebuild the registry and collect.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcIncident.h"
#include "support/CrashReporter.h"
#include "support/FaultInjection.h"
#include "support/Random.h"
#include "support/SignalSuspend.h"
#include <atomic>
#include <csignal>
#include <gtest/gtest.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cgc;

namespace {

GcConfig testConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = uint64_t(16) << 20;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Never auto-collect.
  return Config;
}

/// A mutator that raises \p Wedged and then spins without ever polling
/// a safepoint until \p Resume: the only way a handshake can stop it
/// is the watchdog's preemptive signal suspension.
void wedgedWorker(Collector &GC, std::atomic<bool> &Wedged,
                  std::atomic<bool> &Resume) {
  GcThreadScope Scope(GC);
  ASSERT_TRUE(Scope.registered());
  Wedged.store(true, std::memory_order_release);
  while (!Resume.load(std::memory_order_acquire)) {
  }
}

struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarmAll(); }
};

class IncidentRecorder : public GcObserver {
public:
  void onIncident(const GcIncident &Incident) override {
    Causes.push_back(Incident.Cause);
    LastTrace = Incident.HandshakeTrace;
  }
  void onWarning(const char *Message, uint64_t Value) override {
    (void)Value;
    Warnings.push_back(Message);
  }
  std::vector<GcIncidentCause> Causes;
  std::vector<GcHandshakeTraceEntry> LastTrace;
  std::vector<std::string> Warnings;
};

/// Incident records in \p GC's crash ring.
unsigned ringIncidents(const Collector &GC) {
  GcEventRecord Records[EventRing::Capacity];
  unsigned Count = GC.crashState().Events.snapshot(Records,
                                                   EventRing::Capacity);
  EXPECT_LT(GC.crashState().Events.pushed(), EventRing::Capacity)
      << "the ring wrapped; older incidents may be gone";
  unsigned Incidents = 0;
  for (unsigned I = 0; I != Count; ++I)
    Incidents += Records[I].kind() == GcEventKind::Incident;
  return Incidents;
}

} // namespace

// Arming the watchdog must be invisible on the cooperative path: a
// collector whose handshake never stalls runs the same workload
// bit-identically to one with the watchdog disabled, including with
// sticky threaded mode and zero registered threads.
TEST(StopWorld, WatchdogArmedBitIdenticalWhenCooperative) {
  auto runWorkload = [](uint64_t DeadlineMs) {
    GcConfig Config = testConfig();
    Config.HandshakeDeadlineMs = DeadlineMs;
    Collector GC(Config);
    // Flip the sticky threaded-mode flag so every collection takes the
    // handshake path (with nobody to park).
    std::thread([&GC] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
    }).join();
    Rng R(9191);
    std::vector<uint64_t> Window(128, 0);
    GC.addRootRange(Window.data(), Window.data() + Window.size(),
                    RootEncoding::Native64, RootSource::Client, "window");
    std::vector<uint64_t> Trace;
    for (int Step = 0; Step != 1500; ++Step) {
      void *P = GC.allocate(R.nextInRange(8, 256));
      Trace.push_back(GC.windowOffsetOf(P));
      if (R.nextBool(0.5))
        Window[R.pickIndex(Window.size())] = reinterpret_cast<uint64_t>(P);
      if (Step % 500 == 499) {
        CollectionStats Cycle = GC.collect("census");
        Trace.push_back(Cycle.ObjectsMarked);
        Trace.push_back(Cycle.ObjectsSweptFree);
        Trace.push_back(Cycle.BytesLive);
        Trace.push_back(Cycle.RootHits);
        Trace.push_back(Cycle.MutatorsStopped);
      }
    }
    Trace.push_back(GC.heapStats().ObjectsAllocated);
    GcHandshakeStats H = GC.handshakeStats();
    Trace.push_back(H.WarnRungs);
    Trace.push_back(H.SignalRungs);
    Trace.push_back(H.SignalSuspensions);
    Trace.push_back(H.HandshakeTimeouts);
    return Trace;
  };
  EXPECT_EQ(runWorkload(0), runWorkload(5000))
      << "an armed-but-idle watchdog must not perturb the collector";
}

// Polling mutators always park on the first rung: a long sequence of
// handshakes against cooperative workers never climbs the ladder.
TEST(StopWorld, CooperativeHandshakeNeverEscalates) {
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 5000;
  Collector GC(Config);
  constexpr int NumWorkers = 3;
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != NumWorkers; ++T)
    Workers.emplace_back([&] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
      Ready.fetch_add(1);
      while (!Stop.load(std::memory_order_relaxed)) {
        void *P = GC.allocate(48);
        ASSERT_NE(P, nullptr);
        GC.safepoint();
      }
    });
  while (Ready.load() != NumWorkers)
    std::this_thread::yield();
  for (int Round = 0; Round != 10; ++Round) {
    CollectionStats Cycle = GC.collect("handshake");
    EXPECT_EQ(Cycle.MutatorsStopped, uint64_t(NumWorkers));
  }
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  GcHandshakeStats H = GC.handshakeStats();
  EXPECT_GE(H.Handshakes, 10u);
  EXPECT_EQ(H.WarnRungs, 0u);
  EXPECT_EQ(H.SignalRungs, 0u);
  EXPECT_EQ(H.SignalSuspensions, 0u);
  EXPECT_EQ(H.HandshakeTimeouts, 0u);
}

// A mutator spinning past every safepoint is stopped preemptively by
// the suspend signal inside the deadline, its stack (captured at the
// signal) keeps its objects alive, and the collection completes.
TEST(SignalSuspend, WedgedMutatorStoppedBySignal) {
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 400; // Signal rung at 200 ms.
  Collector GC(Config);
  std::atomic<bool> Wedged{false};
  std::atomic<bool> Resume{false};
  std::atomic<bool> TagIntact{false};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    // The only reference lives in this stack frame: surviving the
    // collection proves the signal handler published a stack snapshot
    // the root scan honored.
    auto *Keep = static_cast<uint64_t *>(GC.allocate(64));
    ASSERT_NE(Keep, nullptr);
    *Keep = 0xdead60c5ull;
    Wedged.store(true, std::memory_order_release);
    while (!Resume.load(std::memory_order_acquire)) {
    }
    TagIntact.store(*Keep == 0xdead60c5ull, std::memory_order_release);
  });
  while (!Wedged.load(std::memory_order_acquire))
    std::this_thread::yield();
  CollectionStats Cycle = GC.collect("wedged");
  EXPECT_EQ(Cycle.MutatorsStopped, 1u);
  Resume.store(true, std::memory_order_release);
  Worker.join();
  EXPECT_TRUE(TagIntact.load());
  GcHandshakeStats H = GC.handshakeStats();
  EXPECT_GE(H.SignalSuspensions, 1u);
  EXPECT_GE(H.SignalRungs, 1u);
  EXPECT_EQ(H.HandshakeTimeouts, 0u);
}

// The deterministic wedge: with the WedgedMutator fault armed, every
// safepoint poll is a no-op, so the handshake must climb rung by rung —
// a stall warning at deadline/4, the signal suspension at deadline/2 —
// and still complete.
TEST(SignalSuspend, EscalationRungsUnderInjectedFault) {
  DisarmGuard Disarm;
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 400;
  Collector GC(Config);
  IncidentRecorder Recorder;
  GcObserverId Id = GC.addObserver(&Recorder);
  std::atomic<bool> Ready{false};
  std::atomic<bool> Stop{false};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    Ready.store(true, std::memory_order_release);
    // Polls constantly — but the armed fault turns every poll into a
    // missed safepoint, exactly a compute loop the client forgot to
    // instrument.
    while (!Stop.load(std::memory_order_acquire))
      GC.safepoint();
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();
  FaultInjector::instance().arm(FaultSite::WedgedMutator, 0, UINT64_MAX);
  CollectionStats Cycle = GC.collect("injected-wedge");
  FaultInjector::instance().disarmAll();
  EXPECT_EQ(Cycle.MutatorsStopped, 1u);
  Stop.store(true, std::memory_order_release);
  Worker.join();
  GC.removeObserver(Id);
  GcHandshakeStats H = GC.handshakeStats();
  EXPECT_GE(H.WarnRungs, 1u);
  EXPECT_GE(H.SignalRungs, 1u);
  EXPECT_GE(H.SignalSuspensions, 1u);
  EXPECT_EQ(H.HandshakeTimeouts, 0u);
  bool SawStallWarning = false;
  for (const std::string &W : Recorder.Warnings)
    if (W.find("stop-the-world") != std::string::npos)
      SawStallWarning = true;
  EXPECT_TRUE(SawStallWarning)
      << "the warn rung must name the stalled handshake";
}

// A signal-suspended mutator may be frozen anywhere — including inside
// the lock-free cache fast path — so the collector must not take its
// owned blocks back: they stay owned and unswept for the cycle, the
// exact ledger check stands down, and after resume the owner keeps
// allocating from and freeing into the very same blocks.  The next
// cooperative handshake returns everything, folds exact counts, and
// sweeps the garbage the kept block held.
TEST(SignalSuspend, SuspendedThreadCacheIsPinnedNotFlushed) {
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 400; // Signal rung at 200 ms.
  Collector GC(Config);
  std::atomic<bool> Wedged{false};
  std::atomic<bool> Resume{false};
  std::atomic<bool> AllocsDone{false};
  std::atomic<bool> Quit{false};
  std::atomic<bool> PostResumeOk{false};
  std::atomic<unsigned> HiddenSurvived{0};
  std::atomic<uint64_t> Allocs{0}, Frees{0};
  // Objects no root reaches, their addresses kept inverted in malloc
  // memory the collector does not scan.
  constexpr unsigned NumHidden = 16;
  std::vector<uintptr_t> Hidden;
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    // The first small allocation creates the 48-byte class block and
    // checks it out to this thread, which still owns it when the
    // suspend signal lands.
    void *P = GC.allocate(48);
    ASSERT_NE(P, nullptr);
    for (unsigned I = 0; I != NumHidden; ++I)
      Hidden.push_back(~reinterpret_cast<uintptr_t>(GC.allocate(48)));
    Wedged.store(true, std::memory_order_release);
    while (!Resume.load(std::memory_order_acquire)) {
    }
    // The stopped-world sweep skipped the kept block, so its garbage is
    // still allocated.
    unsigned Survived = 0;
    for (uintptr_t H : Hidden)
      Survived += GC.isAllocated(reinterpret_cast<void *>(~H)) ? 1 : 0;
    HiddenSurvived.store(Survived, std::memory_order_relaxed);
    // Keep allocating from and freeing into the kept block, leaving
    // free slots for the cooperative return below.
    bool Ok = true;
    uint64_t A = 1 + NumHidden, F = 0;
    for (int I = 0; I != 40; ++I) {
      void *Q = GC.allocate(48);
      Ok = Ok && Q != nullptr;
      ++A;
      if (Q != nullptr && I % 2 == 0) {
        GC.deallocate(Q);
        ++F;
      }
    }
    Allocs.store(A, std::memory_order_relaxed);
    Frees.store(F, std::memory_order_relaxed);
    PostResumeOk.store(Ok, std::memory_order_release);
    AllocsDone.store(true, std::memory_order_release);
    while (!Quit.load(std::memory_order_acquire))
      GC.safepoint();
  });
  while (!Wedged.load(std::memory_order_acquire))
    std::this_thread::yield();
  CollectionStats Cycle = GC.collect("wedged-cache");
  EXPECT_EQ(Cycle.MutatorsStopped, 1u);
  EXPECT_EQ(Cycle.CacheSlotsFlushed, 0u)
      << "a suspended owner's cache must not be drained";
  EXPECT_EQ(Cycle.CacheBlocksKept, 1u)
      << "the skipped cache's block must stay owned";
  Resume.store(true, std::memory_order_release);
  while (!AllocsDone.load(std::memory_order_acquire))
    std::this_thread::yield();
  EXPECT_TRUE(PostResumeOk.load(std::memory_order_acquire));
  EXPECT_EQ(HiddenSurvived.load(), NumHidden)
      << "a suspended owner's block must not be swept";
  GcHandshakeStats H = GC.handshakeStats();
  EXPECT_GE(H.SignalSuspensions, 1u);
  EXPECT_EQ(H.HandshakeTimeouts, 0u);
  // Cooperative handshake with the worker polling: every cache drains,
  // the exact ledger check (a CGC_CHECK) runs and passes, and the
  // heap's counts equal what the worker did.
  CollectionStats Clean = GC.collect("cooperative-after");
  EXPECT_EQ(Clean.CacheBlocksKept, 0u);
  EXPECT_GT(Clean.CacheSlotsFlushed, 0u);
  EXPECT_EQ(GC.objectHeap().ownedBlockCount(), 0u);
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, Allocs.load());
  EXPECT_EQ(GC.heapStats().ExplicitFrees, Frees.load());
  // The hidden objects really were garbage: this sweep reclaims them
  // (all but any the worker's stack or registers still hold a copy of).
  unsigned Reclaimed = 0;
  for (uintptr_t H : Hidden)
    Reclaimed += GC.isAllocated(reinterpret_cast<void *>(~H)) ? 0 : 1;
  EXPECT_GE(Reclaimed, NumHidden / 2);
  Quit.store(true, std::memory_order_release);
  Worker.join();
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// A block its suspended owner keeps through a collection is neither
// swept nor left pending, but the mark loop set marks in it.  The next
// root scan must still begin from clear marks: a stale mark would settle
// its object as already traced, and an object only it reaches would be
// swept while live.
TEST(SignalSuspend, KeptBlockLeavesNoStaleMark) {
  struct MarkCheck : GcObserver {
    Collector *GC = nullptr;
    unsigned Checked = 0, Dirty = 0;
    void onPhaseBegin(GcPhase Phase) override {
      if (Phase != GcPhase::RootScan)
        return;
      ++Checked;
      if (!GC->objectHeap().verifyMarksClear().clean())
        ++Dirty;
    }
  } Check;
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 400; // Signal rung at 200 ms.
  Collector GC(Config);
  Check.GC = &GC;
  GcObserverId CheckId = GC.addObserver(&Check);
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "parent");
  std::atomic<bool> Wedged{false}, Resume{false}, Quit{false};
  std::atomic<uintptr_t> HiddenChild{0};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    // Both objects come from the block this thread checks out and
    // still owns when the suspend signal lands.
    auto *Parent = static_cast<void **>(GC.allocate(48));
    ASSERT_NE(Parent, nullptr);
    Parent[0] = GC.allocate(48);
    HiddenChild.store(~reinterpret_cast<uintptr_t>(Parent[0]));
    Root = reinterpret_cast<uint64_t>(Parent);
    Wedged.store(true, std::memory_order_release);
    while (!Resume.load(std::memory_order_acquire)) {
    }
    while (!Quit.load(std::memory_order_acquire))
      GC.safepoint();
  });
  while (!Wedged.load(std::memory_order_acquire))
    std::this_thread::yield();
  void *Parent = reinterpret_cast<void *>(Root);
  CollectionStats Kept = GC.collect("wedged-cache");
  EXPECT_EQ(Kept.CacheBlocksKept, 1u);
  EXPECT_TRUE(GC.wasMarkedLive(Parent));
  EXPECT_EQ(GC.objectHeap().pendingBlockCount(), 0u)
      << "a kept block is never left pending";
  Resume.store(true, std::memory_order_release);
  CollectionStats After = GC.collect("cooperative-after");
  EXPECT_EQ(After.CacheBlocksKept, 0u);
  EXPECT_EQ(Check.Checked, 2u);
  EXPECT_EQ(Check.Dirty, 0u) << "a mark outlived its cycle";
  EXPECT_TRUE(GC.isAllocated(reinterpret_cast<void *>(~HiddenChild.load())))
      << "an object reached through a kept block was swept";
  Quit.store(true, std::memory_order_release);
  Worker.join();
  EXPECT_TRUE(GC.verifyHeapReport().clean()) << GC.verifyHeapReport().str();
  GC.removeObserver(CheckId);
}

// The heap-lock fast path and the notify-only-when-stopping blocked
// path must never lose a wakeup: four threads hammer locked paths
// (uncached allocations, foreign-pointer frees, locked frees) while
// another thread collects in a loop with no watchdog to rescue a
// stalled handshake.  Finishing is the assertion.
TEST(StopWorld, LockedPathsUnderCollectLoopLoseNoWakeup) {
  GcConfig Config = testConfig();
  Config.ThreadCaches = false; // Every allocation takes the heap lock.
  Config.HandshakeDeadlineMs = 0;
  Collector GC(Config);
  constexpr int Workers = 4;
  std::atomic<int> Ready{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Workers; ++T)
    Threads.emplace_back([&] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
      Ready.fetch_add(1);
      uint64_t Foreign = 0;
      while (!Stop.load(std::memory_order_acquire)) {
        void *P = GC.allocate(64);
        ASSERT_NE(P, nullptr);
        GC.deallocate(&Foreign);
        GC.deallocate(P);
      }
    });
  while (Ready.load() != Workers)
    std::this_thread::yield();
  std::thread Collecting([&] {
    for (int I = 0; I != 300; ++I) {
      CollectionStats Cycle = GC.collect("lock-stress");
      EXPECT_EQ(Cycle.MutatorsStopped, uint64_t(Workers));
    }
  });
  Collecting.join();
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(GC.handshakeStats().Handshakes, 300u);
}

// With the signal fallback disabled, a wedged mutator exhausts the full
// deadline: the collection is abandoned with a structured incident
// carrying a per-thread trace, and allocation degrades to heap growth
// instead of hanging or crashing.
TEST(StopWorld, FinalTimeoutRaisesIncidentAndDegrades) {
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 150;
  Config.SuspendSignal = -1; // No signal rung: force the final rung.
  Collector GC(Config);
  IncidentRecorder Recorder;
  GcObserverId Id = GC.addObserver(&Recorder);
  std::atomic<bool> Wedged{false};
  std::atomic<bool> Resume{false};
  std::thread Worker([&] { wedgedWorker(GC, Wedged, Resume); });
  while (!Wedged.load(std::memory_order_acquire))
    std::this_thread::yield();

  CollectionStats Abandoned = GC.collect("doomed");
  EXPECT_EQ(Abandoned.ObjectsMarked, 0u);
  EXPECT_EQ(Abandoned.MutatorsStopped, 0u);
  ASSERT_EQ(Recorder.Causes.size(), 1u);
  EXPECT_EQ(Recorder.Causes[0], GcIncidentCause::HandshakeTimeout);
  ASSERT_EQ(Recorder.LastTrace.size(), 1u);
  EXPECT_EQ(Recorder.LastTrace[0].State, 0u) << "wedged thread is Running";
  EXPECT_EQ(Recorder.LastTrace[0].SignalAttempts, 0u);
  EXPECT_FALSE(Recorder.LastTrace[0].SignalSuspended);
  EXPECT_EQ(GC.handshakeStats().HandshakeTimeouts, 1u);
  // The crash ring records the incident too.
  EXPECT_EQ(ringIncidents(GC), 1u);

  // The world was resumed and the collector still serves allocations.
  void *P = GC.allocate(128);
  EXPECT_NE(P, nullptr);

  // A liveness census meets the same wedge and is abandoned the same
  // way: an empty census, its own incident, and a resumed world.
  CollectionStats Census = GC.measureLiveness();
  EXPECT_EQ(Census.ObjectsMarked, 0u);
  EXPECT_EQ(Census.MutatorsStopped, 0u);
  ASSERT_EQ(Recorder.Causes.size(), 2u);
  EXPECT_EQ(Recorder.Causes[1], GcIncidentCause::HandshakeTimeout);
  EXPECT_EQ(GC.handshakeStats().HandshakeTimeouts, 2u);
  EXPECT_EQ(ringIncidents(GC), 2u);
  EXPECT_NE(GC.allocate(128), nullptr);

  Resume.store(true, std::memory_order_release);
  Worker.join();
  GC.removeObserver(Id);
  // With the wedge gone, the next handshake completes normally.
  CollectionStats Healthy = GC.collect("recovered");
  EXPECT_EQ(Healthy.MutatorsStopped, 0u);
  EXPECT_EQ(GC.handshakeStats().HandshakeTimeouts, 2u);
}

// The crash handlers must run with the reserved suspend/resume signals
// masked, so a crash dump can never be interleaved with a suspension.
TEST(SignalSuspend, CrashHandlerMasksReservedSignal) {
  crash::install();
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 1000;
  Collector GC(Config);
  int Sig = suspend::resolveSuspendSignal(0);
  ASSERT_GT(Sig, 0);
  struct sigaction Current;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &Current), 0);
  EXPECT_EQ(sigismember(&Current.sa_mask, Sig), 1)
      << "suspend signal not masked during crash dumps";
  EXPECT_EQ(sigismember(&Current.sa_mask, Sig + 1), 1)
      << "resume signal not masked during crash dumps";
  ASSERT_EQ(::sigaction(SIGABRT, nullptr, &Current), 0);
  EXPECT_EQ(sigismember(&Current.sa_mask, Sig), 1);
}

// pthread_atfork: a child forked while a second mutator is registered
// rebuilds the registry around the surviving thread and can allocate
// and collect immediately.
TEST(StopWorld, ForkChildCollects) {
  GcConfig Config = testConfig();
  Config.HandshakeDeadlineMs = 1000;
  Collector GC(Config);
  std::atomic<bool> Ready{false};
  std::atomic<bool> Release{false};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    void *P = GC.allocate(64);
    ASSERT_NE(P, nullptr);
    Ready.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      GC.safepoint();
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();

  {
    GcThreadScope SelfScope(GC);
    ASSERT_TRUE(SelfScope.registered());
    pid_t Child = ::fork();
    ASSERT_GE(Child, 0);
    if (Child == 0) {
      // Child: only the forking thread survives; gtest machinery is
      // off-limits, so report through the exit code.
      if (GC.threadRegistry().registeredCount() != 1)
        ::_exit(2);
      void *P = GC.allocate(256);
      if (!P)
        ::_exit(3);
      CollectionStats Cycle = GC.collect("in-child");
      if (Cycle.MutatorsStopped != 0)
        ::_exit(4);
      if (!GC.allocate(256))
        ::_exit(5);
      ::_exit(0);
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
    ASSERT_TRUE(WIFEXITED(Status)) << "child crashed";
    EXPECT_EQ(WEXITSTATUS(Status), 0);
  }

  // Parent: locks were reacquired-and-released around the fork; the
  // worker keeps running and the next handshake is ordinary.
  CollectionStats Cycle = GC.collect("after-fork");
  EXPECT_EQ(Cycle.MutatorsStopped, 1u);
  Release.store(true, std::memory_order_release);
  Worker.join();
}
