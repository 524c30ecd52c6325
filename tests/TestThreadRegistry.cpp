//===- tests/TestThreadRegistry.cpp - Mutator threads and handshake -------===//
//
// The thread-aware collector core: registration churn, the cooperative
// stop-the-world handshake under concurrent allocation, the sticky
// threaded-mode flag's bit-identical sequential behavior, parallel
// root scanning, and thread state in the crash report.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "support/CrashReporter.h"
#include "support/Random.h"
#include <atomic>
#include <gtest/gtest.h>
#include <string>
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

} // namespace

TEST(ThreadRegistry, RegisterUnregisterChurn) {
  Collector GC(testConfig());
  std::vector<std::thread> Workers;
  for (int T = 0; T != 4; ++T)
    Workers.emplace_back([&GC] {
      for (int Round = 0; Round != 25; ++Round) {
        GcThreadScope Scope(GC);
        ASSERT_TRUE(Scope.registered());
        void *P = GC.allocate(64);
        ASSERT_NE(P, nullptr);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(GC.threadRegistry().registeredCount(), 0u);
  EXPECT_EQ(GC.threadRegistry().lifetimeRegistrations(), 100u);
  // No registered threads left: collection must not wait on anyone.
  CollectionStats Cycle = GC.collect("after-churn");
  EXPECT_EQ(Cycle.MutatorsStopped, 0u);
}

namespace {
/// Checks, in the calling frame, the stack base registration falls back
/// to when the platform exposes no stack extent.
void expectFallbackBoundsThisFrame() {
  volatile char Local = 0;
  const void *Base = ThreadRegistry::callerFrameBase();
  ASSERT_NE(Base, nullptr);
  EXPECT_GT(reinterpret_cast<uintptr_t>(Base),
            reinterpret_cast<uintptr_t>(&Local))
      << "a local of the registering frame lies above the stack base";
  // A real address on this thread's stack, not a stale or folded one.
  if (const void *Top = ThreadRegistry::pthreadStackBase()) {
    EXPECT_LE(reinterpret_cast<uintptr_t>(Base),
              reinterpret_cast<uintptr_t>(Top));
  }
}
} // namespace

TEST(ThreadRegistry, FallbackStackBaseBoundsTheCallersFrame) {
  expectFallbackBoundsThisFrame();
  std::thread Worker(expectFallbackBoundsThisFrame);
  Worker.join();
}

TEST(ThreadRegistry, RegistrationHonorsMutatorThreadsCap) {
  GcConfig Config = testConfig();
  Config.MutatorThreads = 2;
  Collector GC(Config);
  std::atomic<unsigned> Succeeded{0};
  std::atomic<unsigned> Attempted{0};
  std::atomic<bool> Release{false};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 3; ++T)
    Workers.emplace_back([&] {
      bool Registered = GC.registerMutatorThread();
      if (Registered)
        Succeeded.fetch_add(1);
      Attempted.fetch_add(1);
      while (!Release.load())
        std::this_thread::yield();
      if (Registered)
        GC.unregisterMutatorThread();
    });
  // All three must have tried while the winners still hold their slots,
  // so exactly one attempt is refused by the cap.
  while (Attempted.load() != 3)
    std::this_thread::yield();
  Release.store(true);
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Succeeded.load(), 2u);
  EXPECT_EQ(GC.threadRegistry().registeredCount(), 0u);
}

// The handshake: a collection from one thread rendezvouses every other
// registered mutator, and rooted objects owned by those mutators (via
// their conservatively scanned stacks) survive it.
TEST(ThreadRegistry, HandshakeStopsConcurrentAllocators) {
  Collector GC(testConfig());
  constexpr int NumWorkers = 3;
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != NumWorkers; ++T)
    Workers.emplace_back([&GC, &Stop, &Ready, T] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
      // Stack-local pointer window: covered by this thread's published
      // [StackTop, StackBase) range at every park.
      uint64_t *Keep[16] = {nullptr};
      Ready.fetch_add(1);
      uint64_t Tag = uint64_t(T) << 32;
      for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I) {
        auto *Obj = static_cast<uint64_t *>(GC.allocate(48));
        ASSERT_NE(Obj, nullptr);
        *Obj = Tag | (I & 0xffffffff);
        uint64_t *Old = Keep[I % 16];
        if (Old) {
          EXPECT_EQ(*Old & ~uint64_t(0xffffffff), Tag)
              << "a rooted object was reclaimed or clobbered";
        }
        Keep[I % 16] = Obj;
        GC.safepoint();
      }
    });
  while (Ready.load() != NumWorkers)
    std::this_thread::yield();

  uint64_t StoppedTotal = 0;
  for (int Round = 0; Round != 10; ++Round) {
    CollectionStats Cycle = GC.collect("handshake");
    EXPECT_EQ(Cycle.MutatorsStopped, uint64_t(NumWorkers));
    StoppedTotal += Cycle.MutatorsStopped;
  }
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(StoppedTotal, uint64_t(10 * NumWorkers));
  EXPECT_GE(GC.handshakeStats().Handshakes, 10u);
  GC.verifyHeap();
}

// A registered thread may trigger the collection itself: its own stack
// and registers are scanned from the collect() frame, everyone else
// parks.
TEST(ThreadRegistry, SelfCollectScansOwnStack) {
  Collector GC(testConfig());
  std::thread Worker([&GC] {
    GcThreadScope Scope(GC);
    uint64_t *Keep[8] = {nullptr};
    for (int I = 0; I != 8; ++I) {
      Keep[I] = static_cast<uint64_t *>(GC.allocate(64));
      *Keep[I] = 0xfeedULL + I;
    }
    CollectionStats Cycle = GC.collect("self");
    EXPECT_EQ(Cycle.MutatorsStopped, 0u); // No *other* mutators.
    EXPECT_GE(Cycle.ObjectsLive, 8u) << "self stack roots must retain";
    for (int I = 0; I != 8; ++I)
      EXPECT_EQ(*Keep[I], 0xfeedULL + I);
  });
  Worker.join();
}

// The sticky threaded-mode flag must not perturb the sequential
// collector: a collector that saw one (idle) registration runs the
// same workload bit-identically to one that never did — same window
// offsets for every allocation, same census counters.
TEST(ThreadRegistry, ZeroRegisteredThreadsBitIdenticalToSequential) {
  auto runWorkload = [](bool TouchThreadedMode) {
    Collector GC(testConfig());
    if (TouchThreadedMode) {
      std::thread([&GC] {
        GcThreadScope Scope(GC);
        ASSERT_TRUE(Scope.registered());
      }).join();
      EXPECT_EQ(GC.threadRegistry().registeredCount(), 0u);
    }
    Rng R(4242);
    std::vector<uint64_t> Window(128, 0);
    GC.addRootRange(Window.data(), Window.data() + Window.size(),
                    RootEncoding::Native64, RootSource::Client, "window");
    std::vector<uint64_t> Trace;
    for (int Step = 0; Step != 2000; ++Step) {
      void *P = GC.allocate(R.nextInRange(8, 256));
      Trace.push_back(GC.windowOffsetOf(P));
      if (R.nextBool(0.5))
        Window[R.pickIndex(Window.size())] =
            reinterpret_cast<uint64_t>(P);
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
    return Trace;
  };
  EXPECT_EQ(runWorkload(false), runWorkload(true))
      << "sticky threaded mode must be invisible with no registered "
         "threads";
}

// Many root ranges seed the mark stack from many spans: every span is
// scanned whole, and a repeat collection of the unchanged heap marks,
// counts and blacklists exactly the same.  The test id predates the
// deletion of the parallel marker, when the census also ran at 4 and 8
// mark workers; it is kept so ids stay stable.
TEST(ThreadRegistry, ManyRootRangesBitIdenticalAcrossMarkThreads) {
  Collector GC(testConfig());
  Rng R(5555);
  // Several root ranges, each holding roots and near misses.
  std::vector<std::vector<uint64_t>> Windows(6, std::vector<uint64_t>(64, 0));
  for (auto &W : Windows)
    GC.addRootRange(W.data(), W.data() + W.size(), RootEncoding::Native64,
                    RootSource::Client, "window");
  for (int Step = 0; Step != 3000; ++Step) {
    void *P = GC.allocate(R.nextInRange(8, 512));
    if (R.nextBool(0.6)) {
      auto &W = Windows[R.pickIndex(Windows.size())];
      W[R.pickIndex(W.size())] = reinterpret_cast<uint64_t>(P);
    } else if (R.nextBool(0.3)) {
      // Plant a near miss: one byte past the object.
      auto &W = Windows[R.pickIndex(Windows.size())];
      W[R.pickIndex(W.size())] =
          reinterpret_cast<uint64_t>(P) + R.nextInRange(513, 4096);
    }
  }
  auto census = [&GC] {
    CollectionStats Cycle = GC.collect("census");
    return std::vector<uint64_t>{
        Cycle.ObjectsMarked,    Cycle.BytesMarked,
        Cycle.RootHits,         Cycle.RootCandidatesExamined,
        Cycle.RootBytesScanned, Cycle.NearMisses,
        Cycle.BlacklistedPages, Cycle.BytesLive};
  };
  std::vector<uint64_t> First = census();
  EXPECT_EQ(First[4], 6u * 64 * sizeof(uint64_t)) << "every span scanned";
  EXPECT_GT(First[2], 0u) << "roots hit";
  EXPECT_GT(First[5], 0u) << "planted near misses seen";
  EXPECT_EQ(census(), First);
}

// The async-signal-safe crash report gains a threads line exactly when
// thread state exists; the single-mutator report stays byte-identical.
TEST(ThreadRegistry, CrashReportShowsThreadState) {
  Collector GC(testConfig());
  std::atomic<bool> Release{false};
  std::atomic<bool> Ready{false};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    Ready.store(true);
    while (!Release.load())
      std::this_thread::yield();
  });
  while (!Ready.load())
    std::this_thread::yield();

  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  crash::dump(Fds[1]);
  ::close(Fds[1]);
  std::string Report;
  char Buffer[4096];
  ssize_t N;
  while ((N = ::read(Fds[0], Buffer, sizeof(Buffer))) > 0)
    Report.append(Buffer, static_cast<size_t>(N));
  ::close(Fds[0]);

  EXPECT_NE(Report.find("threads: registered=1"), std::string::npos)
      << Report;
  Release.store(true);
  Worker.join();
}

TEST(ThreadRegistry, ReportPrintsMutatorLine) {
  Collector GC(testConfig());
  std::thread([&GC] { GcThreadScope Scope(GC); }).join();
  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  ASSERT_NE(Stream, nullptr);
  GC.printReport(Stream);
  std::fclose(Stream);
  std::string Text(Buffer, Size);
  free(Buffer);
  EXPECT_NE(Text.find("mutators"), std::string::npos);
  EXPECT_NE(Text.find("1 over"), std::string::npos) << Text;
}
