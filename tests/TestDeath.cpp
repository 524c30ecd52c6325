//===- tests/TestDeath.cpp - Fatal-error contract tests -------------------===//
//
// The collector treats invariant violations as fatal (heap corruption
// would follow); these tests pin down the contracts that abort with a
// diagnostic rather than corrupting silently.
//
//===----------------------------------------------------------------------===//

#include "baseline/ExplicitHeap.h"
#include "core/Collector.h"
#include "heap/PageAllocator.h"
#include "support/CrashReporter.h"
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

using namespace cgc;

namespace {

GcConfig deathConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(128) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 16 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

GcConfig guardedDeathConfig() {
  GcConfig Config = deathConfig();
  Config.DebugGuards = true;
  return Config;
}

} // namespace

using DeathTest = ::testing::Test;

// A bad explicit free is only fatal in guarded mode; the unguarded
// collector warns and ignores it (see TestGuardedHeap for that side of
// the contract).

TEST(DeathTest, GuardedDoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(guardedDeathConfig());
  void *P = GC.allocate(32);
  GC.deallocate(P);
  EXPECT_DEATH(GC.deallocate(P), "double free");
}

TEST(DeathTest, GuardedFreeingNonHeapPointerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(guardedDeathConfig());
  int Local = 0;
  EXPECT_DEATH(GC.deallocate(&Local), "free of a non-heap pointer");
}

TEST(DeathTest, GuardedFreeingInteriorPointerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(guardedDeathConfig());
  auto *P = static_cast<char *>(GC.allocate(64));
  EXPECT_DEATH(GC.deallocate(P + 8), "free of a non-object pointer");
}

TEST(DeathTest, GuardedHeaderSmashAbortsAtCollection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(guardedDeathConfig());
  auto *P = static_cast<char *>(GC.allocate(48));
  // The word just below the user pointer is the guard header.
  std::memset(P - 8, 0xAB, 8);
  EXPECT_DEATH(GC.collect("smash"), "guard header smash");
}

TEST(DeathTest, GuardedRedzoneSmashAbortsAtCollection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(guardedDeathConfig());
  auto *P = static_cast<char *>(GC.allocate(48));
  P[48] = 0x7F; // One byte past the requested size: the redzone.
  EXPECT_DEATH(GC.collect("smash"), "guard redzone smash");
}

TEST(DeathTest, GuardedUseAfterFreeInQuarantineAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(guardedDeathConfig());
  auto *P = static_cast<char *>(GC.allocate(48));
  GC.deallocate(P);
  P[4] = 1; // Dangling write into the poisoned, quarantined slot.
  EXPECT_DEATH(GC.flushQuarantine(), "use-after-free");
}

TEST(DeathTest, HeapArenaMustFitWindow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  GcConfig Config = deathConfig();
  Config.WindowBytes = 32 << 20;
  Config.CustomHeapBaseOffset = 30 << 20;
  Config.MaxHeapBytes = 16 << 20; // 30 + 16 > 32 MiB.
  EXPECT_DEATH({ Collector GC(Config); }, "does not fit the window");
}

TEST(DeathTest, FinalizerOnNonObjectAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(deathConfig());
  void *P = GC.allocate(16);
  GC.deallocate(P);
  EXPECT_DEATH(GC.registerFinalizer(P, [](void *) {}),
               "finalizer on a non-object");
}

namespace {

/// Aborts the process at the start of the next Mark phase, simulating
/// a crash mid-collection.
class AbortInMark final : public GcObserver {
public:
  void onPhaseBegin(GcPhase Phase) override {
    if (Armed && Phase == GcPhase::Mark)
      std::abort();
  }
  bool Armed = false;
};

} // namespace

TEST(DeathTest, CrashMidMarkReportsCurrentPhase) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(deathConfig());
  crash::install();
  AbortInMark Bomb;
  GC.addObserver(&Bomb);
  // Earlier collections populate the event ring the report must show.
  GC.collect("warmup");
  GC.collect("warmup");
  Bomb.Armed = true;
  EXPECT_DEATH(GC.collect("boom"), "phase=mark");
}

TEST(DeathTest, CrashReportContainsEventRingLines) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Collector GC(deathConfig());
  crash::install();
  AbortInMark Bomb;
  GC.addObserver(&Bomb);
  GC.collect("warmup");
  GC.collect("warmup");
  Bomb.Armed = true;
  // The SIGABRT report must carry the header, the resilience counters,
  // and the trailing GC-event ring (phase begin/end markers from the
  // warmup collections).
  EXPECT_DEATH(GC.collect("boom"), "=== cgc crash report \\(signal 6\\)");
  EXPECT_DEATH(GC.collect("boom"), "events \\(last");
  EXPECT_DEATH(GC.collect("boom"), "phase-begin phase=mark");
}

TEST(DeathTest, OnDemandCrashDumpListsLastEightEvents) {
  // Not a death test: cgc_dump_crash_report(fd) is the live post-mortem
  // entry point; a pipe stands in for the crash log.
  Collector GC(deathConfig());
  GC.collect("one");
  GC.collect("two");

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

  EXPECT_NE(Report.find("=== cgc crash report ==="), std::string::npos);
  EXPECT_NE(Report.find("phase=none"), std::string::npos)
      << "no collection is running, so the phase must read none";
  EXPECT_NE(Report.find("resilience:"), std::string::npos);
  EXPECT_NE(Report.find("collection-end"), std::string::npos);

  // The acceptance bar: at least the last 8 GC events are listed (two
  // full collections emit 12 each).
  size_t EventLines = 0;
  for (size_t At = Report.find("\n    ["); At != std::string::npos;
       At = Report.find("\n    [", At + 1))
    ++EventLines;
  EXPECT_GE(EventLines, 8u);
}

TEST(DeathTest, BaselineDoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  baseline::ExplicitHeap Heap(8 << 20);
  void *P = Heap.malloc(32);
  void *Hold = Heap.malloc(32); // Keep P out of the wilderness.
  (void)Hold;
  Heap.free(P);
  EXPECT_DEATH(Heap.free(P), "double free");
}

TEST(DeathTest, PageRunDoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualArena Arena(16 << 20);
  PageAllocator Pages(Arena, /*BasePage=*/16, /*MaxPages=*/256,
                      /*GrowthPages=*/32);
  auto A = Pages.allocateRun(4, PageConstraint::None);
  auto B = Pages.allocateRun(4, PageConstraint::None);
  ASSERT_TRUE(A && B);
  Pages.freeRun(*B, 4);
  EXPECT_DEATH(Pages.freeRun(*B, 4), "double free of a page run");
  // A run that only overlaps a free run's first page is a double free
  // too.
  EXPECT_DEATH(Pages.freeRun(*A + 1, 4), "double free of a page run");
  EXPECT_DEATH(Pages.freeRun(*A, 300), "outside the heap arena");
}
