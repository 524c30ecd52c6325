//===- tests/TestRedirect.cpp - Malloc redirection layer tests -----------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Exercises the cgc_redirect_* implementation directly — no symbol
// interposition (this binary links plain lib cgc, so ::malloc is still
// libc).  That split is deliberate: libc pointers double as "foreign"
// pointers for the hostile-input paths, and the interposers themselves
// are just one-line shims over these functions (covered by the CI lane
// that runs a ctest binary under LD_PRELOAD).
//
// The redirect layer is process-global state; tests share one
// installed instance and the init-failure test (which tears it down)
// runs last in this file.
//
//===----------------------------------------------------------------------===//

#include "baseline/ExplicitHeap.h"
#include "capi/cgc.h"
#include "redirect/Redirect.h"
#include "redirect/TraceLog.h"
#include "redirect/TraceReplay.h"
#include "redirect/TraceScenarios.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

cgc_redirect_stats statsNow() {
  cgc_redirect_stats Stats;
  cgc_redirect_get_stats(&Stats);
  return Stats;
}

TEST(Redirect, ConcurrentFirstCallsInstallExactlyOnce) {
  // Exercises the lazy-install CAS from many threads at once: every
  // racer's first malloc may win StUninit->StBooting, and exactly one
  // may run the installer (a double install placement-news MutableState
  // over a live mutex and races two cgc_create calls).  Meaningful
  // because this test owns its process: gtest_discover_tests runs each
  // test as its own ctest invocation, and in a direct ./cgc_tests run
  // this test is declared first in the suite.
  std::atomic<int> Go{0};
  std::vector<void *> Results(8, nullptr);
  std::vector<std::thread> Racers;
  for (int T = 0; T != 8; ++T)
    Racers.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire)) {
      }
      // CAS losers are served by the bootstrap buffer mid-install;
      // everyone gets memory, nobody installs twice.
      Results[static_cast<size_t>(T)] =
          cgc_redirect_malloc(static_cast<size_t>(64 + T));
    });
  Go.store(1, std::memory_order_release);
  for (std::thread &Racer : Racers)
    Racer.join();
  for (void *Ptr : Results)
    EXPECT_NE(Ptr, nullptr);
  EXPECT_EQ(cgc_redirect_install(), 1);
  EXPECT_EQ(cgc_redirect_active(), 1);
  ASSERT_NE(cgc_redirect_collector(), nullptr);
  // A racer may have been served by libc (the Libc route while the
  // winner installs); cgc_redirect_free hands those back to libc, so
  // none is left for the leak checker, and drops bootstrap chunks.
  for (void *Ptr : Results)
    cgc_redirect_free(Ptr);
}

TEST(Redirect, InstallIsIdempotentAndActivates) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  EXPECT_EQ(cgc_redirect_install(), 1);
  EXPECT_EQ(cgc_redirect_active(), 1);
  EXPECT_NE(cgc_redirect_collector(), nullptr);
  cgc_redirect_stats Stats = statsNow();
  EXPECT_EQ(Stats.active, 1);
  EXPECT_EQ(Stats.fallback, 0);
}

TEST(Redirect, MallocFreeRoundTrip) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  cgc_redirect_stats Before = statsNow();

  void *Ptr = cgc_redirect_malloc(100);
  ASSERT_NE(Ptr, nullptr);
  // The x86-64 malloc contract: 16-byte alignment.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Ptr) & 15u, 0u);
  std::memset(Ptr, 0xab, 100);
  EXPECT_GE(cgc_redirect_malloc_usable_size(Ptr), 100u);
  // The pointer belongs to the redirect collector, not libc.
  EXPECT_TRUE(cgc_is_heap_ptr(cgc_redirect_collector(), Ptr));
  cgc_redirect_free(Ptr);

  cgc_redirect_stats After = statsNow();
  EXPECT_GE(After.gc_allocs, Before.gc_allocs + 1);
  EXPECT_GE(After.gc_frees, Before.gc_frees + 1);

  // Zero-byte malloc returns a unique, freeable pointer.
  void *Zero = cgc_redirect_malloc(0);
  ASSERT_NE(Zero, nullptr);
  cgc_redirect_free(Zero);
}

TEST(Redirect, CallocZeroesAndChecksOverflow) {
  ASSERT_EQ(cgc_redirect_install(), 1);

  int *Array = static_cast<int *>(cgc_redirect_calloc(256, sizeof(int)));
  ASSERT_NE(Array, nullptr);
  for (int I = 0; I != 256; ++I)
    EXPECT_EQ(Array[I], 0);
  cgc_redirect_free(Array);

  cgc_redirect_stats Before = statsNow();
  errno = 0;
  void *Overflow = cgc_redirect_calloc(SIZE_MAX / 8, 16);
  EXPECT_EQ(Overflow, nullptr);
  EXPECT_EQ(errno, ENOMEM);
  cgc_redirect_stats After = statsNow();
  EXPECT_EQ(After.calloc_overflows, Before.calloc_overflows + 1);
  EXPECT_GE(After.failed_allocs, Before.failed_allocs + 1);
}

TEST(Redirect, ReallocFollowsGlibcSemantics) {
  ASSERT_EQ(cgc_redirect_install(), 1);

  // realloc(NULL, n) is malloc.
  char *P = static_cast<char *>(cgc_redirect_realloc(nullptr, 32));
  ASSERT_NE(P, nullptr);
  std::strcpy(P, "space efficient");

  // Growth preserves contents.
  P = static_cast<char *>(cgc_redirect_realloc(P, 4096));
  ASSERT_NE(P, nullptr);
  EXPECT_STREQ(P, "space efficient");

  // Shrink keeps the prefix.
  P = static_cast<char *>(cgc_redirect_realloc(P, 16));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(std::memcmp(P, "space efficient", 15), 0);

  // realloc(p, 0) frees and returns NULL.
  EXPECT_EQ(cgc_redirect_realloc(P, 0), nullptr);
}

struct IncidentCapture {
  int Cause = -1;
  unsigned long long Count = 0;
};

void captureIncident(int Cause, unsigned long long, unsigned,
                     unsigned long long, void *ClientData) {
  auto *Capture = static_cast<IncidentCapture *>(ClientData);
  Capture->Cause = Cause;
  ++Capture->Count;
}

TEST(Redirect, ForeignFreeRaisesIncidentInWarnMode) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  cgc_collector *GC = cgc_redirect_collector();
  ASSERT_NE(GC, nullptr);

  IncidentCapture Capture;
  cgc_set_incident_callback(GC, captureIncident, &Capture);
  cgc_redirect_set_foreign_free_mode(CGC_FOREIGN_FREE_WARN);

  // A libc pointer is "foreign" to the redirect collector; in warn
  // mode the free is refused, so the chunk is still valid afterwards.
  char *Foreign = static_cast<char *>(::malloc(64));
  ASSERT_NE(Foreign, nullptr);
  std::strcpy(Foreign, "still mine");
  cgc_redirect_stats Before = statsNow();
  cgc_redirect_free(Foreign);
  cgc_redirect_stats After = statsNow();
  EXPECT_EQ(After.foreign_frees, Before.foreign_frees + 1);
  EXPECT_EQ(Capture.Cause, CGC_INCIDENT_FOREIGN_FREE);
  EXPECT_EQ(Capture.Count, 1ull);
  EXPECT_STREQ(Foreign, "still mine");
  ::free(Foreign);

  // Stack addresses are foreign too — the classic hostile free.
  char StackBuffer[32];
  StackBuffer[0] = 'x';
  cgc_redirect_free(StackBuffer);
  EXPECT_EQ(statsNow().foreign_frees, After.foreign_frees + 1);
  EXPECT_EQ(Capture.Count, 2ull);

  // Foreign realloc in warn mode refuses and leaves the block alone.
  char *ForeignRealloc = static_cast<char *>(::malloc(32));
  ASSERT_NE(ForeignRealloc, nullptr);
  std::strcpy(ForeignRealloc, "untouched");
  errno = 0;
  EXPECT_EQ(cgc_redirect_realloc(ForeignRealloc, 128), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  EXPECT_STREQ(ForeignRealloc, "untouched");
  ::free(ForeignRealloc);

  cgc_redirect_set_foreign_free_mode(CGC_FOREIGN_FREE_PASSTHROUGH);
  cgc_set_incident_callback(GC, nullptr, nullptr);
}

TEST(Redirect, ForeignFreePassthroughReleasesLibcMemory) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  cgc_redirect_set_foreign_free_mode(CGC_FOREIGN_FREE_PASSTHROUGH);

  // In passthrough mode the foreign pointer is handed to the real
  // libc free — correct for memory libc handed out before takeover.
  void *Foreign = ::malloc(48);
  ASSERT_NE(Foreign, nullptr);
  cgc_redirect_stats Before = statsNow();
  cgc_redirect_free(Foreign); // actually freed; do not touch it again
  EXPECT_EQ(statsNow().foreign_frees, Before.foreign_frees + 1);

  // Foreign realloc passes through and stays usable.
  char *Grow = static_cast<char *>(::malloc(16));
  ASSERT_NE(Grow, nullptr);
  std::strcpy(Grow, "grow me");
  char *Grown = static_cast<char *>(cgc_redirect_realloc(Grow, 256));
  ASSERT_NE(Grown, nullptr);
  EXPECT_STREQ(Grown, "grow me");
  ::free(Grown);
}

TEST(Redirect, AlignedAllocationRoundTrip) {
  ASSERT_EQ(cgc_redirect_install(), 1);

  void *Ptr = nullptr;
  ASSERT_EQ(cgc_redirect_posix_memalign(&Ptr, 256, 1000), 0);
  ASSERT_NE(Ptr, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Ptr) & 255u, 0u);
  EXPECT_GE(cgc_redirect_malloc_usable_size(Ptr), 1000u);
  std::memset(Ptr, 0x5a, 1000);
  cgc_redirect_free(Ptr);

  // Small alignments ride the plain path (all GC pointers are
  // 16-aligned already).
  ASSERT_EQ(cgc_redirect_posix_memalign(&Ptr, 16, 64), 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Ptr) & 15u, 0u);
  cgc_redirect_free(Ptr);

  // Invalid alignments are EINVAL, not a crash.
  EXPECT_EQ(cgc_redirect_posix_memalign(&Ptr, 24, 64), EINVAL);
  EXPECT_EQ(cgc_redirect_posix_memalign(&Ptr, 0, 64), EINVAL);
  errno = 0;
  EXPECT_EQ(cgc_redirect_aligned_alloc(3, 64), nullptr);
  EXPECT_EQ(errno, EINVAL);

  void *A = cgc_redirect_aligned_alloc(128, 200);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(A) & 127u, 0u);
  cgc_redirect_free(A);

  // Realloc of an over-aligned pointer keeps the contents.
  ASSERT_EQ(cgc_redirect_posix_memalign(&Ptr, 512, 100), 0);
  std::memset(Ptr, 0x77, 100);
  char *Moved = static_cast<char *>(cgc_redirect_realloc(Ptr, 4096));
  ASSERT_NE(Moved, nullptr);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(static_cast<unsigned char>(Moved[I]), 0x77u);
  cgc_redirect_free(Moved);
}

TEST(Redirect, StrdupGoesThroughTheCollector) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  char *Dup = cgc_redirect_strdup("conservative collection");
  ASSERT_NE(Dup, nullptr);
  EXPECT_STREQ(Dup, "conservative collection");
  EXPECT_TRUE(cgc_is_heap_ptr(cgc_redirect_collector(), Dup));
  cgc_redirect_free(Dup);
  EXPECT_EQ(cgc_redirect_strdup(nullptr), nullptr);
}

TEST(Redirect, UnattachedThreadAutoRegistersOnFirstAllocation) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  cgc_redirect_stats Before = statsNow();
  std::thread Worker([] {
    // No explicit cgc_redirect_thread_attach: a thread that never
    // passed the pthread_create trampoline (created before install, or
    // while the redirect was inactive) must still be registered before
    // its first collector allocation — otherwise its stack is never
    // scanned and stop-the-world cannot park it.  Detach rides the
    // pthread key destructor at thread exit.
    void *Ptr = cgc_redirect_malloc(128);
    ASSERT_NE(Ptr, nullptr);
    std::memset(Ptr, 0x5a, 128);
    cgc_redirect_free(Ptr);
  });
  Worker.join();
  cgc_redirect_stats After = statsNow();
  EXPECT_GE(After.threads_attached, Before.threads_attached + 1);
}

TEST(Redirect, ReallocOfInteriorPointerClampsTheCopy) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  char *Base = static_cast<char *>(cgc_redirect_malloc(64));
  ASSERT_NE(Base, nullptr);
  for (int I = 0; I != 64; ++I)
    Base[I] = static_cast<char>('a' + I % 26);
  // Hostile input: realloc of a pointer 16 bytes into a live object.
  // cgc_is_heap_ptr accepts it (plain range check), so the GC path
  // must clamp the copy to the bytes that actually remain from the
  // interior pointer to the object's end — never cgc_size bytes, which
  // would read past the object (and possibly the committed arena
  // edge).  The old object's free degrades to an ignored-free incident
  // inside cgc_free, so Base stays intact for the comparison.
  char *Grown =
      static_cast<char *>(cgc_redirect_realloc(Base + 16, 4096));
  ASSERT_NE(Grown, nullptr);
  size_t Remaining = cgc_redirect_malloc_usable_size(Base) - 16;
  EXPECT_GE(Remaining, 48u);
  EXPECT_EQ(std::memcmp(Grown, Base + 16, 48), 0);
  cgc_redirect_free(Grown);
  cgc_redirect_free(Base);
}

TEST(Redirect, ThreadsAttachAndAllocate) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  cgc_redirect_stats Before = statsNow();
  std::thread Worker([] {
    cgc_redirect_thread_attach();
    cgc_redirect_thread_attach(); // idempotent
    for (int I = 0; I != 1000; ++I) {
      void *Ptr = cgc_redirect_malloc(64);
      ASSERT_NE(Ptr, nullptr);
      std::memset(Ptr, I & 0xff, 64);
      if (I % 2)
        cgc_redirect_free(Ptr);
    }
    cgc_redirect_thread_detach();
    cgc_redirect_thread_detach(); // tolerated
  });
  Worker.join();
  cgc_redirect_stats After = statsNow();
  EXPECT_GE(After.threads_attached, Before.threads_attached + 1);
  EXPECT_GE(After.gc_allocs, Before.gc_allocs + 1000);
}

TEST(Redirect, TraceRecordsReplayBitIdentically) {
  ASSERT_EQ(cgc_redirect_install(), 1);
  std::string Path =
      ::testing::TempDir() + "cgc_redirect_test.trace";
  ASSERT_EQ(cgc_redirect_trace_start(Path.c_str()), 1);

  // A deterministic little program through every traced entry point.
  std::vector<void *> Live;
  for (int I = 0; I != 64; ++I) {
    void *Ptr = cgc_redirect_malloc(static_cast<size_t>(16 + I * 8));
    ASSERT_NE(Ptr, nullptr);
    Live.push_back(Ptr);
  }
  void *Zeroed = cgc_redirect_calloc(32, 24);
  ASSERT_NE(Zeroed, nullptr);
  char *Dup = cgc_redirect_strdup("traced");
  ASSERT_NE(Dup, nullptr);
  void *Grown = cgc_redirect_realloc(Live[0], 2048);
  ASSERT_NE(Grown, nullptr);
  Live[0] = Grown;
  for (size_t I = 0; I < Live.size(); I += 2)
    cgc_redirect_free(Live[I]);
  cgc_redirect_free(Zeroed);
  cgc_redirect_free(Dup);
  cgc_redirect_trace_stop();

  cgc_redirect_stats Stats = statsNow();
  EXPECT_GE(Stats.trace_records, 64ull);

  // The recorded trace replays; two fresh replays through the same
  // deterministic allocator produce the same digest.
  cgc::TraceReader Reader;
  ASSERT_TRUE(Reader.load(Path.c_str()));
  uint64_t Digests[2] = {};
  for (int Run = 0; Run != 2; ++Run) {
    class LibcReplay : public cgc::ReplayAllocator {
    public:
      void *allocate(size_t Bytes) override { return ::malloc(Bytes); }
      void deallocate(void *Ptr) override { ::free(Ptr); }
    } Allocator;
    cgc::ReplayResult Result = cgc::replayTrace(Reader, Allocator);
    ASSERT_FALSE(Result.Malformed);
    EXPECT_GE(Result.Events, 64u);
    EXPECT_EQ(Result.FailedAllocs, 0u);
    Digests[Run] = Result.Digest;
  }
  EXPECT_EQ(Digests[0], Digests[1]);
  std::remove(Path.c_str());
}

TEST(Redirect, CannedScenariosAreDeterministic) {
  // Generator purity: same (seed, scale) twice gives byte-identical
  // streams; different seeds differ.
  for (cgc::TraceScenario Scenario :
       {cgc::TraceScenario::WebServer, cgc::TraceScenario::JsonDocuments,
        cgc::TraceScenario::CompilerAst}) {
    auto A = cgc::generateScenarioTrace(Scenario, 7, 1);
    auto B = cgc::generateScenarioTrace(Scenario, 7, 1);
    auto C = cgc::generateScenarioTrace(Scenario, 8, 1);
    EXPECT_FALSE(A.empty());
    EXPECT_EQ(A, B);
    EXPECT_NE(A, C);
  }
}

TEST(Redirect, ScenarioReplayMatchesAcrossAllocators) {
  // The acceptance contract in miniature: one canned scenario, two
  // very different allocators, one digest.
  auto Records =
      cgc::generateScenarioTrace(cgc::TraceScenario::WebServer, 99, 1);
  cgc::TraceReader Reader;
  Reader.adopt(Records);

  class LibcReplay : public cgc::ReplayAllocator {
  public:
    void *allocate(size_t Bytes) override { return ::malloc(Bytes); }
    void deallocate(void *Ptr) override { ::free(Ptr); }
  } Libc;
  cgc::ReplayResult LibcResult = cgc::replayTrace(Reader, Libc);
  ASSERT_FALSE(LibcResult.Malformed);
  ASSERT_EQ(LibcResult.FailedAllocs, 0u);

  class ExplicitReplay : public cgc::ReplayAllocator {
  public:
    ExplicitReplay() : Heap(256ull << 20) {}
    void *allocate(size_t Bytes) override { return Heap.malloc(Bytes); }
    void deallocate(void *Ptr) override { Heap.free(Ptr); }

  private:
    cgc::baseline::ExplicitHeap Heap;
  } Explicit;
  cgc::ReplayResult ExplicitResult = cgc::replayTrace(Reader, Explicit);
  ASSERT_FALSE(ExplicitResult.Malformed);
  ASSERT_EQ(ExplicitResult.FailedAllocs, 0u);

  EXPECT_EQ(LibcResult.Digest, ExplicitResult.Digest);
  EXPECT_EQ(LibcResult.Events, ExplicitResult.Events);
}

// Runs last in this file: tears the process-global layer down.
TEST(RedirectTeardown, InitFailureFallsBackToLibc) {
  cgc_redirect_reset_for_tests();
  cgc_redirect_simulate_init_failure(1);
  EXPECT_EQ(cgc_redirect_install(), 0);
  EXPECT_EQ(cgc_redirect_active(), 0);
  EXPECT_EQ(cgc_redirect_collector(), nullptr);
  cgc_redirect_stats Stats = statsNow();
  EXPECT_EQ(Stats.fallback, 1);

  // Every entry point keeps working through the real libc.
  char *Ptr = static_cast<char *>(cgc_redirect_malloc(128));
  ASSERT_NE(Ptr, nullptr);
  std::strcpy(Ptr, "fallback");
  char *Grown = static_cast<char *>(cgc_redirect_realloc(Ptr, 512));
  ASSERT_NE(Grown, nullptr);
  EXPECT_STREQ(Grown, "fallback");
  cgc_redirect_free(Grown);
  void *Zeroed = cgc_redirect_calloc(16, 16);
  ASSERT_NE(Zeroed, nullptr);
  cgc_redirect_free(Zeroed);
  char *Dup = cgc_redirect_strdup("libc");
  ASSERT_NE(Dup, nullptr);
  EXPECT_STREQ(Dup, "libc");
  cgc_redirect_free(Dup);

  // Re-arm a working install so a later test run order never sees the
  // failure latch.
  cgc_redirect_simulate_init_failure(0);
  cgc_redirect_reset_for_tests();
  EXPECT_EQ(cgc_redirect_install(), 1);
  EXPECT_EQ(cgc_redirect_active(), 1);
}

} // namespace
