//===- bench/bench_mt_alloc.cpp - Multi-threaded allocation throughput ----===//
//
// Measures small-object allocation throughput from 1, 2, 4, and 8
// registered mutator threads, with thread-owned blocks on
// (GcConfig::ThreadCaches: lock-free allocation from blocks checked out
// under the heap lock) and off (every allocation serializes on the
// shared heap lock).  A third column runs the cached
// configuration on the mt-churn shape: mixed sizes through a 256-slot
// window per thread, half of the evicted objects freed explicitly, so
// the owner's lock-free frees are measured too.  The interesting
// numbers are the cached-vs-uncached ratio at each thread count and
// the scaling curves of the two cached columns.
//
// Every run cross-checks the accounting: after the threads unregister
// (returning their blocks and folding their counts), the heap's
// lifetime allocation and free counters must equal exactly what the
// threads did.
//
// Each cell is the median over the reps, with the interquartile range
// of the rep times beside it in the JSON.
//
// Usage: bench_mt_alloc [--json] [allocs-per-thread] [reps]
//   (default 100000 3; --json writes BENCH_mt_alloc.json)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Collector.h"
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace cgc;
using cgcbench::percentile;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

GcConfig benchConfig(bool ThreadCaches) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(1) << 30;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = uint64_t(256) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Pure allocation, no GC.
  Config.ThreadCaches = ThreadCaches;
  return Config;
}

/// The mt-churn shape: object sizes and the per-thread window.
constexpr size_t ChurnSizes[8] = {16, 24, 32, 48, 64, 96, 128, 256};
constexpr unsigned ChurnWindow = 256;

void *allocateOrDie(Collector &GC, size_t Bytes) {
  void *Obj = GC.allocate(Bytes);
  if (!Obj) {
    std::fprintf(stderr, "out of memory\n");
    std::exit(1);
  }
  return Obj;
}

/// One thread's work: \p PerThread 64-byte objects through a tiny
/// window, or with \p Churn the mt-churn shape.  The run never
/// collects, so this is a pure allocator measurement: dropped objects
/// simply stay allocated.  \returns the objects it freed.
uint64_t mutate(Collector &GC, size_t PerThread, bool Churn, unsigned Tid) {
  if (!Churn) {
    uint64_t *Keep[8] = {nullptr};
    for (size_t I = 0; I != PerThread; ++I) {
      auto *Obj = static_cast<uint64_t *>(allocateOrDie(GC, 64));
      *Obj = I;
      Keep[I % 8] = Obj;
    }
    (void)Keep;
    return 0;
  }
  uint64_t State = 0x9e3779b97f4a7c15ull * (Tid + 1);
  uint64_t Freed = 0;
  void *Window[ChurnWindow] = {nullptr};
  for (size_t I = 0; I != PerThread; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    unsigned Draw = static_cast<unsigned>(State >> 60);
    auto *Obj =
        static_cast<uint64_t *>(allocateOrDie(GC, ChurnSizes[Draw & 7]));
    *Obj = I;
    // Bit 3 of the draw frees the object this allocation evicts.
    void *&Slot = Window[I % ChurnWindow];
    if (Slot && (Draw & 8)) {
      GC.deallocate(Slot);
      ++Freed;
    }
    Slot = Obj;
  }
  return Freed;
}

/// One timed run of \p Threads registered mutators started together
/// off a shared flag.  \returns wall nanoseconds from release to last
/// completion.
uint64_t runOnce(unsigned Threads, bool ThreadCaches, size_t PerThread,
                 bool Churn) {
  Collector GC(benchConfig(ThreadCaches));
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<uint64_t> Frees{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      GcThreadScope Scope(GC);
      if (!Scope.registered()) {
        std::fprintf(stderr, "mutator registration refused\n");
        std::exit(1);
      }
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Frees.fetch_add(mutate(GC, PerThread, Churn, T));
    });
  while (Ready.load() != Threads)
    std::this_thread::yield();
  uint64_t Begin = nowNanos();
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  uint64_t Nanos = nowNanos() - Begin;

  // Unregistering folded every thread's counts: the lifetime counters
  // must be exactly the objects the threads really took and freed.
  uint64_t Expected = uint64_t(Threads) * PerThread;
  if (GC.heapStats().ObjectsAllocated != Expected ||
      GC.heapStats().ExplicitFrees != Frees.load()) {
    std::fprintf(stderr,
                 "ACCOUNTING VIOLATION: %llu objects / %llu frees recorded, "
                 "expected %llu / %llu\n",
                 static_cast<unsigned long long>(
                     GC.heapStats().ObjectsAllocated),
                 static_cast<unsigned long long>(GC.heapStats().ExplicitFrees),
                 static_cast<unsigned long long>(Expected),
                 static_cast<unsigned long long>(Frees.load()));
    std::exit(1);
  }
  return Nanos;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = cgcbench::consumeJsonFlag(Argc, Argv);
  size_t PerThread = Argc > 1 ? std::strtoull(Argv[1], nullptr, 10) : 100000;
  unsigned Reps = Argc > 2 ? static_cast<unsigned>(std::atoi(Argv[2])) : 3;
  if (PerThread == 0)
    PerThread = 100000;
  if (Reps == 0)
    Reps = 3;

  cgcbench::printBanner(
      "mt alloc",
      "multi-threaded allocation throughput, thread-owned blocks on vs off",
      "n/a (threading extension; Immix-style block handoff)");

  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("%zu allocations per thread, median of %u reps, hardware "
              "threads %u\n",
              PerThread, Reps, Cores);
  std::printf("%-8s %14s %14s %14s %8s %8s %8s\n", "threads", "uncached",
              "cached", "churn", "ratio", "scaling", "churn-sc");

  cgcbench::JsonReport Report("mt alloc");
  Report.set("allocs_per_thread", uint64_t(PerThread));
  Report.set("reps", uint64_t(Reps));
  Report.set("hardware_threads", uint64_t(Cores));
  Report.set("churn_window", uint64_t(ChurnWindow));

  double CachedBase = 0, ChurnBase = 0;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    std::vector<double> Uncached, Cached, Churn;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      Uncached.push_back(double(
          runOnce(Threads, /*ThreadCaches=*/false, PerThread, false)));
      Cached.push_back(double(
          runOnce(Threads, /*ThreadCaches=*/true, PerThread, false)));
      Churn.push_back(double(
          runOnce(Threads, /*ThreadCaches=*/true, PerThread, true)));
    }
    auto Iqr = [](const std::vector<double> &Nanos) {
      return percentile(Nanos, 0.75) - percentile(Nanos, 0.25);
    };
    double UncachedNs = percentile(Uncached, 0.50);
    double CachedNs = percentile(Cached, 0.50);
    double ChurnNs = percentile(Churn, 0.50);
    double Total = double(Threads) * double(PerThread);
    double UncachedRate = Total / (UncachedNs / 1e9);
    double CachedRate = Total / (CachedNs / 1e9);
    double ChurnRate = Total / (ChurnNs / 1e9);
    double Ratio = UncachedRate > 0 ? CachedRate / UncachedRate : 0;
    if (Threads == 1) {
      CachedBase = CachedRate;
      ChurnBase = ChurnRate;
    }
    double Scaling = CachedBase > 0 ? CachedRate / CachedBase : 0;
    double ChurnScaling = ChurnBase > 0 ? ChurnRate / ChurnBase : 0;
    std::printf("%-8u %10.2f M/s %10.2f M/s %10.2f M/s %7.2fx %7.2fx "
                "%7.2fx\n",
                Threads, UncachedRate / 1e6, CachedRate / 1e6, ChurnRate / 1e6,
                Ratio, Scaling, ChurnScaling);
    Report.beginRow();
    Report.rowSet("threads", uint64_t(Threads));
    Report.rowSet("uncached_allocs_per_sec", UncachedRate);
    Report.rowSet("cached_allocs_per_sec", CachedRate);
    Report.rowSet("churn_allocs_per_sec", ChurnRate);
    Report.rowSet("uncached_median_ns", UncachedNs);
    Report.rowSet("uncached_iqr_ns", Iqr(Uncached));
    Report.rowSet("cached_median_ns", CachedNs);
    Report.rowSet("cached_iqr_ns", Iqr(Cached));
    Report.rowSet("churn_median_ns", ChurnNs);
    Report.rowSet("churn_iqr_ns", Iqr(Churn));
    Report.rowSet("cached_vs_uncached", Ratio);
    Report.rowSet("cached_scaling_vs_1t", Scaling);
    Report.rowSet("churn_scaling_vs_1t", ChurnScaling);
  }
  std::printf("cached = 64 B allocations; churn = mixed sizes, 256-slot "
              "window, half of evictions freed; ratio = cached / uncached "
              "at the same thread count; scaling = vs 1 thread\n");
  if (Json) {
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  return 0;
}
