//===- bench/bench_alloc_overhead.cpp - §3 footnote 3: overheads ----------===//
//
// Regenerates the paper's footnote-3 measurements:
//
//   * "The stand-alone collector can still allocate and collect an
//     8 byte object in around 2 microseconds under optimal conditions
//     (no accessible heap data) on a SPARCStation 2, which is much
//     faster than malloc/free round-trip times for most malloc
//     implementations."
//   * "the total additional overhead introduced by blacklisting is
//     usually less than 1%"; "version 2.5 of the collector spends
//     approximately 0.2% of its time dealing with blacklisting related
//     bookkeeping".
//
// Absolute times are 2026 hardware, not a SPARCStation 2; the claims
// under test are the *relations*: GC alloc+collect <= malloc/free
// round trip, and blacklisting overhead ~1% or less.
//
// Usage: bench_alloc_overhead [--json] [allocs]
//   (default 2000000 allocations per configuration; --json writes
//   BENCH_alloc_overhead.json, including a fault_injection_compiled
//   scalar so result consumers can reject runs timed with the
//   injection checks compiled in)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baseline/ExplicitHeap.h"
#include "core/Collector.h"
#include "heap/GuardedHeap.h"
#include "heap/SizeClassTable.h"
#include "sim/SyntheticSegments.h"
#include "support/FaultInjection.h"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

using namespace cgc;
using namespace cgc::sim;

namespace {

uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

GcConfig steadyStateConfig(BlacklistMode Mode) {
  GcConfig Config;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  // Low placement, as on the paper's platforms: pollution data actually
  // lands in the potential heap, so the blacklist has real work.
  Config.Placement = HeapPlacement::LowSbrk;
  Config.Blacklist = Mode;
  // Collect automatically and often, so the loop measures
  // allocate+collect amortized, as in the paper's footnote.
  Config.MinHeapBytesBeforeGc = 1 << 20;
  return Config;
}

/// One configuration's results: amortized ns per allocation plus the
/// collector-side counters the footnote talks about.
struct RunResult {
  double NanosPerOp = 0;
  uint64_t Collections = 0;
  double BlacklistTimePct = 0;
  uint64_t BlacklistedPages = 0;
};

/// Steady-state 8-byte allocation with everything immediately garbage
/// ("no accessible heap data"), with optional root pollution to give
/// the blacklist real work.
RunResult gcAllocLoop(BlacklistMode Mode, bool Polluted, size_t Allocs,
                      bool Guarded = false) {
  GcConfig Config = steadyStateConfig(Mode);
  Config.DebugGuards = Guarded;
  Collector GC(Config);
  Segment Tables;
  Rng R(3);
  appendIntTable(Tables, {15000, 0x30000000, 0.05, 0.30}, R, true);
  if (Polluted)
    GC.addRootRange(Tables.data(), Tables.data() + Tables.size(),
                    RootEncoding::Window32BE, RootSource::StaticData,
                    "pollution");

  uint64_t Start = nowNanos();
  for (size_t I = 0; I != Allocs; ++I) {
    void *P = GC.allocate(8);
    if (!P) {
      std::fprintf(stderr, "out of memory\n");
      std::exit(1);
    }
  }
  uint64_t Elapsed = nowNanos() - Start;

  const GcLifetimeStats &Life = GC.lifetimeStats();
  uint64_t GcNanos = 0;
  for (GcPhase Phase : {GcPhase::RootScan, GcPhase::Mark,
                        GcPhase::BlacklistPromote, GcPhase::Sweep})
    GcNanos += Life.TotalPhaseNanos[static_cast<unsigned>(Phase)];
  RunResult Result;
  Result.NanosPerOp = double(Elapsed) / double(Allocs);
  Result.Collections = Life.Collections;
  Result.BlacklistTimePct =
      GcNanos == 0 ? 0.0
                   : 100.0 * double(Life.TotalBlacklistNanos) /
                         double(GcNanos);
  Result.BlacklistedPages = GC.blacklistedPageCount();
  return Result;
}

/// The malloc/free round trip the footnote compares against.
RunResult mallocRoundTrip(size_t Allocs) {
  baseline::ExplicitHeap Heap(uint64_t(64) << 20);
  uint64_t Start = nowNanos();
  for (size_t I = 0; I != Allocs; ++I) {
    void *P = Heap.malloc(8);
    Heap.free(P);
  }
  RunResult Result;
  Result.NanosPerOp = double(nowNanos() - Start) / double(Allocs);
  return Result;
}

/// Round trip with live churn (a more honest malloc workload: frees
/// lag allocations).
RunResult mallocChurn(size_t Allocs) {
  baseline::ExplicitHeap Heap(uint64_t(64) << 20);
  constexpr size_t WindowSize = 4096;
  static void *Window[WindowSize];
  for (auto &Slot : Window)
    Slot = nullptr;
  size_t I = 0;
  uint64_t Start = nowNanos();
  for (size_t N = 0; N != Allocs; ++N) {
    if (Window[I])
      Heap.free(Window[I]);
    Window[I] = Heap.malloc(8);
    I = (I + 1) % WindowSize;
  }
  uint64_t Elapsed = nowNanos() - Start;
  for (void *P : Window)
    if (P)
      Heap.free(P);
  RunResult Result;
  Result.NanosPerOp = double(Elapsed) / double(Allocs);
  return Result;
}

/// GC allocation with the same live-window churn.
RunResult gcChurn(size_t Allocs) {
  Collector GC(steadyStateConfig(BlacklistMode::FlatBitmap));
  constexpr size_t WindowSize = 4096;
  static uint64_t Window[WindowSize];
  for (auto &Slot : Window)
    Slot = 0;
  GC.addRootRange(Window, Window + WindowSize, RootEncoding::Native64,
                  RootSource::Client, "churn-window");
  size_t I = 0;
  uint64_t Start = nowNanos();
  for (size_t N = 0; N != Allocs; ++N) {
    void *P = GC.allocate(8);
    if (!P) {
      std::fprintf(stderr, "out of memory\n");
      std::exit(1);
    }
    Window[I] = reinterpret_cast<uint64_t>(P);
    I = (I + 1) % WindowSize;
  }
  RunResult Result;
  Result.NanosPerOp = double(nowNanos() - Start) / double(Allocs);
  Result.Collections = GC.lifetimeStats().Collections;
  return Result;
}

void report(cgcbench::JsonReport &Report, const char *Name,
            const RunResult &Result) {
  std::printf("%-28s %9.1f ns/alloc %8llu collections "
              "%6.2f%% blacklist time %8llu blacklisted pages\n",
              Name, Result.NanosPerOp,
              static_cast<unsigned long long>(Result.Collections),
              Result.BlacklistTimePct,
              static_cast<unsigned long long>(Result.BlacklistedPages));
  Report.beginRow();
  Report.rowSet("config", std::string(Name));
  Report.rowSet("ns_per_alloc", Result.NanosPerOp);
  Report.rowSet("collections", Result.Collections);
  Report.rowSet("blacklist_time_pct", Result.BlacklistTimePct);
  Report.rowSet("blacklisted_pages", Result.BlacklistedPages);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = cgcbench::consumeJsonFlag(Argc, Argv);
  size_t Allocs = Argc > 1 ? std::strtoull(Argv[1], nullptr, 10) : 2000000;
  if (Allocs == 0)
    Allocs = 2000000;

  cgcbench::printBanner(
      "alloc overhead",
      "amortized 8-byte allocate+collect vs malloc/free round trips",
      "~2 us/alloc on a SPARCStation 2; blacklisting overhead < 1% "
      "(0.2% of collector time)");

  if (FaultInjectionCompiled)
    std::printf("note: fault-injection checks are compiled in; absolute "
                "numbers are conservative\n");
  std::printf("allocations per configuration: %zu\n\n", Allocs);

  cgcbench::JsonReport Report("alloc_overhead");
  Report.set("allocs", uint64_t(Allocs));
  Report.set("fault_injection_compiled",
             uint64_t(FaultInjectionCompiled ? 1 : 0));

  report(Report, "gc_8B_no_blacklist",
         gcAllocLoop(BlacklistMode::Off, false, Allocs));
  report(Report, "gc_8B_blacklist",
         gcAllocLoop(BlacklistMode::FlatBitmap, false, Allocs));
  report(Report, "gc_8B_blacklist_polluted",
         gcAllocLoop(BlacklistMode::FlatBitmap, true, Allocs));
  report(Report, "gc_8B_hashed_polluted",
         gcAllocLoop(BlacklistMode::Hashed, true, Allocs));
  report(Report, "gc_8B_guarded",
         gcAllocLoop(BlacklistMode::FlatBitmap, false, Allocs,
                     /*Guarded=*/true));
  report(Report, "malloc_free_roundtrip_8B", mallocRoundTrip(Allocs));
  report(Report, "malloc_free_churn_8B", mallocChurn(Allocs));
  report(Report, "gc_churn_8B", gcChurn(Allocs));

  // Guarded-mode space cost per size class: a guarded request is padded
  // by header + minimum redzone (32 bytes), which can also push it into
  // a larger class — or, near the small-object ceiling, off to a
  // dedicated page run.
  std::printf("\nguarded-mode space overhead (header %llu + redzone %llu "
              "bytes per object)\n",
              static_cast<unsigned long long>(GuardLayer::HeaderBytes),
              static_cast<unsigned long long>(GuardLayer::MinRedzoneBytes));
  std::printf("%10s %12s %14s %10s %8s\n", "user B", "plain slot",
              "guarded slot", "extra B", "extra");
  SizeClassTable Classes;
  for (size_t UserBytes : {8, 16, 32, 64, 128, 256, 512, 1024, 2048}) {
    uint64_t PlainSlot = Classes.classSize(Classes.classForSize(UserBytes));
    uint64_t Padded = GuardLayer::paddedSize(UserBytes);
    uint64_t GuardedSlot = SizeClassTable::isSmall(Padded)
                               ? Classes.classSize(Classes.classForSize(Padded))
                               : Padded;
    uint64_t Overhead = GuardedSlot - PlainSlot;
    double OverheadPct = 100.0 * double(Overhead) / double(PlainSlot);
    std::printf("%10zu %12llu %14llu %10llu %7.1f%%%s\n", UserBytes,
                static_cast<unsigned long long>(PlainSlot),
                static_cast<unsigned long long>(GuardedSlot),
                static_cast<unsigned long long>(Overhead), OverheadPct,
                SizeClassTable::isSmall(Padded) ? "" : "  (large object)");
    Report.beginRow();
    Report.rowSet("config", std::string("guard_overhead"));
    Report.rowSet("user_bytes", uint64_t(UserBytes));
    Report.rowSet("plain_slot_bytes", PlainSlot);
    Report.rowSet("guarded_slot_bytes", GuardedSlot);
    Report.rowSet("overhead_bytes", Overhead);
    Report.rowSet("overhead_pct", OverheadPct);
  }

  if (Json) {
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  return 0;
}
