//===- bench/bench_zorn_cost.cpp - Conclusions: the measured cost ---------===//
//
// Regenerates the paper's concluding discussion of Zorn's "The Measured
// Cost of Conservative Garbage Collection" [25]:
//
//   * "simply replacing explicit deallocation in a leak-free program
//     with conservative garbage collection is still likely to increase
//     memory consumption": (1) programs written for explicit
//     deallocation keep dead data reachable until free() — visible to
//     any collector; (2) "any tracing garbage collector will require
//     some fraction of the heap to be empty in order to avoid
//     excessively frequent collections".
//   * "even a completely nonmoving conservative collector should gain a
//     slight advantage over a malloc/free implementation, in that it is
//     usually much less expensive to keep free lists sorted by
//     address", reducing fragmentation.
//
// Method: one synthetic allocation trace (mixed sizes, overlapping
// lifetimes) replayed through (a) the explicit-heap baseline with LIFO
// free lists, (b) the baseline with address-ordered free lists, and
// (c) the conservative collector.  Reported: peak footprint, throughput,
// and fragmentation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baseline/ExplicitHeap.h"
#include "core/Collector.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include <chrono>

using namespace cgc;
using namespace cgc::baseline;

namespace {

/// One step of the trace: allocate into a random slot, freeing what was
/// there.  Sizes are a two-mode mixture (small cells + medium buffers).
struct TraceConfig {
  size_t Slots = 20000;
  uint64_t Steps = 600000;
  uint64_t Seed = 99;
};

size_t traceSize(Rng &R) {
  return R.nextBool(0.85) ? R.nextInRange(16, 64)
                          : R.nextInRange(128, 2048);
}

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RunResult {
  uint64_t PeakFootprintBytes = 0;
  uint64_t LiveBytesAtEnd = 0;
  double NanosPerOp = 0;
  double FragmentationPct = 0;
  uint64_t Collections = 0;
};

RunResult runExplicit(ExplicitHeap::Policy Policy,
                      const TraceConfig &Trace) {
  ExplicitHeap Heap(uint64_t(512) << 20, Policy);
  Rng R(Trace.Seed);
  std::vector<void *> Slots(Trace.Slots, nullptr);
  uint64_t Start = nowNanos();
  for (uint64_t Step = 0; Step != Trace.Steps; ++Step) {
    size_t I = R.pickIndex(Slots.size());
    if (Slots[I])
      Heap.free(Slots[I]);
    Slots[I] = Heap.malloc(traceSize(R));
    CGC_CHECK(Slots[I], "baseline exhausted");
  }
  uint64_t Elapsed = nowNanos() - Start;
  RunResult Result;
  Result.PeakFootprintBytes = Heap.stats().FootprintBytes;
  Result.LiveBytesAtEnd = Heap.stats().BytesInUse;
  Result.NanosPerOp =
      static_cast<double>(Elapsed) / static_cast<double>(Trace.Steps);
  Result.FragmentationPct = Heap.fragmentation() * 100.0;
  return Result;
}

RunResult runCollected(const TraceConfig &Trace, bool LeakFreeStyle) {
  GcConfig Config;
  Config.MaxHeapBytes = uint64_t(512) << 20;
  Config.MinHeapBytesBeforeGc = 4 << 20;
  Collector GC(Config);
  Rng R(Trace.Seed);
  // The slot table is the program's data: a scanned root.
  std::vector<uint64_t> Slots(Trace.Slots, 0);
  GC.addRootRange(Slots.data(), Slots.data() + Slots.size(),
                  RootEncoding::Native64, RootSource::Client,
                  "trace-slots");
  // A program converted from explicit deallocation "keeps deallocated
  // memory accessible through program variables": model the free-list
  // bookkeeping such programs carry as a window of dead-but-visible
  // pointers that clears only when it rotates.
  constexpr size_t DeferWindow = 4096;
  std::vector<uint64_t> Deferred;
  size_t DeferCursor = 0;
  if (!LeakFreeStyle) {
    Deferred.assign(DeferWindow, 0);
    GC.addRootRange(Deferred.data(), Deferred.data() + Deferred.size(),
                    RootEncoding::Native64, RootSource::Client,
                    "deferred-free-bookkeeping");
  }
  uint64_t Start = nowNanos();
  for (uint64_t Step = 0; Step != Trace.Steps; ++Step) {
    size_t I = R.pickIndex(Slots.size());
    uint64_t Old = Slots[I];
    Slots[I] = 0; // The reference the program actually drops.
    if (!LeakFreeStyle && Old != 0) {
      // Converted style: the dead pointer stays visible for a while.
      Deferred[DeferCursor] = Old;
      DeferCursor = (DeferCursor + 1) % DeferWindow;
    }
    void *P = GC.allocate(traceSize(R));
    CGC_CHECK(P, "collector exhausted");
    Slots[I] = reinterpret_cast<uint64_t>(P);
  }
  uint64_t Elapsed = nowNanos() - Start;
  RunResult Result;
  Result.PeakFootprintBytes = GC.committedHeapBytes();
  Result.LiveBytesAtEnd = GC.allocatedBytes();
  Result.NanosPerOp =
      static_cast<double>(Elapsed) / static_cast<double>(Trace.Steps);
  Result.FragmentationPct =
      GC.committedHeapBytes() == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(GC.allocatedBytes()) /
                               static_cast<double>(
                                   GC.committedHeapBytes()));
  Result.Collections = GC.lifetimeStats().Collections;
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = cgcbench::consumeJsonFlag(Argc, Argv);
  cgcbench::printBanner(
      "Zorn-style cost",
      "one allocation trace through malloc/free (LIFO and "
      "address-ordered) and the conservative collector",
      "GC footprint > malloc footprint (empty-heap fraction); "
      "address-ordered free lists reduce fragmentation; GC throughput "
      "competitive");

  TraceConfig Trace;
  cgcbench::JsonReport Report("zorn_cost");
  Report.set("slots", uint64_t(Trace.Slots));
  Report.set("steps", Trace.Steps);
  TablePrinter Table({"allocator", "peak footprint", "live at end",
                      "fragmentation", "ns/op", "collections"});

  auto addRow = [&](const char *Name, const RunResult &R) {
    char Frag[32], Ns[32];
    std::snprintf(Frag, sizeof(Frag), "%.1f%%", R.FragmentationPct);
    std::snprintf(Ns, sizeof(Ns), "%.1f", R.NanosPerOp);
    Table.addRow({Name, TablePrinter::bytes(R.PeakFootprintBytes),
                  TablePrinter::bytes(R.LiveBytesAtEnd), Frag, Ns,
                  std::to_string(R.Collections)});
    Report.beginRow();
    Report.rowSet("allocator", std::string(Name));
    Report.rowSet("peak_footprint_bytes", R.PeakFootprintBytes);
    Report.rowSet("live_bytes_at_end", R.LiveBytesAtEnd);
    Report.rowSet("fragmentation_pct", R.FragmentationPct);
    Report.rowSet("ns_per_op", R.NanosPerOp);
    Report.rowSet("collections", R.Collections);
  };

  addRow("malloc/free, LIFO free lists",
         runExplicit(ExplicitHeap::Policy::LifoFit, Trace));
  addRow("malloc/free, address-ordered",
         runExplicit(ExplicitHeap::Policy::AddressOrderedFit, Trace));
  addRow("conservative GC (written for GC)",
         runCollected(Trace, /*LeakFreeStyle=*/true));
  addRow("conservative GC (converted program)",
         runCollected(Trace, /*LeakFreeStyle=*/false));
  Table.print(stdout);
  std::printf("\nthe collector's extra footprint is the empty-heap "
              "fraction a tracing\ncollector needs; its throughput "
              "stays competitive with the explicit heap.\n");
  if (Json) {
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  return 0;
}
