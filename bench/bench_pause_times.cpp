//===- bench/bench_pause_times.cpp - Collection pause distribution --------===//
//
// The paper situates itself among collectors that "utilize many of the
// same performance improvement techniques as conventional collectors"
// (generational [5, 12] and concurrent [8] variants that "greatly
// reduce client pause times").  Like the paper's collector, this
// reproduction sweeps lazily: a collect() pause releases the empty
// blocks and counts the rest, and allocation sweeps a partly live block
// when it takes it.  This bench reports that pause's distribution.
//
// Workload: steady-state list churn (allocate, retain a window, drop),
// periodic explicit collections; we record every collect() pause and
// report its median, interquartile range and maximum, plus the median
// of each layer under it — root scan, mark, blacklist promote and
// sweep — from the cycle's own phase timings.
//
// The threaded rows additionally measure time-to-stop — the handshake
// nanoseconds from raising the stop request to the last mutator
// parking — for a cooperative worker (polls safepoints) and for a
// worker that never polls, so every handshake must climb the watchdog
// ladder to the signal-suspension rung (GcConfig::HandshakeDeadlineMs).
//
// The sealed rows rerun the same workload with GcConfig::SealMetadata:
// GC metadata lives on dedicated pages kept PROT_READ between
// collections, so each cycle pays two mprotect transitions (unseal at
// entry, reseal at exit).  The "seal (us/gc)" column is that cost
// amortized per collection — the price of wild-write containment.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Collector.h"
#include "support/Statistics.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <string>
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

/// The phases the table breaks each pause into, read from every
/// cycle's CollectionStats::PhaseNanos.
constexpr GcPhase ReportedPhases[] = {GcPhase::RootScan, GcPhase::Mark,
                                      GcPhase::BlacklistPromote,
                                      GcPhase::Sweep};
constexpr size_t NumReportedPhases = std::size(ReportedPhases);
constexpr const char *PhaseJsonKeys[NumReportedPhases] = {
    "root_scan_p50_us", "mark_p50_us", "blacklist_promote_p50_us",
    "sweep_p50_us"};

struct PauseProfile {
  std::vector<double> PauseMicros;
  /// Per-cycle microseconds of each of ReportedPhases.
  std::vector<double> PhaseMicros[NumReportedPhases];
  double ThroughputOpsPerUs = 0;
  uint64_t Collections = 0;
  /// Per-cycle handshake time-to-stop; empty for single-mutator rows.
  std::vector<double> StopMicros;
  /// Metadata seal/unseal bookkeeping; zero for unsealed rows.
  bool Sealed = false;
  uint64_t SealTransitions = 0;
  double SealMicrosPerCollection = 0;
};

/// Records one finished collection's pause and its phase times.
void recordCycle(PauseProfile &Profile, const Collector &GC,
                 uint64_t PauseNanos) {
  Profile.PauseMicros.push_back(static_cast<double>(PauseNanos) / 1000.0);
  const CollectionStats &Cycle = GC.lastCollection();
  for (size_t I = 0; I != NumReportedPhases; ++I)
    Profile.PhaseMicros[I].push_back(
        static_cast<double>(
            Cycle.PhaseNanos[static_cast<unsigned>(ReportedPhases[I])]) /
        1000.0);
  ++Profile.Collections;
}

PauseProfile run(bool Sealed) {
  GcConfig Config;
  Config.MaxHeapBytes = uint64_t(128) << 20;
  Config.SealMetadata = Sealed;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Explicit collections.
  Collector GC(Config);

  struct Node {
    Node *Next;
    uint64_t Pad[3];
  };
  constexpr size_t WindowSlots = 30000;
  std::vector<uint64_t> Window(WindowSlots, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");

  PauseProfile Profile;
  uint64_t Seed = 0x9e3779b9;
  uint64_t Start = nowNanos();
  constexpr uint64_t TotalOps = 1'500'000;
  for (uint64_t Op = 0; Op != TotalOps; ++Op) {
    Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
    size_t Slot = (Seed >> 33) % WindowSlots;
    auto *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    CGC_CHECK(N, "allocation failed");
    Window[Slot] = reinterpret_cast<uint64_t>(N);
    if (Op % 100000 == 99999) { // ~3 MiB between collections.
      uint64_t T0 = nowNanos();
      GC.collect("periodic");
      recordCycle(Profile, GC, nowNanos() - T0);
    }
  }
  uint64_t Elapsed = nowNanos() - Start;
  Profile.ThroughputOpsPerUs = static_cast<double>(TotalOps) * 1000.0 /
                               static_cast<double>(Elapsed);
  const GcRepairStats &Repair = GC.repairStats();
  Profile.Sealed = Sealed;
  Profile.SealTransitions = Repair.SealTransitions;
  if (Profile.Collections != 0)
    Profile.SealMicrosPerCollection =
        static_cast<double>(Repair.SealNanos) / 1000.0 /
        static_cast<double>(Profile.Collections);
  return Profile;
}

/// One extra mutator thread alongside the collecting (main) thread.
/// Cooperative: the worker polls GC.safepoint() in its loop, so every
/// handshake stops it on the first rung.  Signal fallback: the worker
/// spins without ever polling, so every handshake must escalate to the
/// watchdog's preemptive signal suspension at deadline/2.
PauseProfile runThreaded(bool SignalFallback) {
  GcConfig Config;
  Config.MaxHeapBytes = uint64_t(128) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  // Coop: generous deadline the handshake never approaches (the armed
  // watchdog costs nothing on the cooperative path).  Signal: short
  // deadline so the signal rung (deadline/2) bounds time-to-stop.
  Config.HandshakeDeadlineMs = SignalFallback ? 20 : 2000;
  Collector GC(Config);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> WorkerOps{0};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    if (SignalFallback) {
      while (!Done.load(std::memory_order_acquire))
        WorkerOps.fetch_add(1, std::memory_order_relaxed);
    } else {
      while (!Done.load(std::memory_order_acquire)) {
        GC.safepoint();
        WorkerOps.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  GcThreadScope MainScope(GC);
  struct Node {
    Node *Next;
    uint64_t Pad[3];
  };
  constexpr size_t WindowSlots = 10000;
  std::vector<uint64_t> Window(WindowSlots, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");

  PauseProfile Profile;
  uint64_t Seed = 0x9e3779b9;
  uint64_t Start = nowNanos();
  // The signal row pays >= deadline/2 per handshake; keep its cycle
  // count small so the bench stays fast.
  const uint64_t TotalOps = SignalFallback ? 120'000 : 600'000;
  const uint64_t OpsPerCycle = SignalFallback ? 10'000 : 50'000;
  for (uint64_t Op = 0; Op != TotalOps; ++Op) {
    Seed = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
    size_t Slot = (Seed >> 33) % WindowSlots;
    auto *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
    CGC_CHECK(N, "allocation failed");
    Window[Slot] = reinterpret_cast<uint64_t>(N);
    if (Op % OpsPerCycle == OpsPerCycle - 1) {
      uint64_t T0 = nowNanos();
      GC.collect("periodic");
      recordCycle(Profile, GC, nowNanos() - T0);
      Profile.StopMicros.push_back(
          static_cast<double>(GC.lastCollection().HandshakeNanos) / 1000.0);
    }
  }
  uint64_t Elapsed = nowNanos() - Start;
  Profile.ThroughputOpsPerUs = static_cast<double>(TotalOps) * 1000.0 /
                               static_cast<double>(Elapsed);
  Done.store(true, std::memory_order_release);
  Worker.join();
  return Profile;
}

void addProfileRow(TablePrinter &Table, cgcbench::JsonReport &Report,
                   const char *Mode, const PauseProfile &P) {
  double PauseP50 = percentile(P.PauseMicros, 0.50);
  double PauseIqr =
      percentile(P.PauseMicros, 0.75) - percentile(P.PauseMicros, 0.25);
  double PauseMax = percentile(P.PauseMicros, 1.0);
  double StopP50 = percentile(P.StopMicros, 0.50);
  double StopP99 = percentile(P.StopMicros, 0.99);
  char Median[32], Iqr[32], Max[32], P50[32], P99[32], Thr[32], Seal[32];
  std::snprintf(Median, sizeof(Median), "%.0f", PauseP50);
  std::snprintf(Iqr, sizeof(Iqr), "%.0f", PauseIqr);
  std::snprintf(Max, sizeof(Max), "%.0f", PauseMax);
  std::snprintf(P50, sizeof(P50), "%.0f", StopP50);
  std::snprintf(P99, sizeof(P99), "%.0f", StopP99);
  std::snprintf(Thr, sizeof(Thr), "%.1f", P.ThroughputOpsPerUs);
  std::snprintf(Seal, sizeof(Seal), "%.1f", P.SealMicrosPerCollection);
  std::vector<std::string> Row = {Mode, std::to_string(P.Collections), Median,
                                  Iqr, Max};
  double PhaseP50[NumReportedPhases];
  for (size_t I = 0; I != NumReportedPhases; ++I) {
    PhaseP50[I] = percentile(P.PhaseMicros[I], 0.50);
    char Cell[32];
    std::snprintf(Cell, sizeof(Cell), "%.1f", PhaseP50[I]);
    Row.push_back(Cell);
  }
  Row.insert(Row.end(), {P50, P99, P.Sealed ? Seal : "-", Thr});
  Table.addRow(Row);
  Report.beginRow();
  Report.rowSet("mode", std::string(Mode));
  Report.rowSet("collections", P.Collections);
  Report.rowSet("pause_p50_us", PauseP50);
  Report.rowSet("pause_iqr_us", PauseIqr);
  Report.rowSet("max_pause_us", PauseMax);
  for (size_t I = 0; I != NumReportedPhases; ++I)
    Report.rowSet(PhaseJsonKeys[I], PhaseP50[I]);
  Report.rowSet("stop_p50_us", StopP50);
  Report.rowSet("stop_p99_us", StopP99);
  Report.rowSet("sealed", uint64_t(P.Sealed ? 1 : 0));
  Report.rowSet("seal_transitions", P.SealTransitions);
  Report.rowSet("seal_us_per_collection", P.SealMicrosPerCollection);
  Report.rowSet("throughput_ops_per_us", P.ThroughputOpsPerUs);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = cgcbench::consumeJsonFlag(Argc, Argv);
  cgcbench::printBanner(
      "Pause times",
      "collect() pause distribution (median, interquartile range, max) "
      "under steady churn, with and without sealed metadata, plus "
      "stop-the-world time-to-stop for cooperative and signal-fallback "
      "mutators",
      "sealing adds two mprotect calls per collection and leaves "
      "throughput unchanged; the signal rows bound time-to-stop by the "
      "watchdog");

  cgcbench::JsonReport Report("pause times");
  TablePrinter Table({"mode", "collections", "pause p50 (us)",
                      "pause iqr (us)", "max pause (us)", "roots p50 (us)",
                      "mark p50 (us)", "promote p50 (us)", "sweep p50 (us)",
                      "stop p50 (us)", "stop p99 (us)", "seal (us/gc)",
                      "throughput (ops/us)"});
  addProfileRow(Table, Report, "plain", run(/*Sealed=*/false));
  addProfileRow(Table, Report, "plain sealed", run(/*Sealed=*/true));
  addProfileRow(Table, Report, "threaded coop", runThreaded(false));
  addProfileRow(Table, Report, "threaded signal", runThreaded(true));
  Table.print(stdout);
  if (Json) {
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  return 0;
}
