//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload repeatedly for a fixed wall-clock budget and prints
// its metrics by name, with units, followed by one JSON result line.
//
//   perfbench --workload replay|live-graph|mt-churn --seed N --seconds S
//             --trace 0|1 [--out DIR] [--scale K]
//
// Repetitions of the first few seconds are a warm-up: checked, not timed.
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics from the traced ones; the spans are written to
// DIR/trace-<workload>-seed<N>.json (Chrome trace-event format) next to
// the per-layer table, DIR/layers-<workload>-seed<N>.txt.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace cgc;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

constexpr unsigned MaxTracks = 5; // main + four mt-churn mutators
constexpr unsigned MaxReps = 200;
/// Untimed repetitions first: on a shared machine the first second of a
/// multi-threaded run after an idle spell runs several times faster than
/// the steady state (mt-churn's four mutators, measured on a 4-vCPU
/// virtual machine).  Their outputs are still checked.
constexpr double WarmupSeconds = 3;
/// Repetition k runs on input set k mod InputSets of the seed, so a
/// run's medians cover several inputs: the replay footprint, for one,
/// steps by a whole MiB between inputs.
constexpr unsigned InputSets = 5;

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::string Note;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of sorted \p V.
double percentile(const std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
/// beyond it (the maximum when there are fewer than twenty samples).
std::pair<double, std::string> tailPercentile(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  for (double P : {99.9, 99.0, 90.0, 50.0}) {
    double Beyond = double(V.size()) * (100 - P) / 100;
    if (Beyond >= 10) {
      char Label[16];
      std::snprintf(Label, sizeof(Label), "p%g", P);
      return {percentile(V, P), Label};
    }
  }
  return {V.empty() ? 0 : V.back(), "max"};
}

template <typename T> std::vector<double> asDoubles(const std::vector<T> &V) {
  return std::vector<double>(V.begin(), V.end());
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

struct BuildInfo {
  unsigned HardwareThreads = std::thread::hardware_concurrency();
  std::string Compiler;
  std::string BuildType = PERFBENCH_BUILD_TYPE;
  bool FaultInjection = false;
  bool Sanitized = false;
  bool Optimized = false;

  BuildInfo() {
#if defined(__clang__)
    Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    Compiler = "gcc " __VERSION__;
#else
    Compiler = "unknown";
#endif
#ifdef CGC_FAULT_INJECTION_ENABLED
    FaultInjection = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    Sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
    Sanitized = true;
#endif
#endif
#ifdef __OPTIMIZE__
    Optimized = true;
#endif
  }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".";
  unsigned Scale = 1;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *Arg = Argv[I];
    const char *V = Value();
    if (!V)
      return false;
    if (!std::strcmp(Arg, "--workload"))
      O.Workload = V;
    else if (!std::strcmp(Arg, "--seed"))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(Arg, "--seconds"))
      O.Seconds = std::strtod(V, nullptr);
    else if (!std::strcmp(Arg, "--trace"))
      O.Trace = std::strcmp(V, "0") != 0;
    else if (!std::strcmp(Arg, "--out"))
      O.OutDir = V;
    else if (!std::strcmp(Arg, "--scale"))
      O.Scale = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else
      return false;
  }
  return (O.Workload == "replay" || O.Workload == "live-graph" ||
          O.Workload == "mt-churn") &&
         O.Seconds > 0 && O.Scale > 0;
}

WorkloadOptions inputSet(const Options &O, unsigned Rep) {
  WorkloadOptions W;
  W.Seed = O.Seed * InputSets + Rep % InputSets;
  W.Scale = O.Scale;
  return W;
}

RepResult runRep(const Options &O, Probe &P, unsigned Rep) {
  WorkloadOptions W = inputSet(O, Rep);
  if (O.Workload == "replay")
    return runReplay(W, P);
  if (O.Workload == "live-graph")
    return runLiveGraph(W, P);
  return runMtChurn(W, P);
}

/// What one repetition contributes to the reported metrics.
struct RepRecord {
  RepResult Result;
  CycleTotals Totals;
  std::vector<uint32_t> AllocNanos;
  std::vector<uint32_t> FreeNanos;
  double throughput() const {
    return ratio(double(Result.Ops) * 1e3, double(Result.TimedNanos));
  }
};

constexpr double MiB = 1024.0 * 1024.0;

std::vector<double> pauses(const std::vector<RepRecord> &Reps) {
  std::vector<double> Pauses;
  for (const RepRecord &R : Reps)
    Pauses.insert(Pauses.end(), R.Totals.PauseMicros.begin(),
                  R.Totals.PauseMicros.end());
  return Pauses;
}

std::string pauseCount(const std::vector<double> &Pauses) {
  return "n=" + std::to_string(Pauses.size()) + " pauses";
}

/// The end-to-end metrics of the JSON result, from untraced repetitions.
std::vector<Metric> endToEnd(const std::vector<RepRecord> &Reps) {
  std::vector<double> Throughput, Peak, Retained, Setup;
  for (const RepRecord &R : Reps) {
    Throughput.push_back(R.throughput());
    Peak.push_back(double(R.Totals.PeakCommitted) / MiB);
    Retained.push_back(R.Result.RetainedRatio);
    Setup.push_back(double(R.Result.SetupNanos) / 1e9);
  }
  std::string Reps_ = "median of " + std::to_string(Reps.size()) + " reps";
  std::vector<double> Pauses = pauses(Reps);
  return {
      {"throughput_mops", median(Throughput), "Mops/s", Reps_},
      {"pause_p50_us", median(Pauses), "us", pauseCount(Pauses)},
      {"peak_footprint_mib", median(Peak), "MiB", Reps_},
      {"retained_ratio", median(Retained), "ratio", Reps_},
      {"setup_s", median(Setup), "s", Reps_},
  };
}

/// The pause tail of untraced repetitions.  It is an end-to-end
/// quantity, but it moves by more than a tenth between runs of one
/// seed, so the JSON result carries it with the per-layer metrics.
Metric pauseTail(const std::vector<RepRecord> &Reps) {
  std::vector<double> Pauses = pauses(Reps);
  auto Tail = tailPercentile(Pauses);
  return {"pause_tail_us", Tail.first, "us",
          Tail.second + ", " + pauseCount(Pauses)};
}

/// Per-layer metrics of one traced repetition.
std::vector<Metric> layerRow(const RepRecord &R) {
  const CycleTotals &T = R.Totals;
  auto Phase = [&](GcPhase Ph) {
    return double(T.PhaseNanos[static_cast<unsigned>(Ph)]);
  };
  double GCs = double(T.Collections);
  double RootWords = double(T.RootBytes) / 8;
  double PhaseSum = 0;
  for (uint64_t N : T.PhaseNanos)
    PhaseSum += double(N);
  std::vector<double> Alloc = asDoubles(R.AllocNanos);
  std::vector<double> Free = asDoubles(R.FreeNanos);
  std::vector<double> Stops = T.StopMicros;
  std::sort(Alloc.begin(), Alloc.end());
  std::sort(Free.begin(), Free.end());
  std::sort(Stops.begin(), Stops.end());
  double Timed = double(R.Result.TimedNanos);
  return {
      {"heap.alloc_ns_p50", percentile(Alloc, 50), "ns", ""},
      {"heap.alloc_ns_p99", percentile(Alloc, 99), "ns", ""},
      {"heap.free_ns_p50", percentile(Free, 50), "ns", ""},
      {"heap.refills", double(T.Refills), "count", ""},
      {"heap.allocs_per_refill", ratio(double(T.RefillSlots), double(T.Refills)),
       "allocs", ""},
      {"heap.committed_mib_end", double(T.CommittedEnd) / MiB, "MiB", ""},
      {"heap.pages_released", double(T.PagesReleased), "pages", ""},
      {"roots.ns_per_word", ratio(Phase(GcPhase::RootScan), RootWords), "ns",
       ""},
      {"roots.words_per_gc", ratio(RootWords, GCs), "words", ""},
      {"roots.hit_ratio",
       ratio(double(T.RootHits), double(T.RootCandidates)), "ratio", ""},
      {"mark.ns_per_word", ratio(Phase(GcPhase::Mark), double(T.HeapWords)),
       "ns", ""},
      {"mark.words_per_gc", ratio(double(T.HeapWords), GCs), "words", ""},
      {"mark.words_conservative", ratio(double(T.WordsConservative), GCs),
       "words", ""},
      {"mark.words_typed", ratio(double(T.WordsTyped), GCs), "words", ""},
      {"mark.candidate_hit_ratio",
       ratio(double(T.ObjectsMarked - std::min(T.RootHits, T.ObjectsMarked)),
             double(T.HeapCandidates)),
       "ratio", ""},
      {"mark.near_misses", ratio(double(T.NearMisses), GCs), "count", ""},
      {"blacklist.ns_per_gc",
       ratio(Phase(GcPhase::BlacklistPromote) + double(T.BlacklistNanos), GCs),
       "ns", ""},
      {"blacklist.pages", double(T.BlacklistPagesLast), "pages", ""},
      {"sweep.ns_per_object",
       ratio(Phase(GcPhase::Sweep), double(T.ObjectsFreed + T.ObjectsLive)),
       "ns", ""},
      {"sweep.objects_freed_per_gc", ratio(double(T.ObjectsFreed), GCs),
       "objects", ""},
      {"sweep.free_ratio",
       ratio(double(T.ObjectsFreed), double(T.ObjectsFreed + T.ObjectsLive)),
       "ratio", ""},
      {"threads.handshakes", double(T.Handshakes), "count", ""},
      {"threads.stop_us_p50", percentile(Stops, 50), "us", ""},
      {"threads.stop_us_max", Stops.empty() ? 0 : Stops.back(), "us", ""},
      {"threads.cache_slots_flushed_per_gc",
       ratio(double(T.CacheSlotsFlushed), GCs), "slots", ""},
      {"collector.collections", GCs, "count", ""},
      {"collector.gc_share", ratio(double(T.PauseNanos), Timed), "share", ""},
      {"collector.mark_share", ratio(Phase(GcPhase::Mark), Timed), "share",
       ""},
      {"collector.phase_cover", ratio(PhaseSum, double(T.SpanNanos)), "share",
       ""},
  };
}

/// Medians, metric by metric, of the traced repetitions' rows.
std::vector<Metric> perLayer(const std::vector<RepRecord> &Traced) {
  std::vector<std::vector<Metric>> Rows;
  for (const RepRecord &R : Traced)
    Rows.push_back(layerRow(R));
  std::vector<Metric> Out = Rows.front();
  for (size_t M = 0; M != Out.size(); ++M) {
    std::vector<double> Values;
    for (const auto &Row : Rows)
      Values.push_back(Row[M].Value);
    Out[M].Value = median(Values);
    Out[M].Note = "median of " + std::to_string(Rows.size()) + " traced reps";
  }
  return Out;
}

/// Self-check on the collector's own phase timings (the PhaseNanos the
/// collector's timing sink fills in): every phase must report time, and
/// together they must account for at least this share of the phase
/// intervals the benchmark's observer timed itself.  A removed timing
/// sink or a zeroed counter fails here.  The check is not made against
/// collector.phase_cover, because each collection also spends time
/// outside any phase (the blacklist's per-cycle bitmap clear and entry
/// count), which is a quarter of the short collections of mt-churn.
constexpr double MinPhaseAgreement = 0.9;

bool phaseTimingsPlausible(const std::vector<RepRecord> &Reps) {
  double Phases = 0, Observed = 0;
  uint64_t PerPhase[NumGcPhases] = {};
  for (const RepRecord &R : Reps) {
    for (unsigned I = 0; I != NumGcPhases; ++I) {
      PerPhase[I] += R.Totals.PhaseNanos[I];
      Phases += double(R.Totals.PhaseNanos[I]);
    }
    Observed += double(R.Totals.ObservedPhaseNanos);
  }
  bool Ok = true;
  for (unsigned I = 0; I != NumGcPhases; ++I)
    if (PerPhase[I] == 0) {
      std::fprintf(stderr, "perfbench: phase %s reported no time\n",
                   gcPhaseName(static_cast<GcPhase>(I)));
      Ok = false;
    }
  double Agreement = ratio(Phases, Observed);
  std::printf("self-check: collector phase timings / observed phase "
              "intervals = %.4f (need >= %.2f)\n",
              Agreement, MinPhaseAgreement);
  if (Agreement < MinPhaseAgreement) {
    std::fprintf(stderr, "perfbench: collector phase timings disagree with "
                         "the observed phase intervals\n");
    Ok = false;
  }
  return Ok;
}

void printMetrics(std::FILE *Out, const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::fprintf(Out, "  %-36s %14.6g %-8s %s\n", M.Name.c_str(), M.Value,
                 M.Unit, M.Note.c_str());
}

void printJsonMetrics(const std::vector<Metric> &Metrics) {
  bool First = true;
  for (const Metric &M : Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", M.Name.c_str(), M.Value, M.Unit);
    First = false;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload replay|live-graph|mt-churn "
                 "--seed N --seconds S --trace 0|1 [--out DIR] [--scale K]\n");
    return 2;
  }

  BuildInfo Build;
  std::printf("machine: hardware_threads=%u compiler=\"%s\" build_type=%s "
              "optimized=%d sanitizer=%d CGC_FAULT_INJECTION=%s\n",
              Build.HardwareThreads, Build.Compiler.c_str(),
              Build.BuildType.c_str(), Build.Optimized, Build.Sanitized,
              Build.FaultInjection ? "ON" : "OFF");
  if (Build.BuildType == "Debug" || Build.Sanitized || !Build.Optimized) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a "
                         "Debug, unoptimized or sanitizer build\n");
    return 3;
  }
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d scale=%u\n",
              O.Workload.c_str(), O.Seed, O.Seconds, O.Trace ? 1 : 0,
              O.Scale);
  std::fflush(stdout);

  Probe P(MaxTracks);
  P.bindThread(0);
  std::vector<RepRecord> Warmup, Plain, Traced;
  uint64_t WarmupEnd = nowNanos() + uint64_t(WarmupSeconds * 1e9);
  while (Warmup.empty() || nowNanos() < WarmupEnd) {
    P.beginRep();
    RepRecord R;
    R.Result = runRep(O, P, unsigned(Warmup.size()));
    R.Totals = P.totals();
    std::printf("warm-up: %.4f Mops/s\n", R.throughput());
    Warmup.push_back(std::move(R));
  }

  const unsigned MinReps = O.Trace ? 4 : 3;
  uint64_t Start = nowNanos();
  for (unsigned Rep = 0; Rep != MaxReps; ++Rep) {
    double Elapsed = double(nowNanos() - Start) / 1e9;
    if (Rep >= MinReps && Elapsed >= O.Seconds)
      break;
    bool TraceRep = O.Trace && Rep % 2 == 1;
    P.setTraced(TraceRep);
    P.beginRep();
    uint64_t RepBegin = nowNanos();
    RepRecord R;
    R.Result = runRep(O, P, Rep);
    P.recordSpan("repetition", RepBegin, nowNanos());
    R.Totals = P.totals();
    R.AllocNanos = P.gatherSamples(&ThreadTrack::AllocNanos);
    R.FreeNanos = P.gatherSamples(&ThreadTrack::FreeNanos);
    std::printf("rep %2u%s: setup %.4f s, %.4f Mops/s, %" PRIu64
                " collections, gc share %.3f, retained %.4f\n",
                Rep, TraceRep ? " (traced)" : "",
                double(R.Result.SetupNanos) / 1e9, R.throughput(),
                R.Totals.Collections,
                ratio(double(R.Totals.PauseNanos), double(R.Result.TimedNanos)),
                R.Result.RetainedRatio);
    std::fflush(stdout);
    (TraceRep ? Traced : Plain).push_back(std::move(R));
  }
  P.setTraced(false);

  std::vector<RepRecord> All = Warmup;
  All.insert(All.end(), Plain.begin(), Plain.end());
  All.insert(All.end(), Traced.begin(), Traced.end());
  uint64_t Attempted = 0, Failed = 0;
  for (const RepRecord &R : All) {
    Attempted += R.Result.Ops;
    Failed += R.Result.Failed;
  }
  if (!phaseTimingsPlausible(All))
    ++Failed;

  // The JSON result carries pause_tail_us with the per-layer metrics and
  // failed_op_share as "attempted"/"failed"; the table shows all seven.
  std::vector<Metric> E2E = endToEnd(Plain);
  Metric Tail = pauseTail(Plain);
  std::printf("end-to-end (untraced):\n");
  printMetrics(stdout, E2E);
  printMetrics(stdout,
               {Tail,
                {"failed_op_share", ratio(double(Failed), double(Attempted)),
                 "share",
                 std::to_string(Failed) + " of " + std::to_string(Attempted) +
                     " ops, warm-up included"}});

  std::vector<Metric> Layers;
  if (O.Trace) {
    Layers = perLayer(Traced);
    Layers.insert(Layers.begin(), Tail);
    std::vector<double> PlainMops, TracedMops;
    for (const RepRecord &R : Plain)
      PlainMops.push_back(R.throughput());
    for (const RepRecord &R : Traced)
      TracedMops.push_back(R.throughput());
    ExplicitBaseline Base = runExplicitBaseline(inputSet(O, 0));
    Layers.push_back({"baseline.explicit_ns_per_event",
                      ratio(double(Base.Nanos), double(Base.Events)), "ns",
                      "ExplicitHeap LIFO, replay traces"});
    Layers.push_back({"baseline.explicit_peak_mib",
                      double(Base.PeakFootprintBytes) / MiB, "MiB",
                      "ExplicitHeap LIFO, replay traces"});
    Layers.push_back({"trace.overhead_share",
                      1 - ratio(median(TracedMops), median(PlainMops)),
                      "share", "1 - traced / untraced throughput"});

    std::string TracePath = O.OutDir + "/trace-" + O.Workload + "-seed" +
                            std::to_string(O.Seed) + ".json";
    std::string TablePath = O.OutDir + "/layers-" + O.Workload + "-seed" +
                            std::to_string(O.Seed) + ".txt";
    std::printf("per-layer (traced):\n");
    printMetrics(stdout, Layers);
    if (std::FILE *Table = std::fopen(TablePath.c_str(), "w")) {
      printMetrics(Table, Layers);
      std::fclose(Table);
    }
    if (!P.writeChromeTrace(TracePath, O.Workload))
      std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
    std::printf("trace: %s\nlayer table: %s\n", TracePath.c_str(),
                TablePath.c_str());
  }

  bool Correct = Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  printJsonMetrics(O.Trace ? Layers : E2E);
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
