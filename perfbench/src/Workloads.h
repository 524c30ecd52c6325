//===- perfbench/src/Workloads.h - Benchmark workloads ----------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads.  Each repetition builds its inputs from the
/// seed (set-up, timed separately), runs a fixed amount of timed work,
/// then runs a final explicit collection and checks the outputs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Probe.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct RepResult {
  /// Operations attempted in the timed part, and how many failed (null
  /// allocation, digest or payload mismatch, accounting mismatch).
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  uint64_t SetupNanos = 0;
  /// Wall time of the timed part, collections included.
  uint64_t TimedNanos = 0;
  /// BytesLive after the final collection / size-class-rounded bytes of
  /// the objects the workload still references.
  double RetainedRatio = 0;
};

struct WorkloadOptions {
  uint64_t Seed = 1;
  /// Multiplies the timed work (the flat-root-scan check varies it).
  unsigned Scale = 1;
};

RepResult runReplay(const WorkloadOptions &Options, Probe &P);
RepResult runLiveGraph(const WorkloadOptions &Options, Probe &P);
RepResult runMtChurn(const WorkloadOptions &Options, Probe &P);

/// Replays the replay workload's recycled-id traces through
/// ExplicitHeap (LIFO), the malloc/free reference.
struct ExplicitBaseline {
  uint64_t Events = 0;
  uint64_t Nanos = 0;
  uint64_t PeakFootprintBytes = 0;
};
ExplicitBaseline runExplicitBaseline(const WorkloadOptions &Options);

/// SplitMix64 step: seeds and payload stamps.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Small deterministic generator for workload inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() { return mix64(State++); }
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
