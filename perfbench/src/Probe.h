//===- perfbench/src/Probe.h - Collector observer and span recorder -------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's only window into the collector: a GcObserver that
/// collects pause samples, per-phase timings and per-cycle
/// CollectionStats, plus wrappers that time sampled allocate/free calls
/// from the benchmark's side of the API.  In a traced repetition it
/// also records spans (workload -> collection -> handshake / phase, and
/// the sampled heap calls) in memory, one track per mutator thread, and
/// writes them as Chrome trace-event JSON when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include "core/Collector.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One complete span ("ph":"X" in the Chrome trace format).
struct Span {
  const char *Name;
  uint64_t Begin;
  uint64_t End;
};

/// Per-thread recording state.  Only its owning thread appends; the
/// main thread reads and resets it while that thread is quiescent.
struct ThreadTrack {
  unsigned Tid = 0;
  uint64_t Tick = 0;
  std::vector<uint32_t> AllocNanos;
  std::vector<uint32_t> FreeNanos;
  std::vector<Span> Spans;
};

/// Counters summed over the collections of one repetition.
struct CycleTotals {
  uint64_t Collections = 0;
  uint64_t SpanNanos = 0;  // onCollectionBegin -> onCollectionEnd
  uint64_t PauseNanos = 0; // SpanNanos + handshake
  uint64_t PhaseNanos[cgc::NumGcPhases] = {};
  /// The same phases timed by this observer, onPhaseBegin -> onPhaseEnd.
  uint64_t ObservedPhaseNanos = 0;
  uint64_t RootBytes = 0;
  uint64_t RootCandidates = 0;
  uint64_t RootHits = 0;
  uint64_t HeapWords = 0;
  uint64_t WordsConservative = 0;
  uint64_t WordsTyped = 0;
  uint64_t HeapCandidates = 0;
  uint64_t ObjectsMarked = 0;
  uint64_t NearMisses = 0;
  uint64_t BlacklistNanos = 0;
  uint64_t BlacklistPagesLast = 0;
  uint64_t ObjectsFreed = 0;
  uint64_t ObjectsLive = 0;
  uint64_t PagesReleased = 0;
  uint64_t CacheSlotsFlushed = 0;
  uint64_t Handshakes = 0;
  uint64_t Refills = 0;
  uint64_t RefillSlots = 0;
  uint64_t PeakCommitted = 0;
  uint64_t CommittedEnd = 0;
  std::vector<double> PauseMicros;
  std::vector<double> StopMicros;
};

class Probe final : public cgc::GcObserver {
public:
  explicit Probe(unsigned MaxThreads);

  /// Enables span recording and call sampling for the next repetition.
  void setTraced(bool On) { Traced = On; }

  /// Binds the calling thread to track \p Tid (0 = the main thread).
  void bindThread(unsigned Tid);

  /// Starts observing \p GC; detach() removes exactly the observer id
  /// addObserver returned, never the collector's own sinks.
  void attach(cgc::Collector &GC);
  void detach();

  /// Brackets the timed part of a repetition.  Collections outside it
  /// (set-up, the final measurement collection) only update the
  /// footprint peak, and calls are sampled only inside it.
  void setRecording(bool On) { Recording = On; }

  /// Samples the committed heap outside a collection (end of run).
  void noteEnd(uint64_t Committed) {
    Totals.CommittedEnd = Committed;
    notePeak(Committed);
  }

  /// Clears the per-repetition totals and the threads' call samples.
  void beginRep();
  const CycleTotals &totals() const { return Totals; }
  /// Every thread's timed calls of one kind (&ThreadTrack::AllocNanos
  /// or &ThreadTrack::FreeNanos).
  std::vector<uint32_t>
  gatherSamples(std::vector<uint32_t> ThreadTrack::*Samples) const;

  /// Records a span on the calling thread's track (traced reps only).
  void recordSpan(const char *Name, uint64_t Begin, uint64_t End);

  /// Writes every recorded span as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Workload) const;

  // Sampled wrappers around the heap layer's entry points.
  void *allocate(cgc::Collector &GC, size_t Bytes) {
    return sampled(&ThreadTrack::AllocNanos, "allocate",
                   [&] { return GC.allocate(Bytes); });
  }
  void *allocateTyped(cgc::Collector &GC, cgc::LayoutId Layout) {
    return sampled(&ThreadTrack::AllocNanos, "allocate",
                   [&] { return GC.allocateTyped(Layout); });
  }
  void deallocate(cgc::Collector &GC, void *Ptr) {
    sampled(&ThreadTrack::FreeNanos, "free", [&] {
      GC.deallocate(Ptr);
      return nullptr;
    });
  }

  // GcObserver.  Every callback runs on the collecting thread with the
  // heap lock held, so the totals need no further synchronization.
  void onStopTheWorld(uint64_t MutatorsStopped, uint64_t Nanos) override;
  void onCollectionBegin(uint64_t Index, const char *Reason) override;
  void onPhaseBegin(cgc::GcPhase Phase) override;
  void onPhaseEnd(cgc::GcPhase Phase, uint64_t Nanos,
                  const cgc::CollectionStats &SoFar) override;
  void onCollectionEnd(uint64_t Index,
                       const cgc::CollectionStats &Stats) override;
  void onThreadCacheRefill(unsigned SizeClass, unsigned Slots) override;

private:
  static constexpr uint64_t SampleMask = 63; // time 1 call in 64
  /// Span caps keep the trace file small on long runs; samples feeding
  /// the statistics are never capped.
  static constexpr size_t MaxSpansPerTrack = 40000;
  static constexpr uint64_t SampleSpanEvery = 16;

  void notePeak(uint64_t Committed) {
    if (Committed > Totals.PeakCommitted)
      Totals.PeakCommitted = Committed;
  }
  /// Runs \p Body; in a traced, recording repetition every
  /// (SampleMask + 1)-th call on a thread is timed into \p Samples,
  /// unless a collection ran inside it, and every SampleSpanEvery-th
  /// sample is also kept as a span.
  template <typename Call>
  auto sampled(std::vector<uint32_t> ThreadTrack::*Samples, const char *Name,
               Call &&Body) -> decltype(Body()) {
    ThreadTrack *T = Traced && Recording ? CurrentTrack : nullptr;
    if (!T || (++T->Tick & SampleMask) != 0)
      return Body();
    uint64_t Epoch = CollectionEpoch.load(std::memory_order_relaxed);
    uint64_t Begin = nowNanos();
    auto Result = Body();
    uint64_t End = nowNanos();
    if (CollectionEpoch.load(std::memory_order_relaxed) != Epoch)
      return Result;
    (T->*Samples).push_back(static_cast<uint32_t>(End - Begin));
    if (T->Tick / (SampleMask + 1) % SampleSpanEvery == 0 &&
        T->Spans.size() < MaxSpansPerTrack)
      T->Spans.push_back({Name, Begin, End});
    return Result;
  }

  static inline thread_local ThreadTrack *CurrentTrack = nullptr;
  std::vector<std::unique_ptr<ThreadTrack>> Tracks;
  cgc::Collector *GC = nullptr;
  cgc::GcObserverId Id = 0;
  bool Traced = false;
  bool Recording = false;
  std::atomic<uint64_t> CollectionEpoch{0};
  CycleTotals Totals;
  // Timestamps of the collection in flight.
  uint64_t StopBegin = 0;
  uint64_t StopNanos = 0;
  uint64_t CycleBegin = 0;
  uint64_t PhaseBegin = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
