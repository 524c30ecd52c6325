//===- perfbench/src/Replay.cpp - The replay workload ---------------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Replays the canned web, json and ast traces one after another, each
// through a fresh collector with one registered mutator thread.  Free
// records only drop the slot-table reference, so the collector does all
// of the reclaiming.
//
// Trace ids are recycled before replay: replayTrace numbers a slot for
// every id and registers the whole slot table as one root range, so raw
// trace ids (one per allocation ever made) would make root scanning grow
// with trace history instead of with the live set.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "baseline/ExplicitHeap.h"
#include "redirect/TraceLog.h"
#include "redirect/TraceReplay.h"
#include "redirect/TraceScenarios.h"

#include <map>
#include <utility>

using namespace cgc;

namespace perfbench {

namespace {

/// Scenario scale of one repetition at WorkloadOptions::Scale 1.
constexpr unsigned BaseScale = 8;
constexpr uint64_t GcMaxHeapBytes = 768ull << 20;
constexpr uint64_t ExplicitCapacityBytes = 512ull << 20;

constexpr TraceScenario Scenarios[] = {TraceScenario::WebServer,
                                       TraceScenario::JsonDocuments,
                                       TraceScenario::CompilerAst};
constexpr unsigned NumScenarios = 3;

/// A scenario trace after id recycling; the slot table replayTrace
/// registers as a root range shrinks from RawIds to RecycledIds words.
struct RecycledTrace {
  std::vector<unsigned char> Records;
  uint64_t RawIds = 0;
  uint64_t RecycledIds = 0;
};

/// Renumbers slot ids through a free list, so the highest id tracks the
/// peak live set.  A Realloc's new id is taken before its old id is
/// released, because replayTrace allocates the new slot first.
RecycledTrace recycleIds(std::vector<unsigned char> Records) {
  TraceReader Reader;
  Reader.adopt(std::move(Records));
  uint64_t MaxId = Reader.maxId();
  std::vector<uint64_t> NewId(MaxId + 1, 0);
  std::vector<uint64_t> FreeIds;
  uint64_t NextId = 1;
  auto Acquire = [&](uint64_t OldId) {
    uint64_t Id = NextId;
    if (!FreeIds.empty()) {
      Id = FreeIds.back();
      FreeIds.pop_back();
    } else {
      ++NextId;
    }
    NewId[OldId] = Id;
    return Id;
  };
  // \returns the new id \p OldId was mapped to (0 if none) and unmaps it.
  auto Release = [&](uint64_t OldId) -> uint64_t {
    if (OldId == 0 || OldId > MaxId || NewId[OldId] == 0)
      return 0;
    uint64_t Id = NewId[OldId];
    NewId[OldId] = 0;
    FreeIds.push_back(Id);
    return Id;
  };

  RecycledTrace Out;
  Out.RawIds = MaxId;
  Reader.rewind();
  TraceRecord Rec;
  while (Reader.next(Rec)) {
    TraceRecord Mapped = Rec;
    switch (Rec.Op) {
    case TraceOp::Malloc:
    case TraceOp::Calloc:
    case TraceOp::Memalign:
    case TraceOp::Strdup:
      Mapped.Id = Acquire(Rec.Id);
      break;
    case TraceOp::Realloc:
      Mapped.Id = Acquire(Rec.Id);
      Mapped.OldId = Release(Rec.OldId);
      if (Rec.A == 0) // realloc(p, 0) leaves the new slot empty.
        Release(Rec.Id);
      break;
    case TraceOp::Free:
      Mapped.Id = Release(Rec.Id);
      break;
    case TraceOp::ForeignFree:
    case TraceOp::End:
      break;
    }
    appendTraceRecord(Out.Records, Mapped);
  }
  Out.RecycledIds = NextId - 1;
  return Out;
}

struct ReplayInputs {
  RecycledTrace Traces[NumScenarios];
};

ReplayInputs makeInputs(const WorkloadOptions &Options) {
  ReplayInputs In;
  for (unsigned I = 0; I != NumScenarios; ++I)
    In.Traces[I] = recycleIds(generateScenarioTrace(
        Scenarios[I], Options.Seed, BaseScale * Options.Scale));
  return In;
}

class ExplicitReplayAllocator final : public ReplayAllocator {
public:
  ExplicitReplayAllocator()
      : Heap(ExplicitCapacityBytes, baseline::ExplicitHeap::Policy::LifoFit) {}
  void *allocate(size_t Bytes) override { return Heap.malloc(Bytes); }
  void deallocate(void *Ptr) override { Heap.free(Ptr); }
  uint64_t footprintBytes() const override {
    return Heap.stats().FootprintBytes;
  }

private:
  baseline::ExplicitHeap Heap;
};

ReplayResult replayExplicit(std::vector<unsigned char> Trace) {
  TraceReader Reader;
  Reader.adopt(std::move(Trace));
  ExplicitReplayAllocator Allocator;
  return replayTrace(Reader, Allocator);
}

/// The collector behind replayTrace.  At the trace's last allocation it
/// runs the final explicit collection and sums the objects the slot
/// table still references; that time is excluded from the timed run.
class GcReplayAllocator final : public ReplayAllocator {
public:
  GcReplayAllocator(Collector &GC, Probe &P, uint64_t LastAlloc)
      : GC(GC), P(P), LastAlloc(LastAlloc) {}

  void noteSlotTable(void **TablePtr, uint64_t Count) override {
    Table = TablePtr;
    Slots = Count;
    Root = GC.addRootRange(Table, Table + Slots, RootEncoding::Native64,
                           RootSource::Client, "replay-slots");
  }
  void *allocate(size_t Bytes) override {
    void *Ptr = P.allocate(GC, Bytes);
    if (++Allocs == LastAlloc)
      measureRetention(Ptr);
    return Ptr;
  }
  void deallocate(void *) override {}
  uint64_t footprintBytes() const override { return GC.committedHeapBytes(); }
  uint64_t collections() const override {
    return GC.lifetimeStats().Collections;
  }

  /// The slot table dies with replayTrace's frame: unregister it first.
  void dropRoot() {
    if (Root != 0)
      GC.removeRootRange(Root);
    Root = 0;
  }

  bool Measured = false;
  uint64_t ExcludedNanos = 0;
  uint64_t BytesLive = 0;
  uint64_t BytesReferenced = 0;

private:
  void measureRetention(void *Newest) {
    uint64_t Begin = nowNanos();
    P.setRecording(false);
    BytesLive = GC.collect("final").BytesLive;
    P.setRecording(true);
    BytesReferenced = Newest ? GC.objectSizeOf(Newest) : 0;
    for (uint64_t I = 0; I != Slots; ++I)
      if (Table[I])
        BytesReferenced += GC.objectSizeOf(Table[I]);
    ExcludedNanos += nowNanos() - Begin;
    Measured = true;
  }

  Collector &GC;
  Probe &P;
  uint64_t LastAlloc;
  uint64_t Allocs = 0;
  void **Table = nullptr;
  uint64_t Slots = 0;
  RootId Root = 0;
};

/// Allocation events per trace; the last one triggers the retention
/// measurement.
uint64_t countAllocs(const std::vector<unsigned char> &Trace) {
  TraceReader Reader;
  Reader.adopt(Trace);
  uint64_t Allocs = 0;
  TraceRecord Rec;
  while (Reader.next(Rec)) {
    switch (Rec.Op) {
    case TraceOp::Malloc:
    case TraceOp::Memalign:
    case TraceOp::Strdup:
      ++Allocs;
      break;
    case TraceOp::Calloc: // replayTrace refuses an overflowing calloc.
      if (Rec.A == 0 || Rec.requestBytes() / Rec.A == Rec.B)
        ++Allocs;
      break;
    case TraceOp::Realloc:
      if (Rec.A != 0)
        ++Allocs;
      break;
    case TraceOp::Free:
    case TraceOp::ForeignFree:
    case TraceOp::End:
      break;
    }
  }
  return Allocs;
}

} // namespace

RepResult runReplay(const WorkloadOptions &Options, Probe &P) {
  // The reference digests depend only on the inputs: compute them once
  // per (seed, scale), outside both the set-up and the timed run.
  static std::map<std::pair<uint64_t, unsigned>,
                  std::vector<uint64_t>>
      ExpectedDigests;
  auto Key = std::make_pair(Options.Seed, Options.Scale);
  if (!ExpectedDigests.count(Key)) {
    ReplayInputs In = makeInputs(Options);
    for (unsigned I = 0; I != NumScenarios; ++I) {
      RecycledTrace &Trace = In.Traces[I];
      std::printf("replay %s: slot ids %llu recycled to %llu\n",
                  scenarioName(Scenarios[I]),
                  static_cast<unsigned long long>(Trace.RawIds),
                  static_cast<unsigned long long>(Trace.RecycledIds));
      ExpectedDigests[Key].push_back(
          replayExplicit(std::move(Trace.Records)).Digest);
    }
  }
  const std::vector<uint64_t> &Expected = ExpectedDigests[Key];

  RepResult Rep;
  uint64_t SetupBegin = nowNanos();
  ReplayInputs In = makeInputs(Options);
  Rep.SetupNanos += nowNanos() - SetupBegin;

  uint64_t BytesLive = 0, BytesReferenced = 0;
  for (unsigned I = 0; I != NumScenarios; ++I) {
    uint64_t CreateBegin = nowNanos();
    GcConfig Config;
    Config.MaxHeapBytes = GcMaxHeapBytes;
    auto GC = std::make_unique<Collector>(Config);
    GcThreadScope Scope(*GC);
    P.attach(*GC);
    uint64_t LastAlloc = countAllocs(In.Traces[I].Records);
    TraceReader Reader;
    Reader.adopt(std::move(In.Traces[I].Records));
    GcReplayAllocator Allocator(*GC, P, LastAlloc);
    Rep.SetupNanos += nowNanos() - CreateBegin;
    if (!Scope.registered()) {
      ++Rep.Failed;
      P.detach();
      continue;
    }

    uint64_t SpanBegin = nowNanos();
    ReplayOptions ReplayOpts;
    ReplayOpts.HonorFrees = false;
    P.setRecording(true);
    ReplayResult R = replayTrace(Reader, Allocator, ReplayOpts);
    P.setRecording(false);
    Allocator.dropRoot();
    P.recordSpan(scenarioName(Scenarios[I]), SpanBegin, nowNanos());

    Rep.Ops += R.Events;
    Rep.TimedNanos += R.Nanos - Allocator.ExcludedNanos;
    Rep.Failed += R.FailedAllocs;
    if (!Allocator.Measured)
      ++Rep.Failed;
    if (R.Malformed || R.Digest != Expected[I]) {
      std::fprintf(stderr, "replay: %s digest %016llx, expected %016llx\n",
                   scenarioName(Scenarios[I]),
                   static_cast<unsigned long long>(R.Digest),
                   static_cast<unsigned long long>(Expected[I]));
      ++Rep.Failed;
    }
    BytesLive += Allocator.BytesLive;
    BytesReferenced += Allocator.BytesReferenced;
    P.noteEnd(GC->committedHeapBytes());
    P.detach();
  }
  Rep.RetainedRatio = BytesReferenced
                          ? static_cast<double>(BytesLive) /
                                static_cast<double>(BytesReferenced)
                          : 0;
  return Rep;
}

ExplicitBaseline runExplicitBaseline(const WorkloadOptions &Options) {
  ExplicitBaseline Base;
  ReplayInputs In = makeInputs(Options);
  for (auto &Trace : In.Traces) {
    ReplayResult R = replayExplicit(std::move(Trace.Records));
    Base.Events += R.Events;
    Base.Nanos += R.Nanos;
    if (R.PeakFootprintBytes > Base.PeakFootprintBytes)
      Base.PeakFootprintBytes = R.PeakFootprintBytes;
  }
  return Base;
}

} // namespace perfbench
