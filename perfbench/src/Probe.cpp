//===- perfbench/src/Probe.cpp - Collector observer and span recorder -----===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include <cinttypes>
#include <cstdio>

using namespace cgc;

namespace perfbench {

Probe::Probe(unsigned MaxThreads) {
  for (unsigned I = 0; I != MaxThreads; ++I) {
    Tracks.push_back(std::make_unique<ThreadTrack>());
    Tracks.back()->Tid = I;
  }
}

void Probe::bindThread(unsigned Tid) { CurrentTrack = Tracks.at(Tid).get(); }

void Probe::attach(Collector &Target) {
  GC = &Target;
  Id = Target.addObserver(this);
}

void Probe::detach() {
  if (GC && !GC->removeObserver(Id)) {
    std::fprintf(stderr, "perfbench: observer %u was not registered\n", Id);
    std::abort();
  }
  GC = nullptr;
  Id = 0;
}

void Probe::beginRep() {
  Totals = CycleTotals();
  for (auto &T : Tracks) {
    T->AllocNanos.clear();
    T->FreeNanos.clear();
  }
}

std::vector<uint32_t>
Probe::gatherSamples(std::vector<uint32_t> ThreadTrack::*Samples) const {
  std::vector<uint32_t> All;
  for (const auto &T : Tracks)
    All.insert(All.end(), ((*T).*Samples).begin(), ((*T).*Samples).end());
  return All;
}

void Probe::recordSpan(const char *Name, uint64_t Begin, uint64_t End) {
  ThreadTrack *T = CurrentTrack;
  if (Traced && T && T->Spans.size() < MaxSpansPerTrack)
    T->Spans.push_back({Name, Begin, End});
}

void Probe::onStopTheWorld(uint64_t, uint64_t Nanos) {
  CollectionEpoch.fetch_add(1, std::memory_order_relaxed);
  uint64_t Now = nowNanos();
  StopNanos = Nanos;
  StopBegin = Now - Nanos;
  recordSpan("handshake", StopBegin, Now);
}

void Probe::onCollectionBegin(uint64_t, const char *) {
  CollectionEpoch.fetch_add(1, std::memory_order_relaxed);
  CycleBegin = nowNanos();
  if (StopBegin == 0)
    StopBegin = CycleBegin;
}

void Probe::onPhaseBegin(GcPhase) { PhaseBegin = nowNanos(); }

void Probe::onPhaseEnd(GcPhase Phase, uint64_t, const CollectionStats &) {
  uint64_t End = nowNanos();
  if (Recording)
    Totals.ObservedPhaseNanos += End - PhaseBegin;
  recordSpan(gcPhaseName(Phase), PhaseBegin, End);
}

void Probe::onCollectionEnd(uint64_t, const CollectionStats &S) {
  uint64_t End = nowNanos();
  if (GC)
    notePeak(GC->committedHeapBytes());
  if (Recording) {
    CycleTotals &T = Totals;
    uint64_t SpanNanos = End - CycleBegin;
    ++T.Collections;
    T.SpanNanos += SpanNanos;
    T.PauseNanos += SpanNanos + StopNanos;
    T.PauseMicros.push_back(static_cast<double>(SpanNanos + StopNanos) / 1e3);
    if (S.HandshakeNanos != 0 || S.MutatorsStopped != 0 || StopNanos != 0) {
      ++T.Handshakes;
      T.StopMicros.push_back(static_cast<double>(StopNanos) / 1e3);
    }
    for (unsigned I = 0; I != NumGcPhases; ++I)
      T.PhaseNanos[I] += S.PhaseNanos[I];
    T.RootBytes += S.RootBytesScanned;
    T.RootCandidates += S.RootCandidatesExamined;
    T.RootHits += S.RootHits;
    T.HeapWords += S.HeapWordsScanned;
    T.WordsConservative += S.ScanWordsByClass[static_cast<unsigned>(
        DescriptorClass::Conservative)];
    T.WordsTyped +=
        S.ScanWordsByClass[static_cast<unsigned>(DescriptorClass::Precise)];
    for (unsigned I = 0; I != NumDescriptorClasses; ++I)
      T.HeapCandidates += S.ScanCandidatesByClass[I];
    T.ObjectsMarked += S.ObjectsMarked;
    T.NearMisses += S.NearMisses;
    T.BlacklistNanos += S.BlacklistNanos;
    T.BlacklistPagesLast = S.BlacklistedPages;
    T.ObjectsFreed += S.ObjectsSweptFree;
    T.ObjectsLive += S.ObjectsLive;
    T.PagesReleased += S.PagesReleased;
    T.CacheSlotsFlushed += S.CacheSlotsFlushed;
  }
  recordSpan(Recording ? "collection" : "collection (untimed)", StopBegin,
             End);
  StopBegin = 0;
  StopNanos = 0;
}

void Probe::onThreadCacheRefill(unsigned, unsigned Slots) {
  if (!Recording)
    return;
  ++Totals.Refills;
  Totals.RefillSlots += Slots;
}

bool Probe::writeChromeTrace(const std::string &Path,
                             const std::string &Workload) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  uint64_t Origin = UINT64_MAX;
  for (const auto &T : Tracks)
    for (const Span &S : T->Spans)
      Origin = S.Begin < Origin ? S.Begin : Origin;
  std::fprintf(Out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(Out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench %s\"}}",
               Workload.c_str());
  for (const auto &T : Tracks) {
    if (T->Spans.empty())
      continue;
    std::fprintf(Out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s %u\"}}",
                 T->Tid, T->Tid == 0 ? "main" : "mutator", T->Tid);
    for (const Span &S : T->Spans)
      std::fprintf(Out,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   S.Name, T->Tid, static_cast<double>(S.Begin - Origin) / 1e3,
                   static_cast<double>(S.End - S.Begin) / 1e3);
  }
  std::fprintf(Out, "\n]}\n");
  return std::fclose(Out) == 0;
}

} // namespace perfbench
