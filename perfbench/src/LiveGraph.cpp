//===- perfbench/src/LiveGraph.cpp - The live-graph workload --------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Set-up builds a pointer-dense graph of 128-byte records (16 MiB),
// alternating conservative records (allocate) and typed records
// (allocateTyped with the twelve pointer words declared as such).  Every
// record also keeps, in a non-pointer payload word, the address of a
// churn object the workload has already dropped: the conservative scan
// retains that object, the typed scan ignores it.  The timed part is
// single-threaded churn of short-lived objects through a small rotating
// root window, under the default collection policy.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <memory>

using namespace cgc;

namespace perfbench {

namespace {

constexpr uint64_t LiveBytes = 16ull << 20;
constexpr size_t DroppedBytes = 48;
constexpr uint64_t BaseChurnAllocs = 600000;
constexpr unsigned ChurnWindow = 256;
constexpr size_t ChurnSizes[8] = {64, 128, 192, 256, 384, 512, 768, 1024};

struct Record {
  Record *Next;    // spine: every record is reachable from the head
  Record *Edge[11]; // random edges to earlier records
  uint64_t Dropped; // address of a dropped churn object, not a pointer
  uint64_t Index;
  uint64_t Check;
  uint64_t Check2;
};
constexpr unsigned PointerWords = 12;
static_assert(sizeof(Record) == 128, "records are one 128-byte size class");
constexpr uint64_t NumRecords = LiveBytes / sizeof(Record);

/// Roots live in one registered block rather than on the stack.
struct Roots {
  Record *Head = nullptr;
  uint64_t *Window[ChurnWindow] = {};
};

uint64_t recordStamp(uint64_t Seed, uint64_t Index) {
  return mix64(Seed * 0x100000001b3ull + Index);
}

uint64_t churnStamp(uint64_t Seed, uint64_t Op) {
  return mix64(Seed ^ (Op << 1) ^ 0x5a5a);
}

/// \returns the number of bad records reachable from \p Head.
uint64_t verifyGraph(Collector &GC, const Record *Head, uint64_t Seed,
                     uint64_t &BytesReferenced) {
  uint64_t Bad = 0, Count = 0;
  auto Valid = [&](const Record *R) {
    return GC.isAllocated(R) && R->Index < NumRecords &&
           R->Check == recordStamp(Seed, R->Index) &&
           R->Check2 == mix64(R->Check);
  };
  for (const Record *R = Head; R; R = R->Next) {
    ++Count;
    BytesReferenced += GC.objectSizeOf(R);
    if (!Valid(R)) {
      ++Bad;
      break; // the spine beyond a bad record cannot be trusted
    }
    for (const Record *E : R->Edge)
      if (R->Index != 0 && (!E || !Valid(E)))
        ++Bad;
  }
  if (Count != NumRecords)
    ++Bad;
  return Bad;
}

} // namespace

RepResult runLiveGraph(const WorkloadOptions &Options, Probe &P) {
  RepResult Rep;
  uint64_t SetupBegin = nowNanos();
  auto GC = std::make_unique<Collector>(GcConfig());
  GcThreadScope Scope(*GC);
  P.attach(*GC);
  auto R = std::make_unique<Roots>();
  RootId RootRange = GC->addRootRange(R.get(), R.get() + 1,
                                      RootEncoding::Native64,
                                      RootSource::Client, "live-graph");
  std::vector<bool> PointerMap(sizeof(Record) / 8, false);
  std::fill_n(PointerMap.begin(), PointerWords, true);
  LayoutId Layout = GC->registerObjectLayout(PointerMap, sizeof(Record));

  Rng Gen(Options.Seed);
  {
    std::vector<Record *> Index;
    Index.reserve(NumRecords);
    for (uint64_t I = 0; I != NumRecords; ++I) {
      void *Dropped = P.allocate(*GC, DroppedBytes);
      auto *Rec = static_cast<Record *>(
          I & 1 ? P.allocateTyped(*GC, Layout)
                : P.allocate(*GC, sizeof(Record)));
      if (!Rec || !Dropped || !Scope.registered()) {
        ++Rep.Failed;
        break;
      }
      Rec->Next = R->Head;
      for (Record *&E : Rec->Edge)
        E = I ? Index[Gen.below(I)] : nullptr;
      Rec->Dropped = reinterpret_cast<uint64_t>(Dropped);
      Rec->Index = I;
      Rec->Check = recordStamp(Options.Seed, I);
      Rec->Check2 = mix64(Rec->Check);
      R->Head = Rec;
      Index.push_back(Rec);
    }
  }
  Rep.SetupNanos = nowNanos() - SetupBegin;

  P.setRecording(true);
  uint64_t Begin = nowNanos();
  uint64_t Ops = BaseChurnAllocs * Options.Scale;
  for (uint64_t Op = 0; Op != Ops; ++Op) {
    auto *Obj = static_cast<uint64_t *>(
        P.allocate(*GC, ChurnSizes[Gen.next() & 7]));
    if (!Obj) {
      ++Rep.Failed;
      continue;
    }
    *Obj = churnStamp(Options.Seed, Op);
    uint64_t *&Slot = R->Window[Op % ChurnWindow];
    if (Slot && *Slot != churnStamp(Options.Seed, Op - ChurnWindow))
      ++Rep.Failed;
    Slot = Obj;
  }
  Rep.TimedNanos = nowNanos() - Begin;
  P.setRecording(false);
  Rep.Ops = Ops;
  P.recordSpan("live-graph churn", Begin, Begin + Rep.TimedNanos);

  for (uint64_t *&Slot : R->Window)
    Slot = nullptr;
  uint64_t BytesLive = GC->collect("final").BytesLive;
  uint64_t BytesReferenced = 0;
  Rep.Failed += verifyGraph(*GC, R->Head, Options.Seed, BytesReferenced);
  Rep.RetainedRatio = BytesReferenced ? static_cast<double>(BytesLive) /
                                            static_cast<double>(BytesReferenced)
                                      : 0;
  P.noteEnd(GC->committedHeapBytes());
  GC->removeRootRange(RootRange);
  P.detach();
  return Rep;
}

} // namespace perfbench
