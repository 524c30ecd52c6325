//===- perfbench/src/MtChurn.cpp - The mt-churn workload ------------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// Four registered mutator threads, each rotating a private root window
// (on its own stack) of small mixed-size objects.  About half of the
// objects leaving a window are freed explicitly with deallocate; the
// rest are dropped for the collector.  Collections are triggered by
// allocation.  Generating each thread's inputs (object sizes and which
// dropped objects to free) and spawning and registering the threads is
// set-up; the final collection runs from the unregistered main thread
// while the workers wait at safepoints with their windows still live.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using namespace cgc;

namespace perfbench {

namespace {

constexpr unsigned Threads = 4;
constexpr uint64_t BaseAllocsPerThread = 600000;
constexpr unsigned Window = 256;
constexpr size_t Sizes[8] = {16, 24, 32, 48, 64, 96, 128, 256};
/// Input byte: bits 0-2 pick the size, bit 3 frees the object this
/// allocation evicts from the window.
constexpr uint8_t FreeEvicted = 8;

struct Shared {
  Collector &GC;
  Probe &P;
  uint64_t Seed;
  uint64_t AllocsPerThread;
  std::vector<uint8_t> Inputs[Threads];
  std::atomic<unsigned> Ready{0};
  std::atomic<unsigned> Done{0};
  std::atomic<bool> Go{false};
  std::atomic<bool> Exit{false};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Allocs{0};
  std::atomic<uint64_t> Frees{0};
  uint64_t FinishNanos[Threads] = {};
  uint64_t *const *Windows[Threads] = {};
};

uint64_t stamp(uint64_t Seed, unsigned Tid, uint64_t Op) {
  return mix64(Seed ^ (uint64_t(Tid) << 56) ^ Op);
}

/// Blocks the main thread (it must not compete with the four mutators
/// for the four hardware threads) until \p Counter reaches \p Target.
void waitFor(const std::atomic<unsigned> &Counter, unsigned Target) {
  for (unsigned V; (V = Counter.load(std::memory_order_acquire)) != Target;)
    Counter.wait(V, std::memory_order_acquire);
}

void arrive(std::atomic<unsigned> &Counter) {
  Counter.fetch_add(1, std::memory_order_release);
  Counter.notify_all();
}

void waitAtSafepoints(Collector &GC, const std::atomic<bool> &Flag) {
  while (!Flag.load(std::memory_order_acquire)) {
    GC.safepoint();
    std::this_thread::yield();
  }
}

void worker(Shared &S, unsigned Tid) {
  S.P.bindThread(Tid + 1);
  GcThreadScope Scope(S.GC);
  if (!Scope.registered()) {
    S.Failed.fetch_add(1);
    arrive(S.Ready);
    arrive(S.Done);
    return;
  }
  uint64_t *Slots[Window] = {};
  S.Windows[Tid] = Slots;
  arrive(S.Ready);
  waitAtSafepoints(S.GC, S.Go);

  const uint8_t *Inputs = S.Inputs[Tid].data();
  uint64_t Failed = 0, Allocs = 0, Frees = 0;
  for (uint64_t Op = 0; Op != S.AllocsPerThread; ++Op) {
    uint8_t Draw = Inputs[Op];
    auto *Obj = static_cast<uint64_t *>(S.P.allocate(S.GC, Sizes[Draw & 7]));
    if (!Obj) {
      ++Failed;
      continue;
    }
    ++Allocs;
    *Obj = stamp(S.Seed, Tid, Op);
    uint64_t *&Slot = Slots[Op % Window];
    if (Slot) {
      if (*Slot != stamp(S.Seed, Tid, Op - Window))
        ++Failed;
      if (Draw & FreeEvicted) {
        S.P.deallocate(S.GC, Slot);
        ++Frees;
      }
    }
    Slot = Obj;
  }
  S.FinishNanos[Tid] = nowNanos();
  S.Failed.fetch_add(Failed);
  S.Allocs.fetch_add(Allocs);
  S.Frees.fetch_add(Frees);
  arrive(S.Done);
  waitAtSafepoints(S.GC, S.Exit);

  // The final collection ran while this window was live: every object
  // in it must still carry its stamp.
  uint64_t N = S.AllocsPerThread;
  for (unsigned I = 0; I != Window && I < N; ++I) {
    uint64_t LastOp = I + (N - 1 - I) / Window * Window;
    if (!Slots[I] || *Slots[I] != stamp(S.Seed, Tid, LastOp))
      S.Failed.fetch_add(1);
  }
}

} // namespace

RepResult runMtChurn(const WorkloadOptions &Options, Probe &P) {
  RepResult Rep;
  uint64_t SetupBegin = nowNanos();
  auto GC = std::make_unique<Collector>(GcConfig());
  P.attach(*GC);
  Shared S{*GC, P, Options.Seed, BaseAllocsPerThread * Options.Scale, {}};
  for (unsigned T = 0; T != Threads; ++T) {
    Rng Gen(mix64(Options.Seed + T));
    S.Inputs[T].resize(S.AllocsPerThread);
    for (uint8_t &Draw : S.Inputs[T])
      Draw = static_cast<uint8_t>(Gen.next() & 15);
  }
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back(worker, std::ref(S), T);
  waitFor(S.Ready, Threads);
  Rep.SetupNanos = nowNanos() - SetupBegin;

  P.setRecording(true);
  uint64_t Begin = nowNanos();
  S.Go.store(true, std::memory_order_release);
  waitFor(S.Done, Threads);
  P.setRecording(false);
  uint64_t End = Begin;
  for (uint64_t Finish : S.FinishNanos)
    End = Finish > End ? Finish : End;
  Rep.TimedNanos = End - Begin;
  P.recordSpan("mt-churn", Begin, End);

  uint64_t BytesLive = GC->collect("final").BytesLive;
  uint64_t BytesReferenced = 0;
  for (uint64_t *const *Slots : S.Windows)
    for (unsigned I = 0; Slots && I != Window; ++I)
      if (Slots[I])
        BytesReferenced += GC->objectSizeOf(Slots[I]);
  S.Exit.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();

  // Unregistering flushed every cache and reversed unconsumed
  // reservations: the heap's counters must match what the threads did.
  const ObjectHeapStats &Heap = GC->heapStats();
  uint64_t Allocs = S.Allocs.load(), Frees = S.Frees.load();
  if (Heap.ObjectsAllocated != Allocs || Heap.ExplicitFrees != Frees) {
    std::fprintf(stderr,
                 "mt-churn: heap counted %llu allocations / %llu frees, "
                 "threads made %llu / %llu\n",
                 static_cast<unsigned long long>(Heap.ObjectsAllocated),
                 static_cast<unsigned long long>(Heap.ExplicitFrees),
                 static_cast<unsigned long long>(Allocs),
                 static_cast<unsigned long long>(Frees));
    S.Failed.fetch_add(1);
  }
  Rep.Ops = uint64_t(Threads) * S.AllocsPerThread + Frees;
  Rep.Failed = S.Failed.load();
  Rep.RetainedRatio = BytesReferenced ? static_cast<double>(BytesLive) /
                                            static_cast<double>(BytesReferenced)
                                      : 0;
  P.noteEnd(GC->committedHeapBytes());
  P.detach();
  return Rep;
}

} // namespace perfbench
