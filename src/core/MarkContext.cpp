//===- core/MarkContext.cpp - Conservative marking ------------------------===//

#include "core/MarkContext.h"
#include "support/FaultInjection.h"
#include "support/MathExtras.h"
#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

using namespace cgc;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t load32(const unsigned char *P, bool BigEndian) {
  uint32_t Value;
  std::memcpy(&Value, P, sizeof(Value));
  if (BigEndian)
    Value = __builtin_bswap32(Value);
  return Value;
}

uint64_t load64(const unsigned char *P) {
  uint64_t Value;
  std::memcpy(&Value, P, sizeof(Value));
  return Value;
}

ScanOrigin originOf(RootSource Source) {
  switch (Source) {
  case RootSource::StaticData:
    return ScanOrigin::StaticData;
  case RootSource::Stack:
    return ScanOrigin::Stack;
  case RootSource::Registers:
    return ScanOrigin::Registers;
  case RootSource::Client:
    return ScanOrigin::Client;
  }
  return ScanOrigin::Client;
}

/// Private-stack size at which a parallel worker exposes work, and the
/// batch size it exposes/steals.  Exposing the oldest half keeps the
/// hot (deepest) end private while thieves receive the widest subtrees.
constexpr size_t ExposeThreshold = 64;
constexpr size_t ExposeBatch = ExposeThreshold / 2;

} // namespace

//===----------------------------------------------------------------------===//
// MarkContext
//===----------------------------------------------------------------------===//

MarkContext::MarkContext(VirtualArena &Arena, PageAllocator &Pages,
                         PageMap &Map, BlockTable &Blocks, ObjectHeap &Heap,
                         Blacklist &BlacklistImpl, GcWorkerPool &Pool,
                         const GcConfig &Config)
    : Arena(Arena), Pages(Pages), Map(Map), Blocks(Blocks), Heap(Heap),
      BlacklistImpl(BlacklistImpl), Pool(Pool), Config(Config) {}

MarkContext::~MarkContext() = default;

ObjectRef MarkContext::resolveCandidate(WindowOffset Candidate) const {
  BlockId Id = Map.blockAt(pageOfOffset(Candidate));
  if (Id == InvalidBlockId)
    return {};
  const BlockDescriptor &Block = Blocks.get(Id);
  int32_t Slot = Block.slotContaining(Candidate);
  if (Slot < 0)
    return {};
  uint32_t SlotIdx = static_cast<uint32_t>(Slot);
  WindowOffset Base = Block.slotOffset(SlotIdx);
  // Per-object override first (observation 7's remedy): pointers past
  // the first page never retain an ignore-off-page object.
  if (Block.IgnoreOffPage && Candidate - Base >= PageSize)
    return {};
  switch (Config.Interior) {
  case InteriorPolicy::All:
    break;
  case InteriorPolicy::BaseOnly: {
    if (Candidate != Base &&
        !std::binary_search(Displacements.begin(), Displacements.end(),
                            static_cast<uint32_t>(Candidate - Base)))
      return {};
    break;
  }
  case InteriorPolicy::FirstPage:
    if (Candidate - Base >= PageSize)
      return {};
    break;
  }
  if (Config.PreciseFreeSlotDetection && !Block.AllocBits.test(SlotIdx))
    return {};
  return {Id, SlotIdx};
}

void MarkContext::registerDisplacement(uint32_t Displacement) {
  auto It = std::lower_bound(Displacements.begin(), Displacements.end(),
                             Displacement);
  if (It == Displacements.end() || *It != Displacement)
    Displacements.insert(It, Displacement);
}

void MarkContext::markUncollectableObjects(CollectionStats &Stats) {
  Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
    if (!kindIsUncollectable(Block.Kind))
      return;
    for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot) {
      if (!Block.AllocBits.test(Slot))
        continue;
      if (Block.MarkBits.testAndSet(Slot))
        continue;
      ++Stats.ObjectsMarked;
      Stats.BytesMarked += Block.ObjectSize;
      // Pointer-free uncollectable payloads are live by definition but
      // hold no pointers: nothing to trace through them.
      if (kindIsPointerFree(Block.Kind))
        continue;
      Seeds.push_back({Block.slotOffset(Slot), Block.ObjectSize,
                       Block.LayoutId});
    }
  });
}

void MarkContext::runRootScan(const RootSet &Roots, CollectionStats &Stats) {
  Heap.clearMarks();
  Seeds.clear();
  // Uncollectable objects are roots: live by definition, and their
  // contents may hold the only pointer to collectable data.
  markUncollectableObjects(Stats);
  MarkWorker Scanner(*this, Stats, &Seeds);
  for (const RootScanSpan &Span : Roots.scannableSpans())
    Scanner.scanRootSpan(*Span.Range, Span.Begin, Span.End);
}

void MarkContext::runMark(const RootSet &Roots, CollectionStats &Stats) {
  runRootScan(Roots, Stats);
  runMarkPhase(Stats);
}

void MarkContext::markFromCandidate(WindowOffset Candidate,
                                    CollectionStats &Stats) {
  std::vector<MarkWorkItem> Stack;
  MarkWorker Worker(*this, Stats, &Stack);
  Worker.considerCandidate(Candidate, ScanOrigin::Client);
  Worker.drainSequential(Stack);
  recoverFromOverflow(Stats);
}

void MarkContext::runMarkPhase(CollectionStats &Stats) {
  unsigned Workers = std::clamp(Config.MarkThreads, 1u, MaxWorkers);
  // Negotiate the worker count only when the parallel path would
  // actually run: a failed spawn degrades the phase, never aborts it,
  // and the sequential configurations still never touch the pool.
  if (Workers > 1 && Seeds.size() >= 2)
    Workers = Pool.ensureWorkers(Workers);
  Stats.MarkWorkers = Workers;
  if (Workers == 1 || Seeds.size() < 2) {
    // The paper's marker: one LIFO stack, drained in place.
    MarkWorker Worker(*this, Stats, &Seeds);
    Worker.drainSequential(Seeds);
    recoverFromOverflow(Stats);
    return;
  }

  while (Slots.size() < Workers)
    Slots.push_back(std::make_unique<StealSlot>());
  for (unsigned I = 0; I != Workers; ++I)
    Slots[I]->Items.clear();

  // Per-worker scan counters; merged below so the shared record is
  // never written concurrently.
  std::vector<CollectionStats> WorkerStats(Workers);
  std::vector<std::unique_ptr<MarkWorker>> WorkersVec;
  WorkersVec.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    WorkersVec.push_back(
        std::make_unique<MarkWorker>(*this, WorkerStats[I], I, Workers));

  // Round-robin seeding: root-scan candidates arrive in scan order, so
  // neighboring seeds (often the same structure) spread across workers.
  for (size_t I = 0; I != Seeds.size(); ++I)
    WorkersVec[I % Workers]->seed(Seeds[I]);
  InFlight.store(Seeds.size(), std::memory_order_relaxed);
  Seeds.clear();

  // Hand the drain to the persistent pool: worker 0 is this thread,
  // the rest are parked pool threads (spawned once, ever).
  Pool.runOn(Workers,
             [&WorkersVec](unsigned Id) { WorkersVec[Id]->runParallel(); });

  // Sequential epilogue: replay buffered blacklist candidates in worker
  // order, then fold the per-worker counters into the cycle record.
  for (unsigned I = 0; I != Workers; ++I)
    WorkersVec[I]->flushBlacklist();
  for (unsigned I = 0; I != Workers; ++I)
    Stats.addScanCounters(WorkerStats[I]);
  recoverFromOverflow(Stats);
}

void MarkContext::recoverFromOverflow(CollectionStats &Stats) {
  if (!Overflowed.load(std::memory_order_acquire))
    return;
  // A dropped push always targets an object whose mark bit was just
  // set, so the lost work is recoverable from the mark bitmap: rescan
  // every marked pointer-bearing object and repeat until no pass marks
  // anything new.  This is the classic overflow recovery; it converges
  // even while the fault stays armed, because a pass that marks
  // nothing new also pushes (and therefore drops) nothing.
  uint64_t Before;
  do {
    Overflowed.store(false, std::memory_order_relaxed);
    Before = Stats.ObjectsMarked;
    std::vector<MarkWorkItem> Stack;
    Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
      if (kindIsPointerFree(Block.Kind))
        return;
      for (uint32_t Slot = 0; Slot != Block.ObjectCount; ++Slot)
        if (Block.MarkBits.test(Slot))
          Stack.push_back({Block.slotOffset(Slot), Block.ObjectSize,
                           Block.LayoutId});
    });
    MarkWorker Worker(*this, Stats, &Stack);
    Worker.drainSequential(Stack);
  } while (Stats.ObjectsMarked != Before);
}

//===----------------------------------------------------------------------===//
// MarkWorker
//===----------------------------------------------------------------------===//

MarkWorker::MarkWorker(MarkContext &Ctx, CollectionStats &Stats,
                       std::vector<MarkWorkItem> *ExternalStack)
    : Ctx(Ctx), Stats(Stats), ExternalStack(ExternalStack) {}

MarkWorker::MarkWorker(MarkContext &Ctx, CollectionStats &Stats, unsigned Id,
                       unsigned NumWorkers)
    : Ctx(Ctx), Stats(Stats), Id(Id), NumWorkers(NumWorkers),
      Parallel(true) {}

void MarkWorker::push(const MarkWorkItem &Item) {
  if (CGC_INJECT_FAULT(MarkStackOverflow)) {
    // Simulated mark-stack overflow: drop the item (its object is
    // already marked) and flag the context so recoverFromOverflow
    // rebuilds the closure from the mark bitmap afterwards.  Sits before the
    // InFlight bump so parallel termination detection stays balanced.
    ++Stats.MarkStackOverflows;
    Ctx.Overflowed.store(true, std::memory_order_release);
    return;
  }
  if (!Parallel) {
    ExternalStack->push_back(Item);
    return;
  }
  Ctx.InFlight.fetch_add(1, std::memory_order_acq_rel);
  Local.push_back(Item);
  if (Local.size() >= ExposeThreshold)
    exposeForStealing();
}

void MarkWorker::seed(const MarkWorkItem &Item) { Local.push_back(Item); }

void MarkWorker::considerCandidate(WindowOffset Candidate,
                                   ScanOrigin Origin, bool PreciseWord) {
  // Figure 2, line by line.  "if p is not a valid object address":
  ObjectRef Ref = Ctx.resolveCandidate(Candidate);
  if (!Ref.valid()) {
    // "if p is in the vicinity of the heap, add p to blacklist".  The
    // proximity test shares its page probe with the validity check.
    // A word the descriptor declared to be a pointer can't be a
    // misidentified integer: its failed resolution is stale or foreign
    // data, so it neither blacklists the page nor counts as a near
    // miss.
    if (PreciseWord)
      return;
    PageIndex Page = pageOfOffset(Candidate);
    if (Ctx.Pages.inPotentialHeap(Page)) {
      if (Parallel) {
        // The blacklist is single-threaded; buffer for the post-join
        // flush (timed there, preserving the footnote-3 measurement).
        BlacklistBuffer.push_back(Page);
      } else {
        uint64_t Start = nowNanos();
        Ctx.BlacklistImpl.noteCandidate(Page);
        Stats.BlacklistNanos += nowNanos() - Start;
      }
      ++Stats.NearMisses;
      ++Stats.NearMissesByOrigin[static_cast<unsigned>(Origin)];
    }
    return;
  }
  // "if p is marked return; set mark bit for p" — atomically, so N
  // workers racing on one object mark (and push) it exactly once.
  BlockDescriptor &Block = Ctx.Blocks.get(Ref.Block);
  if (Block.testAndSetMark(Ref.Slot))
    return;
  ++Stats.ObjectsMarked;
  Stats.BytesMarked += Block.ObjectSize;
  ++Stats.MarksByOrigin[static_cast<unsigned>(Origin)];
  // "for each field q ... mark(q)" — deferred to the mark stack, and
  // skipped entirely for objects declared pointer-free.
  if (!kindIsPointerFree(Block.Kind))
    push({Block.slotOffset(Ref.Slot), Block.ObjectSize, Block.LayoutId});
}

void MarkWorker::scanTypedObject(WindowOffset Begin, uint32_t Bytes,
                                 uint32_t LayoutId) {
  const TypeDescriptor &D = Ctx.Heap.layout(LayoutId);
  const unsigned char *Base =
      static_cast<const unsigned char *>(Ctx.Arena.pointerTo(Begin));
  // The slot can be larger than the type (size-class rounding); the
  // tail past the descriptor is never traced.
  uint32_t Words = std::min<uint32_t>(
      D.NumWords, Bytes / static_cast<uint32_t>(sizeof(uint64_t)));
  constexpr unsigned Precise =
      static_cast<unsigned>(DescriptorClass::Precise);
  for (uint32_t Word = D.findPointerWord(0); Word < Words;
       Word = D.findPointerWord(Word + 1)) {
    ++Stats.HeapWordsScanned;
    ++Stats.ScanWordsByClass[Precise];
    uint64_t Value = load64(Base + Word * sizeof(uint64_t));
    Address Addr = static_cast<Address>(Value);
    if (!Ctx.Arena.contains(Addr))
      continue;
    ++Stats.ScanCandidatesByClass[Precise];
    considerCandidate(Ctx.Arena.offsetOf(Addr), ScanOrigin::Heap,
                      /*PreciseWord=*/true);
  }
}

void MarkWorker::scanHeapRange(WindowOffset Begin, uint32_t Bytes) {
  if (Bytes < sizeof(uint64_t))
    return;
  const unsigned char *P =
      static_cast<const unsigned char *>(Ctx.Arena.pointerTo(Begin));
  const unsigned char *End = P + Bytes;
  unsigned Stride = Ctx.Config.HeapScanAlignment;
  CGC_CHECK(Stride >= 1 && Stride <= 8, "bad heap scan alignment");
  constexpr unsigned Cons =
      static_cast<unsigned>(DescriptorClass::Conservative);
  for (; P + sizeof(uint64_t) <= End; P += Stride) {
    ++Stats.HeapWordsScanned;
    ++Stats.ScanWordsByClass[Cons];
    uint64_t Word = load64(P);
    Address Addr = static_cast<Address>(Word);
    if (!Ctx.Arena.contains(Addr))
      continue;
    ++Stats.ScanCandidatesByClass[Cons];
    considerCandidate(Ctx.Arena.offsetOf(Addr), ScanOrigin::Heap);
  }
}

void MarkWorker::scanRootSpan(const RootRange &Range,
                              const unsigned char *Begin,
                              const unsigned char *End) {
  Stats.RootBytesScanned += static_cast<uint64_t>(End - Begin);
  unsigned Stride = Ctx.Config.RootScanAlignment;
  CGC_CHECK(Stride >= 1 && Stride <= 8, "bad root scan alignment");

  if (Range.Encoding == RootEncoding::Native64) {
    if (static_cast<size_t>(End - Begin) < sizeof(uint64_t))
      return;
    for (const unsigned char *P = Begin; P + sizeof(uint64_t) <= End;
         P += Stride) {
      ++Stats.RootCandidatesExamined;
      uint64_t Word = load64(P);
      Address Addr = static_cast<Address>(Word);
      if (!Ctx.Arena.contains(Addr))
        continue;
      WindowOffset Offset = Ctx.Arena.offsetOf(Addr);
      uint64_t Before = Stats.ObjectsMarked;
      considerCandidate(Offset, originOf(Range.Source));
      if (Stats.ObjectsMarked != Before)
        ++Stats.RootHits;
    }
    return;
  }

  // Window32: every 32-bit value is an offset into the window, exactly
  // as every 32-bit integer was an address on the paper's machines.
  bool BigEndian = Range.Encoding == RootEncoding::Window32BE;
  if (static_cast<size_t>(End - Begin) < sizeof(uint32_t))
    return;
  for (const unsigned char *P = Begin; P + sizeof(uint32_t) <= End;
       P += Stride) {
    ++Stats.RootCandidatesExamined;
    WindowOffset Offset = load32(P, BigEndian);
    if (!Ctx.Arena.containsOffset(Offset))
      continue;
    uint64_t Before = Stats.ObjectsMarked;
    considerCandidate(Offset, originOf(Range.Source));
    if (Stats.ObjectsMarked != Before)
      ++Stats.RootHits;
  }
}

void MarkWorker::scanObject(const MarkWorkItem &Item) {
  if (Item.LayoutId != 0)
    scanTypedObject(Item.Begin, Item.Bytes, Item.LayoutId);
  else
    scanHeapRange(Item.Begin, Item.Bytes);
}

void MarkWorker::drainSequential(std::vector<MarkWorkItem> &Stack) {
  CGC_ASSERT(&Stack == ExternalStack, "draining a foreign stack");
  while (!Stack.empty()) {
    MarkWorkItem Item = Stack.back();
    Stack.pop_back();
    scanObject(Item);
  }
}

void MarkWorker::exposeForStealing() {
  MarkContext::StealSlot &Slot = *Ctx.Slots[Id];
  std::lock_guard<std::mutex> Guard(Slot.Lock);
  // Donate the oldest (widest) half; keep the hot end private.
  Slot.Items.insert(Slot.Items.end(), Local.begin(),
                    Local.begin() + ExposeBatch);
  Local.erase(Local.begin(), Local.begin() + ExposeBatch);
}

bool MarkWorker::takeSharedWork() {
  // Reclaim our own slot first (no contention in the common case)...
  {
    MarkContext::StealSlot &Own = *Ctx.Slots[Id];
    std::lock_guard<std::mutex> Guard(Own.Lock);
    if (!Own.Items.empty()) {
      Local.swap(Own.Items);
      return true;
    }
  }
  // ...then steal a batch from a victim, scanning the ring from our
  // right neighbor so thieves spread over victims.
  for (unsigned Step = 1; Step != NumWorkers; ++Step) {
    unsigned Victim = (Id + Step) % NumWorkers;
    MarkContext::StealSlot &Slot = *Ctx.Slots[Victim];
    std::unique_lock<std::mutex> Guard(Slot.Lock, std::try_to_lock);
    if (!Guard.owns_lock() || Slot.Items.empty())
      continue;
    size_t Take = std::min(Slot.Items.size(), ExposeBatch);
    Local.insert(Local.end(), Slot.Items.begin(),
                 Slot.Items.begin() + Take);
    Slot.Items.erase(Slot.Items.begin(), Slot.Items.begin() + Take);
    return true;
  }
  return false;
}

void MarkWorker::runParallel() {
  CGC_ASSERT(Parallel, "runParallel on a sequential worker");
  for (;;) {
    while (!Local.empty()) {
      MarkWorkItem Item = Local.back();
      Local.pop_back();
      scanObject(Item);
      Ctx.InFlight.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (takeSharedWork())
      continue;
    if (Ctx.InFlight.load(std::memory_order_acquire) == 0)
      return;
    std::this_thread::yield();
  }
}

void MarkWorker::flushBlacklist() {
  if (BlacklistBuffer.empty())
    return;
  uint64_t Start = nowNanos();
  for (PageIndex Page : BlacklistBuffer)
    Ctx.BlacklistImpl.noteCandidate(Page);
  Stats.BlacklistNanos += nowNanos() - Start;
  BlacklistBuffer.clear();
}
