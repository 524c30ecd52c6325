//===- core/MarkContext.cpp - Conservative marking ------------------------===//

#include "core/MarkContext.h"
#include "support/FaultInjection.h"
#include "support/MathExtras.h"
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

using namespace cgc;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t load64(const unsigned char *P) {
  uint64_t Value;
  std::memcpy(&Value, P, sizeof(Value));
  return Value;
}

// Root spans are scanned whole: a thread stack's dead slots and the
// compiler's redzones between live locals are exactly what a
// conservative collector must read.  Root loads therefore opt out of
// AddressSanitizer, as bdwgc's GC_ATTR_NO_SANITIZE_ADDR does; heap
// scans keep their checks.  __builtin_memcpy keeps each load inline
// rather than a call into the sanitizer's checked memcpy.
#define CGC_NO_SANITIZE_ADDRESS __attribute__((no_sanitize("address")))

CGC_NO_SANITIZE_ADDRESS uint32_t loadRoot32(const unsigned char *P,
                                            bool BigEndian) {
  uint32_t Value;
  __builtin_memcpy(&Value, P, sizeof(Value));
  if (BigEndian)
    Value = __builtin_bswap32(Value);
  return Value;
}

CGC_NO_SANITIZE_ADDRESS uint64_t loadRoot64(const unsigned char *P) {
  uint64_t Value;
  __builtin_memcpy(&Value, P, sizeof(Value));
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

} // namespace

//===----------------------------------------------------------------------===//
// MarkContext
//===----------------------------------------------------------------------===//

MarkContext::MarkContext(VirtualArena &Arena, PageAllocator &Pages,
                         PageMap &Map, BlockTable &Blocks, ObjectHeap &Heap,
                         Blacklist &BlacklistImpl, const GcConfig &Config)
    : Arena(Arena), Pages(Pages), Map(Map), Blocks(Blocks), Heap(Heap),
      BlacklistImpl(BlacklistImpl), Config(Config) {}

ObjectRef MarkContext::resolveCandidate(WindowOffset Candidate) const {
  BlockId Id = Map.blockAt(pageOfOffset(Candidate));
  if (Id == InvalidBlockId)
    return {};
  const BlockDescriptor &Block = Blocks.get(Id);
  int32_t Slot = slotFor(Block, Candidate);
  if (Slot < 0)
    return {};
  // Outside a mark a block may be pending, and then a dead object's
  // alloc bit is still set: slotFor's bitmap test alone would accept it.
  if (Config.PreciseFreeSlotDetection &&
      !Heap.slotAllocated(Block, static_cast<uint32_t>(Slot)))
    return {};
  return {Id, static_cast<uint32_t>(Slot)};
}

void MarkContext::registerDisplacement(uint32_t Displacement) {
  auto It = std::lower_bound(Displacements.begin(), Displacements.end(),
                             Displacement);
  if (It == Displacements.end() || *It != Displacement)
    Displacements.insert(It, Displacement);
}

void MarkContext::markUncollectables(CollectionStats &Stats) {
  // Uncollectable blocks — roots, live by definition, whose contents
  // may hold the only pointer to collectable data — are marked at each
  // allocated slot's base.
  if (Heap.uncollectableBlockCount() == 0)
    return;
  MarkTable &Marks = Heap.markTable();
  Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
    if (!kindIsUncollectable(Block.Kind))
      return;
    const uint64_t *Alloc = Block.AllocBits.words();
    // Pointer-free uncollectable payloads are live by definition but
    // hold no pointers: nothing to trace through them.
    bool Trace = !kindIsPointerFree(Block.Kind);
    for (size_t W = 0, E = Block.AllocBits.numWords(); W != E; ++W) {
      uint64_t Live = Alloc[W] & Block.slotWordMask(W);
      unsigned Count = static_cast<unsigned>(std::popcount(Live));
      Stats.ObjectsMarked += Count;
      Stats.BytesMarked += uint64_t(Count) * Block.ObjectSize;
      for (; Live != 0; Live &= Live - 1) {
        uint32_t Slot = static_cast<uint32_t>(W * 64 + std::countr_zero(Live));
        WindowOffset Base = Block.slotOffset(Slot);
        Marks.set(Base);
        if (Trace)
          Seeds.push_back({Base, Block.ObjectSize, Block.LayoutId});
      }
    }
  });
}

void MarkContext::runRootScan(const RootSet &Roots, CollectionStats &Stats) {
  Seeds.clear();
  markUncollectables(Stats);
  MarkWorker Scanner(*this, Stats);
  for (const RootScanSpan &Span : Roots.scannableSpans())
    Scanner.scanRootSpan(*Span.Range, Span.Begin, Span.End);
  Scanner.flushNearMisses();
}

void MarkContext::runMark(const RootSet &Roots, CollectionStats &Stats) {
  runRootScan(Roots, Stats);
  runMarkPhase(Stats);
}

void MarkContext::markFromCandidate(WindowOffset Candidate,
                                    CollectionStats &Stats) {
  CGC_ASSERT(Seeds.empty(), "resurrection mark with seeds pending");
  MarkWorker Worker(*this, Stats);
  Worker.considerCandidate(Candidate, ScanOrigin::Client);
  Worker.drain();
  recoverFromOverflow(Stats);
}

void MarkContext::runMarkPhase(CollectionStats &Stats) {
  // The paper's marker: one LIFO stack, drained in place.
  MarkWorker Worker(*this, Stats);
  Worker.drain();
  recoverFromOverflow(Stats);
}

void MarkContext::recoverFromOverflow(CollectionStats &Stats) {
  if (!Overflowed)
    return;
  // A dropped push always targets an object whose mark bit was just
  // set, so the lost work is recoverable from the mark bitmap: rescan
  // every marked, allocated, pointer-bearing object (the marker never
  // scans a free slot) and repeat until no pass marks anything new.
  // This is the classic overflow recovery; it converges even while the
  // fault stays armed, because a pass that marks nothing new also
  // pushes (and therefore drops) nothing.
  uint64_t Before;
  do {
    Overflowed = false;
    Before = Stats.ObjectsMarked;
    Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
      if (kindIsPointerFree(Block.Kind))
        return;
      uint64_t Mark[MarkTable::MaxSlotWords];
      Heap.markTable().gather(Block, Mark);
      const uint64_t *Alloc = Block.AllocBits.words();
      for (size_t W = 0, E = Block.AllocBits.numWords(); W != E; ++W)
        for (uint64_t Bits = Mark[W] & Alloc[W]; Bits != 0;
             Bits &= Bits - 1) {
          uint32_t Slot =
              static_cast<uint32_t>(W * 64 + std::countr_zero(Bits));
          Seeds.push_back({Block.slotOffset(Slot), Block.ObjectSize,
                           Block.LayoutId});
        }
    });
    MarkWorker Worker(*this, Stats);
    Worker.drain();
  } while (Stats.ObjectsMarked != Before);
}

//===----------------------------------------------------------------------===//
// MarkWorker
//===----------------------------------------------------------------------===//

MarkWorker::MarkWorker(MarkContext &Ctx, CollectionStats &Stats)
    : Ctx(Ctx), Stats(Stats),
      HeapBase(reinterpret_cast<const unsigned char *>(Ctx.Arena.base())),
      Marks(Ctx.Heap.markTable()), Stack(Ctx.Seeds),
      Epoch(Ctx.Heap.markEpoch()),
      FaultsArmed(FaultInjector::instance().anyArmed()) {}

MarkWorker::~MarkWorker() {
  CGC_ASSERT(NumNearMisses == 0, "mark worker dropped unflushed near misses");
}

void MarkWorker::push(const MarkWorkItem &Item) {
  if (FaultsArmed && CGC_INJECT_FAULT(MarkStackOverflow)) {
    // Simulated mark-stack overflow: drop the item (its object is
    // already marked) and flag the context so recoverFromOverflow
    // rebuilds the closure from the mark bitmap afterwards.
    ++Stats.MarkStackOverflows;
    Ctx.Overflowed = true;
    return;
  }
  // Start pulling the object's first line in while the scan of its
  // parent goes on (bdwgc's GC_mark_from does the same).
  __builtin_prefetch(HeapBase + Item.Begin);
  Stack.push_back(Item);
}

void MarkWorker::noteNearMiss(PageIndex Page, ScanOrigin Origin) {
  if (!Ctx.Pages.inPotentialHeap(Page))
    return;
  if (NumNearMisses == NearMissBatch)
    flushNearMisses();
  NearMisses[NumNearMisses++] = Page;
  ++Stats.NearMisses;
  ++Stats.NearMissesByOrigin[static_cast<unsigned>(Origin)];
}

void MarkWorker::flushNearMisses() {
  if (NumNearMisses == 0)
    return;
  // Blacklisting is idempotent per page, so replaying a batch later
  // yields the same blacklist.
  uint64_t Start = nowNanos();
  for (unsigned I = 0; I != NumNearMisses; ++I)
    Ctx.BlacklistImpl.noteCandidate(NearMisses[I]);
  Stats.BlacklistNanos += nowNanos() - Start;
  NumNearMisses = 0;
}

bool MarkWorker::considerCandidate(WindowOffset Candidate,
                                   ScanOrigin Origin, bool PreciseWord) {
  // Figure 2's "if p is marked return", asked first.  Most candidates
  // hit an object that is already marked, and a table bit is set only
  // at a marked slot's base, which every interior-pointer policy
  // accepts: a set bit settles the candidate with one load, before the
  // validity test.
  if (Marks.isMarkedBase(Candidate))
    return false;
  // "if p is not a valid object address": one page-map probe and one
  // descriptor fetch, shared with the marking below.
  PageIndex Page = pageOfOffset(Candidate);
  BlockId Id = Ctx.Map.blockAt(Page);
  BlockDescriptor *Block = nullptr;
  int32_t Slot = -1;
  if (Id != InvalidBlockId) {
    Block = &Ctx.Blocks.get(Id);
    Slot = Ctx.slotFor(*Block, Candidate);
  }
  if (Slot < 0) {
    // "if p is in the vicinity of the heap, add p to blacklist".  The
    // proximity test shares its page probe with the validity check.
    // A word the descriptor declared to be a pointer can't be a
    // misidentified integer: its failed resolution is stale or foreign
    // data, so it neither blacklists the page nor counts as a near
    // miss.
    if (!PreciseWord)
      noteNearMiss(Page, Origin);
    return false;
  }
  // "if p is marked return; set mark bit for p", at the slot's base:
  // the candidate may point inside an object already marked.
  WindowOffset Base = Block->slotOffset(static_cast<uint32_t>(Slot));
  if (Marks.test(Base))
    return false;
  Marks.set(Base);
  ++Stats.ObjectsMarked;
  Stats.BytesMarked += Block->ObjectSize;
  ++Stats.MarksByOrigin[static_cast<unsigned>(Origin)];
  // The sweep pass counts a partly marked block from this tally: its
  // marked free slots are its pins, and the rest of its marks are its
  // live objects.
  bool Allocated = Block->AllocBits.test(static_cast<uint32_t>(Slot));
  ObjectHeap::tallyMark(*Block, Allocated, Epoch);
  // "for each field q ... mark(q)" — deferred to the mark stack, and
  // skipped entirely for objects declared pointer-free.  A marked free
  // slot (a false reference; the sweep pins it) is never scanned: its
  // bytes are a dead object's, which nothing zeroed.
  if (Allocated && !kindIsPointerFree(Block->Kind))
    push({Base, Block->ObjectSize, Block->LayoutId});
  return true;
}

// The scan loops keep their counters and the arena bounds in locals and
// fold the counters into Stats once per object (or span): a store
// through Stats per word would also force the bounds to be reloaded on
// every iteration.

void MarkWorker::scanTypedObject(WindowOffset Begin, uint32_t Bytes,
                                 uint32_t LayoutId) {
  const TypeDescriptor &D = Ctx.Heap.layout(LayoutId);
  const unsigned char *Base = HeapBase + Begin;
  const Address ArenaBase = Ctx.Arena.base();
  const uint64_t ArenaSize = Ctx.Arena.size();
  // The slot can be larger than the type (size-class rounding); the
  // tail past the descriptor is never traced.
  uint32_t Words = std::min<uint32_t>(
      D.NumWords, Bytes / static_cast<uint32_t>(sizeof(uint64_t)));
  uint64_t Scanned = 0, Candidates = 0;
  D.forEachPointerWord(Words, [&](uint32_t Word) {
    ++Scanned;
    WindowOffset Offset = load64(Base + Word * sizeof(uint64_t)) - ArenaBase;
    if (Offset >= ArenaSize)
      return true;
    ++Candidates;
    considerCandidate(Offset, ScanOrigin::Heap, /*PreciseWord=*/true);
    return true;
  });
  constexpr unsigned Precise =
      static_cast<unsigned>(DescriptorClass::Precise);
  Stats.HeapWordsScanned += Scanned;
  Stats.ScanWordsByClass[Precise] += Scanned;
  Stats.ScanCandidatesByClass[Precise] += Candidates;
}

void MarkWorker::scanHeapRange(WindowOffset Begin, uint32_t Bytes) {
  if (Bytes < sizeof(uint64_t))
    return;
  unsigned Stride = Ctx.Config.HeapScanAlignment;
  CGC_CHECK(Stride >= 1 && Stride <= 8, "bad heap scan alignment");
  const unsigned char *P = HeapBase + Begin;
  const unsigned char *Last = P + (Bytes - sizeof(uint64_t));
  const Address ArenaBase = Ctx.Arena.base();
  const uint64_t ArenaSize = Ctx.Arena.size();
  uint64_t Candidates = 0;
  for (; P <= Last; P += Stride) {
    WindowOffset Offset = load64(P) - ArenaBase;
    if (Offset >= ArenaSize)
      continue;
    ++Candidates;
    considerCandidate(Offset, ScanOrigin::Heap);
  }
  constexpr unsigned Cons =
      static_cast<unsigned>(DescriptorClass::Conservative);
  uint64_t Scanned = (Bytes - sizeof(uint64_t)) / Stride + 1;
  Stats.HeapWordsScanned += Scanned;
  Stats.ScanWordsByClass[Cons] += Scanned;
  Stats.ScanCandidatesByClass[Cons] += Candidates;
}

CGC_NO_SANITIZE_ADDRESS void
MarkWorker::scanRootSpan(const RootRange &Range, const unsigned char *Begin,
                         const unsigned char *End) {
  Stats.RootBytesScanned += static_cast<uint64_t>(End - Begin);
  unsigned Stride = Ctx.Config.RootScanAlignment;
  CGC_CHECK(Stride >= 1 && Stride <= 8, "bad root scan alignment");
  ScanOrigin Origin = originOf(Range.Source);
  uint64_t Examined = 0, Hits = 0;

  if (Range.Encoding == RootEncoding::Native64) {
    const Address ArenaBase = Ctx.Arena.base();
    const uint64_t ArenaSize = Ctx.Arena.size();
    for (const unsigned char *P = Begin;
         End - P >= static_cast<ptrdiff_t>(sizeof(uint64_t)); P += Stride) {
      ++Examined;
      WindowOffset Offset = loadRoot64(P) - ArenaBase;
      if (Offset >= ArenaSize)
        continue;
      Hits += considerCandidate(Offset, Origin);
    }
  } else {
    // Window32: every 32-bit value is an offset into the window, exactly
    // as every 32-bit integer was an address on the paper's machines.
    bool BigEndian = Range.Encoding == RootEncoding::Window32BE;
    for (const unsigned char *P = Begin;
         End - P >= static_cast<ptrdiff_t>(sizeof(uint32_t)); P += Stride) {
      ++Examined;
      WindowOffset Offset = loadRoot32(P, BigEndian);
      if (!Ctx.Arena.containsOffset(Offset))
        continue;
      Hits += considerCandidate(Offset, Origin);
    }
  }
  Stats.RootCandidatesExamined += Examined;
  Stats.RootHits += Hits;
}

void MarkWorker::scanObject(const MarkWorkItem &Item) {
  if (Item.LayoutId != 0)
    scanTypedObject(Item.Begin, Item.Bytes, Item.LayoutId);
  else
    scanHeapRange(Item.Begin, Item.Bytes);
}

void MarkWorker::drain() {
  while (!Stack.empty()) {
    MarkWorkItem Item = Stack.back();
    Stack.pop_back();
    scanObject(Item);
  }
  flushNearMisses();
}
