//===- core/MarkContext.cpp - Conservative marking ------------------------===//

#include "core/MarkContext.h"
#include "support/Clock.h"
#include "support/FaultInjection.h"
#include "support/MathExtras.h"
#include <algorithm>

using namespace cgc;

namespace {

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
    // Pointer-free uncollectable payloads are live by definition but
    // hold no pointers: nothing to trace through them.
    bool Trace = !kindIsPointerFree(Block.Kind);
    Heap.forEachAllocatedSlot(Block, [&](uint32_t Slot) {
      WindowOffset Base = Block.slotOffset(Slot);
      Marks.set(Base);
      ++Stats.ObjectsMarked;
      Stats.BytesMarked += Block.ObjectSize;
      if (Trace)
        Seeds.push_back({Base, Block.ObjectSize, Block.LayoutId});
    });
  });
}

void MarkContext::runRootScan(const RootSet &Roots, CollectionStats &Stats) {
  Seeds.clear();
  markUncollectables(Stats);
  MarkWorker Scanner(*this, Stats);
  Roots.forEachScannableSpan(
      [&](const RootRange &Range, const unsigned char *Begin,
          const unsigned char *End) {
        Scanner.scanRootSpan(Range, Begin, End);
      });
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
  const MarkTable &Marks = Heap.markTable();
  uint64_t Before;
  do {
    Overflowed = false;
    Before = Stats.ObjectsMarked;
    Blocks.forEach([&](BlockId, BlockDescriptor &Block) {
      if (kindIsPointerFree(Block.Kind))
        return;
      Heap.forEachAllocatedSlot(Block, [&](uint32_t Slot) {
        if (Marks.isMarked(Block, Slot))
          Seeds.push_back({Block.slotOffset(Slot), Block.ObjectSize,
                           Block.LayoutId});
      });
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
  uint64_t Start = monotonicNanos();
  for (unsigned I = 0; I != NumNearMisses; ++I)
    Ctx.BlacklistImpl.noteCandidate(NearMisses[I]);
  Stats.BlacklistNanos += monotonicNanos() - Start;
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

// The scans keep their counters in locals and fold them into Stats
// once per object (or span): a store through Stats per word would also
// force the arena bounds to be reloaded on every iteration.

void MarkWorker::scanRootSpan(const RootRange &Range,
                              const unsigned char *Begin,
                              const unsigned char *End) {
  Stats.RootBytesScanned += static_cast<uint64_t>(End - Begin);
  ScanOrigin Origin = originOf(Range.Source);
  uint64_t Hits = 0;
  Stats.RootCandidatesExamined += Ctx.forEachRootCandidate(
      Range.Encoding, Begin, End,
      [&](WindowOffset Candidate, const unsigned char *) {
        Hits += considerCandidate(Candidate, Origin);
      });
  Stats.RootHits += Hits;
}

void MarkWorker::scanObject(const MarkWorkItem &Item) {
  uint64_t Candidates = 0, Scanned = 0;
  DescriptorClass Class = DescriptorClass::Conservative;
  if (Item.LayoutId != 0) {
    Class = DescriptorClass::Precise;
    Scanned = Ctx.forEachTypedCandidate(
        Item.Begin, Item.Bytes, Item.LayoutId, [&](WindowOffset Candidate) {
          ++Candidates;
          considerCandidate(Candidate, ScanOrigin::Heap, /*PreciseWord=*/true);
        });
  } else {
    Scanned = Ctx.forEachHeapCandidate(
        Item.Begin, Item.Bytes, [&](WindowOffset Candidate) {
          ++Candidates;
          considerCandidate(Candidate, ScanOrigin::Heap);
        });
  }
  Stats.HeapWordsScanned += Scanned;
  Stats.ScanWordsByClass[static_cast<unsigned>(Class)] += Scanned;
  Stats.ScanCandidatesByClass[static_cast<unsigned>(Class)] += Candidates;
}

void MarkWorker::drain() {
  while (!Stack.empty()) {
    MarkWorkItem Item = Stack.back();
    Stack.pop_back();
    scanObject(Item);
  }
  flushNearMisses();
}
