//===- core/Finalization.cpp - Finalization queue -------------------------===//

#include "core/Finalization.h"

using namespace cgc;

size_t FinalizationQueue::processUnreachable(MarkContext &Marking,
                                             ObjectHeap &Heap,
                                             CollectionStats &Stats) {
  // Entries staged by an abandoned (repair-retried) cycle left the
  // Registered map but were never published; their resurrection marks
  // were discarded with the retry's mark reset, so renew them or the
  // sweep reclaims objects a pending finalizer will read.  Empty —
  // and free — on every normally completed cycle.
  for (const auto &[Offset, Fn] : Staged)
    Marking.markFromCandidate(Offset, Stats);
  // Collect the unreachable set first: resurrecting one object may make
  // another registered object reachable again, and PCR semantics queue
  // everything that was unreachable at mark completion.
  std::vector<WindowOffset> Unreachable;
  for (const auto &[Offset, Fn] : Registered) {
    ObjectRef Ref = Heap.refForBase(Offset);
    if (!Ref.valid())
      continue; // Object was explicitly freed; registration is stale.
    if (!Heap.isMarked(Ref))
      Unreachable.push_back(Offset);
  }
  for (WindowOffset Offset : Unreachable) {
    auto It = Registered.find(Offset);
    Staged.emplace_back(Offset, std::move(It->second));
    Registered.erase(It);
    // Resurrect: the finalizer may read the object, so it and its
    // reachable subgraph must survive the upcoming sweep.
    Marking.markFromCandidate(Offset, Stats);
  }
  publishCount();
  Stats.FinalizersQueued += Unreachable.size();
  return Unreachable.size();
}

size_t FinalizationQueue::publishStaged() {
  size_t Count = Staged.size();
  Ready.insert(Ready.end(), std::make_move_iterator(Staged.begin()),
               std::make_move_iterator(Staged.end()));
  Staged.clear();
  return Count;
}

size_t FinalizationQueue::runReady(VirtualArena &Arena) {
  // Finalizers may register new finalizers or trigger allocation, so
  // drain from a moved-out copy.
  std::vector<std::pair<WindowOffset, Finalizer>> Batch = std::move(Ready);
  Ready.clear();
  for (auto &[Offset, Fn] : Batch)
    Fn(Arena.pointerTo(Offset));
  return Batch.size();
}
