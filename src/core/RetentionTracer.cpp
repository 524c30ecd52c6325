//===- core/RetentionTracer.cpp - Why is this object live? ----------------===//

#include "core/RetentionTracer.h"
#include "support/Assert.h"
#include <cstdio>
#include <deque>
#include <unordered_map>

using namespace cgc;

namespace {

uint64_t keyOf(ObjectRef Ref) {
  return (uint64_t(Ref.Block) << 32) | Ref.Slot;
}

struct Provenance {
  /// Key of the parent object, or 0 for root-reached.
  uint64_t ParentKey = 0;
  /// For root-reached objects: the root range and word, or a null
  /// range for an uncollectable root.
  const RootRange *Range = nullptr;
  const void *RootWord = nullptr;
  /// The candidate value used to reach this object.
  WindowOffset ReachedThrough = 0;
};

} // namespace

std::string RetentionTrace::describe() const {
  if (!Reached)
    return "(not reachable from the current roots)";
  char Buffer[128];
  std::string Text = RootLabel;
  for (const RetentionStep &Step : Chain) {
    std::snprintf(Buffer, sizeof(Buffer), " -> obj@0x%llx (%u bytes)",
                  (unsigned long long)Step.ObjectBase, Step.ObjectSize);
    Text += Buffer;
  }
  return Text;
}

RetentionTrace RetentionTracer::explain(const void *Target) {
  RetentionTrace Result;
  if (!GC.isHeapPointer(Target))
    return Result;
  MarkContext &M = GC.marker();
  ObjectHeap &Heap = GC.objectHeap();

  ObjectRef TargetRef = M.resolveCandidate(GC.windowOffsetOf(Target));
  if (!TargetRef.valid())
    return Result;
  uint64_t TargetKey = keyOf(TargetRef);

  std::unordered_map<uint64_t, Provenance> Visited;
  std::deque<uint64_t> Queue;
  // Set at the target's first visit, the one its provenance records;
  // the scan that found it may run on to the end of its object or span.
  bool Found = false;

  auto visit = [&](WindowOffset Candidate, uint64_t ParentKey,
                   const RootRange *Range, const void *RootWord) {
    ObjectRef Ref = M.resolveCandidate(Candidate);
    if (!Ref.valid())
      return;
    uint64_t Key = keyOf(Ref);
    if (!Visited.emplace(Key, Provenance{ParentKey, Range, RootWord,
                                         Candidate})
             .second)
      return;
    Queue.push_back(Key);
    Found |= Key == TargetKey;
  };

  // Uncollectable objects are roots (including the pointer-free
  // variety: live by definition, even though nothing traces through
  // them).
  Heap.forEachBlock([&](BlockId, BlockDescriptor &Block) {
    if (Found || !kindIsUncollectable(Block.Kind))
      return;
    Heap.forEachAllocatedSlot(Block, [&](uint32_t Slot) {
      visit(Block.slotOffset(Slot), 0, nullptr, nullptr);
    });
  });

  // The root spans, through the marker's own candidate scan.
  GC.roots().forEachScannableSpan([&](const RootRange &Range,
                                      const unsigned char *Begin,
                                      const unsigned char *End) {
    if (Found)
      return;
    M.forEachRootCandidate(Range.Encoding, Begin, End,
                           [&](WindowOffset Candidate,
                               const unsigned char *Word) {
                             visit(Candidate, 0, &Range, Word);
                           });
  });

  // Breadth-first over the heap so the reported chain is shortest.
  while (!Found && !Queue.empty()) {
    uint64_t Key = Queue.front();
    Queue.pop_front();
    ObjectRef Ref{static_cast<BlockId>(Key >> 32),
                  static_cast<uint32_t>(Key)};
    const BlockDescriptor &Block = Heap.blockTable().get(Ref.Block);
    // Like the marker, reach a free slot but never trace through it: a
    // dead object of a pending block is a free slot too.
    if (kindIsPointerFree(Block.Kind) || !Heap.slotAllocated(Block, Ref.Slot))
      continue;
    WindowOffset Base = Block.slotOffset(Ref.Slot);
    auto FromObject = [&](WindowOffset Candidate) {
      visit(Candidate, Key, nullptr, nullptr);
    };
    if (Block.LayoutId != 0)
      M.forEachTypedCandidate(Base, Block.ObjectSize, Block.LayoutId,
                              FromObject);
    else
      M.forEachHeapCandidate(Base, Block.ObjectSize, FromObject);
  }

  if (!Visited.count(TargetKey))
    return Result;

  // Reconstruct the chain target -> ... -> root, then reverse.
  Result.Reached = true;
  std::vector<RetentionStep> Reversed;
  uint64_t Cursor = TargetKey;
  while (true) {
    const Provenance &P = Visited.at(Cursor);
    ObjectRef Ref{static_cast<BlockId>(Cursor >> 32),
                  static_cast<uint32_t>(Cursor)};
    RetentionStep Step;
    Step.ObjectBase = Heap.baseOffset(Ref);
    Step.ObjectSize = static_cast<uint32_t>(Heap.objectSize(Ref));
    Step.ReachedThrough = P.ReachedThrough;
    Reversed.push_back(Step);
    if (P.ParentKey == 0) {
      if (P.Range) {
        Result.RootLabel = P.Range->Label;
        Result.Source = P.Range->Source;
        Result.RootWord = P.RootWord;
      } else {
        Result.RootLabel = "(uncollectable object)";
        Result.Source = RootSource::Client;
      }
      break;
    }
    Cursor = P.ParentKey;
  }
  Result.Chain.assign(Reversed.rbegin(), Reversed.rend());
  return Result;
}
