//===- core/RetentionTracer.cpp - Why is this object live? ----------------===//

#include "core/RetentionTracer.h"
#include "support/Assert.h"
#include <cstring>
#include <deque>
#include <unordered_map>

using namespace cgc;

namespace {

uint64_t keyOf(ObjectRef Ref) {
  return (uint64_t(Ref.Block) << 32) | Ref.Slot;
}

uint32_t load32At(const unsigned char *P, bool BigEndian) {
  uint32_t Value;
  std::memcpy(&Value, P, sizeof(Value));
  if (BigEndian)
    Value = __builtin_bswap32(Value);
  return Value;
}

uint64_t load64At(const unsigned char *P) {
  uint64_t Value;
  std::memcpy(&Value, P, sizeof(Value));
  return Value;
}

struct Provenance {
  /// Key of the parent object, or 0 for root-reached.
  uint64_t ParentKey = 0;
  /// For root-reached objects: which root range and word.
  uint32_t RootIndex = 0;
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
  VirtualArena &Arena = GC.arena();
  ObjectHeap &Heap = GC.objectHeap();
  const GcConfig &Config = GC.config();

  ObjectRef TargetRef = M.resolveCandidate(
      Arena.offsetOf(reinterpret_cast<Address>(Target)));
  if (!TargetRef.valid())
    return Result;
  uint64_t TargetKey = keyOf(TargetRef);

  std::unordered_map<uint64_t, Provenance> Visited;
  std::deque<uint64_t> Queue;
  std::vector<const RootRange *> RootRanges;

  auto visit = [&](WindowOffset Candidate, uint64_t ParentKey,
                   uint32_t RootIndex, const void *RootWord) -> bool {
    ObjectRef Ref = M.resolveCandidate(Candidate);
    if (!Ref.valid())
      return false;
    uint64_t Key = keyOf(Ref);
    if (Visited.count(Key))
      return false;
    Provenance P;
    P.ParentKey = ParentKey;
    P.RootIndex = RootIndex;
    P.RootWord = RootWord;
    P.ReachedThrough = Candidate;
    Visited.emplace(Key, P);
    Queue.push_back(Key);
    return Key == TargetKey;
  };

  bool Found = false;

  // Uncollectable objects are roots (including the pointer-free
  // variety: live by definition, even though nothing traces through
  // them).
  Heap.forEachBlock([&](BlockId Id, BlockDescriptor &Block) {
    if (Found || !kindIsUncollectable(Block.Kind))
      return;
    Heap.forEachAllocatedSlot(Block, [&](uint32_t Slot) {
      ObjectRef Ref{Id, Slot};
      uint64_t Key = keyOf(Ref);
      if (Found || Visited.count(Key))
        return;
      Provenance P;
      P.ParentKey = 0;
      P.RootIndex = ~0u; // Sentinel: uncollectable root.
      P.ReachedThrough = Heap.baseOffset(Ref);
      Visited.emplace(Key, P);
      Queue.push_back(Key);
      Found = Key == TargetKey;
    });
  });

  // Registered root ranges, honoring exclusions, encodings, alignment.
  RootSet &Roots = GC.roots();
  Roots.forEach([&](const RootRange &Range) {
    if (Found)
      return;
    RootRanges.push_back(&Range);
    uint32_t RootIndex = static_cast<uint32_t>(RootRanges.size() - 1);
    Roots.forEachScannableSubrange(
        Range.Begin, Range.End,
        [&](const unsigned char *Begin, const unsigned char *End) {
          if (Found)
            return;
          unsigned Stride = Config.RootScanAlignment;
          if (Range.Encoding == RootEncoding::Native64) {
            for (const unsigned char *P = Begin;
                 !Found && P + sizeof(uint64_t) <= End; P += Stride) {
              Address Addr = static_cast<Address>(load64At(P));
              if (!Arena.contains(Addr))
                continue;
              Found |= visit(Arena.offsetOf(Addr), 0, RootIndex, P);
            }
            return;
          }
          bool BigEndian = Range.Encoding == RootEncoding::Window32BE;
          for (const unsigned char *P = Begin;
               !Found && P + sizeof(uint32_t) <= End; P += Stride) {
            WindowOffset Offset = load32At(P, BigEndian);
            if (!Arena.containsOffset(Offset))
              continue;
            Found |= visit(Offset, 0, RootIndex, P);
          }
        });
  });

  // Breadth-first over the heap so the reported chain is shortest.
  while (!Found && !Queue.empty()) {
    uint64_t Key = Queue.front();
    Queue.pop_front();
    ObjectRef Ref{static_cast<BlockId>(Key >> 32),
                  static_cast<uint32_t>(Key)};
    const BlockDescriptor &Block =
        Heap.blockTable().get(Ref.Block);
    // Like the marker, reach a free slot but never trace through it: a
    // dead object of a pending block is a free slot too.
    if (kindIsPointerFree(Block.Kind) || !Heap.slotAllocated(Block, Ref.Slot))
      continue;
    WindowOffset Base = Heap.baseOffset(Ref);
    const unsigned char *P =
        static_cast<const unsigned char *>(Arena.pointerTo(Base));
    uint32_t Bytes = Block.ObjectSize;

    if (Block.LayoutId != 0) {
      // Mirror of MarkWorker::scanTypedObject: stride over exactly the
      // descriptor's pointer-bearing words.
      const TypeDescriptor &D = Heap.layout(Block.LayoutId);
      uint32_t Words = std::min<uint32_t>(
          D.NumWords, Bytes / static_cast<uint32_t>(sizeof(uint64_t)));
      D.forEachPointerWord(Words, [&](uint32_t Word) {
        Address Addr =
            static_cast<Address>(load64At(P + Word * sizeof(uint64_t)));
        if (Arena.contains(Addr))
          Found |= visit(Arena.offsetOf(Addr), Key, 0, nullptr);
        return !Found;
      });
      continue;
    }
    unsigned Stride = Config.HeapScanAlignment;
    for (uint32_t I = 0; !Found && I + sizeof(uint64_t) <= Bytes;
         I += Stride) {
      Address Addr = static_cast<Address>(load64At(P + I));
      if (Arena.contains(Addr))
        Found |= visit(Arena.offsetOf(Addr), Key, 0, nullptr);
    }
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
      if (P.RootIndex == ~0u) {
        Result.RootLabel = "(uncollectable object)";
        Result.Source = RootSource::Client;
      } else {
        const RootRange *Range = RootRanges[P.RootIndex];
        Result.RootLabel = Range->Label;
        Result.Source = Range->Source;
        Result.RootWord = P.RootWord;
      }
      break;
    }
    Cursor = P.ParentKey;
  }
  Result.Chain.assign(Reversed.rbegin(), Reversed.rend());
  return Result;
}
