//===- heap/ThreadCache.cpp - Thread-owned allocation blocks --------------===//

#include "heap/ThreadCache.h"
#include "heap/BlockTable.h"

using namespace cgc;

void *ThreadCache::takeFromOtherBlocks(Lane &L) {
  for (unsigned I = 0; I != L.Used; ++I) {
    OwnedBlock &B = L.Blocks[I];
    if (I == L.Current || B.Hint == B.NumWords)
      continue;
    if (void *Result = B.take()) {
      L.Current = I;
      return Result;
    }
  }
  return nullptr;
}

BlockId ThreadCache::install(unsigned LaneId, BlockId Id,
                             BlockDescriptor &Block, void *FirstSlot) {
  if (LaneId >= Lanes.size())
    Lanes.resize(LaneId + 1);
  if (!Lanes[LaneId])
    Lanes[LaneId] = std::make_unique<Lane>();
  Lane &L = *Lanes[LaneId];
  BlockId Evicted = InvalidBlockId;
  unsigned Index;
  if (L.Used != BlocksPerLane) {
    Index = L.Used++;
    ++NumOwned;
  } else {
    // Every block is dry (take() looked at them all before the refill),
    // so give up the one checked out longest ago.
    Index = L.Victim;
    L.Victim = (L.Victim + 1) % BlocksPerLane;
    Evicted = L.Blocks[Index].Id;
    ById[Evicted] = nullptr;
  }
  OwnedBlock &B = L.Blocks[Index];
  B.AllocWords = Block.AllocBits.words();
  B.PinnedWords = Block.PinnedBits.words();
  B.First = static_cast<char *>(FirstSlot);
  B.Id = Id;
  B.SlotBytes = Block.ObjectSize;
  B.Count = Block.ObjectCount;
  B.NumWords = static_cast<uint32_t>(Block.AllocBits.numWords());
  B.Hint = 0;
  L.Current = Index;
  if (Id >= ById.size())
    ById.resize(Id + 1);
  ById[Id] = &B;
  return Evicted;
}
