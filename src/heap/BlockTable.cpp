//===- heap/BlockTable.cpp - Block descriptors ----------------------------===//

#include "heap/BlockTable.h"

using namespace cgc;

BlockTable::~BlockTable() {
  for (BlockDescriptor *D : Blocks)
    deleteDescriptor(D);
}

BlockDescriptor *BlockTable::newDescriptor() {
  if (!Arena)
    return new BlockDescriptor();
  void *Mem = Arena->allocate(sizeof(BlockDescriptor),
                              alignof(BlockDescriptor) > 16
                                  ? 16
                                  : alignof(BlockDescriptor));
  return new (Mem) BlockDescriptor();
}

void BlockTable::deleteDescriptor(BlockDescriptor *D) {
  if (!Arena) {
    delete D;
    return;
  }
  D->~BlockDescriptor();
  Arena->deallocate(D, sizeof(BlockDescriptor));
}

BlockId BlockTable::create() {
  ++NumLive;
  if (!FreeIds.empty()) {
    BlockId Id = FreeIds.back();
    FreeIds.pop_back();
    // Every field back to its default; the two bitmaps keep their word
    // arrays, emptied, so the caller's resize reuses them.
    BlockDescriptor &D = *Blocks[Id - 1];
    BitVector AllocBits = std::move(D.AllocBits);
    BitVector PinnedBits = std::move(D.PinnedBits);
    D = BlockDescriptor();
    D.AllocBits = std::move(AllocBits);
    D.PinnedBits = std::move(PinnedBits);
    D.AllocBits.resize(0);
    D.PinnedBits.resize(0);
    Live.set(Id - 1);
    return Id;
  }
  Blocks.push_back(newDescriptor());
  Live.resize(Blocks.size(), true);
  if (FreeIds.capacity() < Blocks.size())
    FreeIds.reserve(Blocks.capacity());
  return static_cast<BlockId>(Blocks.size());
}

void BlockTable::destroy(BlockId Id) {
  CGC_CHECK(isLive(Id), "destroying a dead block id");
  Live.reset(Id - 1);
  FreeIds.push_back(Id);
  --NumLive;
}
