//===- baseline/ExplicitHeap.cpp - malloc/free baseline -------------------===//

#include "baseline/ExplicitHeap.h"
#include "support/Assert.h"
#include "support/MathExtras.h"

using namespace cgc;
using namespace cgc::baseline;

ExplicitHeap::ExplicitHeap(uint64_t CapacityBytes, Policy P)
    : Arena(CapacityBytes), P(P) {
  // Offset 0 is reserved as the null sentinel for free-list links.
  Top = 16;
}

unsigned ExplicitHeap::binForSize(uint64_t Size) {
  unsigned Bin = log2Floor(Size);
  return Bin >= NumBins ? NumBins - 1 : Bin;
}

void ExplicitHeap::pushFree(uint64_t Offset) {
  unsigned Bin = binForSize(headerAt(Offset)->size());
  FreeLinks *Links = linksOf(Offset);
  if (P == Policy::LifoFit || Bins[Bin] == 0 || Bins[Bin] > Offset) {
    Links->NextOffset = Bins[Bin];
    Links->PrevOffset = 0;
    if (Bins[Bin] != 0)
      linksOf(Bins[Bin])->PrevOffset = Offset;
    Bins[Bin] = Offset;
    return;
  }
  // Address-ordered: walk to the insertion point.  This is the cost a
  // malloc pays for sorted free lists; a sweeping collector gets the
  // same order for free.
  uint64_t Prev = Bins[Bin];
  while (true) {
    ++Stats.FreeListSearchSteps;
    uint64_t Next = linksOf(Prev)->NextOffset;
    if (Next == 0 || Next > Offset)
      break;
    Prev = Next;
  }
  Links->NextOffset = linksOf(Prev)->NextOffset;
  Links->PrevOffset = Prev;
  if (Links->NextOffset != 0)
    linksOf(Links->NextOffset)->PrevOffset = Offset;
  linksOf(Prev)->NextOffset = Offset;
}

void ExplicitHeap::unlinkFree(uint64_t Offset) {
  FreeLinks *Links = linksOf(Offset);
  unsigned Bin = binForSize(headerAt(Offset)->size());
  if (Links->PrevOffset != 0)
    linksOf(Links->PrevOffset)->NextOffset = Links->NextOffset;
  else
    Bins[Bin] = Links->NextOffset;
  if (Links->NextOffset != 0)
    linksOf(Links->NextOffset)->PrevOffset = Links->PrevOffset;
}

uint64_t ExplicitHeap::takeFit(uint64_t Need) {
  for (unsigned Bin = binForSize(Need); Bin != NumBins; ++Bin) {
    for (uint64_t Block = Bins[Bin]; Block != 0;
         Block = linksOf(Block)->NextOffset) {
      ++Stats.FreeListSearchSteps;
      if (headerAt(Block)->size() >= Need) {
        unlinkFree(Block);
        return Block;
      }
    }
  }
  return 0;
}

void *ExplicitHeap::malloc(size_t Bytes) {
  ++Stats.MallocCalls;
  uint64_t Need = alignTo(Bytes, 16) + HeaderBytes;
  if (Need < MinBlockBytes)
    Need = MinBlockBytes;

  uint64_t Block = takeFit(Need);
  if (Block != 0) {
    Header *H = headerAt(Block);
    uint64_t BlockSize = H->size();
    // Split when the remainder can stand alone as a free block.
    if (BlockSize >= Need + MinBlockBytes) {
      ++Stats.Splits;
      uint64_t Remainder = Block + Need;
      H->set(Need, /*Used=*/true);
      Header *R = headerAt(Remainder);
      R->set(BlockSize - Need, /*Used=*/false);
      R->PrevSize = Need;
      uint64_t After = Remainder + R->size();
      if (After < Top)
        headerAt(After)->PrevSize = R->size();
      pushFree(Remainder);
    } else {
      H->set(BlockSize, /*Used=*/true);
    }
    Stats.BytesInUse += headerAt(Block)->size() - HeaderBytes;
    return reinterpret_cast<void *>(Arena.addressOf(Block + HeaderBytes));
  }

  // No fit: extend the wilderness.
  if (Top + Need > Arena.size())
    return nullptr;
  Block = Top;
  Header *H = headerAt(Block);
  H->set(Need, /*Used=*/true);
  // The block before the wilderness is whatever currently ends at Top.
  H->PrevSize = LastTopBlockSize;
  Top += Need;
  if (Top > Stats.FootprintBytes)
    Stats.FootprintBytes = Top;
  Stats.BytesInUse += Need - HeaderBytes;
  LastTopBlockSize = Need;
  return reinterpret_cast<void *>(Arena.addressOf(Block + HeaderBytes));
}

void ExplicitHeap::free(void *Ptr) {
  ++Stats.FreeCalls;
  uint64_t Offset =
      Arena.offsetOf(reinterpret_cast<Address>(Ptr)) - HeaderBytes;
  Header *H = headerAt(Offset);
  CGC_CHECK(H->inUse(), "double free or bad pointer");
  CGC_CHECK(Stats.BytesInUse >= H->size() - HeaderBytes,
            "accounting underflow");
  Stats.BytesInUse -= H->size() - HeaderBytes;
  uint64_t Size = H->size();

  // Coalesce with the following block.
  uint64_t Next = Offset + Size;
  if (Next < Top && !headerAt(Next)->inUse()) {
    ++Stats.Coalesces;
    unlinkFree(Next);
    Size += headerAt(Next)->size();
  }
  // Coalesce with the preceding block.
  if (H->PrevSize != 0) {
    uint64_t Prev = Offset - H->PrevSize;
    if (!headerAt(Prev)->inUse()) {
      ++Stats.Coalesces;
      unlinkFree(Prev);
      Size += H->PrevSize;
      Offset = Prev;
    }
  }

  Header *Merged = headerAt(Offset);
  uint64_t PrevSize = Merged->PrevSize;
  Merged->set(Size, /*Used=*/false);
  Merged->PrevSize = PrevSize;

  if (Offset + Size == Top) {
    // Give the block back to the wilderness.
    Top = Offset;
    LastTopBlockSize = PrevSize;
    return;
  }
  headerAt(Offset + Size)->PrevSize = Size;
  pushFree(Offset);
}

HeapVerifyReport ExplicitHeap::verify() const {
  HeapVerifyReport R;
  uint64_t Offset = 16;
  uint64_t PrevSize = 0;
  bool PrevFree = false;
  while (Offset < Top) {
    const Header *H = headerAt(Offset);
    if (H->size() < MinBlockBytes || H->size() % 16 != 0) {
      R.notef("block at offset %llu: bad size %llu",
              (unsigned long long)Offset, (unsigned long long)H->size());
      // The walk cannot step past a corrupt size reliably; stop here
      // rather than cascade one corruption into a flood of noise.
      return R;
    }
    if (H->PrevSize != PrevSize)
      R.notef("block at offset %llu: boundary tag says previous size "
              "%llu, walk says %llu",
              (unsigned long long)Offset, (unsigned long long)H->PrevSize,
              (unsigned long long)PrevSize);
    if (PrevFree && !H->inUse())
      R.notef("block at offset %llu: adjacent free blocks not coalesced",
              (unsigned long long)Offset);
    PrevFree = !H->inUse();
    PrevSize = H->size();
    Offset += H->size();
  }
  if (Offset != Top)
    R.notef("heap walk overshot the top: offset %llu, top %llu",
            (unsigned long long)Offset, (unsigned long long)Top);
  return R;
}

void ExplicitHeap::verifyHeap() const {
  HeapVerifyReport Report = verify();
  if (Report.clean())
    return;
  Report.fatal("explicit heap verification failed",
               "explicit heap verification failed");
}
