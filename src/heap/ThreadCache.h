//===- heap/ThreadCache.h - Thread-owned allocation blocks -----*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registered mutator thread's allocation cache, made of whole blocks
/// checked out of the shared heap (Nofl/Immix-style block handoff):
///
///   * A refill runs under the heap lock and checks out whole blocks of
///     one lane (a Normal-kind size class or a Precise layout, see
///     ObjectHeap) through the heap's ordinary address-ordered
///     discipline.  A checked-out block leaves its lane's list and
///     belongs to this thread alone.
///   * take() allocates the lowest clear, unpinned slot of the lane's
///     current block: it zeroes the slot, then sets its AllocBit.
///     release() frees a pointer into any owned block by atomically
///     clearing its bit and writes nothing else.  Neither takes a lock
///     or touches shared counters: the owner keeps its deltas privately,
///     and they are folded into the heap under the lock at each
///     checkout and when ownership ends.
///   * Slots not handed out keep clear AllocBits, so the bitmap is the
///     only record of slot state and nothing has to be reserved or
///     given back slot by slot.
///   * Each lane keeps up to BlocksPerLane blocks.  An exhausted block
///     stays owned, so the thread's frees into it stay lock-free and
///     the slots they clear are reused before the next checkout; the
///     oldest one is returned when a refill needs room.
///   * Every stop-the-world handshake (and unregistration) returns all
///     owned blocks to the heap with counts refolded from their
///     bitmaps, so marking and sweeping see ordinary blocks.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_THREADCACHE_H
#define CGC_HEAP_THREADCACHE_H

#include "heap/HeapUnits.h"
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace cgc {

struct BlockDescriptor;

class ThreadCache {
public:
  /// Blocks one lane owns at most.
  static constexpr unsigned BlocksPerLane = 8;
  /// One refill checks out blocks until it has gained this many free
  /// slots, at most BlocksPerRefill of them: a large-slot class whose
  /// blocks hold a dozen free slots still gets a useful batch per visit
  /// to the heap lock.
  static constexpr unsigned RefillSlots = 128;
  static constexpr unsigned BlocksPerRefill = 6;

  /// Lock-free fast path: a fresh, zeroed slot of lane \p LaneId from an
  /// owned block, or null when the lane's blocks are exhausted or it has
  /// none.  Owner thread only.
  void *take(unsigned LaneId) {
    if (LaneId >= Lanes.size() || !Lanes[LaneId])
      return nullptr;
    Lane &L = *Lanes[LaneId];
    void *Result = L.Used != 0 ? L.Blocks[L.Current].take() : nullptr;
    if (!Result && !(Result = takeFromOtherBlocks(L)))
      return nullptr;
    ++Allocs;
    Bytes += L.Blocks[L.Current].SlotBytes;
    return Result;
  }

  /// Lock-free owner free: clears the AllocBit of \p Ptr when it is the
  /// base of an allocated slot in block \p Id and this thread owns that
  /// block; the slot keeps its bytes until a take hands it out again.
  /// \p Id is the page map's entry for \p Ptr's page, read without the
  /// heap lock; it cannot change while this thread owns the block, and a
  /// stale entry for any other page only fails the range check.
  /// \returns false, changing nothing, for anything else — a foreign
  /// pointer, an interior pointer, a slot that is already free — so the
  /// caller can take the locked path, which classifies and reports it.
  /// Owner thread only.
  bool release(void *Ptr, BlockId Id) {
    OwnedBlock *B = Id < ById.size() ? ById[Id] : nullptr;
    if (B == nullptr)
      return false;
    uintptr_t Delta = reinterpret_cast<uintptr_t>(Ptr) -
                      reinterpret_cast<uintptr_t>(B->First);
    if (Delta >= uintptr_t(B->Count) * B->SlotBytes ||
        Delta % B->SlotBytes != 0)
      return false;
    uint32_t Slot = static_cast<uint32_t>(Delta / B->SlotBytes);
    uint32_t Word = Slot / 64;
    uint64_t Mask = uint64_t(1) << (Slot % 64);
    if ((__atomic_load_n(&B->AllocWords[Word], __ATOMIC_ACQUIRE) & Mask) == 0)
      return false;
    if ((__atomic_fetch_and(&B->AllocWords[Word], ~Mask, __ATOMIC_RELEASE) &
         Mask) == 0)
      return false; // Another thread freed it first: a double free.
    if (Word < B->Hint)
      B->Hint = Word;
    ++Frees;
    return true;
  }

  /// Installs block \p Id, just checked out of lane \p LaneId, as the
  /// lane's current block.  \returns the block the lane gave up to make
  /// room (the caller returns it to the heap), or InvalidBlockId.  Owner
  /// thread, under the heap lock.
  BlockId install(unsigned LaneId, BlockId Id, BlockDescriptor &Block,
                  void *FirstSlot);

  /// Forgets every owned block, calling \p Fn(BlockId) on each so the
  /// caller can return it to the heap.  The owner is parked (or is the
  /// caller), under the heap lock.
  template <typename FnT> void releaseAll(FnT Fn) {
    for (std::unique_ptr<Lane> &L : Lanes) {
      if (!L)
        continue;
      for (unsigned I = 0; I != L->Used; ++I) {
        ById[L->Blocks[I].Id] = nullptr;
        Fn(L->Blocks[I].Id);
      }
      *L = Lane();
    }
    NumOwned = 0;
  }

  /// Counter deltas not yet folded into the heap.
  struct Counts {
    uint64_t Allocs = 0;
    uint64_t Bytes = 0;
    uint64_t Frees = 0;
  };
  /// \returns the deltas since the last call and marks them folded.
  Counts takePending() {
    Counts Delta{Allocs - Folded.Allocs, Bytes - Folded.Bytes,
                 Frees - Folded.Frees};
    Folded = {Allocs, Bytes, Frees};
    return Delta;
  }

  /// Lifetime totals: objects handed out and freed on the lock-free
  /// paths.
  uint64_t allocs() const { return Allocs; }
  uint64_t frees() const { return Frees; }
  /// Blocks owned right now.
  size_t ownedBlocks() const { return NumOwned; }

private:
  /// One owned block, with the geometry the fast paths need copied out
  /// of its descriptor (which may sit in sealed metadata pages).
  struct OwnedBlock {
    uint64_t *AllocWords = nullptr;
    const uint64_t *PinnedWords = nullptr;
    char *First = nullptr;
    BlockId Id = InvalidBlockId;
    uint32_t SlotBytes = 0;
    uint32_t Count = 0;
    uint32_t NumWords = 0;
    /// Lowest bitmap word that may hold a free slot; NumWords once the
    /// block is scanned dry, lowered again by the owner's frees.
    uint32_t Hint = 0;

    void *take() {
      for (uint32_t W = Hint; W < NumWords; ++W) {
        uint64_t Busy =
            __atomic_load_n(&AllocWords[W], __ATOMIC_ACQUIRE) | PinnedWords[W];
        if (~Busy == 0)
          continue;
        uint32_t Bit = static_cast<uint32_t>(__builtin_ctzll(~Busy));
        uint32_t Slot = W * 64 + Bit;
        if (Slot >= Count)
          break;
        // Zeroed before the bit is published, so an allocated slot
        // never holds a dead object's bytes, even while an owner stopped
        // between the two is scanned.  No other thread writes a free
        // slot.  Only the owner sets bits; remote frees may clear others
        // in the same word concurrently, hence the atomic OR.
        char *Result = First + size_t(Slot) * SlotBytes;
        std::memset(Result, 0, SlotBytes);
        __atomic_fetch_or(&AllocWords[W], uint64_t(1) << Bit,
                          __ATOMIC_RELAXED);
        Hint = W;
        return Result;
      }
      Hint = NumWords;
      return nullptr;
    }
  };

  /// A lane's owned blocks; Blocks[Current] is the one allocated from,
  /// Blocks[Victim] the next to give up.
  struct Lane {
    OwnedBlock Blocks[BlocksPerLane];
    unsigned Used = 0;
    unsigned Current = 0;
    unsigned Victim = 0;
  };

  /// The lane's current block is dry: switch to another owned block
  /// that the owner has freed into since it went dry.
  void *takeFromOtherBlocks(Lane &L);

  /// Indexed by lane id and created at a lane's first install; a lane
  /// never moves, so ById may point into it.  Only the lanes a thread
  /// has refilled exist.
  std::vector<std::unique_ptr<Lane>> Lanes;
  /// The owned block with a given BlockId, or null; block ids are dense,
  /// so this grows only to the heap's block high-water mark.
  std::vector<OwnedBlock *> ById;
  size_t NumOwned = 0;
  uint64_t Allocs = 0;
  uint64_t Bytes = 0;
  uint64_t Frees = 0;
  Counts Folded;
};

} // namespace cgc

#endif // CGC_HEAP_THREADCACHE_H
