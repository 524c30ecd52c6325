//===- heap/PageMap.h - Page index to block mapping ------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps every window page to the block occupying it (or none).  This is
/// the first step of the conservative pointer validity test, so lookup
/// must be a constant-time array index.  A flat array over a 4 GiB
/// window is 1 M entries of 4 bytes — an acceptable fixed cost for the
/// O(1) hot path.
///
/// The entry array can optionally live in a MetadataArena so sealed
/// collectors take a fault (and a structured incident) instead of
/// silent corruption when client code scribbles on it.
///
/// Entries change only under the heap lock, but a mutator's lock-free
/// free reads them (blockAtRelaxed), so every store is atomic.  The
/// array is sized once and never moves.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_PAGEMAP_H
#define CGC_HEAP_PAGEMAP_H

#include "heap/HeapUnits.h"
#include "support/Assert.h"
#include "support/MetadataArena.h"
#include <vector>

namespace cgc {

class PageMap {
public:
  explicit PageMap(PageIndex NumPages, MetadataArena *Arena = nullptr)
      : Entries(NumPages, InvalidBlockId, MetadataAllocator<BlockId>(Arena)) {}

  BlockId blockAt(PageIndex Page) const {
    return Page < Entries.size() ? Entries[Page] : InvalidBlockId;
  }

  /// blockAt for a reader that does not hold the heap lock.  The result
  /// may be stale unless the caller owns the block on \p Page, whose
  /// entry cannot change while it is owned.
  BlockId blockAtRelaxed(PageIndex Page) const {
    return Page < Entries.size()
               ? __atomic_load_n(&Entries[Page], __ATOMIC_RELAXED)
               : InvalidBlockId;
  }

  void assignRun(PageIndex Start, uint32_t NumPages, BlockId Id) {
    CGC_ASSERT(uint64_t(Start) + NumPages <= Entries.size(),
               "page run outside the window");
    for (uint32_t I = 0; I != NumPages; ++I) {
      CGC_ASSERT(Entries[Start + I] == InvalidBlockId,
                 "assigning an occupied page");
      store(Start + I, Id);
    }
  }

  void clearRun(PageIndex Start, uint32_t NumPages) {
    CGC_ASSERT(uint64_t(Start) + NumPages <= Entries.size(),
               "page run outside the window");
    for (uint32_t I = 0; I != NumPages; ++I)
      store(Start + I, InvalidBlockId);
  }

  /// Overwrites one entry with no occupancy checking.  Repair code uses
  /// this to re-derive entries from the block table, and fault
  /// injection uses it to clobber them; neither can honor assignRun's
  /// "previously empty" contract.
  void setRaw(PageIndex Page, BlockId Id) {
    CGC_ASSERT(Page < Entries.size(), "page outside the window");
    store(Page, Id);
  }

  /// Entry storage bounds, for attributing a wild metadata write to
  /// this map.  \returns the faulted page index via \p PageOut when
  /// \p Addr lands inside the entry array.
  bool attributeAddress(const void *Addr, PageIndex &PageOut) const {
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    uintptr_t Base = reinterpret_cast<uintptr_t>(Entries.data());
    if (A < Base || A >= Base + Entries.size() * sizeof(BlockId))
      return false;
    PageOut = static_cast<PageIndex>((A - Base) / sizeof(BlockId));
    return true;
  }

private:
  void store(PageIndex Page, BlockId Id) {
    __atomic_store_n(&Entries[Page], Id, __ATOMIC_RELAXED);
  }

  std::vector<BlockId, MetadataAllocator<BlockId>> Entries;
};

} // namespace cgc

#endif // CGC_HEAP_PAGEMAP_H
