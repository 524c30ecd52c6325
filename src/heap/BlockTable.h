//===- heap/BlockTable.h - Block descriptors -------------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-block metadata.  A *block* is a run of pages holding either many
/// identical small-object slots (small block, one page) or one large
/// object (large block, >= one page).  All metadata — including mark
/// bits — lives off-page in the descriptor, so the collector never scans
/// its own bookkeeping and client objects need no headers.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_BLOCKTABLE_H
#define CGC_HEAP_BLOCKTABLE_H

#include "heap/HeapUnits.h"
#include "heap/ObjectKind.h"
#include "support/Assert.h"
#include "support/BitVector.h"
#include "support/MetadataArena.h"
#include <memory>
#include <vector>

namespace cgc {

struct BlockDescriptor {
  PageIndex StartPage = 0;
  uint32_t NumPages = 0;
  /// Slot size for small blocks; exact requested size for large blocks.
  uint32_t ObjectSize = 0;
  /// Number of slots (1 for large blocks).
  uint32_t ObjectCount = 0;
  /// Byte offset from the block start to the first slot.  Nonzero when
  /// the heap avoids giving objects addresses with many trailing zeros
  /// (the paper's Figure-1 countermeasure).
  uint32_t FirstObjectOffset = 0;
  ObjectKind Kind = ObjectKind::Normal;
  bool IsLarge = false;
  /// Nonzero: objects carry a registered layout (see ObjectHeap's
  /// layout registry); the marker scans only the words the layout marks
  /// as pointers.  This is the paper's "less conservative" end of the
  /// spectrum — exact heap information, conservative roots.
  uint32_t LayoutId = 0;
  /// Large-object option (paper, observation 7): pointers beyond the
  /// first page do not retain this object, regardless of the global
  /// interior-pointer policy.  Lets huge objects coexist with a
  /// blacklist-rich address space.
  bool IgnoreOffPage = false;
  /// Checked out to one mutator thread's ThreadCache (heap/ThreadCache.h):
  /// off every class list, allocated from and freed into by the owner
  /// without the heap lock.  While set, AllocBits is the only live
  /// record of slot state; AllocatedCount keeps its checkout-time value
  /// and is refolded from the bitmap when ownership ends.  Written only
  /// under the heap lock.
  bool Owned = false;
  /// One mark bit per slot; rebuilt by every collection.  During the
  /// Mark phase these are the only descriptor bits written, and only
  /// through testAndSetMark, so N mark workers can share the table.
  BitVector MarkBits;
  /// One bit per slot: the slot holds a client-allocated object.  Kept
  /// off-heap so the allocator never writes link words into client
  /// memory — the collector must not manufacture stale heap pointers
  /// itself (the paper's "clean up after themselves" discipline).
  BitVector AllocBits;
  /// One bit per slot: the slot is free but was marked by the last
  /// collection (a false reference points at it), so it must not be
  /// reused until a later collection clears the reference.  This is the
  /// paper's "false references render a section of memory unusable ...
  /// some blacklisting occurs implicitly, after the fact".
  BitVector PinnedBits;
  /// Number of set bits in AllocBits, maintained incrementally.
  uint32_t AllocatedCount = 0;
  /// Number of set bits in PinnedBits.
  uint32_t PinnedCount = 0;

  uint32_t usableFreeCount() const {
    return ObjectCount - AllocatedCount - PinnedCount;
  }

  /// Atomically marks \p Slot; \returns true if it was already marked.
  /// The one mark-bitmap mutation mark workers may perform in parallel.
  bool testAndSetMark(uint32_t Slot) {
    return MarkBits.testAndSetAtomic(Slot);
  }

  WindowOffset startOffset() const { return offsetOfPage(StartPage); }
  WindowOffset endOffset() const {
    return offsetOfPage(StartPage) + uint64_t(NumPages) * PageSize;
  }
  WindowOffset firstSlotOffset() const {
    return startOffset() + FirstObjectOffset;
  }

  /// \returns the slot index containing window offset \p Offset, or -1
  /// if \p Offset is not inside any slot (header gap or tail waste).
  int32_t slotContaining(WindowOffset Offset) const {
    WindowOffset First = firstSlotOffset();
    if (Offset < First)
      return -1;
    uint64_t Delta = Offset - First;
    uint64_t Slot = Delta / ObjectSize;
    if (Slot >= ObjectCount)
      return -1;
    return static_cast<int32_t>(Slot);
  }

  WindowOffset slotOffset(uint32_t Slot) const {
    CGC_ASSERT(Slot < ObjectCount, "slot index out of range");
    return firstSlotOffset() + uint64_t(Slot) * ObjectSize;
  }
};

/// Owns every live block descriptor and recycles identifiers.  With a
/// MetadataArena, descriptors are placement-constructed in sealable
/// pages so wild stores into them fault instead of corrupting silently
/// (their BitVector word arrays still live on the ordinary heap — a
/// documented gap; the verifier cross-checks catch those).
class BlockTable {
public:
  explicit BlockTable(MetadataArena *Arena = nullptr) : Arena(Arena) {}
  ~BlockTable();

  BlockTable(const BlockTable &) = delete;
  BlockTable &operator=(const BlockTable &) = delete;

  /// Creates a descriptor and returns its id (never InvalidBlockId).
  BlockId create();

  /// Destroys descriptor \p Id; the id may be reused later.
  void destroy(BlockId Id);

  BlockDescriptor &get(BlockId Id) {
    CGC_ASSERT(isLive(Id), "dereferencing a dead block id");
    return *Blocks[Id - 1];
  }

  const BlockDescriptor &get(BlockId Id) const {
    CGC_ASSERT(isLive(Id), "dereferencing a dead block id");
    return *Blocks[Id - 1];
  }

  /// Attributes a wild metadata write: when \p Addr lands inside a live
  /// descriptor object, \returns its id (else InvalidBlockId).  Linear
  /// scan — only the incident-report path uses it.
  BlockId descriptorContaining(const void *Addr) const {
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    for (BlockId Id = 1; Id <= Blocks.size(); ++Id) {
      const BlockDescriptor *D = Blocks[Id - 1];
      if (!D)
        continue;
      uintptr_t Base = reinterpret_cast<uintptr_t>(D);
      if (A >= Base && A < Base + sizeof(BlockDescriptor))
        return Id;
    }
    return InvalidBlockId;
  }

  bool isLive(BlockId Id) const {
    return Id != InvalidBlockId && Id <= Blocks.size() &&
           Blocks[Id - 1] != nullptr;
  }

  size_t liveCount() const { return NumLive; }

  /// Calls \p Fn(BlockId, BlockDescriptor&) on every live block in id
  /// order.  Sweeping iterates this way and relies on ids being stable
  /// across the callback (the callback may destroy the current block).
  template <typename FnT> void forEach(FnT Fn) {
    for (BlockId Id = 1; Id <= Blocks.size(); ++Id)
      if (Blocks[Id - 1])
        Fn(Id, *Blocks[Id - 1]);
  }

private:
  BlockDescriptor *newDescriptor();
  void deleteDescriptor(BlockDescriptor *D);

  MetadataArena *Arena;
  std::vector<BlockDescriptor *> Blocks;
  std::vector<BlockId> FreeIds;
  size_t NumLive = 0;
};

} // namespace cgc

#endif // CGC_HEAP_BLOCKTABLE_H
