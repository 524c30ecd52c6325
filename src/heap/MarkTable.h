//===- heap/MarkTable.h - Address-indexed mark bits ------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap's only record of marks: one bit per 8-byte granule over the
/// heap arena's page range, indexed by address alone.  A bit is set only
/// at the base of a slot of a live block that the last mark marked, and
/// ObjectHeap::clearMarks clears every bit before a mark begins.  That
/// invariant lets the mark loop answer Figure 2's "if p is marked
/// return" before any validity test: a granule-aligned candidate whose
/// bit is set is a marked object's base, which every interior-pointer
/// policy accepts, so one load settles it with no page-map probe and no
/// descriptor fetch (side metadata in the style of Nofl's per-granule
/// bytes).
///
/// The table costs 1/64 of the range it covers, 8 words per 4 KiB page.
/// It is reserved with MAP_NORESERVE, so only the table pages of heap
/// pages that blocks actually used are ever committed.  A page's 8
/// words are one aligned 64-byte line.  Like the other per-slot bitmaps
/// it lives outside the MetadataArena.
///
/// Per-slot views (sweep, pin pass, overflow recovery) gather a block's
/// marks into slot-indexed words; see gather.  No access is atomic:
/// marks change only under the heap lock, and during the Mark phase
/// only the one marker writes.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_MARKTABLE_H
#define CGC_HEAP_MARKTABLE_H

#include "heap/BlockTable.h"
#include "heap/HeapUnits.h"
#include "support/Assert.h"
#include <cstdint>
#include <cstring>

namespace cgc {

class MarkTable {
public:
  /// Table words per heap page: one bit per granule.
  static constexpr size_t WordsPerPage = PageSize / GranuleBytes / 64;
  /// Slot-indexed words a gather fills: a small block has at most one
  /// slot per granule of its page, and a large block has one slot.
  static constexpr size_t MaxSlotWords = WordsPerPage;

  /// Reserves the table for heap pages [\p BasePage, \p LimitPage).
  MarkTable(PageIndex BasePage, PageIndex LimitPage);
  ~MarkTable();

  MarkTable(const MarkTable &) = delete;
  MarkTable &operator=(const MarkTable &) = delete;

  /// The mark loop's first question: is \p Candidate the base of an
  /// object this cycle marked?  False for an offset outside the table
  /// or not granule-aligned.  The base offset is page-aligned, so the
  /// alignment test and the range test share one subtraction.
  bool isMarkedBase(WindowOffset Candidate) const {
    uint64_t Rel = Candidate - BaseOffset;
    if (Rel % GranuleBytes != 0 || Rel >= SpanBytes)
      return false;
    uint64_t Granule = Rel / GranuleBytes;
    return (Words[Granule / 64] >> (Granule % 64)) & 1;
  }

  /// \returns the mark bit at slot base \p Base, which must be a
  /// granule inside the table.
  bool test(WindowOffset Base) const {
    uint64_t Granule = granuleOf(Base);
    return (Words[Granule / 64] >> (Granule % 64)) & 1;
  }

  /// Sets the mark bit at slot base \p Base.
  void set(WindowOffset Base) {
    uint64_t Granule = granuleOf(Base);
    Words[Granule / 64] |= uint64_t(1) << (Granule % 64);
  }

  /// \returns whether \p Block's slot \p Slot is marked.
  bool isMarked(const BlockDescriptor &Block, uint32_t Slot) const {
    return test(Block.slotOffset(Slot));
  }

  /// Clears the one page of \p Block that can hold its slot bases: a
  /// small block's page, or a large block's first page.
  void clearBlock(const BlockDescriptor &Block) {
    clearPages(Block.StartPage, 1);
  }

  /// Clears the words of pages [\p Start, \p Start + \p Count).
  void clearPages(PageIndex Start, uint32_t Count) {
    if (Count != 0)
      std::memset(pageWords(Start), 0,
                  size_t(Count) * WordsPerPage * sizeof(uint64_t));
  }

  /// Fills \p Slots with \p Block's marks, slot-indexed: bit S of word
  /// S / 64 is slot S's mark.  Words past the block's slots are zero,
  /// and a set bit that is no slot base (only corruption makes one; the
  /// heap verifier reports it) marks nothing.  Each set bit costs one
  /// reciprocal multiply.
  void gather(const BlockDescriptor &Block,
              uint64_t (&Slots)[MaxSlotWords]) const;

  /// The WordsPerPage table words of heap page \p Page.
  const uint64_t *pageWords(PageIndex Page) const {
    return Words + pageIndex(Page) * WordsPerPage;
  }
  uint64_t *pageWords(PageIndex Page) {
    return Words + pageIndex(Page) * WordsPerPage;
  }

  PageIndex basePage() const { return BasePage; }
  PageIndex limitPage() const { return BasePage + NumPages; }

private:
  uint64_t granuleOf(WindowOffset Base) const {
    uint64_t Rel = Base - BaseOffset;
    CGC_ASSERT(Rel % GranuleBytes == 0 && Rel < SpanBytes,
               "mark bit for an offset that is no granule of the heap");
    return Rel / GranuleBytes;
  }

  size_t pageIndex(PageIndex Page) const {
    CGC_ASSERT(Page >= BasePage && Page - BasePage < NumPages,
               "mark-table page outside the heap");
    return Page - BasePage;
  }

  PageIndex BasePage;
  uint32_t NumPages;
  WindowOffset BaseOffset;
  uint64_t SpanBytes;
  uint64_t *Words;
  size_t MappedBytes;
};

} // namespace cgc

#endif // CGC_HEAP_MARKTABLE_H
