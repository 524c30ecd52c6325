//===- heap/MarkTable.cpp - Address-indexed mark bits ---------------------===//

#include "heap/MarkTable.h"
#include <algorithm>
#include <bit>
#include <sys/mman.h>

using namespace cgc;

MarkTable::MarkTable(PageIndex BasePage, PageIndex LimitPage)
    : BasePage(BasePage), NumPages(LimitPage - BasePage),
      BaseOffset(offsetOfPage(BasePage)),
      SpanBytes(uint64_t(LimitPage - BasePage) * PageSize) {
  CGC_CHECK(LimitPage > BasePage, "mark table over an empty heap range");
  MappedBytes = size_t(NumPages) * WordsPerPage * sizeof(uint64_t);
  // MAP_NORESERVE: the table is address space until a block's page is
  // first cleared or marked.
  void *Mapped = ::mmap(nullptr, MappedBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CGC_CHECK(Mapped != MAP_FAILED, "failed to reserve the mark table");
  Words = static_cast<uint64_t *>(Mapped);
}

MarkTable::~MarkTable() { ::munmap(Words, MappedBytes); }

void MarkTable::gather(const BlockDescriptor &Block,
                       uint64_t (&Slots)[MaxSlotWords]) const {
  std::fill(std::begin(Slots), std::end(Slots), 0);
  // Every slot base lies on the block's first page (a small block has
  // one page; a large block's one slot starts on its first), so a set
  // bit's slot is the granule's distance from the first slot times the
  // slot reciprocal.  A bit that is no slot base is skipped; one before
  // the first slot wraps to a huge distance and fails the slot-count
  // test.  Slots rise with the granule, so each slot word is built in a
  // register and stored once.
  const uint64_t *Page = pageWords(Block.StartPage);
  const uint32_t First = Block.FirstObjectOffset;
  const uint32_t Size = Block.ObjectSize;
  const uint64_t Reciprocal = Block.SlotReciprocal;
  const uint64_t Count = Block.ObjectCount;
  uint64_t Word = 0, Acc = 0;
  for (size_t W = 0; W != WordsPerPage; ++W) {
    for (uint64_t Bits = Page[W]; Bits != 0; Bits &= Bits - 1) {
      uint32_t Delta = static_cast<uint32_t>(
                           (W * 64 + std::countr_zero(Bits)) * GranuleBytes) -
                       First;
      uint64_t Slot = static_cast<uint64_t>(
          (static_cast<unsigned __int128>(Reciprocal) * Delta) >> 64);
      if (Slot >= Count || Slot * Size != Delta)
        continue;
      if (Slot / 64 != Word) {
        Slots[Word] = Acc;
        Word = Slot / 64;
        Acc = 0;
      }
      Acc |= uint64_t(1) << (Slot % 64);
    }
  }
  Slots[Word] = Acc;
}
