//===- heap/PageSet.h - Ordered set of heap pages --------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ordered set of pages: one bit per page from a base page, plus a
/// lower bound on the lowest member.  Every ordered page set the heap
/// keeps is one: the page allocator's free, quarantined, resident and
/// aged pages, and each lane's listed block start pages
/// (heap/ObjectHeap.h).  Address-ordered first fit, which the paper
/// recommends, is lowest() over one of them.
///
/// Inserting or erasing a page sets or clears bits, so a member costs no
/// allocation; only the constructor and reserve() size the bitmap.
/// lowest() searches a word at a time from the bound and raises the
/// bound to what it finds, so a set that fills up from the bottom is not
/// rescanned from its base on every request, and forEachRun walks the
/// maximal runs of members a word at a time (side tables searched a
/// word at a time, as in Nofl).  The word array takes an allocator, so
/// a set can live in the sealable MetadataArena.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_PAGESET_H
#define CGC_HEAP_PAGESET_H

#include "heap/HeapUnits.h"
#include "support/BitVector.h"
#include <algorithm>
#include <memory>

namespace cgc {

template <typename AllocT = std::allocator<uint64_t>> class BasicPageSet {
public:
  /// What lowest() returns for an empty set.
  static constexpr PageIndex NoPage = ~PageIndex(0);

  /// An empty set that can hold pages [Base, Base + NumPages); its
  /// words come from \p Alloc.
  explicit BasicPageSet(PageIndex Base = 0, size_t NumPages = 0,
                        const AllocT &Alloc = AllocT())
      : Bits(Alloc), Base(Base) {
    Bits.resize(NumPages);
  }

  /// Grows the set so that it can hold every page below \p Limit.
  void reserve(PageIndex Limit) {
    if (Limit - Base > Bits.size())
      Bits.resize(Limit - Base);
  }

  /// Whether \p Page is a member; false for a page the set cannot hold.
  bool contains(PageIndex Page) const {
    return Page >= Base && Page - Base < Bits.size() && Bits.test(Page - Base);
  }

  /// Whether any page of [Start, Start + NumPages) is a member.
  bool containsAny(PageIndex Start, uint32_t NumPages) const {
    return Bits.anyInRange(Start - Base, size_t(Start - Base) + NumPages);
  }

  /// Whether every page of [Start, Start + NumPages) is a member.
  bool containsAll(PageIndex Start, uint32_t NumPages) const {
    return Bits.findFirstUnset(Start - Base, size_t(Start - Base) +
                                                 NumPages) == Bits.Npos;
  }

  /// Adds [Start, Start + NumPages), which the set must be able to hold.
  void insert(PageIndex Start, uint32_t NumPages = 1) {
    Bits.setRange(Start - Base, size_t(Start - Base) + NumPages);
    Lowest = std::min<size_t>(Lowest, Start - Base);
  }

  /// Removes [Start, Start + NumPages).
  void erase(PageIndex Start, uint32_t NumPages = 1) {
    Bits.resetRange(Start - Base, size_t(Start - Base) + NumPages);
  }

  /// Removes every member.
  void clear() {
    Bits.clearAll();
    Lowest = Bits.Npos;
  }

  /// Keeps only the members \p Other holds too, a word at a time; both
  /// sets must hold the same pages.
  void intersect(const BasicPageSet &Other) { Bits.andWith(Other.Bits); }

  /// The lowest member, or NoPage.  No member lies below the bound, so
  /// the search starts there, and the bound moves up to what it finds.
  PageIndex lowest() {
    Lowest = Bits.findFirstSet(Lowest);
    return Lowest == Bits.Npos ? NoPage : Base + static_cast<PageIndex>(Lowest);
  }

  /// The number of members.
  size_t count() const { return Bits.count(); }

  /// Calls \p Fn(Start, Length) for each maximal run of members inside
  /// [From, Limit), lowest first, until Fn returns false.  Fn may erase
  /// the run it is given.
  template <typename FnT>
  void forEachRun(PageIndex From, PageIndex Limit, FnT Fn) const {
    size_t End = std::min<size_t>(Limit - Base, Bits.size());
    for (size_t Begin = Bits.findFirstSet(From - Base, End);
         Begin != Bits.Npos;) {
      size_t RunEnd = std::min(Bits.findFirstUnset(Begin, End), End);
      if (!Fn(Base + static_cast<PageIndex>(Begin),
              static_cast<uint32_t>(RunEnd - Begin)))
        return;
      Begin = Bits.findFirstSet(RunEnd, End);
    }
  }

private:
  BasicBitVector<AllocT> Bits;
  PageIndex Base;
  /// No member lies below Base + Lowest: insert lowers it and lowest()
  /// raises it.
  size_t Lowest = BasicBitVector<AllocT>::Npos;
};

using PageSet = BasicPageSet<>;

} // namespace cgc

#endif // CGC_HEAP_PAGESET_H
