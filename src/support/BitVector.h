//===- support/BitVector.h - Dynamic bit vector ----------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit vector.  Mark bitmaps, page blacklists, and page-occupancy
/// maps are all bit vectors indexed by object or page number, so this
/// class provides the scan primitives those clients need: population
/// count, find-first-set/unset in a range, and whole-range clear.
/// The word array takes an allocator, so metadata that must live in a
/// sealable MetadataArena (the page allocator's free and quarantined
/// page sets, heap/PageSet.h) can use the same class; everything else
/// uses BitVector, the std::allocator instance.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_BITVECTOR_H
#define CGC_SUPPORT_BITVECTOR_H

#include "support/Assert.h"
#include "support/MetadataArena.h"
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cgc {

template <typename AllocT = std::allocator<uint64_t>> class BasicBitVector {
public:
  static constexpr size_t Npos = static_cast<size_t>(-1);

  BasicBitVector() = default;
  explicit BasicBitVector(size_t NumBits, bool Initial = false) {
    resize(NumBits, Initial);
  }
  /// An empty vector whose words come from \p Alloc.
  explicit BasicBitVector(const AllocT &Alloc) : Words(Alloc) {}

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p NewSize bits; new bits take value \p Value.
  void resize(size_t NewSize, bool Value = false);

  bool test(size_t Index) const {
    CGC_ASSERT(Index < NumBits, "BitVector::test out of range");
    return (Words[Index / BitsPerWord] >> (Index % BitsPerWord)) & 1;
  }

  void set(size_t Index) {
    CGC_ASSERT(Index < NumBits, "BitVector::set out of range");
    Words[Index / BitsPerWord] |= uint64_t(1) << (Index % BitsPerWord);
  }

  void reset(size_t Index) {
    CGC_ASSERT(Index < NumBits, "BitVector::reset out of range");
    Words[Index / BitsPerWord] &= ~(uint64_t(1) << (Index % BitsPerWord));
  }

  /// Sets bit \p Index and returns its previous value.  The mark loop
  /// uses this to combine the "already marked?" test with marking.
  bool testAndSet(size_t Index) {
    CGC_ASSERT(Index < NumBits, "BitVector::testAndSet out of range");
    uint64_t &Word = Words[Index / BitsPerWord];
    uint64_t Mask = uint64_t(1) << (Index % BitsPerWord);
    bool Old = (Word & Mask) != 0;
    Word |= Mask;
    return Old;
  }

  /// Atomic test: safe against concurrent *Atomic writers.  Allocation
  /// bitmaps of thread-owned blocks are read this way by every thread
  /// but the owner.
  bool testAtomic(size_t Index) const {
    CGC_ASSERT(Index < NumBits, "BitVector::testAtomic out of range");
    return (__atomic_load_n(&Words[Index / BitsPerWord], __ATOMIC_ACQUIRE) >>
            (Index % BitsPerWord)) &
           1;
  }

  /// Atomically clears bit \p Index; \returns its previous value.  With
  /// release order, so whoever next sets the bit (an owner thread
  /// allocating the slot) sees every store made before the clear.
  bool testAndResetAtomic(size_t Index) {
    CGC_ASSERT(Index < NumBits, "BitVector::testAndResetAtomic out of range");
    uint64_t Mask = uint64_t(1) << (Index % BitsPerWord);
    uint64_t Old = __atomic_fetch_and(&Words[Index / BitsPerWord], ~Mask,
                                      __ATOMIC_ACQ_REL);
    return (Old & Mask) != 0;
  }

  /// The backing words (bit I lives in word I / 64), for scanners that
  /// work a word at a time.  Stable until the next resize.
  uint64_t *words() { return Words.data(); }
  const uint64_t *words() const { return Words.data(); }
  size_t numWords() const { return Words.size(); }

  /// Clears every bit (size unchanged).
  void clearAll();

  /// Sets every bit (size unchanged).
  void setAll();

  /// \returns the number of set bits.
  size_t count() const;

  /// \returns the number of set bits in [Begin, End).
  size_t countInRange(size_t Begin, size_t End) const;

  /// \returns the index of the first set bit in [From, Limit), or Npos
  /// if none.  The search stops at the word holding Limit.
  size_t findFirstSet(size_t From = 0, size_t Limit = Npos) const;

  /// \returns the index of the first clear bit in [From, Limit), or
  /// Npos if none.
  size_t findFirstUnset(size_t From = 0, size_t Limit = Npos) const;

  /// \returns true if any bit in [Begin, End) is set.  Page allocation
  /// uses this to reject runs that overlap blacklisted pages.
  bool anyInRange(size_t Begin, size_t End) const;

  /// Sets all bits in [Begin, End).
  void setRange(size_t Begin, size_t End);

  /// Clears all bits in [Begin, End).
  void resetRange(size_t Begin, size_t End);

  /// Bitwise AND with \p Other (sizes must match).  Blacklist aging
  /// intersects "blacklisted" with "seen this collection".
  void andWith(const BasicBitVector &Other);

  /// Bitwise OR with \p Other (sizes must match).
  void orWith(const BasicBitVector &Other);

  bool operator==(const BasicBitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

private:
  static constexpr size_t BitsPerWord = 64;

  /// The first bit in [From, min(Limit, size())) whose value XOR the
  /// matching bit of \p Flip is set, or Npos.
  size_t findFirst(size_t From, size_t Limit, uint64_t Flip) const;

  /// Zeroes the unused high bits of the last word so count() and the
  /// find operations never see stale bits.
  void clearUnusedBits();

  std::vector<uint64_t, AllocT> Words;
  size_t NumBits = 0;
};

using BitVector = BasicBitVector<>;

// Both instances are compiled once, in BitVector.cpp.
extern template class BasicBitVector<std::allocator<uint64_t>>;
extern template class BasicBitVector<MetadataAllocator<uint64_t>>;

} // namespace cgc

#endif // CGC_SUPPORT_BITVECTOR_H
