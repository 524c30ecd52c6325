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
///
//===----------------------------------------------------------------------===//

#ifndef CGC_SUPPORT_BITVECTOR_H
#define CGC_SUPPORT_BITVECTOR_H

#include "support/Assert.h"
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cgc {

class BitVector {
public:
  static constexpr size_t Npos = static_cast<size_t>(-1);

  BitVector() = default;
  explicit BitVector(size_t NumBits, bool Initial = false) {
    resize(NumBits, Initial);
  }

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

  /// \returns the index of the first set bit at or after \p From,
  /// or Npos if none.
  size_t findFirstSet(size_t From = 0) const;

  /// \returns the index of the first clear bit at or after \p From,
  /// or Npos if none.
  size_t findFirstUnset(size_t From = 0) const;

  /// \returns true if any bit in [Begin, End) is set.  Page allocation
  /// uses this to reject runs that overlap blacklisted pages.
  bool anyInRange(size_t Begin, size_t End) const;

  /// Sets all bits in [Begin, End).
  void setRange(size_t Begin, size_t End);

  /// Clears all bits in [Begin, End).
  void resetRange(size_t Begin, size_t End);

  /// Bitwise AND with \p Other (sizes must match).  Blacklist aging
  /// intersects "blacklisted" with "seen this collection".
  void andWith(const BitVector &Other);

  /// Bitwise OR with \p Other (sizes must match).
  void orWith(const BitVector &Other);

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

private:
  static constexpr size_t BitsPerWord = 64;

  /// Zeroes the unused high bits of the last word so count() and the
  /// find operations never see stale bits.
  void clearUnusedBits();

  std::vector<uint64_t> Words;
  size_t NumBits = 0;
};

} // namespace cgc

#endif // CGC_SUPPORT_BITVECTOR_H
