//===- support/BitVector.cpp - Dynamic bit vector -------------------------===//

#include "support/BitVector.h"
#include "support/MathExtras.h"
#include <bit>

using namespace cgc;

template <typename AllocT>
void BasicBitVector<AllocT>::resize(size_t NewSize, bool Value) {
  size_t OldSize = NumBits;
  size_t NewWords = divideCeil(NewSize, BitsPerWord);
  if (Value && NewSize > OldSize && OldSize % BitsPerWord != 0) {
    // Fill the tail of the current last word before growing.
    size_t WordIdx = OldSize / BitsPerWord;
    uint64_t Mask = ~uint64_t(0) << (OldSize % BitsPerWord);
    Words[WordIdx] |= Mask;
  }
  Words.resize(NewWords, Value ? ~uint64_t(0) : 0);
  NumBits = NewSize;
  clearUnusedBits();
}

template <typename AllocT>
void BasicBitVector<AllocT>::clearUnusedBits() {
  if (NumBits % BitsPerWord == 0 || Words.empty())
    return;
  uint64_t Mask = (uint64_t(1) << (NumBits % BitsPerWord)) - 1;
  Words.back() &= Mask;
}

template <typename AllocT>
void BasicBitVector<AllocT>::clearAll() {
  for (uint64_t &Word : Words)
    Word = 0;
}

template <typename AllocT>
void BasicBitVector<AllocT>::setAll() {
  for (uint64_t &Word : Words)
    Word = ~uint64_t(0);
  clearUnusedBits();
}

template <typename AllocT>
size_t BasicBitVector<AllocT>::count() const {
  size_t Total = 0;
  for (uint64_t Word : Words)
    Total += static_cast<size_t>(std::popcount(Word));
  return Total;
}

template <typename AllocT>
size_t BasicBitVector<AllocT>::countInRange(size_t Begin, size_t End) const {
  CGC_ASSERT(Begin <= End && End <= NumBits, "countInRange out of range");
  size_t Total = 0;
  for (size_t I = Begin; I < End;) {
    size_t WordIdx = I / BitsPerWord;
    size_t BitIdx = I % BitsPerWord;
    size_t Span = std::min(End - I, BitsPerWord - BitIdx);
    uint64_t Word = Words[WordIdx] >> BitIdx;
    if (Span < BitsPerWord)
      Word &= (uint64_t(1) << Span) - 1;
    Total += static_cast<size_t>(std::popcount(Word));
    I += Span;
  }
  return Total;
}

template <typename AllocT>
size_t BasicBitVector<AllocT>::findFirst(size_t From, size_t Limit,
                                         uint64_t Flip) const {
  Limit = std::min(Limit, NumBits);
  if (From >= Limit)
    return Npos;
  size_t WordIdx = From / BitsPerWord;
  size_t LastWord = (Limit - 1) / BitsPerWord;
  // Flip turns a search for clear bits into one for set bits; mask off
  // the bits below From.
  uint64_t Word =
      (Words[WordIdx] ^ Flip) & (~uint64_t(0) << (From % BitsPerWord));
  while (true) {
    if (Word != 0) {
      size_t Bit = WordIdx * BitsPerWord +
                   static_cast<size_t>(std::countr_zero(Word));
      return Bit < Limit ? Bit : Npos;
    }
    if (WordIdx == LastWord)
      return Npos;
    Word = Words[++WordIdx] ^ Flip;
  }
}

template <typename AllocT>
size_t BasicBitVector<AllocT>::findFirstSet(size_t From, size_t Limit) const {
  return findFirst(From, Limit, 0);
}

template <typename AllocT>
size_t BasicBitVector<AllocT>::findFirstUnset(size_t From,
                                              size_t Limit) const {
  return findFirst(From, Limit, ~uint64_t(0));
}

template <typename AllocT>
bool BasicBitVector<AllocT>::anyInRange(size_t Begin, size_t End) const {
  return findFirstSet(Begin, End) != Npos;
}

template <typename AllocT>
void BasicBitVector<AllocT>::setRange(size_t Begin, size_t End) {
  CGC_ASSERT(Begin <= End && End <= NumBits, "setRange out of range");
  for (size_t I = Begin; I < End;) {
    size_t WordIdx = I / BitsPerWord;
    size_t BitIdx = I % BitsPerWord;
    size_t Span = std::min(End - I, BitsPerWord - BitIdx);
    uint64_t Mask = Span == BitsPerWord ? ~uint64_t(0)
                                        : ((uint64_t(1) << Span) - 1);
    Words[WordIdx] |= Mask << BitIdx;
    I += Span;
  }
}

template <typename AllocT>
void BasicBitVector<AllocT>::resetRange(size_t Begin, size_t End) {
  CGC_ASSERT(Begin <= End && End <= NumBits, "resetRange out of range");
  for (size_t I = Begin; I < End;) {
    size_t WordIdx = I / BitsPerWord;
    size_t BitIdx = I % BitsPerWord;
    size_t Span = std::min(End - I, BitsPerWord - BitIdx);
    uint64_t Mask = Span == BitsPerWord ? ~uint64_t(0)
                                        : ((uint64_t(1) << Span) - 1);
    Words[WordIdx] &= ~(Mask << BitIdx);
    I += Span;
  }
}

template <typename AllocT>
void BasicBitVector<AllocT>::andWith(const BasicBitVector &Other) {
  CGC_CHECK(NumBits == Other.NumBits, "BitVector size mismatch in andWith");
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] &= Other.Words[I];
}

template <typename AllocT>
void BasicBitVector<AllocT>::orWith(const BasicBitVector &Other) {
  CGC_CHECK(NumBits == Other.NumBits, "BitVector size mismatch in orWith");
  for (size_t I = 0, E = Words.size(); I != E; ++I)
    Words[I] |= Other.Words[I];
}

template class cgc::BasicBitVector<std::allocator<uint64_t>>;
template class cgc::BasicBitVector<MetadataAllocator<uint64_t>>;
