//===- heap/TypeDescriptor.cpp - Interned type layout descriptors ---------===//

#include "heap/TypeDescriptor.h"
#include "heap/HeapUnits.h"

using namespace cgc;

uint32_t TypeDescriptor::pointerWordCount() const {
  if (usesInlineBitmap())
    return static_cast<uint32_t>(__builtin_popcountll(InlineBits));
  uint32_t Count = 0;
  for (uint64_t Bits : OutOfLineBits)
    Count += static_cast<uint32_t>(__builtin_popcountll(Bits));
  return Count;
}

LayoutId TypeDescriptorTable::intern(const std::vector<bool> &PointerWords,
                                     uint32_t SizeBytes) {
  CGC_CHECK(SizeBytes > 0 && SizeBytes % WordBytes == 0,
            "descriptor size must be a positive word multiple");
  uint32_t NumWords = SizeBytes / WordBytes;

  // Normalize to a fixed-width bitmap: words past the provided vector
  // (and any vector entries past the object) are pointer-free.
  std::vector<uint64_t> Bits((NumWords + 63) / 64, 0);
  uint32_t SetCount = 0;
  for (uint32_t I = 0; I != NumWords && I != PointerWords.size(); ++I) {
    if (!PointerWords[I])
      continue;
    Bits[I / 64] |= uint64_t(1) << (I % 64);
    ++SetCount;
  }

  // Registration is rare (callers cache the id), so interning searches
  // the table itself.
  for (size_t I = 0; I != Table.size(); ++I) {
    const TypeDescriptor &D = Table[I];
    if (D.SizeBytes == SizeBytes &&
        (D.usesInlineBitmap() ? D.InlineBits == Bits[0]
                              : D.OutOfLineBits == Bits))
      return static_cast<LayoutId>(I + 1);
  }

  TypeDescriptor D;
  D.SizeBytes = SizeBytes;
  D.NumWords = NumWords;
  if (SetCount == 0)
    D.Class = DescriptorClass::PointerFree;
  else if (SetCount == NumWords)
    D.Class = DescriptorClass::Conservative;
  else
    D.Class = DescriptorClass::Precise;
  if (NumWords <= TypeDescriptor::InlineWordLimit)
    D.InlineBits = Bits[0];
  else
    D.OutOfLineBits = Bits;
  Table.push_back(std::move(D));
  return static_cast<LayoutId>(Table.size());
}
