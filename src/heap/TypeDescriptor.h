//===- heap/TypeDescriptor.h - Interned type layout descriptors *- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The descriptor-driven tracing layer's registry.  A TypeDescriptor
/// records which words of an object may hold pointers; the mark loop
/// dispatches on it so typed objects are traced precisely (the "exact
/// heap information, conservative stacks" regime the paper's survey
/// attributes to Bartlett's and Chailloux's collectors, and bdwgc's
/// typd_mlc.c ships in production) while untyped allocations keep the
/// paper's conservative word scan.
///
/// Descriptors are *interned*: registering the same {bitmap, size}
/// twice yields the same id, so library code (cords, the interpreter)
/// can re-register per collector without growing the table.  Two
/// degenerate bitmap shapes collapse onto today's ObjectKinds instead
/// of minting typed ids:
///
///   * all words pointer-bearing -> DescriptorClass::Conservative; the
///     allocation routes to the ordinary untyped Normal-kind path and
///     is scanned exactly like any untyped object.
///   * no word pointer-bearing  -> DescriptorClass::PointerFree; the
///     allocation routes to the PointerFree kind (never scanned, may
///     land on blacklisted pages).
///
/// Only genuinely mixed bitmaps become Precise descriptors with typed
/// (LayoutId != 0) heap blocks — which is what keeps every non-typed
/// code path (guarded heap, sweep order, caches) bit-identical to the
/// pre-descriptor collector.
///
/// The pointer bitmap is stored inline in one machine word for types of
/// up to 64 words (512 bytes — covering both in-tree adopters and the
/// fine-grained size classes) and out of line above that.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_TYPEDESCRIPTOR_H
#define CGC_HEAP_TYPEDESCRIPTOR_H

#include "support/Assert.h"
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace cgc {

/// Identifier of an interned descriptor; 0 = fully conservative
/// (untyped).  The name predates the descriptor registry: block tables
/// and the C++ API grew up calling this a "layout" id.
using LayoutId = uint32_t;

/// How the mark loop treats an object's words.
enum class DescriptorClass : unsigned char {
  /// Every word is a potential pointer: the paper's conservative scan.
  Conservative = 0,
  /// Exactly the bitmap's words are traced; the rest are ignored, and
  /// a failed resolution of a traced word is a stale/foreign pointer,
  /// not a near miss — it never feeds the blacklist.
  Precise = 1,
  /// No word holds a pointer; the payload is never scanned.
  PointerFree = 2,
};

constexpr unsigned NumDescriptorClasses = 3;

constexpr const char *descriptorClassName(DescriptorClass Class) {
  switch (Class) {
  case DescriptorClass::Conservative:
    return "conservative";
  case DescriptorClass::Precise:
    return "precise";
  case DescriptorClass::PointerFree:
    return "pointer-free";
  }
  return "unknown";
}

/// One interned per-type layout descriptor.
class TypeDescriptor {
public:
  /// Types of up to this many words keep their bitmap inline.
  static constexpr uint32_t InlineWordLimit = 64;

  DescriptorClass Class = DescriptorClass::Conservative;
  /// Object size in bytes (granule-aligned at interning).
  uint32_t SizeBytes = 0;
  /// Object size in pointer-sized words.
  uint32_t NumWords = 0;

  bool wordMayHoldPointer(uint32_t Word) const {
    if (Word >= NumWords)
      return false;
    if (NumWords <= InlineWordLimit)
      return (InlineBits >> Word) & 1;
    return (OutOfLineBits[Word / 64] >> (Word % 64)) & 1;
  }

  /// Calls \p Fn(Word) for each pointer-bearing word index below
  /// min(\p Limit, NumWords), in increasing order, walking the bitmap a
  /// 64-bit word at a time, until \p Fn returns false.  The precise scan
  /// loops stride with this.
  template <typename FnT>
  void forEachPointerWord(uint32_t Limit, FnT Fn) const {
    const uint64_t *Bits =
        usesInlineBitmap() ? &InlineBits : OutOfLineBits.data();
    uint32_t End = std::min(Limit, NumWords);
    for (uint32_t W = 0; W * 64 < End; ++W) {
      uint64_t Set = Bits[W];
      if (End - W * 64 < 64)
        Set &= (uint64_t(1) << (End - W * 64)) - 1;
      for (; Set != 0; Set &= Set - 1)
        if (!Fn(W * 64 + static_cast<uint32_t>(std::countr_zero(Set))))
          return;
    }
  }

  /// Number of pointer-bearing words.
  uint32_t pointerWordCount() const;

  bool usesInlineBitmap() const { return NumWords <= InlineWordLimit; }

private:
  friend class TypeDescriptorTable;
  /// Pointer-word bitmap when NumWords <= InlineWordLimit.
  uint64_t InlineBits = 0;
  /// Bitmap words (64 object words each) beyond the inline limit.
  std::vector<uint64_t> OutOfLineBits;
};

/// The interned registry; one per ObjectHeap.
class TypeDescriptorTable {
public:
  /// Interns a descriptor for an object of \p SizeBytes whose word I
  /// may hold a pointer iff PointerWords[I] (words past the vector's
  /// end are pointer-free).  \p SizeBytes must already be granule-
  /// aligned.  Degenerate bitmaps classify as Conservative/PointerFree
  /// (see the file comment); identical registrations return the same
  /// id.
  LayoutId intern(const std::vector<bool> &PointerWords,
                  uint32_t SizeBytes);

  const TypeDescriptor &get(LayoutId Id) const {
    CGC_ASSERT(Id != 0 && Id <= Table.size(), "bad descriptor id");
    return Table[Id - 1];
  }

  /// Number of interned descriptors (ids are 1..size()).
  size_t size() const { return Table.size(); }

private:
  /// Descriptor Id lives at Table[Id - 1].
  std::vector<TypeDescriptor> Table;
};

} // namespace cgc

#endif // CGC_HEAP_TYPEDESCRIPTOR_H
