//===- roots/RootSet.h - Labeled root ranges -------------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The set of memory ranges the collector scans for roots: static data,
/// mutator stacks, register files, and explicitly registered client
/// ranges.  Each range carries an encoding:
///
///   * Native64 — the range holds real machine pointers (the examples'
///     machine stack, heap-external client structures).
///   * Window32LE / Window32BE — the range holds 32-bit offsets into
///     the collector's window.  This is how the simulated 1993 root
///     segments represent a 32-bit address space: a 32-bit data word
///     *is* a candidate address, with the paper's hit probabilities.
///     The BE variant models big-endian platforms (SPARC, SGI), whose
///     byte-level false-pointer anatomy (Figure 1, trailing-NUL
///     strings) differs from little-endian.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_ROOTS_ROOTSET_H
#define CGC_ROOTS_ROOTSET_H

#include "heap/HeapUnits.h"
#include "support/Assert.h"
#include <cstdint>
#include <string>
#include <vector>

namespace cgc {

enum class RootEncoding : unsigned char {
  Native64,
  Window32LE,
  Window32BE,
};

/// Broad classification used for statistics and for the paper's
/// source-of-leakage analysis (static vs stack vs register residue).
enum class RootSource : unsigned char {
  StaticData,
  Stack,
  Registers,
  Client,
};

using RootId = uint32_t;

struct RootRange {
  RootId Id = 0;
  const unsigned char *Begin = nullptr;
  const unsigned char *End = nullptr;
  RootEncoding Encoding = RootEncoding::Native64;
  RootSource Source = RootSource::Client;
  std::string Label;

  size_t sizeBytes() const { return static_cast<size_t>(End - Begin); }
};

class RootSet {
public:
  /// Registers [Begin, End) as a root range; \returns its id.
  RootId addRange(const void *Begin, const void *End, RootEncoding Encoding,
                  RootSource Source, std::string Label) {
    CGC_CHECK(Begin <= End, "inverted root range");
    RootRange Range;
    Range.Id = NextId++;
    Range.Begin = static_cast<const unsigned char *>(Begin);
    Range.End = static_cast<const unsigned char *>(End);
    Range.Encoding = Encoding;
    Range.Source = Source;
    Range.Label = std::move(Label);
    Ranges.push_back(std::move(Range));
    return Ranges.back().Id;
  }

  /// Unregisters a range; \returns true if it existed.
  bool removeRange(RootId Id) {
    for (size_t I = 0, E = Ranges.size(); I != E; ++I) {
      if (Ranges[I].Id == Id) {
        Ranges.erase(Ranges.begin() + static_cast<ptrdiff_t>(I));
        return true;
      }
    }
    return false;
  }

  /// Replaces the bounds of an existing range (a stack range's top
  /// moves between collections).
  bool updateRange(RootId Id, const void *Begin, const void *End) {
    CGC_CHECK(Begin <= End, "inverted root range");
    for (RootRange &Range : Ranges) {
      if (Range.Id != Id)
        continue;
      Range.Begin = static_cast<const unsigned char *>(Begin);
      Range.End = static_cast<const unsigned char *>(End);
      return true;
    }
    return false;
  }

  /// Pre-reserves capacity for \p N more ranges.  The collector calls
  /// this before stopping the world so that adding mutator stack and
  /// register ranges while threads are frozen (possibly inside libc
  /// malloc, under the watchdog's signal suspension) never allocates.
  void reserveAdditional(size_t N) { Ranges.reserve(Ranges.size() + N); }

  size_t rangeCount() const { return Ranges.size(); }

  size_t totalBytes() const {
    size_t Total = 0;
    for (const RootRange &Range : Ranges)
      Total += Range.sizeBytes();
    return Total;
  }

  template <typename FnT> void forEach(FnT Fn) const {
    for (const RootRange &Range : Ranges)
      Fn(Range);
  }

  /// Calls \p Fn(Range, Begin, End) for each scannable span of every
  /// registered range, in registration order with exclusions carved
  /// out.  Walks the ranges in place: a stopped world scans its roots
  /// without allocating.
  template <typename FnT> void forEachScannableSpan(FnT Fn) const {
    for (const RootRange &Range : Ranges)
      forEachScannableSubrange(
          Range.Begin, Range.End,
          [&](const unsigned char *Begin, const unsigned char *End) {
            Fn(Range, Begin, End);
          });
  }

  /// Excludes [Begin, End) from all root scanning.  The paper: "it is
  /// useful ... to avoid scanning large static data areas that contain
  /// seemingly random, nonpointer areas (e.g. IO buffers)."
  void addExclusion(const void *Begin, const void *End) {
    CGC_CHECK(Begin <= End, "inverted exclusion range");
    Exclusions.push_back({static_cast<const unsigned char *>(Begin),
                          static_cast<const unsigned char *>(End)});
  }

  size_t exclusionCount() const { return Exclusions.size(); }

  /// Calls \p Fn(Begin, End) for each maximal subrange of
  /// [Begin, End) that is not covered by an exclusion.
  template <typename FnT>
  void forEachScannableSubrange(const unsigned char *Begin,
                                const unsigned char *End, FnT Fn) const {
    const unsigned char *Cursor = Begin;
    while (Cursor < End) {
      // Find the first exclusion intersecting [Cursor, End).
      const unsigned char *HoleBegin = End;
      const unsigned char *HoleEnd = End;
      for (const Exclusion &Hole : Exclusions) {
        if (Hole.End <= Cursor || Hole.Begin >= End)
          continue;
        if (Hole.Begin < HoleBegin) {
          HoleBegin = std::max(Hole.Begin, Cursor);
          HoleEnd = std::min(Hole.End, End);
        }
      }
      if (Cursor < HoleBegin)
        Fn(Cursor, HoleBegin);
      if (HoleEnd <= Cursor)
        break;
      Cursor = HoleEnd;
    }
  }

private:
  struct Exclusion {
    const unsigned char *Begin;
    const unsigned char *End;
  };

  std::vector<RootRange> Ranges;
  std::vector<Exclusion> Exclusions;
  RootId NextId = 1;
};

} // namespace cgc

#endif // CGC_ROOTS_ROOTSET_H
