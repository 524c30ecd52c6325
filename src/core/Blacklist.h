//===- core/Blacklist.h - Page blacklisting --------------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central contribution: during marking, every value that
/// looks like it *could* become a heap address but is not a valid object
/// address is recorded, and the allocator then refuses to place
/// pointer-sensitive objects on those pages.  "This scheme is likely to
/// blacklist addresses that correspond to long-lived data values before
/// these values become false references."
///
/// One class, Blacklist, a bitmap that is page-granular as in the
/// paper; the representations differ only in how a page maps to a bit:
///   * flat — a bit array indexed by page number.
///   * hashed — a hash table with one bit per entry; a false reference
///     to any page in a hash class blacklists the whole class.  "Since
///     collisions can easily be made rare, this does not result in much
///     lost precision."
///   * off — a flat array over zero pages: notes are counted and
///     dropped, and no page is ever blacklisted.
///
/// Aging implements "blacklisted values that are no longer found by a
/// later collection may be removed from the list": each collection
/// records the candidates it saw, and at cycle end the live set becomes
/// the just-seen set.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_BLACKLIST_H
#define CGC_CORE_BLACKLIST_H

#include "heap/HeapUnits.h"
#include "support/BitVector.h"
#include <algorithm>
#include <cstdint>
#include <memory>

namespace cgc {

struct BlacklistStats {
  /// Candidates reported by the marker over the collector's lifetime.
  uint64_t CandidatesNoted = 0;
  /// Collection cycles observed.
  uint64_t Cycles = 0;
};

/// The page blacklist.  Flat mode keeps one bit per window page;
/// hashed mode one bit per multiplicative hash class of pages, so a
/// note on any page of a class blacklists the whole class.  The number
/// of set bits is kept as a running count, so entryCount() is O(1), and
/// each bitmap keeps the word range its set bits lie in, so a cycle
/// clears and copies only the words it set, not the whole window.
class Blacklist {
public:
  /// One bit per page of a \p NumPages window; later pages are ignored.
  static Blacklist flat(PageIndex NumPages, bool Aging) {
    return Blacklist(NumPages, /*HashBitsLog2=*/0, Aging);
  }
  /// A table of 2^\p BitsLog2 hash-class bits.
  static Blacklist hashed(unsigned BitsLog2, bool Aging);

  /// Records that marking saw a near-miss candidate on \p Page.
  void noteCandidate(PageIndex Page);

  /// \returns true if allocation on \p Page should be avoided.
  bool isBlacklisted(PageIndex Page) const {
    size_t Bit = bitFor(Page);
    return Bit != NoBit && Current.test(Bit);
  }

  /// Called at the start of a collection cycle.
  void beginCycle();

  /// Called at the end of a collection cycle; applies aging.
  void endCycle();

  /// One-shot aging on demand: drops every entry the most recent
  /// collection did not re-observe, even when aging is off.  The
  /// retention-storm sentinel's level-2 response — stale entries
  /// squeeze allocation onto fewer pages.
  void refresh();

  /// Set bits: pages in flat mode, hash classes in hashed mode.
  uint64_t entryCount() const { return CurrentCount; }
  /// The live bitmap, for cross-checks against the running count.
  const BitVector &bits() const { return Current; }

  const BlacklistStats &stats() const { return Stats; }

private:
  Blacklist(size_t NumBits, unsigned HashBitsLog2, bool Aging)
      : HashBitsLog2(HashBitsLog2), Current(NumBits), SeenThisCycle(NumBits),
        Aging(Aging) {}

  static constexpr size_t NoBit = ~size_t(0);

  /// The bit standing for \p Page, or NoBit past a flat map's end.
  size_t bitFor(PageIndex Page) const {
    if (HashBitsLog2 != 0)
      // Multiplicative hashing; high bits select the bucket.
      return static_cast<size_t>((uint64_t(Page) * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - HashBitsLog2));
    return Page < Current.size() ? Page : NoBit;
  }

  /// A half-open range of bitmap words that holds every set bit of one
  /// bitmap, so a cycle clears and copies only the words it wrote.
  struct WordRange {
    size_t Lo = 0, Hi = 0;
    void widen(size_t Bit) {
      size_t W = Bit / 64;
      if (Lo == Hi) {
        Lo = W;
        Hi = W + 1;
      } else {
        Lo = std::min(Lo, W);
        Hi = std::max(Hi, W + 1);
      }
    }
  };

  /// Aging: the live set becomes the just-seen set.  A copy, not a
  /// swap: refresh() may adopt twice between cycles, and the second
  /// adopt must still read this cycle's seen set.
  void adoptSeenSet();

  /// 0 in flat mode.
  unsigned HashBitsLog2;
  BitVector Current;
  BitVector SeenThisCycle;
  WordRange CurrentWords;
  WordRange SeenWords;
  uint64_t CurrentCount = 0;
  uint64_t SeenCount = 0;
  bool Aging;
  bool InCycle = false;
  BlacklistStats Stats;
};

enum class BlacklistMode : unsigned char;

/// Factory used by the collector; BlacklistMode::Off is a flat
/// blacklist over zero pages.
std::unique_ptr<Blacklist> createBlacklist(BlacklistMode Mode,
                                           PageIndex NumPages,
                                           unsigned HashedBitsLog2,
                                           bool Aging);

} // namespace cgc

#endif // CGC_CORE_BLACKLIST_H
