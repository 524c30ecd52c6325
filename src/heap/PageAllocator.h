//===- heap/PageAllocator.h - Page-run allocator ---------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocates runs of pages inside the heap arena (a sub-range of the
/// window chosen by the placement policy).  Three of the paper's
/// techniques live here:
///
///   * *Placement*: the arena's base offset is configurable, so the heap
///     can sit where random data words are unlikely to point (high bits
///     neither all zeros nor all ones, outside the ASCII byte range).
///   * *Blacklist-aware allocation*: before handing out a run, the
///     allocator consults a per-page predicate.  Pointer-containing
///     allocations refuse blacklisted first pages, and when interior
///     pointers force whole-object retention, refuse runs that *span*
///     blacklisted pages.  Pointer-free allocations ignore the
///     blacklist, reclaiming those pages at near-zero risk.
///   * *Address-ordered first fit*: free pages are one bit each in a
///     free-page bitmap, and a request takes the lowest feasible start,
///     which the paper notes is cheap for a collector and reduces
///     fragmentation versus LIFO reuse.  A free run is a maximal run of
///     set bits, so freeing coalesces by construction, and freeing or
///     carving a run sets or clears a range of bits without allocating.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_PAGEALLOCATOR_H
#define CGC_HEAP_PAGEALLOCATOR_H

#include "heap/HeapUnits.h"
#include "heap/VirtualArena.h"
#include "support/BitVector.h"
#include "support/MetadataArena.h"
#include <algorithm>
#include <functional>
#include <map>
#include <optional>

namespace cgc {

/// Blacklist requirement for a page-run allocation.
enum class PageConstraint {
  /// Any pages will do (pointer-free objects).
  None,
  /// The first page must not be blacklisted (pointer-containing objects
  /// when only object-base pointers are honored).
  FirstPageClean,
  /// No page of the run may be blacklisted (pointer-containing objects
  /// when arbitrary interior pointers are honored).
  AllPagesClean,
};

struct PageAllocatorStats {
  uint64_t CommittedPages = 0;
  uint64_t AllocatedPages = 0;
  /// Pages passed over during searches because of the blacklist.
  uint64_t BlacklistSkippedPages = 0;
  /// Allocation requests that had to grow the heap.
  uint64_t GrowEvents = 0;
  /// Requests that failed even after growing to the arena limit.
  uint64_t FailedRequests = 0;
  /// Pages deliberately leaked by verify-and-repair: their metadata was
  /// irreparable, so they are withdrawn from circulation forever.
  uint64_t QuarantinedPages = 0;
};

class PageAllocator {
public:
  /// \param Arena        the reserved window.
  /// \param BasePage     first page of the heap arena within the window.
  /// \param MaxPages     arena capacity; the heap never extends past it.
  /// \param GrowthPages  commit increment when the heap grows.
  /// \param MetaArena    optional sealable arena for the free-page
  ///                     bitmap and the quarantined-run nodes.
  ///
  /// Freed pages go back to the OS once they have stayed free for a
  /// whole collection cycle (see ageDeferredDecommits) and read as zero
  /// when handed out again.
  PageAllocator(VirtualArena &Arena, PageIndex BasePage, PageIndex MaxPages,
                uint32_t GrowthPages, MetadataArena *MetaArena = nullptr);

  /// Installs the per-page blacklist predicate (may be empty).
  void setBlacklistQuery(std::function<bool(PageIndex)> Query) {
    IsBlacklisted = std::move(Query);
  }

  /// Allocates \p NumPages contiguous pages honoring \p Constraint.
  /// Grows the committed heap if needed.  \returns the starting page, or
  /// std::nullopt if the arena limit is reached.  The run reads as zero
  /// unless \p Zeroed is false: then a page whose decommit is still
  /// pending keeps its old bytes, for a caller that zeroes what it hands
  /// out (a small block zeroes each slot at hand-out).
  std::optional<PageIndex> allocateRun(uint32_t NumPages,
                                       PageConstraint Constraint,
                                       bool Zeroed = true);

  /// Returns a run to the free pool; it merges with free neighbors.
  void freeRun(PageIndex Start, uint32_t NumPages);

  /// Decommits the pages that were already free at the previous call
  /// and are still free; the collector calls this once per collection.
  /// Until then a freed page stays resident and is zeroed if it is
  /// handed out again: blocks released by one sweep are mostly
  /// recreated before the next, and with several mutator threads every
  /// decommit costs a TLB shootdown.
  void ageDeferredDecommits();

  /// First page of the heap arena (potential heap start).
  PageIndex arenaBasePage() const { return BasePage; }
  /// One past the last page the arena may ever use.
  PageIndex arenaLimitPage() const { return BasePage + MaxPages; }
  /// One past the last committed heap page.
  PageIndex committedLimitPage() const { return CommitLimit; }

  /// \returns true if \p Page lies in the *potential* heap: committed or
  /// not, it could become an object address through later allocation.
  /// This is the "vicinity of the heap" test of the paper's Figure 2.
  bool inPotentialHeap(PageIndex Page) const {
    return Page >= BasePage && Page < arenaLimitPage();
  }

  const PageAllocatorStats &stats() const { return Stats; }

  /// Number of free pages currently committed but unused.
  uint64_t freePageCount() const { return Free.count(); }

  /// Calls \p Fn(Start, Length) for each free run in address order.
  /// Walks the whole arena, so the verifier also sees a stray bit past
  /// the committed limit.
  template <typename FnT> void forEachFreeRun(FnT Fn) const {
    walkFreeRuns(0, MaxPages, [&](PageIndex Start, uint32_t Length) {
      Fn(Start, Length);
      return true;
    });
  }

  /// Withdraws [Start, Start+NumPages) from circulation permanently:
  /// the run is recorded as quarantined and will never be handed out
  /// again.  Repair quarantines pages whose metadata cannot be
  /// reconstructed — a deliberate leak beats a dangling reuse.  The
  /// caller is responsible for removing the run from the free pool
  /// (rebuildFreeRuns does this wholesale).
  void quarantineRun(PageIndex Start, uint32_t NumPages);

  /// True when \p Page lies in a quarantined run.
  bool pageQuarantined(PageIndex Page) const;

  /// Calls \p Fn(Start, Length) for each quarantined run.
  template <typename FnT> void forEachQuarantinedRun(FnT Fn) const {
    for (const auto &[Start, Length] : Quarantined)
      Fn(Start, Length);
  }

  /// Repair entry point: discards the (possibly corrupt) free-page set
  /// and re-adds \p Runs, which must be disjoint, ascending, and inside
  /// [arenaBasePage(), committedLimitPage()).  Freed pages are
  /// marked for deferred decommit, exactly as an ordinary freeRun would.
  void rebuildFreeRuns(
      const std::vector<std::pair<PageIndex, uint32_t>> &Runs);

private:
  /// Calls \p Fn(Start, Length) for each maximal run of free pages
  /// in [BasePage + \p From, BasePage + \p Limit), lowest first, a
  /// bitmap word at a time, until Fn returns false.
  template <typename FnT>
  void walkFreeRuns(size_t From, size_t Limit, FnT Fn) const {
    for (size_t Begin = Free.findFirstSet(From, Limit); Begin != Free.Npos;) {
      size_t End = std::min(Free.findFirstUnset(Begin, Limit), Limit);
      if (!Fn(BasePage + static_cast<PageIndex>(Begin),
              static_cast<uint32_t>(End - Begin)))
        return;
      Begin = Free.findFirstSet(End, Limit);
    }
  }

  /// Searches the committed free runs, lowest first, for a feasible
  /// start.
  std::optional<PageIndex> findInFreeRuns(uint32_t NumPages,
                                          PageConstraint Constraint);

  /// Finds a feasible start inside [RunStart, RunStart+RunLen), or
  /// nullopt.  Updates BlacklistSkippedPages.
  std::optional<PageIndex> findInRun(PageIndex RunStart, uint32_t RunLen,
                                     uint32_t NumPages,
                                     PageConstraint Constraint);

  /// Commits more of the arena; \returns false at the arena limit.
  bool grow(uint32_t AtLeastPages);

  /// Removes [Start, Start+NumPages), which must be free, from the free
  /// pool.
  void carveFromFreeRun(PageIndex Start, uint32_t NumPages);

  bool pageBlacklisted(PageIndex Page) const {
    return IsBlacklisted && IsBlacklisted(Page);
  }

  VirtualArena &Arena;
  PageIndex BasePage;
  PageIndex MaxPages;
  uint32_t GrowthPages;
  PageIndex CommitLimit; ///< One past the last committed page.
  /// Free[P - BasePage] is set when page P is free.  Only committed
  /// pages are ever free.  The bitmap and the quarantined runs live in
  /// the sealable arena (when one is configured): they are exactly the
  /// metadata a wild store corrupts.
  BasicBitVector<MetadataAllocator<uint64_t>> Free;
  /// No page below BasePage + FirstFree is free: freeRun lowers the
  /// bound and first fit raises it to the lowest free page, so a heap
  /// filling up from the bottom does not rescan its full prefix on
  /// every request.
  size_t FirstFree;
  using RunMap =
      std::map<PageIndex, uint32_t, std::less<PageIndex>,
               MetadataAllocator<std::pair<const PageIndex, uint32_t>>>;
  /// Withdrawn runs (quarantineRun); rare, so a map.
  RunMap Quarantined;
  std::function<bool(PageIndex)> IsBlacklisted;
  PageAllocatorStats Stats;
  /// Resident[P - BasePage] marks a free page that
  /// still holds its old contents, Aged the pages already resident at
  /// the last ageDeferredDecommits call.  Sized at construction, so the
  /// sweep's frees never allocate while the world is stopped.
  BitVector Resident;
  BitVector Aged;
};

} // namespace cgc

#endif // CGC_HEAP_PAGEALLOCATOR_H
