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
///   * *Address-ordered first fit*: free pages are a page set
///     (heap/PageSet.h), and a request takes the lowest feasible start,
///     which the paper notes is cheap for a collector and reduces
///     fragmentation versus LIFO reuse.  A free run is a maximal run of
///     members, so freeing coalesces by construction, and freeing or
///     carving a run sets or clears a range of bits without allocating.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_PAGEALLOCATOR_H
#define CGC_HEAP_PAGEALLOCATOR_H

#include "heap/HeapUnits.h"
#include "heap/PageSet.h"
#include "heap/VirtualArena.h"
#include "support/MetadataArena.h"
#include <functional>
#include <optional>
#include <vector>

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
  /// \param MetaArena    optional sealable arena for the free and the
  ///                     quarantined page sets.
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
    Free.forEachRun(BasePage, arenaLimitPage(),
                    [&](PageIndex Start, uint32_t Length) {
                      Fn(Start, Length);
                      return true;
                    });
  }

  /// Withdraws [Start, Start+NumPages) from circulation permanently:
  /// the pages join the quarantined set and are never handed out
  /// again.  Repair quarantines pages whose metadata cannot be
  /// reconstructed — a deliberate leak beats a dangling reuse.  The
  /// caller is responsible for removing the run from the free pool
  /// (rebuildFreeRuns does this wholesale).
  void quarantineRun(PageIndex Start, uint32_t NumPages);

  /// Calls \p Fn(Start, Length) for each maximal run of quarantined
  /// pages, lowest first.
  template <typename FnT> void forEachQuarantinedRun(FnT Fn) const {
    Quarantined.forEachRun(BasePage, arenaLimitPage(),
                           [&](PageIndex Start, uint32_t Length) {
                             Fn(Start, Length);
                             return true;
                           });
  }

  /// Repair entry point: discards the (possibly corrupt) free-page set
  /// and re-adds \p Runs, which must be disjoint, ascending, and inside
  /// [arenaBasePage(), committedLimitPage()).  Freed pages are
  /// marked for deferred decommit, exactly as an ordinary freeRun would.
  void rebuildFreeRuns(
      const std::vector<std::pair<PageIndex, uint32_t>> &Runs);

private:
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
  using MetadataPageSet = BasicPageSet<MetadataAllocator<uint64_t>>;
  /// The free pages; only committed pages are ever free.  First fit
  /// takes its lowest() as the search start, and a freed run lowers the
  /// set's bound, so a heap filling up from the bottom does not rescan
  /// its full prefix on every request.  The free and the quarantined
  /// sets are sized at construction and live in the sealable arena
  /// (when one is configured): they are exactly the metadata a wild
  /// store corrupts.
  MetadataPageSet Free;
  /// The pages quarantineRun withdrew for good.
  MetadataPageSet Quarantined;
  std::function<bool(PageIndex)> IsBlacklisted;
  PageAllocatorStats Stats;
  /// Resident holds the free pages that still hold their old contents,
  /// Aged the pages already resident at the last ageDeferredDecommits
  /// call.  Sized at construction, so the sweep's frees never allocate
  /// while the world is stopped.
  PageSet Resident;
  PageSet Aged;
};

} // namespace cgc

#endif // CGC_HEAP_PAGEALLOCATOR_H
