//===- heap/HeapVerifier.h - Deep heap consistency checker -----*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full cross-check of the heap's metadata: block table ↔ page map ↔
/// free page runs ↔ lane listing ↔ bitmaps/byte accounting.  Unlike the
/// old abort-on-first-error verifyHeap, the verifier *accumulates* a
/// diagnostic report, so a corrupted heap yields every violated
/// invariant at once instead of one fatal message — the direction
/// "Automated Verification of Practical Garbage Collectors" argues a
/// collector's own invariants deserve first-class treatment.
///
/// Findings are typed ((kind, block, page) plus a message line),
/// deduplicated per (kind, page), and capped, so a massively
/// corrupted heap produces a bounded, readable report instead of a
/// million lines.  verifyAndRepair() goes one step further: lanes are
/// relisted from the alloc/pin counts, page-map entries re-derived
/// from the block table, counters resynced from their bitmaps, and
/// blocks whose geometry cannot be trusted are *quarantined* — their
/// pages deliberately leaked, because a contained leak always beats a
/// dangling reuse.
///
/// The report format is shared with the explicit baseline heap
/// (baseline/ExplicitHeap.h), so GC and malloc/free diagnostics read
/// the same.  Abort semantics are preserved by thin wrappers
/// (ObjectHeap::verifyHeap, Collector::verifyHeap) that fatal out when
/// a report is non-clean; GcConfig::VerifyEveryCollection has the
/// collector's runPhase call the verifier after every pipeline phase.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_HEAPVERIFIER_H
#define CGC_HEAP_HEAPVERIFIER_H

#include "heap/HeapUnits.h"
#include <cstdarg>
#include <string>
#include <vector>

namespace cgc {

class ObjectHeap;

/// What kind of invariant a finding violated.  Generic findings are
/// collector-level cross-checks recorded through note/notef; they
/// carry no block/page and are never deduplicated.
enum class VerifyFindingKind : unsigned char {
  Generic = 0,
  /// Block descriptor geometry is garbage (page range, slot overflow,
  /// large-block shape): unrepairable, quarantined.
  BlockGeometry,
  /// A page-map entry disagrees with the block table: re-derived.
  PageMapStale,
  /// A counter disagrees with its bitmap (alloc/pinned/mark), or the
  /// slot reciprocal with the slot size: resynced from its source.
  CounterMismatch,
  /// A block's lane listing disagrees with the listing rule (a block
  /// with usable slots is invisible to the allocator, or a full or
  /// owned one is listed), or a lane lists a page that starts no listed
  /// block: lanes relisted.
  FreeListBroken,
  /// A free page run is malformed or collides with owned pages:
  /// free runs rebuilt from the page-map complement.
  FreeRunBroken,
  /// A guarded object's header or redzone is smashed: client memory,
  /// not repairable from metadata.
  GuardSmash,
  /// Heap-wide accounting mismatch (allocated bytes, committed-page
  /// partition): recomputed.
  Accounting,
};

/// \returns a stable lowercase name for \p Kind.
const char *verifyFindingKindName(VerifyFindingKind Kind);

/// What verifyAndRepair did about a finding.
enum class VerifyRepairOutcome : unsigned char {
  /// Plain verification, or damage outside metadata (guard smashes).
  NotAttempted = 0,
  /// The structure was rebuilt/resynced and re-verified.
  Repaired,
  /// The block (and its pages) were withdrawn from circulation.
  Quarantined,
};

/// One typed verifier finding and its one-line message.
struct VerifyFinding {
  VerifyFindingKind Kind = VerifyFindingKind::Generic;
  /// Offending block id, or InvalidBlockId when not block-specific.
  BlockId Block = InvalidBlockId;
  /// Offending page index, or 0 when not page-specific.
  uint64_t Page = 0;
  std::string Message;
  VerifyRepairOutcome Outcome = VerifyRepairOutcome::NotAttempted;
};

/// Accumulated verifier diagnostics.  Empty = heap consistent.
struct HeapVerifyReport {
  /// The recorded findings, in the order they were found.
  std::vector<VerifyFinding> Findings;
  /// Findings dropped because an identical (kind, page) was already
  /// recorded.  Generic findings are exempt — they are heterogeneous
  /// collector-level notes that share (Generic, 0).
  uint64_t Deduplicated = 0;
  /// Findings dropped because the report hit MaxFindings.
  uint64_t Truncated = 0;
  /// Set by verifyAndRepair: the post-repair re-verification came back
  /// clean.  Meaningless (false) on a plain run().
  bool RepairedClean = false;

  /// Hard cap on recorded findings; a heap with a million smashed
  /// entries still yields a readable report.
  static constexpr size_t MaxFindings = 256;

  bool clean() const { return Findings.empty(); }

  /// Appends a fully formed Generic finding line.
  void note(std::string Issue) {
    record(VerifyFindingKind::Generic, InvalidBlockId, 0, std::move(Issue));
  }

  /// Appends a printf-formatted Generic finding line.
  void notef(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Appends a printf-formatted typed finding.
  void notefAt(VerifyFindingKind Kind, BlockId Block, uint64_t Page,
               const char *Fmt, ...) __attribute__((format(printf, 5, 6)));

  /// Records one finding, applying the dedup and cap policies.
  void record(VerifyFindingKind Kind, BlockId Block, uint64_t Page,
              std::string Message);

  /// Every finding's message joined with newlines (trailing newline
  /// included when non-empty).
  std::string str() const;

  /// The verifier abort: prints the printf-formatted headline, the
  /// finding count and every finding to stderr, then ends the process
  /// through fatalError with \p Reason.
  [[noreturn]] void fatal(const char *Reason, const char *HeadlineFmt,
                          ...) const __attribute__((format(printf, 3, 4)));
};

/// Heap-level counters that verifyAndRepair adds to; the collector's
/// lifetime GcRepairStats extends them.
struct HeapRepairStats {
  /// Findings the repair pass resolved in place (counters resynced,
  /// page-map entries re-derived, lists rebuilt).
  uint64_t FindingsRepaired = 0;
  /// Blocks with irreparable geometry dropped from the block table;
  /// their pages are quarantined, not returned to the free lists.
  uint64_t BlocksQuarantined = 0;
  /// Pages deliberately leaked to quarantine (never reallocated).
  uint64_t PagesQuarantined = 0;
  /// Lanes relisted from the listing rule.
  uint64_t FreeListRebuilds = 0;
  /// Page-map entry arrays re-derived from the block table.
  uint64_t PageMapRederivations = 0;
  /// Alloc/pinned counters resynced to their bitmaps.
  uint64_t CountersResynced = 0;
};

/// Walks every heap structure and cross-checks the invariants.  run()
/// is O(heap) and strictly read-only; verifyAndRepair() mutates — it is
/// the self-healing path and must only run with the world stopped and
/// the heap lock held.
class HeapVerifier {
public:
  explicit HeapVerifier(ObjectHeap &Heap) : Heap(Heap) {}

  /// Runs every check and \returns the accumulated report.
  HeapVerifyReport run();

  /// Checks only that no mark bit is set on a committed heap page: the
  /// state a root scan must begin from.
  HeapVerifyReport checkMarksClear();

  /// Verifies, then repairs what metadata redundancy allows: counters
  /// resynced from bitmaps, page map re-derived from the block table,
  /// lanes relisted and free runs rebuilt, irreparable blocks quarantined
  /// (deliberately leaked).  \returns the pre-repair report with each
  /// finding's Outcome filled in and RepairedClean reflecting the
  /// post-repair re-verification.
  HeapVerifyReport verifyAndRepair(HeapRepairStats &Stats);

private:
  ObjectHeap &Heap;
};

} // namespace cgc

#endif // CGC_HEAP_HEAPVERIFIER_H
