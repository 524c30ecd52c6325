//===- core/MarkContext.h - Conservative marking ---------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conservative mark phase, structured exactly as the paper's
/// Figure 2:
///
/// \code
///   mark(p) {
///     if p is not a valid object address
///       if p is in the vicinity of the heap
///         add p to blacklist            // the bold-face additions
///       return
///     if p is marked return
///     set mark bit for p
///     for each field q in the object referenced by p  mark(q)
///   }
/// \endcode
///
/// Recursion is replaced by explicit mark stacks.  Validity checking
/// honors the configured interior-pointer policy and scan alignments;
/// the "vicinity of the heap" test is membership in the potential heap
/// arena, and as the paper notes it "overlaps substantially with the
/// immediately preceding pointer validity check" — both start from the
/// same page-map probe.  The engine is split into:
///
///   * MarkContext — what the collector's phase pipeline drives:
///     runRootScan (the RootScan phase: clear marks, mark uncollectable
///     objects, scan every root span, seeding — not draining — the
///     objects reached) and runMarkPhase (the Mark phase: drain the
///     seeds to the full reachability closure).  It holds the state
///     shared by every mark worker: the heap views (page map, block
///     table, object heap), the candidate-resolution policies
///     (interior-pointer rules, displacements), the blacklist feed, and
///     the work-stealing queues.  During the Mark phase all of this is
///     read-only except the atomic mark bitmap and the per-worker
///     queues.
///
///   * MarkWorker — one tracer.  Each worker owns a private LIFO stack
///     (the paper's mark stack) plus a mutex-guarded steal slot; when
///     the private stack grows past a threshold the worker exposes its
///     oldest half for stealing, and when it runs dry it reclaims its
///     own slot or steals a batch from a victim's.  Oldest-first
///     stealing hands thieves the widest subtrees, the classic
///     breadth-steal/depth-run discipline.  Every worker, sequential
///     or parallel, buffers near-miss blacklist candidates in a
///     fixed-size array and flushes it when full and when its scan or
///     drain ends, under one lock (the Blacklist is single-threaded),
///     timing each flush for the footnote-3 measurement.
///
/// MarkContext is a pure marking algorithm: it owns no threads.  The
/// parallel path borrows the collector's persistent GcWorkerPool
/// (spawn-once, parked between phases), so short collection cycles pay
/// no thread-spawn cost.
///
/// Sequential marking (MarkThreads == 1) bypasses the queues: the
/// single worker drains one external LIFO vector exactly as the seed
/// collector's drainMarkStack did, so paper experiments are untouched,
/// and it sets mark bits with plain stores instead of atomics.
/// Either way the marked set is the reachability closure and every
/// CollectionStats counter is a sum over scanned words, so results are
/// identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_MARKCONTEXT_H
#define CGC_CORE_MARKCONTEXT_H

#include "core/Blacklist.h"
#include "core/GcConfig.h"
#include "core/GcStats.h"
#include "core/GcWorkerPool.h"
#include "heap/ObjectHeap.h"
#include "roots/RootSet.h"
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace cgc {

/// One unit of tracing work: an object whose contents must be scanned.
struct MarkWorkItem {
  WindowOffset Begin;
  uint32_t Bytes;
  /// Layout of the pushed object; 0 = conservative scan.
  uint32_t LayoutId;
};

class MarkWorker;

class MarkContext {
public:
  /// Hard cap on mark workers (queue slots are preallocated lazily up
  /// to this).
  static constexpr unsigned MaxWorkers = GcWorkerPool::MaxWorkers;

  MarkContext(VirtualArena &Arena, PageAllocator &Pages, PageMap &Map,
              BlockTable &Blocks, ObjectHeap &Heap,
              Blacklist &BlacklistImpl, GcWorkerPool &Pool,
              const GcConfig &Config);
  ~MarkContext();

  /// Resolves \p Candidate under the configured policies without
  /// marking.  Exposed for the misidentification-rate experiments.
  /// Read-only; safe from any mark worker.
  ObjectRef resolveCandidate(WindowOffset Candidate) const;

  /// Registers an additional valid interior displacement for the
  /// BaseOnly policy (tagged-pointer language implementations store
  /// base + tag).  Displacement 0 is always valid.  Not legal during a
  /// mark.
  void registerDisplacement(uint32_t Displacement);

  /// RootScan phase: clears marks, marks uncollectable objects, scans
  /// every span of \p Roots, and seeds the mark queue with everything
  /// reached.  Phase statistics accumulate into \p Stats.
  void runRootScan(const RootSet &Roots, CollectionStats &Stats);

  /// Mark phase: transitively marks the heap from the seeds left by
  /// runRootScan, which are consumed.  GcConfig::MarkThreads == 1
  /// drains the seeds in place, LIFO — the paper's exact sequential
  /// marker; N > 1 (clamped to MaxWorkers) seeds that many MarkWorkers
  /// round-robin and runs them to quiescence on the persistent worker
  /// pool, with the caller's thread as worker 0.  The count is
  /// negotiated down through GcWorkerPool::ensureWorkers when thread
  /// spawning fails, so marking always completes (worst case
  /// sequentially) with a bit-identical marked set.  Records the worker
  /// count actually used in Stats.MarkWorkers and accumulates scan
  /// counters into \p Stats.  Ends with recoverFromOverflow.
  void runMarkPhase(CollectionStats &Stats);

  /// Runs a full mark (runRootScan + runMarkPhase), for callers outside
  /// the phase pipeline (tests, measureLiveness).
  void runMark(const RootSet &Roots, CollectionStats &Stats);

  /// Marks a single candidate and drains the resulting work
  /// sequentially, independent of the Mark phase's worker count (used
  /// by finalization to resurrect objects, and by tests).
  void markFromCandidate(WindowOffset Candidate, CollectionStats &Stats);

  /// Rebuilds the reachability closure after mark-stack pushes were
  /// dropped (MarkStackOverflow fault injection): rescans every marked
  /// object in pointer-bearing blocks, sequentially, until no new
  /// objects get marked.  Dropped items always reference objects whose
  /// mark bit is already set, so the fixpoint converges even while the
  /// fault stays armed.  No-op when nothing was dropped.
  void recoverFromOverflow(CollectionStats &Stats);

private:
  friend class MarkWorker;

  /// A worker's stealable overflow: oldest exposed items first.
  struct StealSlot {
    std::mutex Lock;
    std::vector<MarkWorkItem> Items;
  };

  /// The validity test proper, on the block the page map already
  /// named: \returns the slot of \p Block that \p Candidate validly
  /// references under the configured policies (interior-pointer rule,
  /// IgnoreOffPage, displacements, PreciseFreeSlotDetection), or -1.
  int32_t slotFor(const BlockDescriptor &Block,
                  WindowOffset Candidate) const {
    int32_t Slot = Block.slotContaining(Candidate);
    if (Slot < 0)
      return -1;
    uint32_t SlotIdx = static_cast<uint32_t>(Slot);
    uint64_t Displacement = Candidate - Block.slotOffset(SlotIdx);
    // Per-object override first (observation 7's remedy): pointers past
    // the first page never retain an ignore-off-page object.
    if (Block.IgnoreOffPage && Displacement >= PageSize)
      return -1;
    switch (Config.Interior) {
    case InteriorPolicy::All:
      break;
    case InteriorPolicy::BaseOnly:
      if (Displacement != 0 &&
          !std::binary_search(Displacements.begin(), Displacements.end(),
                              static_cast<uint32_t>(Displacement)))
        return -1;
      break;
    case InteriorPolicy::FirstPage:
      if (Displacement >= PageSize)
        return -1;
      break;
    }
    if (Config.PreciseFreeSlotDetection && !Block.AllocBits.test(SlotIdx))
      return -1;
    return Slot;
  }

  /// The RootScan phase's one block-table walk: clears every mark bit,
  /// then marks each uncollectable block's allocated slots and seeds
  /// the pointer-bearing ones in slot order.
  void resetMarks(CollectionStats &Stats);

  VirtualArena &Arena;
  PageAllocator &Pages;
  PageMap &Map;
  BlockTable &Blocks;
  ObjectHeap &Heap;
  Blacklist &BlacklistImpl;
  /// Serializes near-miss flushes into BlacklistImpl (parallel workers
  /// flush while others still mark).
  std::mutex BlacklistLock;
  /// The collector-wide persistent worker pool; borrowed, never owned.
  GcWorkerPool &Pool;
  const GcConfig &Config;
  /// Sorted extra displacements valid under BaseOnly (0 is implicit).
  std::vector<uint32_t> Displacements;
  /// Mark work seeded by the RootScan phase, consumed by the Mark
  /// phase.  Doubles as the sequential drain stack.
  std::vector<MarkWorkItem> Seeds;

  /// One steal slot per worker; sized on demand by runMarkPhase().
  std::vector<std::unique_ptr<StealSlot>> Slots;
  /// Items pushed but not yet fully scanned, across all workers.
  /// Reaches zero exactly when the closure is complete; workers use it
  /// for termination detection.
  std::atomic<uint64_t> InFlight{0};
  /// Set by any worker that dropped a push (injected mark-stack
  /// overflow); read by recoverFromOverflow after the workers join.
  std::atomic<bool> Overflowed{false};
};

/// One mark tracer.  Constructed per phase (root scan, mark drain,
/// finalization resurrection); holds no state that outlives a phase.
class MarkWorker {
public:
  /// Sequential worker: pushes go to \p ExternalStack, mark bits are
  /// set with plain stores.
  MarkWorker(MarkContext &Ctx, CollectionStats &Stats,
             std::vector<MarkWorkItem> *ExternalStack);

  /// Parallel worker \p Id of \p NumWorkers; pushes go to the private
  /// stack with periodic exposure, mark bits are claimed atomically.
  MarkWorker(MarkContext &Ctx, CollectionStats &Stats, unsigned Id,
             unsigned NumWorkers);

  ~MarkWorker();

  /// Figure 2's mark(p): validity test, blacklist note, mark, push.
  /// \p PreciseWord marks candidates read from a precisely-traced word:
  /// a failed resolution is then a stale or foreign pointer, not a near
  /// miss, so it never feeds the blacklist or the near-miss counters
  /// (BlacklistPromote treats such words as incapable of pinning
  /// pages).  \returns true when this call marked a new object.
  bool considerCandidate(WindowOffset Candidate, ScanOrigin Origin,
                         bool PreciseWord = false);

  /// Scans one root span for candidate words, honoring the range's
  /// encoding and the configured scan alignment.
  void scanRootSpan(const RootRange &Range, const unsigned char *Begin,
                    const unsigned char *End);

  /// Sequential: drains \p Stack (must be this worker's ExternalStack)
  /// to empty, scanning each popped object, then flushes near misses.
  void drainSequential(std::vector<MarkWorkItem> &Stack);

  /// Parallel: preloads one item onto the private stack before the
  /// workers start (seeding only; no InFlight bookkeeping).
  void seed(const MarkWorkItem &Item);

  /// Parallel: drains the private stack, reclaiming/stealing shared
  /// work, until the context-wide closure completes, then flushes near
  /// misses.
  void runParallel();

  /// Replays the buffered near-miss pages into the blacklist and times
  /// the replay into Stats.BlacklistNanos.  Runs when the buffer fills
  /// and at the end of every drain; a root scan calls it after its
  /// last span.
  void flushNearMisses();

private:
  /// Near-miss pages buffered between blacklist flushes.  Fixed size,
  /// so the stopped world never allocates for them.
  static constexpr unsigned NearMissBatch = 256;

  void noteNearMiss(PageIndex Page, ScanOrigin Origin);
  void scanObject(const MarkWorkItem &Item);
  void scanHeapRange(WindowOffset Begin, uint32_t Bytes);
  void scanTypedObject(WindowOffset Begin, uint32_t Bytes,
                       uint32_t LayoutId);
  void push(const MarkWorkItem &Item);
  void exposeForStealing();
  /// Refills the private stack from this worker's slot or a victim's.
  bool takeSharedWork();

  MarkContext &Ctx;
  CollectionStats &Stats;
  /// The heap arena's first byte; window offsets index from here.
  const unsigned char *const HeapBase;
  /// Sequential mode: the shared LIFO (seed list or drain stack).
  std::vector<MarkWorkItem> *ExternalStack = nullptr;
  /// Parallel mode: the private mark stack.
  std::vector<MarkWorkItem> Local;
  PageIndex NearMisses[NearMissBatch];
  unsigned NumNearMisses = 0;
  unsigned Id = 0;
  unsigned NumWorkers = 1;
  bool Parallel = false;
  /// Snapshot of FaultInjector::anyArmed() taken at construction: push
  /// evaluates its MarkStackOverflow site only when this is set.
  const bool FaultsArmed;
};

} // namespace cgc

#endif // CGC_CORE_MARKCONTEXT_H
