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
/// Recursion is replaced by explicit mark stacks.  "if p is marked
/// return" is also asked once before the validity test: the heap's
/// address-indexed MarkTable (heap/MarkTable.h) sets a bit only at a
/// marked slot's base, and a base passes every validity policy, so a
/// candidate whose bit is set is settled with one load.  Validity
/// checking honors the configured interior-pointer policy and scan
/// alignments; the "vicinity of the heap" test is membership in the
/// potential heap arena, and as the paper notes it "overlaps
/// substantially with the immediately preceding pointer validity
/// check" — both start from the same page-map probe.  The engine is
/// split into:
///
///   * MarkContext — what the collector's phase pipeline drives:
///     runRootScan (the RootScan phase: mark uncollectable objects,
///     scan every root span, seeding — not draining — the objects
///     reached) and runMarkPhase (the Mark phase: drain the seeds to
///     the full reachability closure).  Both start from clear marks:
///     the collector calls ObjectHeap::clearMarks first.  It holds the
///     heap views (page map, block table, object heap), the
///     candidate-resolution policies (interior-pointer rules,
///     displacements), the blacklist feed, and the one mark stack.
///     It also owns the candidate scans: one loop per root encoding
///     (forEachRootCandidate) and per object layout
///     (forEachHeapCandidate, forEachTypedCandidate), each calling back
///     with every word that lands in the window.  The marker and the
///     retention tracer (core/RetentionTracer.h) read the same
///     candidate stream from them, so "why is this live?" is answered
///     from the words the marker reads.
///
///   * MarkWorker — the tracer.  It pushes onto and drains the
///     context's LIFO mark stack (the paper's mark stack) and sets the
///     mark table's bits with plain stores.  With each new mark it
///     keeps the block's tally (ObjectHeap::tallyMark), from which the
///     sweep pass counts live objects and pins without gathering
///     marks.  It buffers near-miss blacklist candidates in a
///     fixed-size array and flushes it when full and when its scan or
///     drain ends, timing each flush for the footnote-3 measurement.
///
/// There is one marker and no thread: the Mark phase is the paper's
/// sequential mark loop.  The root scan walks the root set's ranges in
/// place (RootSet::forEachScannableSpan), and the mark stack keeps its
/// capacity across cycles, so a stopped world allocates for marking
/// only when a cycle needs more mark-stack entries than any before.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_MARKCONTEXT_H
#define CGC_CORE_MARKCONTEXT_H

#include "core/Blacklist.h"
#include "core/GcConfig.h"
#include "core/GcStats.h"
#include "heap/ObjectHeap.h"
#include "roots/RootSet.h"
#include <algorithm>
#include <cstring>
#include <vector>

// Root spans are scanned whole: a thread stack's dead slots and the
// compiler's redzones between live locals are exactly what a
// conservative collector must read.  Root loads therefore opt out of
// AddressSanitizer, as bdwgc's GC_ATTR_NO_SANITIZE_ADDR does; heap
// scans keep their checks.
#define CGC_NO_SANITIZE_ADDRESS __attribute__((no_sanitize("address")))

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
  MarkContext(VirtualArena &Arena, PageAllocator &Pages, PageMap &Map,
              BlockTable &Blocks, ObjectHeap &Heap,
              Blacklist &BlacklistImpl, const GcConfig &Config);

  /// Resolves \p Candidate under the configured policies without
  /// marking.  Exposed for the misidentification-rate experiments.
  /// Read-only.
  ObjectRef resolveCandidate(WindowOffset Candidate) const;

  //===--------------------------------------------------------------===//
  // Candidate scans
  //
  // Each calls \p Fn with every word of its range that lands in the
  // window, as a window offset and before any validity test, and
  // returns the number of words it examined.  The arena bounds stay in
  // locals, so inlined into MarkWorker these are the mark loop itself.
  //===--------------------------------------------------------------===//

  /// Scans [Begin, End) under \p Encoding at RootScanAlignment, calling
  /// \p Fn(Candidate, Word), where Word is the root word's address.
  template <typename FnT>
  CGC_NO_SANITIZE_ADDRESS uint64_t
  forEachRootCandidate(RootEncoding Encoding, const unsigned char *Begin,
                       const unsigned char *End, FnT Fn) const {
    const unsigned Stride = Config.RootScanAlignment;
    CGC_CHECK(Stride >= 1 && Stride <= 8, "bad root scan alignment");
    const Address ArenaBase = Arena.base();
    const uint64_t ArenaSize = Arena.size();
    uint64_t Examined = 0;
    if (Encoding == RootEncoding::Native64) {
      for (const unsigned char *P = Begin;
           End - P >= static_cast<ptrdiff_t>(sizeof(uint64_t)); P += Stride) {
        ++Examined;
        WindowOffset Offset = loadRoot64(P) - ArenaBase;
        if (Offset >= ArenaSize)
          continue;
        Fn(Offset, P);
      }
      return Examined;
    }
    // Window32: every 32-bit value is an offset into the window, exactly
    // as every 32-bit integer was an address on the paper's machines.
    const bool BigEndian = Encoding == RootEncoding::Window32BE;
    for (const unsigned char *P = Begin;
         End - P >= static_cast<ptrdiff_t>(sizeof(uint32_t)); P += Stride) {
      ++Examined;
      WindowOffset Offset = loadRoot32(P, BigEndian);
      if (Offset >= ArenaSize)
        continue;
      Fn(Offset, P);
    }
    return Examined;
  }

  /// Scans a conservative object's \p Bytes at window offset \p Begin
  /// one 8-byte word at a time (the paper's pointer alignment), calling
  /// \p Fn(Candidate).
  template <typename FnT>
  uint64_t forEachHeapCandidate(WindowOffset Begin, uint32_t Bytes,
                                FnT Fn) const {
    const Address ArenaBase = Arena.base();
    const uint64_t ArenaSize = Arena.size();
    const unsigned char *P =
        reinterpret_cast<const unsigned char *>(ArenaBase) + Begin;
    const uint64_t Words = Bytes / sizeof(uint64_t);
    for (uint64_t I = 0; I != Words; ++I, P += sizeof(uint64_t)) {
      WindowOffset Offset = loadWord(P) - ArenaBase;
      if (Offset >= ArenaSize)
        continue;
      Fn(Offset);
    }
    return Words;
  }

  /// Scans exactly the pointer words that layout \p LayoutId declares
  /// in the object of \p Bytes at \p Begin, calling \p Fn(Candidate).
  template <typename FnT>
  uint64_t forEachTypedCandidate(WindowOffset Begin, uint32_t Bytes,
                                 uint32_t LayoutId, FnT Fn) const {
    const TypeDescriptor &D = Heap.layout(LayoutId);
    const Address ArenaBase = Arena.base();
    const uint64_t ArenaSize = Arena.size();
    const unsigned char *Base =
        reinterpret_cast<const unsigned char *>(ArenaBase) + Begin;
    // The slot can be larger than the type (size-class rounding); the
    // tail past the descriptor is never traced.
    uint32_t Words = std::min<uint32_t>(
        D.NumWords, Bytes / static_cast<uint32_t>(sizeof(uint64_t)));
    uint64_t Scanned = 0;
    D.forEachPointerWord(Words, [&](uint32_t Word) {
      ++Scanned;
      WindowOffset Offset = loadWord(Base + Word * sizeof(uint64_t)) -
                            ArenaBase;
      if (Offset < ArenaSize)
        Fn(Offset);
      return true;
    });
    return Scanned;
  }

  /// Registers an additional valid interior displacement for the
  /// BaseOnly policy (tagged-pointer language implementations store
  /// base + tag).  Displacement 0 is always valid.  Not legal during a
  /// mark.
  void registerDisplacement(uint32_t Displacement);

  /// RootScan phase: marks uncollectable objects, scans every span of
  /// \p Roots, and seeds the mark stack with everything reached.  The
  /// marks must be clear (ObjectHeap::clearMarks).  Phase statistics
  /// accumulate into \p Stats.
  void runRootScan(const RootSet &Roots, CollectionStats &Stats);

  /// Mark phase: transitively marks the heap from the seeds left by
  /// runRootScan, draining them in place, LIFO — the paper's sequential
  /// marker.  Accumulates scan counters into \p Stats.  Ends with
  /// recoverFromOverflow.
  void runMarkPhase(CollectionStats &Stats);

  /// Runs a full mark (runRootScan + runMarkPhase), for callers outside
  /// the phase pipeline (tests, measureLiveness).
  void runMark(const RootSet &Roots, CollectionStats &Stats);

  /// Marks a single candidate and drains the resulting work on the
  /// (empty) mark stack (used by finalization to resurrect objects,
  /// and by tests).
  void markFromCandidate(WindowOffset Candidate, CollectionStats &Stats);

  /// Rebuilds the reachability closure after mark-stack pushes were
  /// dropped (MarkStackOverflow fault injection): rescans every marked
  /// object in pointer-bearing blocks, on the mark stack, until no new
  /// objects get marked.  Dropped items always reference objects whose
  /// mark bit is already set, so the fixpoint converges even while the
  /// fault stays armed.  No-op when nothing was dropped.
  void recoverFromOverflow(CollectionStats &Stats);

private:
  friend class MarkWorker;

  static uint64_t loadWord(const unsigned char *P) {
    uint64_t Value;
    std::memcpy(&Value, P, sizeof(Value));
    return Value;
  }

  // __builtin_memcpy keeps each root load inline rather than a call
  // into the sanitizer's checked memcpy.
  CGC_NO_SANITIZE_ADDRESS static uint64_t loadRoot64(const unsigned char *P) {
    uint64_t Value;
    __builtin_memcpy(&Value, P, sizeof(Value));
    return Value;
  }

  CGC_NO_SANITIZE_ADDRESS static uint32_t loadRoot32(const unsigned char *P,
                                                     bool BigEndian) {
    uint32_t Value;
    __builtin_memcpy(&Value, P, sizeof(Value));
    return BigEndian ? __builtin_bswap32(Value) : Value;
  }

  /// The validity test proper, on the block the page map already
  /// named: \returns the slot of \p Block that \p Candidate validly
  /// references under the configured policies (interior-pointer rule,
  /// IgnoreOffPage, displacements), or -1.  Like the paper's collector
  /// it cannot tell a free slot from an allocated one: a free slot is
  /// a valid target, and the sweep pins it when marked.
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
    return Slot;
  }

  /// The RootScan phase's block-table walk, taken only when the heap
  /// has an uncollectable block: marks each uncollectable block's
  /// allocated slots and seeds the pointer-bearing ones in slot order.
  void markUncollectables(CollectionStats &Stats);

  VirtualArena &Arena;
  PageAllocator &Pages;
  PageMap &Map;
  BlockTable &Blocks;
  ObjectHeap &Heap;
  Blacklist &BlacklistImpl;
  const GcConfig &Config;
  /// Sorted extra displacements valid under BaseOnly (0 is implicit).
  std::vector<uint32_t> Displacements;
  /// The one mark stack.  The RootScan phase seeds it and the Mark
  /// phase drains it; markFromCandidate and recoverFromOverflow reuse
  /// it, empty, after the drain.  Cleared, never shrunk, so its
  /// capacity carries over from cycle to cycle.
  std::vector<MarkWorkItem> Seeds;
  /// Set when a push was dropped (injected mark-stack overflow); read
  /// and cleared by recoverFromOverflow.
  bool Overflowed = false;
};

/// The mark tracer.  Constructed per phase (root scan, mark drain,
/// finalization resurrection); holds no state that outlives a phase.
/// Pushes go to the context's mark stack.
class MarkWorker {
public:
  MarkWorker(MarkContext &Ctx, CollectionStats &Stats);

  ~MarkWorker();

  /// Figure 2's mark(p): validity test, blacklist note, mark, push.
  /// \p PreciseWord marks candidates read from a precisely-traced word:
  /// a failed resolution is then a stale or foreign pointer, not a near
  /// miss, so it never feeds the blacklist or the near-miss counters
  /// (BlacklistPromote treats such words as incapable of pinning
  /// pages).  \returns true when this call marked a new object.
  bool considerCandidate(WindowOffset Candidate, ScanOrigin Origin,
                         bool PreciseWord = false);

  /// Scans one root span (MarkContext::forEachRootCandidate) and
  /// considers every candidate it yields.
  void scanRootSpan(const RootRange &Range, const unsigned char *Begin,
                    const unsigned char *End);

  /// Drains the mark stack to empty, LIFO, scanning each popped
  /// object, then flushes near misses.
  void drain();

  /// Replays the buffered near-miss pages into the blacklist and times
  /// the replay into Stats.BlacklistNanos.  Runs when the buffer fills
  /// and at the end of every drain; a root scan calls it after its
  /// last span.
  void flushNearMisses();

private:
  /// Near-miss pages buffered between blacklist flushes, so the
  /// footnote-3 timing reads the clock twice per batch, not per page.
  /// Fixed size, so the stopped world never allocates for them.
  static constexpr unsigned NearMissBatch = 256;

  void noteNearMiss(PageIndex Page, ScanOrigin Origin);
  void scanObject(const MarkWorkItem &Item);
  void push(const MarkWorkItem &Item);

  MarkContext &Ctx;
  CollectionStats &Stats;
  /// The heap arena's first byte; window offsets index from here.
  const unsigned char *const HeapBase;
  /// The heap's mark bits.
  MarkTable &Marks;
  /// The context's mark stack.
  std::vector<MarkWorkItem> &Stack;
  /// The heap's mark epoch, which each new mark's tally is stamped with.
  const uint32_t Epoch;
  PageIndex NearMisses[NearMissBatch];
  unsigned NumNearMisses = 0;
  /// Snapshot of FaultInjector::anyArmed() taken at construction: push
  /// evaluates its MarkStackOverflow site only when this is set.
  const bool FaultsArmed;
};

} // namespace cgc

#endif // CGC_CORE_MARKCONTEXT_H
