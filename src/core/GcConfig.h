//===- core/GcConfig.h - Collector configuration ---------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every knob the paper discusses is a configuration field here, so each
/// experiment can switch exactly one technique on or off:
/// blacklisting (and its representation), interior-pointer recognition,
/// scan alignment, heap placement, trailing-zero avoidance, stack
/// clearing, and the startup collection.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_GCCONFIG_H
#define CGC_CORE_GCCONFIG_H

#include "heap/HeapUnits.h"
#include <cstdint>

namespace cgc {

/// Which pointers into an object force its retention.
enum class InteriorPolicy : unsigned char {
  /// Only exact object-base addresses are valid (precise heap layouts;
  /// the paper notes old C programs "normally also maintain a pointer
  /// to the base of the object").
  BaseOnly,
  /// Pointers into the first page of an object are valid (the paper's
  /// observation 7: this makes >100 KB objects allocatable again).
  FirstPage,
  /// Arbitrary interior pointers are valid — required for full ANSI C,
  /// and the configuration under which Table 1 was measured.
  All,
};

/// Blacklist representation (§3: bit array vs hash table).
enum class BlacklistMode : unsigned char {
  Off,
  /// Bit array indexed by page number; the paper's choice for a
  /// contiguous heap.
  FlatBitmap,
  /// Hash table with one bit per entry; "if a false reference is seen
  /// to any of the pages with a given hash address, all of them are
  /// effectively blacklisted".  The paper's choice for discontiguous
  /// heaps.
  Hashed,
};

/// Where the heap arena sits inside the window (§2's "properly
/// positioning the heap in the address space").
enum class HeapPlacement : unsigned char {
  /// Just above a small program+static area, like a classic sbrk heap
  /// (SPARC/SunOS).  Collides heavily with small-integer data.
  LowSbrk,
  /// High-order bits neither all zeros nor all ones, above the ASCII
  /// four-byte-string range.  The recommended placement.
  HighBitsMixed,
  /// Deliberately inside the range spanned by four ASCII bytes, to
  /// demonstrate character-data collisions.
  AsciiRange,
  /// Use CustomHeapBaseOffset.
  Custom,
};

/// §3.1's cheap stack-clearing technique.
enum class StackClearMode : unsigned char {
  Off,
  /// The allocator occasionally clears a bounded region of the stack
  /// beyond the most recently activated frame.
  Cheap,
};

/// Bytes cleared per stack-clearing step.
inline constexpr uint32_t StackClearBytes = 4096;

/// Called when the allocation slow-path ladder is exhausted (collect,
/// grow, heap-exhausted collect, emergency collect all failed).  \p Bytes is
/// the requested size.  Whatever the handler returns is returned to the
/// allocating caller verbatim — a handler may free reserves and return
/// nullptr to make the caller retry, longjmp away, or abort.  With no
/// handler installed the allocation returns nullptr.
using GcOomHandler = void *(*)(uint64_t Bytes, void *UserData);

/// Receives rate-limited resilience warnings ("repeated collections
/// without progress", "large allocation on blacklist-saturated heap").
/// \p Message is a static string; \p Value is event-specific (a
/// repetition count or a request size).
using GcWarnProc = void (*)(const char *Message, uint64_t Value,
                            void *UserData);

/// Policy for the retention-storm sentinel (core/GcSentinel.h): a
/// GcObserver that watches the live-bytes trajectory across a sliding
/// window of collections and escalates defensive responses when the
/// heap keeps growing — the runtime counterpart of the paper's §2
/// "unbounded heap growth from misidentification" failure mode.
struct SentinelPolicy {
  bool Enabled = false;

  /// Collections per trajectory window; detection needs a full window.
  unsigned WindowCollections = 8;

  /// A storm requires net window growth of at least this many bytes
  /// (and GcSentinel::GrowthSlopeFraction of the live bytes at window
  /// start, with growth on 3/4 of the window's per-collection deltas).
  uint64_t GrowthFloorBytes = uint64_t(1) << 20;

  /// Consecutive non-growing collections before the sentinel stands
  /// down and restores every overridden configuration knob.
  unsigned CalmCollections = 4;
};

struct GcConfig {
  /// Reserved window size; models the platform address-space size.
  uint64_t WindowBytes = uint64_t(4) << 30;

  HeapPlacement Placement = HeapPlacement::HighBitsMixed;
  /// Heap arena base offset when Placement == Custom.
  uint64_t CustomHeapBaseOffset = 0;
  /// Arena capacity: the heap never grows beyond this.
  uint64_t MaxHeapBytes = uint64_t(256) << 20;

  InteriorPolicy Interior = InteriorPolicy::All;

  /// Byte stride between candidate loads when scanning roots.  4 models
  /// word-aligned 32-bit platforms; 2 or 1 model platforms that must
  /// honor unaligned pointers (the Figure-1 hazard).
  /// Heap objects are always scanned one native 8-byte word at a time.
  unsigned RootScanAlignment = 4;

  BlacklistMode Blacklist = BlacklistMode::FlatBitmap;
  /// Drop blacklist entries that a later collection no longer sees.
  bool BlacklistAging = true;
  /// log2 of the hashed blacklist's bit count (Hashed mode only).
  unsigned HashedBlacklistBitsLog2 = 16;

  /// Perform a collection before the first allocation so static false
  /// references are blacklisted before pages can land on them.
  bool GcAtStartup = true;

  /// Maximum simultaneously registered mutator threads
  /// (cgc_register_thread / GcThreadScope).  Registration beyond the
  /// cap fails cleanly.  With zero registered threads the collector
  /// runs the paper's sequential single-mutator protocol bit-
  /// identically: no heap lock, no safepoints, no handshake.
  unsigned MutatorThreads = 64;

  /// Thread-owned blocks (heap/ThreadCache.h).  Registered threads
  /// check whole blocks out under the heap lock, then allocate from and
  /// free into them lock-free; every stop-the-world handshake returns
  /// the blocks so retained sets stay exact.  Disabled, every
  /// allocation and free takes the heap lock.  Guarded mode
  /// (DebugGuards) also disables them.
  bool ThreadCaches = true;

  /// Stop-the-world handshake watchdog deadline in milliseconds
  /// (monotonic clock).  0 — the default — disables the watchdog:
  /// collect() waits for the cooperative handshake forever, exactly
  /// the pre-watchdog behavior.  With a deadline, a registered mutator
  /// that fails to park climbs an escalation ladder: a rate-limited
  /// GcWarnProc warning naming the wedged thread at deadline/4,
  /// preemptive suspension via the reserved real-time signal at
  /// deadline/2, and — if the thread still cannot be stopped — a
  /// HandshakeTimeout GcIncident at the full deadline, after which
  /// the collection attempt is abandoned and allocation degrades to
  /// heap growth.
  uint64_t HandshakeDeadlineMs = 0;

  /// Signal number reserved for preemptive mutator suspension (rung 2
  /// of the watchdog ladder).  0 — the default — picks SIGRTMIN+6, or
  /// the CGC_SUSPEND_SIGNAL environment variable when set.  The
  /// resume signal is always SuspendSignal+1; both numbers are
  /// reserved process-wide while any collector has a watchdog armed.
  /// Negative disables the signal fallback entirely (the ladder skips
  /// from the warning rung straight to the final timeout).
  int SuspendSignal = 0;

  /// Collect before growing the heap once allocation since the last
  /// collection exceeds this fraction of the committed heap.
  double CollectBeforeGrowthRatio = 0.5;
  /// Never collect-before-grow below this committed size.
  uint64_t MinHeapBytesBeforeGc = uint64_t(1) << 20;

  /// Ablation/fuzz knob: ignore every registered type descriptor and
  /// serve typed allocations from the ordinary conservative (Normal
  /// kind) path, exactly as if each descriptor were all-conservative.
  /// Registered sizes are granule-aligned, so the allocation stream —
  /// and therefore retained sets, free-list order, stats, and
  /// blacklist contents — must be bit-identical to a collector that
  /// never saw a descriptor.  The typed-marking fuzz cross-check pins
  /// this equivalence.
  bool AllConservativeDescriptors = false;

  StackClearMode StackClearing = StackClearMode::Off;
  /// Run the stack-clearing hooks every N allocations.
  uint32_t StackClearEveryNAllocs = 64;

  // Object-heap policies (see ObjectHeapConfig).
  bool AvoidTrailingZeroAddresses = true;

  /// Out-of-memory handler invoked once per exhausted allocation, after
  /// every ladder rung failed.  See GcOomHandler.  Also settable at
  /// runtime via Collector::setOomHandler.
  GcOomHandler OomHandler = nullptr;
  void *OomHandlerData = nullptr;

  /// Warn procedure for resilience events; rate-limited per event kind
  /// with exponential backoff (occurrence 1, 2, 4, 8, ...).  Also
  /// settable at runtime via Collector::setWarnProc.
  GcWarnProc WarnProc = nullptr;
  void *WarnProcData = nullptr;

  /// Run the deep heap verifier (heap/HeapVerifier.h) after every
  /// pipeline phase of every collection and abort with the full
  /// diagnostic report on any inconsistency.  Expensive; meant for
  /// tests and fuzzing.  The CGC_VERIFY_EVERY_COLLECTION environment
  /// variable (any value but "0") forces this on at construction.
  bool VerifyEveryCollection = false;

  /// Opt-in metadata sealing: BlockTable descriptors, PageMap entries,
  /// and page free-list storage live on dedicated metadata-arena pages
  /// that are flipped PROT_READ between collections and unprotected
  /// under the heap lock at collection/allocation entry.  A wild store
  /// from client code then faults; the SIGSEGV sub-handler attributes
  /// it, lets it proceed, and the collector raises a structured
  /// GcIncident{MetadataWildWrite} and runs verify-and-repair instead
  /// of crashing.  Sealing changes no allocation decision, so
  /// collections are digest-identical with it on or off.
  bool SealMetadata = false;

  /// Abort (historical behavior) when per-phase verification
  /// (VerifyEveryCollection) finds an inconsistency.  false switches to
  /// the containment path: the collection is abandoned, the verifier's
  /// repair mode runs, the cycle is retried once, and a second failure
  /// degrades the collector to fresh-page allocation — never aborting.
  bool RepairFatal = true;

  /// Opt-in guarded-heap (debug) mode: every conservatively scanned
  /// allocation gains a 16-byte debug header (allocation-site tag +
  /// monotonic seqno + canary) and a trailing redzone validated at
  /// sweep time and by the verifier; explicit frees are fully
  /// validated (non-heap / interior / double frees raise structured
  /// GcIncidents instead of UB), poisoned, and parked in a bounded
  /// quarantine whose flush detects use-after-free writes.  Guard
  /// metadata words all read >= 2^63, so the conservative scan never
  /// mistakes them for pointers and retained sets are bit-identical
  /// with guards on or off.  See heap/GuardedHeap.h and DESIGN.md §7.
  bool DebugGuards = false;
  /// Abort (via the fatal-error path, after reporting the incident)
  /// on any guard violation.  false keeps running so incidents and
  /// guard stats can be inspected — meant for tests and soaks.
  bool GuardFatal = true;
  /// Capacity of the guarded free-quarantine ring; the oldest entry is
  /// poison-checked and released when a free would overflow it, and
  /// every collection flushes the whole ring.  0 disables parking
  /// (validated frees release immediately).
  uint32_t QuarantineSlots = 256;

  /// Retention-storm sentinel policy; Sentinel.Enabled defaults off so
  /// paper experiments measure the undefended collector.
  SentinelPolicy Sentinel;

  /// \returns the heap arena base offset implied by Placement.
  uint64_t heapBaseOffset() const {
    switch (Placement) {
    case HeapPlacement::LowSbrk:
      return uint64_t(1) << 20; // 1 MiB: right above program + static.
    case HeapPlacement::HighBitsMixed:
      return uint64_t(0x90000000); // above ASCII range, bits mixed.
    case HeapPlacement::AsciiRange:
      return uint64_t(0x61000000); // 'a'-leading byte territory.
    case HeapPlacement::Custom:
      return CustomHeapBaseOffset;
    }
    return 0;
  }
};

} // namespace cgc

#endif // CGC_CORE_GCCONFIG_H
