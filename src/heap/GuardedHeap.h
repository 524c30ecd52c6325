//===- heap/GuardedHeap.h - Guarded (debug) object layout ------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opt-in guarded-heap mode (GcConfig::DebugGuards): every
/// conservatively scanned object gains a 16-byte debug header
/// (allocation-site tag + monotonic seqno + canary) and a trailing
/// redzone, explicit frees are poisoned and parked in a bounded
/// quarantine ring, and an unreachable-but-never-freed walk groups
/// leaks by allocation site.  This is the lineage of the production
/// collector's GC_DEBUG mode (Boehm & Weiser 1988).
///
/// Determinism contract: guard metadata is scanned conservatively like
/// any other heap bytes, so every metadata word is constructed to have
/// its top bit set (>= 2^63).  Such values are non-canonical user-space
/// addresses on every supported platform — mmap can never place the
/// arena there — so canaries, redzone fill, and quarantine poison are
/// never misidentified as pointers and the retained set is bit-identical
/// with guards on or off and across runs.  The
/// seqno counter is the only ordering source (no wall clock), so
/// violation reports replay exactly under soak_chaos --replay-check.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_HEAP_GUARDEDHEAP_H
#define CGC_HEAP_GUARDEDHEAP_H

#include "heap/HeapUnits.h"
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cgc {

/// Interned allocation-site tag.  Id 0 is the untagged bucket.
using GuardSiteId = uint32_t;

enum class GuardViolationKind : unsigned char {
  /// The 16-byte debug header's canary words were overwritten.
  HeaderSmash,
  /// The trailing redzone fill was overwritten (likely a buffer
  /// overrun off the end of the user region).
  RedzoneSmash,
  /// Explicit free of an object that was already freed.
  DoubleFree,
  /// Explicit free of a non-heap or non-object pointer.
  InvalidFree,
  /// A quarantined (freed, poisoned) object was written through a
  /// dangling pointer before its quarantine slot was flushed.
  QuarantineUseAfterFree,
};

constexpr const char *guardViolationKindName(GuardViolationKind Kind) {
  switch (Kind) {
  case GuardViolationKind::HeaderSmash:
    return "guard header smash";
  case GuardViolationKind::RedzoneSmash:
    return "guard redzone smash";
  case GuardViolationKind::DoubleFree:
    return "double free";
  case GuardViolationKind::InvalidFree:
    return "invalid free";
  case GuardViolationKind::QuarantineUseAfterFree:
    return "quarantine use-after-free";
  }
  return "?";
}

/// One detected violation.  The sweep accumulates these into its
/// SweepResult in block order; the collector sorts them by Seqno so
/// reports come in allocation order.
struct GuardViolation {
  GuardViolationKind Kind = GuardViolationKind::HeaderSmash;
  /// Slot base (window offset of the debug header), 0 if unknown.
  WindowOffset Base = 0;
  /// Monotonic allocation seqno from the header, 0 if unreadable.
  uint64_t Seqno = 0;
  /// Allocation site from the header, 0 if unreadable/untagged.
  GuardSiteId Site = 0;
  /// User-requested size from the header, 0 if unreadable.
  uint64_t UserBytes = 0;
};

/// Lifetime counters for the guarded mode, surfaced through
/// Collector::guardStats, cgc_debug_get_stats, and the crash report.
struct GcGuardStats {
  uint64_t GuardedAllocations = 0;
  uint64_t GuardedFrees = 0;
  /// Objects currently parked in the quarantine ring.
  uint64_t QuarantineDepth = 0;
  /// Objects whose quarantine hold completed (poison re-checked, slot
  /// released) — via ring eviction or an explicit/collection flush.
  uint64_t QuarantineFlushes = 0;
  uint64_t HeaderSmashes = 0;
  uint64_t RedzoneSmashes = 0;
  uint64_t DoubleFrees = 0;
  uint64_t InvalidFrees = 0;
  uint64_t UseAfterFreeWrites = 0;
  /// Header + redzone + size-class slop bytes currently committed to
  /// guard metadata (the measured cost of the mode, Zorn-style).
  uint64_t GuardSlopBytes = 0;
  /// Totals from the most recent findLeaks run.
  uint64_t LeakedObjects = 0;
  uint64_t LeakedBytes = 0;
};

/// One allocation site's bucket in a leak report.
struct GcLeakSite {
  const char *Site = nullptr; ///< Interned tag, "(untagged)" for id 0.
  uint64_t Objects = 0;
  uint64_t Bytes = 0; ///< Sum of user-requested sizes.
  /// Smallest seqno in the bucket: the oldest leaked allocation.
  uint64_t FirstSeqno = 0;
};

/// Result of a find-leaks collection: objects that became unreachable
/// without ever being explicitly freed, grouped by allocation site in
/// site-registration order (deterministic).
struct GcLeakReport {
  std::vector<GcLeakSite> Sites;
  uint64_t TotalObjects = 0;
  uint64_t TotalBytes = 0;
};

/// The guard layer: header/redzone layout math, the allocation-site
/// registry, the seqno counter, and the quarantine ring.  Owned by the
/// Collector when GcConfig::DebugGuards is set; the ObjectHeap and
/// HeapVerifier hold a const pointer for sweep/verify-time validation.
///
/// Guarded slot layout (user pointer = slot base + HeaderBytes):
///
///   +----------------+----------------+------------------------+
///   | W0: canary ^   | W1: canary ^   | user bytes  | redzone  |
///   |     seqno      | (size|site<<40)| (zeroed)    | 0xFD...  |
///   +----------------+----------------+------------------------+
///   0                8                16            16+user    slot end
///
/// The redzone always extends to the end of the slot, so size-class
/// slop is covered too; explicit frees repaint the whole slot with the
/// 0xDB poison byte before parking it in quarantine.
class GuardLayer {
public:
  static constexpr uint64_t HeaderBytes = 16;
  static constexpr uint64_t MinRedzoneBytes = 16;
  /// Largest guardable user request: the size field shares a header
  /// word with the site id.
  static constexpr uint64_t MaxUserBytes = (uint64_t(1) << 40) - 1;
  static constexpr GuardSiteId MaxSites = (1u << 20) - 1;
  /// Canary bases.  Top 16 bits are all-ones so the XOR'd payloads
  /// (seqno below bit 48, size|site below bit 60) can never clear the
  /// top bit: every header word stays >= 2^63 and is rejected by the
  /// conservative scan's arena-containment test.
  static constexpr uint64_t HeaderMagic = 0xFFFFC5C5DEAD5EEDull;
  static constexpr uint64_t InfoMagic = 0xFFFFA5A5F00DBA5Eull;
  /// Redzone fill and quarantine poison.  Both >= 0x80: any 8-byte
  /// word whose top byte is one of these reads >= 2^63, and the word
  /// covering the user/redzone boundary always ends in redzone bytes.
  static constexpr unsigned char RedzoneByte = 0xFD;
  static constexpr unsigned char PoisonByte = 0xDB;

  /// \p QuarantineCapacity bounds the ring; 0 disables parking (frees
  /// release immediately after validation).
  explicit GuardLayer(uint32_t QuarantineCapacity);

  //===--------------------------------------------------------------===//
  // Allocation-site registry
  //===--------------------------------------------------------------===//

  /// Interns \p Site (by string value) and returns its id; nullptr or
  /// empty returns the untagged id 0.  Registration order is the
  /// deterministic report order.
  GuardSiteId internSite(const char *Site);

  /// Stable interned string for \p Id ("(untagged)" for 0).  Safe to
  /// stash in async-signal-safe crash state.
  const char *siteName(GuardSiteId Id) const;

  uint32_t siteCount() const { return static_cast<uint32_t>(Sites.size()); }

  //===--------------------------------------------------------------===//
  // Layout
  //===--------------------------------------------------------------===//

  /// Bytes to request from the raw allocator for a \p UserBytes
  /// request: header + user + minimum redzone.
  static constexpr uint64_t paddedSize(uint64_t UserBytes) {
    return HeaderBytes + UserBytes + MinRedzoneBytes;
  }

  static void *userPointer(void *SlotBase) {
    return static_cast<char *>(SlotBase) + HeaderBytes;
  }
  static const void *slotBaseOf(const void *UserPtr) {
    return static_cast<const char *>(UserPtr) - HeaderBytes;
  }

  /// Writes the header and paints the redzone over
  /// [HeaderBytes + UserBytes, SlotBytes).  \returns the seqno stamped
  /// into the header.
  uint64_t arm(void *SlotBase, uint64_t SlotBytes, uint64_t UserBytes,
               GuardSiteId Site);

  /// Decoded header + validation verdict for an armed slot.
  struct Decoded {
    bool HeaderIntact = false;
    bool RedzoneIntact = false;
    uint64_t Seqno = 0;
    GuardSiteId Site = 0;
    uint64_t UserBytes = 0;
  };

  /// Reads the header back and re-checks canaries and redzone.  Pure
  /// reads: safe from the sweep and the verifier.
  static Decoded inspect(const void *SlotBase, uint64_t SlotBytes);

  //===--------------------------------------------------------------===//
  // Quarantine
  //===--------------------------------------------------------------===//

  struct QuarantineEntry {
    WindowOffset Base = 0;
    uint64_t SlotBytes = 0;
    uint64_t UserBytes = 0;
    uint64_t Seqno = 0;
    GuardSiteId Site = 0;
  };

  bool isQuarantined(WindowOffset Base) const {
    return Quarantined.count(Base) != 0;
  }

  /// Poisons the whole slot and parks it.  If the ring is full the
  /// oldest entry is popped into \p Evicted and true is returned; the
  /// caller must re-check its poison and release it.  With capacity 0
  /// the slot is poisoned, \p Evicted receives the new entry itself,
  /// and true is returned (immediate release).
  bool quarantine(void *SlotBase, WindowOffset Base, uint64_t SlotBytes,
                  const Decoded &Info, QuarantineEntry &Evicted);

  /// Pops the oldest parked entry for flushing; false when empty.
  bool popOldest(QuarantineEntry &Out);

  /// The parked entry for \p Base, or nullptr.  Linear in the ring
  /// depth; used only on the (already doomed) double-free report path.
  const QuarantineEntry *findQuarantined(WindowOffset Base) const;

  size_t quarantineDepth() const { return Ring.size(); }

  /// True when every byte of the slot still carries the poison fill —
  /// i.e. nothing wrote through a dangling pointer while parked.
  static bool poisonIntact(const void *SlotBase, uint64_t SlotBytes);

  //===--------------------------------------------------------------===//
  // Counters
  //===--------------------------------------------------------------===//

  GcGuardStats Stats;

private:
  uint32_t Capacity;
  uint64_t SeqnoCounter = 0;
  /// Interned site strings; deque keeps c_str() stable forever.
  std::deque<std::string> Sites;
  std::unordered_map<std::string, GuardSiteId> SiteIds;
  std::deque<QuarantineEntry> Ring;
  std::unordered_set<WindowOffset> Quarantined;
};

} // namespace cgc

#endif // CGC_HEAP_GUARDEDHEAP_H
