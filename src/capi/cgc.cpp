//===- capi/cgc.cpp - C API for the cgc collector -------------------------===//

#include "capi/cgc.h"
#include "capi/cgc_internal.h"
#include "core/Collector.h"
#include "core/GcIncident.h"
#include "core/GcSentinel.h"
#include "support/CrashReporter.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

using namespace cgc;

namespace {

/// Bridges a C event callback onto the C++ observer interface.  The
/// collector dispatches by index with tombstoned removal, so a removed
/// adapter is never invoked again — but an observer may remove *itself*
/// from inside its own callback, so adapters stay alive until
/// cgc_destroy rather than being freed on removal.
class CEventObserver final : public GcObserver {
public:
  CEventObserver(cgc_gc_event_fn Fn, void *ClientData)
      : Fn(Fn), ClientData(ClientData) {}

  void onCollectionBegin(uint64_t Index, const char *) override {
    Fn(CGC_EVENT_COLLECTION_BEGIN, -1, Index, ClientData);
  }
  void onCollectionEnd(uint64_t Index, const CollectionStats &) override {
    Fn(CGC_EVENT_COLLECTION_END, -1, Index, ClientData);
  }
  void onPhaseBegin(GcPhase Phase) override {
    Fn(CGC_EVENT_PHASE_BEGIN, static_cast<int>(Phase), 0, ClientData);
  }
  void onPhaseEnd(GcPhase Phase, uint64_t Nanos,
                  const CollectionStats &) override {
    Fn(CGC_EVENT_PHASE_END, static_cast<int>(Phase), Nanos, ClientData);
  }

  GcObserverId RegistrationId = 0;

private:
  cgc_gc_event_fn Fn;
  void *ClientData;
};

/// Bridges the sentinel's onIncident onto the flat C callback.  Lives
/// in the handle; registered only while a callback is installed.
class CIncidentObserver final : public GcObserver {
public:
  void onIncident(const GcIncident &Incident) override {
    if (Fn)
      Fn(static_cast<int>(Incident.Cause), Incident.CollectionIndex,
         Incident.EscalationLevel, Incident.WindowGrowthBytes, ClientData);
  }

  cgc_incident_fn Fn = nullptr;
  void *ClientData = nullptr;
};

} // namespace

/// The opaque handle is a thin wrapper so the C side never sees C++
/// types and the C++ side keeps full type safety.
struct cgc_collector {
  explicit cgc_collector(const GcConfig &Config) : GC(Config) {}
  Collector GC;
  std::vector<std::unique_ptr<CEventObserver>> Observers;
  /// C-side OOM handler and warn proc; bridged through static
  /// trampolines (GcOomHandler's uint64_t signature need not match the
  /// C typedefs exactly, so the pointers are never cast across).
  cgc_oom_fn COomFn = nullptr;
  void *COomData = nullptr;
  cgc_warn_fn CWarnFn = nullptr;
  void *CWarnData = nullptr;
  /// C-side incident callback adapter; registered while Fn is set.
  CIncidentObserver IncidentObserver;
  GcObserverId IncidentObserverId = 0;
};

static SentinelPolicy convertSentinelPolicy(const cgc_sentinel_policy *C) {
  SentinelPolicy Policy;
  if (!C)
    return Policy;
  Policy.Enabled = C->enabled != 0;
  if (C->window_collections)
    Policy.WindowCollections = C->window_collections;
  if (C->growth_floor_bytes)
    Policy.GrowthFloorBytes = C->growth_floor_bytes;
  if (C->calm_collections)
    Policy.CalmCollections = C->calm_collections;
  return Policy;
}

static GcConfig convertConfig(const cgc_config *C) {
  GcConfig Config;
  if (!C)
    return Config;
  if (C->window_bytes)
    Config.WindowBytes = C->window_bytes;
  if (C->max_heap_bytes)
    Config.MaxHeapBytes = C->max_heap_bytes;
  switch (C->heap_placement) {
  case CGC_PLACEMENT_LOW_SBRK:
    Config.Placement = HeapPlacement::LowSbrk;
    break;
  case CGC_PLACEMENT_ASCII_RANGE:
    Config.Placement = HeapPlacement::AsciiRange;
    break;
  case CGC_PLACEMENT_CUSTOM:
    Config.Placement = HeapPlacement::Custom;
    Config.CustomHeapBaseOffset = C->heap_base_offset;
    break;
  default:
    Config.Placement = HeapPlacement::HighBitsMixed;
    break;
  }
  // Pre-placement-enum clients set only heap_base_offset; honor it.
  if (C->heap_base_offset && Config.Placement != HeapPlacement::Custom) {
    Config.Placement = HeapPlacement::Custom;
    Config.CustomHeapBaseOffset = C->heap_base_offset;
  }
  switch (C->interior_policy) {
  case CGC_INTERIOR_BASE_ONLY:
    Config.Interior = InteriorPolicy::BaseOnly;
    break;
  case CGC_INTERIOR_FIRST_PAGE:
    Config.Interior = InteriorPolicy::FirstPage;
    break;
  default:
    Config.Interior = InteriorPolicy::All;
    break;
  }
  switch (C->blacklist_mode) {
  case CGC_BLACKLIST_OFF:
    Config.Blacklist = BlacklistMode::Off;
    break;
  case CGC_BLACKLIST_HASHED:
    Config.Blacklist = BlacklistMode::Hashed;
    break;
  default:
    Config.Blacklist = BlacklistMode::FlatBitmap;
    break;
  }
  Config.BlacklistAging = C->blacklist_aging != 0;
  if (C->hashed_blacklist_bits_log2)
    Config.HashedBlacklistBitsLog2 = C->hashed_blacklist_bits_log2;
  Config.GcAtStartup = C->gc_at_startup != 0;
  if (C->root_scan_alignment == 1 || C->root_scan_alignment == 2 ||
      C->root_scan_alignment == 4 || C->root_scan_alignment == 8)
    Config.RootScanAlignment = C->root_scan_alignment;
  if (C->mutator_threads)
    Config.MutatorThreads = C->mutator_threads;
  if (C->collect_before_growth_ratio > 0)
    Config.CollectBeforeGrowthRatio = C->collect_before_growth_ratio;
  if (C->min_heap_bytes_before_gc)
    Config.MinHeapBytesBeforeGc = C->min_heap_bytes_before_gc;
  Config.StackClearing = C->stack_clearing == CGC_STACK_CLEAR_CHEAP
                             ? StackClearMode::Cheap
                             : StackClearMode::Off;
  if (C->stack_clear_every_n_allocs)
    Config.StackClearEveryNAllocs = C->stack_clear_every_n_allocs;
  Config.AvoidTrailingZeroAddresses = C->avoid_trailing_zero_addresses != 0;
  Config.VerifyEveryCollection = C->verify_every_collection != 0;
  Config.Sentinel = convertSentinelPolicy(&C->sentinel);
  Config.DebugGuards = C->debug_guards != 0;
  Config.GuardFatal = C->guard_fatal != 0;
  // Unlike most numeric fields, 0 is meaningful here (release freed
  // guarded objects immediately); cgc_config_init seeds the default.
  Config.QuarantineSlots = C->quarantine_slots;
  Config.HandshakeDeadlineMs = C->handshake_deadline_ms;
  // 0 (default signal) and negative (rung disabled) are both
  // meaningful; copy verbatim.
  Config.SuspendSignal = C->suspend_signal;
  Config.SealMetadata = C->seal_metadata != 0;
  Config.RepairFatal = C->repair_fatal != 0;
  return Config;
}

extern "C" {

/// Fills a cgc_config from a GcConfig — the single source of truth for
/// both cgc_config_init (from a default GcConfig) and
/// cgc_current_config (from a live collector's GcConfig), so the C
/// mirror cannot drift from the C++ struct in one place but not the
/// other.
static void fillCConfig(cgc_config *Out, const GcConfig &In) {
  Out->window_bytes = In.WindowBytes;
  Out->max_heap_bytes = In.MaxHeapBytes;
  Out->heap_base_offset =
      In.Placement == HeapPlacement::Custom ? In.CustomHeapBaseOffset : 0;
  switch (In.Placement) {
  case HeapPlacement::LowSbrk:
    Out->heap_placement = CGC_PLACEMENT_LOW_SBRK;
    break;
  case HeapPlacement::HighBitsMixed:
    Out->heap_placement = CGC_PLACEMENT_HIGH_BITS_MIXED;
    break;
  case HeapPlacement::AsciiRange:
    Out->heap_placement = CGC_PLACEMENT_ASCII_RANGE;
    break;
  case HeapPlacement::Custom:
    Out->heap_placement = CGC_PLACEMENT_CUSTOM;
    break;
  }
  switch (In.Interior) {
  case InteriorPolicy::BaseOnly:
    Out->interior_policy = CGC_INTERIOR_BASE_ONLY;
    break;
  case InteriorPolicy::FirstPage:
    Out->interior_policy = CGC_INTERIOR_FIRST_PAGE;
    break;
  case InteriorPolicy::All:
    Out->interior_policy = CGC_INTERIOR_ALL;
    break;
  }
  switch (In.Blacklist) {
  case BlacklistMode::Off:
    Out->blacklist_mode = CGC_BLACKLIST_OFF;
    break;
  case BlacklistMode::FlatBitmap:
    Out->blacklist_mode = CGC_BLACKLIST_FLAT;
    break;
  case BlacklistMode::Hashed:
    Out->blacklist_mode = CGC_BLACKLIST_HASHED;
    break;
  }
  Out->blacklist_aging = In.BlacklistAging ? 1 : 0;
  Out->hashed_blacklist_bits_log2 = In.HashedBlacklistBitsLog2;
  Out->gc_at_startup = In.GcAtStartup ? 1 : 0;
  Out->root_scan_alignment = In.RootScanAlignment;
  Out->mutator_threads = In.MutatorThreads;
  Out->collect_before_growth_ratio = In.CollectBeforeGrowthRatio;
  Out->min_heap_bytes_before_gc = In.MinHeapBytesBeforeGc;
  Out->stack_clearing = In.StackClearing == StackClearMode::Cheap
                            ? CGC_STACK_CLEAR_CHEAP
                            : CGC_STACK_CLEAR_OFF;
  Out->stack_clear_every_n_allocs = In.StackClearEveryNAllocs;
  Out->avoid_trailing_zero_addresses =
      In.AvoidTrailingZeroAddresses ? 1 : 0;
  Out->verify_every_collection = In.VerifyEveryCollection ? 1 : 0;
  Out->sentinel.enabled = In.Sentinel.Enabled ? 1 : 0;
  Out->sentinel.window_collections = In.Sentinel.WindowCollections;
  Out->sentinel.growth_floor_bytes = In.Sentinel.GrowthFloorBytes;
  Out->sentinel.calm_collections = In.Sentinel.CalmCollections;
  Out->debug_guards = In.DebugGuards ? 1 : 0;
  Out->guard_fatal = In.GuardFatal ? 1 : 0;
  Out->quarantine_slots = In.QuarantineSlots;
  Out->handshake_deadline_ms = In.HandshakeDeadlineMs;
  Out->suspend_signal = In.SuspendSignal;
  Out->seal_metadata = In.SealMetadata ? 1 : 0;
  Out->repair_fatal = In.RepairFatal ? 1 : 0;
}

void cgc_config_init(cgc_config *Config) {
  if (!Config)
    return;
  fillCConfig(Config, GcConfig());
}

cgc_collector *cgc_create(const cgc_config *Config) {
  return new cgc_collector(convertConfig(Config));
}

void cgc_destroy(cgc_collector *GC) { delete GC; }

/// Every C allocation entry point funnels its result through here so
/// the errno contract is uniform: a NULL return always leaves
/// errno == ENOMEM, the way libc allocators do.  (Callers ported from
/// plain malloc check errno, and the redirect layer forwards these
/// returns straight to such callers.)
static void *finishAlloc(void *Ptr) {
  if (!Ptr)
    errno = ENOMEM;
  return Ptr;
}

void *cgc_malloc(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocate(Bytes, ObjectKind::Normal));
}

void *cgc_malloc_atomic(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocate(Bytes, ObjectKind::PointerFree));
}

void *cgc_malloc_uncollectable(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocate(Bytes, ObjectKind::Uncollectable));
}

void *cgc_malloc_atomic_uncollectable(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(
      GC->GC.allocate(Bytes, ObjectKind::PointerFreeUncollectable));
}

void *cgc_malloc_ignore_off_page(cgc_collector *GC, size_t Bytes) {
  return finishAlloc(GC->GC.allocateIgnoreOffPage(Bytes, ObjectKind::Normal));
}

unsigned cgc_register_descriptor(cgc_collector *GC,
                                 const unsigned char *PointerWords,
                                 size_t NumWords, size_t Bytes) {
  std::vector<bool> Words(NumWords);
  for (size_t I = 0; I != NumWords; ++I)
    Words[I] = PointerWords[I] != 0;
  return GC->GC.registerObjectLayout(Words, Bytes);
}

void *cgc_malloc_explicitly_typed(cgc_collector *GC, unsigned Descriptor) {
  return finishAlloc(GC->GC.allocateTyped(Descriptor));
}

// This file's definitions sit inside an extern "C" region; the bridge
// is a C++ symbol, so re-open C++ linkage for it.
extern "C++" {
namespace cgc {
namespace capi {
Collector &collectorOf(cgc_collector *Handle) { return Handle->GC; }
} // namespace capi
} // namespace cgc
}

void cgc_free(cgc_collector *GC, void *Ptr) {
  if (Ptr)
    GC->GC.deallocate(Ptr);
}

unsigned long long cgc_gcollect(cgc_collector *GC) {
  return GC->GC.collect("cgc_gcollect").BytesSweptFree;
}

int cgc_register_thread(cgc_collector *GC) {
  return GC->GC.registerMutatorThread() ? 1 : 0;
}

void cgc_unregister_thread(cgc_collector *GC) {
  GC->GC.unregisterMutatorThread();
}

void cgc_safepoint(cgc_collector *GC) { GC->GC.safepoint(); }

void cgc_current_config(cgc_collector *GC, cgc_config *Out) {
  if (!Out)
    return;
  fillCConfig(Out, GC->GC.config());
}

/// Trampolines bridging the C++ handler signatures (uint64_t) onto the
/// C typedefs (size_t / unsigned long long) without casting function
/// pointers across signatures.
static void *oomTrampoline(uint64_t Bytes, void *UserData) {
  auto *Handle = static_cast<cgc_collector *>(UserData);
  return Handle->COomFn(static_cast<size_t>(Bytes), Handle->COomData);
}

static void warnTrampoline(const char *Message, uint64_t Value,
                           void *UserData) {
  auto *Handle = static_cast<cgc_collector *>(UserData);
  Handle->CWarnFn(Message, Value, Handle->CWarnData);
}

void cgc_set_oom_handler(cgc_collector *GC, cgc_oom_fn Fn,
                         void *ClientData) {
  GC->COomFn = Fn;
  GC->COomData = ClientData;
  GC->GC.setOomHandler(Fn ? oomTrampoline : nullptr, GC);
}

void cgc_set_warn_proc(cgc_collector *GC, cgc_warn_fn Fn,
                       void *ClientData) {
  GC->CWarnFn = Fn;
  GC->CWarnData = ClientData;
  GC->GC.setWarnProc(Fn ? warnTrampoline : nullptr, GC);
}

size_t cgc_verify_heap(cgc_collector *GC, char *Report,
                       size_t ReportBytes) {
  HeapVerifyReport Result = GC->GC.verifyHeapReport();
  if (Report && ReportBytes > 0) {
    std::string Text = Result.str();
    size_t Len = std::min(Text.size(), ReportBytes - 1);
    std::memcpy(Report, Text.data(), Len);
    Report[Len] = '\0';
  }
  return Result.Findings.size();
}

// The C mirrors must track the C++ enums value-for-value; a drift here
// would silently mistranslate every streamed finding.
static_assert(CGC_VERIFY_GENERIC ==
                  static_cast<int>(VerifyFindingKind::Generic) &&
              CGC_VERIFY_BLOCK_GEOMETRY ==
                  static_cast<int>(VerifyFindingKind::BlockGeometry) &&
              CGC_VERIFY_PAGE_MAP_STALE ==
                  static_cast<int>(VerifyFindingKind::PageMapStale) &&
              CGC_VERIFY_COUNTER_MISMATCH ==
                  static_cast<int>(VerifyFindingKind::CounterMismatch) &&
              CGC_VERIFY_FREE_LIST_BROKEN ==
                  static_cast<int>(VerifyFindingKind::FreeListBroken) &&
              CGC_VERIFY_FREE_RUN_BROKEN ==
                  static_cast<int>(VerifyFindingKind::FreeRunBroken) &&
              CGC_VERIFY_GUARD_SMASH ==
                  static_cast<int>(VerifyFindingKind::GuardSmash) &&
              CGC_VERIFY_ACCOUNTING ==
                  static_cast<int>(VerifyFindingKind::Accounting),
              "CGC_VERIFY_* drifted from VerifyFindingKind");
static_assert(CGC_REPAIR_NOT_ATTEMPTED ==
                  static_cast<int>(VerifyRepairOutcome::NotAttempted) &&
              CGC_REPAIR_REPAIRED ==
                  static_cast<int>(VerifyRepairOutcome::Repaired) &&
              CGC_REPAIR_QUARANTINED ==
                  static_cast<int>(VerifyRepairOutcome::Quarantined),
              "CGC_REPAIR_* drifted from VerifyRepairOutcome");
static_assert(CGC_INCIDENT_METADATA_WILD_WRITE ==
                      static_cast<int>(GcIncidentCause::MetadataWildWrite) &&
                  CGC_INCIDENT_FOREIGN_FREE ==
                      static_cast<int>(GcIncidentCause::ForeignFree),
              "incident cause drifted");
static_assert(CGC_FAULT_METADATA_HEADER_FLIP ==
                  static_cast<int>(FaultSite::MetadataHeaderFlip) &&
              CGC_FAULT_METADATA_FREE_LIST_SMASH ==
                  static_cast<int>(FaultSite::MetadataFreeListSmash) &&
              CGC_FAULT_METADATA_PAGE_MAP_CLOBBER ==
                  static_cast<int>(FaultSite::MetadataPageMapClobber) &&
              CGC_FAULT_METADATA_ALLOC_BIT_FLIP ==
                  static_cast<int>(FaultSite::MetadataAllocBitFlip),
              "CGC_FAULT_* drifted from FaultSite");

static void fillRepairStats(cgc_repair_stats *Out, const GcRepairStats &In) {
  Out->verify_repairs_run = In.VerifyRepairsRun;
  Out->findings_repaired = In.FindingsRepaired;
  Out->blocks_quarantined = In.BlocksQuarantined;
  Out->pages_quarantined = In.PagesQuarantined;
  Out->free_list_rebuilds = In.FreeListRebuilds;
  Out->page_map_rederivations = In.PageMapRederivations;
  Out->counters_resynced = In.CountersResynced;
  Out->collections_retried = In.CollectionsRetried;
  Out->metadata_wild_writes = In.MetadataWildWrites;
  Out->seal_transitions = In.SealTransitions;
  Out->seal_nanos = In.SealNanos;
  Out->degraded_mode = In.DegradedMode ? 1 : 0;
}

/// Streams one report's findings through the C callback.  The C struct
/// borrows each finding's message string, so the callback contract (the
/// pointer dies with the call) keeps this allocation-free per finding.
static void streamFindings(const HeapVerifyReport &Report,
                           cgc_verify_report_fn Fn, void *ClientData) {
  for (const VerifyFinding &F : Report.Findings) {
    cgc_verify_finding C;
    C.kind = static_cast<int>(F.Kind);
    C.message = F.Message.c_str();
    C.page = F.Page;
    C.block = F.Block;
    C.outcome = static_cast<int>(F.Outcome);
    Fn(&C, ClientData);
  }
}

size_t cgc_verify_heap_report(cgc_collector *GC, cgc_verify_report_fn Fn,
                              void *ClientData) {
  HeapVerifyReport Result = GC->GC.verifyHeapReport();
  if (Fn)
    streamFindings(Result, Fn, ClientData);
  return Result.Findings.size();
}

int cgc_verify_and_repair(cgc_collector *GC, cgc_verify_report_fn Fn,
                          void *ClientData, cgc_repair_stats *Out) {
  HeapVerifyReport Report = GC->GC.verifyAndRepair();
  if (Fn)
    streamFindings(Report, Fn, ClientData);
  if (Out)
    fillRepairStats(Out, GC->GC.repairStats());
  return (Report.clean() || Report.RepairedClean) ? 1 : 0;
}

void cgc_get_repair_stats(cgc_collector *GC, cgc_repair_stats *Out) {
  if (Out)
    fillRepairStats(Out, GC->GC.repairStats());
}

int cgc_fault_injection_available(void) {
  return FaultInjectionCompiled ? 1 : 0;
}

/// Maps a CGC_FAULT_* constant onto the C++ enum; returns false for
/// out-of-range and retired sites so bad input is a no-op rather than
/// UB.
static bool convertFaultSite(int Site, FaultSite &Out) {
  if (Site < 0 || static_cast<unsigned>(Site) >= NumFaultSites ||
      static_cast<unsigned>(Site) == RetiredFaultSite)
    return false;
  Out = static_cast<FaultSite>(Site);
  return true;
}

void cgc_fault_arm(int Site, unsigned long long SkipHits,
                   unsigned long long FailCount) {
  FaultSite S;
  if (convertFaultSite(Site, S))
    FaultInjector::instance().arm(S, SkipHits, FailCount);
}

void cgc_fault_arm_random(int Site, double Probability,
                          unsigned long long Seed) {
  FaultSite S;
  if (convertFaultSite(Site, S))
    FaultInjector::instance().armRandom(S, Probability, Seed);
}

void cgc_fault_disarm_all(void) { FaultInjector::instance().disarmAll(); }

unsigned long long cgc_fault_fired(int Site) {
  FaultSite S;
  if (!convertFaultSite(Site, S))
    return 0;
  return FaultInjector::instance().stats(S).Fired;
}

unsigned cgc_add_gc_observer(cgc_collector *GC, cgc_gc_event_fn Fn,
                             void *ClientData) {
  if (!Fn)
    return 0;
  auto Adapter = std::make_unique<CEventObserver>(Fn, ClientData);
  Adapter->RegistrationId = GC->GC.addObserver(Adapter.get());
  unsigned Handle = Adapter->RegistrationId;
  GC->Observers.push_back(std::move(Adapter));
  return Handle;
}

int cgc_remove_gc_observer(cgc_collector *GC, unsigned Handle) {
  for (auto &Adapter : GC->Observers)
    if (Adapter && Adapter->RegistrationId == Handle) {
      bool Removed = GC->GC.removeObserver(Handle);
      // The adapter object itself is retained until cgc_destroy; see
      // CEventObserver.
      return Removed ? 1 : 0;
    }
  return 0;
}

unsigned cgc_add_roots(cgc_collector *GC, const void *Lo,
                       const void *Hi) {
  return GC->GC.addRootRange(Lo, Hi, RootEncoding::Native64,
                             RootSource::StaticData, "c-api-roots");
}

int cgc_remove_roots(cgc_collector *GC, unsigned Handle) {
  return GC->GC.removeRootRange(Handle) ? 1 : 0;
}

void cgc_exclude_roots(cgc_collector *GC, const void *Lo,
                       const void *Hi) {
  GC->GC.addRootExclusion(Lo, Hi);
}

void cgc_enable_stack_scanning(cgc_collector *GC) {
  GC->GC.enableMachineStackScanning();
}

void cgc_register_displacement(cgc_collector *GC, unsigned Displacement) {
  GC->GC.registerDisplacement(Displacement);
}

int cgc_register_finalizer(cgc_collector *GC, void *Obj,
                           cgc_finalizer_fn Fn, void *ClientData) {
  if (!Obj || !Fn || !GC->GC.isAllocated(Obj))
    return 0;
  GC->GC.registerFinalizer(
      Obj, [Fn, ClientData](void *P) { Fn(P, ClientData); });
  return 1;
}

int cgc_unregister_finalizer(cgc_collector *GC, void *Obj) {
  return GC->GC.unregisterFinalizer(Obj) ? 1 : 0;
}

size_t cgc_run_finalizers(cgc_collector *GC) {
  return GC->GC.runFinalizers();
}

int cgc_is_heap_ptr(cgc_collector *GC, const void *Ptr) {
  return GC->GC.isHeapPointer(Ptr) ? 1 : 0;
}

void *cgc_base(cgc_collector *GC, const void *Ptr) {
  return GC->GC.objectBase(Ptr);
}

size_t cgc_size(cgc_collector *GC, const void *Ptr) {
  return GC->GC.objectSizeOf(Ptr);
}

unsigned long long cgc_heap_committed_bytes(cgc_collector *GC) {
  return GC->GC.committedHeapBytes();
}

unsigned long long cgc_live_bytes(cgc_collector *GC) {
  return GC->GC.allocatedBytes();
}

unsigned long long cgc_collection_count(cgc_collector *GC) {
  return GC->GC.lifetimeStats().Collections;
}

unsigned long long cgc_blacklisted_pages(cgc_collector *GC) {
  return GC->GC.blacklistedPageCount();
}

void cgc_dump(cgc_collector *GC) { GC->GC.printReport(stderr); }

void cgc_sentinel_policy_init(cgc_sentinel_policy *Policy) {
  if (!Policy)
    return;
  SentinelPolicy Defaults;
  Policy->enabled = Defaults.Enabled ? 1 : 0;
  Policy->window_collections = Defaults.WindowCollections;
  Policy->growth_floor_bytes = Defaults.GrowthFloorBytes;
  Policy->calm_collections = Defaults.CalmCollections;
}

void cgc_sentinel_configure(cgc_collector *GC,
                            const cgc_sentinel_policy *Policy) {
  GC->GC.configureSentinel(convertSentinelPolicy(Policy));
}

int cgc_sentinel_get_stats(cgc_collector *GC, cgc_sentinel_stats *Out) {
  if (Out)
    std::memset(Out, 0, sizeof(*Out));
  GcSentinel *Sentinel = GC->GC.sentinel();
  if (!Sentinel)
    return 0;
  if (Out) {
    const GcSentinelStats &S = Sentinel->stats();
    Out->storms_detected = S.StormsDetected;
    Out->stack_clear_forces = S.StackClearForces;
    Out->blacklist_refreshes = S.BlacklistRefreshes;
    Out->interior_tightenings = S.InteriorTightenings;
    Out->incidents_raised = S.IncidentsRaised;
    Out->deescalations = S.Deescalations;
    Out->current_level = S.CurrentLevel;
  }
  return 1;
}

void cgc_set_incident_callback(cgc_collector *GC, cgc_incident_fn Fn,
                               void *ClientData) {
  GC->IncidentObserver.Fn = Fn;
  GC->IncidentObserver.ClientData = ClientData;
  if (Fn && GC->IncidentObserverId == 0) {
    GC->IncidentObserverId = GC->GC.addObserver(&GC->IncidentObserver);
  } else if (!Fn && GC->IncidentObserverId != 0) {
    GC->GC.removeObserver(GC->IncidentObserverId);
    GC->IncidentObserverId = 0;
  }
}

void *cgc_debug_malloc(cgc_collector *GC, size_t Bytes, const char *Site) {
  return finishAlloc(GC->GC.allocateTagged(Bytes, Site, ObjectKind::Normal));
}

void cgc_debug_flush_quarantine(cgc_collector *GC) {
  if (GC->GC.guards())
    GC->GC.flushQuarantine();
}

int cgc_debug_get_stats(cgc_collector *GC, cgc_guard_stats *Out) {
  if (Out)
    std::memset(Out, 0, sizeof(*Out));
  if (!GC->GC.guards())
    return 0;
  if (Out) {
    const GcGuardStats &S = GC->GC.guardStats();
    Out->guarded_allocations = S.GuardedAllocations;
    Out->guarded_frees = S.GuardedFrees;
    Out->quarantine_depth = S.QuarantineDepth;
    Out->quarantine_flushes = S.QuarantineFlushes;
    Out->header_smashes = S.HeaderSmashes;
    Out->redzone_smashes = S.RedzoneSmashes;
    Out->double_frees = S.DoubleFrees;
    Out->invalid_frees = S.InvalidFrees;
    Out->use_after_free_writes = S.UseAfterFreeWrites;
    Out->guard_slop_bytes = S.GuardSlopBytes;
    Out->leaked_objects = S.LeakedObjects;
    Out->leaked_bytes = S.LeakedBytes;
  }
  return 1;
}

unsigned long long cgc_debug_find_leaks(cgc_collector *GC, cgc_leak_fn Fn,
                                        void *User) {
  if (!GC->GC.guards())
    return 0;
  GcLeakReport Report = GC->GC.findLeaks();
  if (Fn)
    for (const GcLeakSite &Site : Report.Sites)
      Fn(Site.Site, Site.Objects, Site.Bytes, Site.FirstSeqno, User);
  return Report.TotalObjects;
}

void cgc_install_crash_reporter(void) { crash::install(); }

void cgc_dump_crash_report(int Fd) { crash::dump(Fd); }

} // extern "C"
