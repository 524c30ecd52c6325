//===- tests/TestCApi.cpp - C API tests -----------------------------------===//

#include "capi/cgc.h"
#include "core/GcConfig.h"
#include "support/FaultInjection.h"
#include <atomic>
#include <cerrno>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

cgc_config testConfig() {
  cgc_config Config;
  cgc_config_init(&Config);
  Config.window_bytes = 256ULL << 20;
  Config.heap_base_offset = 16ULL << 20;
  Config.max_heap_bytes = 32ULL << 20;
  Config.gc_at_startup = 0;
  return Config;
}

struct CNode {
  CNode *Next;
  long Value;
};

} // namespace

TEST(CApi, ConfigDefaults) {
  cgc_config Config;
  cgc_config_init(&Config);
  EXPECT_EQ(Config.window_bytes, 4ULL << 30);
  EXPECT_EQ(Config.interior_policy, CGC_INTERIOR_ALL);
  EXPECT_EQ(Config.blacklist_mode, CGC_BLACKLIST_FLAT);
  EXPECT_EQ(Config.gc_at_startup, 1);
  cgc_config_init(nullptr); // Must not crash.
}

// Field-by-field audit: cgc_config_init must agree with the C++
// GcConfig defaults for EVERY field, so the C mirror cannot silently
// drift as knobs are added.
TEST(CApi, ConfigDefaultsMatchGcConfig) {
  cgc_config C;
  cgc_config_init(&C);
  cgc::GcConfig D;
  EXPECT_EQ(C.window_bytes, D.WindowBytes);
  EXPECT_EQ(C.max_heap_bytes, D.MaxHeapBytes);
  EXPECT_EQ(C.heap_base_offset, 0u) << "default placement is not Custom";
  EXPECT_EQ(C.heap_placement, CGC_PLACEMENT_HIGH_BITS_MIXED);
  EXPECT_EQ(C.interior_policy, CGC_INTERIOR_ALL);
  EXPECT_EQ(C.blacklist_mode, CGC_BLACKLIST_FLAT);
  EXPECT_EQ(C.blacklist_aging, D.BlacklistAging ? 1 : 0);
  EXPECT_EQ(C.hashed_blacklist_bits_log2, D.HashedBlacklistBitsLog2);
  EXPECT_EQ(C.gc_at_startup, D.GcAtStartup ? 1 : 0);
  EXPECT_EQ(C.root_scan_alignment, D.RootScanAlignment);
  EXPECT_EQ(C.mutator_threads, D.MutatorThreads);
  EXPECT_DOUBLE_EQ(C.collect_before_growth_ratio,
                   D.CollectBeforeGrowthRatio);
  EXPECT_EQ(C.min_heap_bytes_before_gc, D.MinHeapBytesBeforeGc);
  EXPECT_EQ(C.stack_clearing, CGC_STACK_CLEAR_OFF);
  EXPECT_EQ(C.stack_clear_every_n_allocs, D.StackClearEveryNAllocs);
  EXPECT_EQ(C.avoid_trailing_zero_addresses,
            D.AvoidTrailingZeroAddresses ? 1 : 0);
  EXPECT_EQ(C.verify_every_collection, D.VerifyEveryCollection ? 1 : 0);
  EXPECT_EQ(C.sentinel.enabled, D.Sentinel.Enabled ? 1 : 0);
  EXPECT_EQ(C.sentinel.window_collections, D.Sentinel.WindowCollections);
  EXPECT_EQ(C.sentinel.growth_floor_bytes, D.Sentinel.GrowthFloorBytes);
  EXPECT_EQ(C.sentinel.calm_collections, D.Sentinel.CalmCollections);
  EXPECT_EQ(C.seal_metadata, D.SealMetadata ? 1 : 0);
  EXPECT_EQ(C.repair_fatal, D.RepairFatal ? 1 : 0);
}

// Every field set to a non-default value must round-trip through
// cgc_create -> cgc_current_config unchanged.
TEST(CApi, ConfigRoundTripsThroughCollector) {
  cgc_config In;
  cgc_config_init(&In);
  In.window_bytes = 512ULL << 20;
  In.max_heap_bytes = 64ULL << 20;
  In.heap_placement = CGC_PLACEMENT_CUSTOM;
  In.heap_base_offset = 32ULL << 20;
  In.interior_policy = CGC_INTERIOR_FIRST_PAGE;
  In.blacklist_mode = CGC_BLACKLIST_HASHED;
  In.blacklist_aging = 0;
  In.hashed_blacklist_bits_log2 = 12;
  In.gc_at_startup = 0;
  In.root_scan_alignment = 8;
  In.mutator_threads = 7;
  In.collect_before_growth_ratio = 0.75;
  In.min_heap_bytes_before_gc = 2ULL << 20;
  In.stack_clearing = CGC_STACK_CLEAR_CHEAP;
  In.stack_clear_every_n_allocs = 32;
  In.avoid_trailing_zero_addresses = 0;
  In.verify_every_collection = 1;
  In.sentinel.enabled = 1;
  In.sentinel.window_collections = 6;
  In.sentinel.growth_floor_bytes = 2ULL << 20;
  In.sentinel.calm_collections = 7;
  In.seal_metadata = 1;
  In.repair_fatal = 0;

  cgc_collector *GC = cgc_create(&In);
  ASSERT_NE(GC, nullptr);
  cgc_config Out;
  std::memset(&Out, 0xff, sizeof(Out)); // Poison: every field must be set.
  cgc_current_config(GC, &Out);
  EXPECT_EQ(Out.window_bytes, In.window_bytes);
  EXPECT_EQ(Out.max_heap_bytes, In.max_heap_bytes);
  EXPECT_EQ(Out.heap_placement, CGC_PLACEMENT_CUSTOM);
  EXPECT_EQ(Out.heap_base_offset, In.heap_base_offset);
  EXPECT_EQ(Out.interior_policy, In.interior_policy);
  EXPECT_EQ(Out.blacklist_mode, In.blacklist_mode);
  EXPECT_EQ(Out.blacklist_aging, In.blacklist_aging);
  EXPECT_EQ(Out.hashed_blacklist_bits_log2, In.hashed_blacklist_bits_log2);
  EXPECT_EQ(Out.gc_at_startup, In.gc_at_startup);
  EXPECT_EQ(Out.root_scan_alignment, In.root_scan_alignment);
  EXPECT_EQ(Out.mutator_threads, In.mutator_threads);
  EXPECT_DOUBLE_EQ(Out.collect_before_growth_ratio,
                   In.collect_before_growth_ratio);
  EXPECT_EQ(Out.min_heap_bytes_before_gc, In.min_heap_bytes_before_gc);
  EXPECT_EQ(Out.stack_clearing, In.stack_clearing);
  EXPECT_EQ(Out.stack_clear_every_n_allocs, In.stack_clear_every_n_allocs);
  EXPECT_EQ(Out.avoid_trailing_zero_addresses,
            In.avoid_trailing_zero_addresses);
  EXPECT_EQ(Out.verify_every_collection, In.verify_every_collection);
  EXPECT_EQ(Out.sentinel.enabled, In.sentinel.enabled);
  EXPECT_EQ(Out.sentinel.window_collections, In.sentinel.window_collections);
  EXPECT_EQ(Out.sentinel.growth_floor_bytes, In.sentinel.growth_floor_bytes);
  EXPECT_EQ(Out.sentinel.calm_collections, In.sentinel.calm_collections);
  EXPECT_EQ(Out.seal_metadata, In.seal_metadata);
  EXPECT_EQ(Out.repair_fatal, In.repair_fatal);
  cgc_destroy(GC);
}

TEST(CApi, CreateAllocateCollectDestroy) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  ASSERT_NE(GC, nullptr);

  void *P = cgc_malloc(GC, 64);
  ASSERT_NE(P, nullptr);
  // Zero-initialized.
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(static_cast<unsigned char *>(P)[I], 0);
  EXPECT_TRUE(cgc_is_heap_ptr(GC, P));
  EXPECT_FALSE(cgc_is_heap_ptr(GC, &Config));
  EXPECT_EQ(cgc_size(GC, P), 64u);
  EXPECT_EQ(cgc_base(GC, static_cast<char *>(P) + 30), P);

  unsigned long long Freed = cgc_gcollect(GC);
  EXPECT_GE(Freed, 64u) << "unrooted object must be reclaimed";
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  EXPECT_EQ(cgc_collection_count(GC), 1u);
  cgc_destroy(GC);
}

TEST(CApi, RootsKeepObjectsAlive) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  static CNode *Head; // Static so the compiler cannot hide it.
  Head = nullptr;
  for (int I = 0; I != 100; ++I) {
    auto *N = static_cast<CNode *>(cgc_malloc(GC, sizeof(CNode)));
    N->Next = Head;
    N->Value = I;
    Head = N;
  }
  unsigned Handle = cgc_add_roots(GC, &Head, &Head + 1);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 100 * sizeof(CNode));
  long Sum = 0;
  for (CNode *N = Head; N; N = N->Next)
    Sum += N->Value;
  EXPECT_EQ(Sum, 4950);

  EXPECT_EQ(cgc_remove_roots(GC, Handle), 1);
  EXPECT_EQ(cgc_remove_roots(GC, Handle), 0);
  Head = nullptr;
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  cgc_destroy(GC);
}

TEST(CApi, AtomicAndUncollectable) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  // An uncollectable object holding the only pointer to a chain: both
  // survive without any registered roots.
  auto *Anchor = static_cast<CNode *>(
      cgc_malloc_uncollectable(GC, sizeof(CNode)));
  Anchor->Next = static_cast<CNode *>(cgc_malloc(GC, sizeof(CNode)));
  // A pointer inside atomic memory retains nothing.
  auto **Atomic = static_cast<void **>(cgc_malloc_atomic(GC, 64));
  Atomic[0] = cgc_malloc(GC, 32);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 2 * sizeof(CNode))
      << "anchor + its chain; atomic object and its secret are gone";
  cgc_free(GC, Anchor);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0u);
  cgc_destroy(GC);
}

TEST(CApi, FinalizersWithClientData) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  int Ran = 0;
  void *Obj = cgc_malloc(GC, 32);
  ASSERT_EQ(cgc_register_finalizer(
                GC, Obj,
                [](void *, void *Client) { ++*static_cast<int *>(Client); },
                &Ran),
            1);
  // Registration on garbage pointers fails cleanly.
  EXPECT_EQ(cgc_register_finalizer(GC, nullptr, nullptr, nullptr), 0);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_run_finalizers(GC), 1u);
  EXPECT_EQ(Ran, 1);
  cgc_destroy(GC);
}

TEST(CApi, IgnoreOffPageAndExclusions) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  void *Big = cgc_malloc_ignore_off_page(GC, 32 * 4096);
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(cgc_size(GC, Big), 32u * 4096u);

  // Root buffer with the reference hidden behind an exclusion.
  static void *Slot;
  Slot = Big;
  cgc_add_roots(GC, &Slot, &Slot + 1);
  cgc_exclude_roots(GC, &Slot, &Slot + 1);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0u) << "excluded root must not retain";
  cgc_destroy(GC);
}

TEST(CApi, StackScanningEndToEnd) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  cgc_enable_stack_scanning(GC);
  auto *N = static_cast<CNode *>(cgc_malloc(GC, sizeof(CNode)));
  N->Value = 42;
  __asm__ volatile("" ::"r"(N) : "memory");
  cgc_gcollect(GC);
  EXPECT_EQ(N->Value, 42) << "stack-referenced object survives";
  EXPECT_GE(cgc_live_bytes(GC), sizeof(CNode));
  cgc_destroy(GC);
}

namespace {
// C function pointers cannot capture, so the OOM/warn tests talk
// through file-scope state.
size_t OomHandlerCalls;
size_t OomRequestedBytes;
size_t WarnCalls;
} // namespace

// Drives the allocation ladder to exhaustion through the C API: every
// rung (collect, lazy-sweep flush, grow, emergency collect) fails on a
// heap pinned full of uncollectable objects, so the installed handler
// must be invoked — exactly once per failed request, with the
// requested size — and the allocation must return its result instead
// of aborting.
TEST(CApi, OomHandlerRunsWhenLadderExhausted) {
  cgc_config Config = testConfig();
  Config.max_heap_bytes = 2ULL << 20;
  cgc_collector *GC = cgc_create(&Config);
  cgc_set_oom_handler(
      GC,
      [](size_t Bytes, void *) -> void * {
        ++OomHandlerCalls;
        OomRequestedBytes = Bytes;
        return nullptr;
      },
      nullptr);
  cgc_set_warn_proc(
      GC, [](const char *, unsigned long long, void *) { ++WarnCalls; },
      nullptr);
  OomHandlerCalls = 0;
  OomRequestedBytes = 0;
  WarnCalls = 0;

  // Pin the whole heap: uncollectable objects survive every rung's
  // collection.
  std::vector<void *> Pinned;
  while (void *P = cgc_malloc_uncollectable(GC, 4096))
    Pinned.push_back(P);

  EXPECT_EQ(OomHandlerCalls, 1u) << "handler runs once per failed request";
  EXPECT_EQ(OomRequestedBytes, 4096u);
  EXPECT_FALSE(Pinned.empty());
  EXPECT_GE(WarnCalls, 1u)
      << "no-progress collections under pressure must warn";

  // The heap is saturated but intact.
  EXPECT_EQ(cgc_verify_heap(GC, nullptr, 0), 0u);

  // Free everything; allocation works again without handler calls.
  OomHandlerCalls = 0;
  for (void *P : Pinned)
    cgc_free(GC, P);
  void *After = cgc_malloc(GC, 4096);
  EXPECT_NE(After, nullptr);
  EXPECT_EQ(OomHandlerCalls, 0u);
  cgc_destroy(GC);
}

TEST(CApi, FailedAllocationsSetErrnoToEnomem) {
  // The malloc-compatibility contract (satellite of the redirect
  // layer): every C-API allocation entry point returns NULL with
  // errno=ENOMEM on failure, so interposed callers see exact libc
  // semantics.
  cgc_config Config = testConfig();
  Config.max_heap_bytes = 2ULL << 20;
  cgc_collector *GC = cgc_create(&Config);
  cgc_set_warn_proc(
      GC, [](const char *, unsigned long long, void *) {}, nullptr);

  // A request larger than the whole heap fails on every entry point.
  constexpr size_t TooBig = 64ULL << 20;
  errno = 0;
  EXPECT_EQ(cgc_malloc(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_atomic(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_uncollectable(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_atomic_uncollectable(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  errno = 0;
  EXPECT_EQ(cgc_malloc_ignore_off_page(GC, TooBig), nullptr);
  EXPECT_EQ(errno, ENOMEM);

  // Genuine exhaustion (ladder runs dry) reports the same way.
  std::vector<void *> Pinned;
  errno = 0;
  while (void *P = cgc_malloc_uncollectable(GC, 4096)) {
    Pinned.push_back(P);
    errno = 0;
  }
  EXPECT_EQ(errno, ENOMEM);
  EXPECT_FALSE(Pinned.empty());

  for (void *P : Pinned)
    cgc_free(GC, P);
  void *After = cgc_malloc(GC, 4096);
  EXPECT_NE(After, nullptr);
  cgc_destroy(GC);
}

TEST(CApi, VerifyHeapReportsCleanAndFillsBuffer) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  for (int I = 0; I != 64; ++I)
    cgc_malloc(GC, 48);
  cgc_gcollect(GC);
  char Report[256];
  std::memset(Report, 'x', sizeof(Report));
  EXPECT_EQ(cgc_verify_heap(GC, Report, sizeof(Report)), 0u);
  EXPECT_EQ(Report[0], '\0') << "clean heap yields an empty report";
  cgc_destroy(GC);
}

namespace {
// Captured copy of one streamed finding (the message pointer is only
// valid during the callback, so the capture deep-copies it).
struct CapturedFinding {
  int Kind;
  std::string Message;
  unsigned long long Page;
  unsigned Block;
  int Outcome;
};

void captureFinding(const cgc_verify_finding *F, void *ClientData) {
  auto *Out = static_cast<std::vector<CapturedFinding> *>(ClientData);
  Out->push_back({F->kind, F->message ? F->message : "", F->page, F->block,
                  F->outcome});
}
} // namespace

// The structured report streams typed findings through the callback:
// a clean heap streams nothing; a guarded heap with a smashed redzone
// (client-memory damage the test itself inflicts, no fault injection
// needed) streams a GUARD_SMASH finding whose message matches the
// legacy text report.
TEST(CApi, VerifyHeapReportStreamsStructuredFindings) {
  cgc_config Config = testConfig();
  Config.debug_guards = 1;
  Config.guard_fatal = 0;
  cgc_collector *GC = cgc_create(&Config);

  std::vector<CapturedFinding> Findings;
  EXPECT_EQ(cgc_verify_heap_report(GC, captureFinding, &Findings), 0u);
  EXPECT_TRUE(Findings.empty());
  // NULL callback just counts.
  EXPECT_EQ(cgc_verify_heap_report(GC, nullptr, nullptr), 0u);

  void *Obj = CGC_MALLOC_SITE(GC, 64);
  ASSERT_NE(Obj, nullptr);
  std::memset(static_cast<char *>(Obj) + 64, 0xAB, 4); // Smash the redzone.

  size_t Count = cgc_verify_heap_report(GC, captureFinding, &Findings);
  ASSERT_GE(Count, 1u);
  EXPECT_EQ(Count, Findings.size());
  EXPECT_EQ(Findings[0].Kind, CGC_VERIFY_GUARD_SMASH);
  EXPECT_NE(Findings[0].Message.find("redzone"), std::string::npos);
  EXPECT_EQ(Findings[0].Outcome, CGC_REPAIR_NOT_ATTEMPTED);

  // Guard smashes are client-memory damage, not metadata: repair
  // streams them with outcome not-attempted but still reports the
  // *metadata* clean — there is nothing for it to fix.
  Findings.clear();
  cgc_repair_stats Stats;
  std::memset(&Stats, 0xff, sizeof(Stats));
  EXPECT_EQ(cgc_verify_and_repair(GC, captureFinding, &Findings, &Stats), 1);
  ASSERT_GE(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Kind, CGC_VERIFY_GUARD_SMASH);
  EXPECT_EQ(Findings[0].Outcome, CGC_REPAIR_NOT_ATTEMPTED);
  EXPECT_GE(Stats.verify_repairs_run, 1ull);
  EXPECT_EQ(Stats.degraded_mode, 0);
  cgc_destroy(GC);
}

// A metadata corruption injected at collection entry must ride the
// whole containment ladder through the C surface: detected by the
// per-phase verifier, collection abandoned, heap repaired, cycle
// retried — and the lifetime counters must say so.
TEST(CApi, VerifyAndRepairAfterInjectedCorruption) {
  if (!cgc_fault_injection_available())
    GTEST_SKIP() << "fault-injection hooks compiled out";

  cgc_config Config = testConfig();
  Config.verify_every_collection = 1;
  Config.repair_fatal = 0;
  cgc_collector *GC = cgc_create(&Config);

  // Rooted survivors so live blocks exist for the fault to flip.
  static void *Keep[16];
  std::memset(Keep, 0, sizeof(Keep));
  cgc_add_roots(GC, Keep, Keep + 16);
  for (int I = 0; I != 16; ++I)
    Keep[I] = cgc_malloc(GC, 48);

  cgc_fault_arm(CGC_FAULT_METADATA_HEADER_FLIP, 0, 1);
  cgc_gcollect(GC);
  cgc_fault_disarm_all();
  EXPECT_EQ(cgc_fault_fired(CGC_FAULT_METADATA_HEADER_FLIP), 1ull);

  cgc_repair_stats Stats;
  cgc_get_repair_stats(GC, &Stats);
  EXPECT_GE(Stats.collections_retried, 1ull);
  EXPECT_GE(Stats.verify_repairs_run, 1ull);
  EXPECT_GE(Stats.counters_resynced, 1ull);
  EXPECT_EQ(Stats.degraded_mode, 0);

  // The repaired heap verifies clean and the survivors are intact.
  EXPECT_EQ(cgc_verify_heap_report(GC, nullptr, nullptr), 0u);
  EXPECT_EQ(cgc_verify_and_repair(GC, nullptr, nullptr, nullptr), 1);
  EXPECT_GE(cgc_live_bytes(GC), 16ull * 48ull);
  cgc_destroy(GC);
}

// The fault-injection controls are exposed through the C API so C
// harnesses can script failure scenarios; arena-grow failure must be
// absorbed by the ladder (collect/retry), not surfaced to the caller.
TEST(CApi, FaultInjectionControls) {
  if (!cgc_fault_injection_available())
    GTEST_SKIP() << "fault-injection hooks compiled out";

  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  unsigned long long FiredBefore = cgc_fault_fired(CGC_FAULT_ARENA_GROW);
  cgc_fault_arm(CGC_FAULT_ARENA_GROW, 0, 1);
  // First allocation needs pages; the injected grow failure forces the
  // ladder, which retries after its rungs and succeeds.
  void *P = cgc_malloc(GC, 64);
  EXPECT_NE(P, nullptr);
  cgc_fault_disarm_all();
  EXPECT_EQ(cgc_fault_fired(CGC_FAULT_ARENA_GROW), FiredBefore + 1);

  // Out-of-range sites are ignored, not UB, and so is the retired one.
  cgc_fault_arm(99, 0, 1);
  EXPECT_EQ(cgc_fault_fired(99), 0u);
  cgc_fault_arm(static_cast<int>(cgc::RetiredFaultSite), 0, 1);
  EXPECT_FALSE(cgc::FaultInjector::instance().anyArmed());
  EXPECT_STREQ(cgc::faultSiteName(
                   static_cast<cgc::FaultSite>(cgc::RetiredFaultSite)),
               "retired");
  cgc_fault_disarm_all();
  cgc_destroy(GC);
}

TEST(CApi, SentinelConfigureStatsAndIncidentCallback) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);

  cgc_sentinel_stats Stats;
  EXPECT_EQ(cgc_sentinel_get_stats(GC, &Stats), 0)
      << "the sentinel is off by default";

  cgc_sentinel_policy Policy;
  cgc_sentinel_policy_init(&Policy);
  EXPECT_EQ(Policy.enabled, 0);
  EXPECT_EQ(Policy.window_collections, 8u);
  Policy.enabled = 1;
  Policy.window_collections = 4;
  Policy.growth_floor_bytes = 4 << 10;
  Policy.calm_collections = 100;
  cgc_sentinel_configure(GC, &Policy);
  EXPECT_EQ(cgc_sentinel_get_stats(GC, &Stats), 1);
  EXPECT_EQ(Stats.current_level, 0u);

  static int Incidents;
  static unsigned LastLevel;
  Incidents = 0;
  LastLevel = 0;
  cgc_set_incident_callback(
      GC,
      [](int Cause, unsigned long long /*Collection*/, unsigned Level,
         unsigned long long Growth, void *) {
        if (Cause == CGC_INCIDENT_RETENTION_STORM && Growth > 0)
          ++Incidents;
        LastLevel = Level;
      },
      nullptr);

  // The storm workload from TestSentinel, through the C surface.
  static void *Pins[64];
  std::memset(Pins, 0, sizeof(Pins));
  cgc_add_roots(GC, Pins, Pins + 64);
  for (unsigned I = 0; I != 24 && Incidents == 0; ++I) {
    Pins[I] = cgc_malloc(GC, 32 << 10);
    cgc_gcollect(GC);
  }

  ASSERT_EQ(cgc_sentinel_get_stats(GC, &Stats), 1);
  EXPECT_GE(Stats.storms_detected, 1ull);
  EXPECT_EQ(Stats.stack_clear_forces, 1ull);
  EXPECT_EQ(Stats.blacklist_refreshes, 1ull);
  EXPECT_EQ(Stats.interior_tightenings, 1ull);
  EXPECT_EQ(Stats.incidents_raised, 1ull);
  EXPECT_EQ(Stats.current_level, 4u);
  EXPECT_EQ(Incidents, 1);
  EXPECT_EQ(LastLevel, 4u);

  // Clearing the callback must deregister it; further collections run.
  cgc_set_incident_callback(GC, nullptr, nullptr);
  cgc_gcollect(GC);
  cgc_destroy(GC);
}

TEST(CApi, CrashReportDumpOnDemand) {
  cgc_config Config = testConfig();
  cgc_collector *GC = cgc_create(&Config);
  cgc_gcollect(GC);

  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  cgc_dump_crash_report(Fds[1]);
  ::close(Fds[1]);
  std::string Report;
  char Buffer[4096];
  ssize_t N;
  while ((N = ::read(Fds[0], Buffer, sizeof(Buffer))) > 0)
    Report.append(Buffer, static_cast<size_t>(N));
  ::close(Fds[0]);

  EXPECT_NE(Report.find("=== cgc crash report ==="), std::string::npos);
  EXPECT_NE(Report.find("collector #"), std::string::npos);
  EXPECT_NE(Report.find("collection-end"), std::string::npos);

  cgc_install_crash_reporter(); // Idempotent; must not disturb anything.
  cgc_destroy(GC);
}

TEST(CApi, DisplacementsUnderBaseOnly) {
  cgc_config Config = testConfig();
  Config.interior_policy = CGC_INTERIOR_BASE_ONLY;
  cgc_collector *GC = cgc_create(&Config);
  cgc_register_displacement(GC, 8);
  static char *TaggedRef;
  void *Obj = cgc_malloc(GC, 64);
  TaggedRef = static_cast<char *>(Obj) + 8; // Tagged pointer.
  cgc_add_roots(GC, &TaggedRef, &TaggedRef + 1);
  cgc_gcollect(GC);
  EXPECT_GE(cgc_live_bytes(GC), 64u);
  cgc_destroy(GC);
}

TEST(CApi, MutatorThreadRegistrationAndSafepoint) {
  cgc_config Config = testConfig();
  Config.mutator_threads = 4;
  cgc_collector *GC = cgc_create(&Config);
  // Unregistered threads: safepoint is a cheap no-op.
  cgc_safepoint(GC);

  std::vector<std::thread> Workers;
  std::atomic<unsigned> Succeeded{0};
  for (int T = 0; T != 3; ++T)
    Workers.emplace_back([&] {
      if (!cgc_register_thread(GC))
        return;
      Succeeded.fetch_add(1);
      static thread_local void *Keep[8];
      for (int I = 0; I != 200; ++I) {
        Keep[I % 8] = cgc_malloc(GC, 48);
        cgc_safepoint(GC);
      }
      cgc_unregister_thread(GC);
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Succeeded.load(), 3u);
  cgc_gcollect(GC); // No registered threads left; must not hang.
  cgc_destroy(GC);
}
