//===- tests/TestGuardedHeap.cpp - Guarded-heap mode contracts ------------===//
//
// The opt-in debug mode (GcConfig::DebugGuards): per-object header +
// redzone validation, the explicit-free validation ladder, the
// quarantine ring, allocation-site tagging, and find-leaks reports.
// Fatal outcomes (GuardFatal, the default) live in TestDeath.cpp; here
// violations are recorded as incidents and inspected.
//
//===----------------------------------------------------------------------===//

#include "capi/cgc.h"
#include "core/Collector.h"
#include "support/CrashReporter.h"
#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

using namespace cgc;

namespace {

GcConfig guardedConfig(bool Fatal = true, uint32_t QuarantineSlots = 256) {
  GcConfig Config;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Only explicit collections.
  Config.DebugGuards = true;
  Config.GuardFatal = Fatal;
  Config.QuarantineSlots = QuarantineSlots;
  return Config;
}

} // namespace

TEST(GuardedHeap, AllocationIsZeroedSizedAndUsable) {
  Collector GC(guardedConfig());
  auto *P = static_cast<unsigned char *>(GC.allocate(40));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I != 40; ++I)
    EXPECT_EQ(P[I], 0u) << "guarded memory must be zero-initialized";
  EXPECT_EQ(GC.objectSizeOf(P), 40u)
      << "size queries must report the user-requested size, not the "
         "padded slot";
  EXPECT_TRUE(GC.isAllocated(P));
  std::memset(P, 0x5A, 40); // The full requested range is writable.
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u)
      << "writing the requested range must not touch guard metadata";
  EXPECT_EQ(GC.guardStats().GuardedAllocations, 1u);
  EXPECT_GE(GC.guardStats().GuardSlopBytes,
            GuardLayer::HeaderBytes + GuardLayer::MinRedzoneBytes);
}

TEST(GuardedHeap, RootedObjectsSurviveCollection) {
  Collector GC(guardedConfig());
  std::vector<uint64_t> Window(8, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  Window[0] = reinterpret_cast<uint64_t>(GC.allocate(64));
  Window[1] = reinterpret_cast<uint64_t>(GC.allocate(200));
  GC.allocate(64); // Garbage.
  CollectionStats Cycle = GC.collect("guarded");
  EXPECT_EQ(Cycle.ObjectsLive, 2u);
  EXPECT_TRUE(GC.isAllocated(reinterpret_cast<void *>(Window[0])));
  EXPECT_TRUE(GC.wasMarkedLive(reinterpret_cast<void *>(Window[0])));
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

TEST(GuardedHeap, ObjectBaseResolvesToUserPointer) {
  Collector GC(guardedConfig());
  auto *P = static_cast<char *>(GC.allocate(100));
  EXPECT_EQ(GC.objectBase(P), P);
  EXPECT_EQ(GC.objectBase(P + 60), P)
      << "interior pointers must resolve to the user base, not the "
         "slot base";
}

TEST(GuardedHeap, FreedMemoryIsPoisonedAndQuarantined) {
  Collector GC(guardedConfig());
  auto *P = static_cast<unsigned char *>(GC.allocate(48));
  GC.deallocate(P);
  // The whole slot — including the bytes behind the dangling user
  // pointer — carries the poison fill while parked.
  for (int I = 0; I != 48; ++I)
    EXPECT_EQ(P[I], GuardLayer::PoisonByte);
  EXPECT_EQ(GC.guardStats().GuardedFrees, 1u);
  EXPECT_EQ(GC.guardStats().QuarantineDepth, 1u);
  EXPECT_FALSE(GC.isAllocated(P))
      << "a quarantined object must not answer as allocated";
}

TEST(GuardedHeap, QuarantineIsBoundedAndFlushable) {
  Collector GC(guardedConfig(true, /*QuarantineSlots=*/8));
  std::vector<void *> Ptrs;
  for (int I = 0; I != 20; ++I)
    Ptrs.push_back(GC.allocate(32));
  uint64_t Before = GC.allocatedBytes();
  for (void *P : Ptrs)
    GC.deallocate(P);
  const GcGuardStats &S = GC.guardStats();
  EXPECT_EQ(S.GuardedFrees, 20u);
  EXPECT_EQ(S.QuarantineDepth, 8u) << "the ring must stay bounded";
  EXPECT_EQ(S.QuarantineFlushes, 12u)
      << "overflow must evict (and release) the oldest entries";
  EXPECT_LT(GC.allocatedBytes(), Before)
      << "evicted slots must actually be released";
  GC.flushQuarantine();
  EXPECT_EQ(GC.guardStats().QuarantineDepth, 0u);
  EXPECT_EQ(GC.guardStats().QuarantineFlushes, 20u);
  EXPECT_EQ(GC.guardStats().UseAfterFreeWrites, 0u);
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

TEST(GuardedHeap, CollectionFlushesQuarantineFirst) {
  Collector GC(guardedConfig());
  void *P = GC.allocate(64);
  GC.deallocate(P);
  ASSERT_EQ(GC.guardStats().QuarantineDepth, 1u);
  GC.collect("flush");
  EXPECT_EQ(GC.guardStats().QuarantineDepth, 0u)
      << "every collection must drain the quarantine before sweeping";
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

TEST(GuardedHeap, NonFatalDoubleFreeRaisesIncident) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  void *P = GC.allocateTagged(40, "test-site");
  GC.deallocate(P);
  EXPECT_EQ(GC.lastGuardIncident(), nullptr);
  GC.deallocate(P); // Double free: recorded, not fatal.
  const GcIncident *Incident = GC.lastGuardIncident();
  ASSERT_NE(Incident, nullptr);
  EXPECT_EQ(Incident->Cause, GcIncidentCause::DoubleFree);
  EXPECT_STREQ(Incident->GuardSite, "test-site");
  EXPECT_EQ(Incident->GuardUserBytes, 40u);
  EXPECT_NE(Incident->GuardSeqno, 0u);
  EXPECT_EQ(Incident->GuardAddress, reinterpret_cast<uint64_t>(P));
  EXPECT_EQ(GC.guardStats().DoubleFrees, 1u);
}

TEST(GuardedHeap, NonFatalHeaderSmashReportedAtSweep) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  auto *P = static_cast<char *>(GC.allocateTagged(48, "smashed-here"));
  std::memset(P - 8, 0xCC, 8); // Overwrite the second header word.
  GC.collect("sweep");
  const GcIncident *Incident = GC.lastGuardIncident();
  ASSERT_NE(Incident, nullptr);
  EXPECT_EQ(Incident->Cause, GcIncidentCause::GuardHeaderSmash);
  EXPECT_EQ(GC.guardStats().HeaderSmashes, 1u);
  // The header is gone, so the site cannot be recovered.
  EXPECT_STREQ(Incident->GuardSite, "(untagged)");
}

TEST(GuardedHeap, NonFatalRedzoneSmashKeepsSiteAndSeqno) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  auto *P = static_cast<char *>(GC.allocateTagged(48, "overran-here"));
  P[48] = 1; // One byte past the requested size.
  GC.collect("sweep");
  const GcIncident *Incident = GC.lastGuardIncident();
  ASSERT_NE(Incident, nullptr);
  EXPECT_EQ(Incident->Cause, GcIncidentCause::GuardRedzoneSmash);
  EXPECT_STREQ(Incident->GuardSite, "overran-here");
  EXPECT_EQ(Incident->GuardUserBytes, 48u);
  EXPECT_EQ(GC.guardStats().RedzoneSmashes, 1u);
}

TEST(GuardedHeap, NonFatalUseAfterFreeDetectedAtFlush) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  auto *P = static_cast<char *>(GC.allocateTagged(64, "freed-early"));
  GC.deallocate(P);
  P[10] = 'x'; // Dangling write into the parked slot.
  GC.flushQuarantine();
  const GcIncident *Incident = GC.lastGuardIncident();
  ASSERT_NE(Incident, nullptr);
  EXPECT_EQ(Incident->Cause, GcIncidentCause::QuarantineUseAfterFree);
  EXPECT_STREQ(Incident->GuardSite, "freed-early");
  EXPECT_EQ(GC.guardStats().UseAfterFreeWrites, 1u);
}

TEST(GuardedHeap, ViolationsReportedInSeqnoOrder) {
  // The sweep finds violations in block order; reports must come in
  // allocation (seqno) order.  The younger victim lands in the block the
  // filler opened first, so the two orders disagree.
  Collector GC(guardedConfig(/*Fatal=*/false));
  GC.allocate(256);
  auto *Old = static_cast<char *>(GC.allocateTagged(32, "older"));
  auto *Young = static_cast<char *>(GC.allocateTagged(256, "younger"));
  ASSERT_LT(reinterpret_cast<uintptr_t>(Young),
            reinterpret_cast<uintptr_t>(Old))
      << "the younger victim must sit in the earlier-swept block";
  Old[32] = 1;
  Young[256] = 1;
  GC.collect("sweep");
  EXPECT_EQ(GC.guardStats().RedzoneSmashes, 2u);
  const GcIncident *Last = GC.lastGuardIncident();
  ASSERT_NE(Last, nullptr);
  EXPECT_STREQ(Last->GuardSite, "younger")
      << "the last-reported violation must be the highest seqno";
}

TEST(GuardedHeap, FindLeaksGroupsBySiteDeterministically) {
  Collector GC(guardedConfig());
  std::vector<uint64_t> Window(4, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  Window[0] = reinterpret_cast<uint64_t>(GC.allocateTagged(64, "kept"));
  for (int I = 0; I != 3; ++I)
    GC.allocateTagged(40, "leak-a");
  for (int I = 0; I != 2; ++I)
    GC.allocateTagged(100, "leak-b");
  GC.allocate(24); // Untagged leak.

  GcLeakReport Report = GC.findLeaks();
  EXPECT_EQ(Report.TotalObjects, 6u);
  EXPECT_EQ(Report.TotalBytes, 3u * 40 + 2u * 100 + 24u);
  ASSERT_EQ(Report.Sites.size(), 3u);
  // Site-registration order: untagged (id 0) first, then first-intern.
  EXPECT_STREQ(Report.Sites[0].Site, "(untagged)");
  EXPECT_EQ(Report.Sites[0].Objects, 1u);
  EXPECT_STREQ(Report.Sites[1].Site, "leak-a");
  EXPECT_EQ(Report.Sites[1].Objects, 3u);
  EXPECT_EQ(Report.Sites[1].Bytes, 120u);
  EXPECT_STREQ(Report.Sites[2].Site, "leak-b");
  EXPECT_EQ(Report.Sites[2].Objects, 2u);
  EXPECT_LT(Report.Sites[1].FirstSeqno, Report.Sites[2].FirstSeqno)
      << "leak-a allocations are older";
  EXPECT_EQ(GC.guardStats().LeakedObjects, 6u);
  // The rooted object is not a leak, and find-leaks must not sweep.
  EXPECT_TRUE(GC.isAllocated(reinterpret_cast<void *>(Window[0])));

  // Deterministic: a second pass over the unchanged heap agrees.
  GcLeakReport Again = GC.findLeaks();
  ASSERT_EQ(Again.Sites.size(), Report.Sites.size());
  for (size_t I = 0; I != Report.Sites.size(); ++I) {
    EXPECT_STREQ(Again.Sites[I].Site, Report.Sites[I].Site);
    EXPECT_EQ(Again.Sites[I].Objects, Report.Sites[I].Objects);
    EXPECT_EQ(Again.Sites[I].FirstSeqno, Report.Sites[I].FirstSeqno);
  }
}

namespace {

struct WarnCapture {
  std::vector<std::string> Messages;
  static void proc(const char *Message, uint64_t, void *Self) {
    static_cast<WarnCapture *>(Self)->Messages.push_back(Message);
  }
};

} // namespace

TEST(GuardedHeap, UnguardedBadFreesWarnAndNoOp) {
  // Satellite contract: without DebugGuards a bad cgc_free is a
  // rate-limited warning and a no-op, never UB or an abort.
  GcConfig Config;
  Config.MaxHeapBytes = 16 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Collector GC(Config);
  WarnCapture Capture;
  GC.setWarnProc(WarnCapture::proc, &Capture);

  int Local = 0;
  GC.deallocate(&Local); // Non-heap: occurrence 1, delivered.
  auto *P = static_cast<char *>(GC.allocate(64));
  GC.deallocate(P + 8);  // Interior: occurrence 2, delivered.
  GC.deallocate(&Local); // Occurrence 3: suppressed by the backoff.
  GC.deallocate(P);      // Valid.
  GC.deallocate(P);      // Double free: occurrence 4, delivered.

  ASSERT_EQ(Capture.Messages.size(), 3u)
      << "warnings are delivered on occurrences 1, 2, 4, 8, ...";
  EXPECT_NE(Capture.Messages[0].find("non-heap"), std::string::npos);
  EXPECT_NE(Capture.Messages[1].find("non-object"), std::string::npos);
  EXPECT_NE(Capture.Messages[2].find("double free"), std::string::npos);
  EXPECT_EQ(GC.allocatedBytes(), 0u)
      << "the valid free must have happened; the bad ones must not "
         "have corrupted anything";
  EXPECT_EQ(GC.verifyHeapReport().Findings.size(), 0u);
}

TEST(GuardedHeap, UnguardedBadFreesRaiseStructuredIncidents) {
  // The warnings above are for humans; observers get the structured
  // form: one GcIncident per bad free with a cause that names the
  // misuse class, so the redirect layer (and any embedder) can count
  // and route hostile frees without string-matching warn text.
  GcConfig Config;
  Config.MaxHeapBytes = 16 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Collector GC(Config);

  struct IncidentCapture : GcObserver {
    std::vector<GcIncidentCause> Causes;
    std::vector<uint64_t> Addresses;
    void onIncident(const GcIncident &Incident) override {
      Causes.push_back(Incident.Cause);
      Addresses.push_back(Incident.GuardAddress);
    }
  } Capture;
  GcObserverId Id = GC.addObserver(&Capture);

  int Local = 0;
  GC.deallocate(&Local); // foreign
  auto *P = static_cast<char *>(GC.allocate(64));
  GC.deallocate(P + 8); // interior
  GC.deallocate(P);     // valid: no incident
  GC.deallocate(P);     // double free

  ASSERT_EQ(Capture.Causes.size(), 3u);
  EXPECT_EQ(Capture.Causes[0], GcIncidentCause::ForeignFree);
  EXPECT_EQ(Capture.Causes[1], GcIncidentCause::InvalidFree);
  EXPECT_EQ(Capture.Causes[2], GcIncidentCause::DoubleFree);
  EXPECT_EQ(Capture.Addresses[0], reinterpret_cast<uint64_t>(&Local));
  EXPECT_EQ(Capture.Addresses[1], reinterpret_cast<uint64_t>(P + 8));

  // Client misuse must not masquerade as a guard violation: the
  // guarded heap's incident latch stays clear in unguarded mode.
  EXPECT_EQ(GC.lastGuardIncident(), nullptr);
  GC.removeObserver(Id);
}

TEST(GuardedHeap, FinalizersRunOnGuardedObjects) {
  Collector GC(guardedConfig());
  int Ran = 0;
  void *Observed = nullptr;
  void *P = GC.allocate(80);
  GC.registerFinalizer(P, [&](void *Obj) {
    ++Ran;
    Observed = Obj;
  });
  void *Expected = P;
  P = nullptr;
  GC.collect("doom");
  EXPECT_EQ(GC.runFinalizers(), 1u);
  EXPECT_EQ(Ran, 1);
  EXPECT_EQ(Observed, Expected)
      << "the finalizer must see the user pointer, not the slot base";
}

TEST(GuardedHeap, CrashReportCarriesGuardState) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  void *P = GC.allocateTagged(32, "crash-site");
  GC.deallocate(P);
  GC.deallocate(P); // Non-fatal double free to populate last-violation.

  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  crash::dump(Fds[1]);
  ::close(Fds[1]);
  std::string Report;
  char Buffer[4096];
  ssize_t N;
  while ((N = ::read(Fds[0], Buffer, sizeof(Buffer))) > 0)
    Report.append(Buffer, static_cast<size_t>(N));
  ::close(Fds[0]);

  EXPECT_NE(Report.find("guards: violations=1"), std::string::npos)
      << Report;
  EXPECT_NE(Report.find("last-violation: double free"), std::string::npos);
  EXPECT_NE(Report.find("site=crash-site"), std::string::npos);
}

TEST(GuardedHeap, CApiRoundTripAndDebugCalls) {
  cgc_config Config;
  cgc_config_init(&Config);
  EXPECT_EQ(Config.debug_guards, 0);
  EXPECT_EQ(Config.guard_fatal, 1);
  EXPECT_EQ(Config.quarantine_slots, 256u);
  Config.debug_guards = 1;
  Config.guard_fatal = 0;
  Config.quarantine_slots = 16;
  Config.max_heap_bytes = 16 << 20;
  Config.min_heap_bytes_before_gc = ~0ull;
  cgc_collector *GC = cgc_create(&Config);

  cgc_config Resolved;
  cgc_current_config(GC, &Resolved);
  EXPECT_EQ(Resolved.debug_guards, 1);
  EXPECT_EQ(Resolved.guard_fatal, 0);
  EXPECT_EQ(Resolved.quarantine_slots, 16u);

  void *Tagged = CGC_MALLOC_SITE(GC, 40);
  ASSERT_NE(Tagged, nullptr);
  void *Freed = cgc_debug_malloc(GC, 32, "freed-site");
  cgc_free(GC, Freed);

  cgc_guard_stats Stats;
  ASSERT_EQ(cgc_debug_get_stats(GC, &Stats), 1);
  EXPECT_EQ(Stats.guarded_allocations, 2u);
  EXPECT_EQ(Stats.guarded_frees, 1u);
  EXPECT_EQ(Stats.quarantine_depth, 1u);
  cgc_debug_flush_quarantine(GC);
  ASSERT_EQ(cgc_debug_get_stats(GC, &Stats), 1);
  EXPECT_EQ(Stats.quarantine_depth, 0u);

  struct Leak {
    std::string Site;
    unsigned long long Objects;
  };
  std::vector<Leak> Leaks;
  unsigned long long Total = cgc_debug_find_leaks(
      GC,
      [](const char *Site, unsigned long long Objects, unsigned long long,
         unsigned long long, void *User) {
        static_cast<std::vector<Leak> *>(User)->push_back(
            Leak{Site, Objects});
      },
      &Leaks);
  EXPECT_EQ(Total, 1u); // Tagged leaked; Freed was explicitly freed.
  ASSERT_EQ(Leaks.size(), 1u);
  EXPECT_NE(Leaks[0].Site.find("TestGuardedHeap.cpp"), std::string::npos)
      << "CGC_MALLOC_SITE must tag with file:line";
  EXPECT_EQ(Leaks[0].Objects, 1u);
  cgc_destroy(GC);

  // Without guards the debug calls are inert, not fatal.
  cgc_config Plain;
  cgc_config_init(&Plain);
  Plain.max_heap_bytes = 16 << 20;
  cgc_collector *Unguarded = cgc_create(&Plain);
  EXPECT_EQ(cgc_debug_get_stats(Unguarded, &Stats), 0);
  EXPECT_EQ(Stats.guarded_allocations, 0u);
  EXPECT_EQ(cgc_debug_find_leaks(Unguarded, nullptr, nullptr), 0u);
  cgc_debug_flush_quarantine(Unguarded);
  cgc_destroy(Unguarded);
}

TEST(GuardedHeap, LargeObjectsAreGuardedToo) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  auto *P = static_cast<char *>(GC.allocateTagged(3 * PageSize, "large"));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(GC.objectSizeOf(P), 3u * PageSize);
  P[3 * PageSize] = 1; // First redzone byte of the padded large run.
  GC.collect("sweep");
  const GcIncident *Incident = GC.lastGuardIncident();
  ASSERT_NE(Incident, nullptr);
  EXPECT_EQ(Incident->Cause, GcIncidentCause::GuardRedzoneSmash);
  EXPECT_STREQ(Incident->GuardSite, "large");
}

TEST(GuardedHeap, VerifierFlagsSmashWithoutCollecting) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  auto *P = static_cast<char *>(GC.allocate(32));
  P[32] = 7;
  HeapVerifyReport Report = GC.verifyHeapReport();
  ASSERT_EQ(Report.Findings.size(), 1u);
  EXPECT_NE(Report.Findings[0].Message.find("guard redzone smashed"),
            std::string::npos);
  // The verifier is read-only: no incident, no counter movement.
  EXPECT_EQ(GC.lastGuardIncident(), nullptr);
  EXPECT_EQ(GC.guardStats().RedzoneSmashes, 0u);
}

// One client view: every query, walk and callback shows an object as
// allocate() handed it out — a guarded untyped object by its user
// pointer and requested size, a typed object (no header) by its base
// and slot size — and a quarantined object or an interior pointer as
// no object at all.
TEST(GuardedHeap, EveryQueryAgreesOnTheClientView) {
  Collector GC(guardedConfig(/*Fatal=*/false));
  LayoutId Layout = GC.registerObjectLayout({true, false, true, false}, 32);
  auto *Small = static_cast<char *>(GC.allocateTagged(40, "small"));
  void *Typed = GC.allocateTyped(Layout);
  void *Large = GC.allocateTagged(3 * PageSize, "large");
  void *Parked = GC.allocateTagged(48, "parked");
  GC.deallocate(Parked);
  const ObjectHeap &Heap = GC.objectHeap();
  size_t TypedBytes = Heap.sizeClassBytes(Heap.sizeClassFor(32));

  struct Row {
    const char *Name;
    void *Query;
    void *Base;   // objectBase(Query)
    size_t Bytes; // 0 when Query names no object
  };
  const Row Rows[] = {
      {"guarded", Small, Small, 40},
      {"typed", Typed, Typed, TypedBytes},
      {"large", Large, Large, 3 * PageSize},
      {"quarantined", Parked, nullptr, 0},
      {"interior", Small + 8, Small, 0},
  };
  auto Listed = [](const std::map<void *, size_t> &Seen, void *P) {
    auto It = Seen.find(P);
    return It == Seen.end() ? size_t(0) : It->second;
  };

  std::vector<uint64_t> Roots;
  for (const Row &R : Rows)
    if (R.Bytes != 0)
      Roots.push_back(reinterpret_cast<uint64_t>(R.Query));
  GC.addRootRange(Roots.data(), Roots.data() + Roots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
  // A census, not a collection: the parked object stays quarantined.
  GC.measureLiveness();
  std::map<void *, size_t> Walked;
  GC.forEachObject([&](void *P, size_t Bytes, ObjectKind) {
    Walked[P] = Bytes;
  });
  EXPECT_EQ(Walked.size(), 3u);
  for (const Row &R : Rows) {
    SCOPED_TRACE(R.Name);
    bool Object = R.Bytes != 0;
    EXPECT_EQ(GC.objectBase(R.Query), R.Base);
    EXPECT_EQ(GC.objectSizeOf(R.Query), R.Bytes);
    EXPECT_EQ(GC.isAllocated(R.Query), Object);
    EXPECT_EQ(GC.wasMarkedLive(R.Query), Object);
    EXPECT_EQ(Listed(Walked, R.Query), R.Bytes);
    if (Object)
      GC.registerFinalizer(R.Query, [](void *) {});
    EXPECT_EQ(GC.unregisterFinalizer(R.Query), Object);
  }

  // A finalizer registered through the client pointer runs on it.
  std::map<void *, size_t> Finalized;
  for (const Row &R : Rows)
    if (R.Bytes != 0)
      GC.registerFinalizer(R.Query, [&Finalized, Bytes = R.Bytes](void *P) {
        Finalized[P] = Bytes;
      });
  std::fill(Roots.begin(), Roots.end(), 0);
  GC.collect("finalize");
  GC.runFinalizers();
  for (const Row &R : Rows)
    EXPECT_EQ(Listed(Finalized, R.Query), R.Bytes) << R.Name;

  // findLeaks reports the guarded objects by site and requested size.
  GcLeakReport Leaks = GC.findLeaks();
  std::map<std::string, uint64_t> LeakedBySite;
  for (const GcLeakSite &Site : Leaks.Sites)
    LeakedBySite[Site.Site] = Site.Bytes;
  EXPECT_EQ(LeakedBySite, (std::map<std::string, uint64_t>{
                              {"small", 40}, {"large", 3 * PageSize}}));

  std::map<void *, size_t> Leaked;
  GC.setLeakCallback([&](void *P, size_t Bytes, ObjectKind) {
    Leaked[P] = Bytes;
  });
  GC.collect("leaks");
  EXPECT_EQ(Leaked.size(), 3u);
  for (const Row &R : Rows)
    EXPECT_EQ(Listed(Leaked, R.Query), R.Bytes) << R.Name;

  // Tagged and ignore-off-page requests never go through a thread
  // cache, guarded or not; only a plain request refills one.
  struct RefillCounter : GcObserver {
    void onThreadCacheRefill(unsigned, unsigned) override { ++Refills; }
    unsigned Refills = 0;
  } Counter;
  GcConfig Plain = guardedConfig();
  Plain.DebugGuards = false;
  Collector Threaded(Plain);
  Threaded.addObserver(&Counter);
  GcThreadScope Scope(Threaded);
  ASSERT_TRUE(Scope.registered());
  EXPECT_NE(Threaded.allocateTagged(40, "tagged"), nullptr);
  EXPECT_NE(Threaded.allocateIgnoreOffPage(40), nullptr);
  EXPECT_EQ(Counter.Refills, 0u);
  EXPECT_NE(Threaded.allocate(40), nullptr);
  EXPECT_EQ(Counter.Refills, 1u);
}
