//===- tests/TestCorruption.cpp - Corruption containment tests ------------===//
//
// Negative-path coverage for the corruption-containment ladder: every
// injectable metadata-corruption class must be detected by the
// mid-collection verifier, the cycle abandoned and retried after an
// in-place repair, and the retained set preserved; under the default
// RepairFatal the same detection aborts instead.  Also covers the
// verifier's finding cap/dedup policy, sealed-metadata digest identity
// against the unsealed collector, resealing after a census, and SIGSEGV
// wild-write containment.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcIncident.h"
#include "heap/BlockTable.h"
#include "heap/HeapVerifier.h"
#include "heap/ObjectHeap.h"
#include "support/FaultInjection.h"
#include "support/MetadataArena.h"
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <vector>

using namespace cgc;

// The wild-write test takes a recoverable SIGSEGV through mprotect'd
// pages; sanitizer runtimes own the SEGV handler and misreport it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CGC_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CGC_UNDER_SANITIZER 1
#endif
#endif

namespace {

/// Disarms every fault site when a test exits, pass or fail, so one
/// test's armed faults never leak into the next.
struct FaultGuard {
  FaultGuard() { FaultInjector::instance().disarmAll(); }
  ~FaultGuard() { FaultInjector::instance().disarmAll(); }
};

/// The containment configuration under test: per-phase verification
/// with the repair ladder engaged instead of the historical abort.
GcConfig containedConfig() {
  GcConfig Config;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.VerifyEveryCollection = true;
  Config.RepairFatal = false;
  return Config;
}

/// Builds a rooted linked list of \p Count three-word nodes holding
/// 0..Count-1 in their value slots; Window[Root] anchors the head.
/// Two size classes (alternating 3- and 6-word nodes) so several lanes
/// list partial blocks for the free-list faults to smash.
void buildRootedList(Collector &GC, std::vector<uint64_t> &Window,
                     size_t Root, size_t Count) {
  void *Prev = nullptr;
  for (size_t I = 0; I != Count; ++I) {
    size_t Words = (I % 2) ? 6 : 3;
    void **Node = static_cast<void **>(GC.allocate(Words * sizeof(void *)));
    ASSERT_NE(Node, nullptr);
    Node[0] = Prev;
    Node[1] = reinterpret_cast<void *>(I);
    Prev = Node;
  }
  Window[Root] = reinterpret_cast<uint64_t>(Prev);
}

/// Sum of the value slots reachable from Window[Root]; the workload's
/// integrity check after a repaired collection.
uint64_t listSum(const std::vector<uint64_t> &Window, size_t Root) {
  uint64_t Sum = 0;
  for (void **Node = reinterpret_cast<void **>(Window[Root]); Node;
       Node = static_cast<void **>(Node[0]))
    Sum += reinterpret_cast<uint64_t>(Node[1]);
  return Sum;
}

/// Window offsets of every live object — the retained set in a
/// collector-address-independent form.
std::set<uint64_t> retainedOffsets(Collector &GC) {
  std::set<uint64_t> Offsets;
  GC.forEachObject([&](void *Ptr, size_t, ObjectKind) {
    Offsets.insert(GC.windowOffsetOf(Ptr));
  });
  return Offsets;
}

/// Drives one injected-corruption cycle end to end: baseline clean
/// collection, arm \p Site, corrupt collection (detected -> abandoned
/// -> repaired -> retried), then asserts the ladder's counters, the
/// post-repair clean verify, and the workload's integrity.
void runInjectedCorruption(FaultSite Site,
                           uint64_t GcRepairStats::*RepairedCounter) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  FaultGuard Guard;

  Collector GC(containedConfig());
  std::vector<uint64_t> Window(4, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 0, 64);
  buildRootedList(GC, Window, 1, 64);
  const uint64_t ExpectedSum = 64 * 63 / 2;

  // Baseline: a clean collection lists the partial blocks the free-list
  // faults need and proves the workload verifies.
  GC.collect("baseline");
  ASSERT_EQ(GC.repairStats().CollectionsRetried, 0u);
  ASSERT_TRUE(GC.verifyHeapReport().clean());
  std::set<uint64_t> Retained = retainedOffsets(GC);

  FaultInjector::instance().arm(Site, 0, 1);
  GC.collect("corrupt");
  FaultInjector::instance().disarmAll();
  ASSERT_EQ(FaultInjector::instance().stats(Site).Fired, 1u)
      << "the corruption must actually have been injected";

  GcRepairStats Stats = GC.repairStats();
  EXPECT_EQ(Stats.CollectionsRetried, 1u)
      << "corrupt cycle abandoned and retried exactly once";
  EXPECT_GE(Stats.VerifyRepairsRun, 1u);
  EXPECT_GE(Stats.FindingsRepaired + Stats.BlocksQuarantined, 1u);
  EXPECT_GE(Stats.*RepairedCounter, 1u);
  EXPECT_FALSE(Stats.DegradedMode)
      << "a repairable corruption must not degrade the collector";

  // The repaired heap verifies clean and the retained set is intact.
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  EXPECT_EQ(listSum(Window, 0), ExpectedSum);
  EXPECT_EQ(listSum(Window, 1), ExpectedSum);
  EXPECT_EQ(retainedOffsets(GC), Retained)
      << "repair must not change which objects are retained";

  // And the collector keeps collecting normally afterwards.
  GC.collect("post-repair");
  EXPECT_EQ(GC.repairStats().CollectionsRetried, 1u);
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  EXPECT_EQ(listSum(Window, 0), ExpectedSum);
}

} // namespace

//===----------------------------------------------------------------------===//
// One negative-path test per injectable corruption class
//===----------------------------------------------------------------------===//

TEST(Corruption, SmashedHeaderDetectedAndRepaired) {
  runInjectedCorruption(FaultSite::MetadataHeaderFlip,
                        &GcRepairStats::CountersResynced);
}

TEST(Corruption, BrokenFreeListLinkDetectedAndRepaired) {
  runInjectedCorruption(FaultSite::MetadataFreeListSmash,
                        &GcRepairStats::FreeListRebuilds);
}

TEST(Corruption, StalePageMapEntryDetectedAndRepaired) {
  runInjectedCorruption(FaultSite::MetadataPageMapClobber,
                        &GcRepairStats::PageMapRederivations);
}

TEST(Corruption, AllocBitDisagreementDetectedAndRepaired) {
  runInjectedCorruption(FaultSite::MetadataAllocBitFlip,
                        &GcRepairStats::CountersResynced);
}

// Under the default RepairFatal the per-phase verifier does not repair:
// it prints its report and aborts.
TEST(CorruptionDeath, PerPhaseVerifierAbortsUnderRepairFatal) {
  if (!FaultInjectionCompiled)
    GTEST_SKIP() << "built without CGC_FAULT_INJECTION";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FaultGuard Guard;
  EXPECT_DEATH(
      {
        GcConfig Config = containedConfig();
        Config.RepairFatal = true;
        Collector GC(Config);
        std::vector<uint64_t> Window(1, 0);
        GC.addRootRange(Window.data(), Window.data() + Window.size(),
                        RootEncoding::Native64, RootSource::Client,
                        "window");
        buildRootedList(GC, Window, 0, 64);
        GC.collect("baseline");
        FaultInjector::instance().arm(FaultSite::MetadataHeaderFlip, 0, 1);
        GC.collect("corrupt");
      },
      "cgc heap verification failed after phase [a-z-]+ \\([0-9]+ "
      "issues\\):");
}

//===----------------------------------------------------------------------===//
// Finding cap and dedup policy
//===----------------------------------------------------------------------===//

TEST(Corruption, VerifierReportDeduplicatesPerKindAndPage) {
  HeapVerifyReport Report;
  Report.record(VerifyFindingKind::PageMapStale, 1, 7, "first");
  Report.record(VerifyFindingKind::PageMapStale, 2, 7, "same page, dropped");
  Report.record(VerifyFindingKind::PageMapStale, 1, 8, "other page, kept");
  Report.record(VerifyFindingKind::FreeListBroken, 1, 7, "other kind, kept");
  EXPECT_EQ(Report.Findings.size(), 3u);
  EXPECT_EQ(Report.Deduplicated, 1u);
  EXPECT_EQ(Report.Truncated, 0u);

  // Generic findings are heterogeneous collector-level notes; they all
  // share (Generic, 0) and must never dedup against each other.
  Report.note("generic one");
  Report.note("generic two");
  EXPECT_EQ(Report.Findings.size(), 5u);
  EXPECT_EQ(Report.Deduplicated, 1u);
}

TEST(Corruption, VerifierReportCapsFindingsAndCountsTruncation) {
  HeapVerifyReport Report;
  const uint64_t Flood = HeapVerifyReport::MaxFindings + 300;
  for (uint64_t Page = 0; Page != Flood; ++Page)
    Report.record(VerifyFindingKind::FreeRunBroken, InvalidBlockId,
                  Page + 100, "flood");
  EXPECT_EQ(Report.Findings.size(), HeapVerifyReport::MaxFindings);
  EXPECT_EQ(Report.Truncated, 300u);
  EXPECT_EQ(Report.Deduplicated, 0u);
  // Dedup still applies past the cap: a repeat of a recorded (kind,
  // page) counts as a duplicate, not another truncation.
  Report.record(VerifyFindingKind::FreeRunBroken, InvalidBlockId, 100,
                "repeat");
  EXPECT_EQ(Report.Deduplicated, 1u);
  EXPECT_EQ(Report.Truncated, 300u);
}

//===----------------------------------------------------------------------===//
// Sealed metadata: digest identity and wild-write containment
//===----------------------------------------------------------------------===//

namespace {

/// Runs a deterministic workload (rooted lists, garbage churn, an
/// explicit free, three collections) and folds the retained set and
/// heap counters into an FNV-1a digest.
uint64_t workloadDigest(bool Sealed) {
  GcConfig Config;
  Config.MaxHeapBytes = 32 << 20;
  Config.GcAtStartup = false;
  Config.SealMetadata = Sealed;
  Collector GC(Config);

  std::vector<uint64_t> Window(4, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 0, 200);
  buildRootedList(GC, Window, 1, 200);
  for (int I = 0; I != 300; ++I)
    GC.allocate(64); // Garbage.
  GC.collect("first");
  Window[1] = 0; // Drop one list.
  for (int I = 0; I != 100; ++I)
    GC.allocate(96); // More garbage.
  GC.collect("second");
  void *Freed = GC.allocate(128);
  GC.deallocate(Freed);
  GC.collect("third");

  uint64_t Digest = 0xcbf29ce484222325ull;
  auto Fold = [&Digest](uint64_t Value) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      Digest ^= (Value >> (Byte * 8)) & 0xff;
      Digest *= 0x100000001b3ull;
    }
  };
  for (uint64_t Offset : retainedOffsets(GC))
    Fold(Offset);
  Fold(GC.allocatedBytes());
  Fold(GC.lifetimeStats().Collections);
  return Digest;
}

} // namespace

// Sealing must be invisible to collection results: on an uncorrupted
// heap the sealed collector's retained set is bit-identical to the
// unsealed one's.
TEST(Corruption, SealedCollectionsDigestIdenticalToUnsealed) {
  EXPECT_EQ(workloadDigest(true), workloadDigest(false));
}

// Sealed-mode accounting: the seal/unseal transitions show up in the
// repair stats, and an uncorrupted sealed run never repairs anything.
TEST(Corruption, SealedModeCountsTransitionsOnly) {
  GcConfig Config = containedConfig();
  Config.SealMetadata = true;
  Collector GC(Config);
  std::vector<uint64_t> Window(2, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 0, 32);
  GC.collect("sealed-clean");
  GC.collect("sealed-clean-2");
  GcRepairStats Stats = GC.repairStats();
  EXPECT_GE(Stats.SealTransitions, 2u);
  EXPECT_EQ(Stats.MetadataWildWrites, 0u);
  EXPECT_EQ(Stats.CollectionsRetried, 0u);
  EXPECT_EQ(Stats.VerifyRepairsRun, 0u);
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// A census unseals the metadata as a collection does, and seals it
// again when its session ends: two transitions, not one that leaves
// wild writes uncaught until the next collection.
TEST(Corruption, CensusResealsMetadata) {
  GcConfig Config = containedConfig();
  Config.SealMetadata = true;
  Collector GC(Config);
  std::vector<uint64_t> Window(2, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 0, 32);
  GC.collect("sealed");
  uint64_t Sealed = GC.repairStats().SealTransitions;
  EXPECT_GE(GC.measureLiveness().ObjectsMarked, 32u);
  EXPECT_EQ(GC.repairStats().SealTransitions, Sealed + 2)
      << "the census left the metadata unsealed";
}

namespace {

/// Captures incident dispatches for the wild-write test.
struct IncidentCapture final : GcObserver {
  void onIncident(const GcIncident &Incident) override {
    ++Count;
    Cause = Incident.Cause;
    if (Incident.MetadataRegion)
      Region = Incident.MetadataRegion;
    Address = Incident.MetadataAddress;
  }
  unsigned Count = 0;
  GcIncidentCause Cause = GcIncidentCause::RetentionStorm;
  std::string Region;
  uint64_t Address = 0;
};

} // namespace

// A wild store into sealed metadata must be caught by the SIGSEGV
// sub-handler, let through (the store retries and lands), and then be
// attributed, reported as a MetadataWildWrite incident, and repaired
// at the collector's next entry — never crashing the process.
TEST(Corruption, WildWriteToSealedMetadataContainedAndRepaired) {
#ifdef CGC_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes own the SIGSEGV disposition";
#else
  GcConfig Config = containedConfig();
  Config.SealMetadata = true;
  Collector GC(Config);
  IncidentCapture Incidents;
  GcObserverId IncidentId = GC.addObserver(&Incidents);

  std::vector<uint64_t> Window(2, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  buildRootedList(GC, Window, 0, 64);
  const uint64_t ExpectedSum = 64 * 63 / 2;
  GC.collect("seal"); // Re-seals the arena on the way out.

  // Locate a live block descriptor — arena-backed metadata — and
  // scribble on it the way a buggy C mutator would.
  void *Head = reinterpret_cast<void *>(Window[0]);
  ObjectRef Ref = GC.objectHeap().refForBase(GC.windowOffsetOf(Head));
  ASSERT_TRUE(Ref.valid());
  BlockDescriptor &Block = GC.objectHeap().blockTable().get(Ref.Block);
  ASSERT_TRUE(MetadataArena::anyArenaContains(&Block.AllocatedCount))
      << "sealed-mode descriptors must live in the metadata arena";
  Block.AllocatedCount ^= 1; // SIGSEGV: contained, then the store lands.

  // The next collection entry drains the wild-write ring: attribution,
  // incident, repair — and the cycle itself completes clean.
  GC.collect("service");
  EXPECT_EQ(Incidents.Count, 1u);
  EXPECT_EQ(Incidents.Cause, GcIncidentCause::MetadataWildWrite);
  EXPECT_EQ(Incidents.Region, "block-table");
  EXPECT_EQ(Incidents.Address,
            reinterpret_cast<uint64_t>(&Block.AllocatedCount));

  GcRepairStats Stats = GC.repairStats();
  EXPECT_EQ(Stats.MetadataWildWrites, 1u);
  EXPECT_GE(Stats.VerifyRepairsRun, 1u);
  EXPECT_FALSE(Stats.DegradedMode);
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  EXPECT_EQ(listSum(Window, 0), ExpectedSum);
  GC.removeObserver(IncidentId);
#endif
}
