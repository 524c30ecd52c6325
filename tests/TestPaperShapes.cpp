//===- tests/TestPaperShapes.cpp - Quick gates on the paper's shapes ------===//
//
// Reduced-cost assertions of two EXPERIMENTS.md shapes: E2 (Figure 1,
// adjacent small integers misread as heap addresses) and E4
// (observation 7, large objects under blacklist pressure).  The full
// experiments are bench_fig1_alignment and bench_large_alloc.  E1 is
// gated by TestTable1Integration, E5 by ListReversal.ApparentLiveOrdering
// and E6 by the Grid tests.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "sim/PlatformProfile.h"
#include "sim/SyntheticSegments.h"
#include <gtest/gtest.h>

using namespace cgc;
using namespace cgc::sim;

namespace {

/// Objects misidentified by Figure 1's data — 20k adjacent small
/// integers, big-endian 32-bit words — scanned at \p Alignment bytes
/// against ~20 MiB of standalone 16-byte objects in a heap at 0x80000.
uint64_t figure1Hits(unsigned Alignment, bool AvoidTrailingZeros) {
  GcConfig Config;
  Config.MaxHeapBytes = uint64_t(24) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Config.Blacklist = BlacklistMode::Off;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 0x80000;
  Config.RootScanAlignment = Alignment;
  Config.AvoidTrailingZeroAddresses = AvoidTrailingZeros;
  Collector GC(Config);
  for (uint64_t Used = 0; Used < (uint64_t(20) << 20); Used += 16)
    EXPECT_NE(GC.allocate(16), nullptr);

  Rng R(7);
  Segment SmallInts;
  appendIntTable(SmallInts, {20000, 4096, 0.0, 0.0}, R, /*BigEndian=*/true);
  GC.addRootRange(SmallInts.data(), SmallInts.data() + SmallInts.size(),
                  RootEncoding::Window32BE, RootSource::StaticData, "fig1");
  return GC.measureLiveness().ObjectsMarked;
}

/// The largest object, in pages, the allocator places on a SPARC-static
/// heap with four times the usual table pollution without breaking the
/// blacklist constraint.  A request only the exhaustion ladder's
/// emergency rung can satisfy (it accepts blacklisted pages) counts as
/// not placed.
uint64_t largestPlacedPages(InteriorPolicy Interior) {
  PlatformSpec Spec = specFor(Platform::SparcStatic, /*Optimized=*/false);
  Spec.Tables.Words *= 4;
  GcConfig Config = configFor(Spec, BlacklistMode::FlatBitmap);
  Config.Interior = Interior;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Collector GC(Config);
  SimEnvironment Env(GC, Spec, /*Seed=*/1);
  // The startup collection fills the blacklist; then commit a heap.
  for (int I = 0; I != 4096; ++I)
    GC.allocate(8);
  GC.collect("settle");

  uint64_t LoPages = 0, HiPages = Config.MaxHeapBytes / PageSize;
  while (LoPages + 1 < HiPages) {
    uint64_t MidPages = (LoPages + HiPages) / 2;
    uint64_t Emergencies = GC.resilienceStats().EmergencyCollections;
    void *P = GC.allocate(MidPages * PageSize - 64);
    bool Placed =
        P && GC.resilienceStats().EmergencyCollections == Emergencies;
    if (P)
      GC.deallocate(P);
    (Placed ? LoPages : HiPages) = MidPages;
  }
  return LoPages;
}

} // namespace

TEST(PaperShapes, Figure1HalfWordScanningMisidentifiesSmallIntegers) {
  EXPECT_EQ(figure1Hits(4, false), 0u)
      << "small integers are not heap addresses at word alignment";
  EXPECT_GT(figure1Hits(2, false), 0u)
      << "half-word scanning must manufacture Figure 1's concatenations";
  EXPECT_EQ(figure1Hits(2, true), 0u)
      << "the concatenations end in 16 zero bits, which trailing-zero "
         "avoidance never hands out";
}

TEST(PaperShapes, Observation7AllInteriorCapsLargeObjects) {
  uint64_t All = largestPlacedPages(InteriorPolicy::All);
  uint64_t FirstPage = largestPlacedPages(InteriorPolicy::FirstPage);
  EXPECT_GT(All, 0u);
  EXPECT_LT(All * 8, FirstPage)
      << "all interior pointers valid: " << All * PageSize / 1024
      << " KiB; first page only: " << FirstPage * PageSize / 1024 << " KiB";
}
