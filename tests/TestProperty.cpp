//===- tests/TestProperty.cpp - Parameterized property tests --------------===//
//
// Property sweeps across the collector's configuration matrix.  The
// central invariant: with no misidentification sources present, a
// conservative collection behaves *exactly* like a precise one — the
// set of surviving objects equals the pointer-reachability closure
// computed by a shadow oracle, under every combination of interior
// policy, blacklist mode, and page-layout option.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "support/Random.h"
#include <cstring>
#include <gtest/gtest.h>
#include <set>
#include <tuple>
#include <vector>

using namespace cgc;

namespace {

struct ConfigPoint {
  InteriorPolicy Interior;
  BlacklistMode Blacklist;
  bool AvoidTrailingZeros;
  /// Always true: the collector has one block order, lowest address
  /// first.  The field stays so that each point's printed parameter,
  /// and so its test id, is unchanged.
  bool AddressOrdered;
  /// Always false: the collector cannot tell a free slot from an
  /// allocated one, so a false reference to a free slot pins it.  The
  /// field stays so that each point's printed parameter, and so its
  /// test id, is unchanged.
  bool PreciseFreeSlots;
};

std::string configName(const ::testing::TestParamInfo<ConfigPoint> &Info) {
  const ConfigPoint &P = Info.param;
  std::string Name;
  switch (P.Interior) {
  case InteriorPolicy::All:
    Name += "IntAll";
    break;
  case InteriorPolicy::FirstPage:
    Name += "IntFirstPage";
    break;
  case InteriorPolicy::BaseOnly:
    Name += "IntBase";
    break;
  }
  switch (P.Blacklist) {
  case BlacklistMode::Off:
    Name += "_BlOff";
    break;
  case BlacklistMode::FlatBitmap:
    Name += "_BlFlat";
    break;
  case BlacklistMode::Hashed:
    Name += "_BlHash";
    break;
  }
  Name += P.AvoidTrailingZeros ? "_Tz" : "_NoTz";
  Name += "_Ao_Lax";
  return Name;
}

GcConfig makeConfig(const ConfigPoint &P) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = 16 << 20;
  Config.MaxHeapBytes = 64 << 20;
  Config.Interior = P.Interior;
  Config.Blacklist = P.Blacklist;
  Config.AvoidTrailingZeroAddresses = P.AvoidTrailingZeros;
  Config.GcAtStartup = true;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

class ConfigMatrixTest : public ::testing::TestWithParam<ConfigPoint> {};

/// A random object graph with a host-side shadow: node I has out-edges
/// Shadow[I], objects hold real pointers at aligned offsets plus
/// integer noise that cannot alias the window.
struct RandomGraph {
  static constexpr unsigned MaxEdges = 6;

  RandomGraph(Collector &GC, Rng &R, unsigned NumNodes, bool MixedSizes) {
    Nodes.resize(NumNodes);
    Shadow.resize(NumNodes);
    for (unsigned I = 0; I != NumNodes; ++I) {
      size_t Slots = MixedSizes ? R.nextInRange(MaxEdges + 1, 64)
                                : MaxEdges + 1;
      Nodes[I] = static_cast<uint64_t *>(
          GC.allocate(Slots * sizeof(uint64_t)));
      CGC_CHECK(Nodes[I], "graph allocation failed");
      // Fill with integer noise; the shadow edges overwrite a prefix.
      for (size_t S = 0; S != Slots; ++S)
        Nodes[I][S] = R.nextBelow(1 << 20);
    }
    for (unsigned I = 0; I != NumNodes; ++I) {
      unsigned Edges = static_cast<unsigned>(R.nextBelow(MaxEdges + 1));
      for (unsigned E = 0; E != Edges; ++E) {
        unsigned Target = static_cast<unsigned>(R.pickIndex(NumNodes));
        Shadow[I].push_back(Target);
        Nodes[I][E] = reinterpret_cast<uint64_t>(Nodes[Target]);
      }
      // Unused edge slots must not hold stale noise that could alias:
      // zero them (a GC-aware program clears dead pointer fields).
      for (unsigned E = Edges; E != MaxEdges; ++E)
        Nodes[I][E] = 0;
    }
  }

  std::set<unsigned> reachableFrom(const std::vector<unsigned> &Roots) {
    std::set<unsigned> Seen;
    std::vector<unsigned> Work(Roots);
    while (!Work.empty()) {
      unsigned Node = Work.back();
      Work.pop_back();
      if (!Seen.insert(Node).second)
        continue;
      for (unsigned Target : Shadow[Node])
        Work.push_back(Target);
    }
    return Seen;
  }

  std::vector<uint64_t *> Nodes;
  std::vector<std::vector<unsigned>> Shadow;
};

} // namespace

TEST_P(ConfigMatrixTest, ConservativeMatchesPreciseReachability) {
  Collector GC(makeConfig(GetParam()));
  Rng R(0xC0FFEE);
  constexpr unsigned NumNodes = 400;
  RandomGraph Graph(GC, R, NumNodes, /*MixedSizes=*/true);

  // Pick random roots, expose them through a root range.
  std::vector<unsigned> RootNodes;
  std::vector<uint64_t> RootSlots;
  for (unsigned I = 0; I != 12; ++I)
    RootNodes.push_back(static_cast<unsigned>(R.pickIndex(NumNodes)));
  for (unsigned Node : RootNodes)
    RootSlots.push_back(reinterpret_cast<uint64_t>(Graph.Nodes[Node]));
  GC.addRootRange(RootSlots.data(),
                  RootSlots.data() + RootSlots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");

  std::set<unsigned> Expected = Graph.reachableFrom(RootNodes);
  CollectionStats Cycle = GC.collect();

  EXPECT_EQ(Cycle.ObjectsLive, Expected.size());
  for (unsigned I = 0; I != NumNodes; ++I)
    EXPECT_EQ(GC.wasMarkedLive(Graph.Nodes[I]), Expected.count(I) != 0)
        << "node " << I;
}

TEST_P(ConfigMatrixTest, RepeatedCollectionsAreStable) {
  Collector GC(makeConfig(GetParam()));
  Rng R(0xBEEF);
  RandomGraph Graph(GC, R, 200, /*MixedSizes=*/false);
  std::vector<uint64_t> RootSlots{
      reinterpret_cast<uint64_t>(Graph.Nodes[0]),
      reinterpret_cast<uint64_t>(Graph.Nodes[100])};
  GC.addRootRange(RootSlots.data(), RootSlots.data() + RootSlots.size(),
                  RootEncoding::Native64, RootSource::Client, "roots");
  uint64_t FirstLive = GC.collect().ObjectsLive;
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(GC.collect().ObjectsLive, FirstLive)
        << "idempotent when nothing changes";
}

TEST_P(ConfigMatrixTest, ChurnReclaimsEverythingDropped) {
  Collector GC(makeConfig(GetParam()));
  Rng R(0xABCD);
  // 30 rounds of build-then-drop; memory must not ratchet upward.
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  for (int Round = 0; Round != 30; ++Round) {
    struct Node {
      Node *Next;
      uint64_t Pad[3];
    };
    Node *Head = nullptr;
    for (int I = 0; I != 2000; ++I) {
      auto *N = static_cast<Node *>(GC.allocate(sizeof(Node)));
      ASSERT_NE(N, nullptr);
      N->Next = Head;
      Head = N;
    }
    Root = reinterpret_cast<uint64_t>(Head);
    EXPECT_EQ(GC.collect().ObjectsLive, 2000u);
    Root = 0;
    EXPECT_EQ(GC.collect().ObjectsLive, 0u);
  }
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

TEST_P(ConfigMatrixTest, MixedKindsAndExplicitFrees) {
  Collector GC(makeConfig(GetParam()));
  Rng R(0x1234);
  // Interleave GC allocation, atomic allocation, uncollectable
  // allocation, and explicit frees; verify bookkeeping stays exact.
  std::vector<std::pair<void *, size_t>> Explicit;
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");
  for (int I = 0; I != 5000; ++I) {
    switch (R.pickIndex(4)) {
    case 0:
      GC.allocate(R.nextInRange(8, 256), ObjectKind::Normal);
      break;
    case 1:
      GC.allocate(R.nextInRange(8, 256), ObjectKind::PointerFree);
      break;
    case 2: {
      size_t Bytes = R.nextInRange(8, 256);
      void *P = GC.allocate(Bytes, ObjectKind::Uncollectable);
      ASSERT_NE(P, nullptr);
      Explicit.emplace_back(P, Bytes);
      break;
    }
    case 3:
      if (!Explicit.empty()) {
        size_t Pick = R.pickIndex(Explicit.size());
        GC.deallocate(Explicit[Pick].first);
        Explicit.erase(Explicit.begin() +
                       static_cast<ptrdiff_t>(Pick));
      }
      break;
    }
  }
  GC.collect();
  // Everything left: exactly the uncollectable survivors.
  EXPECT_EQ(GC.lastCollection().ObjectsLive, Explicit.size());
  for (auto &[P, Bytes] : Explicit) {
    EXPECT_TRUE(GC.isAllocated(P));
    EXPECT_GE(GC.objectSizeOf(P), Bytes);
    GC.deallocate(P);
  }
  GC.collect();
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, ConfigMatrixTest,
    ::testing::Values(
        ConfigPoint{InteriorPolicy::All, BlacklistMode::FlatBitmap, true,
                    true, false},
        ConfigPoint{InteriorPolicy::All, BlacklistMode::Off, true, true,
                    false},
        ConfigPoint{InteriorPolicy::All, BlacklistMode::Hashed, true,
                    true, false},
        ConfigPoint{InteriorPolicy::BaseOnly, BlacklistMode::FlatBitmap,
                    true, true, false},
        ConfigPoint{InteriorPolicy::FirstPage, BlacklistMode::FlatBitmap,
                    true, true, false},
        ConfigPoint{InteriorPolicy::All, BlacklistMode::FlatBitmap,
                    false, true, false}),
    configName);

//===----------------------------------------------------------------------===//
// Size-class sweep: every size allocates, reads, and frees correctly.
//===----------------------------------------------------------------------===//

class SizeSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeSweepTest, AllocateWriteCollect) {
  size_t Bytes = GetParam();
  GcConfig Config;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Collector GC(Config);
  uint64_t Root = 0;
  GC.addRootRange(&Root, &Root + 1, RootEncoding::Native64,
                  RootSource::Client, "root");

  auto *P = static_cast<unsigned char *>(GC.allocate(Bytes));
  ASSERT_NE(P, nullptr);
  EXPECT_GE(GC.objectSizeOf(P), Bytes);
  // Whole allocation is writable and survives a collection.
  for (size_t I = 0; I != Bytes; ++I)
    P[I] = static_cast<unsigned char>(I * 131 + 7);
  Root = reinterpret_cast<uint64_t>(P);
  GC.collect();
  EXPECT_TRUE(GC.wasMarkedLive(P));
  for (size_t I = 0; I != Bytes; ++I)
    EXPECT_EQ(P[I], static_cast<unsigned char>(I * 131 + 7));
  // Alignment: every object is granule aligned.
  EXPECT_EQ(reinterpret_cast<Address>(P) % GranuleBytes, 0u);
  Root = 0;
  GC.collect();
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SizeSweepTest,
    ::testing::Values(1, 7, 8, 9, 16, 24, 63, 64, 65, 100, 256, 511, 512,
                      513, 1000, 2047, 2048, 2049, 4095, 4096, 4097,
                      10000, 65536, 1 << 20),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return "Bytes" + std::to_string(Info.param);
    });

//===----------------------------------------------------------------------===//
// Scan-alignment sweep: pointers at every misalignment are found iff
// the configured stride divides their offset.
//===----------------------------------------------------------------------===//

class AlignmentSweepTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(AlignmentSweepTest, PointerVisibilityMatchesStride) {
  auto [Stride, Misalignment] = GetParam();
  GcConfig Config;
  Config.MaxHeapBytes = 16 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Config.RootScanAlignment = Stride;
  Collector GC(Config);

  void *Target = GC.allocate(32);
  alignas(8) unsigned char Buffer[32] = {};
  uint64_t Word = reinterpret_cast<uint64_t>(Target);
  std::memcpy(Buffer + Misalignment, &Word, sizeof(Word));
  GC.addRootRange(Buffer, Buffer + sizeof(Buffer),
                  RootEncoding::Native64, RootSource::Client, "buf");
  CollectionStats Cycle = GC.collect();
  bool ShouldFind = Misalignment % Stride == 0;
  EXPECT_EQ(Cycle.ObjectsLive, ShouldFind ? 1u : 0u)
      << "stride " << Stride << " misalignment " << Misalignment;
}

INSTANTIATE_TEST_SUITE_P(
    Alignments, AlignmentSweepTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u, 6u, 7u)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, unsigned>>
           &Info) {
      return "Stride" + std::to_string(std::get<0>(Info.param)) +
             "_Off" + std::to_string(std::get<1>(Info.param));
    });
