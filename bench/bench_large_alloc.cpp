//===- bench/bench_large_alloc.cpp - §3 observation 7: large objects -----===//
//
// Regenerates the paper's observation 7:
//
//   "A quick examination of the blacklist in a statically linked SPARC
//    executable suggests that if all interior pointers are considered
//    valid, it becomes difficult to allocate individual objects larger
//    than about 100 Kbytes without violating the blacklist constraint
//    ... This is never a problem if addresses that do not point to the
//    first page of an object can be considered invalid."
//
// Method: install SPARC-static-style pollution, run the startup
// collection so the blacklist fills, then probe for the largest single
// object allocatable without growing past already-blacklisted pages —
// under InteriorPolicy::All (run must avoid every blacklisted page)
// versus InteriorPolicy::FirstPage (only the first page matters).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Collector.h"
#include "sim/PlatformProfile.h"
#include "support/Statistics.h"

using namespace cgc;
using namespace cgc::sim;

namespace {

struct ProbeResult {
  uint64_t BlacklistedPages = 0;
  /// Largest gap between blacklisted pages within the committed heap —
  /// the cap on AllPagesClean objects that avoid heap growth.
  uint64_t LargestCleanGapBytes = 0;
  /// Largest object the allocator placed without an emergency
  /// collection, whose page runs may cover blacklisted pages.
  uint64_t LargestPlacedBytes = 0;
};

ProbeResult probe(InteriorPolicy Interior, double TableScale,
                  uint64_t Seed) {
  PlatformSpec Spec = specFor(Platform::SparcStatic, false);
  Spec.Tables.Words =
      static_cast<size_t>(Spec.Tables.Words * TableScale);
  GcConfig Config = configFor(Spec, BlacklistMode::FlatBitmap);
  Config.Interior = Interior;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Collector GC(Config);
  SimEnvironment Env(GC, Spec, Seed);

  // Trigger the startup collection (fills the blacklist), then commit
  // a realistic heap.
  for (int I = 0; I != 4096; ++I)
    GC.allocate(8);
  GC.collect("settle");

  ProbeResult Result;
  Result.BlacklistedPages = GC.blacklistedPageCount();

  // Largest clean gap across the whole arena.
  PageAllocator &Pages = GC.pageAllocator();
  uint64_t Gap = 0, Best = 0;
  for (PageIndex P = Pages.arenaBasePage(); P != Pages.arenaLimitPage();
       ++P) {
    if (GC.blacklist().isBlacklisted(P)) {
      Best = std::max(Best, Gap);
      Gap = 0;
    } else {
      ++Gap;
    }
  }
  Best = std::max(Best, Gap);
  Result.LargestCleanGapBytes = Best * PageSize;

  // Binary-search (in pages) the largest object the allocator will
  // place within the blacklist constraint.  Lo is known-good, Hi
  // known-bad.  A request that only the exhaustion ladder's emergency
  // rung satisfied (it accepts blacklisted pages) was not placed.
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
  Result.LargestPlacedBytes = LoPages * PageSize;
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = cgcbench::consumeJsonFlag(Argc, Argv);
  cgcbench::printBanner(
      "Obs. 7 (large objects)",
      "largest allocatable object under blacklist pressure, by "
      "interior-pointer policy and pollution level",
      "with all interior pointers valid, objects over ~100 KB become "
      "hard to place on a polluted SPARC; first-page-only policy "
      "removes the limit");

  cgcbench::JsonReport Report("large_alloc");
  TablePrinter Table({"interior policy", "pollution scale",
                      "blacklisted pages", "largest clean gap",
                      "largest object placed"});
  for (double Scale : {0.25, 1.0, 4.0}) {
    for (InteriorPolicy Policy :
         {InteriorPolicy::All, InteriorPolicy::FirstPage}) {
      ProbeResult R = probe(Policy, Scale, 1);
      const char *PolicyName =
          Policy == InteriorPolicy::All ? "all interior" : "first page";
      Table.addRow(
          {PolicyName, std::to_string(Scale),
           std::to_string(R.BlacklistedPages),
           TablePrinter::bytes(R.LargestCleanGapBytes),
           TablePrinter::bytes(R.LargestPlacedBytes)});
      Report.beginRow();
      Report.rowSet("interior_policy", std::string(PolicyName));
      Report.rowSet("pollution_scale", Scale);
      Report.rowSet("blacklisted_pages", R.BlacklistedPages);
      Report.rowSet("largest_clean_gap_bytes", R.LargestCleanGapBytes);
      Report.rowSet("largest_placed_bytes", R.LargestPlacedBytes);
    }
  }
  Table.print(stdout);
  std::printf("\nUnder \"all interior\" the object must fit between "
              "blacklisted pages;\nunder \"first page\" only the first "
              "page must be clean, so the size cap disappears\n(limited "
              "only by the arena).\n");
  if (Json) {
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  return 0;
}
