//===- bench/bench_typed_mark.cpp - Typed vs conservative marking ---------===//
//
// Quantifies what the descriptor-driven tracing layer buys on heaps
// the paper's conservative scan handles worst — pointer-dense records
// whose integer words are distributed like random addresses:
//
//   * retained bytes: garbage kept alive only because an integer word
//     spelled a heap address (the §2 "compressed data" failure mode,
//     here measured on dense record heaps and the Figure-3 grid);
//   * mark throughput: a precise scan strides over the descriptor's
//     pointer words instead of every word, so the Mark phase touches a
//     fraction of the heap.
//
// Each workload runs twice — the typed declaration against the same
// structure with GcConfig::AllConservativeDescriptors demoting every
// descriptor — so the delta isolates exactly the mark-path change.
//
// Usage: bench_typed_mark [--json]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Collector.h"
#include "structures/FalseRef.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace cgc;

namespace {

GcConfig benchConfig(bool AllConservative) {
  GcConfig Config;
  Config.WindowBytes = uint64_t(4) << 30;
  Config.Placement = HeapPlacement::LowSbrk;
  Config.MaxHeapBytes = uint64_t(128) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  Config.AllConservativeDescriptors = AllConservative;
  return Config;
}

/// Observer capturing each collection's Mark-phase duration.
class MarkTimer : public GcObserver {
public:
  void onPhaseEnd(GcPhase Phase, uint64_t Nanos,
                  const CollectionStats &) override {
    if (Phase == GcPhase::Mark)
      LastMarkNanos = Nanos;
  }
  uint64_t LastMarkNanos = 0;
};

/// Random 1993-style data: words uniform over the window hit the heap
/// with probability heap-size / window-size.
void fillRandomData(Collector &GC, uint64_t *Words, size_t Count, Rng &R) {
  for (size_t I = 0; I != Count; ++I)
    Words[I] = GC.arena().base() + R.nextBelow(GC.arena().size());
}

//===----------------------------------------------------------------------===//
// Workload 1: pointer-dense record list
//===----------------------------------------------------------------------===//

constexpr unsigned RecordWords = 16; // 1 link + 15 words of random data.
constexpr unsigned NumRecords = 8000;
constexpr unsigned MarkReps = 12;

struct ListOutcome {
  uint64_t GarbageBytesRetained = 0;
  uint64_t HeapWordsScanned = 0;
  /// Mark-phase time of each of the MarkReps collections.
  std::vector<double> MarkNanos;
};

ListOutcome runRecordList(bool AllConservative, uint64_t Seed) {
  Collector GC(benchConfig(AllConservative));
  Rng R(Seed);
  constexpr size_t RecordBytes = RecordWords * sizeof(uint64_t);
  std::vector<bool> PointerWords(RecordWords, false);
  PointerWords[0] = true; // Only the link.
  LayoutId Layout = GC.registerObjectLayout(PointerWords, RecordBytes);

  // Two rooted chains so exactly half the records can be dropped.
  uint64_t Chains[2] = {0, 0};
  RootId Root = GC.addRootRange(Chains, Chains + 2, RootEncoding::Native64,
                                RootSource::Client, "chains");
  for (unsigned I = 0; I != NumRecords; ++I) {
    auto *Record = static_cast<uint64_t *>(GC.allocateTyped(Layout));
    CGC_CHECK(Record, "record allocation failed");
    fillRandomData(GC, Record + 1, RecordWords - 1, R);
    uint64_t &Chain = Chains[I % 2];
    Record[0] = Chain;
    Chain = reinterpret_cast<uint64_t>(Record);
  }

  CollectionStats Before = GC.collect("before-drop");
  Chains[1] = 0;

  MarkTimer Timer;
  GcObserverId TimerId = GC.addObserver(&Timer);
  ListOutcome Result;
  CollectionStats After;
  for (unsigned Rep = 0; Rep != MarkReps; ++Rep) {
    After = GC.collect("after-drop");
    Result.MarkNanos.push_back(static_cast<double>(Timer.LastMarkNanos));
  }
  uint64_t ExpectedLive = Before.BytesLive / 2;
  Result.GarbageBytesRetained =
      After.BytesLive > ExpectedLive ? After.BytesLive - ExpectedLive : 0;
  Result.HeapWordsScanned = After.HeapWordsScanned;
  GC.removeObserver(TimerId);
  GC.removeRootRange(Root);
  return Result;
}

//===----------------------------------------------------------------------===//
// Workload 2: the Figure-3 grid with noisy payloads
//===----------------------------------------------------------------------===//

constexpr unsigned GridN = 64;
constexpr unsigned GridSamples = 48;
constexpr unsigned VertexPayloadWords = 6;

struct GridVertex {
  GridVertex *Right;
  GridVertex *Down;
  uint64_t Payload[VertexPayloadWords];
};

struct GridOutcome {
  double MeanRetainedBytes = 0;
  uint64_t TotalBytes = 0;
};

/// The paper's Figure-3 embedded grid, with each vertex carrying noisy
/// payload words — mostly window-uniform, but one word in eight spells
/// the address of a random *other vertex* (integer data colliding with
/// the structure, the way hashes and compressed bitmaps do).  One
/// false reference into the interior retains exactly the down-right
/// cone under precise tracing; a conservative scan follows the
/// colliding payload words and drags in unrelated regions of the grid.
GridOutcome runGrid(bool AllConservative, uint64_t Seed) {
  Collector GC(benchConfig(AllConservative));
  Rng R(Seed);
  std::vector<bool> PointerWords(2 + VertexPayloadWords, false);
  PointerWords[0] = PointerWords[1] = true;
  LayoutId Layout =
      GC.registerObjectLayout(PointerWords, sizeof(GridVertex));

  std::vector<GridVertex *> Vertices(GridN * GridN);
  for (GridVertex *&V : Vertices) {
    V = static_cast<GridVertex *>(GC.allocateTyped(Layout));
    CGC_CHECK(V, "vertex allocation failed");
    fillRandomData(GC, V->Payload, VertexPayloadWords, R);
  }
  for (GridVertex *V : Vertices)
    for (unsigned W = 0; W != VertexPayloadWords; ++W)
      if (R.nextBool(0.125))
        V->Payload[W] = reinterpret_cast<uint64_t>(
            Vertices[R.pickIndex(Vertices.size())]);
  for (unsigned Row = 0; Row != GridN; ++Row)
    for (unsigned Col = 0; Col != GridN; ++Col) {
      GridVertex *V = Vertices[Row * GridN + Col];
      V->Right = Col + 1 != GridN ? Vertices[Row * GridN + Col + 1]
                                  : nullptr;
      V->Down = Row + 1 != GridN ? Vertices[(Row + 1) * GridN + Col]
                                 : nullptr;
    }

  GridOutcome Result;
  Result.TotalBytes = uint64_t(GridN) * GridN * sizeof(GridVertex);
  PlantedRef Ref(GC);
  double Sum = 0;
  for (unsigned I = 0; I != GridSamples; ++I) {
    Ref.setPointer(Vertices[R.pickIndex(Vertices.size())]);
    Sum += static_cast<double>(GC.measureLiveness().BytesMarked);
  }
  Result.MeanRetainedBytes = Sum / GridSamples;
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = cgcbench::consumeJsonFlag(Argc, Argv);
  cgcbench::printBanner(
      "typed mark",
      "retained bytes and mark throughput, typed descriptors vs the "
      "same heap demoted to fully conservative",
      "precise heap tracing (the paper's Bartlett/Chailloux regime) "
      "drops integer-word false retention and scans a fraction of the "
      "words");

  cgcbench::JsonReport Report("typed mark");
  Report.set("records", uint64_t(NumRecords));
  Report.set("record_words", uint64_t(RecordWords));
  Report.set("grid_n", uint64_t(GridN));
  Report.set("grid_samples", uint64_t(GridSamples));

  TablePrinter Table({"workload", "declaration", "garbage retained",
                      "words scanned", "mark median (IQR)"});

  ListOutcome TypedList = runRecordList(/*AllConservative=*/false, 17);
  ListOutcome ConsList = runRecordList(/*AllConservative=*/true, 17);
  for (bool Conservative : {false, true}) {
    const ListOutcome &O = Conservative ? ConsList : TypedList;
    const char *Decl = Conservative ? "all-conservative" : "typed";
    double Median = cgcbench::percentile(O.MarkNanos, 0.50);
    double Iqr = cgcbench::percentile(O.MarkNanos, 0.75) -
                 cgcbench::percentile(O.MarkNanos, 0.25);
    char Nanos[48];
    std::snprintf(Nanos, sizeof(Nanos), "%.2f ms (%.2f)", Median / 1e6,
                  Iqr / 1e6);
    Table.addRow({"record list", Decl,
                  TablePrinter::bytes(O.GarbageBytesRetained),
                  std::to_string(O.HeapWordsScanned), Nanos});
    Report.beginRow();
    Report.rowSet("workload", std::string("record_list"));
    Report.rowSet("declaration", std::string(Decl));
    Report.rowSet("garbage_bytes_retained", O.GarbageBytesRetained);
    Report.rowSet("heap_words_scanned", O.HeapWordsScanned);
    Report.rowSet("mark_median_nanos", Median);
    Report.rowSet("mark_iqr_nanos", Iqr);
  }

  GridOutcome TypedGrid = runGrid(/*AllConservative=*/false, 29);
  GridOutcome ConsGrid = runGrid(/*AllConservative=*/true, 29);
  for (bool Conservative : {false, true}) {
    const GridOutcome &O = Conservative ? ConsGrid : TypedGrid;
    const char *Decl = Conservative ? "all-conservative" : "typed";
    char Mean[32];
    std::snprintf(Mean, sizeof(Mean), "%.0f B/falseref",
                  O.MeanRetainedBytes);
    Table.addRow({"fig3 grid", Decl, Mean, "-", "-"});
    Report.beginRow();
    Report.rowSet("workload", std::string("fig3_grid"));
    Report.rowSet("declaration", std::string(Decl));
    Report.rowSet("mean_retained_bytes_per_false_ref",
                  O.MeanRetainedBytes);
    Report.rowSet("structure_bytes", O.TotalBytes);
  }
  Table.print(stdout);

  double WordsRatio =
      ConsList.HeapWordsScanned
          ? double(TypedList.HeapWordsScanned) / ConsList.HeapWordsScanned
          : 0;
  double RetainedRatio =
      ConsGrid.MeanRetainedBytes
          ? TypedGrid.MeanRetainedBytes / ConsGrid.MeanRetainedBytes
          : 0;
  Report.set("record_list_words_scanned_ratio", WordsRatio);
  Report.set("grid_retained_ratio", RetainedRatio);
  std::printf("\nrecord list: typed marking scans %.1f%% of the "
              "conservative words and\nretains %s garbage vs %s; grid "
              "false refs retain %.1f%% as much.\n",
              100 * WordsRatio,
              TablePrinter::bytes(TypedList.GarbageBytesRetained).c_str(),
              TablePrinter::bytes(ConsList.GarbageBytesRetained).c_str(),
              100 * RetainedRatio);

  if (Json) {
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  return 0;
}
