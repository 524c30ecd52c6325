//===- bench/BenchUtil.h - Shared experiment-harness helpers ---*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_BENCH_BENCHUTIL_H
#define CGC_BENCH_BENCHUTIL_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace cgcbench {

/// Prints the standard experiment banner: which paper artifact this
/// binary regenerates and what the paper reported.
void printBanner(const char *ExperimentId, const char *Description,
                 const char *PaperResult);

/// Formats "lo-hi%" range strings like the paper's Table 1 cells.
std::string percentRange(double Lo, double Hi);

/// The \p Fraction quantile of \p Samples (nearest rank; 0 when
/// empty): 0.5 is the median, 0.75 minus 0.25 the interquartile range.
double percentile(std::vector<double> Samples, double Fraction);

/// Removes a "--json" flag from (Argc, Argv) if present, so positional
/// argument parsing stays index-based.  \returns true if it was there.
bool consumeJsonFlag(int &Argc, char **Argv);

/// Machine-readable benchmark output: scalar metadata plus a flat
/// "results" array of per-configuration rows, written to
/// BENCH_<id>.json in the working directory so CI and sweep scripts
/// can diff runs without scraping the human tables.
class JsonReport {
public:
  explicit JsonReport(std::string ExperimentId);

  void set(const char *Key, uint64_t Value);
  void set(const char *Key, double Value);
  void set(const char *Key, const std::string &Value);

  /// Starts a new row in the "results" array; subsequent rowSet calls
  /// fill it until the next beginRow.
  void beginRow();
  void rowSet(const char *Key, uint64_t Value);
  void rowSet(const char *Key, double Value);
  void rowSet(const char *Key, const std::string &Value);

  /// Writes BENCH_<experiment id>.json (spaces in the id become
  /// underscores).  \returns the path written, or an empty string on
  /// I/O failure.
  std::string write() const;

private:
  using Fields = std::vector<std::pair<std::string, std::string>>;
  std::string ExperimentId;
  Fields Scalars;   // Values are pre-encoded JSON.
  std::vector<Fields> Rows;
};

} // namespace cgcbench

#endif // CGC_BENCH_BENCHUTIL_H
