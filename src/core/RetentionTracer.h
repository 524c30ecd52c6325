//===- core/RetentionTracer.h - Why is this object live? -------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Answers the question the paper's authors kept having to answer by
/// hand: *which reference keeps this object alive?*  ("Whenever we have
/// managed to track down similar references, this has been the case";
/// "Daniel Edelson and Regis Cridlig helped to track down the
/// performance problems they observed.")
///
/// The tracer runs a provenance-recording reachability pass from the
/// current root set and reconstructs, for a target object, the chain
/// root word -> object -> object -> ... -> target, labeling the root
/// range (static data / stack / registers / client) the chain starts
/// from.  False retention debugging then reads off directly: a chain
/// starting at an integer table or a dead stack slot is a
/// misidentification; a chain starting at a client root is a real leak.
///
/// The pass reads the marker's own candidate scans
/// (MarkContext::forEachRootCandidate, forEachHeapCandidate,
/// forEachTypedCandidate) and resolves each candidate under the
/// marker's policies, so it reaches exactly what a mark marks; only
/// its order (breadth-first, so the reported chain is shortest) and
/// its provenance are its own.  It uses its own visited set and does
/// not disturb mark bits.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_RETENTIONTRACER_H
#define CGC_CORE_RETENTIONTRACER_H

#include "core/Collector.h"
#include <string>
#include <vector>

namespace cgc {

struct RetentionStep {
  /// Base window offset of the object on the chain.
  WindowOffset ObjectBase = 0;
  uint32_t ObjectSize = 0;
  /// The candidate value through which this object was reached (may be
  /// an interior address).
  WindowOffset ReachedThrough = 0;
};

struct RetentionTrace {
  bool Reached = false;
  /// Label and classification of the root range the chain starts from.
  std::string RootLabel;
  RootSource Source = RootSource::Client;
  /// Host address of the specific root word holding the first link.
  const void *RootWord = nullptr;
  /// Chain from the root-adjacent object to the target (inclusive).
  std::vector<RetentionStep> Chain;

  /// Renders "label[+offset] -> obj@0x... -> ... -> target" to a
  /// string for logs and tests.
  std::string describe() const;
};

class RetentionTracer {
public:
  explicit RetentionTracer(Collector &GC) : GC(GC) {}

  /// Traces why \p Target (any address resolving to an object under
  /// the collector's interior policy) is reachable.  \returns
  /// Reached=false if it is not reachable from the current roots.
  RetentionTrace explain(const void *Target);

private:
  Collector &GC;
};

} // namespace cgc

#endif // CGC_CORE_RETENTIONTRACER_H
