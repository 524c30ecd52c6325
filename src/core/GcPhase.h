//===- core/GcPhase.h - Collection pipeline phases -------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collection cycle as an explicit phase pipeline.  The paper
/// presents one monolithic mark-sweep cycle; structuring it as named
/// phases with per-phase timing gives every phase a checkable boundary
/// (in the spirit of verified-GC work, where phase invariants are the
/// proof obligations).
///
/// Pipeline order, fixed for every collection:
///
///   RootScan -> Mark -> BlacklistPromote -> Sweep -> Finalize
///
///   * RootScan         — reset the blacklist's per-cycle candidate
///                        set, clear marks, mark uncollectable objects,
///                        scan every root span; reachable objects found
///                        here seed the mark stack.
///   * Mark             — transitively mark the heap from the seeds
///                        (one LIFO drain; see core/MarkContext.h).
///                        Finalizable objects found unreachable are
///                        resurrected here (resurrection is marking
///                        work) and staged for the Finalize phase.
///   * BlacklistPromote — promote this cycle's near-miss candidates
///                        (flushed by the marker as it goes) into the
///                        active blacklist (aging happens here too).
///   * Sweep            — reclaim unmarked objects, pin marked-free
///                        slots, release empty blocks, in one
///                        sequential pass (ObjectHeap::sweep).
///   * Finalize         — publish staged finalizers to the ready queue
///                        and emit object-retained observer events.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_GCPHASE_H
#define CGC_CORE_GCPHASE_H

namespace cgc {

enum class GcPhase : unsigned char {
  RootScan,
  Mark,
  BlacklistPromote,
  Sweep,
  Finalize,
};

constexpr unsigned NumGcPhases = 5;

constexpr const char *gcPhaseName(GcPhase Phase) {
  switch (Phase) {
  case GcPhase::RootScan:
    return "root-scan";
  case GcPhase::Mark:
    return "mark";
  case GcPhase::BlacklistPromote:
    return "blacklist-promote";
  case GcPhase::Sweep:
    return "sweep";
  case GcPhase::Finalize:
    return "finalize";
  }
  return "?";
}

} // namespace cgc

#endif // CGC_CORE_GCPHASE_H
