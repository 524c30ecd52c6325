//===- roots/MachineStack.h - Real machine-stack scanning ------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *real* stack of the thread that enabled machine-stack scanning,
/// so the examples run as genuine garbage-collected C++ programs.  The
/// experiments use the simulated stack instead (deterministic); this
/// module exists to show the collector is a real collector.
///
/// The collector scans this stack when its owner collects without
/// being a registered mutator: from a probe byte in the collecting
/// frame up to base(), plus the registers setjmp flushed in that frame
/// (see Collector::StoppedWorld::addRoots).  This class keeps what the
/// §3.1 stack clearing needs between collections.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_ROOTS_MACHINESTACK_H
#define CGC_ROOTS_MACHINESTACK_H

#include <cstdint>
#include <thread>

namespace cgc {

class MachineStack {
public:
  /// The calling thread's stack, whose high end is \p Base.
  explicit MachineStack(const void *Base)
      : Base(Base), DeepestSeen(Base), Owner(std::this_thread::get_id()) {}

  /// Whether the calling thread is the one whose stack this is.
  bool ownedByCaller() const { return std::this_thread::get_id() == Owner; }

  const void *base() const { return Base; }

  /// Records that the stack reached \p Probe, a byte in a live frame.
  void noteDepth(const volatile void *Probe) {
    if (Probe < DeepestSeen)
      DeepestSeen = const_cast<const void *>(Probe);
  }

  /// §3.1 stack clearing on the real stack: zeroes up to \p ChunkBytes
  /// of the dead region just beyond the current frame, bounded by the
  /// deepest stack extent seen so far.  Mirrors bdwgc's GC_clear_stack.
  /// Call only from the owning thread.
  void clearDeadStack(uint32_t ChunkBytes);

private:
  const void *Base;        ///< High end of the stack.
  const void *DeepestSeen; ///< Low-water mark.
  std::thread::id Owner;
};

} // namespace cgc

#endif // CGC_ROOTS_MACHINESTACK_H
