//===- core/Finalization.h - Finalization queue ----------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PCR-style finalization: "selected otherwise unreachable heap cells
/// [are] enqueued for further action" (paper, Appendix B).  The paper's
/// PCR experiment counts reclaimed lists exactly this way, and our
/// Program T harness offers the same methodology.
///
/// Objects found unreachable at the end of marking are *resurrected*
/// (marked, with their reachable subgraph) so their contents stay valid
/// until the client runs the finalizer; the next collection then
/// reclaims them.  Finalization order between mutually reachable
/// finalizable objects is unspecified, as in PCR.
///
/// Pipeline split: detection and resurrection are marking work (they
/// mutate mark state, and must precede the sweep), so they run in the
/// Mark phase and *stage* the queued objects.  The Finalize phase then
/// publishes the staged set to the ready queue, which is what
/// pendingFinalizers()/runFinalizers() observe.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_FINALIZATION_H
#define CGC_CORE_FINALIZATION_H

#include "core/GcStats.h"
#include "core/MarkContext.h"
#include "heap/ObjectHeap.h"
#include <atomic>
#include <functional>
#include <unordered_map>
#include <vector>

namespace cgc {

class FinalizationQueue {
public:
  using Finalizer = std::function<void(void *)>;

  /// Registers \p Fn to run when the object at \p Offset becomes
  /// unreachable.  Re-registering replaces the previous finalizer.
  void registerFinalizer(WindowOffset Offset, Finalizer Fn) {
    Registered[Offset] = std::move(Fn);
    publishCount();
  }

  /// Removes a registration; \returns true if one existed.
  bool unregister(WindowOffset Offset) {
    if (Registered.erase(Offset) == 0)
      return false;
    publishCount();
    return true;
  }

  size_t registeredCount() const { return Registered.size(); }
  /// Whether any finalizer is registered.  Lock-free: the owner free
  /// path reads it without the heap lock that guards the queue.
  bool anyRegistered() const {
    return RegisteredMirror.load(std::memory_order_acquire) != 0;
  }
  size_t readyCount() const { return Ready.size(); }

  /// Mark phase: stages unreachable registered objects and resurrects
  /// them through \p Marking so the sweep spares them.
  /// \returns the number of objects staged.
  size_t processUnreachable(MarkContext &Marking, ObjectHeap &Heap,
                            CollectionStats &Stats);

  /// Finalize phase: publishes the staged set to the ready queue.
  /// \returns how many finalizers became ready.
  size_t publishStaged();

  /// Runs (and removes) every ready finalizer; \returns how many ran.
  size_t runReady(VirtualArena &Arena);

private:
  void publishCount() {
    RegisteredMirror.store(Registered.size(), std::memory_order_release);
  }

  std::unordered_map<WindowOffset, Finalizer> Registered;
  std::atomic<size_t> RegisteredMirror{0};
  /// Queued this cycle, not yet published (Mark .. Finalize window).
  std::vector<std::pair<WindowOffset, Finalizer>> Staged;
  std::vector<std::pair<WindowOffset, Finalizer>> Ready;
};

} // namespace cgc

#endif // CGC_CORE_FINALIZATION_H
