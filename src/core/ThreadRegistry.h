//===- core/ThreadRegistry.h - Mutator threads and safepoints --*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutator-thread registry and the cooperative stop-the-world
/// handshake.  The paper's collector assumes a single mutator whose
/// stack and registers are the conservative root set; this layer grows
/// that into N registered mutator threads, each with a recorded stack
/// base, a stack top and register snapshot published whenever the
/// thread parks, and (optionally) a per-size-class allocation cache.
///
/// The handshake is cooperative first: the collector raises
/// StopRequested and waits for every registered thread to park itself
/// in one of two stopped states:
///
///   * AtSafepoint — the thread polled the flag (allocation slow path,
///     or an explicit cgc_safepoint() in a compute loop), published its
///     stack top + registers, and is waiting on the resume signal.
///   * BlockedOnHeap — the thread published its stack top + registers
///     *before* trying to acquire the heap lock.  The collector holds
///     the heap lock for the whole collection, so a thread in this
///     state is frozen on the mutex and is safely scannable.
///
/// Deadlock freedom rests on two rules: StopRequested is only ever set
/// and cleared while the collector holds the heap lock, and a mutator
/// always publishes its scan state and leaves Running before it can
/// block on that lock (a mutator whose try_lock succeeds never blocks,
/// and holding the lock proves no stop is in flight).  Once the wait
/// predicate "every registered thread except the collector is not
/// Running" becomes true it stays true until resume: parked threads
/// only re-enter Running after observing StopRequested == false under
/// the registry lock, and a blocked thread only wakes when the
/// collector releases the heap lock after resuming the world.
///
/// No wakeup is lost although beginBlocked takes the registry lock and
/// notifies only when it sees StopRequested set.  The two sides form a
/// Dekker pair, every access seq_cst: the mutator stores BlockedOnHeap
/// then loads StopRequested; the collector stores StopRequested then
/// loads each thread's state in the wait predicate.  In the single
/// total order at least one side sees the other's store: either the
/// collector's predicate finds the thread stopped, or the mutator sees
/// the stop and notifies under the registry lock, which cannot fall
/// between the collector's predicate check and its sleep.
///
/// A mutator that never reaches a poll — spinning in compute code,
/// wedged in a syscall without beginBlocked, or simply buggy — would
/// stall that wait forever.  With GcConfig::HandshakeDeadlineMs set,
/// stopTheWorld arms a monotonic-clock watchdog that climbs an
/// escalation ladder instead:
///
///   1. at deadline/4, a rate-limited warning names each still-running
///      thread and its state;
///   2. at deadline/2, each still-running thread is suspended
///      preemptively with the reserved real-time signal
///      (support/SignalSuspend.h): the async-signal-safe handler
///      publishes the thread's stack top + sigsetjmp register snapshot,
///      acks on a semaphore, and parks in sigsuspend until resume.
///      Sends are retried with backoff; a fourth stopped state,
///      SignalSuspended, satisfies the same wait predicate;
///   3. at the full deadline, the handshake reports TimedOut with a
///      per-thread trace; the collector abandons the collection.
///
/// One wait loop serves both cases.  With a zero deadline (the
/// default) no rung is ever due, so the loop sleeps on the condition
/// variable with no timeout until the last thread parks: the plain
/// cooperative handshake, with no polling.
///
/// With zero registered threads none of this machinery is reachable:
/// the collector takes no lock, requests no stop, and reproduces the
/// sequential paper collector bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_THREADREGISTRY_H
#define CGC_CORE_THREADREGISTRY_H

#include "core/GcIncident.h"
#include "core/GcStats.h"
#include "support/Assert.h"
#include "support/SignalSuspend.h"
#include <atomic>
#include <condition_variable>
#include <csetjmp>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace cgc {

class Collector;
class ThreadCache;

/// Where a registered mutator currently stands with respect to the
/// stop-the-world protocol.
enum class MutatorState : uint32_t {
  /// Mutating freely; its stack top / register snapshot are stale.
  Running,
  /// Parked at a safepoint with fresh scan state, waiting for resume.
  AtSafepoint,
  /// Published fresh scan state and is (or is about to be) blocked on
  /// the heap lock.  Counts as stopped: the collector owns that lock
  /// for the entire collection.
  BlockedOnHeap,
  /// Suspended preemptively by the watchdog's reserved signal; the
  /// handler published scan state and is parked in sigsuspend.  Counts
  /// as stopped; only the resume signal releases it.
  SignalSuspended,
};

/// Per-thread record.  Owned by the registry; the address is stable for
/// the thread's registered lifetime (records are heap-allocated and the
/// registry stores pointers), so the owner thread may keep it in a
/// thread_local and the collector may scan Registers in place.
struct MutatorThread {
  /// 1-based registration order; never reused within a registry.
  uint64_t Id = 0;
  /// High end of the thread's scannable stack, recorded at
  /// registration.  Frames above the registration point are invisible
  /// to the collector — register at the top of the thread's main.
  const void *StackBase = nullptr;
  /// Low end of the live stack, published each time the thread parks.
  std::atomic<const void *> StackTop{nullptr};
  /// Callee-saved registers flushed with setjmp when the thread parks,
  /// scanned in place as a conservative root range.
  std::jmp_buf Registers;
  /// MutatorState, as its underlying integer.
  std::atomic<uint32_t> State{static_cast<uint32_t>(MutatorState::Running)};
  /// Set under the registry lock once an AtSafepoint thread has taken
  /// that lock on its way to waiting; the handshake counts a safepoint
  /// park only then, so the park frame's own stores happen-before the
  /// collector scans the stack.
  bool Parked = false;
  /// Thread-owned allocation blocks; null when GcConfig::ThreadCaches is
  /// off or guarded mode is active.  Its counters are owner-private; the
  /// collector reads them only while the owner is parked (or gone).
  std::unique_ptr<ThreadCache> Cache;
  /// Times this thread parked at a safepoint (lifetime).
  std::atomic<uint64_t> SafepointsTaken{0};
  /// Preemptive-suspension slot for the watchdog's signal rung; its
  /// State/StackTop pointers alias the fields above and the pthread
  /// handle is captured at registration.  While Suspend.UseRegisters
  /// is set, Suspend.Registers (the handler's sigsetjmp capture) is
  /// the scannable register snapshot instead of Registers.
  suspend::SuspendSlot Suspend;

  MutatorState
  state(std::memory_order Order = std::memory_order_acquire) const {
    return static_cast<MutatorState>(State.load(Order));
  }
  void setState(MutatorState To,
                std::memory_order Order = std::memory_order_release) {
    State.store(static_cast<uint32_t>(To), Order);
  }
};

class ThreadRegistry {
public:
  ThreadRegistry() = default;
  ThreadRegistry(const ThreadRegistry &) = delete;
  ThreadRegistry &operator=(const ThreadRegistry &) = delete;

  /// Registers the calling thread.  Serialized against the handshake by
  /// the caller (Collector::registerMutatorThread holds the heap lock),
  /// so registration never races a stop.  \returns the new record, or
  /// null when \p MaxThreads registrations are already live.
  MutatorThread *registerThread(const void *StackBase, unsigned MaxThreads);

  /// Unregisters \p Thread (must be the calling thread's record, with
  /// its cache already flushed).  Caller holds the heap lock.
  void unregisterThread(MutatorThread *Thread);

  /// Registered threads right now.  Lock-free; the allocation fast path
  /// uses this (via Collector's sticky threaded-mode flag) to keep the
  /// zero-thread configuration on the paper's sequential path.
  uint64_t registeredCount() const {
    return Count.load(std::memory_order_acquire);
  }

  /// Lifetime registration total (never decreases; feeds crash state).
  uint64_t lifetimeRegistrations() const {
    return LifetimeRegistrations.load(std::memory_order_relaxed);
  }

  /// The calling thread's record, or null if it never registered with
  /// any registry.  (One registry per process is the supported shape;
  /// the record is checked against this registry where it matters.)
  static MutatorThread *current();

  /// Best-effort high end of the calling thread's stack: the pthread
  /// stack extent where the platform exposes it, else callerFrameBase()
  /// of the function this is inlined into (in that case register near
  /// the thread's entry point, since that function's caller and every
  /// shallower frame are invisible to the collector).
  [[gnu::always_inline]] static const void *currentStackBase() {
    const void *Base = pthreadStackBase();
    return Base ? Base : callerFrameBase();
  }

  /// The high end of the pthread stack extent of the calling thread, or
  /// null where the platform does not expose it.
  static const void *pthreadStackBase();

  /// The canonical frame address of the function this is inlined into:
  /// the stack pointer its caller had at the call, so on a
  /// downward-growing stack it lies above every local of that function
  /// and of every frame it enters later.  (The address of a local
  /// cannot serve: it is dead once returned, and compilers fold such a
  /// return to null.)
  [[gnu::always_inline]] static const void *callerFrameBase() {
    return __builtin_dwarf_cfa();
  }

  /// True while a stop-the-world is in flight.  Mutators poll this on
  /// the allocation fast path and in cgc_safepoint().
  bool stopRequested() const {
    return StopFlag.load(std::memory_order_acquire);
  }

  /// Collector side: raises StopRequested and waits until every
  /// registered thread other than \p Self has stopped (AtSafepoint,
  /// BlockedOnHeap, or SignalSuspended).  Caller must hold the heap
  /// lock for the entire stop..resume window.  With a watchdog
  /// configured the wait is bounded and each rung it climbs is counted
  /// in handshakeStats(); TimedOut means some thread could not be
  /// stopped and the collection must be abandoned (StopRequested stays
  /// raised until resumeTheWorld).
  struct HandshakeResult {
    uint64_t MutatorsStopped = 0;
    uint64_t Nanos = 0;
    bool TimedOut = false;
    /// Per-thread state at the final-timeout rung (TimedOut only).
    std::vector<GcHandshakeTraceEntry> Trace;
  };
  HandshakeResult stopTheWorld(const MutatorThread *Self);

  /// Collector side: clears StopRequested, wakes every parked thread,
  /// and releases (resume signal, retried) every signal-suspended
  /// thread.  Caller still holds the heap lock.
  void resumeTheWorld();

  /// Rate-limited stall warning sink for the watchdog's first rung:
  /// invoked, with the registry lock held, once per still-running
  /// thread when the handshake crosses deadline/4.  Must not call back
  /// into the registry.
  using StallWarnFn = void (*)(void *Ctx, uint64_t ThreadId);

  /// Arms (or with \p DeadlineNanos == 0 disarms) the handshake
  /// watchdog.  \p SuspendSignal is the resolved, installed suspend
  /// signal, or -1 to skip the signal rung (the ladder then goes
  /// warn → timeout).  Not thread-safe against in-flight handshakes;
  /// the collector configures it at construction.
  void configureWatchdog(uint64_t DeadlineNanos, int SuspendSignal,
                         StallWarnFn Warn, void *WarnCtx);

  /// Mutator side: if a stop is requested, publish scan state and park
  /// until resumed.  Cheap when no stop is in flight (one acquire
  /// load); never call while holding the heap lock.
  void safepoint(MutatorThread *Self) {
    if (!stopRequested() || Self == nullptr)
      return;
    parkAtSafepoint(Self);
  }

  /// Mutator side: publish scan state and enter BlockedOnHeap *before*
  /// acquiring the heap lock, so a thread frozen on the collector's
  /// mutex still counts as stopped and is scannable.
  void beginBlocked(MutatorThread *Self);

  /// Mutator side: back to Running, after the heap lock is acquired.
  /// Holding the lock proves no stop is in flight.
  void endBlocked(MutatorThread *Self);

  /// Iterates every registered record.  Caller must hold the heap lock
  /// (registration and unregistration are serialized under it).
  template <typename FnT> void forEachThread(FnT Fn) const {
    std::lock_guard<std::mutex> Guard(Lock);
    for (const std::unique_ptr<MutatorThread> &Thread : Threads)
      Fn(*Thread);
  }

  /// Safepoint parks taken across all threads (lifetime).
  uint64_t safepointParks() const {
    return SafepointParks.load(std::memory_order_relaxed);
  }

  /// The lifetime handshake counters, read one by one without the
  /// registry lock (the stall-warning rung reports through the crash
  /// state while stopTheWorld holds it).
  GcHandshakeStats handshakeStats() const;

  /// Child-side fork cleanup: drops every record except \p Survivor
  /// (the forking thread's record; null when the forking thread was
  /// unregistered), invoking \p OnDrop on each dropped record first so
  /// the collector can fold its counts and return its owned blocks.
  /// Also clears any in-flight stop and stale suspension
  /// state.  Call only from a freshly forked child, before it mutates.
  void rebuildAfterFork(MutatorThread *Survivor,
                        const std::function<void(MutatorThread &)> &OnDrop);

  /// Fork safety: prepare acquires the registry lock so the fork
  /// snapshot never copies it mid-transition; parent and child release
  /// it (the child before rebuildAfterFork).
  void lockForFork() { Lock.lock(); }
  void unlockForFork() { Lock.unlock(); }

private:
  void parkAtSafepoint(MutatorThread *Self);
  /// Publishes \p Self's stack top and register snapshot.  Must not be
  /// inlined into a frame that dies before the state is consumed; the
  /// park/blocked wrappers keep their frames alive.
  static void publishScanState(MutatorThread *Self);

  mutable std::mutex Lock;
  /// Collector waits here for the last mutator to park.
  std::condition_variable MutatorParked;
  /// Parked mutators wait here for resume.
  std::condition_variable WorldResumed;
  std::vector<std::unique_ptr<MutatorThread>> Threads;
  std::atomic<uint64_t> Count{0};
  std::atomic<bool> StopFlag{false};
  uint64_t NextId = 1;
  std::atomic<uint64_t> LifetimeRegistrations{0};
  std::atomic<uint64_t> SafepointParks{0};

  /// Watchdog configuration (written once at collector construction).
  uint64_t WatchdogDeadlineNanos = 0;
  int WatchdogSignal = -1;
  StallWarnFn StallWarn = nullptr;
  void *StallWarnCtx = nullptr;

  /// Lifetime handshake counters (GcHandshakeStats, field for field).
  std::atomic<uint64_t> Handshakes{0};
  std::atomic<uint64_t> MaxStopNanos{0};
  std::atomic<uint64_t> TotalStopNanos{0};
  std::atomic<uint64_t> SignalSuspensions{0};
  std::atomic<uint64_t> SignalSendRetries{0};
  std::atomic<uint64_t> WarnRungs{0};
  std::atomic<uint64_t> SignalRungs{0};
  std::atomic<uint64_t> HandshakeTimeouts{0};
};

} // namespace cgc

#endif // CGC_CORE_THREADREGISTRY_H
