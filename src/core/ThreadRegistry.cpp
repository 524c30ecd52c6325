//===- core/ThreadRegistry.cpp - Mutator threads and safepoints ----------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadRegistry.h"
#include "heap/ThreadCache.h"
#include "support/Clock.h"
#include "support/FaultInjection.h"
#include <algorithm>
#include <chrono>
#include <pthread.h>

namespace cgc {

// The async-signal-safe suspend handler cannot include this header
// (support must not depend on core), so it publishes raw state values
// that must stay in lockstep with the enum.
static_assert(static_cast<uint32_t>(MutatorState::Running) ==
                  suspend::RunningState,
              "suspend handler state constants drifted");
static_assert(static_cast<uint32_t>(MutatorState::SignalSuspended) ==
                  suspend::SignalSuspendedState,
              "suspend handler state constants drifted");

namespace {

// initial-exec TLS: the general-dynamic model's first per-thread access
// runs __tls_get_addr, which may realloc the thread's DTV.  When the
// collector is a preloaded shared object that realloc re-enters the
// interposed allocator mid-registration; initial-exec accesses never
// allocate.
#if defined(__GNUC__)
#define CGC_CORE_TLS __attribute__((tls_model("initial-exec")))
#else
#define CGC_CORE_TLS
#endif

thread_local MutatorThread *CurrentMutator CGC_CORE_TLS = nullptr;

} // namespace

MutatorThread *ThreadRegistry::current() { return CurrentMutator; }

const void *ThreadRegistry::pthreadStackBase() {
#if defined(__linux__)
  pthread_attr_t Attr;
  if (pthread_getattr_np(pthread_self(), &Attr) == 0) {
    void *Addr = nullptr;
    size_t Size = 0;
    int Rc = pthread_attr_getstack(&Attr, &Addr, &Size);
    pthread_attr_destroy(&Attr);
    if (Rc == 0 && Addr != nullptr)
      return static_cast<const unsigned char *>(Addr) + Size;
  }
#endif
  return nullptr;
}

MutatorThread *ThreadRegistry::registerThread(const void *StackBase,
                                              unsigned MaxThreads) {
  CGC_CHECK(CurrentMutator == nullptr,
            "thread registered with a collector twice");
  std::lock_guard<std::mutex> Guard(Lock);
  // The caller holds the heap lock, so no handshake is in flight; a
  // full registry is the only refusal.
  if (MaxThreads != 0 && Threads.size() >= MaxThreads)
    return nullptr;
  auto Thread = std::make_unique<MutatorThread>();
  Thread->Id = NextId++;
  Thread->StackBase = StackBase;
  Thread->StackTop.store(StackBase, std::memory_order_release);
  // Wire the suspension slot before the record becomes visible to the
  // watchdog: the handler reads these through the thread_local slot.
  Thread->Suspend.State = &Thread->State;
  Thread->Suspend.StackTop = &Thread->StackTop;
  Thread->Suspend.Handle = pthread_self();
  MutatorThread *Raw = Thread.get();
  Threads.push_back(std::move(Thread));
  Count.store(Threads.size(), std::memory_order_release);
  LifetimeRegistrations.fetch_add(1, std::memory_order_relaxed);
  CurrentMutator = Raw;
  suspend::setCurrentSlot(&Raw->Suspend);
  if (WatchdogDeadlineNanos != 0 && WatchdogSignal >= 0)
    suspend::unblockInCurrentThread(WatchdogSignal);
  return Raw;
}

void ThreadRegistry::unregisterThread(MutatorThread *Thread) {
  CGC_CHECK(Thread != nullptr && Thread == CurrentMutator,
            "unregister from a thread that is not registered");
  std::lock_guard<std::mutex> Guard(Lock);
  for (size_t I = 0, E = Threads.size(); I != E; ++I) {
    if (Threads[I].get() != Thread)
      continue;
    suspend::setCurrentSlot(nullptr);
    Threads.erase(Threads.begin() + static_cast<ptrdiff_t>(I));
    Count.store(Threads.size(), std::memory_order_release);
    CurrentMutator = nullptr;
    return;
  }
  CGC_CHECK(false, "thread record not found in registry");
}

void ThreadRegistry::publishScanState(MutatorThread *Self) {
  // Flush callee-saved registers into the record's jmp_buf (the classic
  // uncooperative-environment technique; see MachineStack) and publish
  // an address within the current frame as the conservative low bound
  // of the live stack.  The park/blocked frames sit below every mutator
  // frame, so [StackTop, StackBase) covers all live locals.
  setjmp(Self->Registers);
  volatile char Probe = 0;
  Self->StackTop.store(const_cast<const char *>(&Probe),
                       std::memory_order_release);
}

void ThreadRegistry::parkAtSafepoint(MutatorThread *Self) {
  // Deterministic wedged-mutator site: the thread behaves as if it
  // never saw the poll, which is exactly what the watchdog's
  // escalation ladder exists to survive.  Only reached while a stop is
  // actually requested (safepoint() gates on stopRequested).
  if (CGC_INJECT_FAULT(WedgedMutator))
    return;
  publishScanState(Self);
  // Leave Running *before* touching the registry lock: the watchdog's
  // suspend handler parks any Running thread it interrupts, and a
  // thread parked in sigsuspend while holding this lock would wedge
  // the watchdog itself.  In a stopped state the handler only acks.
  Self->setState(MutatorState::AtSafepoint);
  std::unique_lock<std::mutex> Guard(Lock);
  if (!StopFlag.load(std::memory_order_acquire)) {
    // Raced with resume; never parked.
    Self->setState(MutatorState::Running);
    return;
  }
  Self->SafepointsTaken.fetch_add(1, std::memory_order_relaxed);
  SafepointParks.fetch_add(1, std::memory_order_relaxed);
  // Only now, under the lock the collector's wait predicate holds, does
  // the thread count as parked: every store this frame made above the
  // published stack top happens-before the collector scans it.
  Self->Parked = true;
  MutatorParked.notify_all();
  WorldResumed.wait(Guard,
                    [&] { return !StopFlag.load(std::memory_order_acquire); });
  Self->Parked = false;
  Self->setState(MutatorState::Running);
}

void ThreadRegistry::beginBlocked(MutatorThread *Self) {
  publishScanState(Self);
  // As in parkAtSafepoint: enter the stopped state before taking the
  // registry lock, so a suspend signal landing here finds a thread
  // that only needs an ack, never one to park while holding the lock.
  // The seq_cst store/load pair against stopTheWorld's makes skipping
  // the notify safe when no stop is pending (see the header).
  Self->setState(MutatorState::BlockedOnHeap, std::memory_order_seq_cst);
  if (!StopFlag.load(std::memory_order_seq_cst))
    return;
  std::lock_guard<std::mutex> Guard(Lock);
  MutatorParked.notify_all();
}

void ThreadRegistry::endBlocked(MutatorThread *Self) {
  // The caller acquired the heap lock, and StopRequested is only ever
  // raised while that lock is held — so no stop is in flight and the
  // transition back to Running cannot be misread as a missed park.
  Self->setState(MutatorState::Running);
}

ThreadRegistry::HandshakeResult
ThreadRegistry::stopTheWorld(const MutatorThread *Self) {
  HandshakeResult Result;
  const uint64_t Begin = monotonicNanos();
  std::unique_lock<std::mutex> Guard(Lock);
  // Preallocate the timeout trace now, while every mutator is still
  // running free: once the signal rung has suspended a thread at an
  // arbitrary instruction — possibly inside libc malloc, holding an
  // arena lock — the collector must not allocate from the system heap
  // (the bdwgc no-malloc-while-stopped rule), or the push_back below
  // could deadlock the whole handshake.
  if (WatchdogDeadlineNanos != 0)
    Result.Trace.reserve(Threads.size());
  // seq_cst: the collector's half of the Dekker pair with beginBlocked.
  StopFlag.store(true, std::memory_order_seq_cst);
  auto AllParked = [&] {
    for (const std::unique_ptr<MutatorThread> &Thread : Threads) {
      if (Thread.get() == Self)
        continue;
      MutatorState State = Thread->state(std::memory_order_seq_cst);
      if (State == MutatorState::Running ||
          (State == MutatorState::AtSafepoint && !Thread->Parked))
        return false;
    }
    return true;
  };
  // With no watchdog every rung is Never: the loop's wait has no
  // timeout and returns only once the last thread has parked.  Each
  // wait tests AllParked before it sleeps, so the loop needs no test
  // of its own.
  constexpr uint64_t Never = UINT64_MAX;
  const uint64_t Deadline = WatchdogDeadlineNanos;
  const uint64_t WarnAt = Deadline ? Begin + Deadline / 4 : Never;
  const uint64_t SignalAt = Deadline ? Begin + Deadline / 2 : Never;
  const uint64_t FinalAt = Deadline ? Begin + Deadline : Never;
  bool Warned = false;
  bool Signaled = false;
  // Poll interval once the signal rung is live; doubles up to 16 ms so
  // re-sends against a blocked delivery back off.
  uint64_t PollNanos = 1000 * 1000;
  bool AllStopped = false;
  while (!AllStopped) {
    uint64_t Now = monotonicNanos();
    if (Now >= FinalAt)
      break;
    uint64_t WakeAt;
    if (Now < WarnAt)
      WakeAt = WarnAt;
    else if (Now < SignalAt)
      WakeAt = SignalAt;
    else
      WakeAt = std::min(FinalAt, Now + PollNanos);
    // Both waits release the registry lock, so cooperative threads
    // keep parking (and handlers never need the lock at all).
    if (WakeAt == Never) {
      MutatorParked.wait(Guard, AllParked);
      AllStopped = true;
    } else {
      AllStopped = MutatorParked.wait_for(
          Guard, std::chrono::nanoseconds(WakeAt - Now), AllParked);
    }
    if (AllStopped)
      break;
    Now = monotonicNanos();
    if (!Warned && Now >= WarnAt) {
      Warned = true;
      WarnRungs.fetch_add(1, std::memory_order_relaxed);
      if (StallWarn)
        for (const std::unique_ptr<MutatorThread> &Thread : Threads)
          if (Thread.get() != Self && Thread->state() == MutatorState::Running)
            StallWarn(StallWarnCtx, Thread->Id);
    }
    if (Now >= SignalAt && WatchdogSignal >= 0) {
      if (!Signaled) {
        Signaled = true;
        SignalRungs.fetch_add(1, std::memory_order_relaxed);
      }
      // Consume handler acks (the semaphore side of the protocol); the
      // states themselves are re-read below and by AllParked.
      suspend::drainAcks();
      for (const std::unique_ptr<MutatorThread> &Thread : Threads) {
        if (Thread.get() == Self || Thread->state() != MutatorState::Running)
          continue;
        // A previous send has not been answered: this one is a retry.
        if (Thread->Suspend.Pending.load(std::memory_order_acquire))
          SignalSendRetries.fetch_add(1, std::memory_order_relaxed);
        suspend::sendSuspend(Thread->Suspend, WatchdogSignal);
      }
      if (PollNanos < 16u * 1000 * 1000)
        PollNanos *= 2;
    }
  }
  Result.TimedOut = !AllStopped && !AllParked();
  uint64_t Suspended = 0;
  for (const std::unique_ptr<MutatorThread> &Thread : Threads) {
    if (Thread.get() == Self)
      continue;
    const MutatorState State = Thread->state();
    const bool SignalSuspended = State == MutatorState::SignalSuspended;
    if (!Result.TimedOut || State != MutatorState::Running)
      ++Result.MutatorsStopped;
    Suspended += SignalSuspended;
    if (Result.TimedOut) {
      GcHandshakeTraceEntry Entry;
      Entry.ThreadId = Thread->Id;
      Entry.State = static_cast<uint32_t>(State);
      Entry.SafepointsTaken =
          Thread->SafepointsTaken.load(std::memory_order_relaxed);
      Entry.SignalAttempts =
          Thread->Suspend.SignalAttempts.load(std::memory_order_relaxed);
      Entry.SignalSuspended = SignalSuspended;
      Result.Trace.push_back(Entry);
    }
  }
  Result.Nanos = monotonicNanos() - Begin;
  if (Suspended != 0)
    SignalSuspensions.fetch_add(Suspended, std::memory_order_relaxed);
  if (Result.TimedOut) {
    HandshakeTimeouts.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Handshakes counts completed rendezvous only, so "handshakes ==
    // threaded collections" stays true for crash/report consumers.
    Handshakes.fetch_add(1, std::memory_order_relaxed);
    TotalStopNanos.fetch_add(Result.Nanos, std::memory_order_relaxed);
    if (Result.Nanos > MaxStopNanos.load(std::memory_order_relaxed))
      MaxStopNanos.store(Result.Nanos, std::memory_order_relaxed);
  }
  return Result;
}

GcHandshakeStats ThreadRegistry::handshakeStats() const {
  GcHandshakeStats Stats;
  Stats.Handshakes = Handshakes.load(std::memory_order_relaxed);
  Stats.MaxStopNanos = MaxStopNanos.load(std::memory_order_relaxed);
  Stats.TotalStopNanos = TotalStopNanos.load(std::memory_order_relaxed);
  Stats.SignalSuspensions = SignalSuspensions.load(std::memory_order_relaxed);
  Stats.SignalSendRetries = SignalSendRetries.load(std::memory_order_relaxed);
  Stats.WarnRungs = WarnRungs.load(std::memory_order_relaxed);
  Stats.SignalRungs = SignalRungs.load(std::memory_order_relaxed);
  Stats.HandshakeTimeouts = HandshakeTimeouts.load(std::memory_order_relaxed);
  return Stats;
}

void ThreadRegistry::resumeTheWorld() {
  // Under the registry lock do only the cheap, non-blocking work:
  // clear the stop flag and every Pending bit (the park loop's exit
  // condition) and wake the cooperatively parked threads.  The
  // signal-suspended threads' send-and-confirm loops run after the
  // lock is dropped — resumeThread retries with nanosleep backoff for
  // up to tens of milliseconds per slow-to-schedule thread, and
  // holding the lock through that would block parking mutators and
  // registration far past the measured stop time.
  {
    std::lock_guard<std::mutex> Guard(Lock);
    StopFlag.store(false, std::memory_order_release);
    for (const std::unique_ptr<MutatorThread> &Thread : Threads) {
      suspend::SuspendSlot &Slot = Thread->Suspend;
      if (Slot.Pending.load(std::memory_order_acquire))
        Slot.Pending.store(false, std::memory_order_release);
      Slot.SignalAttempts.store(0, std::memory_order_relaxed);
    }
    WorldResumed.notify_all();
  }
  // Safe without the registry lock: the caller holds the heap lock,
  // which serializes registration and unregistration, so the record
  // set is stable; state transitions are lock-free atomics; and a
  // signal-suspended thread cannot unregister (and free its record)
  // until it resumes and then acquires the heap lock we still hold.
  for (const std::unique_ptr<MutatorThread> &Thread : Threads)
    if (Thread->state() == MutatorState::SignalSuspended)
      suspend::resumeThread(Thread->Suspend);
  suspend::drainAcks();
}

void ThreadRegistry::configureWatchdog(uint64_t DeadlineNanos,
                                       int SuspendSignal, StallWarnFn Warn,
                                       void *WarnCtx) {
  std::lock_guard<std::mutex> Guard(Lock);
  WatchdogDeadlineNanos = DeadlineNanos;
  WatchdogSignal = SuspendSignal;
  StallWarn = Warn;
  StallWarnCtx = WarnCtx;
}

void ThreadRegistry::rebuildAfterFork(
    MutatorThread *Survivor,
    const std::function<void(MutatorThread &)> &OnDrop) {
  std::lock_guard<std::mutex> Guard(Lock);
  std::vector<std::unique_ptr<MutatorThread>> Kept;
  for (std::unique_ptr<MutatorThread> &Thread : Threads) {
    if (Thread.get() == Survivor) {
      Thread->Suspend.Pending.store(false, std::memory_order_relaxed);
      Thread->Suspend.SignalAttempts.store(0, std::memory_order_relaxed);
      Thread->Parked = false;
      Thread->setState(MutatorState::Running);
      Kept.push_back(std::move(Thread));
    } else if (OnDrop) {
      OnDrop(*Thread);
    }
  }
  Threads = std::move(Kept);
  Count.store(Threads.size(), std::memory_order_release);
  StopFlag.store(false, std::memory_order_release);
  suspend::reinitAfterFork();
}

} // namespace cgc
