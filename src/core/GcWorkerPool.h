//===- core/GcWorkerPool.h - Persistent GC worker threads ------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent pool of collector worker threads for the parallel Mark
/// phase.  The paper's collector is single-threaded;
/// this is the post-paper scaling layer, and its design goal is that
/// parallelism never perturbs the paper's measurements:
///
///   * Threads are spawned **once**, lazily, the first time a phase
///     asks for more than one worker — never per collection.  Spawn
///     cost previously bounded speedup on the short cycles that
///     dominate Program T and the Figure-3 grids; a parked pool makes
///     a phase hand-off two condition-variable signals.
///   * Between jobs the threads park on a condition variable, so an
///     idle collector burns no CPU.
///   * A phase runs as runOn(N, Fn): the calling (mutator) thread is
///     always worker 0 and the pool contributes workers 1..N-1, so
///     N == 1 never touches the pool at all — the sequential paper
///     configurations cannot even observe its existence.
///
/// The pool is deliberately phase-shaped rather than task-shaped: one
/// job at a time, every worker runs the same function, and runOn is a
/// full barrier.  Collection phases are stop-the-world, so nothing
/// more general is needed, and the barrier is what lets the sequential
/// merge steps that follow each parallel phase (stats folding,
/// blacklist replay) run without locks.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_GCWORKERPOOL_H
#define CGC_CORE_GCWORKERPOOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cgc {

class GcWorkerPool {
public:
  /// Hard cap on workers per job (caller + MaxWorkers - 1 pool
  /// threads).  Matches the historical MarkContext ceiling.
  static constexpr unsigned MaxWorkers = 64;

  GcWorkerPool() = default;
  ~GcWorkerPool();

  GcWorkerPool(const GcWorkerPool &) = delete;
  GcWorkerPool &operator=(const GcWorkerPool &) = delete;

  /// Runs \p Fn(WorkerId) on \p Workers workers (clamped to
  /// [1, MaxWorkers]) and returns once every invocation has finished —
  /// a full barrier.  The calling thread is worker 0; pool threads
  /// (spawned on first need, reused ever after) are workers
  /// 1..Workers-1.  Workers == 1 calls Fn(0) inline without touching
  /// any pool state.  If thread spawning failed, the job runs on the
  /// threads that exist (worst case: inline on the caller).  Not
  /// reentrant: phases never nest.
  void runOn(unsigned Workers, const std::function<void(unsigned)> &Fn);

  /// Negotiates a worker count before a phase shards its work: tries
  /// to ensure \p Desired - 1 pool threads exist and \returns the
  /// count actually available, min(Desired, spawned + 1).  Thread
  /// construction failure (std::system_error, or an injected
  /// WorkerSpawn fault) is not fatal: the phase degrades to fewer
  /// workers — ultimately sequential — with bit-identical results.
  unsigned ensureWorkers(unsigned Desired);

  /// Pool thread spawns that failed over this pool's lifetime.
  uint64_t spawnFailures() const;

  /// Installs a callback invoked (outside the pool lock) each time a
  /// spawn attempt fails, with the lifetime failure total.  The
  /// collector routes this into its exponential-backoff warn limiter,
  /// so a soak run that keeps failing to spawn reports occurrences
  /// 1, 2, 4, 8, ... instead of spamming (or staying silent after the
  /// first).
  void setSpawnFailureCallback(std::function<void(uint64_t)> Fn);

  /// Number of pool threads ever spawned (== currently parked or
  /// working; pool threads live until destruction).  A collector that
  /// has only run sequential phases reports 0.
  unsigned threadsSpawned() const;

  /// Number of jobs dispatched to pool threads (sequential runOn(1)
  /// calls are not jobs).  Tests use this with threadsSpawned() to
  /// prove threads are reused, not respawned.
  uint64_t jobsDispatched() const;

  /// Fork safety.  lockForFork (pthread_atfork prepare) acquires the
  /// pool lock so the fork snapshot never catches a thread mid-wakeup
  /// with the lock held; phases run under the collector's heap lock —
  /// already held by prepare — so no job can be in flight.
  /// unlockForFork releases it again in the parent and the child.
  void lockForFork();
  void unlockForFork();

  /// Child-side fork cleanup: the forked child has none of the pool's
  /// threads (fork preserves only the calling thread), but the copied
  /// bookkeeping says it does.  Drops every thread record — detached;
  /// there is nothing to join — and resets job state so the next
  /// parallel phase respawns from scratch.
  void resetAfterFork();

private:
  void threadMain(unsigned Index, uint64_t StartGeneration);
  /// Grows the pool to \p Count threads; caller must not hold Lock.
  void ensureThreads(unsigned Count);

  mutable std::mutex Lock;
  /// Pool threads wait here for a new job generation (or shutdown).
  std::condition_variable WorkReady;
  /// The runOn caller waits here for the last participant to finish.
  std::condition_variable JobDone;
  std::vector<std::thread> Threads;

  /// Current job, valid while a runOn is in flight.  Guarded by Lock;
  /// read by participants after they observe the new generation.
  const std::function<void(unsigned)> *Job = nullptr;
  /// Bumped per dispatched job; parked threads use it to tell "new
  /// job" from a spurious wakeup.
  uint64_t Generation = 0;
  /// Workers participating in the current job, caller included.
  /// Threads with Index + 1 >= JobWorkers sit the job out.
  unsigned JobWorkers = 0;
  /// Pool threads still inside the current job.
  unsigned Remaining = 0;
  /// Spawn attempts that threw (or were fault-injected to fail).
  uint64_t SpawnFailures = 0;
  /// See setSpawnFailureCallback; copied out of the lock before use.
  std::function<void(uint64_t)> OnSpawnFailure;
  bool ShuttingDown = false;
};

} // namespace cgc

#endif // CGC_CORE_GCWORKERPOOL_H
