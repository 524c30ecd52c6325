//===- bench/soak_chaos.cpp - Deterministic chaos-soak harness ------------===//
//
// Long-running robustness soak: drives the interpreter, Program T, and
// the §4 queue/tree workloads under seed-replayable randomized fault
// arming, with periodic HeapVerifier deep checks and retention-sentinel
// invariant assertions along the way.
//
// Every decision the harness makes — which workload to run, what sizes
// to allocate, which fault site to arm and for how many hits — is drawn
// from one xoshiro256** stream seeded on the command line, so a failure
// replays with a single command.  On any check failure the harness
// prints the exact seed and step:
//
//   SOAK FAILURE: <what failed>
//     at step 117 of 300, seed 42
//     replay: soak_chaos --seed 42 --steps 300  (RelWithDebInfo build)
//
// A digest replays only in the build type that printed it: optimization
// changes the stack words the collector scans conservatively.
//
// The run folds its schedule and every deterministic observable (eval
// results, live-object counts, retained-list counts, tolerated
// allocation failures) into an FNV-1a digest; --replay-check executes
// the whole soak twice and fails unless the digests are bit-identical.
//
// Usage: soak_chaos [--seed S] [--steps N] [--replay-check] [--guarded]
//        [--typed] [--mutator-threads N] [--wedge] [--corrupt]
//        [--redirect] [--json]
// --guarded re-runs every collector in guarded-heap mode
// (GcConfig::DebugGuards): headers, redzones, quarantine, and the
// explicit-free validation ladder are all live, and ~25% of churn
// slots are explicitly freed to keep the quarantine churning.
// --typed adds a descriptor-driven lane: each round builds the same
// pointer-dense list precisely and all-conservatively, asserts the
// typed heap retains a subset, reconciles the per-class scan split,
// and folds both retained counts into the digest.
// --mutator-threads N appends a multi-mutator phase: N registered
// threads run independent seeded churn streams against one collector
// (any of them may trigger a stop-the-world collect), and each
// thread's stream-deterministic counters and value-tag checksum are
// folded into the digest in thread-index order, so --replay-check
// covers the handshake/cache machinery too.
// --wedge appends the stop-the-world hardening lane: each round one
// mutator spins past every safepoint so the handshake must climb the
// watchdog ladder to the signal-suspension rung; only stream-pure
// counters and the per-round suspension delta fold into the digest,
// so the lane replays bit-identically under --replay-check.
// --corrupt appends the corruption-containment lane: every round
// deliberately damages one metadata structure (block header, free-list
// link, page-map entry, or alloc bit — schedule-drawn) at collection
// entry on a sealed-metadata collector running with per-phase
// verification and the repair ladder engaged.  Each corruption must be
// detected, the cycle abandoned and retried after an in-place repair,
// and the heap deep-verified clean — with every live-count and
// repair-counter delta folded into the digest so --replay-check proves
// the whole detect/repair/retry ladder is bit-replayable.
// --redirect appends the malloc-redirection lane: seeded churn through
// the process-global cgc_redirect_* entry points with ~10% hostile
// calls mixed in (foreign frees of real libc chunks, overflowing
// callocs, frees of stack addresses, zero-size and realloc edge
// cases), recorded to a trace and replayed through ExplicitHeap — the
// replay digest, the per-op stream, and the redirect stats deltas all
// fold into the soak digest, so --replay-check proves the hardened
// entry points behave bit-identically under hostility.
// --json writes BENCH_soak_chaos.json for CI trend tracking
// (BENCH_soak_chaos_wedge.json under --wedge,
// BENCH_soak_chaos_corrupt.json under --corrupt,
// BENCH_soak_chaos_redirect.json under --redirect).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "baseline/ExplicitHeap.h"
#include "capi/cgc.h"
#include "core/Collector.h"
#include "core/GcSentinel.h"
#include "interp/Interpreter.h"
#include "redirect/Redirect.h"
#include "redirect/TraceLog.h"
#include "redirect/TraceReplay.h"
#include "structures/BinaryTree.h"
#include "structures/FalseRef.h"
#include "structures/ProgramT.h"
#include "structures/Queue.h"
#include "support/CrashReporter.h"
#include "support/FaultInjection.h"
#include "support/Random.h"
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

struct SoakOptions {
  uint64_t Seed = 1;
  unsigned Steps = 300;
  bool ReplayCheck = false;
  bool Json = false;
  bool Guarded = false;
  /// Adds a typed-marking lane: descriptor-driven allocation rounds
  /// whose subset property and scan-mix reconciliation fold into the
  /// digest (a soak without --typed keeps its historical digest).
  bool Typed = false;
  /// 0 disables the multi-mutator phase (and leaves the digest of an
  /// unthreaded soak untouched).
  unsigned MutatorThreads = 0;
  /// Appends the stop-the-world hardening lane: each round wedges one
  /// mutator in a poll-free spin so the handshake must climb the
  /// watchdog ladder to the signal-suspension rung.
  bool Wedge = false;
  /// Appends the corruption-containment lane: one injected metadata
  /// corruption per step, each detected, repaired, and retried.
  bool Corrupt = false;
  /// Appends the malloc-redirection lane: hostile churn through the
  /// process-global cgc_redirect_* entry points, recorded to a trace
  /// and replayed through ExplicitHeap into the digest.
  bool Redirect = false;
};

/// Everything a completed run reports; digest first, counters for the
/// JSON report after.
struct SoakOutcome {
  bool Failed = false;
  uint64_t Digest = 0xcbf29ce484222325ull; // FNV-1a offset basis.
  uint64_t Collections = 0;
  uint64_t Verifications = 0;
  uint64_t AllocFailuresTolerated = 0;
  uint64_t FaultsArmed = 0;
  uint64_t InterpEvals = 0;
  uint64_t QueueRounds = 0;
  uint64_t TreeProbes = 0;
  uint64_t ProgramTRuns = 0;
  uint64_t TypedRounds = 0;
  uint64_t GuardedFrees = 0;
  uint64_t MutatorAllocs = 0;
  uint64_t MutatorFrees = 0;
  uint64_t MutatorCollections = 0;
  uint64_t MutatorHandshakes = 0;
  uint64_t WedgeRounds = 0;
  uint64_t WedgeSuspensions = 0;
  uint64_t CorruptionsInjected = 0;
  uint64_t CorruptRetries = 0;
  uint64_t CorruptFindingsRepaired = 0;
  uint64_t CorruptFreeListRebuilds = 0;
  uint64_t CorruptPageMapRederivations = 0;
  uint64_t CorruptCountersResynced = 0;
  uint64_t CorruptQuarantined = 0;
  uint64_t CorruptSealTransitions = 0;
  uint64_t RedirectRounds = 0;
  uint64_t RedirectAllocs = 0;
  uint64_t RedirectFrees = 0;
  uint64_t RedirectHostileCalls = 0;
  uint64_t RedirectForeignFrees = 0;
  uint64_t RedirectCallocOverflows = 0;
  uint64_t RedirectTraceRecords = 0;
  uint64_t RedirectReplayEvents = 0;
  GcSentinelStats Sentinel;
  GcGuardStats Guard;
};

class SoakRun {
public:
  SoakRun(const SoakOptions &Opts) : Opts(Opts), Schedule(Opts.Seed) {}

  SoakOutcome run();

private:
  // Workload phases; drawn per step from the schedule stream.
  void stepChurn(Collector &GC, std::vector<uint64_t> &Slots);
  void stepInterpreter(interp::Interpreter &Interp);
  void stepQueue();
  void stepTree();
  void stepProgramT();
  void stepTyped();

  void deepVerify(Collector &GC, const char *Label);
  void checkSentinel(Collector &GC);
  void checkGuards(Collector &GC);
  void runMutatorPhase();
  void runWedgePhase();
  void runCorruptPhase();
  void runRedirectPhase();

  void fold(uint64_t Value) {
    Outcome.Digest ^= Value;
    Outcome.Digest *= 0x100000001b3ull;
  }
  void foldString(const std::string &Text) {
    for (unsigned char C : Text)
      fold(C);
  }

  [[noreturn]] void fail(const char *What, const std::string &Detail = "") {
    std::printf("SOAK FAILURE: %s\n", What);
    if (!Detail.empty())
      std::printf("%s\n", Detail.c_str());
    std::printf("  at step %u of %u, seed %" PRIu64 "\n", Step, Opts.Steps,
                Opts.Seed);
    std::printf("  replay: soak_chaos --seed %" PRIu64 " --steps %u%s%s%s%s%s",
                Opts.Seed, Opts.Steps, Opts.Guarded ? " --guarded" : "",
                Opts.Typed ? " --typed" : "", Opts.Wedge ? " --wedge" : "",
                Opts.Corrupt ? " --corrupt" : "",
                Opts.Redirect ? " --redirect" : "");
    if (Opts.MutatorThreads != 0)
      std::printf(" --mutator-threads %u", Opts.MutatorThreads);
    std::printf("  (%s build)\n", CGC_BUILD_TYPE);
    std::fflush(stdout);
    std::exit(1);
  }

  SoakOptions Opts;
  Rng Schedule;
  SoakOutcome Outcome;
  unsigned Step = 0;
};

GcConfig soakConfig(bool WithSentinel, bool Guarded) {
  GcConfig Config;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Config.GcAtStartup = false;
  if (Guarded) {
    // The whole soak rides on guarded slots: headers and redzones are
    // re-validated at every sweep and deep verification, and the small
    // quarantine forces constant poison re-checks and evictions.
    Config.DebugGuards = true;
    Config.GuardFatal = true;
    Config.QuarantineSlots = 64;
  }
  if (WithSentinel) {
    // Aggressive policy so the soak actually exercises the ladder: a
    // short window and a low floor turn churn surges into storms.
    Config.Sentinel.Enabled = true;
    Config.Sentinel.WindowCollections = 4;
    Config.Sentinel.GrowthFloorBytes = 256 << 10;
    Config.Sentinel.CalmCollections = 3;
  }
  return Config;
}

void SoakRun::deepVerify(Collector &GC, const char *Label) {
  HeapVerifyReport Report = GC.verifyHeapReport();
  ++Outcome.Verifications;
  if (!Report.clean())
    fail(Label, Report.str());
}

void SoakRun::checkSentinel(Collector &GC) {
  GcSentinel *Sentinel = GC.sentinel();
  if (!Sentinel)
    fail("sentinel disappeared from a sentinel-enabled collector");
  const GcSentinelStats &S = Sentinel->stats();
  if (S.CurrentLevel > 4)
    fail("sentinel escalated past the top of the ladder");
  // Each ladder rung fires at most once per climb, in order; a climb
  // that reached level N must have passed through every rung below it.
  uint64_t Climbs = S.StackClearForces;
  if (S.BlacklistRefreshes > Climbs || S.InteriorTightenings > Climbs ||
      S.IncidentsRaised > Climbs)
    fail("sentinel escalation rungs fired out of order");
  if (S.CurrentLevel > 0 && Climbs == 0)
    fail("sentinel reports a level without any recorded escalation");
  Outcome.Sentinel = S;
}

/// A guarded soak runs only correct code, so any tripped guard counter
/// is a collector bug: either the guard machinery misfired or the heap
/// really was corrupted.  Folding the benign counters into the digest
/// also makes replay-check cover the guard bookkeeping itself.
void SoakRun::checkGuards(Collector &GC) {
  if (!Opts.Guarded)
    return;
  const GcGuardStats &G = GC.guardStats();
  if (G.HeaderSmashes || G.RedzoneSmashes || G.DoubleFrees ||
      G.InvalidFrees || G.UseAfterFreeWrites)
    fail("guard violation raised on a correct workload",
         "header=" + std::to_string(G.HeaderSmashes) +
             " redzone=" + std::to_string(G.RedzoneSmashes) +
             " double-free=" + std::to_string(G.DoubleFrees) +
             " invalid-free=" + std::to_string(G.InvalidFrees) +
             " uaf=" + std::to_string(G.UseAfterFreeWrites));
  fold(G.GuardedAllocations);
  fold(G.GuardedFrees);
  fold(G.QuarantineFlushes);
  Outcome.Guard = G;
}

/// Random allocation churn with faults armed: the one phase that runs
/// with the injector live, so every allocation is written to tolerate
/// failure.
void SoakRun::stepChurn(Collector &GC, std::vector<uint64_t> &Slots) {
  if (FaultInjectionCompiled && Schedule.nextBool(0.5)) {
    // Finite FailCount: the fault is a transient the collector must
    // ride through, not a permanently broken arena.  Only the
    // allocation-path sites are drawn here: WedgedMutator (and any
    // later site) is meaningless on a single-threaded phase, and
    // pinning the draw range keeps historical soak digests stable.
    constexpr unsigned NumChaosFaultSites = 4;
    static_assert(static_cast<unsigned>(FaultSite::WedgedMutator) ==
                      NumChaosFaultSites,
                  "allocation-path fault sites must stay contiguous below "
                  "the thread faults");
    // A drawn RetiredFaultSite arms nothing but still folds, so the
    // schedule and the digest keep their historical values.
    FaultSite Site =
        static_cast<FaultSite>(Schedule.nextBelow(NumChaosFaultSites));
    uint64_t Skip = Schedule.nextBelow(16);
    uint64_t Fails = Schedule.nextInRange(1, 8);
    if (static_cast<unsigned>(Site) != RetiredFaultSite) {
      FaultInjector::instance().arm(Site, Skip, Fails);
      ++Outcome.FaultsArmed;
    }
    fold(static_cast<uint64_t>(Site) ^ (Skip << 8) ^ (Fails << 16));
  }
  // Formerly the mark-thread count; the draw is kept (and discarded)
  // so every later draw, and the digest, is unchanged.
  if (Schedule.nextBool(0.25))
    Schedule.nextInRange(1, 4);

  // A surge leaves slots populated (live bytes climb, feeding the
  // sentinel window); a purge clears most of them.
  bool Surge = Schedule.nextBool(0.6);
  unsigned Ops = static_cast<unsigned>(Schedule.nextInRange(32, 192));
  for (unsigned I = 0; I != Ops; ++I) {
    size_t Slot = Schedule.pickIndex(Slots.size());
    // Guarded runs exercise the explicit-free path too: each pointer
    // lives in exactly one slot, so this never double-frees, and every
    // free rides the full validation ladder into the quarantine.
    if (Opts.Guarded && Slots[Slot] && Schedule.nextBool(0.25)) {
      GC.deallocate(reinterpret_cast<void *>(Slots[Slot]));
      Slots[Slot] = 0;
      ++Outcome.GuardedFrees;
      fold(0xf4eeull ^ (uint64_t(Slot) << 16));
      continue;
    }
    if (!Surge && Schedule.nextBool(0.7)) {
      Slots[Slot] = 0;
      continue;
    }
    size_t Bytes = Schedule.nextBool(0.05)
                       ? Schedule.nextInRange(16 << 10, 64 << 10)
                       : Schedule.nextInRange(16, 4096);
    void *Ptr = GC.allocate(Bytes);
    if (!Ptr) {
      // An armed arena fault surfaced as a failed allocation after the
      // OOM ladder ran dry — tolerated, counted, and folded so replays
      // agree on exactly which allocations failed.
      ++Outcome.AllocFailuresTolerated;
      fold(0xdeadull ^ (uint64_t(I) << 16));
      continue;
    }
    std::memset(Ptr, 0, Bytes < 64 ? Bytes : 64);
    Slots[Slot] = reinterpret_cast<uint64_t>(Ptr);
  }

  if (Schedule.nextBool(0.5)) {
    CollectionStats Cycle = GC.collect("soak-churn");
    ++Outcome.Collections;
    fold(Cycle.ObjectsLive);
    checkSentinel(GC);
    checkGuards(GC);
  }
  FaultInjector::instance().disarmAll();
}

void SoakRun::stepInterpreter(interp::Interpreter &Interp) {
  // Parameterized programs with computable answers: the eval result is
  // a pure function of the schedule, so folding it into the digest
  // turns any GC bug that frees a live interpreter temporary into a
  // digest mismatch (or an error flag) instead of silent corruption.
  char Program[256];
  uint64_t Expected;
  switch (Schedule.nextBelow(3)) {
  case 0: {
    unsigned N = static_cast<unsigned>(Schedule.nextInRange(50, 400));
    std::snprintf(Program, sizeof(Program),
                  "(define build (lambda (n acc) (if (= n 0) acc "
                  "(build (- n 1) (cons n acc))))) (length (build %u '()))",
                  N);
    Expected = N;
    break;
  }
  case 1: {
    unsigned N = static_cast<unsigned>(Schedule.nextInRange(3, 30));
    std::snprintf(Program, sizeof(Program),
                  "(define sum (lambda (n) (if (= n 0) 0 "
                  "(+ n (sum (- n 1)))))) (sum %u)",
                  N);
    Expected = uint64_t(N) * (N + 1) / 2;
    break;
  }
  default: {
    unsigned A = static_cast<unsigned>(Schedule.nextInRange(2, 40));
    unsigned B = static_cast<unsigned>(Schedule.nextInRange(2, 40));
    std::snprintf(Program, sizeof(Program),
                  "(length (append (build-list %u) (build-list %u)))", A, B);
    Expected = A + B;
    break;
  }
  }
  interp::Value Result = Interp.evalString(Program);
  if (Interp.failed())
    fail("interpreter error during soak", Interp.errorMessage());
  std::string Text = Interp.toString(Result);
  if (Text != std::to_string(Expected))
    fail("interpreter produced a wrong answer (GC corruption?)",
         std::string("program: ") + Program + "\n  got " + Text +
             ", expected " + std::to_string(Expected));
  foldString(Text);
  ++Outcome.InterpEvals;
  if (Schedule.nextBool(0.3)) {
    Interp.collector().collect("soak-interp");
    ++Outcome.Collections;
  }
}

void SoakRun::stepQueue() {
  Collector GC(soakConfig(false, Opts.Guarded));
  bool Clear = Schedule.nextBool(0.5);
  uint64_t Churn = Schedule.nextInRange(200, 2000);
  GcQueue Q(GC, Clear);
  for (uint64_t I = 0; I != 8; ++I)
    Q.enqueue(I);
  PlantedRef Pin(GC);
  Pin.setPointer(Q.head());
  for (uint64_t I = 0; I != Churn; ++I) {
    Q.enqueue(I);
    Q.dequeue();
  }
  CollectionStats Cycle = GC.collect("soak-queue");
  ++Outcome.Collections;
  ++Outcome.QueueRounds;
  // §4's bound: cleared links keep the live set flat no matter the
  // churn; a regression here is a correctness bug, not noise.
  if (Clear && Cycle.ObjectsLive > 64)
    fail("cleared-link queue retained unbounded garbage");
  fold(Cycle.ObjectsLive);
  deepVerify(GC, "heap verification failed after queue churn");
  checkGuards(GC);
}

void SoakRun::stepTree() {
  Collector GC(soakConfig(false, Opts.Guarded));
  unsigned Height = static_cast<unsigned>(Schedule.nextInRange(6, 10));
  BalancedTree Tree(GC, Height);
  Tree.dropRoot();
  PlantedRef Ref(GC);
  // The paper's §4 claim is about the *expectation*: "the expected
  // number of vertices retained ... is approximately equal to the
  // height of the tree".  A single unlucky probe can land near the
  // root and legitimately retain a whole subtree, so the assertion is
  // statistical: out of 32 probes, at most a quarter may retain more
  // than 4x the height (the true fraction is about 1/(4*height)).
  constexpr unsigned Probes = 32;
  unsigned Exceeded = 0;
  for (unsigned I = 0; I != Probes; ++I) {
    Ref.setOffset(Tree.nodeOffset(Schedule.pickIndex(Tree.nodeCount())));
    CollectionStats Marked = GC.measureLiveness();
    if (Marked.ObjectsMarked > Tree.nodeCount() + 8)
      fail("false reference retained more objects than the tree holds");
    if (Marked.ObjectsMarked > uint64_t(4) * Height + 8)
      ++Exceeded;
    fold(Marked.ObjectsMarked);
    ++Outcome.TreeProbes;
  }
  if (Exceeded > Probes / 4)
    fail("false references into balanced tree retained far more than "
         "the expected O(height)");
}

void SoakRun::stepProgramT() {
  Collector GC(soakConfig(false, Opts.Guarded));
  ProgramTConfig Config;
  Config.NumLists = static_cast<unsigned>(Schedule.nextInRange(8, 24));
  Config.CellsPerList = 500;
  ProgramT T(GC, /*Stack=*/nullptr, Config);
  ProgramTResult R = T.run();
  if (R.OutOfMemory)
    fail("Program T exhausted a 64 MB arena at toy scale");
  fold((uint64_t(R.ListsBuilt) << 32) | R.ListsRetained);
  ++Outcome.ProgramTRuns;
  Outcome.Collections += R.CollectionsRun;
  deepVerify(GC, "heap verification failed after Program T");
  checkGuards(GC);
}

/// The --typed lane: the same pointer-dense list is built twice — once
/// through its precise descriptor, once with every descriptor demoted
/// to conservative (GcConfig::AllConservativeDescriptors) — and the
/// paper-level claim is asserted directly: the typed heap retains a
/// subset of the conservative heap, because integer payloads that spell
/// heap addresses stop retaining anything once the descriptor says
/// they are not pointers.  Both retained counts and the per-class
/// scan-mix reconciliation fold into the digest.
void SoakRun::stepTyped() {
  struct TypedNode {
    uint64_t Payload; // Never a pointer; filled with decoy addresses.
    TypedNode *Next;
    uint64_t Noise; // Never a pointer either.
  };
  static_assert(sizeof(TypedNode) == 3 * sizeof(uint64_t), "");
  unsigned Count = static_cast<unsigned>(Schedule.nextInRange(64, 512));
  unsigned Decoys = static_cast<unsigned>(Schedule.nextInRange(8, 64));

  auto build = [&](bool AllConservative) -> uint64_t {
    GcConfig Config = soakConfig(false, Opts.Guarded);
    Config.AllConservativeDescriptors = AllConservative;
    Collector GC(Config);
    LayoutId Node = GC.registerObjectLayout({false, true, false},
                                            sizeof(TypedNode));
    // Decoys: real heap objects that go dead immediately; their
    // addresses live on only inside non-pointer words of the list.
    std::vector<uint64_t> DecoyAddrs;
    for (unsigned I = 0; I != Decoys; ++I)
      DecoyAddrs.push_back(
          reinterpret_cast<uint64_t>(GC.allocate(64)));
    TypedNode *Head = nullptr;
    for (unsigned I = 0; I != Count; ++I) {
      auto *N = static_cast<TypedNode *>(GC.allocateTyped(Node));
      if (!N)
        fail("typed allocation failed in a 64 MB arena");
      N->Payload = DecoyAddrs[I % DecoyAddrs.size()];
      N->Next = Head;
      N->Noise = DecoyAddrs[(I + 1) % DecoyAddrs.size()];
      Head = N;
    }
    PlantedRef Pin(GC);
    Pin.setPointer(Head);
    CollectionStats Cycle = GC.collect("soak-typed");
    ++Outcome.Collections;
    constexpr unsigned Cons =
        static_cast<unsigned>(DescriptorClass::Conservative);
    constexpr unsigned Precise =
        static_cast<unsigned>(DescriptorClass::Precise);
    constexpr unsigned PtrFree =
        static_cast<unsigned>(DescriptorClass::PointerFree);
    if (Cycle.ScanWordsByClass[Cons] + Cycle.ScanWordsByClass[Precise] !=
            Cycle.HeapWordsScanned ||
        Cycle.ScanWordsByClass[PtrFree] != 0)
      fail("per-class scan counters do not reconcile with the total");
    if (AllConservative && Cycle.ScanWordsByClass[Precise] != 0)
      fail("all-conservative mode still traced through a descriptor");
    if (!AllConservative && Cycle.ScanWordsByClass[Precise] == 0)
      fail("typed heap never dispatched a precise scan");
    fold(Cycle.ObjectsLive);
    fold(Cycle.ScanWordsByClass[Precise]);
    deepVerify(GC, "heap verification failed after the typed lane");
    checkGuards(GC);
    return Cycle.ObjectsLive;
  };

  uint64_t TypedLive = build(/*AllConservative=*/false);
  uint64_t ConservativeLive = build(/*AllConservative=*/true);
  if (TypedLive > ConservativeLive)
    fail("typed heap retained more than its conservative twin",
         "  typed=" + std::to_string(TypedLive) +
             " conservative=" + std::to_string(ConservativeLive));
  ++Outcome.TypedRounds;
}

/// The multi-mutator phase: N registered threads run independent
/// seeded churn streams against one shared collector, any of which may
/// trigger a stop-the-world collect at any moment.  Every value a
/// thread folds is a pure function of its own stream — operation
/// counts, sizes, and the tag checksum over objects it re-reads before
/// dropping — never of the interleaving, so folding the per-thread
/// digests in thread-index order keeps the whole soak seed-replayable.
void SoakRun::runMutatorPhase() {
  struct MutatorLocal {
    uint64_t Digest = 0xcbf29ce484222325ull;
    uint64_t Allocs = 0;
    uint64_t Frees = 0;
    uint64_t Collections = 0;
    std::string Error;
    void fold(uint64_t Value) {
      Digest ^= Value;
      Digest *= 0x100000001b3ull;
    }
  };

  unsigned NumThreads = Opts.MutatorThreads;
  GcConfig Config = soakConfig(/*WithSentinel=*/false, Opts.Guarded);
  Config.MutatorThreads = NumThreads;
  Collector GC(Config);
  std::vector<std::vector<uint64_t>> Windows(
      NumThreads, std::vector<uint64_t>(96, 0));
  std::vector<RootId> WindowRoots;
  for (std::vector<uint64_t> &W : Windows)
    WindowRoots.push_back(GC.addRootRange(
        W.data(), W.data() + W.size(), RootEncoding::Native64,
        RootSource::Client, "soak-mutator-window"));

  std::vector<MutatorLocal> Locals(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([this, &GC, &Windows, &Locals, T] {
      MutatorLocal &Local = Locals[T];
      std::vector<uint64_t> &Window = Windows[T];
      GcThreadScope Scope(GC);
      if (!Scope.registered()) {
        Local.Error = "mutator thread refused by the registry";
        return;
      }
      // Per-thread stream: unrelated to the schedule stream and to
      // every other thread's, so each thread's decisions replay
      // identically whatever the interleaving.
      Rng R(Opts.Seed ^ (0x9e3779b97f4a7c15ull * (T + 1)));
      std::vector<uint64_t> Tags(Window.size(), 0);
      for (unsigned Step = 0; Step != 1200; ++Step) {
        size_t Slot = R.pickIndex(Window.size());
        uint64_t Choice = R.nextBelow(100);
        if (Choice < 70) { // Allocate into a slot, re-check the old tag.
          if (Window[Slot] != 0) {
            uint64_t Seen = *reinterpret_cast<uint64_t *>(Window[Slot]);
            if (Seen != Tags[Slot]) {
              Local.Error = "mutator tag mismatch: a rooted object was "
                            "reclaimed or clobbered under churn";
              return;
            }
            Local.fold(Seen);
          }
          size_t Bytes = R.nextInRange(16, 1024);
          void *Ptr = GC.allocate(Bytes);
          if (!Ptr) {
            Local.Error = "mutator allocation failed in a 64 MB arena";
            return;
          }
          uint64_t Tag = (uint64_t(T + 1) << 48) ^ (uint64_t(Step) << 16) ^
                         uint64_t(Slot);
          *reinterpret_cast<uint64_t *>(Ptr) = Tag;
          Window[Slot] = reinterpret_cast<uint64_t>(Ptr);
          Tags[Slot] = Tag;
          ++Local.Allocs;
        } else if (Choice < 85) { // Drop (or explicitly free) a slot.
          if (Window[Slot] != 0) {
            if (Opts.Guarded && R.nextBool(0.5)) {
              GC.deallocate(reinterpret_cast<void *>(Window[Slot]));
              ++Local.Frees;
            }
            Window[Slot] = 0;
            Tags[Slot] = 0;
          }
        } else if (Choice < 88) { // Handshake-collect from this thread.
          GC.collect("soak-mutator");
          ++Local.Collections;
        } else {
          GC.safepoint();
        }
      }
      Local.fold(Local.Allocs);
      Local.fold(Local.Frees);
      Local.fold(Local.Collections);
    });
  for (std::thread &Th : Threads)
    Th.join();

  for (unsigned T = 0; T != NumThreads; ++T) {
    if (!Locals[T].Error.empty())
      fail("multi-mutator phase failed",
           "  thread " + std::to_string(T) + ": " + Locals[T].Error);
    // Thread-index order: the fold sequence is independent of which
    // thread finished first.
    fold(Locals[T].Digest);
    Outcome.MutatorAllocs += Locals[T].Allocs;
    Outcome.MutatorFrees += Locals[T].Frees;
    Outcome.MutatorCollections += Locals[T].Collections;
  }
  Outcome.Collections += Outcome.MutatorCollections;
  Outcome.MutatorHandshakes = GC.handshakeStats().Handshakes;
  if (GC.threadRegistry().registeredCount() != 0)
    fail("mutator threads left registry records behind");
  fold(GC.threadRegistry().lifetimeRegistrations());

  // With every thread gone there are no conservative stack roots left;
  // dropping the windows must drain the heap to zero.
  for (std::vector<uint64_t> &W : Windows)
    std::fill(W.begin(), W.end(), 0);
  GC.collect("soak-mutator-drain");
  ++Outcome.Collections;
  if (GC.allocatedBytes() != 0)
    fail("multi-mutator heap failed to drain",
         "  allocatedBytes=" + std::to_string(GC.allocatedBytes()));
  fold(GC.allocatedBytes());
  deepVerify(GC, "deep verification failed after the multi-mutator phase");
  checkGuards(GC);
  for (RootId Id : WindowRoots)
    GC.removeRootRange(Id);
}

/// The --wedge lane: each round one mutator deliberately never reaches
/// a safepoint, so the stop-the-world handshake must climb the
/// watchdog ladder to the signal-suspension rung.  Worker 0 churns a
/// seeded stream, raises a flag, then spins with no polls; worker 1
/// churns the same way and then parks politely on polls; the main
/// thread collects once the flag is up.  Only interleaving-independent
/// values fold into the digest: each worker's stream digest in index
/// order and the per-round suspension delta (always exactly the one
/// wedged thread — the cooperative worker polls every iteration and
/// the signal rung only fires at deadline/2).
void SoakRun::runWedgePhase() {
  struct WedgeLocal {
    uint64_t Digest = 0xcbf29ce484222325ull;
    uint64_t Allocs = 0;
    std::string Error;
    void fold(uint64_t Value) {
      Digest ^= Value;
      Digest *= 0x100000001b3ull;
    }
  };

  constexpr unsigned Rounds = 4;
  GcConfig Config = soakConfig(/*WithSentinel=*/false, Opts.Guarded);
  Config.MutatorThreads = 2;
  // Signal rung at deadline/2 = 50 ms: a huge margin for the
  // cooperative worker to park on a poll first, short enough that the
  // lane stays fast.
  Config.HandshakeDeadlineMs = 100;
  Collector GC(Config);

  std::vector<std::vector<uint64_t>> Windows(2,
                                             std::vector<uint64_t>(64, 0));
  std::vector<RootId> Roots;
  for (std::vector<uint64_t> &W : Windows)
    Roots.push_back(GC.addRootRange(W.data(), W.data() + W.size(),
                                    RootEncoding::Native64,
                                    RootSource::Client,
                                    "soak-wedge-window"));

  for (unsigned Round = 0; Round != Rounds; ++Round) {
    std::atomic<bool> WedgedUp{false};
    std::atomic<bool> CoopUp{false};
    std::atomic<bool> Resume{false};
    WedgeLocal Locals[2];
    // Per-thread stream: a pure function of (seed, round, index), so
    // the folded digest is independent of scheduling.
    auto churn = [&](unsigned T, WedgeLocal &Local) {
      Rng R(Opts.Seed ^ (0xd1b54a32d192ed03ull * (Round * 2 + T + 1)));
      std::vector<uint64_t> &Window = Windows[T];
      for (unsigned I = 0; I != 160; ++I) {
        size_t Slot = R.pickIndex(Window.size());
        size_t Bytes = R.nextInRange(16, 512);
        void *Ptr = GC.allocate(Bytes);
        if (!Ptr) {
          Local.Error = "wedge-lane allocation failed in a 64 MB arena";
          return false;
        }
        std::memset(Ptr, 0, 16);
        Window[Slot] = reinterpret_cast<uint64_t>(Ptr);
        Local.fold((uint64_t(Slot) << 32) ^ Bytes);
        ++Local.Allocs;
      }
      return true;
    };

    std::thread Wedger([&] {
      GcThreadScope Scope(GC);
      if (!Scope.registered()) {
        Locals[0].Error = "wedge thread refused by the registry";
        WedgedUp.store(true, std::memory_order_release);
        return;
      }
      if (!churn(0, Locals[0])) {
        WedgedUp.store(true, std::memory_order_release);
        return;
      }
      // The wedge: raise the flag, then spin without ever polling a
      // safepoint.  The only way to stop this thread is the watchdog's
      // preemptive signal suspension.
      WedgedUp.store(true, std::memory_order_release);
      while (!Resume.load(std::memory_order_acquire)) {
      }
    });
    std::thread Cooperative([&] {
      GcThreadScope Scope(GC);
      if (!Scope.registered()) {
        Locals[1].Error = "cooperative thread refused by the registry";
        CoopUp.store(true, std::memory_order_release);
        return;
      }
      bool Churned = churn(1, Locals[1]);
      // Published only once churn is done: a tail-of-churn allocation
      // can trigger its own collection, and that handshake would
      // signal-suspend the already-spinning wedger.  The suspension
      // window below must not race with such a collection, or the
      // folded delta stops being schedule-independent.
      CoopUp.store(true, std::memory_order_release);
      if (!Churned)
        return;
      while (!Resume.load(std::memory_order_acquire))
        GC.safepoint();
    });

    while (!WedgedUp.load(std::memory_order_acquire) ||
           !CoopUp.load(std::memory_order_acquire))
      std::this_thread::yield();
    uint64_t SuspendsBefore = GC.handshakeStats().SignalSuspensions;
    GC.collect("soak-wedge");
    ++Outcome.Collections;
    uint64_t Delta = GC.handshakeStats().SignalSuspensions - SuspendsBefore;
    Resume.store(true, std::memory_order_release);
    Wedger.join();
    Cooperative.join();
    for (WedgeLocal &Local : Locals)
      if (!Local.Error.empty())
        fail("wedge phase failed", "  " + Local.Error);
    if (Delta == 0)
      fail("wedged mutator was never signal-suspended; the watchdog "
           "escalation did not fire");
    fold(Locals[0].Digest);
    fold(Locals[1].Digest);
    fold(Delta);
    Outcome.WedgeSuspensions += Delta;
    ++Outcome.WedgeRounds;
  }

  if (GC.threadRegistry().registeredCount() != 0)
    fail("wedge threads left registry records behind");
  for (std::vector<uint64_t> &W : Windows)
    std::fill(W.begin(), W.end(), 0);
  GC.collect("soak-wedge-drain");
  ++Outcome.Collections;
  deepVerify(GC, "deep verification failed after the wedge phase");
  checkGuards(GC);
  for (RootId Id : Roots)
    GC.removeRootRange(Id);
}

/// The --corrupt lane: one deliberate metadata corruption per step on
/// a sealed-metadata collector running per-phase verification with the
/// repair ladder engaged (RepairFatal off).  Each round churns a
/// rooted slot window, arms one of the four metadata-corruption sites
/// (drawn from the schedule), and collects: the injected damage lands
/// at collection entry, the verifier catches it at the first phase
/// boundary, the cycle is abandoned, the heap repaired in place, and
/// the cycle retried — all of which must leave the retained set intact
/// and the heap deep-verified clean, every single round.  Live counts
/// and every repair-counter delta fold into the digest, so
/// --replay-check proves the containment ladder itself replays
/// bit-identically.
void SoakRun::runCorruptPhase() {
  if (!FaultInjectionCompiled)
    fail("--corrupt requires a build with CGC_FAULT_INJECTION");

  // Victim selection inside injectMetadataFaults keys off the
  // process-global injector's cumulative fired counts; zero them so a
  // --replay-check second run corrupts the exact same blocks.
  FaultInjector::instance().resetStats();

  GcConfig Config = soakConfig(/*WithSentinel=*/false, /*Guarded=*/false);
  Config.SealMetadata = true;
  Config.VerifyEveryCollection = true;
  Config.RepairFatal = false;
  Collector GC(Config);
  std::vector<uint64_t> Slots(96, 0);
  RootId SlotsRoot = GC.addRootRange(
      Slots.data(), Slots.data() + Slots.size(), RootEncoding::Native64,
      RootSource::Client, "soak-corrupt-slots");

  // Seed survivors across several size classes, then collect once
  // clean: every later round has live blocks to flip headers in and
  // listed partial blocks to delist.
  for (size_t Slot = 0; Slot != Slots.size(); ++Slot)
    Slots[Slot] = reinterpret_cast<uint64_t>(
        GC.allocate(Schedule.nextInRange(16, 512)));
  GC.collect("soak-corrupt-seed");
  ++Outcome.Collections;

  constexpr FaultSite MetadataSites[] = {
      FaultSite::MetadataHeaderFlip, FaultSite::MetadataFreeListSmash,
      FaultSite::MetadataPageMapClobber, FaultSite::MetadataAllocBitFlip};

  for (unsigned Round = 0; Round != Opts.Steps; ++Round) {
    // Churn: overwrite and drop slots so the heap shape keeps moving,
    // but always leave survivors for the fault to target.
    unsigned Ops = static_cast<unsigned>(Schedule.nextInRange(16, 64));
    for (unsigned I = 0; I != Ops; ++I) {
      size_t Slot = Schedule.pickIndex(Slots.size());
      if (Schedule.nextBool(0.3)) {
        Slots[Slot] = 0;
        continue;
      }
      void *Ptr = GC.allocate(Schedule.nextInRange(16, 2048));
      if (!Ptr)
        fail("corrupt-lane allocation failed in a 64 MB arena");
      Slots[Slot] = reinterpret_cast<uint64_t>(Ptr);
    }

    FaultSite Site = MetadataSites[Schedule.nextBelow(4)];
    fold(static_cast<uint64_t>(Site));
    uint64_t FiredBefore = FaultInjector::instance().stats(Site).Fired;
    GcRepairStats Before = GC.repairStats();

    FaultInjector::instance().arm(Site, 0, 1);
    CollectionStats Cycle = GC.collect("soak-corrupt");
    FaultInjector::instance().disarmAll();
    ++Outcome.Collections;

    if (FaultInjector::instance().stats(Site).Fired != FiredBefore + 1)
      fail("metadata corruption site never fired");
    ++Outcome.CorruptionsInjected;

    GcRepairStats After = GC.repairStats();
    if (After.CollectionsRetried != Before.CollectionsRetried + 1)
      fail("injected corruption went unreported: the cycle was neither "
           "abandoned nor retried");
    if (After.DegradedMode)
      fail("a repairable corruption degraded the collector");
    Outcome.CorruptRetries += After.CollectionsRetried -
                              Before.CollectionsRetried;
    Outcome.CorruptFindingsRepaired +=
        After.FindingsRepaired - Before.FindingsRepaired;
    Outcome.CorruptFreeListRebuilds +=
        After.FreeListRebuilds - Before.FreeListRebuilds;
    Outcome.CorruptPageMapRederivations +=
        After.PageMapRederivations - Before.PageMapRederivations;
    Outcome.CorruptCountersResynced +=
        After.CountersResynced - Before.CountersResynced;
    Outcome.CorruptQuarantined += (After.BlocksQuarantined -
                                   Before.BlocksQuarantined) +
                                  (After.PagesQuarantined -
                                   Before.PagesQuarantined);

    // Everything the ladder did is a pure function of the schedule:
    // fold it all, so a replay that detects, repairs, or retries even
    // one round differently is a digest mismatch.
    fold(Cycle.ObjectsLive);
    fold(After.FindingsRepaired - Before.FindingsRepaired);
    fold(After.FreeListRebuilds - Before.FreeListRebuilds);
    fold(After.PageMapRederivations - Before.PageMapRederivations);
    fold(After.CountersResynced - Before.CountersResynced);
    fold(After.BlocksQuarantined - Before.BlocksQuarantined);

    deepVerify(GC, "deep verification failed after a repaired corruption");
  }

  Outcome.CorruptSealTransitions = GC.repairStats().SealTransitions;
  GC.removeRootRange(SlotsRoot);
}

/// The --redirect lane: seeded churn through the process-global
/// malloc-redirection entry points with ~10% hostile calls mixed in
/// (foreign frees of real libc chunks and stack addresses, overflowing
/// callocs, zero-size and realloc edge cases), recorded to a trace and
/// replayed through ExplicitHeap.  Everything folded is a pure
/// function of the schedule: per-op draws, payload tags verified
/// before every free, the redirect stats DELTAS (the layer is
/// process-global and survives into a --replay-check second run, so
/// absolute counters would never reproduce), and the replay digest of
/// the recorded trace.
void SoakRun::runRedirectPhase() {
  if (!cgc_redirect_install())
    fail("--redirect: the redirect layer fell back to libc");
  cgc_collector *GC = cgc_redirect_collector();
  if (!GC)
    fail("--redirect: install succeeded but the collector handle is null");

  // Hostile frees must not reach the real libc free (passing it a
  // stack address aborts the process); warn mode raises the incident
  // and leaves the pointer untouched, which also lets the lane free
  // its decoy libc chunks itself afterwards.
  cgc_redirect_set_foreign_free_mode(CGC_FOREIGN_FREE_WARN);

  cgc_redirect_stats Before;
  cgc_redirect_get_stats(&Before);

  char TracePath[128];
  std::snprintf(TracePath, sizeof(TracePath),
                "soak_redirect_%" PRIu64 ".trace", Opts.Seed);
  if (!cgc_redirect_trace_start(TracePath))
    fail("--redirect: trace recording would not start");

  // The slot table is an explicit root of the redirect collector, so
  // survivors stay live across its own collection cycles no matter
  // where the compiler parks this frame.
  constexpr size_t NumSlots = 96;
  constexpr size_t StampMax = 24;
  void *Slots[NumSlots] = {};
  unsigned char Tags[NumSlots] = {};
  size_t Stamps[NumSlots] = {};
  unsigned RootHandle =
      cgc_add_roots(GC, &Slots[0], &Slots[NumSlots]);

  uint64_t ForeignFrees = 0, Overflows = 0;

  auto VerifySlot = [&](size_t Slot) {
    const unsigned char *P = static_cast<const unsigned char *>(Slots[Slot]);
    for (size_t I = 0; I != Stamps[Slot]; ++I)
      if (P[I] != Tags[Slot])
        fail("--redirect: payload stamp clobbered under redirect churn");
  };

  for (unsigned Round = 0; Round != Opts.Steps; ++Round) {
    ++Outcome.RedirectRounds;
    unsigned Ops = static_cast<unsigned>(Schedule.nextInRange(8, 32));
    for (unsigned I = 0; I != Ops; ++I) {
      if (Schedule.nextBelow(100) < 10) {
        // A hostile call: the kind folds, and every expectation about
        // how the hardened entry point absorbs it is checked.
        uint64_t Kind = Schedule.nextBelow(6);
        fold(0x4ed12ec7 ^ Kind);
        ++Outcome.RedirectHostileCalls;
        switch (Kind) {
        case 0: {
          // Foreign free of a real libc chunk: incident, untouched.
          void *Alien = std::malloc(64);
          if (Alien) {
            static_cast<unsigned char *>(Alien)[0] = 0xa5;
            cgc_redirect_free(Alien);
            if (static_cast<unsigned char *>(Alien)[0] != 0xa5)
              fail("--redirect: warn-mode foreign free touched the chunk");
            std::free(Alien);
            ++ForeignFrees;
          }
          break;
        }
        case 1: {
          // Foreign free of a stack address.
          unsigned char Local[32] = {};
          cgc_redirect_free(Local);
          ++ForeignFrees;
          break;
        }
        case 2: {
          // Overflowing calloc: refused with errno=ENOMEM, never a
          // short allocation.
          errno = 0;
          void *P = cgc_redirect_calloc(SIZE_MAX / 2, 16);
          if (P || errno != ENOMEM)
            fail("--redirect: overflowing calloc was not refused");
          ++Overflows;
          break;
        }
        case 3:
          cgc_redirect_free(nullptr);
          break;
        case 4: {
          // Zero-size malloc: a real, freeable pointer (glibc
          // contract).
          void *P = cgc_redirect_malloc(0);
          if (!P)
            fail("--redirect: malloc(0) returned NULL");
          cgc_redirect_free(P);
          break;
        }
        default: {
          // realloc(NULL, n) behaves as malloc; realloc(p, 0) frees
          // and returns NULL.
          void *P = cgc_redirect_realloc(nullptr, 48);
          if (!P)
            fail("--redirect: realloc(NULL, n) returned NULL");
          if (cgc_redirect_realloc(P, 0) != nullptr)
            fail("--redirect: realloc(p, 0) did not return NULL");
          break;
        }
        }
        continue;
      }

      size_t Slot = Schedule.pickIndex(NumSlots);
      if (!Slots[Slot]) {
        uint64_t Kind = Schedule.nextBelow(4);
        size_t Bytes = static_cast<size_t>(Schedule.nextInRange(32, 1024));
        unsigned char Tag =
            static_cast<unsigned char>(1 + Schedule.nextBelow(250));
        void *P = nullptr;
        switch (Kind) {
        case 0:
          P = cgc_redirect_malloc(Bytes);
          break;
        case 1:
          P = cgc_redirect_calloc(1, Bytes);
          if (P)
            for (size_t B = 0; B != StampMax; ++B)
              if (static_cast<unsigned char *>(P)[B] != 0)
                fail("--redirect: calloc returned dirty memory");
          break;
        case 2: {
          std::string Text(Bytes - 1, static_cast<char>(Tag));
          P = cgc_redirect_strdup(Text.c_str());
          break;
        }
        default:
          if (cgc_redirect_posix_memalign(&P, 64, Bytes) != 0)
            P = nullptr;
          else if (reinterpret_cast<uintptr_t>(P) % 64 != 0)
            fail("--redirect: posix_memalign ignored the alignment");
          break;
        }
        if (!P)
          fail("--redirect: allocation failed under the 1 GiB default");
        if (cgc_redirect_malloc_usable_size(P) < Bytes)
          fail("--redirect: usable size smaller than the request");
        std::memset(P, Tag, StampMax);
        Slots[Slot] = P;
        Tags[Slot] = Tag;
        Stamps[Slot] = StampMax;
        fold(Kind);
        fold(Bytes);
        fold(Tag);
        ++Outcome.RedirectAllocs;
      } else {
        VerifySlot(Slot);
        fold(Tags[Slot]);
        if (Schedule.nextBool(0.6)) {
          cgc_redirect_free(Slots[Slot]);
          Slots[Slot] = nullptr;
          ++Outcome.RedirectFrees;
        } else {
          size_t NewBytes =
              static_cast<size_t>(Schedule.nextInRange(64, 2048));
          void *P = cgc_redirect_realloc(Slots[Slot], NewBytes);
          if (!P)
            fail("--redirect: realloc failed under the 1 GiB default");
          // The stamp sits in the preserved prefix; it must survive
          // the move byte-for-byte.
          for (size_t B = 0; B != StampMax; ++B)
            if (static_cast<unsigned char *>(P)[B] != Tags[Slot])
              fail("--redirect: realloc lost the preserved prefix");
          std::memset(P, Tags[Slot], StampMax);
          Slots[Slot] = P;
          fold(NewBytes);
          ++Outcome.RedirectAllocs;
        }
      }
    }
  }

  // Drain every survivor through the verified-free path so the next
  // --replay-check run starts from an empty slot table.
  for (size_t Slot = 0; Slot != NumSlots; ++Slot) {
    if (!Slots[Slot])
      continue;
    VerifySlot(Slot);
    fold(Tags[Slot]);
    cgc_redirect_free(Slots[Slot]);
    Slots[Slot] = nullptr;
    ++Outcome.RedirectFrees;
  }
  cgc_remove_roots(GC, RootHandle);
  cgc_redirect_trace_stop();
  cgc_redirect_set_foreign_free_mode(CGC_FOREIGN_FREE_PASSTHROUGH);

  cgc_redirect_stats After;
  cgc_redirect_get_stats(&After);
  if (After.foreign_frees - Before.foreign_frees != ForeignFrees)
    fail("--redirect: a hostile free went uncounted as foreign");
  if (After.calloc_overflows - Before.calloc_overflows != Overflows)
    fail("--redirect: a calloc overflow went uncounted");
  Outcome.RedirectForeignFrees = ForeignFrees;
  Outcome.RedirectCallocOverflows = Overflows;
  Outcome.RedirectTraceRecords = After.trace_records - Before.trace_records;
  // Stats deltas are pure functions of the schedule; fold them all so
  // a replay that routes even one call differently mismatches.
  fold(After.gc_allocs - Before.gc_allocs);
  fold(After.gc_frees - Before.gc_frees);
  fold(After.foreign_frees - Before.foreign_frees);
  fold(After.foreign_reallocs - Before.foreign_reallocs);
  fold(After.calloc_overflows - Before.calloc_overflows);
  fold(After.failed_allocs - Before.failed_allocs);
  fold(After.trace_records - Before.trace_records);

  // Replay the recorded trace through ExplicitHeap and fold the
  // replay digest: the hostile churn must round-trip through the
  // trace format bit-identically, foreign frees and all.
  TraceReader Reader;
  if (!Reader.load(TracePath))
    fail("--redirect: the recorded trace would not load");
  struct LaneAllocator final : ReplayAllocator {
    baseline::ExplicitHeap Heap{256ull << 20,
                                baseline::ExplicitHeap::Policy::LifoFit};
    void *allocate(size_t Bytes) override { return Heap.malloc(Bytes); }
    void deallocate(void *Ptr) override { Heap.free(Ptr); }
  } Replayer;
  ReplayResult Replay = replayTrace(Reader, Replayer);
  if (Replay.Malformed)
    fail("--redirect: the recorded trace replayed as malformed");
  if (Replay.FailedAllocs != 0)
    fail("--redirect: ExplicitHeap refused a replayed allocation");
  Outcome.RedirectReplayEvents = Replay.Events;
  fold(Replay.Digest);
  fold(Replay.Events);
  fold(Replay.AllocEvents);
  fold(Replay.FreeEvents);
  std::remove(TracePath);
}

SoakOutcome SoakRun::run() {
  // The churn collector and the interpreter live for the whole soak;
  // queue/tree/Program T rounds use fresh throwaway collectors.
  Collector ChurnGC(soakConfig(/*WithSentinel=*/true, Opts.Guarded));
  std::vector<uint64_t> Slots(192, 0);
  RootId SlotsRoot = ChurnGC.addRootRange(
      Slots.data(), Slots.data() + Slots.size(), RootEncoding::Native64,
      RootSource::Client, "soak-churn-slots");

  Collector InterpGC(soakConfig(/*WithSentinel=*/true, Opts.Guarded));
  InterpGC.enableMachineStackScanning();
  interp::Interpreter Interp(InterpGC);
  Interp.evalString("(define build-list (lambda (n) (if (= n 0) '() "
                    "(cons n (build-list (- n 1))))))");

  constexpr unsigned VerifyEvery = 25;
  for (Step = 1; Step <= Opts.Steps; ++Step) {
    uint64_t Choice = Schedule.nextBelow(100);
    fold(Choice);
    if (Choice < 45)
      stepChurn(ChurnGC, Slots);
    else if (Choice < 70)
      stepInterpreter(Interp);
    else if (Choice < 85)
      stepQueue();
    else if (Choice < 95)
      stepTree();
    else if (Opts.Typed && Choice >= 98)
      stepTyped();
    else
      stepProgramT();

    if (Step % VerifyEvery == 0) {
      deepVerify(ChurnGC, "periodic deep verification failed (churn heap)");
      deepVerify(InterpGC,
                 "periodic deep verification failed (interpreter heap)");
    }
  }

  FaultInjector::instance().disarmAll();
  deepVerify(ChurnGC, "final deep verification failed (churn heap)");
  deepVerify(InterpGC, "final deep verification failed (interpreter heap)");
  checkSentinel(ChurnGC);
  // Reported guard stats are the churn heap's (checked last): the one
  // collector whose slots go through explicit frees and the quarantine.
  checkGuards(InterpGC);
  checkGuards(ChurnGC);
  ChurnGC.removeRootRange(SlotsRoot);
  if (Opts.MutatorThreads != 0)
    runMutatorPhase();
  if (Opts.Wedge)
    runWedgePhase();
  if (Opts.Corrupt)
    runCorruptPhase();
  if (Opts.Redirect)
    runRedirectPhase();
  return Outcome;
}

} // namespace

int main(int Argc, char **Argv) {
  SoakOptions Opts;
  Opts.Json = cgcbench::consumeJsonFlag(Argc, Argv);
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--seed") && I + 1 < Argc)
      Opts.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--steps") && I + 1 < Argc)
      Opts.Steps = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--replay-check"))
      Opts.ReplayCheck = true;
    else if (!std::strcmp(Argv[I], "--guarded"))
      Opts.Guarded = true;
    else if (!std::strcmp(Argv[I], "--typed"))
      Opts.Typed = true;
    else if (!std::strcmp(Argv[I], "--mutator-threads") && I + 1 < Argc)
      Opts.MutatorThreads = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--wedge"))
      Opts.Wedge = true;
    else if (!std::strcmp(Argv[I], "--corrupt"))
      Opts.Corrupt = true;
    else if (!std::strcmp(Argv[I], "--redirect"))
      Opts.Redirect = true;
    else {
      std::fprintf(stderr,
                   "usage: soak_chaos [--seed S] [--steps N] "
                   "[--replay-check] [--guarded] [--typed] "
                   "[--mutator-threads N] [--wedge] [--corrupt] "
                   "[--redirect] [--json]\n");
      return 2;
    }
  }
  if (Opts.Corrupt && !FaultInjectionCompiled) {
    std::fprintf(stderr, "soak_chaos: --corrupt needs a build with "
                         "CGC_FAULT_INJECTION enabled\n");
    return 2;
  }
  if (Opts.Steps == 0)
    Opts.Steps = 300;

  cgcbench::printBanner(
      "soak chaos",
      "randomized workloads + fault injection + deep verification",
      "n/a (robustness extension; any failure replays from its seed)");

  // Crashes mid-soak should leave a post-mortem trail, not just a core.
  crash::install();

  std::printf("seed %" PRIu64 ", %u steps, fault hooks %s, guards %s, "
              "%s build\n",
              Opts.Seed, Opts.Steps,
              FaultInjectionCompiled ? "compiled in" : "compiled out",
              Opts.Guarded ? "on" : "off", CGC_BUILD_TYPE);

  SoakOutcome First = SoakRun(Opts).run();
  std::printf("digest %016" PRIx64 "\n", First.Digest);
  if (Opts.ReplayCheck) {
    SoakOutcome Second = SoakRun(Opts).run();
    if (Second.Digest != First.Digest) {
      std::printf("REPLAY MISMATCH: %016" PRIx64 " vs %016" PRIx64
                  " for seed %" PRIu64 "\n",
                  First.Digest, Second.Digest, Opts.Seed);
      return 1;
    }
    std::printf("replay check: second run reproduced the digest "
                "bit-for-bit\n");
  }

  std::printf("collections %" PRIu64 ", deep verifications %" PRIu64
              ", faults armed %" PRIu64 ", alloc failures tolerated %" PRIu64
              "\n",
              First.Collections, First.Verifications, First.FaultsArmed,
              First.AllocFailuresTolerated);
  if (Opts.MutatorThreads != 0)
    std::printf("mutators: %u threads, allocs %" PRIu64 ", frees %" PRIu64
                ", collects %" PRIu64 ", handshakes %" PRIu64 "\n",
                Opts.MutatorThreads, First.MutatorAllocs, First.MutatorFrees,
                First.MutatorCollections, First.MutatorHandshakes);
  if (Opts.Wedge)
    std::printf("wedge lane: %" PRIu64 " rounds, %" PRIu64
                " signal suspensions (every handshake climbed to the "
                "signal rung)\n",
                First.WedgeRounds, First.WedgeSuspensions);
  if (Opts.Corrupt)
    std::printf("corrupt lane: %" PRIu64 " corruptions injected, %" PRIu64
                " cycles retried, %" PRIu64 " findings repaired (%" PRIu64
                " free-list rebuilds, %" PRIu64 " page-map rederivations, "
                "%" PRIu64 " counter resyncs, %" PRIu64 " quarantined), "
                "%" PRIu64 " seal transitions, zero aborts\n",
                First.CorruptionsInjected, First.CorruptRetries,
                First.CorruptFindingsRepaired, First.CorruptFreeListRebuilds,
                First.CorruptPageMapRederivations,
                First.CorruptCountersResynced, First.CorruptQuarantined,
                First.CorruptSealTransitions);
  if (Opts.Redirect)
    std::printf("redirect lane: %" PRIu64 " rounds, %" PRIu64
                " allocs, %" PRIu64 " frees, %" PRIu64 " hostile calls "
                "(%" PRIu64 " foreign frees, %" PRIu64 " calloc "
                "overflows), %" PRIu64 " trace records replayed as "
                "%" PRIu64 " events\n",
                First.RedirectRounds, First.RedirectAllocs,
                First.RedirectFrees, First.RedirectHostileCalls,
                First.RedirectForeignFrees, First.RedirectCallocOverflows,
                First.RedirectTraceRecords, First.RedirectReplayEvents);
  if (Opts.Typed)
    std::printf("typed lane: %" PRIu64 " rounds (retained-subset and "
                "scan-mix checks all passed)\n",
                First.TypedRounds);
  std::printf("sentinel: storms %" PRIu64 ", stack-clear %" PRIu64
              ", blacklist-refresh %" PRIu64 ", tighten %" PRIu64
              ", incidents %" PRIu64 ", de-escalations %" PRIu64 "\n",
              First.Sentinel.StormsDetected, First.Sentinel.StackClearForces,
              First.Sentinel.BlacklistRefreshes,
              First.Sentinel.InteriorTightenings,
              First.Sentinel.IncidentsRaised, First.Sentinel.Deescalations);
  if (Opts.Guarded)
    std::printf("guards: explicit frees %" PRIu64
                ", churn-heap allocations %" PRIu64 ", frees %" PRIu64
                ", quarantine flushes %" PRIu64 ", violations 0\n",
                First.GuardedFrees, First.Guard.GuardedAllocations,
                First.Guard.GuardedFrees, First.Guard.QuarantineFlushes);

  if (Opts.Json) {
    char Digest[32];
    std::snprintf(Digest, sizeof(Digest), "%016" PRIx64, First.Digest);
    cgcbench::JsonReport Report(
        Opts.Redirect
            ? "soak chaos redirect"
            : Opts.Corrupt
                  ? "soak chaos corrupt"
                  : Opts.Wedge ? "soak chaos wedge"
                               : Opts.Guarded ? "soak chaos guarded"
                                              : Opts.Typed ? "soak chaos typed"
                                                           : "soak chaos");
    Report.set("seed", Opts.Seed);
    Report.set("steps", uint64_t(Opts.Steps));
    Report.set("build_type", std::string(CGC_BUILD_TYPE));
    Report.set("digest", std::string(Digest));
    Report.set("fault_hooks_compiled", uint64_t(FaultInjectionCompiled));
    Report.set("collections", First.Collections);
    Report.set("deep_verifications", First.Verifications);
    Report.set("faults_armed", First.FaultsArmed);
    Report.set("alloc_failures_tolerated", First.AllocFailuresTolerated);
    Report.set("interp_evals", First.InterpEvals);
    Report.set("queue_rounds", First.QueueRounds);
    Report.set("tree_probes", First.TreeProbes);
    Report.set("program_t_runs", First.ProgramTRuns);
    Report.set("typed", uint64_t(Opts.Typed ? 1 : 0));
    if (Opts.Typed)
      Report.set("typed_rounds", First.TypedRounds);
    Report.set("sentinel_storms", First.Sentinel.StormsDetected);
    Report.set("sentinel_stack_clear_forces",
               First.Sentinel.StackClearForces);
    Report.set("sentinel_blacklist_refreshes",
               First.Sentinel.BlacklistRefreshes);
    Report.set("sentinel_interior_tightenings",
               First.Sentinel.InteriorTightenings);
    Report.set("sentinel_incidents", First.Sentinel.IncidentsRaised);
    Report.set("sentinel_deescalations", First.Sentinel.Deescalations);
    Report.set("guarded", uint64_t(Opts.Guarded ? 1 : 0));
    Report.set("wedge", uint64_t(Opts.Wedge ? 1 : 0));
    if (Opts.Wedge) {
      Report.set("wedge_rounds", First.WedgeRounds);
      Report.set("wedge_suspensions", First.WedgeSuspensions);
    }
    Report.set("corrupt", uint64_t(Opts.Corrupt ? 1 : 0));
    if (Opts.Corrupt) {
      Report.set("corruptions_injected", First.CorruptionsInjected);
      Report.set("corrupt_retries", First.CorruptRetries);
      Report.set("corrupt_findings_repaired", First.CorruptFindingsRepaired);
      Report.set("corrupt_free_list_rebuilds", First.CorruptFreeListRebuilds);
      Report.set("corrupt_page_map_rederivations",
                 First.CorruptPageMapRederivations);
      Report.set("corrupt_counters_resynced", First.CorruptCountersResynced);
      Report.set("corrupt_quarantined", First.CorruptQuarantined);
      Report.set("corrupt_seal_transitions", First.CorruptSealTransitions);
    }
    Report.set("redirect", uint64_t(Opts.Redirect ? 1 : 0));
    if (Opts.Redirect) {
      Report.set("redirect_rounds", First.RedirectRounds);
      Report.set("redirect_allocs", First.RedirectAllocs);
      Report.set("redirect_frees", First.RedirectFrees);
      Report.set("redirect_hostile_calls", First.RedirectHostileCalls);
      Report.set("redirect_foreign_frees", First.RedirectForeignFrees);
      Report.set("redirect_calloc_overflows", First.RedirectCallocOverflows);
      Report.set("redirect_trace_records", First.RedirectTraceRecords);
      Report.set("redirect_replay_events", First.RedirectReplayEvents);
    }
    Report.set("mutator_threads", uint64_t(Opts.MutatorThreads));
    if (Opts.MutatorThreads != 0) {
      Report.set("mutator_allocs", First.MutatorAllocs);
      Report.set("mutator_frees", First.MutatorFrees);
      Report.set("mutator_collections", First.MutatorCollections);
      Report.set("mutator_handshakes", First.MutatorHandshakes);
    }
    if (Opts.Guarded) {
      Report.set("guarded_explicit_frees", First.GuardedFrees);
      Report.set("guard_allocations", First.Guard.GuardedAllocations);
      Report.set("guard_frees", First.Guard.GuardedFrees);
      Report.set("guard_quarantine_flushes", First.Guard.QuarantineFlushes);
      Report.set("guard_slop_bytes", First.Guard.GuardSlopBytes);
    }
    std::string Path = Report.write();
    std::printf("json: %s\n", Path.empty() ? "(write failed)" : Path.c_str());
  }
  std::printf("SOAK PASS\n");
  return 0;
}
