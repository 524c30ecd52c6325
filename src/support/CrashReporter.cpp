//===- support/CrashReporter.cpp - Async-signal-safe post-mortems ---------===//

#include "support/CrashReporter.h"
#include "core/GcPhase.h"
#include "support/FaultInjection.h"
#include <csignal>
#include <cstring>
#include <unistd.h>

using namespace cgc;

namespace {

//===----------------------------------------------------------------------===//
// Async-signal-safe formatting
//===----------------------------------------------------------------------===//
// snprintf is not on the POSIX async-signal-safe list (it may take
// locale locks or allocate), so the report is assembled with these
// write-only helpers into a caller-owned buffer flushed via write(2).

struct LineBuffer {
  static constexpr size_t Size = 512;
  char Data[Size];
  size_t Len = 0;

  void append(const char *Text) {
    while (*Text && Len + 1 < Size)
      Data[Len++] = *Text++;
  }

  void appendU64(uint64_t Value) {
    char Digits[20];
    unsigned N = 0;
    do {
      Digits[N++] = static_cast<char>('0' + Value % 10);
      Value /= 10;
    } while (Value != 0);
    while (N != 0 && Len + 1 < Size)
      Data[Len++] = Digits[--N];
  }

  void flush(int Fd) {
    if (Len == 0)
      return;
    // Partial writes and EINTR: keep going; a truncated report still
    // beats none, and the handler must never loop forever.
    size_t Off = 0;
    for (unsigned Attempts = 0; Off < Len && Attempts < 16; ++Attempts) {
      ssize_t Wrote = ::write(Fd, Data + Off, Len - Off);
      if (Wrote <= 0)
        break;
      Off += static_cast<size_t>(Wrote);
    }
    Len = 0;
  }
};

const char *phaseNameOrNone(int Phase) {
  if (Phase < 0 || Phase >= static_cast<int>(NumGcPhases))
    return "none";
  return gcPhaseName(static_cast<GcPhase>(Phase));
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

std::atomic<GcCrashState *> Registry[crash::MaxTrackedCollectors];

//===----------------------------------------------------------------------===//
// Signal handling
//===----------------------------------------------------------------------===//

std::atomic<bool> Installed{false};
/// Re-entry gate: a fault inside the dump must not recurse.
std::atomic<bool> Dumping{false};
/// The collector's reserved suspend signal (and its resume companion,
/// Sig + 1), kept blocked while a crash handler dumps so a concurrent
/// stop-the-world cannot interleave with the report.  -1 when none.
std::atomic<int> ReservedSignal{-1};
struct sigaction PreviousSegv;
struct sigaction PreviousAbrt;

void restoreAndReraise(int Signal) {
  const struct sigaction *Previous =
      Signal == SIGSEGV ? &PreviousSegv : &PreviousAbrt;
  ::sigaction(Signal, Previous, nullptr);
  ::raise(Signal);
}

void handleFatalSignal(int Signal) {
  if (!Dumping.exchange(true, std::memory_order_relaxed))
    crash::dump(STDERR_FILENO, Signal);
  restoreAndReraise(Signal);
}

/// (Re-)applies the SIGSEGV/SIGABRT registrations with the current
/// reserved-signal mask.  SavePrevious only on the very first install:
/// later re-applies (reserved-signal updates, fork children) must not
/// clobber the saved chain with our own handler.
void applyHandlers(bool SavePrevious) {
  struct sigaction Action;
  std::memset(&Action, 0, sizeof(Action));
  Action.sa_handler = handleFatalSignal;
  ::sigemptyset(&Action.sa_mask);
  int Reserved = ReservedSignal.load(std::memory_order_relaxed);
  if (Reserved > 0) {
    ::sigaddset(&Action.sa_mask, Reserved);
    ::sigaddset(&Action.sa_mask, Reserved + 1);
  }
  // No SA_RESETHAND: the handler restores the previous disposition
  // itself so chained handlers (gtest death tests, sanitizers) still
  // run after the report.  A crash landing inside the suspend handler
  // follows the same chain: dump, restore, re-raise.
  ::sigaction(SIGSEGV, &Action, SavePrevious ? &PreviousSegv : nullptr);
  ::sigaction(SIGABRT, &Action, SavePrevious ? &PreviousAbrt : nullptr);
}

} // namespace

namespace cgc::crash {

bool registerState(GcCrashState *State) {
  for (unsigned I = 0; I != MaxTrackedCollectors; ++I) {
    GcCrashState *Expected = nullptr;
    if (Registry[I].compare_exchange_strong(Expected, State,
                                            std::memory_order_acq_rel))
      return true;
  }
  return false;
}

void unregisterState(GcCrashState *State) {
  for (unsigned I = 0; I != MaxTrackedCollectors; ++I) {
    GcCrashState *Expected = State;
    if (Registry[I].compare_exchange_strong(Expected, nullptr,
                                            std::memory_order_acq_rel))
      return;
  }
}

void install() {
  if (Installed.exchange(true, std::memory_order_acq_rel))
    return;
  applyHandlers(/*SavePrevious=*/true);
}

void setReservedSignal(int Sig) {
  ReservedSignal.store(Sig, std::memory_order_relaxed);
  if (Installed.load(std::memory_order_acquire))
    applyHandlers(/*SavePrevious=*/false);
}

void reinstallAfterFork() {
  // A fork during a dump leaves the latch set in the child; clear it so
  // the child's first crash still reports.
  Dumping.store(false, std::memory_order_relaxed);
  if (Installed.load(std::memory_order_acquire))
    applyHandlers(/*SavePrevious=*/false);
}

void dump(int Fd, int Signal) {
  LineBuffer Line;
  Line.append("=== cgc crash report");
  if (Signal >= 0) {
    Line.append(" (signal ");
    Line.appendU64(static_cast<uint64_t>(Signal));
    Line.append(")");
  }
  Line.append(" ===\n");
  Line.flush(Fd);

  // Process-global fault-injection state first: armed sites explain
  // "why was the heap exhausted" before any per-collector numbers.
  if (FaultInjectionCompiled) {
    Line.append("fault sites:");
    bool Any = false;
    for (unsigned I = 0; I != NumFaultSites; ++I) {
      FaultSite Site = static_cast<FaultSite>(I);
      uint64_t Fired = FaultInjector::instance().firedRelaxed(Site);
      bool Armed = FaultInjector::instance().armedRelaxed(Site);
      if (!Armed && Fired == 0)
        continue;
      Any = true;
      Line.append(" ");
      Line.append(faultSiteName(Site));
      Line.append(Armed ? "(armed," : "(disarmed,");
      Line.append("fired=");
      Line.appendU64(Fired);
      Line.append(")");
    }
    if (!Any)
      Line.append(" none armed or fired");
    Line.append("\n");
    Line.flush(Fd);
  }

  for (unsigned I = 0; I != MaxTrackedCollectors; ++I) {
    GcCrashState *State = Registry[I].load(std::memory_order_acquire);
    if (!State)
      continue;
    uint64_t Id = State->CollectorId.load(std::memory_order_relaxed);
    if (Id == 0)
      continue;

    Line.append("collector #");
    Line.appendU64(Id);
    Line.append(": phase=");
    Line.append(
        phaseNameOrNone(State->Phase.load(std::memory_order_relaxed)));
    Line.append(" collection=");
    Line.appendU64(State->CollectionIndex.load(std::memory_order_relaxed));
    Line.append("\n");
    Line.flush(Fd);

    Line.append("  heap: live-bytes=");
    Line.appendU64(State->LiveBytes.load(std::memory_order_relaxed));
    Line.append(" committed-bytes=");
    Line.appendU64(State->CommittedBytes.load(std::memory_order_relaxed));
    Line.append(" blacklisted-pages=");
    Line.appendU64(
        State->BlacklistedPages.load(std::memory_order_relaxed));
    Line.append("\n");
    Line.flush(Fd);

    // Heap-scan mix of the last cycle: words/candidates per descriptor
    // class.  All zeros before the first collection; pointer-free stays
    // zero by construction.
    static const char *const ClassTags[3] = {" conservative=", " precise=",
                                             " pointer-free="};
    Line.append("  scan-mix:");
    for (unsigned C = 0; C != 3; ++C) {
      Line.append(ClassTags[C]);
      Line.appendU64(
          State->ScanWordsByClass[C].load(std::memory_order_relaxed));
      Line.append("/");
      Line.appendU64(
          State->ScanCandidatesByClass[C].load(std::memory_order_relaxed));
    }
    Line.append("\n");
    Line.flush(Fd);

    Line.append("  resilience: heap-exhausted=");
    Line.appendU64(
        State->HeapExhaustedCollections.load(std::memory_order_relaxed));
    Line.append(" emergency=");
    Line.appendU64(
        State->EmergencyCollections.load(std::memory_order_relaxed));
    Line.append(" oom=");
    Line.appendU64(State->OomEvents.load(std::memory_order_relaxed));
    Line.append(" warnings=");
    Line.appendU64(State->WarningsIssued.load(std::memory_order_relaxed));
    Line.append("\n");
    Line.flush(Fd);

    uint64_t Registered =
        State->RegisteredThreads.load(std::memory_order_relaxed);
    uint64_t Handshakes = State->Handshakes.load(std::memory_order_relaxed);
    uint64_t Owned = State->OwnedBlocks.load(std::memory_order_relaxed);
    if (Registered != 0 || Handshakes != 0 || Owned != 0) {
      Line.append("  threads: registered=");
      Line.appendU64(Registered);
      Line.append(" handshakes=");
      Line.appendU64(Handshakes);
      Line.append(" owned-blocks=");
      Line.appendU64(Owned);
      Line.append(" signal-suspends=");
      Line.appendU64(
          State->SignalSuspensions.load(std::memory_order_relaxed));
      Line.append(" stalls=");
      Line.appendU64(
          State->HandshakeTimeouts.load(std::memory_order_relaxed));
      Line.append(" max-stop-us=");
      Line.appendU64(State->MaxStopNanos.load(std::memory_order_relaxed) /
                     1000);
      Line.append("\n");
      Line.flush(Fd);
    }

    Line.append("  sentinel: level=");
    Line.appendU64(State->SentinelLevel.load(std::memory_order_relaxed));
    Line.append(" incidents=");
    Line.appendU64(
        State->SentinelIncidents.load(std::memory_order_relaxed));
    Line.append("\n");
    Line.flush(Fd);

    if (State->GuardedMode.load(std::memory_order_relaxed) != 0) {
      Line.append("  guards: violations=");
      Line.appendU64(
          State->GuardViolations.load(std::memory_order_relaxed));
      Line.append(" quarantine-depth=");
      Line.appendU64(
          State->QuarantineDepth.load(std::memory_order_relaxed));
      Line.append("\n");
      Line.flush(Fd);
      const char *Kind =
          State->LastGuardKind.load(std::memory_order_relaxed);
      if (Kind) {
        const char *Site =
            State->LastGuardSite.load(std::memory_order_relaxed);
        Line.append("  last-violation: ");
        Line.append(Kind);
        Line.append(" seqno=");
        Line.appendU64(
            State->LastGuardSeqno.load(std::memory_order_relaxed));
        Line.append(" site=");
        Line.append(Site ? Site : "(untagged)");
        Line.append("\n");
        Line.flush(Fd);
      }
    }

    GcEventRecord Records[EventRing::Capacity];
    unsigned Count = State->Events.snapshot(Records, EventRing::Capacity);
    Line.append("  events (last ");
    Line.appendU64(Count);
    Line.append(" of ");
    Line.appendU64(State->Events.pushed());
    Line.append("):\n");
    Line.flush(Fd);
    for (unsigned R = 0; R != Count; ++R) {
      const GcEventRecord &Record = Records[R];
      Line.append("    [");
      Line.appendU64(Record.Sequence);
      Line.append("] ");
      Line.append(gcEventKindName(Record.kind()));
      Line.append(" phase=");
      Line.append(phaseNameOrNone(Record.phase()));
      Line.append(" collection=");
      Line.appendU64(Record.collectionIndex());
      Line.append(" value=");
      Line.appendU64(Record.Value);
      Line.append("\n");
      Line.flush(Fd);
    }
  }

  Line.append("=== end cgc crash report ===\n");
  Line.flush(Fd);
}

} // namespace cgc::crash
