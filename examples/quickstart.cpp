//===- examples/quickstart.cpp - First steps with the collector ----------===//
//
// Builds a linked structure with gcNew, drops references, collects, and
// prints what the collector reclaimed.  Demonstrates:
//   * real machine-stack scanning (locals keep objects alive),
//   * pointer-free allocation,
//   * finalizers,
//   * collection statistics.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcNew.h"
#include <cstdio>

namespace {

struct Node {
  Node *Next;
  long Value;
};

/// Builds a chain of N nodes; only the head pointer (a stack local in
/// the caller) keeps it alive.
Node *buildChain(cgc::Collector &GC, int Length) {
  Node *Head = nullptr;
  for (int I = 0; I != Length; ++I) {
    Node *N = cgc::gcNew<Node>(GC);
    N->Next = Head;
    N->Value = I;
    Head = N;
  }
  return Head;
}

long sumChain(const Node *Head) {
  long Sum = 0;
  for (const Node *N = Head; N; N = N->Next)
    Sum += N->Value;
  return Sum;
}

} // namespace

int main() {
  cgc::GcConfig Config;
  Config.StackClearing = cgc::StackClearMode::Cheap;
  cgc::Collector GC(Config);
  GC.enableMachineStackScanning();

  std::printf("== cgc quickstart ==\n");
  std::printf("heap window: %llu MiB reserved, heap arena at offset 0x%llx\n",
              (unsigned long long)(GC.arena().size() >> 20),
              (unsigned long long)GC.config().heapBaseOffset());

  // 1. Allocate a million list nodes reachable from a stack local.
  Node *Head = buildChain(GC, 1'000'000);
  std::printf("built 1M-node chain, sum=%ld, heap=%llu KiB allocated\n",
              sumChain(Head),
              (unsigned long long)(GC.allocatedBytes() >> 10));

  // 2. Collect while the chain is reachable: nothing is reclaimed.
  cgc::CollectionStats Live = GC.collect("chain live");
  std::printf("collect with chain live:   %8llu objects freed, "
              "%8llu live\n",
              (unsigned long long)Live.ObjectsSweptFree,
              (unsigned long long)Live.ObjectsLive);

  // 3. Pointer-free data: a big buffer the collector never scans.
  auto *Buffer = static_cast<unsigned char *>(
      GC.allocate(8 << 20, cgc::ObjectKind::PointerFree));
  Buffer[0] = 0xAB; // Touch it so the page is real.

  // 4. A finalized object: its destructor runs after it dies.
  struct Session {
    ~Session() { std::printf("finalizer: session closed\n"); }
    int Id = 7;
  };
  (void)cgc::gcNewFinalized<Session>(GC);

  // 5. Drop the chain and collect again.
  Head = nullptr;
  Buffer = nullptr;
  cgc::CollectionStats Dead = GC.collect("chain dropped");
  std::printf("collect after dropping:    %8llu objects freed, "
              "%8llu live (%llu KiB)\n",
              (unsigned long long)Dead.ObjectsSweptFree,
              (unsigned long long)Dead.ObjectsLive,
              (unsigned long long)(Dead.BytesLive >> 10));
  std::printf("ran %zu finalizer(s)\n", GC.runFinalizers());

  std::printf("blacklisted pages: %llu (near-miss candidates seen: %llu)\n",
              (unsigned long long)GC.blacklistedPageCount(),
              (unsigned long long)GC.blacklistStats().CandidatesNoted);
  // The mark time is the RootScan, Mark and BlacklistPromote phases.
  const cgc::GcLifetimeStats &Life = GC.lifetimeStats();
  uint64_t MarkNanos = 0;
  for (cgc::GcPhase Phase : {cgc::GcPhase::RootScan, cgc::GcPhase::Mark,
                             cgc::GcPhase::BlacklistPromote})
    MarkNanos += Life.TotalPhaseNanos[static_cast<unsigned>(Phase)];
  std::printf("collections: %llu, total mark time %.2f ms\n",
              (unsigned long long)Life.Collections, MarkNanos / 1e6);
  return 0;
}
