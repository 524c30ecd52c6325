//===- tests/TestThreadCache.cpp - Thread-owned allocation blocks ---------===//
//
// The lock-free allocation and free paths: whole-block checkouts under
// the heap lock, owner frees that clear a bit and are reused without a
// refill, the remote-free and bad-free rules, the block ledger (counts
// folded at checkout and when ownership ends), and the guarded-mode
// interaction (caches off, threads still fine).  Suspended owners are
// covered in TestStopWorld.
//
//===----------------------------------------------------------------------===//

#include "core/Collector.h"
#include "core/GcObserver.h"
#include "core/ThreadRegistry.h"
#include "heap/ThreadCache.h"
#include <atomic>
#include <cstring>
#include <functional>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace cgc;

namespace {

GcConfig testConfig() {
  GcConfig Config;
  Config.WindowBytes = uint64_t(256) << 20;
  Config.Placement = HeapPlacement::Custom;
  Config.CustomHeapBaseOffset = uint64_t(16) << 20;
  Config.MaxHeapBytes = uint64_t(64) << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0); // Never auto-collect.
  return Config;
}

/// Usable slots in a fresh small block of \p SlotBytes: the first slot
/// sits two granules in (the trailing-zero countermeasure).
uint64_t slotsPerBlock(size_t SlotBytes) {
  return (PageSize - 2 * GranuleBytes) / SlotBytes;
}

uintptr_t pageOf(const void *P) {
  return reinterpret_cast<uintptr_t>(P) >> PageSizeLog2;
}

struct RefillCounter final : GcObserver {
  std::atomic<uint64_t> Events{0};
  std::atomic<uint64_t> Slots{0};
  void onThreadCacheRefill(unsigned, unsigned Count) override {
    Events.fetch_add(1, std::memory_order_relaxed);
    Slots.fetch_add(Count, std::memory_order_relaxed);
  }
};

/// Records client-misuse incidents; read only after the raising thread
/// has handed control back.
struct IncidentRecorder final : GcObserver {
  void onIncident(const GcIncident &Incident) override {
    Causes.push_back(Incident.Cause);
    Addresses.push_back(Incident.GuardAddress);
  }
  std::vector<GcIncidentCause> Causes;
  std::vector<uint64_t> Addresses;
};

/// A registered mutator that runs posted steps one at a time, so a test
/// can interleave several threads deterministically.  Between steps it
/// polls safepoints, so a collection from any thread can stop it.
class StepThread {
public:
  explicit StepThread(Collector &GC) : Worker([this, &GC] { loop(GC); }) {
    while (!Ready.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  ~StepThread() {
    Quit.store(true, std::memory_order_release);
    Worker.join();
  }

  /// Runs \p Step on the thread and waits for it to finish.
  void run(std::function<void()> Step) {
    Task = std::move(Step);
    uint64_t Seq = Posted.fetch_add(1, std::memory_order_release) + 1;
    while (Finished.load(std::memory_order_acquire) != Seq)
      std::this_thread::yield();
  }

private:
  void loop(Collector &GC) {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    Ready.store(true, std::memory_order_release);
    uint64_t Done = 0;
    while (!Quit.load(std::memory_order_acquire)) {
      if (Posted.load(std::memory_order_acquire) == Done) {
        GC.safepoint();
        std::this_thread::yield();
        continue;
      }
      Task();
      Finished.store(++Done, std::memory_order_release);
    }
  }

  std::function<void()> Task;
  std::atomic<uint64_t> Posted{0};
  std::atomic<uint64_t> Finished{0};
  std::atomic<bool> Ready{false};
  std::atomic<bool> Quit{false};
  std::thread Worker;
};

} // namespace

// The refill arithmetic is exact at block granularity: the first
// allocation on a fresh heap goes through the locked path (no block
// yet) and the block it created is checked out with every other slot
// free; each later refill checks out one more fresh block.
TEST(ThreadCache, FastPathHitsAndBatchRefills) {
  GcConfig Config = testConfig();
  Collector GC(Config);
  RefillCounter Refills;
  GcObserverId Obs = GC.addObserver(&Refills);
  const uint64_t PerBlock = slotsPerBlock(48);
  const uint64_t Total = 2 * PerBlock + 30;
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    MutatorThread *Self = ThreadRegistry::current();
    ASSERT_NE(Self, nullptr);
    ASSERT_NE(Self->Cache, nullptr);
    std::vector<void *> Keep;
    for (uint64_t I = 0; I != Total; ++I) {
      void *P = GC.allocate(48);
      ASSERT_NE(P, nullptr);
      Keep.push_back(P);
    }
    // Allocations 1, PerBlock + 1 and 2 * PerBlock + 1 each found every
    // owned block full and no listed block: they went through the
    // locked path, which made a block that was then checked out.
    EXPECT_EQ(Self->Cache->allocs(), Total - 3);
    EXPECT_EQ(Self->Cache->ownedBlocks(), 3u);
    // Nothing is folded before the next checkout or the end of
    // ownership: the heap has seen the locked allocations and the
    // counts folded at the second and third checkout.
    EXPECT_EQ(GC.heapStats().ObjectsAllocated, 3 + 2 * (PerBlock - 1));
  });
  Worker.join();
  EXPECT_EQ(Refills.Events.load(), 3u);
  EXPECT_EQ(Refills.Slots.load(), 3 * (PerBlock - 1));
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, Total);
  EXPECT_EQ(GC.objectHeap().ownedBlockCount(), 0u);
  GC.removeObserver(Obs);
}

// StackClearEveryNAllocs counts allocations.  The first allocation of
// a size class finds no block to check out and takes the locked
// fallback; that is still one allocation, so it ticks the counter once
// and a clearing interval of two does not run the hook.
TEST(ThreadCache, RefillFallbackTicksStackClearOnce) {
  GcConfig Config = testConfig();
  Config.StackClearing = StackClearMode::Cheap;
  Config.StackClearEveryNAllocs = 2;
  Collector GC(Config);
  std::atomic<unsigned> Clears{0};
  GC.addStackClearHook([&Clears] { Clears.fetch_add(1); });
  std::thread Worker([&GC] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    ASSERT_NE(GC.allocate(64), nullptr);
  });
  Worker.join();
  EXPECT_EQ(Clears.load(), 0u)
      << "the refill fallback ticked the stack-clear counter twice";
}

// Ownership ends at the handshake: a collection sees exactly the
// objects clients really hold.  100 rooted allocations through owned
// blocks census as exactly 100 live objects, and the returned blocks'
// free slots are reported as flushed.
TEST(ThreadCache, FlushPreservesRetainedSet) {
  GcConfig Config = testConfig();
  Config.ThreadCaches = true;
  Collector GC(Config);
  std::vector<uint64_t> Window(128, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "window");
  std::thread Worker([&GC, &Window] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    for (int I = 0; I != 100; ++I) {
      auto *Obj = static_cast<uint64_t *>(GC.allocate(64));
      ASSERT_NE(Obj, nullptr);
      *Obj = 0xc0ffee00ULL + I;
      Window[I] = reinterpret_cast<uint64_t>(Obj);
    }
    CollectionStats Cycle = GC.collect("census");
    EXPECT_EQ(Cycle.ObjectsLive, 100u)
        << "free slots of owned blocks must not census as live objects";
    EXPECT_EQ(Cycle.CacheSlotsFlushed, 2 * slotsPerBlock(64) - 100)
        << "the collect should have returned both owned blocks";
    EXPECT_EQ(Cycle.CacheBlocksKept, 0u);
    for (int I = 0; I != 100; ++I) {
      auto *Obj = reinterpret_cast<uint64_t *>(Window[I]);
      EXPECT_EQ(*Obj, 0xc0ffee00ULL + I);
    }
  });
  Worker.join();
  std::fill(Window.begin(), Window.end(), 0);
  GC.collect("drain");
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

// Unregistering returns every owned block with its counts refolded from
// the bitmap: only client-held objects remain in the lifetime stats.
TEST(ThreadCache, UnregisterFlushesAndReversesReservations) {
  GcConfig Config = testConfig();
  Config.ThreadCaches = true;
  Collector GC(Config);
  std::atomic<uint64_t> SlotBytes{0};
  std::thread Worker([&GC, &SlotBytes] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    void *First = GC.allocate(64);
    ASSERT_NE(First, nullptr);
    SlotBytes.store(GC.objectSizeOf(First));
    for (int I = 0; I != 4; ++I)
      ASSERT_NE(GC.allocate(64), nullptr);
  });
  Worker.join();
  // 5 real allocations; the rest of the block went back untouched.
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, 5u);
  EXPECT_EQ(GC.allocatedBytes(), 5 * SlotBytes.load());
  EXPECT_TRUE(GC.verifyHeapReport().clean());
  GC.collect("drain");
  EXPECT_EQ(GC.allocatedBytes(), 0u);
}

// The verifier holds with blocks owned (their counters are exempt until
// ownership ends) and, once every block is back, reconciles the heap's
// folded counts against the threads' totals.
TEST(ThreadCache, DebtReconcilesInVerifier) {
  GcConfig Config = testConfig();
  Config.ThreadCaches = true;
  Collector GC(Config);
  std::thread Worker([&GC] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    std::vector<void *> Objects;
    for (int I = 0; I != 10; ++I)
      Objects.push_back(GC.allocate(48));
    for (int I = 0; I != 10; I += 2)
      GC.deallocate(Objects[I]);
    HeapVerifyReport Report = GC.verifyHeapReport();
    EXPECT_TRUE(Report.clean()) << Report.str();
  });
  Worker.join();
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, 10u);
  EXPECT_EQ(GC.heapStats().ExplicitFrees, 5u);
  HeapVerifyReport Report = GC.verifyHeapReport();
  EXPECT_TRUE(Report.clean()) << Report.str();
}

// A slot the owner frees goes back to its own block and is the next
// same-class allocation, with no refill and no lock.
TEST(ThreadCache, OwnerFreeReusesSlotWithoutRefill) {
  Collector GC(testConfig());
  RefillCounter Refills;
  GcObserverId Obs = GC.addObserver(&Refills);
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    void *Warm = GC.allocate(48); // Locked path, then the checkout.
    void *P = GC.allocate(48);
    void *Q = GC.allocate(48);
    ASSERT_NE(P, nullptr);
    uint64_t Before = Refills.Events.load();
    GC.deallocate(P);
    EXPECT_FALSE(GC.isAllocated(P));
    EXPECT_EQ(GC.allocate(48), P) << "the freed slot is the lowest free one";
    EXPECT_EQ(Refills.Events.load(), Before);
    EXPECT_EQ(ThreadRegistry::current()->Cache->frees(), 1u);
    (void)Warm;
    (void)Q;
  });
  Worker.join();
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, 4u);
  EXPECT_EQ(GC.heapStats().ExplicitFrees, 1u);
  GC.removeObserver(Obs);
}

// A second free by the owner finds the bit already clear and takes the
// locked path, which reports it with the same cause and address as any
// other double free.
TEST(ThreadCache, OwnerDoubleFreeIsReported) {
  Collector GC(testConfig());
  IncidentRecorder Incidents;
  GC.addObserver(&Incidents);
  void *P = nullptr;
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    GC.allocate(48);
    P = GC.allocate(48);
    GC.deallocate(P);
    GC.deallocate(P);
  });
  Worker.join();
  ASSERT_EQ(Incidents.Causes.size(), 1u);
  EXPECT_EQ(Incidents.Causes[0], GcIncidentCause::DoubleFree);
  EXPECT_EQ(Incidents.Addresses[0], reinterpret_cast<uint64_t>(P));
  EXPECT_EQ(GC.heapStats().ExplicitFrees, 1u);
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// An interior pointer into an owned block is not a slot base: the free
// is refused on the locked path as InvalidFree and the object survives.
TEST(ThreadCache, InteriorPointerIntoOwnedBlockIsInvalidFree) {
  Collector GC(testConfig());
  IncidentRecorder Incidents;
  GC.addObserver(&Incidents);
  char *P = nullptr;
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    GC.allocate(48);
    P = static_cast<char *>(GC.allocate(48));
    GC.deallocate(P + 8);
    EXPECT_TRUE(GC.isAllocated(P));
  });
  Worker.join();
  ASSERT_EQ(Incidents.Causes.size(), 1u);
  EXPECT_EQ(Incidents.Causes[0], GcIncidentCause::InvalidFree);
  EXPECT_EQ(Incidents.Addresses[0], reinterpret_cast<uint64_t>(P + 8));
  EXPECT_EQ(GC.heapStats().ExplicitFrees, 0u);
}

// A free from another thread into an owned block is accepted on the
// locked path but leaves the block with its owner: the freeing thread's
// next allocation comes from a block of its own.  The owner's later
// free of the same pointer is a double free.
TEST(ThreadCache, RemoteFreeIntoOwnedBlockStaysWithOwner) {
  Collector GC(testConfig());
  IncidentRecorder Incidents;
  GC.addObserver(&Incidents);
  StepThread Owner(GC), Other(GC);
  void *X = nullptr, *Y = nullptr, *Z = nullptr;
  Owner.run([&] {
    X = GC.allocate(48);
    std::memset(X, 0xab, 48);
  });
  Other.run([&] { GC.deallocate(X); });
  EXPECT_TRUE(Incidents.Causes.empty());
  EXPECT_FALSE(GC.isAllocated(X));
  Other.run([&] { Y = GC.allocate(48); });
  EXPECT_NE(pageOf(Y), pageOf(X))
      << "a remote free must not relist a block its owner still holds";
  Owner.run([&] { GC.deallocate(X); });
  ASSERT_EQ(Incidents.Causes.size(), 1u);
  EXPECT_EQ(Incidents.Causes[0], GcIncidentCause::DoubleFree);
  EXPECT_EQ(Incidents.Addresses[0], reinterpret_cast<uint64_t>(X));
  // The remote free left the slot's contents alone; the owner zeroes
  // the slot when it hands it out again.
  bool Zeroed = true;
  Owner.run([&] {
    Z = GC.allocate(48);
    for (int I = 0; I != 48; ++I)
      Zeroed = Zeroed && static_cast<unsigned char *>(Z)[I] == 0;
  });
  EXPECT_EQ(Z, X) << "the remotely freed slot is the owner's lowest free one";
  EXPECT_TRUE(Zeroed);
  Owner.run([&] { GC.collect("after-remote-free"); });
  EXPECT_EQ(GC.heapStats().ExplicitFrees, 1u);
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// The remote free leaves the slot's bytes, as every free does.  Once
// the block is returned, the locked path hands the slot out again, and
// its take must zero what the remote free left.  X's address is kept off
// every scanned stack (stored inverted, and the collections run after
// both threads have left), so no conservative pin keeps X from reuse.
TEST(ThreadCache, RemoteFreedSlotIsZeroedBeforeReuse) {
  Collector GC(testConfig());
  std::vector<uint64_t> Window(1, 0);
  GC.addRootRange(Window.data(), Window.data() + Window.size(),
                  RootEncoding::Native64, RootSource::Client, "neighbour");
  uintptr_t HiddenX = 0;
  {
    StepThread Owner(GC), Other(GC);
    Owner.run([&] {
      void *X = GC.allocate(48);
      Window[0] = reinterpret_cast<uint64_t>(GC.allocate(48));
      std::memset(X, 0xab, 48);
      HiddenX = ~reinterpret_cast<uintptr_t>(X);
    });
    Other.run([&] { GC.deallocate(reinterpret_cast<void *>(~HiddenX)); });
  }
  GC.collect("after-remote-free");
  GC.collect("again");
  // An unregistered thread allocates through the locked path.
  auto *Reused = static_cast<unsigned char *>(GC.allocate(48));
  ASSERT_EQ(reinterpret_cast<uintptr_t>(Reused), ~HiddenX)
      << "X is the lowest free slot of the only block";
  for (int I = 0; I != 48; ++I)
    ASSERT_EQ(Reused[I], 0) << "byte " << I << " of the reused slot";
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// The owner's lock-free free and another thread's locked free of the
// same pointer race: the locked path classifies the pointer as
// allocated, and the owner may clear the bit before the locked path
// does.  Whichever clears it first frees the object and the other is
// reported as a double free; neither aborts, whatever the interleaving.
TEST(ThreadCache, RacingOwnerAndRemoteFreesReportOneDoubleFree) {
  Collector GC(testConfig());
  IncidentRecorder Incidents;
  GC.addObserver(&Incidents);
  constexpr uint64_t Rounds = 2000;
  std::atomic<void *> Shared{nullptr};
  std::atomic<uint64_t> Posted{0}, RemoteDone{0};
  std::thread Remote([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    for (uint64_t R = 1; R <= Rounds; ++R) {
      while (Posted.load(std::memory_order_acquire) != R) {
      }
      GC.deallocate(Shared.load(std::memory_order_relaxed));
      RemoteDone.store(R, std::memory_order_release);
    }
  });
  std::thread Owner([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    for (uint64_t R = 1; R <= Rounds; ++R) {
      void *P = GC.allocate(48);
      ASSERT_NE(P, nullptr);
      Shared.store(P, std::memory_order_relaxed);
      Posted.store(R, std::memory_order_release);
      // A delay that varies by round sweeps the owner's free across the
      // locked path's classify-then-clear window.
      for (volatile unsigned Spin = 0; Spin != (R * 37) % 2048;) {
        Spin = Spin + 1;
      }
      GC.deallocate(P);
      while (RemoteDone.load(std::memory_order_acquire) != R) {
      }
    }
  });
  Owner.join();
  Remote.join();
  // Both threads raise incidents under the heap lock.
  ASSERT_EQ(Incidents.Causes.size(), Rounds);
  for (GcIncidentCause Cause : Incidents.Causes)
    EXPECT_EQ(Cause, GcIncidentCause::DoubleFree);
  EXPECT_EQ(GC.heapStats().ObjectsAllocated, Rounds);
  EXPECT_EQ(GC.heapStats().ExplicitFrees, Rounds);
  EXPECT_EQ(GC.allocatedBytes(), 0u);
  HeapVerifyReport Report = GC.verifyHeapReport();
  EXPECT_TRUE(Report.clean()) << Report.str();
}

// Regression: thread A frees an object and frees it again after thread
// B's refill.  With per-slot reservations B's refill could reserve A's
// freed slot, so the second free classified as valid and the next
// collection aborted on the corrupted reservation.  Slots of a block
// are never handed to another thread, so the second free is a plain
// double free and the collection survives.
TEST(ThreadCache, CrossThreadDoubleFreeOfReusedSlotIsReported) {
  Collector GC(testConfig());
  IncidentRecorder Incidents;
  GC.addObserver(&Incidents);
  StepThread A(GC), B(GC);
  void *P = nullptr;
  A.run([&] {
    P = GC.allocate(48);
    GC.deallocate(P);
  });
  B.run([&] { GC.allocate(48); });
  EXPECT_TRUE(Incidents.Causes.empty());
  A.run([&] { GC.deallocate(P); });
  ASSERT_EQ(Incidents.Causes.size(), 1u);
  EXPECT_EQ(Incidents.Causes[0], GcIncidentCause::DoubleFree);
  EXPECT_EQ(Incidents.Addresses[0], reinterpret_cast<uint64_t>(P));
  CollectionStats Cycle;
  A.run([&] { Cycle = GC.collect("after-double-free"); });
  EXPECT_EQ(Cycle.MutatorsStopped, 1u);
  EXPECT_TRUE(GC.verifyHeapReport().clean());
}

// A registered finalizer sends the owner's free through the locked
// path, which unregisters it: the finalizer never runs.
TEST(ThreadCache, OwnerFreeUnregistersFinalizer) {
  Collector GC(testConfig());
  std::atomic<bool> Ran{false};
  std::thread Worker([&] {
    GcThreadScope Scope(GC);
    ASSERT_TRUE(Scope.registered());
    GC.allocate(48);
    void *P = GC.allocate(48);
    GC.registerFinalizer(P, [&Ran](void *) { Ran.store(true); });
    GC.deallocate(P);
    EXPECT_FALSE(GC.isAllocated(P));
    EXPECT_FALSE(GC.unregisterFinalizer(P)) << "the free unregistered it";
    GC.collect("after-finalized-free");
    EXPECT_EQ(GC.runFinalizers(), 0u);
  });
  Worker.join();
  EXPECT_FALSE(Ran.load());
  EXPECT_EQ(GC.heapStats().ExplicitFrees, 1u);
}

// Guarded-heap mode disables the caches (every allocation must pass
// through the guard layer's header/redzone bookkeeping) but registered
// threads still allocate, free, and survive handshakes.
TEST(ThreadCache, GuardedModeDisablesCachesButThreadsWork) {
  GcConfig Config = testConfig();
  Config.DebugGuards = true;
  Config.ThreadCaches = true; // Requested, but guards win.
  Collector GC(Config);
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&GC, &Stop, &Ready] {
      GcThreadScope Scope(GC);
      ASSERT_TRUE(Scope.registered());
      EXPECT_EQ(ThreadRegistry::current()->Cache, nullptr);
      Ready.fetch_add(1);
      uint64_t *Keep[8] = {nullptr};
      uint64_t I = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        auto *Obj = static_cast<uint64_t *>(GC.allocate(40 + (I % 5) * 24));
        ASSERT_NE(Obj, nullptr);
        *Obj = I;
        if (uint64_t *Old = Keep[I % 8]; Old && I % 3 == 0)
          GC.deallocate(Old), Old = nullptr;
        Keep[I % 8] = Obj;
        GC.safepoint();
        ++I;
      }
    });
  while (Ready.load() != 2)
    std::this_thread::yield();
  for (int Round = 0; Round != 5; ++Round) {
    CollectionStats Cycle = GC.collect("guarded-mt");
    EXPECT_EQ(Cycle.MutatorsStopped, 2u);
    EXPECT_EQ(Cycle.CacheSlotsFlushed, 0u);
  }
  Stop.store(true);
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(GC.guardStats().HeaderSmashes, 0u);
  EXPECT_EQ(GC.guardStats().RedzoneSmashes, 0u);
  EXPECT_EQ(GC.guardStats().DoubleFrees, 0u);
  EXPECT_EQ(GC.guardStats().InvalidFrees, 0u);
  GC.collect("drain-1");
  GC.collect("drain-2"); // Second pass reaps the flushed quarantine.
  EXPECT_EQ(GC.allocatedBytes(), 0u);
  GC.verifyHeap();
}
