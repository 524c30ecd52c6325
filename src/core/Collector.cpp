//===- core/Collector.cpp - Public collector facade -----------------------===//

#include "core/Collector.h"
#include "core/GcSentinel.h"
#include "heap/ThreadCache.h"
#include "support/Clock.h"
#include "support/MathExtras.h"
#include "support/SignalSuspend.h"
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <pthread.h>

using namespace cgc;

namespace {

/// Pages committed per heap growth step ("heap expansion increment").
constexpr uint32_t GrowthIncrementPages = 256;

/// Live collectors in construction order, for the process-wide
/// pthread_atfork handlers.  Function-local statics so a collector
/// constructed before main() still finds them initialized.
std::mutex &forkListLock() {
  static std::mutex Lock;
  return Lock;
}

std::vector<Collector *> &forkCollectors() {
  static std::vector<Collector *> List;
  return List;
}

} // namespace

Collector::Collector(const GcConfig &Cfg)
    : Config(Cfg), ConfiguredInterior(Cfg.Interior) {
  static std::atomic<uint64_t> NextUniqueId{1};
  UniqueId = NextUniqueId.fetch_add(1);
  // CI's verifier lane flips this on for unmodified test binaries.
  if (const char *Env = std::getenv("CGC_VERIFY_EVERY_COLLECTION"))
    if (*Env != '\0' && !(Env[0] == '0' && Env[1] == '\0'))
      Config.VerifyEveryCollection = true;
  Arena = std::make_unique<VirtualArena>(Config.WindowBytes);

  uint64_t BaseOffset = alignTo(Config.heapBaseOffset(), PageSize);
  CGC_CHECK(BaseOffset + Config.MaxHeapBytes <= Arena->size(),
            "heap arena does not fit the window at this placement");
  PageIndex BasePage = pageOfOffset(BaseOffset);
  PageIndex MaxPages =
      static_cast<PageIndex>(Config.MaxHeapBytes >> PageSizeLog2);

  // Sealed-metadata mode: the block table, page map, and free-run maps
  // draw their storage from a dedicated arena whose pages are flipped
  // PROT_READ between collections, so a wild client store into GC
  // metadata faults (and is contained) instead of silently corrupting.
  if (Config.SealMetadata)
    MetaArena = std::make_unique<MetadataArena>();
  Pages = std::make_unique<PageAllocator>(
      *Arena, BasePage, MaxPages, GrowthIncrementPages, MetaArena.get());
  Map = std::make_unique<PageMap>(Arena->numPages(), MetaArena.get());
  Blocks = std::make_unique<BlockTable>(MetaArena.get());

  if (Config.DebugGuards)
    Guards = std::make_unique<GuardLayer>(Config.QuarantineSlots);

  ObjectHeapConfig HeapConfig;
  HeapConfig.AvoidTrailingZeroAddresses = Config.AvoidTrailingZeroAddresses;
  HeapConfig.Guards = Guards.get();
  HeapConfig.PointerPageConstraint = Config.Interior == InteriorPolicy::All
                                         ? PageConstraint::AllPagesClean
                                         : PageConstraint::FirstPageClean;
  Heap = std::make_unique<ObjectHeap>(*Arena, *Pages, *Map, *Blocks,
                                      HeapConfig);

  BlacklistImpl =
      createBlacklist(Config.Blacklist, Arena->numPages(),
                      Config.HashedBlacklistBitsLog2, Config.BlacklistAging);
  Pages->setBlacklistQuery([this](PageIndex Page) {
    return BlacklistImpl->isBlacklisted(Page);
  });

  Marking = std::make_unique<MarkContext>(*Arena, *Pages, *Map, *Blocks,
                                          *Heap, *BlacklistImpl, Config);

  // Guarded user pointers are slot base + HeaderBytes; under BaseOnly
  // interior recognition that displacement must be registered or no
  // guarded object would ever be retained.
  if (Guards && Config.Interior == InteriorPolicy::BaseOnly)
    Marking->registerDisplacement(GuardLayer::HeaderBytes);

  // Crash visibility: mirror this collector's identity into the
  // process-global registry the signal-handler dump walks.  A full
  // registry (> MaxTrackedCollectors live collectors) just means this
  // one is absent from crash reports.
  CrashInfo.CollectorId.store(UniqueId, std::memory_order_relaxed);
  CrashInfo.GuardedMode.store(Guards ? 1 : 0, std::memory_order_relaxed);
  CrashRegistered = crash::registerState(&CrashInfo);

  // Handshake watchdog: resolve and install the reserved suspend signal
  // up front, so the first stalled handshake can escalate without doing
  // anything allocation- or lock-shaped in the stop path.  A negative
  // SuspendSignal disables the signal rung (the ladder goes
  // warn -> timeout); installation failure degrades the same way.
  if (Config.HandshakeDeadlineMs != 0) {
    int Sig = -1;
    if (Config.SuspendSignal >= 0) {
      Sig = suspend::resolveSuspendSignal(Config.SuspendSignal);
      if (Sig >= 0 && suspend::ensureInstalled(Sig) < 0)
        Sig = -1;
      if (Sig >= 0)
        crash::setReservedSignal(Sig);
    }
    Registry.configureWatchdog(Config.HandshakeDeadlineMs * 1000000ull, Sig,
                               &Collector::stallWarnThunk, this);
  }

  // Fork safety: every live collector participates in one process-wide
  // atfork triple (registered once; the handlers walk the list).
  {
    std::lock_guard<std::mutex> Guard(forkListLock());
    forkCollectors().push_back(this);
  }
  static std::once_flag AtforkOnce;
  std::call_once(AtforkOnce, [] {
    ::pthread_atfork(&Collector::forkPrepare, &Collector::forkParent,
                     &Collector::forkChild);
  });

  configureSentinel(Config.Sentinel);
  MidCyclePins.reserve(MidCyclePinReserve);

  // Seal immediately: the window until the first allocation unseals is
  // already one where a buggy client could scribble on fresh metadata.
  if (MetaArena)
    MetaArena->seal();
}

Collector::~Collector() {
  // Member destructors (block table, page map, free-run maps) release
  // their storage back into the arena, which must be writable.
  if (MetaArena)
    MetaArena->unseal();
  {
    std::lock_guard<std::mutex> Guard(forkListLock());
    std::vector<Collector *> &List = forkCollectors();
    List.erase(std::remove(List.begin(), List.end(), this), List.end());
  }
  if (CrashRegistered)
    crash::unregisterState(&CrashInfo);
}

//===----------------------------------------------------------------------===//
// Fork safety
//===----------------------------------------------------------------------===//

void Collector::forkPrepare() {
  forkListLock().lock();
  for (Collector *GC : forkCollectors())
    GC->forkPrepareOne();
}

void Collector::forkParent() {
  std::vector<Collector *> &List = forkCollectors();
  for (auto It = List.rbegin(); It != List.rend(); ++It)
    (*It)->forkParentOne();
  forkListLock().unlock();
}

void Collector::forkChild() {
  std::vector<Collector *> &List = forkCollectors();
  for (auto It = List.rbegin(); It != List.rend(); ++It)
    (*It)->forkChildOne();
  crash::reinstallAfterFork();
  forkListLock().unlock();
}

void Collector::forkPrepareOne() {
  // Rank order: the heap lock first (waits out any in-flight collection
  // and quiesces allocation; lockHeap publishes a registered forking
  // thread's scan state before blocking so the handshake stays
  // deadlock-free), then the registry (no registration straddles it).
  lockHeap();
  Registry.lockForFork();
}

void Collector::forkParentOne() {
  Registry.unlockForFork();
  unlockHeap();
}

void Collector::forkChildOne() {
  Registry.unlockForFork();
  // Only the forking thread survived the fork: every other mutator is
  // gone.  Drop the dead mutators' records — folding their counts and
  // returning their owned blocks first, exactly as
  // unregisterMutatorThread would have.
  {
    MetadataScope MetaScope(*this);
    Registry.rebuildAfterFork(
        ThreadRegistry::current(),
        [this](MutatorThread &Thread) { retireCache(Thread); });
  }
  publishCrashState();
  // The heap lock cannot simply be released here: recursive-mutex
  // ownership is bound to the locking thread's kernel TID, and the
  // forking thread has a new one in the child, so unlock() would fail
  // with EPERM (swallowed inside std::recursive_mutex) and leave the
  // lock wedged under the dead parent thread's id.  The child is
  // single-threaded at this point, so reconstructing the mutex in
  // place is safe.
  new (&HeapLock) std::recursive_mutex();
}

//===----------------------------------------------------------------------===//
// Stop-the-world hardening
//===----------------------------------------------------------------------===//

void Collector::stallWarnThunk(void *Ctx, uint64_t ThreadId) {
  // A static message, as the warn proc contract requires; the stalled
  // thread's id rides in Value.
  static_cast<Collector *>(Ctx)->warn(
      WarnEvent::HandshakeStall,
      "cgc: stop-the-world stalled; mutator thread is running past the "
      "handshake deadline's warning rung",
      ThreadId);
}

Collector::StoppedWorld::StoppedWorld(Collector &GC, bool Reclaim)
    : GC(GC), HeapGuard(GC) {
  // A callback collecting mid-collection (observer, warn proc, OOM
  // handler) gets a refused empty cycle, not an abort: the documented
  // contract is "must not collect", and the robust reading of a
  // violation is a no-op.
  if (GC.InCollection) {
    GC.warn(WarnEvent::ReentrantCollection,
            "cgc: refused re-entrant collection from a callback",
            GC.Lifetime.Collections);
    return;
  }
  // Degraded mode: repeated post-repair verification failures mean the
  // metadata cannot be trusted to survive a pipeline.  Every further
  // cycle is refused (an empty cycle reads as "reclaimed nothing"), so
  // the allocation ladder degrades to fresh-page growth.
  if (Reclaim && GC.RepairStatsInfo.DegradedMode)
    return;
  MetaScope.emplace(GC);
  if (!stop(Reclaim))
    return;
  // Guarded mode: release every quarantined slot (poison-checked)
  // before any phase runs, so the sweep only ever sees armed headers
  // and use-after-free writes are detected at a deterministic point.
  if (Reclaim)
    GC.flushQuarantine();
  Began = GC.InCollection = true;
  for (const auto &Hook : GC.PreCollectionHooks)
    Hook();
}

bool Collector::StoppedWorld::stop(bool Reclaim) {
  // Threaded mode: rendezvous every registered mutator at a safepoint
  // before any phase touches shared heap state.  With zero registered
  // threads this whole block is dead and the cycle is bit-identical to
  // sequential mode.
  if (!GC.ThreadedMode.load(std::memory_order_relaxed) ||
      GC.Registry.registeredCount() == 0)
    return true;
  Self = ThreadRegistry::current();
  // Reserve every vector the stopped-world window appends to before
  // any mutator can be frozen: the watchdog's signal rung may park a
  // thread inside libc malloc with an arena lock held, after which a
  // collector-side system allocation can deadlock (the bdwgc
  // no-malloc-between-suspend-and-resume rule).  Two ranges per thread
  // (stack + registers), plus two for an unregistered collecting
  // thread that enabled machine-stack scanning.
  const size_t RangeBudget = 2 * GC.Registry.registeredCount() + 2;
  RootIds.reserve(RangeBudget);
  GC.Roots.reserveAdditional(RangeBudget);
  Handshake = GC.Registry.stopTheWorld(Self);
  Stopped = true;
  if (Handshake.TimedOut) {
    // Watchdog final rung: some mutator could not be stopped.  Raise
    // the structured incident and abandon the attempt — no phase may
    // run against a world that is still mutating.  The allocation
    // ladder treats the empty cycle as "reclaimed nothing" and
    // degrades to heap growth.
    GcIncident Incident;
    Incident.Cause = GcIncidentCause::HandshakeTimeout;
    Incident.CollectionIndex = GC.Lifetime.Collections;
    Incident.HandshakeTrace = std::move(Handshake.Trace);
    GC.raiseIncident(
        Incident, WarnEvent::HandshakeStall,
        "cgc: stop-the-world handshake timed out; abandoning collection",
        Handshake.Nanos);
    resume();
    return false;
  }
  GC.StopInitiator.store(Self, std::memory_order_release);
  // Return every thread-owned block so mark/sweep see ordinary blocks
  // with exact counts.
  if (Reclaim)
    CacheSlotsFlushed = GC.flushThreadCaches();
  GC.emit({.Kind = GcEventKind::StopTheWorld, .Payload = &Handshake});
  return true;
}

Collector::StoppedWorld::~StoppedWorld() {
  removeRoots();
  resume();
  // Request re-sealing: it happens when the outermost MetadataScope
  // unwinds, so an allocation slow path that triggered this session
  // finishes on writable metadata first.
  if (MetaScope)
    GC.SealPending = true;
  if (!Began)
    return;
  GC.InCollection = false;
  GC.MidCyclePins.clear();
  GC.MidCyclePinOverflow = false;
}

void Collector::StoppedWorld::addRoots(const std::jmp_buf &Registers,
                                       const volatile char *Probe) {
  // Published tops are probe-local addresses with no particular
  // alignment; round them down to pointer alignment so the strided root
  // scan lands exactly on the frame's pointer slots.  The extra few
  // bytes below the probe are dead stack — harmless to scan.  Labels
  // must fit the small-string buffer: these ranges are registered while
  // the world is stopped, when a heap-allocating std::string could
  // deadlock against a signal-suspended thread's malloc arena lock.
  auto AddThread = [&](const volatile void *Top, const void *Base,
                       const auto &Regs) {
    const void *Low = reinterpret_cast<const void *>(
        reinterpret_cast<uintptr_t>(Top) & ~uintptr_t(sizeof(void *) - 1));
    if (Low != nullptr && Base != nullptr && Low < Base)
      RootIds.push_back(GC.Roots.addRange(Low, Base, RootEncoding::Native64,
                                          RootSource::Stack, "mutator-stack"));
    RootIds.push_back(GC.Roots.addRange(&Regs, &Regs + 1,
                                        RootEncoding::Native64,
                                        RootSource::Registers,
                                        "mutator-regs"));
  };
  // An unregistered collecting thread is scanned only when it is the
  // one whose stack base enableMachineStackScanning recorded: any
  // other thread's probe lies in a different stack, and the range up
  // to that base would span unmapped memory.
  if (Self == nullptr && GC.MachineStackScanner) {
    CGC_CHECK(GC.MachineStackScanner->ownedByCaller(),
              "machine-stack scanning covers only the thread that enabled "
              "it; call registerMutatorThread on any other thread that "
              "collects");
    GC.MachineStackScanner->noteDepth(Probe);
    AddThread(Probe, GC.MachineStackScanner->base(), Registers);
  }
  if (!Stopped)
    return;
  // Stopped mutators published their stack top and registers at the
  // safepoint.
  GC.Registry.forEachThread([&](MutatorThread &Thread) {
    const void *Top = Thread.StackTop.load(std::memory_order_acquire);
    if (&Thread == Self)
      AddThread(Probe, Thread.StackBase, Registers);
    else if (Thread.Suspend.UseRegisters.load(std::memory_order_acquire))
      // Preemptively suspended: the cooperative jmp_buf is stale; the
      // handler's sigsetjmp capture is the live register snapshot.
      AddThread(Top, Thread.StackBase, Thread.Suspend.Registers);
    else
      AddThread(Top, Thread.StackBase, Thread.Registers);
  });
}

void Collector::StoppedWorld::removeRoots() {
  for (RootId Id : RootIds)
    GC.Roots.removeRange(Id);
  RootIds.clear();
}

void Collector::StoppedWorld::resume() {
  if (!Stopped)
    return;
  Stopped = false;
  GC.StopInitiator.store(nullptr, std::memory_order_release);
  GC.Registry.resumeTheWorld();
}

void Collector::configureSentinel(const SentinelPolicy &Policy) {
  HeapLockGuard Guard(*this);
  if (SentinelImpl)
    SentinelImpl->standDown();
  SentinelImpl.reset();
  Config.Sentinel = Policy;
  if (Policy.Enabled)
    SentinelImpl = std::make_unique<GcSentinel>(*this, Policy);
  publishCrashState();
}

void Collector::maybeStartupCollect() {
  // The paper's startup guarantee: one (fast) collection before any
  // allocation, so static false references are blacklisted before the
  // allocator can place pages under them.
  if (StartupGcDone || InCollection)
    return;
  StartupGcDone = true;
  if (Config.GcAtStartup)
    collect("startup");
}

void *Collector::allocateRequest(const AllocRequest &Req) {
  // A mid-collection re-entrant allocation (callback context) takes no
  // safepoint and no cache refill (a refilled slot would be
  // allocated-but-uncharted under the already-flushed caches): the
  // locked slow path pins the object.
  MutatorThread *Self = parkableSelf();
  MutatorThread *Owner = nullptr;
  if (Self != nullptr) {
    // The allocation-time safepoint: the flag check is the documented
    // "flag-checked slow path"; parking happens only under a stop.
    Registry.safepoint(Self);
    if (Self->Cache && Req.cacheable()) {
      // Lock-free fast path: the next free slot of an owned block.  The
      // lane id and the owned blocks' geometry are all it reads.
      if (void *Cached = Self->Cache->take(Req.Lane))
        return Cached;
      Owner = Self;
    }
  }
  size_t Bytes;
  ObjectKind Kind;
  {
    HeapLockGuard Guard(*this);
    // Guarded mode has no thread caches, so Owner is null there.
    if (Req.Layout == 0)
      return Guards ? allocateGuarded(Req) : allocateLocked(Req, Owner);
    MetadataScope MetaScope(*this);
    Bytes = Heap->layout(Req.Layout).SizeBytes;
    // The all-conservative ablation ignores descriptors outright.
    unsigned Lane = Config.AllConservativeDescriptors
                        ? Heap->laneFor(Bytes, ObjectKind::Normal)
                        : Heap->laneFor(Req.Layout);
    Kind = Heap->laneKind(Lane);
    // A Precise descriptor allocates from its own lane, unguarded.
    if (Lane == Req.Lane)
      return allocateLocked({Bytes, Kind, Lane}, Owner);
  }
  // A degenerate descriptor stands for an untyped request of its kind
  // (registered sizes are granule-aligned, so the size class is the
  // same), and takes exactly the untyped path: its lane's fast path,
  // guarded mode, the allocation stream.
  return allocate(Bytes, Kind);
}

void *Collector::allocate(size_t Bytes, ObjectKind Kind) {
  return allocateRequest(untypedRequest(Bytes, Kind));
}

void *Collector::allocateTyped(LayoutId Layout) {
  return allocateRequest(
      {.Lane = Heap->typedLane(Layout), .Layout = Layout});
}

void *Collector::allocateTagged(size_t Bytes, const char *Site,
                                ObjectKind Kind) {
  return allocateRequest(
      untypedRequest(Bytes, Kind, /*IgnoreOffPage=*/false, Site));
}

void *Collector::allocateIgnoreOffPage(size_t Bytes, ObjectKind Kind) {
  return allocateRequest(
      untypedRequest(Bytes, Kind, /*IgnoreOffPage=*/true));
}

//===----------------------------------------------------------------------===//
// Mutator threads
//===----------------------------------------------------------------------===//

void Collector::lockHeap() {
  // Uncontended: holding the lock proves no stop is in flight (a stop
  // is only ever requested under it), so there is nothing to publish.
  if (HeapLock.try_lock())
    return;
  MutatorThread *Self = ThreadRegistry::current();
  // Publish scan state and leave Running *before* blocking: if a
  // collection holds the lock, this thread is frozen here with fresh
  // stack/register bounds and counts as stopped (see ThreadRegistry.h).
  if (Self)
    Registry.beginBlocked(Self);
  HeapLock.lock();
  if (Self)
    Registry.endBlocked(Self);
}

void Collector::unlockHeap() { HeapLock.unlock(); }

bool Collector::registerMutatorThread(const void *StackBaseHint) {
  const void *Base =
      StackBaseHint ? StackBaseHint : ThreadRegistry::currentStackBase();
  // A plain acquire, not lockHeap(): this thread has no registry record
  // yet, so an in-flight collection neither waits for it nor scans it,
  // and blocking unpublished here is safe.  Holding the lock serializes
  // registration against any handshake.
  std::lock_guard<std::recursive_mutex> Guard(HeapLock);
  MutatorThread *Thread =
      Registry.registerThread(Base, Config.MutatorThreads);
  if (!Thread)
    return false;
  if (Config.ThreadCaches && !Guards)
    Thread->Cache = std::make_unique<ThreadCache>();
  ThreadedMode.store(true, std::memory_order_release);
  publishCrashState();
  return true;
}

void Collector::unregisterMutatorThread() {
  MutatorThread *Self = ThreadRegistry::current();
  CGC_CHECK(Self != nullptr,
            "unregisterMutatorThread from an unregistered thread");
  lockHeap();
  {
    MetadataScope MetaScope(*this);
    retireCache(*Self);
  }
  Registry.unregisterThread(Self);
  publishCrashState();
  unlockHeap();
}

void Collector::retireCache(MutatorThread &Thread) {
  if (!Thread.Cache)
    return;
  drainCache(*Thread.Cache);
  CacheRetired.Allocs += Thread.Cache->allocs();
  CacheRetired.Frees += Thread.Cache->frees();
}

void Collector::foldCacheCounts(ThreadCache &Cache) {
  ThreadCache::Counts Delta = Cache.takePending();
  Heap->foldOwnerCounts(Delta.Allocs, Delta.Bytes, Delta.Frees);
  CacheFolded.Allocs += Delta.Allocs;
  CacheFolded.Frees += Delta.Frees;
  BytesSinceGc += Delta.Bytes;
}

uint64_t Collector::drainCache(ThreadCache &Cache) {
  foldCacheCounts(Cache);
  uint64_t FreeSlots = 0;
  Cache.releaseAll([&](BlockId Id) { FreeSlots += Heap->returnBlock(Id); });
  return FreeSlots;
}

void Collector::safepoint() {
  if (MutatorThread *Self = parkableSelf())
    Registry.safepoint(Self);
}

bool Collector::checkoutToCache(MutatorThread *Self,
                                const AllocRequest &Req) {
  // Charge the trigger with what the cache actually handed out since
  // its last checkout, never with slots it has not given away.
  foldCacheCounts(*Self->Cache);
  unsigned Slots = 0, Taken = 0;
  while (Slots < ThreadCache::RefillSlots &&
         Taken != ThreadCache::BlocksPerRefill) {
    BlockId Id = Heap->checkoutBlock(Req.Lane);
    if (Id == InvalidBlockId)
      break;
    BlockDescriptor &Block = Blocks->get(Id);
    Slots += Block.usableFreeCount();
    ++Taken;
    void *First = Arena->pointerTo(Block.firstSlotOffset());
    BlockId GivenUp = Self->Cache->install(Req.Lane, Id, Block, First);
    if (GivenUp != InvalidBlockId)
      Heap->returnBlock(GivenUp);
  }
  if (Taken == 0)
    return false;
  uint64_t Class = Heap->sizeClassFor(Req.Bytes == 0 ? 1 : Req.Bytes);
  emit({.Kind = GcEventKind::ThreadCacheRefill, .Value = Class << 32 | Slots});
  return true;
}

Collector::CacheLedger Collector::threadCacheTotals() {
  CacheLedger Made = CacheRetired;
  Registry.forEachThread([&](MutatorThread &Thread) {
    if (Thread.Cache) {
      Made.Allocs += Thread.Cache->allocs();
      Made.Frees += Thread.Cache->frees();
    }
  });
  return Made;
}

uint64_t Collector::flushThreadCaches() {
  uint64_t SlotsFlushed = 0;
  bool Skipped = false;
  Registry.forEachThread([&](MutatorThread &Thread) {
    if (!Thread.Cache)
      return;
    // A thread the watchdog suspended preemptively can be frozen at
    // any instruction of a lock-free take() or release(): between
    // zeroing a slot and setting its bit, or between setting a bit and
    // counting it.  Returning its blocks would hand slots it is
    // about to use to other threads, so its cache is left alone; the
    // sweep skips its still-owned blocks this cycle.
    if (Thread.state() == MutatorState::SignalSuspended)
      Skipped = true;
    else
      SlotsFlushed += drainCache(*Thread.Cache);
  });
  // With every cache drained no block is owned, and the counts folded
  // into the heap are exactly what the threads did on the lock-free
  // paths.  A skipped cache still has unfolded counts, so the check
  // resumes at the next fully drained handshake.
  if (!Skipped) {
    CGC_CHECK(Heap->ownedBlockCount() == 0,
              "a block is still owned after every cache drained");
    CGC_CHECK(threadCacheTotals() == CacheFolded,
              "thread-cache counts do not reconcile with the heap");
  }
  return SlotsFlushed;
}

void Collector::pinMidCycleAllocation(void *Ptr) {
  Heap->markAllocatedObjectLive(Ptr);
  if (MidCyclePins.size() == MidCyclePinReserve) {
    // Growing the buffer would call libc malloc in the pause, where a
    // stopped mutator may hold a malloc arena lock.  Record the
    // overflow instead: the pipeline skips leak reporting and the
    // sweep for this cycle, so the pin that could not be re-pinned
    // after clearMarks' reset is never reclaimed.
    MidCyclePinOverflow = true;
    return;
  }
  MidCyclePins.push_back(Ptr);
}

void *Collector::allocateGuarded(const AllocRequest &Req) {
  size_t Bytes = Req.Bytes == 0 ? 1 : Req.Bytes;
  CGC_CHECK(Bytes <= GuardLayer::MaxUserBytes,
            "guarded allocation too large");
  GuardSiteId Site = Guards->internSite(Req.Site);
  size_t Padded = static_cast<size_t>(GuardLayer::paddedSize(Bytes));
  void *Slot =
      allocateLocked(untypedRequest(Padded, Req.Kind, Req.IgnoreOffPage),
                     /*Owner=*/nullptr);
  if (!Slot)
    return nullptr;
  // An installed OOM handler's result is returned verbatim; it is not
  // heap memory, so it cannot (and must not) be armed.
  if (!Arena->contains(reinterpret_cast<Address>(Slot)))
    return Slot;
  ObjectRef Ref = Heap->refForBase(windowOffsetOf(Slot));
  CGC_ASSERT(Ref.valid(), "guarded slot must be an object base");
  // Arm against the slot's full capacity (the size class may round the
  // padded request up), so the redzone covers the slop bytes too.
  Guards->arm(Slot, Heap->objectSize(Ref), Bytes, Site);
  return GuardLayer::userPointer(Slot);
}

void *Collector::allocateLocked(const AllocRequest &Req,
                                MutatorThread *Owner) {
  MetadataScope MetaScope(*this);
  maybeStartupCollect();
  maybeRunStackClearHooks();

  if (Owner) {
    if (checkoutToCache(Owner, Req)) {
      void *Cached = Owner->Cache->take(Req.Lane);
      CGC_ASSERT(Cached != nullptr, "checked-out block has no slot");
      return Cached;
    }
    // No block of this lane has a free slot: the path below
    // collects/grows/climbs the ladder for one object, and the block
    // that produced it is checked out afterwards.
  }

  void *Result = takeExisting(Req);
  if (!Result)
    Result = allocateSlow(Req);
  if (!Result)
    return reportOutOfMemory(Req.Bytes);

  BytesSinceGc += Req.Bytes;
  // A callback allocating mid-collection gets an object with a clear
  // mark bit that the cycle's own sweep would reclaim before the
  // callback even returns; pin it for this cycle.
  if (InCollection)
    pinMidCycleAllocation(Result);
  if (Owner)
    checkoutToCache(Owner, Req);
  return Result;
}

void *Collector::takeExisting(const AllocRequest &Req) {
  if (Req.Lane == ObjectHeap::NoLane)
    return nullptr; // Every large object takes a fresh page run.
  return Heap->allocateFromExisting(Req.Lane, Req.Bytes);
}

void *Collector::takeFresh(const AllocRequest &Req) {
  if (Req.Lane == ObjectHeap::NoLane)
    return Heap->allocateLarge(Req.Bytes, Req.Kind, Req.IgnoreOffPage);
  return Heap->addBlock(Req.Lane)
             ? Heap->allocateFromExisting(Req.Lane, Req.Bytes)
             : nullptr;
}

void *Collector::allocateSlow(const AllocRequest &Req) {
  // Out of free slots: decide whether to collect before taking more
  // pages.  (Never mid-collection: a callback's allocation must not
  // recurse into collect.)
  if (!InCollection && shouldCollectBeforeGrowth()) {
    collect("allocation-threshold");
    if (void *Result = takeExisting(Req))
      return Result;
  }
  // Grow: a fresh block (commits pages as needed) or page run.
  if (void *Result = takeFresh(Req))
    return Result;
  // A blacklist that has eaten a sizable share of the committed heap is
  // the paper's worst case for large objects: every candidate run must
  // dodge it.  Tell the client (rate-limited) before fighting on.
  if (Req.Lane == ObjectHeap::NoLane &&
      BlacklistImpl->entryCount() * 4 >= Pages->stats().CommittedPages &&
      Pages->stats().CommittedPages > 0)
    warn(WarnEvent::LargeAllocOnBlacklistedHeap,
         "cgc: large allocation on a blacklist-saturated heap", Req.Bytes);
  return runExhaustionLadder(Req);
}

void *Collector::runExhaustionLadder(const AllocRequest &Req) {
  auto Retry = [&]() -> void * {
    if (void *Result = takeExisting(Req))
      return Result;
    return takeFresh(Req);
  };
  uint64_t Bytes = Req.Bytes;
  // Re-entrant allocation from a mid-collection callback: every rung
  // collects, which would recurse; report exhaustion to the callback
  // instead.
  if (InCollection)
    return nullptr;
  // Rung 1: a full collection.
  ++Resilience.HeapExhaustedCollections;
  noteLadderCollection(collect("heap-exhausted"));
  if (void *Result = Retry())
    return Result;
  // Rung 2: emergency collection.  Interior-pointer recognition drops
  // from All to FirstPage (objects kept alive only by deep interior
  // pointers are reclaimed) and page runs accept blacklisted interior
  // pages — survival over blacklist hygiene, right before reporting
  // out of memory.
  ++Resilience.EmergencyCollections;
  emit({.Kind = GcEventKind::EmergencyCollection, .Value = Bytes});
  requestInteriorTightening(InteriorTightening::Emergency, true);
  Heap->setEmergencyPageRelaxation(true);
  noteLadderCollection(collect("emergency"));
  void *Result = Retry();
  Heap->setEmergencyPageRelaxation(false);
  requestInteriorTightening(InteriorTightening::Emergency, false);
  return Result;
}

void Collector::requestInteriorTightening(InteriorTightening Who, bool On) {
  const unsigned Bit = static_cast<unsigned>(Who);
  InteriorTightenings = On ? InteriorTightenings | Bit
                           : InteriorTightenings & ~Bit;
  Config.Interior =
      InteriorTightenings != 0 && ConfiguredInterior == InteriorPolicy::All
          ? InteriorPolicy::FirstPage
          : ConfiguredInterior;
}

void *Collector::reportOutOfMemory(uint64_t Bytes) {
  ++Resilience.OomEvents;
  emit({.Kind = GcEventKind::OutOfMemory, .Value = Bytes});
  if (!Config.OomHandler)
    return nullptr;
  ++Resilience.OomHandlerInvocations;
  return Config.OomHandler(Bytes, Config.OomHandlerData);
}

void Collector::noteLadderCollection(const CollectionStats &Cycle) {
  if (Cycle.BytesSweptFree != 0)
    return;
  ++Resilience.NoProgressCollections;
  warn(WarnEvent::CollectionNoProgress,
       "cgc: collection reclaimed nothing under allocation pressure",
       Resilience.NoProgressCollections);
}

void Collector::warn(WarnEvent Event, const char *Message, uint64_t Value) {
  uint64_t Count = ++WarnOccurrences[static_cast<unsigned>(Event)];
  // Exponential backoff: deliver occurrences 1, 2, 4, 8, ...
  if ((Count & (Count - 1)) != 0) {
    ++Resilience.WarningsSuppressed;
    return;
  }
  ++Resilience.WarningsIssued;
  emit({.Kind = GcEventKind::Warning, .Value = Value, .Payload = Message});
}

void Collector::deallocate(void *Ptr) {
  // Lock-free owner free: a live object base in one of the caller's
  // owned blocks.  A registered finalizer must be unregistered under
  // the lock, so any registration at all sends frees there.
  MutatorThread *Self = parkableSelf();
  if (Self && Self->Cache && !Finalizers.anyRegistered()) {
    Registry.safepoint(Self);
    Address Addr = reinterpret_cast<Address>(Ptr);
    BlockId Id = InvalidBlockId;
    if (Arena->contains(Addr))
      Id = Map->blockAtRelaxed(pageOfOffset(Arena->offsetOf(Addr)));
    if (Self->Cache->release(Ptr, Id))
      return;
  }
  HeapLockGuard Guard(*this);
  MetadataScope MetaScope(*this);
  if (Guards) {
    deallocateGuarded(Ptr);
    return;
  }
  // Even without guards a bad free must not be undefined behavior:
  // classify first and turn the bad classes into structured incidents
  // (plus the rate-limited warning) while the free itself is ignored.
  // A free into a block another thread owns races that owner's own
  // lock-free free of the same pointer; the loser is the double free.
  switch (Heap->classifyExplicitFree(Ptr)) {
  case ObjectHeap::FreeClass::Ok:
    if (Heap->deallocateExplicit(Ptr)) {
      Finalizers.unregister(windowOffsetOf(Ptr));
      return;
    }
    [[fallthrough]];
  case ObjectHeap::FreeClass::NotAllocated:
    raiseClientIncident(GcIncidentCause::DoubleFree,
                        reinterpret_cast<uint64_t>(Ptr),
                        "cgc: ignored double free");
    return;
  case ObjectHeap::FreeClass::NonHeap:
    raiseClientIncident(GcIncidentCause::ForeignFree,
                        reinterpret_cast<uint64_t>(Ptr),
                        "cgc: ignored free of a non-heap pointer");
    return;
  case ObjectHeap::FreeClass::NotObjectBase:
    raiseClientIncident(GcIncidentCause::InvalidFree,
                        reinterpret_cast<uint64_t>(Ptr),
                        "cgc: ignored free of a non-object (interior?) pointer");
    return;
  }
}

void Collector::raiseClientIncident(GcIncidentCause Cause, uint64_t Addr,
                                    const char *Detail) {
  GcIncident Incident;
  Incident.Cause = Cause;
  Incident.CollectionIndex = Lifetime.Collections;
  Incident.GuardAddress = Addr;
  // Deliberately does NOT set LastGuardIncidentInfo/HasGuardIncident:
  // the latch is the guarded heap's test surface and client misuse in
  // unguarded mode must not masquerade as a guard violation.
  raiseIncident(Incident, WarnEvent::InvalidFree, Detail, Addr);
}

void Collector::raiseIncident(const GcIncident &Incident, WarnEvent Event,
                              const char *Detail, uint64_t Value) {
  emit({.Kind = GcEventKind::Incident, .Value = Value, .Payload = &Incident});
  warn(Event, Detail, Value);
}

Collector::ClientObject Collector::clientView(const BlockDescriptor &Block,
                                              uint32_t Slot) const {
  WindowOffset Base = Block.slotOffset(Slot);
  ClientObject C{.Ptr = Arena->pointerTo(Base),
                 .Bytes = Block.ObjectSize,
                 .Kind = Block.Kind};
  // Only a guarded untyped object has a header; a free slot has none.
  if (!Guards || Block.LayoutId != 0 || !Heap->slotAllocated(Block, Slot))
    return C;
  if (Guards->isQuarantined(Base))
    return {};
  C.Guarded = true;
  C.Header = GuardLayer::inspect(C.Ptr, Block.ObjectSize);
  C.Ptr = GuardLayer::userPointer(C.Ptr);
  if (C.Header.HeaderIntact)
    C.Bytes = static_cast<size_t>(C.Header.UserBytes);
  return C;
}

Collector::ClientObject Collector::clientObjectAt(const void *Ptr) const {
  Address Addr = reinterpret_cast<Address>(Ptr);
  if (!Arena->contains(Addr))
    return {};
  WindowOffset Offset = Arena->offsetOf(Addr);
  if (Guards && Offset >= GuardLayer::HeaderBytes) {
    ObjectRef Ref = Heap->refForBase(Offset - GuardLayer::HeaderBytes);
    if (Ref.valid()) {
      ClientObject C = clientView(Blocks->get(Ref.Block), Ref.Slot);
      if (C.Ptr == Ptr) {
        C.Ref = Ref;
        return C;
      }
    }
  }
  ObjectRef Ref = Heap->refForBase(Offset);
  if (!Ref.valid())
    return {};
  const BlockDescriptor &Block = Blocks->get(Ref.Block);
  return {.Ref = Ref,
          .Ptr = const_cast<void *>(Ptr),
          .Bytes = Block.ObjectSize,
          .Kind = Block.Kind};
}

template <typename FnT>
void Collector::forEachClientObject(bool Marked, FnT Fn) {
  const MarkTable &Marks = Heap->markTable();
  Blocks->forEach([&](BlockId, BlockDescriptor &Block) {
    Heap->forEachAllocatedSlot(Block, [&](uint32_t Slot) {
      if (Marks.isMarked(Block, Slot) != Marked)
        return;
      ClientObject O = clientView(Block, Slot);
      if (O.Ptr)
        Fn(O);
    });
  });
}

void Collector::reportGuardViolation(const GuardViolation &V, uint64_t Addr,
                                     const char *Detail) {
  GcIncident Incident;
  switch (V.Kind) {
  case GuardViolationKind::HeaderSmash:
    ++Guards->Stats.HeaderSmashes;
    Incident.Cause = GcIncidentCause::GuardHeaderSmash;
    break;
  case GuardViolationKind::RedzoneSmash:
    ++Guards->Stats.RedzoneSmashes;
    Incident.Cause = GcIncidentCause::GuardRedzoneSmash;
    break;
  case GuardViolationKind::DoubleFree:
    ++Guards->Stats.DoubleFrees;
    Incident.Cause = GcIncidentCause::DoubleFree;
    break;
  case GuardViolationKind::InvalidFree:
    ++Guards->Stats.InvalidFrees;
    Incident.Cause = GcIncidentCause::InvalidFree;
    break;
  case GuardViolationKind::QuarantineUseAfterFree:
    ++Guards->Stats.UseAfterFreeWrites;
    Incident.Cause = GcIncidentCause::QuarantineUseAfterFree;
    break;
  }
  const char *Site = Guards->siteName(V.Site);
  CrashInfo.GuardViolations.fetch_add(1, std::memory_order_relaxed);
  CrashInfo.LastGuardSeqno.store(V.Seqno, std::memory_order_relaxed);
  CrashInfo.LastGuardKind.store(guardViolationKindName(V.Kind),
                                std::memory_order_relaxed);
  CrashInfo.LastGuardSite.store(Site, std::memory_order_relaxed);
  Incident.CollectionIndex = Lifetime.Collections;
  Incident.GuardSite = Site;
  Incident.GuardSeqno = V.Seqno;
  Incident.GuardUserBytes = V.UserBytes;
  Incident.GuardAddress = Addr;
  LastGuardIncidentInfo = Incident;
  HasGuardIncident = true;
  raiseIncident(Incident, WarnEvent::GuardViolation, Detail, Addr);

  if (Config.GuardFatal) {
    char Message[256];
    std::snprintf(Message, sizeof(Message),
                  "cgc guard violation: %s (site %s, seqno %llu, "
                  "addr 0x%llx)",
                  Detail, Site, (unsigned long long)V.Seqno,
                  (unsigned long long)Addr);
    fatalError(Message, __FILE__, __LINE__);
  }
}

void Collector::deallocateGuarded(void *Ptr) {
  Address Addr = reinterpret_cast<Address>(Ptr);
  ClientObject C = clientObjectAt(Ptr);
  if (C.Guarded) {
    WindowOffset Base = Heap->baseOffset(C.Ref);
    if (C.Header.HeaderIntact && C.Header.RedzoneIntact) {
      // A fully validated guarded free: poison, park, maybe release the
      // ring's oldest entry.
      Finalizers.unregister(Base);
      GuardLayer::QuarantineEntry Evicted;
      if (Guards->quarantine(Arena->pointerTo(Base), Base,
                             Heap->objectSize(C.Ref), C.Header, Evicted))
        releaseQuarantined(Evicted);
      publishCrashState();
      return;
    }
    GuardViolation V{.Kind = C.Header.HeaderIntact
                                 ? GuardViolationKind::RedzoneSmash
                                 : GuardViolationKind::HeaderSmash,
                     .Base = Base,
                     .Seqno = C.Header.Seqno,
                     .Site = C.Header.Site,
                     .UserBytes = C.Header.UserBytes};
    reportGuardViolation(V, Addr, guardViolationKindName(V.Kind));
    return;
  }
  // Typed (precisely scanned) objects carry no guard metadata even in
  // guarded mode; their base pointers free through the raw path.
  if (C.Ref.valid() && Heap->isAllocated(C.Ref) &&
      Blocks->get(C.Ref.Block).LayoutId != 0) {
    Finalizers.unregister(Heap->baseOffset(C.Ref));
    Heap->deallocateExplicit(Ptr);
    return;
  }
  GuardViolation V{.Kind = GuardViolationKind::InvalidFree};
  if (!Arena->contains(Addr)) {
    reportGuardViolation(V, Addr, "free of a non-heap pointer");
    return;
  }
  // The user pointer of a guarded slot that is parked in the quarantine
  // or already swept: a double free.  A parked slot's ring entry
  // remembers the original allocation's identity.
  WindowOffset Offset = Arena->offsetOf(Addr);
  if (Offset >= GuardLayer::HeaderBytes) {
    WindowOffset SlotOff = Offset - GuardLayer::HeaderBytes;
    ObjectRef Ref = Heap->refForBase(SlotOff);
    if (Ref.valid() && Blocks->get(Ref.Block).LayoutId == 0) {
      V.Kind = GuardViolationKind::DoubleFree;
      V.Base = SlotOff;
      if (const GuardLayer::QuarantineEntry *E =
              Guards->findQuarantined(SlotOff)) {
        V.Seqno = E->Seqno;
        V.Site = E->Site;
        V.UserBytes = E->UserBytes;
      }
      reportGuardViolation(V, Addr, "double free");
      return;
    }
  }
  reportGuardViolation(V, Addr, "free of a non-object pointer");
}

void Collector::releaseQuarantined(const GuardLayer::QuarantineEntry &E) {
  void *SlotPtr = Arena->pointerTo(E.Base);
  if (!GuardLayer::poisonIntact(SlotPtr, E.SlotBytes)) {
    GuardViolation V;
    V.Kind = GuardViolationKind::QuarantineUseAfterFree;
    V.Base = E.Base;
    V.Seqno = E.Seqno;
    V.Site = E.Site;
    V.UserBytes = E.UserBytes;
    reportGuardViolation(
        V, reinterpret_cast<uint64_t>(SlotPtr) + GuardLayer::HeaderBytes,
        "quarantine use-after-free write");
  }
  ++Guards->Stats.QuarantineFlushes;
  Heap->deallocateExplicit(SlotPtr);
}

void Collector::flushQuarantine() {
  if (!Guards)
    return;
  HeapLockGuard Guard(*this);
  MetadataScope MetaScope(*this);
  GuardLayer::QuarantineEntry E;
  while (Guards->popOldest(E))
    releaseQuarantined(E);
  publishCrashState();
}

GcLeakReport Collector::findLeaks() {
  CGC_CHECK(Guards, "findLeaks requires GcConfig::DebugGuards");
  HeapLockGuard Guard(*this);
  GcLeakReport Report;
  flushQuarantine();
  // Mark without sweeping: the mark bits then say exactly which
  // guarded objects are unreachable, and the heap is left unchanged.
  measureLiveness();
  std::vector<GcLeakSite> BySite(Guards->siteCount());
  forEachClientObject(/*Marked=*/false, [&](const ClientObject &O) {
    if (!O.Guarded)
      return; // Typed objects have no header to name their site.
    const GuardLayer::Decoded &Info = O.Header;
    GuardSiteId Site =
        Info.HeaderIntact && Info.Site < BySite.size() ? Info.Site : 0;
    GcLeakSite &Bucket = BySite[Site];
    if (Bucket.Objects == 0 || Info.Seqno < Bucket.FirstSeqno)
      Bucket.FirstSeqno = Info.Seqno;
    ++Bucket.Objects;
    Bucket.Bytes += O.Bytes;
  });
  for (GuardSiteId Site = 0; Site != BySite.size(); ++Site) {
    if (BySite[Site].Objects == 0)
      continue;
    BySite[Site].Site = Guards->siteName(Site);
    Report.TotalObjects += BySite[Site].Objects;
    Report.TotalBytes += BySite[Site].Bytes;
    Report.Sites.push_back(BySite[Site]);
  }
  Guards->Stats.LeakedObjects = Report.TotalObjects;
  Guards->Stats.LeakedBytes = Report.TotalBytes;
  return Report;
}

LayoutId
Collector::registerObjectLayout(const std::vector<bool> &PointerWords,
                                size_t SizeBytes) {
  HeapLockGuard Guard(*this);
  MetadataScope MetaScope(*this);
  return Heap->registerLayout(PointerWords, SizeBytes);
}

void Collector::registerDisplacement(uint32_t Displacement) {
  HeapLockGuard Guard(*this);
  Marking->registerDisplacement(Displacement);
}

void Collector::addRootExclusion(const void *Begin, const void *End) {
  HeapLockGuard Guard(*this);
  Roots.addExclusion(Begin, End);
}

bool Collector::shouldCollectBeforeGrowth() const {
  uint64_t Committed = committedHeapBytes();
  if (Committed < Config.MinHeapBytesBeforeGc)
    return false;
  double Threshold =
      static_cast<double>(Committed) * CollectBeforeGrowthRatio;
  return static_cast<double>(BytesSinceGc) >= Threshold;
}

void Collector::emit(const GcEvent &E) {
  // Views of the payload; each is meaningful only for its kinds.
  auto Phase = static_cast<GcPhase>(E.Phase);
  const auto *Text = static_cast<const char *>(E.Payload);
  const auto *Stats = static_cast<const CollectionStats *>(E.Payload);
  const auto *Incident = static_cast<const GcIncident *>(E.Payload);
  const auto *Handshake =
      static_cast<const ThreadRegistry::HandshakeResult *>(E.Payload);
  const auto *Object = static_cast<const ClientObject *>(E.Payload);

  if (E.Kind == GcEventKind::CollectionBegin)
    CrashInfo.CollectionIndex.store(Lifetime.Collections,
                                    std::memory_order_relaxed);
  // A collection's end carries phase -1: no phase is running.
  if (E.Kind == GcEventKind::PhaseBegin ||
      E.Kind == GcEventKind::CollectionEnd)
    CrashInfo.Phase.store(E.Phase, std::memory_order_relaxed);
  if (E.Kind == GcEventKind::Incident &&
      Incident->Cause == GcIncidentCause::RetentionStorm)
    CrashInfo.SentinelIncidents.fetch_add(1, std::memory_order_relaxed);
  uint64_t Index = CrashInfo.CollectionIndex.load(std::memory_order_relaxed);
  if (eventRingRecords(E.Kind))
    CrashInfo.Events.push(E.Kind, E.Phase, Index, E.Value);
  // Phase and per-object events change no mirror.  At CollectionEnd the
  // mirrors show this cycle's numbers before any observer runs.
  if (E.Kind != GcEventKind::PhaseBegin && E.Kind != GcEventKind::PhaseEnd &&
      E.Kind != GcEventKind::ObjectRetained)
    publishCrashState();
  if (E.Kind == GcEventKind::Warning && Config.WarnProc)
    Config.WarnProc(Text, E.Value, Config.WarnProcData);
  Observers.dispatch([&](GcObserver &O) {
    switch (E.Kind) {
    case GcEventKind::CollectionBegin:
      O.onCollectionBegin(Index, Text);
      break;
    case GcEventKind::PhaseBegin:
      O.onPhaseBegin(Phase);
      break;
    case GcEventKind::PhaseEnd:
      O.onPhaseEnd(Phase, E.Value, *Stats);
      break;
    case GcEventKind::CollectionEnd:
      O.onCollectionEnd(Index, *Stats);
      break;
    case GcEventKind::EmergencyCollection:
      O.onEmergencyCollection(E.Value);
      break;
    case GcEventKind::OutOfMemory:
      O.onOutOfMemory(E.Value, Config.OomHandler != nullptr);
      break;
    case GcEventKind::Warning:
      O.onWarning(Text, E.Value);
      break;
    case GcEventKind::HeapVerified:
      O.onHeapVerified(E.Value == 0, E.Value);
      break;
    case GcEventKind::SentinelEscalation:
      break; // Ring only.
    case GcEventKind::Incident:
      O.onIncident(*Incident);
      break;
    case GcEventKind::StopTheWorld:
      O.onStopTheWorld(Handshake->MutatorsStopped, Handshake->Nanos);
      break;
    case GcEventKind::ThreadCacheRefill:
      O.onThreadCacheRefill(static_cast<unsigned>(E.Value >> 32),
                            static_cast<unsigned>(E.Value));
      break;
    case GcEventKind::ObjectRetained:
      if (O.wantsRetainedObjects())
        O.onObjectRetained(Object->Ptr, Object->Bytes, Object->Kind);
      break;
    }
  });
}

void Collector::publishCrashState() {
  auto Mirror = [](std::atomic<uint64_t> &To, uint64_t From) {
    To.store(From, std::memory_order_relaxed);
  };
  Mirror(CrashInfo.HeapExhaustedCollections,
         Resilience.HeapExhaustedCollections);
  Mirror(CrashInfo.EmergencyCollections, Resilience.EmergencyCollections);
  Mirror(CrashInfo.OomEvents, Resilience.OomEvents);
  Mirror(CrashInfo.WarningsIssued, Resilience.WarningsIssued);
  Mirror(CrashInfo.SentinelLevel,
         SentinelImpl ? SentinelImpl->currentLevel() : 0);
  Mirror(CrashInfo.QuarantineDepth, Guards ? Guards->quarantineDepth() : 0);
  Mirror(CrashInfo.RegisteredThreads, Registry.registeredCount());
  Mirror(CrashInfo.OwnedBlocks, Heap->ownedBlockCount());
  GcHandshakeStats Stop = Registry.handshakeStats();
  Mirror(CrashInfo.Handshakes, Stop.Handshakes);
  Mirror(CrashInfo.SignalSuspensions, Stop.SignalSuspensions);
  Mirror(CrashInfo.HandshakeTimeouts, Stop.HandshakeTimeouts);
  Mirror(CrashInfo.MaxStopNanos, Stop.MaxStopNanos);
  Mirror(CrashInfo.LiveBytes, LastCycle.BytesLive);
  Mirror(CrashInfo.CommittedBytes, committedHeapBytes());
  Mirror(CrashInfo.BlacklistedPages, LastCycle.BlacklistedPages);
  static_assert(NumDescriptorClasses == 3,
                "GcCrashState's scan-mix arrays are sized 3");
  for (unsigned I = 0; I != NumDescriptorClasses; ++I) {
    Mirror(CrashInfo.ScanWordsByClass[I], LastCycle.ScanWordsByClass[I]);
    Mirror(CrashInfo.ScanCandidatesByClass[I],
           LastCycle.ScanCandidatesByClass[I]);
  }
}

template <typename BodyT>
bool Collector::runPhase(GcPhase Phase, CollectionStats &Cycle,
                         BodyT &&Body) {
  if (Config.VerifyEveryCollection && Phase == GcPhase::RootScan)
    verifyMarksClearBeforeRootScan();
  emit({.Kind = GcEventKind::PhaseBegin, .Phase = static_cast<int>(Phase)});
  uint64_t Start = monotonicNanos();
  Body();
  uint64_t Nanos = monotonicNanos() - Start;
  Cycle.PhaseNanos[static_cast<unsigned>(Phase)] += Nanos;
  bool Consistent = !Config.VerifyEveryCollection || verifyAfterPhase(Phase);
  emit({.Kind = GcEventKind::PhaseEnd,
        .Phase = static_cast<int>(Phase),
        .Value = Nanos,
        .Payload = &Cycle});
  return Consistent;
}

CollectionStats Collector::collect(const char *Reason) {
  StoppedWorld World(*this, /*Reclaim=*/true);
  if (World.abandoned())
    return CollectionStats();

  // What the handshake measured; a repair retry starts from it again.
  CollectionStats Start;
  Start.MutatorsStopped = World.Handshake.MutatorsStopped;
  Start.HandshakeNanos = World.Handshake.Nanos;
  Start.CacheSlotsFlushed = World.CacheSlotsFlushed;
  Start.CacheBlocksKept = Heap->ownedBlockCount();
  CollectionStats Cycle = Start;
  uint64_t CollectionIndex = Lifetime.Collections;
  emit({.Kind = GcEventKind::CollectionBegin, .Payload = Reason});

  // The last cycle's pending blocks are swept and every mark cleared
  // before anything reads the heap.  This is pause time, so it runs
  // after the begin event that observers time the pause from.
  Heap->clearMarks();

  // Deterministic corruption drills: any armed Metadata* fault site
  // fires here — after unsealing, before any phase — so corrupt-soak
  // runs replay bit-for-bit.  No-op without armed sites.
  Heap->injectMetadataFaults();

  // The collecting thread's probe and jmp_buf are function-scope so
  // the root ranges stay valid through every phase; deeper collector
  // frames sit below the probe and are (correctly) excluded.  setjmp
  // runs in this frame too: in a callee it would snapshot the callee's
  // registers and leave values it spilled in its own frame, below the
  // probe, unscanned.
  std::jmp_buf SelfRegisters;
  volatile char SelfProbe = 0;
  setjmp(SelfRegisters);
  World.addRoots(SelfRegisters, &SelfProbe);

  // The phase pipeline, transactional under the repair ladder: when
  // the verifier (VerifyEveryCollection, !RepairFatal) abandons the
  // cycle at a phase boundary, runPhase returns false and the pipeline
  // returns there — no later step runs or emits anything, and no sweep
  // runs over metadata that failed verification.  \returns whether the
  // cycle completed.
  auto RunPipeline = [&](CollectionStats &C) {
    if (!runPhase(GcPhase::RootScan, C, [&] {
          // beginCycle is reset-safe: an abandoned attempt re-begins
          // without an intervening endCycle.
          BlacklistImpl->beginCycle();
          Marking->runRootScan(Roots, C);
        }))
      return false;

    if (!runPhase(GcPhase::Mark, C, [&] {
          Marking->runMarkPhase(C);
          // Finalizer detection resurrects unreachable objects (marking
          // work), staging them for the Finalize phase.
          Finalizers.processUnreachable(*Marking, *Heap, C);
        }))
      return false;

    // Begin-observer allocations were pinned before clearMarks reset
    // every mark bit ahead of the root scan (and again before a repair
    // retry); re-pin the whole mid-cycle list so the sweep keeps them
    // (idempotent for later allocations).
    for (void *Pinned : MidCyclePins)
      Heap->markAllocatedObjectLive(Pinned);

    if (!runPhase(GcPhase::BlacklistPromote, C, [&] {
          BlacklistImpl->endCycle();
          // Nothing later in the cycle changes the blacklist, so this
          // is also the count at cycle end.
          C.BlacklistedPages = BlacklistImpl->entryCount();
        }))
      return false;

    // A pin that overflowed the pre-reserved buffer was never recorded,
    // so clearMarks' reset erased it: reclaiming anything now could
    // sweep a live mid-cycle allocation.  Degrade to a no-reclaim
    // cycle (the allocation ladder reads it as "reclaimed nothing" and
    // grows the heap) rather than ever freeing an unpinned object.
    if (MidCyclePinOverflow)
      warn(WarnEvent::MidCyclePinOverflow,
           "cgc: callbacks allocated more objects mid-collection than the "
           "pin buffer holds; skipping reclamation this cycle",
           Lifetime.Collections);
    else if (OnLeak)
      forEachClientObject(/*Marked=*/false, [&](const ClientObject &O) {
        OnLeak(O.Ptr, O.Bytes, O.Kind);
      });

    if (!MidCyclePinOverflow && !runPhase(GcPhase::Sweep, C, [&] {
          SweepResult Swept = Heap->sweep();
          if (Guards && !Swept.GuardViolations.empty()) {
            // The sweep finds violations in block order; report them in
            // allocation order instead — seqno, with base as tiebreaker
            // for unreadable headers — so the first report, and the
            // aborting violation under GuardFatal, is the oldest smash.
            std::sort(Swept.GuardViolations.begin(),
                      Swept.GuardViolations.end(),
                      [](const GuardViolation &A, const GuardViolation &B) {
                        return A.Seqno != B.Seqno ? A.Seqno < B.Seqno
                                                  : A.Base < B.Base;
                      });
            for (const GuardViolation &V : Swept.GuardViolations)
              reportGuardViolation(
                  V,
                  reinterpret_cast<uint64_t>(Arena->pointerTo(V.Base)) +
                      GuardLayer::HeaderBytes,
                  guardViolationKindName(V.Kind));
          }
          C.ObjectsSweptFree = Swept.ObjectsSweptFree;
          C.BytesSweptFree = Swept.BytesSweptFree;
          C.ObjectsLive = Swept.ObjectsLive;
          C.BytesLive = Swept.BytesLive;
          C.SlotsPinned = Swept.SlotsPinned;
          C.PagesReleased = Swept.PagesReleased;
        }))
      return false;

    return runPhase(GcPhase::Finalize, C, [&] {
      Finalizers.publishStaged();
      if (Observers.anyWantsRetainedObjects())
        forEachClientObject(/*Marked=*/true, [&](const ClientObject &O) {
          emit({.Kind = GcEventKind::ObjectRetained, .Payload = &O});
        });
    });
  };

  // Transactional retry: a mid-phase verification failure abandoned
  // the pipeline.  Repair in place — world still stopped, heap lock
  // held — clear the partial mark state, and retry the cycle once
  // under the already-paid handshake.  A second failure parks the
  // collector in degraded mode rather than ever sweeping over metadata
  // that cannot be made consistent.
  if (!RunPipeline(Cycle)) {
    ++RepairStatsInfo.CollectionsRetried;
    repairHeapLocked();
    Heap->clearMarks();
    Cycle = Start;
    if (!RunPipeline(Cycle)) {
      repairHeapLocked();
      RepairStatsInfo.DegradedMode = true;
      // The abandoned retry may never have reached BlacklistPromote.
      Cycle.BlacklistedPages = BlacklistImpl->entryCount();
      warn(WarnEvent::MetadataRepair,
           "cgc: heap verification failed again after repair; collector "
           "degraded to growth-only allocation",
           Lifetime.Collections);
    }
  }

  World.removeRoots();

  LastCycle = Cycle;
  Lifetime.accumulate(Cycle);
  BytesSinceGc = 0;
  // The sentinel reads the finished cycle before any client does, so a
  // client's onCollectionEnd sees its escalation already applied.
  if (SentinelImpl)
    SentinelImpl->collectionEnded(CollectionIndex, Cycle);
  emit({.Kind = GcEventKind::CollectionEnd,
        .Value = Cycle.BytesLive,
        .Payload = &Cycle});
  World.resume();
  // Decommit the pages free since before the previous cycle, after the
  // resume so the madvise calls stay out of the pause.
  Pages->ageDeferredDecommits();
  return Cycle;
}

CollectionStats Collector::measureLiveness() {
  // A census flushes no cache: it must not perturb the caches it is
  // measuring, and slots an owned block has not handed out are clear
  // in its bitmap anyway.
  StoppedWorld World(*this, /*Reclaim=*/false);
  CollectionStats Cycle;
  if (World.abandoned())
    return Cycle;
  // The collecting thread's roots, as in collect().
  std::jmp_buf SelfRegisters;
  volatile char SelfProbe = 0;
  setjmp(SelfRegisters);
  World.addRoots(SelfRegisters, &SelfProbe);
  // Pending blocks are swept first, with the marks they were left
  // with, so a census never leaves a block pending.
  Heap->clearMarks();
  Marking->runMark(Roots, Cycle);
  return Cycle;
}

HeapVerifyReport Collector::verifyHeapReport() {
  HeapLockGuard Guard(*this);
  HeapVerifyReport Report = Heap->verify();
  // Block ledger: the heap verifier already holds every unowned block's
  // counter to its bitmap.  With no block owned, every cache has also
  // folded its counts, so the heap's share of lock-free allocations
  // and frees must equal what the threads (live or retired) did.  A
  // mismatch is reported, not fataled: the verifier runs from tests
  // at known-quiet points.
  if (ThreadedMode.load(std::memory_order_relaxed) &&
      Heap->ownedBlockCount() == 0) {
    CacheLedger Made = threadCacheTotals();
    if (Made != CacheFolded)
      Report.notef("thread caches: heap folded %llu allocations / %llu "
                   "frees, threads made %llu / %llu",
                   (unsigned long long)CacheFolded.Allocs,
                   (unsigned long long)CacheFolded.Frees,
                   (unsigned long long)Made.Allocs,
                   (unsigned long long)Made.Frees);
  }
  // Collector-level cross-check: every flat-bitmap blacklist entry must
  // lie inside the potential heap — Figure 2 only notes candidates in
  // the heap's vicinity, so an out-of-range bit means the marker (or
  // the bitmap) corrupted itself.  The hashed form aliases many pages
  // per bit, so only the flat form supports the count comparison.
  if (Config.Blacklist == BlacklistMode::FlatBitmap) {
    uint64_t Seen = 0;
    for (PageIndex P = Pages->arenaBasePage(); P != Pages->arenaLimitPage();
         ++P)
      if (BlacklistImpl->isBlacklisted(P))
        ++Seen;
    if (Seen != BlacklistImpl->entryCount())
      Report.notef("blacklist: %llu pages flagged inside the arena, entry "
                   "count says %llu (bits set outside the potential heap)",
                   (unsigned long long)Seen,
                   (unsigned long long)BlacklistImpl->entryCount());
  }
  return Report;
}

void Collector::verifyHeap() {
  HeapVerifyReport Report = verifyHeapReport();
  if (Report.clean())
    return;
  Report.fatal("heap verification failed", "cgc heap verification failed");
}

void Collector::verifyMarksClearBeforeRootScan() {
  HeapVerifyReport Report = Heap->verifyMarksClear();
  if (Report.clean())
    return;
  Report.fatal("mark bits set when the root scan began",
               "cgc heap verification failed before the root scan");
}

bool Collector::verifyAfterPhase(GcPhase Phase) {
  HeapVerifyReport Report = verifyHeapReport();
  emit({.Kind = GcEventKind::HeapVerified,
        .Phase = static_cast<int>(Phase),
        .Value = Report.Findings.size()});
  if (Report.clean())
    return true;
  if (!Config.RepairFatal) {
    // Guard smashes are damage to *client* memory that the sweep
    // reports through the guard-violation path; metadata repair cannot
    // resolve them, so they never spin the abandon-repair-retry
    // ladder.
    if (std::all_of(Report.Findings.begin(), Report.Findings.end(),
                    [](const VerifyFinding &F) {
                      return F.Kind == VerifyFindingKind::GuardSmash;
                    }))
      return true;
    // Abandon the cycle: collect() skips the remaining phases, repairs
    // under the still-stopped world, and retries once.
    warn(WarnEvent::MetadataRepair,
         "cgc: heap verification failed mid-collection; abandoning "
         "the cycle for repair",
         Report.Findings.size());
    return false;
  }
  Report.fatal("heap verification failed during collection",
               "cgc heap verification failed after phase %s",
               gcPhaseName(Phase));
}

HeapVerifyReport Collector::repairHeapLocked() {
  HeapVerifyReport Report = Heap->verifyAndRepair(RepairStatsInfo);
  ++RepairStatsInfo.VerifyRepairsRun;
  if (!Report.clean())
    warn(WarnEvent::MetadataRepair,
         Report.RepairedClean
             ? "cgc: metadata corruption repaired in place"
             : "cgc: metadata corruption only partially repaired",
         Report.Findings.size());
  return Report;
}

HeapVerifyReport Collector::verifyAndRepair() {
  HeapLockGuard Guard(*this);
  MetadataScope MetaScope(*this);
  return repairHeapLocked();
}

GcRepairStats Collector::repairStats() const {
  GcRepairStats Snapshot = RepairStatsInfo;
  if (MetaArena) {
    Snapshot.SealTransitions = MetaArena->protectTransitions();
    Snapshot.SealNanos = MetaArena->protectNanos();
  }
  return Snapshot;
}

void Collector::serviceMetadataWildWrites() {
  if (!MetaArena)
    return;
  MetadataArena::WildWrite Writes[16];
  unsigned Count = MetaArena->drainWildWrites(Writes, 16);
  if (Count == 0)
    return;
  for (unsigned I = 0; I != Count; ++I) {
    const void *Addr = reinterpret_cast<const void *>(Writes[I].Address);
    GcIncident Incident;
    Incident.Cause = GcIncidentCause::MetadataWildWrite;
    Incident.CollectionIndex = Lifetime.Collections;
    Incident.MetadataAddress = Writes[I].Address;
    PageIndex Page = 0;
    BlockId Hit = Blocks->descriptorContaining(Addr);
    if (Map->attributeAddress(Addr, Page)) {
      Incident.MetadataRegion = "page-map";
      Incident.MetadataPage = Page;
    } else if (Hit != InvalidBlockId) {
      Incident.MetadataRegion = "block-table";
      Incident.MetadataBlock = Hit;
      if (Blocks->isLive(Hit))
        Incident.MetadataPage = Blocks->get(Hit).StartPage;
    } else if (MetaArena->contains(Addr)) {
      Incident.MetadataRegion = "free-lists";
    } else {
      Incident.MetadataRegion = "metadata";
    }
    ++RepairStatsInfo.MetadataWildWrites;
    raiseIncident(Incident, WarnEvent::MetadataRepair,
                  "cgc: wild write to sealed GC metadata caught and "
                  "contained",
                  Writes[I].Address);
  }
  // The faulting stores landed (the handler unprotected their pages so
  // the writers could retry): whatever they hit is suspect — verify
  // and repair before any allocator or collector path trusts it.
  repairHeapLocked();
}

RootId Collector::addRootRange(const void *Begin, const void *End,
                               RootEncoding Encoding, RootSource Source,
                               std::string Label) {
  HeapLockGuard Guard(*this);
  return Roots.addRange(Begin, End, Encoding, Source, std::move(Label));
}

bool Collector::removeRootRange(RootId Id) {
  HeapLockGuard Guard(*this);
  return Roots.removeRange(Id);
}

bool Collector::updateRootRange(RootId Id, const void *Begin,
                                const void *End) {
  HeapLockGuard Guard(*this);
  return Roots.updateRange(Id, Begin, End);
}

void Collector::enableMachineStackScanning() {
  if (!MachineStackScanner)
    MachineStackScanner.emplace(ThreadRegistry::currentStackBase());
}

bool Collector::isHeapPointer(const void *Ptr) const {
  return Arena->contains(reinterpret_cast<Address>(Ptr));
}

void *Collector::objectBase(const void *Ptr) const {
  if (!isHeapPointer(Ptr))
    return nullptr;
  ObjectRef Ref = Marking->resolveCandidate(
      Arena->offsetOf(reinterpret_cast<Address>(Ptr)));
  // A pointer into a free slot still resolves to that slot: the
  // marker cannot tell a free slot from an allocated one.
  if (!Ref.valid() || !Heap->isAllocated(Ref))
    return nullptr;
  return clientView(Blocks->get(Ref.Block), Ref.Slot).Ptr;
}

size_t Collector::objectSizeOf(const void *Ptr) const {
  return clientObjectAt(Ptr).Bytes;
}

bool Collector::isAllocated(const void *Ptr) const {
  ObjectRef Ref = clientObjectAt(Ptr).Ref;
  return Ref.valid() && Heap->isAllocated(Ref);
}

bool Collector::wasMarkedLive(const void *Ptr) const {
  ObjectRef Ref = clientObjectAt(Ptr).Ref;
  return Ref.valid() && Heap->isMarked(Ref);
}

WindowOffset Collector::windowOffsetOf(const void *Ptr) const {
  return Arena->offsetOf(reinterpret_cast<Address>(Ptr));
}

void *Collector::pointerAtOffset(WindowOffset Offset) const {
  return Arena->pointerTo(Offset);
}

void Collector::registerFinalizer(void *Ptr,
                                  std::function<void(void *)> Fn) {
  HeapLockGuard Guard(*this);
  ClientObject C = clientObjectAt(Ptr);
  CGC_CHECK(C.Ref.valid() && Heap->isAllocated(C.Ref),
            "finalizer on a non-object");
  // The queue keys on the slot base and runs the finalizer on the slot;
  // a guarded object's finalizer expects its user pointer.
  if (C.Guarded)
    Fn = [Inner = std::move(Fn)](void *SlotPtr) {
      Inner(GuardLayer::userPointer(SlotPtr));
    };
  Finalizers.registerFinalizer(Heap->baseOffset(C.Ref), std::move(Fn));
}

bool Collector::unregisterFinalizer(void *Ptr) {
  HeapLockGuard Guard(*this);
  ObjectRef Ref = clientObjectAt(Ptr).Ref;
  return Ref.valid() && Finalizers.unregister(Heap->baseOffset(Ref));
}

size_t Collector::runFinalizers() {
  HeapLockGuard Guard(*this);
  return Finalizers.runReady(*Arena);
}

void Collector::addStackClearHook(std::function<void()> Hook) {
  StackClearHooks.push_back(std::move(Hook));
}

void Collector::addPreCollectionHook(std::function<void()> Hook) {
  PreCollectionHooks.push_back(std::move(Hook));
}

void Collector::printReport(std::FILE *Out) const {
  std::fprintf(Out, "=== cgc collector report ===\n");
  std::fprintf(Out, "window          : %llu MiB reserved, heap arena at "
                    "offset 0x%llx (max %llu MiB)\n",
               (unsigned long long)(Arena->size() >> 20),
               (unsigned long long)Config.heapBaseOffset(),
               (unsigned long long)(Config.MaxHeapBytes >> 20));
  std::fprintf(Out, "heap            : %llu KiB committed, %llu KiB "
                    "allocated, %llu free pages\n",
               (unsigned long long)(committedHeapBytes() >> 10),
               (unsigned long long)(Heap->allocatedBytes() >> 10),
               (unsigned long long)Pages->freePageCount());
  std::fprintf(Out, "objects         : %llu allocated over lifetime, "
                    "%llu explicit frees\n",
               (unsigned long long)Heap->stats().ObjectsAllocated,
               (unsigned long long)Heap->stats().ExplicitFrees);
  const ObjectHeapStats &HS = Heap->stats();
  // "mark" is the historical mark phase: RootScan + Mark +
  // BlacklistPromote.
  const uint64_t *PhaseNanos = Lifetime.TotalPhaseNanos;
  const uint64_t MarkNanos =
      PhaseNanos[static_cast<unsigned>(GcPhase::RootScan)] +
      PhaseNanos[static_cast<unsigned>(GcPhase::Mark)] +
      PhaseNanos[static_cast<unsigned>(GcPhase::BlacklistPromote)];
  const uint64_t SweepNanos =
      PhaseNanos[static_cast<unsigned>(GcPhase::Sweep)];
  std::fprintf(Out, "collections     : %llu (mark %.2f ms, sweep %.2f "
                    "ms total); blocks swept at hand-out %llu (%.2f ms), "
                    "at cycle start %llu (%.2f ms)\n",
               (unsigned long long)Lifetime.Collections,
               MarkNanos / 1e6, SweepNanos / 1e6,
               (unsigned long long)HS.HandOutSweeps,
               HS.HandOutSweepNanos / 1e6,
               (unsigned long long)HS.CycleStartSweeps,
               HS.CycleStartSweepNanos / 1e6);
  std::fprintf(Out, "pipeline        :");
  for (unsigned I = 0; I != NumGcPhases; ++I)
    std::fprintf(Out, " %s %.2f ms%s",
                 gcPhaseName(static_cast<GcPhase>(I)),
                 Lifetime.TotalPhaseNanos[I] / 1e6,
                 I + 1 == NumGcPhases ? "\n" : ",");
  if (Registry.lifetimeRegistrations() != 0) {
    GcHandshakeStats Stop = Registry.handshakeStats();
    std::fprintf(Out, "mutators        : %llu registered now, %llu over "
                      "lifetime; %llu handshakes, %llu safepoint parks\n",
                 (unsigned long long)Registry.registeredCount(),
                 (unsigned long long)Registry.lifetimeRegistrations(),
                 (unsigned long long)Stop.Handshakes,
                 (unsigned long long)Registry.safepointParks());
    std::fprintf(Out, "stop-the-world  : %.2f us mean, %.2f us max to "
                      "stop; %llu warn rungs, %llu signal rungs, %llu "
                      "suspensions, %llu send retries, %llu timeouts\n",
                 Stop.Handshakes == 0
                     ? 0.0
                     : Stop.TotalStopNanos / 1e3 / Stop.Handshakes,
                 Stop.MaxStopNanos / 1e3,
                 (unsigned long long)Stop.WarnRungs,
                 (unsigned long long)Stop.SignalRungs,
                 (unsigned long long)Stop.SignalSuspensions,
                 (unsigned long long)Stop.SignalSendRetries,
                 (unsigned long long)Stop.HandshakeTimeouts);
  }
  std::fprintf(Out, "last cycle      : %llu live objects (%llu KiB), "
                    "%llu freed, %llu pinned slots\n",
               (unsigned long long)LastCycle.ObjectsLive,
               (unsigned long long)(LastCycle.BytesLive >> 10),
               (unsigned long long)LastCycle.ObjectsSweptFree,
               (unsigned long long)LastCycle.SlotsPinned);
  std::fprintf(Out, "scan mix        : conservative %llu words / %llu "
                    "candidates, precise %llu / %llu, pointer-free "
                    "%llu / %llu\n",
               (unsigned long long)Lifetime.TotalScanWordsByClass[0],
               (unsigned long long)Lifetime.TotalScanCandidatesByClass[0],
               (unsigned long long)Lifetime.TotalScanWordsByClass[1],
               (unsigned long long)Lifetime.TotalScanCandidatesByClass[1],
               (unsigned long long)Lifetime.TotalScanWordsByClass[2],
               (unsigned long long)Lifetime.TotalScanCandidatesByClass[2]);
  std::fprintf(Out, "blacklist       : %llu pages, %llu candidates "
                    "noted, %.3f%% of GC time\n",
               (unsigned long long)BlacklistImpl->entryCount(),
               (unsigned long long)BlacklistImpl->stats().CandidatesNoted,
               MarkNanos + SweepNanos == 0
                   ? 0.0
                   : 100.0 * Lifetime.TotalBlacklistNanos /
                         (MarkNanos + SweepNanos));
  std::fprintf(Out, "pages skipped   : %llu during blacklist-aware "
                    "placement, %llu grow events\n",
               (unsigned long long)Pages->stats().BlacklistSkippedPages,
               (unsigned long long)Pages->stats().GrowEvents);
  std::fprintf(Out, "roots           : %zu ranges (%zu bytes), %zu "
                    "exclusions\n",
               Roots.rangeCount(), Roots.totalBytes(),
               Roots.exclusionCount());
}

void Collector::dumpHeap(std::FILE *Out) const {
  std::fprintf(Out, "=== cgc heap dump ===\n");
  // Census per (kind, object size): blocks, slots, live, pinned.
  struct Census {
    uint64_t Blocks = 0;
    uint64_t Slots = 0;
    uint64_t Live = 0;
    uint64_t Pinned = 0;
  };
  std::map<std::pair<unsigned, uint32_t>, Census> Counts;
  uint64_t LargeBlocks = 0, LargeBytes = 0;
  Blocks->forEach([&](BlockId, BlockDescriptor &Block) {
    if (Block.IsLarge) {
      ++LargeBlocks;
      LargeBytes += Block.ObjectSize;
      return;
    }
    Census &C = Counts[{static_cast<unsigned>(Block.Kind),
                        Block.ObjectSize}];
    ++C.Blocks;
    C.Slots += Block.ObjectCount;
    C.Live += Block.AllocatedCount;
    C.Pinned += Block.PinnedCount;
  });
  std::fprintf(Out, "%-14s %8s %8s %9s %9s %8s\n", "kind", "size",
               "blocks", "slots", "live", "pinned");
  for (const auto &[Key, C] : Counts)
    std::fprintf(Out, "%-14s %8u %8llu %9llu %9llu %8llu\n",
                 objectKindName(static_cast<ObjectKind>(Key.first)),
                 Key.second, (unsigned long long)C.Blocks,
                 (unsigned long long)C.Slots, (unsigned long long)C.Live,
                 (unsigned long long)C.Pinned);
  std::fprintf(Out, "large blocks: %llu (%llu KiB)\n",
               (unsigned long long)LargeBlocks,
               (unsigned long long)(LargeBytes >> 10));

  // Blacklist geography: contiguous blacklisted stretches within the
  // committed heap (what observation 7's "quick examination" saw).
  std::fprintf(Out, "blacklisted stretches in committed heap:\n");
  PageIndex RunStart = 0;
  uint32_t RunLength = 0;
  unsigned Printed = 0;
  for (PageIndex P = Pages->arenaBasePage();
       P <= Pages->committedLimitPage() && Printed < 16; ++P) {
    bool Bad = P < Pages->committedLimitPage() &&
               BlacklistImpl->isBlacklisted(P);
    if (Bad) {
      if (RunLength == 0)
        RunStart = P;
      ++RunLength;
    } else if (RunLength != 0) {
      std::fprintf(Out, "  pages [%u, %u): %u page(s) at offset 0x%llx\n",
                   RunStart, RunStart + RunLength, RunLength,
                   (unsigned long long)offsetOfPage(RunStart));
      RunLength = 0;
      ++Printed;
    }
  }
  if (Printed == 16)
    std::fprintf(Out, "  ... (more)\n");
  std::fprintf(Out, "free page runs:\n");
  Printed = 0;
  Pages->forEachFreeRun([&](PageIndex Start, uint32_t Length) {
    if (Printed++ < 16)
      std::fprintf(Out, "  pages [%u, %u): %u page(s)\n", Start,
                   Start + Length, Length);
  });
}

void Collector::forEachObject(
    const std::function<void(void *, size_t, ObjectKind)> &Fn) const {
  // Gather blocks in address order first: BlockTable iterates in id
  // order, which is allocation order, not address order.
  std::vector<const BlockDescriptor *> Sorted;
  Blocks->forEach([&](BlockId, BlockDescriptor &Block) {
    Sorted.push_back(&Block);
  });
  std::sort(Sorted.begin(), Sorted.end(),
            [](const BlockDescriptor *A, const BlockDescriptor *B) {
              return A->StartPage < B->StartPage;
            });
  for (const BlockDescriptor *Block : Sorted)
    Heap->forEachAllocatedSlot(*Block, [&](uint32_t Slot) {
      ClientObject C = clientView(*Block, Slot);
      if (C.Ptr)
        Fn(C.Ptr, C.Bytes, C.Kind);
    });
}

void Collector::maybeRunStackClearHooks() {
  if (Config.StackClearing != StackClearMode::Cheap)
    return;
  if (++AllocsSinceClear < Config.StackClearEveryNAllocs)
    return;
  AllocsSinceClear = 0;
  for (const auto &Hook : StackClearHooks)
    Hook();
  if (MachineStackScanner && MachineStackScanner->ownedByCaller())
    MachineStackScanner->clearDeadStack(StackClearBytes);
}
