//===- core/Collector.h - Public collector facade --------------*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point: a conservative mark-sweep collector with
/// page blacklisting, configurable interior-pointer recognition, heap
/// placement control, and §3.1 stack clearing.
///
/// Typical use:
/// \code
///   cgc::Collector GC;                       // default config
///   auto *Cell = static_cast<Node *>(GC.allocate(sizeof(Node)));
///   GC.addRootRange(&Globals, &Globals + 1,
///                   cgc::RootEncoding::Native64,
///                   cgc::RootSource::StaticData, "globals");
///   GC.collect("checkpoint");
/// \endcode
///
/// Each Collector instance owns an independent heap window, so tests
/// and experiments can run many differently configured collectors in
/// one process.
///
//===----------------------------------------------------------------------===//

#ifndef CGC_CORE_COLLECTOR_H
#define CGC_CORE_COLLECTOR_H

#include "core/Blacklist.h"
#include "core/Finalization.h"
#include "core/GcConfig.h"
#include "core/GcIncident.h"
#include "core/GcObserver.h"
#include "core/GcPhase.h"
#include "core/GcStats.h"
#include "core/MarkContext.h"
#include "core/ThreadRegistry.h"
#include "heap/ObjectHeap.h"
#include "roots/MachineStack.h"
#include "roots/RootSet.h"
#include "support/CrashReporter.h"
#include "support/MetadataArena.h"
#include <functional>
#include <memory>
#include <optional>

namespace cgc {

class GcSentinel;
struct GcSentinelStats;

class Collector {
public:
  explicit Collector(const GcConfig &Config = GcConfig());
  ~Collector();

  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;

  //===--------------------------------------------------------------===//
  // Allocation
  //===--------------------------------------------------------------===//

  /// Allocates \p Bytes of \p Kind storage, collecting and/or growing
  /// the heap per policy.  Memory is zero-initialized.
  ///
  /// On exhaustion the slow path climbs a policy ladder before giving
  /// up: collect, grow the arena, collect again, run an emergency
  /// collection with interior-pointer recognition and blacklist page
  /// constraints relaxed, and finally invoke the installed GcOomHandler
  /// (whose result is returned verbatim).
  /// \returns nullptr only when the ladder is exhausted and no handler
  /// is installed (or the handler returned nullptr).
  void *allocate(size_t Bytes, ObjectKind Kind = ObjectKind::Normal);

  /// Explicitly frees an object (required for Uncollectable objects;
  /// optional for others).  \p Ptr must be an object base address.
  void deallocate(void *Ptr);

  /// Registers an object layout (which words may hold pointers) and
  /// returns its id for allocateTyped.  Typed objects are scanned
  /// precisely: the "exact heap information, conservative stacks"
  /// regime of systems like Bartlett's and Chailloux's collectors.
  LayoutId registerObjectLayout(const std::vector<bool> &PointerWords,
                                size_t SizeBytes);

  /// Allocates an object with a registered layout (Normal kind).
  void *allocateTyped(LayoutId Layout);

  /// Allocates a large object that only first-page pointers retain
  /// (observation 7's remedy for >100 KB objects under blacklisting).
  void *allocateIgnoreOffPage(size_t Bytes,
                              ObjectKind Kind = ObjectKind::Normal);

  /// allocate(), tagged with an allocation-site string (interned by
  /// value; typically a "file:line" literal).  Guarded mode records the
  /// site in the object's debug header so violation and leak reports
  /// name it; without DebugGuards the tag is ignored.  Like
  /// allocateIgnoreOffPage, a tagged request never takes a slot from a
  /// thread cache.
  void *allocateTagged(size_t Bytes, const char *Site,
                       ObjectKind Kind = ObjectKind::Normal);

  /// Under InteriorPolicy::BaseOnly, also accept base + Displacement
  /// as a valid reference (tagged-pointer language implementations).
  void registerDisplacement(uint32_t Displacement);

  /// Excludes [Begin, End) from all root scanning — the paper's advice
  /// for "large static data areas that contain seemingly random,
  /// nonpointer areas (e.g. IO buffers)".
  void addRootExclusion(const void *Begin, const void *End);

  //===--------------------------------------------------------------===//
  // Collection
  //===--------------------------------------------------------------===//

  /// Runs a full collection as the phase pipeline
  /// RootScan -> Mark -> BlacklistPromote -> Sweep -> Finalize (see
  /// core/GcPhase.h), emitting observer events around every phase.
  /// \p Reason is recorded in statistics and reported to observers.
  /// \returns the cycle's statistics.
  CollectionStats collect(const char *Reason = "explicit");

  /// Installs (or clears, with nullptr) the out-of-memory handler the
  /// allocation ladder invokes once per exhausted request.
  void setOomHandler(GcOomHandler Fn, void *UserData = nullptr) {
    Config.OomHandler = Fn;
    Config.OomHandlerData = UserData;
  }

  /// Installs (or clears, with nullptr) the warn procedure receiving
  /// rate-limited resilience warnings.
  void setWarnProc(GcWarnProc Fn, void *UserData = nullptr) {
    Config.WarnProc = Fn;
    Config.WarnProcData = UserData;
  }

  /// Runs the mark phase only — no sweep, no finalization — so the heap
  /// is unchanged.  Experiments use this to ask "what would appear
  /// live?" repeatedly against the same structure.  ObjectsMarked /
  /// BytesMarked carry the answer.
  CollectionStats measureLiveness();

  //===--------------------------------------------------------------===//
  // Roots
  //===--------------------------------------------------------------===//

  RootId addRootRange(const void *Begin, const void *End,
                      RootEncoding Encoding, RootSource Source,
                      std::string Label);
  bool removeRootRange(RootId Id);
  bool updateRootRange(RootId Id, const void *Begin, const void *End);

  /// Enables conservative scanning of the calling thread's real stack
  /// and registers during the collections and censuses it runs while
  /// unregistered.  Call from near main().  Scanning covers this
  /// thread only: any other thread that collects must be a registered
  /// mutator (registerMutatorThread), and a collection from another
  /// unregistered thread fails a check.
  void enableMachineStackScanning();

  //===--------------------------------------------------------------===//
  // Mutator threads (see core/ThreadRegistry.h).  With zero registered
  // threads every path below is unreachable and the collector runs the
  // paper's sequential protocol bit-identically.
  //===--------------------------------------------------------------===//

  /// Registers the calling thread as a mutator: records its stack base
  /// (\p StackBaseHint, or the platform stack extent when null), gives
  /// it a cache of thread-owned blocks (GcConfig::ThreadCaches;
  /// disabled in guarded mode), and — sticky, for the collector's
  /// lifetime — switches every public entry point onto the heap lock.
  /// During collections the thread's stack and registers join the
  /// conservative root set.  Call from near the thread's entry point,
  /// before it allocates or holds GC pointers.  \returns false when
  /// GcConfig::MutatorThreads registrations are already live.
  bool registerMutatorThread(const void *StackBaseHint = nullptr);

  /// Unregisters the calling thread (must be registered): returns its
  /// owned blocks to the heap and removes it from the stop-the-world
  /// protocol.  Its stack is no longer scanned — drop or hand off GC
  /// pointers first.
  void unregisterMutatorThread();

  /// Blocking safepoint: if a stop-the-world is in flight, publishes
  /// the calling thread's scan state and parks until resume.  Cheap
  /// (one atomic load) otherwise.  Allocation already polls this;
  /// compute-only loops should call it periodically.
  void safepoint();

  /// The mutator registry, for tests and tooling.
  ThreadRegistry &threadRegistry() { return Registry; }

  /// Snapshot of the lifetime stop-the-world handshake counters:
  /// time-to-stop (max/total over completed rendezvous), signal
  /// suspensions and send retries, and watchdog rung counts.  All
  /// zeros until the first threaded collection.
  GcHandshakeStats handshakeStats() const { return Registry.handshakeStats(); }

  //===--------------------------------------------------------------===//
  // Queries
  //===--------------------------------------------------------------===//

  /// \returns true if \p Ptr points into the collector's window.
  bool isHeapPointer(const void *Ptr) const;

  /// \returns the object base for \p Ptr under the configured
  /// interior-pointer policy, or nullptr if \p Ptr resolves to nothing
  /// or to an object the client has freed.  Every query and walk below
  /// shows an object the same way: the pointer allocate() returned and
  /// the size asked for under DebugGuards, else the slot base and size.
  void *objectBase(const void *Ptr) const;

  /// \returns the allocation size of the object at base \p Ptr, or 0.
  size_t objectSizeOf(const void *Ptr) const;

  /// \returns true if the object at base \p Ptr is currently allocated.
  bool isAllocated(const void *Ptr) const;

  /// \returns true if the last collection marked the object at \p Ptr
  /// (base address) live.  Only meaningful right after collect().
  bool wasMarkedLive(const void *Ptr) const;

  /// Window offset of \p Ptr; experiments report window addresses.
  WindowOffset windowOffsetOf(const void *Ptr) const;
  /// Inverse of windowOffsetOf.
  void *pointerAtOffset(WindowOffset Offset) const;

  //===--------------------------------------------------------------===//
  // Finalization (PCR-style; see Finalization.h)
  //===--------------------------------------------------------------===//

  void registerFinalizer(void *Ptr, std::function<void(void *)> Fn);
  bool unregisterFinalizer(void *Ptr);
  /// Runs finalizers queued by earlier collections; \returns count run.
  size_t runFinalizers();
  size_t pendingFinalizers() const { return Finalizers.readyCount(); }

  //===--------------------------------------------------------------===//
  // Leak detection (the paper's "debugging tool" use case)
  //===--------------------------------------------------------------===//

  /// After marking and before sweeping, reports every allocated object
  /// the collection found unreachable.  Useful with Uncollectable
  /// allocations to audit explicit-deallocation programs.
  using LeakCallback = std::function<void(void *Ptr, size_t Bytes,
                                          ObjectKind Kind)>;
  void setLeakCallback(LeakCallback Fn) { OnLeak = std::move(Fn); }

  //===--------------------------------------------------------------===//
  // Guarded-heap mode (GcConfig::DebugGuards; see heap/GuardedHeap.h)
  //===--------------------------------------------------------------===//

  /// The guard layer, or nullptr when DebugGuards is off.
  GuardLayer *guards() { return Guards.get(); }

  /// Lifetime guard counters.  Requires DebugGuards.
  const GcGuardStats &guardStats() const {
    CGC_CHECK(Guards, "guardStats requires GcConfig::DebugGuards");
    return Guards->Stats;
  }

  /// Releases every quarantined object now, re-checking each slot's
  /// poison fill for use-after-free writes first.  Every collection
  /// does this implicitly before its phases run.  No-op without guards.
  void flushQuarantine();

  /// Find-leaks collection: flushes the quarantine, marks (without
  /// sweeping), and reports every guarded object that is unreachable
  /// but was never explicitly freed, grouped by allocation site in
  /// site-registration order (deterministic).  Requires DebugGuards.
  GcLeakReport findLeaks();

  /// The most recent guard-violation incident, or nullptr if none has
  /// been raised.  Meant for tests and tooling running with
  /// GuardFatal == false; the same payload is delivered through
  /// GcObserver::onIncident as it happens.
  const GcIncident *lastGuardIncident() const {
    return HasGuardIncident ? &LastGuardIncidentInfo : nullptr;
  }

  /// Raises a client-misuse incident (observers + rate-limited warn)
  /// without touching the guard-incident latch: used by the unguarded
  /// free ladder and the malloc-redirect layer for foreign frees and
  /// kin.  \p Detail is a static string for the warn proc; \p Addr the
  /// offending pointer.
  void raiseClientIncident(GcIncidentCause Cause, uint64_t Addr,
                           const char *Detail);

  //===--------------------------------------------------------------===//
  // Observability (see core/GcObserver.h)
  //===--------------------------------------------------------------===//

  /// Registers \p Observer (not owned; must outlive its registration)
  /// for collection/phase/object-retained events.  \returns an id for
  /// removeObserver.  Legal from inside an observer callback.
  GcObserverId addObserver(GcObserver *Observer) {
    return Observers.add(Observer);
  }

  /// Unregisters an observer; \returns true if it was registered.
  /// Legal from inside an observer callback, including the observer
  /// unregistering itself.
  bool removeObserver(GcObserverId Id) { return Observers.remove(Id); }

  //===--------------------------------------------------------------===//
  // Retention-storm sentinel (see core/GcSentinel.h)
  //===--------------------------------------------------------------===//

  /// Replaces the sentinel policy at runtime.  Policy.Enabled == true
  /// (re)creates the sentinel with a fresh window; false tears it down,
  /// restoring any configuration knobs its ladder overrode.  Must not
  /// be called from an observer callback.
  void configureSentinel(const SentinelPolicy &Policy);

  /// The active sentinel, or nullptr when disabled.
  GcSentinel *sentinel() { return SentinelImpl.get(); }

  //===--------------------------------------------------------------===//
  // Crash reporting (see support/CrashReporter.h)
  //===--------------------------------------------------------------===//

  /// This collector's crash-visible state: relaxed-atomic mirrors of
  /// phase/heap/resilience counters plus the event ring, kept current
  /// by every collection and readable from a signal handler.
  const GcCrashState &crashState() const { return CrashInfo; }

  //===--------------------------------------------------------------===//
  // Stack clearing (§3.1)
  //===--------------------------------------------------------------===//

  /// Registers a hook the allocator runs every StackClearEveryNAllocs
  /// allocations when StackClearing == Cheap (e.g. SimStack clearing).
  void addStackClearHook(std::function<void()> Hook);

  /// Registers a hook run at the start of every collection, before any
  /// scanning.  Simulated mutators use this to sync their stack-top
  /// root bounds and refresh register residue.
  void addPreCollectionHook(std::function<void()> Hook);

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  /// Process-unique identity for this collector instance (stable even
  /// if a later collector reuses this one's address).  Client libraries
  /// key per-collector caches (e.g. registered layout ids) on it.
  uint64_t uniqueId() const { return UniqueId; }

  const GcConfig &config() const { return Config; }
  const CollectionStats &lastCollection() const { return LastCycle; }
  const GcLifetimeStats &lifetimeStats() const { return Lifetime; }
  /// Snapshot of the resilience counters (OOM ladder rungs, warnings).
  GcResilienceStats resilienceStats() const { return Resilience; }
  uint64_t allocatedBytes() const { return Heap->allocatedBytes(); }
  uint64_t committedHeapBytes() const {
    return Pages->stats().CommittedPages * PageSize;
  }
  uint64_t blacklistedPageCount() const {
    return BlacklistImpl->entryCount();
  }
  const PageAllocatorStats &pageStats() const { return Pages->stats(); }
  const ObjectHeapStats &heapStats() const { return Heap->stats(); }
  const BlacklistStats &blacklistStats() const {
    return BlacklistImpl->stats();
  }

  /// Prints a human-readable statistics report (the paper's programs
  /// "reference sprintf and use it to print collector statistics").
  void printReport(std::FILE *Out) const;

  /// Prints a per-size-class heap census and the blacklist geography:
  /// the debugging view the paper's appendix analyses were read from
  /// ("A quick examination of the blacklist ... suggests").
  void dumpHeap(std::FILE *Out) const;

  /// Calls \p Fn(base pointer, size, kind) for every currently
  /// allocated object, in address order.
  void forEachObject(
      const std::function<void(void *, size_t, ObjectKind)> &Fn) const;

  /// Runs the deep heap verifier (heap/HeapVerifier.h) plus
  /// collector-level cross-checks (blacklist consistency) and \returns
  /// the accumulated diagnostic report instead of aborting.  O(heap).
  HeapVerifyReport verifyHeapReport();

  /// verifyHeapReport(), with the historical abort semantics: prints
  /// the full report and fatals on any inconsistency.
  void verifyHeap();

  /// Runs the verifier's self-healing pass under the heap lock:
  /// counters resynced from their bitmaps, the page map re-derived from
  /// the block table, lanes relisted and free page runs rebuilt, and
  /// blocks with untrustworthy geometry quarantined (their pages
  /// deliberately leaked).  \returns the pre-repair report with each
  /// finding's Outcome filled in and RepairedClean reflecting the
  /// post-repair re-verification; counters fold into repairStats().
  HeapVerifyReport verifyAndRepair();

  /// Snapshot of the corruption-containment counters: repair passes,
  /// quarantined blocks/pages, collection retries, wild writes to
  /// sealed metadata, and the seal/unseal mprotect traffic.
  GcRepairStats repairStats() const;

  VirtualArena &arena() { return *Arena; }
  /// Low-level access for tests and experiment harnesses.
  ObjectHeap &objectHeap() { return *Heap; }
  PageAllocator &pageAllocator() { return *Pages; }
  MarkContext &marker() { return *Marking; }
  Blacklist &blacklist() { return *BlacklistImpl; }
  RootSet &roots() { return Roots; }

private:
  friend class GcSentinel;

  /// Rate-limited warning kinds (one backoff counter each).
  enum class WarnEvent : unsigned {
    CollectionNoProgress = 0,
    LargeAllocOnBlacklistedHeap = 1,
    SentinelIncident = 2,
    InvalidFree = 3,
    GuardViolation = 4,
    HandshakeStall = 5,
    MetadataRepair = 6,
    ReentrantCollection = 7,
    MidCyclePinOverflow = 8,
  };
  static constexpr unsigned NumWarnEvents = 9;

  /// One collector event, built on the stack and handed to emit().
  /// Phase is the GcPhase index for phase events and HeapVerified, else
  /// -1.  Value is the ring record's value (phase nanos, request bytes,
  /// live bytes, finding count, ladder level, ...); it is size class
  /// << 32 | slots for ThreadCacheRefill.  Payload is the reason
  /// (CollectionBegin), the CollectionStats (PhaseEnd, CollectionEnd),
  /// the message (Warning), the GcIncident, the HandshakeResult
  /// (StopTheWorld) or the ClientObject (ObjectRetained).
  struct GcEvent {
    GcEventKind Kind;
    int Phase = -1;
    uint64_t Value = 0;
    const void *Payload = nullptr;
  };
  /// The one emit path, in this order: the crash-visible phase and
  /// collection index, the crash ring (for the kinds it records), the
  /// crash mirrors (but for phase and per-object events), the warn proc
  /// (for a warning), and the observers.
  void emit(const GcEvent &E);
  /// Writes every GcCrashState mirror from its source: the resilience
  /// counters, the registry's thread and handshake counters, the owned
  /// blocks, the quarantine depth, the sentinel level, and the heap
  /// summary (the last cycle's numbers and the committed bytes).
  void publishCrashState();
  /// An incident's one order: ring record and crash counters (value
  /// \p Value), onIncident, then the rate-limited warning \p Detail.
  void raiseIncident(const GcIncident &Incident, WarnEvent Event,
                     const char *Detail, uint64_t Value);

  /// One allocation request: \p Bytes of \p Kind from block list
  /// \p Lane (ObjectHeap::NoLane for a large object).  \p IgnoreOffPage
  /// places a large object so that only first-page pointers retain it.
  /// A typed request starts with only its \p Layout and that layout's
  /// own lane, which is all the lock-free take needs; allocateRequest
  /// fills in the rest from the descriptor under the heap lock.
  /// \p Site is allocateTagged's allocation-site tag.
  struct AllocRequest {
    size_t Bytes = 0;
    ObjectKind Kind = ObjectKind::Normal;
    unsigned Lane = ObjectHeap::NoLane;
    bool IgnoreOffPage = false;
    LayoutId Layout = 0;
    const char *Site = nullptr;
    /// Whether a thread cache serves the request: Normal-kind small
    /// lanes, typed ones included, but neither an ignore-off-page nor a
    /// tagged request.
    bool cacheable() const {
      return Kind == ObjectKind::Normal && Lane != ObjectHeap::NoLane &&
             !IgnoreOffPage && Site == nullptr;
    }
  };
  /// An untyped request for \p Bytes of \p Kind.
  AllocRequest untypedRequest(size_t Bytes, ObjectKind Kind,
                              bool IgnoreOffPage = false,
                              const char *Site = nullptr) const {
    return {Bytes, Kind, Heap->laneFor(Bytes, Kind), IgnoreOffPage, 0, Site};
  }
  /// The one front end of every allocation entry point: the
  /// allocation-time safepoint, then one of three paths — the owner's
  /// lock-free take from the request's lane (cacheable requests), the
  /// guarded path (untyped requests when DebugGuards is on), or the
  /// locked path.  A typed request is resolved under the lock; a
  /// degenerate or demoted descriptor then goes through allocate() as
  /// the untyped request it stands for.
  void *allocateRequest(const AllocRequest &Req);
  /// The locked allocation tail every request ends in (a guarded one
  /// for its padded slot): startup collection, stack-clear tick, then —
  /// with an \p Owner thread — a block checkout into its cache.  When
  /// that finds no block, or without an owner, one object comes from
  /// an existing block or the slow path; it is charged to the trigger,
  /// pinned if a collection is in flight, and zeroed, and the owner
  /// then checks out the block that produced it.  Exhaustion returns
  /// the OOM handler's result.
  void *allocateLocked(const AllocRequest &Req, MutatorThread *Owner);
  /// A free slot of an existing block (never for large objects).
  void *takeExisting(const AllocRequest &Req);
  /// Grows the heap for one object: a fresh block for the class or
  /// layout, or a fresh page run for a large object.
  void *takeFresh(const AllocRequest &Req);
  /// Threshold collect, grow, then the exhaustion ladder.
  void *allocateSlow(const AllocRequest &Req);
  /// Guarded allocation: interns the request's site, pads the request
  /// for header + redzone, takes a raw slot, arms the guard metadata,
  /// and returns the interior user pointer (slot base +
  /// GuardLayer::HeaderBytes).
  void *allocateGuarded(const AllocRequest &Req);
  /// Guarded free-path validation ladder; every bad class raises a
  /// structured incident instead of undefined behavior.
  void deallocateGuarded(void *Ptr);
  /// One heap object as the client sees it.  A guarded untyped object
  /// (DebugGuards) shows its user pointer, slot base + HeaderBytes, and
  /// the size its header records, or the slot size when the header is
  /// smashed; every other object shows its slot base and slot size.
  struct ClientObject {
    /// The slot; set only by clientObjectAt, and invalid when the
    /// pointer names no slot.
    ObjectRef Ref{};
    /// The client pointer; null for a quarantined slot, which the
    /// client has freed.
    void *Ptr = nullptr;
    size_t Bytes = 0;
    ObjectKind Kind = ObjectKind::Normal;
    /// A guarded object: Ptr is its user pointer, Header its header.
    bool Guarded = false;
    GuardLayer::Decoded Header{};
  };
  /// The client's view of slot \p Slot of \p Block.  A free slot holds
  /// no guarded object and shows its base.
  ClientObject clientView(const BlockDescriptor &Block, uint32_t Slot) const;
  /// The object the client pointer \p Ptr names: the live, unquarantined
  /// guarded object whose user pointer it is, or else the slot it is the
  /// base of, shown as that base and the slot size.
  ClientObject clientObjectAt(const void *Ptr) const;
  /// Calls \p Fn(ClientObject) for every object the last mark left
  /// marked (\p Marked) or unmarked, in block-id and slot order: the
  /// walk behind the leak callback, findLeaks and onObjectRetained.
  template <typename FnT> void forEachClientObject(bool Marked, FnT Fn);
  /// Updates the guard counters and crash state, raises the GcIncident
  /// (raiseIncident), and fatals when GuardFatal.  \p Detail is a
  /// static string naming the violation for the warn proc and the
  /// fatal message.
  void reportGuardViolation(const GuardViolation &V, uint64_t Addr,
                            const char *Detail);
  /// Poison-checks one quarantine entry and releases its slot.
  void releaseQuarantined(const GuardLayer::QuarantineEntry &Entry);

  /// Heap-lock protocol (threaded mode only).  lockHeap first tries the
  /// lock; only when that fails does it publish the calling thread's
  /// scan state and enter BlockedOnHeap before blocking, so a thread
  /// frozen on the collector's mutex counts as stopped (a thread that
  /// got the lock outright knows no stop is in flight).  The mutex is
  /// recursive because collect() runs from allocation slow paths that
  /// already hold it.
  void lockHeap();
  void unlockHeap();
  /// RAII heap lock that is a no-op until the first thread registers,
  /// keeping the zero-thread configuration on the unlocked sequential
  /// path.
  struct HeapLockGuard {
    explicit HeapLockGuard(Collector &GC)
        : GC(GC), Active(GC.ThreadedMode.load(std::memory_order_relaxed)) {
      if (Active)
        GC.lockHeap();
    }
    ~HeapLockGuard() {
      if (Active)
        GC.unlockHeap();
    }
    HeapLockGuard(const HeapLockGuard &) = delete;
    HeapLockGuard &operator=(const HeapLockGuard &) = delete;
    Collector &GC;
    bool Active;
  };
  /// Folds \p Self's pending counts, then checks blocks of \p Req's lane
  /// out into its cache until the refill holds ThreadCache::RefillSlots
  /// free slots, returning any block the cache gives up.  \returns false
  /// when the heap has no block to give.
  bool checkoutToCache(MutatorThread *Self, const AllocRequest &Req);
  /// Folds \p Cache's private deltas into the heap's lifetime stats,
  /// charging the collection trigger by the bytes handed out.
  void foldCacheCounts(ThreadCache &Cache);
  /// Returns every block \p Cache owns to the heap with exact counts.
  /// \returns their usable free slots.
  uint64_t drainCache(ThreadCache &Cache);
  /// drainCache at the end of a thread's registration (unregister, or
  /// a thread lost to fork), retiring its lifetime totals.
  void retireCache(MutatorThread &Thread);
  /// Objects allocated and freed on the lock-free cache paths.
  struct CacheLedger {
    uint64_t Allocs = 0;
    uint64_t Frees = 0;
    bool operator==(const CacheLedger &) const = default;
  };
  /// The thread side of the block ledger: what the retired threads and
  /// every live cache made.  With no block owned it equals CacheFolded.
  CacheLedger threadCacheTotals();
  /// Returns every registered thread's owned blocks (world stopped)
  /// and, when every cache drained, checks the block ledger: no block
  /// owned, and the heap's folded counts equal the threads' totals.
  /// Caches of signal-suspended threads are left alone: the owner may
  /// be frozen inside a lock-free take() or release(), so its blocks
  /// stay owned and the sweep skips them this cycle.  \returns the
  /// free slots in the blocks returned to the heap.
  uint64_t flushThreadCaches();

  /// Pins an object allocated while a collection is in flight (an
  /// observer or warn callback allocating mid-cycle): marks it live
  /// now and records it for the post-Mark re-pin, since clearMarks
  /// before the root scan would otherwise erase a pin made earlier.
  void pinMidCycleAllocation(void *Ptr);
  /// The calling thread's registry record when it is a registered
  /// mutator that may park at a safepoint and use its thread cache;
  /// null when it is unregistered, or when it initiated the current
  /// stop (its callbacks run mid-collection, and parking would wait
  /// for a resume it has not issued yet).  Inline: the allocation and
  /// free entry points call it on every request.
  MutatorThread *parkableSelf() const {
    if (!ThreadedMode.load(std::memory_order_relaxed))
      return nullptr;
    MutatorThread *Self = ThreadRegistry::current();
    return Self == StopInitiator.load(std::memory_order_relaxed) ? nullptr
                                                                 : Self;
  }

  /// ThreadRegistry::StallWarnFn target: routes a watchdog stall report
  /// for one still-running mutator through the rate-limited warn path
  /// (WarnEvent::HandshakeStall), naming the thread.
  static void stallWarnThunk(void *Ctx, uint64_t ThreadId);
  /// pthread_atfork handlers (process-wide, covering every live
  /// Collector in construction order): prepare takes each collector's
  /// heap and registry locks in rank order; parent unwinds; the child
  /// rebuilds each registry around the surviving thread, retires the
  /// lost threads' caches (counts folded, owned blocks returned), and
  /// reinstalls the crash reporter.
  static void forkPrepare();
  static void forkParent();
  static void forkChild();
  /// Per-collector pieces of the fork handlers.
  void forkPrepareOne();
  void forkParentOne();
  void forkChildOne();

  bool shouldCollectBeforeGrowth() const;
  void maybeRunStackClearHooks();
  /// Runs the startup collection once, before the first allocation.
  void maybeStartupCollect();
  /// The exhaustion tail: collect, then emergency collect — retrying
  /// \p Req from existing blocks, then fresh ones, between rungs.
  /// \returns the allocation or nullptr with the ladder exhausted (the
  /// OOM handler is the caller's last step, via reportOutOfMemory).
  void *runExhaustionLadder(const AllocRequest &Req);
  /// The two temporary tightenings of interior-pointer recognition from
  /// All to FirstPage: the exhaustion ladder's emergency collection and
  /// the sentinel's level 3.  Each raises and drops only its own
  /// request, so neither restores a policy over the other's.
  enum class InteriorTightening : unsigned { Emergency = 1, Sentinel = 2 };
  /// Raises (\p On) or drops \p Who's request, then derives
  /// Config.Interior: FirstPage while any request is raised over a
  /// configured All, the configured policy otherwise.
  void requestInteriorTightening(InteriorTightening Who, bool On);
  /// Emits the out-of-memory observer event and invokes the installed
  /// handler (once); \returns the handler's result verbatim.
  void *reportOutOfMemory(uint64_t Bytes);
  /// Tracks whether a ladder-forced collection reclaimed anything and
  /// warns on repeated no-progress cycles.
  void noteLadderCollection(const CollectionStats &Cycle);
  /// Issues \p Message through the warn proc and observers, suppressed
  /// to occurrences 1, 2, 4, 8, ... per event kind.
  void warn(WarnEvent Event, const char *Message, uint64_t Value);
  /// Runs one pipeline phase: phase-begin event, \p Body, the phase's
  /// time added into \p Cycle, phase-end event.  \p Body is a template
  /// callable, so no closure is heap-allocated while the world is
  /// stopped.  With GcConfig::VerifyEveryCollection the two checks
  /// below run around it.  \returns false when the verifier abandoned
  /// the cycle for repair: the pipeline then stops after this phase.
  template <typename BodyT>
  bool runPhase(GcPhase Phase, CollectionStats &Cycle, BodyT &&Body);
  /// Before the root scan: fatal if any mark bit is set (it would
  /// settle its object as traced, and what only it reaches be swept).
  void verifyMarksClearBeforeRootScan();
  /// After \p Phase, before its end event: the deep verifier, then
  /// HeapVerified.  An inconsistency abandons the cycle for repair
  /// (\returns false) or, under RepairFatal, fatals with the report, so
  /// fuzz runs fail at the phase that corrupted the heap.
  bool verifyAfterPhase(GcPhase Phase);

  /// Lazily unseals the metadata arena on entry to a metadata-mutating
  /// path and re-seals at the outermost scope's exit once a
  /// stop-the-world session (a collection or a census) has requested it
  /// (SealPending) — so sealed-mode traffic stays at two mprotect
  /// transitions per session no matter how deeply collect() nests
  /// inside allocation slow paths.  No-op without
  /// GcConfig::SealMetadata.
  struct MetadataScope {
    explicit MetadataScope(Collector &GC) : GC(GC) {
      if (GC.MetaArena) {
        ++GC.MetadataDepth;
        if (GC.MetaArena->sealed()) {
          GC.MetaArena->unseal();
          GC.serviceMetadataWildWrites();
        }
      }
    }
    ~MetadataScope() {
      if (GC.MetaArena && --GC.MetadataDepth == 0 && GC.SealPending) {
        GC.SealPending = false;
        GC.MetaArena->seal();
      }
    }
    MetadataScope(const MetadataScope &) = delete;
    MetadataScope &operator=(const MetadataScope &) = delete;
    Collector &GC;
  };

  /// One stop-the-world session, shared by collect() (\p Reclaim) and
  /// measureLiveness().  The constructor takes the heap lock and
  /// refuses a request from a callback while a collection is in flight
  /// (and, for a reclaiming session, any request in degraded mode).
  /// Otherwise it unseals the metadata and stops the world: with no
  /// registered mutator nothing stops, and the only stack roots are
  /// those of the thread that enabled machine-stack scanning, when it
  /// collects: the paper's sequential cycle.  Every other collecting
  /// thread must be a registered mutator to have its stack scanned.
  /// It reserves the root ranges the stopped window appends to while
  /// the mutators still run free (the mid-cycle pin buffer is fixed
  /// at construction), then either
  /// abandons the session (the watchdog's final rung: a
  /// HandshakeTimeout incident and an immediate resume) or emits
  /// StopTheWorld, sets InCollection and runs the pre-collection hooks.
  /// A reclaiming session first returns every thread-owned block and
  /// flushes the guarded quarantine; a census leaves both alone, so it
  /// does not perturb what it measures.  The destructor removes the
  /// roots, resumes the world, requests re-sealing when it unsealed,
  /// and ends InCollection (clearing the mid-cycle pins) before the
  /// metadata scope and the heap lock unwind.
  class StoppedWorld {
  public:
    StoppedWorld(Collector &GC, bool Reclaim);
    ~StoppedWorld();
    StoppedWorld(const StoppedWorld &) = delete;
    StoppedWorld &operator=(const StoppedWorld &) = delete;

    /// The session was refused, or the handshake timed out and the
    /// world has already resumed: the caller returns an empty cycle.
    bool abandoned() const { return !Began; }
    /// Adds the stack and register roots: [StackTop, StackBase) plus
    /// the register snapshot of every registered thread, in
    /// registration order.  The collecting thread contributes
    /// [\p Probe, its stack base) and \p Registers, which setjmp filled
    /// in the caller's frame; it is either registered or the thread
    /// that enabled machine-stack scanning, whose range comes first.
    /// Any other unregistered collecting thread contributes nothing
    /// without machine-stack scanning, and fails a check with it.
    void addRoots(const std::jmp_buf &Registers, const volatile char *Probe);
    /// Removes the ranges addRoots() added.
    void removeRoots();
    /// Ends the window: clears the stop initiator and resumes.
    void resume();

    ThreadRegistry::HandshakeResult Handshake;
    /// Free slots in the thread-owned blocks a reclaiming session
    /// returned to the heap.
    uint64_t CacheSlotsFlushed = 0;

  private:
    /// Stops the world (a no-op with no registered mutator), flushing
    /// the caches when \p Reclaim.  \returns false when the handshake
    /// timed out and the world has resumed.
    bool stop(bool Reclaim);

    Collector &GC;
    HeapLockGuard HeapGuard;
    std::optional<MetadataScope> MetaScope;
    MutatorThread *Self = nullptr;
    bool Stopped = false;
    /// This session set the collector's InCollection.
    bool Began = false;
    std::vector<RootId> RootIds;
  };
  /// Drains the sealed arena's wild-write ring: attributes each caught
  /// store to the structure it hit (block table, page map, free lists),
  /// raises GcIncident{MetadataWildWrite}, and runs one repair pass.
  /// Called whenever the arena transitions sealed -> unsealed.
  void serviceMetadataWildWrites();
  /// One verifyAndRepair pass with counters folded into
  /// RepairStatsInfo; callers hold the heap lock (and, mid-collection,
  /// the stopped world).  \returns the annotated pre-repair report.
  HeapVerifyReport repairHeapLocked();

  GcConfig Config;
  /// The interior-pointer policy the client configured.  Config.Interior
  /// is derived from it and the tightening requests
  /// (requestInteriorTightening), and written nowhere else.
  const InteriorPolicy ConfiguredInterior;
  /// The InteriorTightening bits of the requests now raised.
  unsigned InteriorTightenings = 0;
  std::unique_ptr<VirtualArena> Arena;
  /// Dedicated mmap arena for GC metadata when GcConfig::SealMetadata
  /// is on; its pages flip PROT_READ between collections.  Declared
  /// before the structures that allocate from it so it is destroyed
  /// last.  Null (and everything heap-allocated) when sealing is off.
  std::unique_ptr<MetadataArena> MetaArena;
  std::unique_ptr<PageAllocator> Pages;
  std::unique_ptr<PageMap> Map;
  std::unique_ptr<BlockTable> Blocks;
  /// Guard layer (DebugGuards only).  Declared before Heap, which
  /// borrows a const pointer for sweep-time validation.
  std::unique_ptr<GuardLayer> Guards;
  std::unique_ptr<ObjectHeap> Heap;
  std::unique_ptr<Blacklist> BlacklistImpl;
  std::unique_ptr<MarkContext> Marking;
  RootSet Roots;
  FinalizationQueue Finalizers;
  std::optional<MachineStack> MachineStackScanner;
  ThreadRegistry Registry;
  /// Serializes every heap-mutating entry point in threaded mode, and
  /// doubles as the stop-the-world fence: the collector holds it for
  /// the whole collection.  Recursive so collections triggered from
  /// allocation slow paths re-enter cleanly.
  std::recursive_mutex HeapLock;
  /// Set (never cleared) by the first registerMutatorThread.  Until
  /// then no entry point touches HeapLock or the registry, so the
  /// single-mutator configuration is instruction-identical to the
  /// sequential collector.
  std::atomic<bool> ThreadedMode{false};
  /// The block ledger: objects allocated and freed on the lock-free
  /// paths, as folded into the heap's stats, and the totals of threads
  /// that have since unregistered.  After a fully drained flush the
  /// folded counts equal the retired plus the live threads' totals.
  CacheLedger CacheFolded;
  CacheLedger CacheRetired;

  LeakCallback OnLeak;
  std::vector<std::function<void()>> StackClearHooks;
  std::vector<std::function<void()>> PreCollectionHooks;
  GcObserverRegistry Observers;
  std::unique_ptr<GcSentinel> SentinelImpl;
  GcCrashState CrashInfo;
  bool CrashRegistered = false;

  uint64_t UniqueId;
  GcIncident LastGuardIncidentInfo;
  bool HasGuardIncident = false;
  CollectionStats LastCycle;
  GcLifetimeStats Lifetime;
  GcResilienceStats Resilience;
  /// Corruption-containment counters; seal traffic is read from the
  /// arena at snapshot time (repairStats()).
  GcRepairStats RepairStatsInfo;
  /// Depth of nested MetadataScope frames (heap lock serializes).
  unsigned MetadataDepth = 0;
  /// A collection finished inside a nested scope; seal on unwind.
  bool SealPending = false;
  uint64_t WarnOccurrences[NumWarnEvents] = {};
  uint64_t BytesSinceGc = 0;
  uint64_t AllocsSinceClear = 0;
  bool StartupGcDone = false;
  bool InCollection = false;
  /// Objects handed out while InCollection (observer/warn callbacks
  /// allocating mid-cycle).  Each is mark-bit pinned at allocation
  /// time, but a begin-observer allocation precedes the clearMarks that
  /// runs before the root scan — so the pipeline re-pins this list
  /// after Mark, before leak reporting and the sweep.  Cleared when the
  /// cycle ends.
  /// Its MidCyclePinReserve entries are reserved at construction and
  /// it never grows, so recording a pin never calls libc malloc inside
  /// the pause; see pinMidCycleAllocation for the overflow degrade.
  std::vector<void *> MidCyclePins;
  /// The fixed capacity of MidCyclePins.
  static constexpr size_t MidCyclePinReserve = 1024;
  /// A mid-cycle pin found MidCyclePins full and was not recorded:
  /// leak reporting and the sweep are skipped for the rest of the
  /// cycle (including a repair retry) so the unrecorded object can
  /// never be reclaimed.  Reset with MidCyclePins at cycle end.
  bool MidCyclePinOverflow = false;
  /// The registered thread that initiated the current stop-the-world
  /// window (nullptr outside a stop, or when the initiator is
  /// unregistered).  Observer callbacks run on this thread while every
  /// other mutator is parked; parkableSelf() treats it as unregistered,
  /// so a callback that allocates cannot park against its own stop
  /// request and self-deadlock (see DESIGN.md "Callback re-entrancy").
  std::atomic<MutatorThread *> StopInitiator{nullptr};
};

/// RAII mutator registration: registers the constructing thread with
/// \p GC and unregisters at scope exit.  The canonical shape of a
/// mutator thread's entry function:
/// \code
///   void worker(cgc::Collector &GC) {
///     cgc::GcThreadScope Scope(GC);
///     // ... allocate, mutate, GC.safepoint() in compute loops ...
///   }
/// \endcode
class GcThreadScope {
public:
  explicit GcThreadScope(Collector &GC, const void *StackBaseHint = nullptr)
      : GC(GC), Registered(GC.registerMutatorThread(StackBaseHint)) {}
  ~GcThreadScope() {
    if (Registered)
      GC.unregisterMutatorThread();
  }
  GcThreadScope(const GcThreadScope &) = delete;
  GcThreadScope &operator=(const GcThreadScope &) = delete;

  /// False when the registry was full (GcConfig::MutatorThreads).
  bool registered() const { return Registered; }

private:
  Collector &GC;
  bool Registered;
};

} // namespace cgc

#endif // CGC_CORE_COLLECTOR_H
