/*===- capi/cgc.h - C API for the cgc collector ----------------*- C -*-===*
 *
 * Part of the cgc project: a reproduction of Boehm, "Space Efficient
 * Conservative Garbage Collection", PLDI 1993.
 *
 *===--------------------------------------------------------------------===*
 *
 * A C interface in the shape of the era's collectors (the paper's
 * collector was a C library; this API mirrors its descendants'
 * GC_malloc family).  Every function takes an explicit collector
 * handle — unlike the originals there is no hidden global, so several
 * independently configured collectors can coexist in one process.
 *
 * Minimal use:
 *
 *   cgc_config Config;
 *   cgc_config_init(&Config);
 *   cgc_collector *GC = cgc_create(&Config);
 *   cgc_enable_stack_scanning(GC);
 *   int **P = cgc_malloc(GC, sizeof(int *));
 *   cgc_gcollect(GC);
 *   cgc_destroy(GC);
 *
 *===--------------------------------------------------------------------===*/

#ifndef CGC_CAPI_CGC_H
#define CGC_CAPI_CGC_H

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct cgc_collector cgc_collector;

/* Interior-pointer policies (see core/GcConfig.h). */
enum {
  CGC_INTERIOR_BASE_ONLY = 0,
  CGC_INTERIOR_FIRST_PAGE = 1,
  CGC_INTERIOR_ALL = 2,
};

/* Blacklist representations. */
enum {
  CGC_BLACKLIST_OFF = 0,
  CGC_BLACKLIST_FLAT = 1,
  CGC_BLACKLIST_HASHED = 2,
};

/* Heap placements (see core/GcConfig.h; the paper's "properly
 * positioning the heap in the address space"). */
enum {
  CGC_PLACEMENT_HIGH_BITS_MIXED = 0, /* the recommended default */
  CGC_PLACEMENT_LOW_SBRK = 1,
  CGC_PLACEMENT_ASCII_RANGE = 2,
  CGC_PLACEMENT_CUSTOM = 3,          /* use heap_base_offset    */
};

/* Stack-clearing modes (the paper's section-3.1 technique). */
enum {
  CGC_STACK_CLEAR_OFF = 0,
  CGC_STACK_CLEAR_CHEAP = 1,
};

/* Collection pipeline phases, in the order every collection runs them:
 * root-scan -> mark -> blacklist-promote -> sweep -> finalize.  Event
 * observers (cgc_add_observer) receive begin/end callbacks per phase.
 */
enum {
  CGC_PHASE_ROOT_SCAN = 0,
  CGC_PHASE_MARK = 1,
  CGC_PHASE_BLACKLIST_PROMOTE = 2,
  CGC_PHASE_SWEEP = 3,
  CGC_PHASE_FINALIZE = 4,
};

/* Plain-C mirror of GcConfig::SentinelPolicy — the retention-storm
 * sentinel watching the live-bytes trajectory across a window of
 * collections (see core/GcSentinel.h).  Zero numeric fields keep the
 * library defaults.  A storm also needs net growth of 5% of the live
 * bytes at window start and growth on 3/4 of the window's
 * per-collection deltas; escalations are at least two collections
 * apart, and the interior tightening lasts eight. */
typedef struct cgc_sentinel_policy {
  int enabled;                             /* boolean; default off     */
  unsigned window_collections;             /* 0 = default (8)          */
  unsigned long long growth_floor_bytes;   /* 0 = default (1 MiB)      */
  unsigned calm_collections;               /* 0 = default (4)          */
} cgc_sentinel_policy;

/* Plain-C mirror of the collector configuration.  Zero/default
 * initialize with cgc_config_init; unset fields keep library defaults.
 */
typedef struct cgc_config {
  unsigned long long window_bytes;       /* 0 = default (4 GiB)        */
  unsigned long long max_heap_bytes;     /* 0 = default (256 MiB)      */
  unsigned long long heap_base_offset;   /* 0 = recommended placement  */
  int interior_policy;                   /* CGC_INTERIOR_*             */
  int blacklist_mode;                    /* CGC_BLACKLIST_*            */
  int blacklist_aging;                   /* boolean                    */
  int gc_at_startup;                     /* boolean                    */
  unsigned root_scan_alignment;          /* 1, 2, 4, or 8 (heap words: 8) */
  /* Maximum registered mutator threads (cgc_register_thread); 0 =
   * default (64).  A collector with no registered threads runs the
   * paper's sequential single-mutator protocol bit-identically.
   * Outside guarded mode, registered threads get thread-owned
   * allocation blocks: checked out whole under the heap lock,
   * allocated from and freed into lock-free, and returned at every
   * stop-the-world handshake. */
  unsigned mutator_threads;
  int heap_placement;                    /* CGC_PLACEMENT_*            */
  unsigned hashed_blacklist_bits_log2;   /* 0 = default (16)           */
  double collect_before_growth_ratio;    /* <= 0 = default (0.5)       */
  unsigned long long min_heap_bytes_before_gc; /* 0 = default (1 MiB)  */
  int stack_clearing;                    /* CGC_STACK_CLEAR_*; 4 KiB/step */
  unsigned stack_clear_every_n_allocs;   /* 0 = default (64)           */
  int avoid_trailing_zero_addresses;     /* boolean                    */
  /* Run the deep heap verifier after every collection phase and abort
   * with a full diagnostic report on any inconsistency.  Expensive
   * (O(heap) per phase); meant for fuzzing and debugging.  Also
   * forced on by the CGC_VERIFY_EVERY_COLLECTION environment
   * variable. */
  int verify_every_collection;           /* boolean                    */
  /* Retention-storm sentinel policy; sentinel.enabled defaults off. */
  cgc_sentinel_policy sentinel;
  /* Guarded-heap (debug) mode: every allocation carries a 16-byte
   * header (allocation-site tag, monotonic sequence number, canary)
   * and a trailing redzone, validated at every sweep and by the heap
   * verifier; explicit frees are fully validated and freed objects are
   * poisoned and parked in a bounded quarantine that detects
   * use-after-free writes.  Retained sets are bit-identical to an
   * unguarded collector on the same workload. */
  int debug_guards;                      /* boolean; default off       */
  /* Abort with a diagnostic on the first guard violation (default).
   * Zero records the violation as an incident (cgc_incident_fn,
   * CGC_INCIDENT_*) and keeps running. */
  int guard_fatal;                       /* boolean; default on        */
  /* Quarantine capacity in objects; freed guarded objects are parked
   * this long before their memory is reusable.  0 = release
   * immediately (no use-after-free window).  Default 256. */
  unsigned quarantine_slots;
  /* Stop-the-world handshake watchdog deadline in milliseconds.
   * 0 (default) disables the watchdog: the handshake waits forever,
   * exactly as before the hardening layer existed.  Nonzero arms an
   * escalation ladder: a rate-limited warning at deadline/4, a
   * preemptive signal suspension of still-running mutators at
   * deadline/2, and at the full deadline a CGC_INCIDENT_HANDSHAKE_
   * TIMEOUT incident after which the collection attempt is abandoned
   * and allocation degrades to heap growth. */
  unsigned long long handshake_deadline_ms;
  /* The reserved suspend signal for the watchdog's preemptive rung;
   * the resume signal is always suspend+1 and both are reserved
   * process-wide while any watchdog is armed.  0 (default) =
   * SIGRTMIN+6, overridable with the CGC_SUSPEND_SIGNAL environment
   * variable; negative disables the signal rung entirely (the ladder
   * then goes warn -> timeout). */
  int suspend_signal;
  /* Place the collector's own metadata (block table, page map, free
   * lists) in a dedicated arena kept PROT_READ between collections.
   * A wild store into sealed metadata faults; the collector's SIGSEGV
   * sub-handler attributes it to the damaged structure, raises a
   * CGC_INCIDENT_METADATA_WILD_WRITE incident, repairs the heap in
   * place, and resumes the store — instead of crashing later on
   * corrupt metadata.  Costs two mprotect calls per collection. */
  int seal_metadata;                     /* boolean; default off       */
  /* Abort (through the fatal-error path) when the mid-collection
   * verifier finds corrupt metadata (default, the historical
   * behavior).  Zero engages the containment ladder instead: abandon
   * the collection, repair the heap from the surviving structures,
   * retry the cycle once, and on a second failure degrade to
   * fresh-page allocation — never aborting. */
  int repair_fatal;                      /* boolean; default on        */
} cgc_config;

/* Fills *config with the library defaults.  Every field of the C++
 * GcConfig has a counterpart here, initialized to the same default;
 * cgc_current_config reads the resolved configuration back. */
void cgc_config_init(cgc_config *config);

/* Creates/destroys a collector.  NULL config = defaults. */
cgc_collector *cgc_create(const cgc_config *config);
void cgc_destroy(cgc_collector *gc);

/* --- allocation (all memory is zero-initialized) -------------------- */

/* Pointer-bearing, collectable. */
void *cgc_malloc(cgc_collector *gc, size_t bytes);
/* Guaranteed pointer-free: never scanned, may use blacklisted pages. */
void *cgc_malloc_atomic(cgc_collector *gc, size_t bytes);
/* Scanned but never collected; free with cgc_free. */
void *cgc_malloc_uncollectable(cgc_collector *gc, size_t bytes);
/* Pointer-free AND uncollectable (bdwgc's GC_malloc_atomic_uncollectable):
 * never scanned, never reclaimed by the collector; free with cgc_free. */
void *cgc_malloc_atomic_uncollectable(cgc_collector *gc, size_t bytes);
/* Large object retained only through first-page pointers (paper,
 * observation 7). */
void *cgc_malloc_ignore_off_page(cgc_collector *gc, size_t bytes);
/* Explicit deallocation (required for uncollectable objects). */
void cgc_free(cgc_collector *gc, void *ptr);

/* --- typed (descriptor-driven) allocation ---------------------------- */

/* Registers an interned layout descriptor for objects of size bytes
 * (small objects only).  pointer_words[i] nonzero means word i may hold
 * a pointer; words at and past num_words are pointer-free.  Returns the
 * descriptor id.  Registering the same {bitmap, size} twice returns the
 * same id.  Degenerate bitmaps (every word / no word) transparently
 * behave like cgc_malloc / cgc_malloc_atomic. */
unsigned cgc_register_descriptor(cgc_collector *gc,
                                 const unsigned char *pointer_words,
                                 size_t num_words, size_t bytes);

/* Allocates one object of the given descriptor.  Only the declared
 * pointer words are traced; the rest are ignored by the marker and
 * never feed the page blacklist. */
void *cgc_malloc_explicitly_typed(cgc_collector *gc, unsigned descriptor);

/* --- collection ------------------------------------------------------ */

/* Runs a full collection; returns the number of bytes reclaimed. */
unsigned long long cgc_gcollect(cgc_collector *gc);

/* --- mutator threads -------------------------------------------------- */

/* Registers the calling thread as a mutator of gc.  Until the first
 * registration the collector runs the paper's sequential protocol
 * bit-identically; afterwards allocation and collection synchronize
 * through the heap lock and a cooperative stop-the-world handshake.
 * Call near the top of the thread's entry function: stack frames
 * entered before registration are invisible to the collector, so the
 * thread must not yet hold the only pointer to a collectable object.
 * Returns nonzero on success, 0 when cgc_config.mutator_threads
 * registrations are already live.  Pair with cgc_unregister_thread
 * before the thread exits. */
int cgc_register_thread(cgc_collector *gc);

/* Unregisters the calling thread (flushing its allocation cache).
 * The thread must not touch gc afterwards without re-registering. */
void cgc_unregister_thread(cgc_collector *gc);

/* Safepoint poll: if a collection is waiting for this thread, publish
 * scan state and park until it finishes.  Cheap when no collection is
 * pending.  Allocation already polls; call this inside long
 * allocation-free compute loops.  No-op for unregistered threads. */
void cgc_safepoint(cgc_collector *gc);

/* Fills *out with gc's resolved configuration — the exact settings the
 * collector is running with, after defaulting and clamping.  A config
 * passed to cgc_create round-trips: every field set to a definite
 * value comes back unchanged. */
void cgc_current_config(cgc_collector *gc, cgc_config *out);

/* --- memory-pressure resilience -------------------------------------- */

/* Out-of-memory handler, invoked exactly once per exhausted request
 * after the allocation ladder (collect, grow, collect again,
 * emergency collect with relaxed interior-pointer recognition) has
 * failed.  bytes is the requested size.  Whatever it returns is
 * returned from the failed allocation verbatim — return NULL to
 * propagate the failure, or longjmp/throw to unwind. */
typedef void *(*cgc_oom_fn)(size_t bytes, void *client_data);

/* Installs (or clears, with NULL) the out-of-memory handler. */
void cgc_set_oom_handler(cgc_collector *gc, cgc_oom_fn fn,
                         void *client_data);

/* Warn procedure for rate-limited resilience warnings (repeated
 * collections reclaiming nothing under allocation pressure, large
 * allocations on a blacklist-saturated heap).  Each warning kind is
 * delivered on its 1st, 2nd, 4th, 8th, ... occurrence; value carries
 * the occurrence count or a size, depending on the message. */
typedef void (*cgc_warn_fn)(const char *message, unsigned long long value,
                            void *client_data);

/* Installs (or clears, with NULL) the warn procedure. */
void cgc_set_warn_proc(cgc_collector *gc, cgc_warn_fn fn,
                       void *client_data);

/* Runs the deep heap verifier (block table <-> page map <-> free
 * lists <-> mark bits <-> blacklist cross-checks) and returns the
 * number of inconsistencies found, 0 for a clean heap.  Never aborts.
 * When report/report_bytes name a buffer, the human-readable issue
 * report (one line per issue, NUL-terminated, truncated to fit) is
 * written into it. */
size_t cgc_verify_heap(cgc_collector *gc, char *report,
                       size_t report_bytes);

/* Structured verifier finding kinds (VerifyFindingKind). */
enum {
  CGC_VERIFY_GENERIC = 0,          /* uncategorized cross-check failure */
  CGC_VERIFY_BLOCK_GEOMETRY = 1,   /* block descriptor/header damage    */
  CGC_VERIFY_PAGE_MAP_STALE = 2,   /* page-map entry disagrees w/ table */
  CGC_VERIFY_COUNTER_MISMATCH = 3, /* live/free counters out of sync    */
  CGC_VERIFY_FREE_LIST_BROKEN = 4, /* small-object free list damaged    */
  CGC_VERIFY_FREE_RUN_BROKEN = 5,  /* page-allocator free run damaged   */
  CGC_VERIFY_GUARD_SMASH = 6,      /* guarded-heap canary/redzone smash */
  CGC_VERIFY_ACCOUNTING = 7,       /* byte accounting inconsistency     */
};

/* Repair outcome per finding (VerifyRepairOutcome). */
enum {
  CGC_REPAIR_NOT_ATTEMPTED = 0,    /* verify-only pass, or unrepaired   */
  CGC_REPAIR_REPAIRED = 1,         /* structure rebuilt in place        */
  CGC_REPAIR_QUARANTINED = 2,      /* block/page leaked deliberately    */
};

/* One structured verifier finding.  message points into report
 * storage and is valid only for the duration of the callback. */
typedef struct cgc_verify_finding {
  int kind;                 /* CGC_VERIFY_*                             */
  const char *message;      /* human-readable one-liner                 */
  unsigned long long page;  /* faulting page index; 0 = not page-level  */
  unsigned block;           /* faulting block id; 0 = not block-level   */
  int outcome;              /* CGC_REPAIR_*                             */
} cgc_verify_finding;

/* Streaming verifier-report callback: one call per finding. */
typedef void (*cgc_verify_report_fn)(const cgc_verify_finding *finding,
                                     void *client_data);

/* Runs the deep heap verifier and streams every structured finding
 * (capped and deduplicated per (kind, page); see cgc_repair_stats for
 * the truncation counters) through fn.  Returns the number of
 * findings reported.  Never aborts; fn may be NULL to just count. */
size_t cgc_verify_heap_report(cgc_collector *gc, cgc_verify_report_fn fn,
                              void *client_data);

/* Lifetime corruption-containment counters (GcRepairStats). */
typedef struct cgc_repair_stats {
  unsigned long long verify_repairs_run;   /* verifyAndRepair passes    */
  unsigned long long findings_repaired;    /* findings fixed in place   */
  unsigned long long blocks_quarantined;   /* blocks deliberately leaked*/
  unsigned long long pages_quarantined;    /* pages deliberately leaked */
  unsigned long long free_list_rebuilds;   /* free lists rebuilt        */
  unsigned long long page_map_rederivations; /* page-map entries fixed  */
  unsigned long long counters_resynced;    /* counters re-derived       */
  unsigned long long collections_retried;  /* cycles abandoned+retried  */
  unsigned long long metadata_wild_writes; /* sealed-arena SIGSEGVs     */
  unsigned long long seal_transitions;     /* mprotect seal/unseal calls*/
  unsigned long long seal_nanos;           /* total mprotect time       */
  int degraded_mode;        /* boolean: collector gave up on collecting */
} cgc_repair_stats;

/* Runs a verify-and-repair pass: free lists rebuilt from the alloc and
 * mark bits, page-map entries re-derived from the block table,
 * irreparable blocks/pages quarantined (deliberately leaked).  Streams
 * the pre-repair findings — each with its repair outcome filled in —
 * through fn (NULL to skip), then fills *out (when non-NULL) with the
 * lifetime repair counters.  Returns nonzero when the heap verified
 * clean after repair.  Never aborts, regardless of repair_fatal. */
int cgc_verify_and_repair(cgc_collector *gc, cgc_verify_report_fn fn,
                          void *client_data, cgc_repair_stats *out);

/* Fills *out with the lifetime corruption-containment counters without
 * running the verifier. */
void cgc_get_repair_stats(cgc_collector *gc, cgc_repair_stats *out);

/* --- retention-storm sentinel ---------------------------------------- */

/* Fills *policy with the library defaults (sentinel disabled). */
void cgc_sentinel_policy_init(cgc_sentinel_policy *policy);

/* Replaces the sentinel policy at runtime.  enabled nonzero (re)creates
 * the sentinel with a fresh trajectory window; zero tears it down and
 * restores any configuration knobs its escalation ladder overrode.
 * Must not be called from inside an observer or incident callback. */
void cgc_sentinel_configure(cgc_collector *gc,
                            const cgc_sentinel_policy *policy);

/* Lifetime counters of the sentinel's detections and responses. */
typedef struct cgc_sentinel_stats {
  unsigned long long storms_detected;
  unsigned long long stack_clear_forces;
  unsigned long long blacklist_refreshes;
  unsigned long long interior_tightenings;
  unsigned long long incidents_raised;
  unsigned long long deescalations;
  unsigned current_level;   /* 0 (calm) .. 4 (incident raised) */
} cgc_sentinel_stats;

/* Fills *out with the sentinel's counters; returns nonzero when the
 * sentinel is enabled, 0 (and a zeroed *out) when it is not. */
int cgc_sentinel_get_stats(cgc_collector *gc, cgc_sentinel_stats *out);

/* Incident causes (GcIncidentCause).  The guard causes fire only in
 * guarded-heap mode with guard_fatal disabled. */
enum {
  CGC_INCIDENT_RETENTION_STORM = 0,
  CGC_INCIDENT_INVALID_FREE = 1,
  CGC_INCIDENT_DOUBLE_FREE = 2,
  CGC_INCIDENT_GUARD_HEADER_SMASH = 3,
  CGC_INCIDENT_GUARD_REDZONE_SMASH = 4,
  CGC_INCIDENT_QUARANTINE_USE_AFTER_FREE = 5,
  /* A stop-the-world handshake exhausted handshake_deadline_ms; the
   * collection attempt was abandoned. */
  CGC_INCIDENT_HANDSHAKE_TIMEOUT = 6,
  /* A wild store hit the sealed metadata arena (seal_metadata mode);
   * the write was contained, attributed, and the heap repaired. */
  CGC_INCIDENT_METADATA_WILD_WRITE = 7,
  /* The malloc-redirect layer saw free()/realloc() of a pointer the
   * collector does not own (redirect/Redirect.h); the call degraded
   * to a pass-through or no-op.  Also raised for an unguarded
   * cgc_free of a non-heap pointer. */
  CGC_INCIDENT_FOREIGN_FREE = 8,
};

/* Incident callback: the sentinel exhausted its escalation ladder and
 * the heap is still growing.  cause is CGC_INCIDENT_*; collection is
 * the 0-based collection index at which the incident fired;
 * window_growth_bytes is the net live-bytes growth across the
 * trajectory window.  Runs from collection-end context: it must not
 * allocate from or collect gc. */
typedef void (*cgc_incident_fn)(int cause, unsigned long long collection,
                                unsigned escalation_level,
                                unsigned long long window_growth_bytes,
                                void *client_data);

/* Installs (or clears, with NULL) the incident callback. */
void cgc_set_incident_callback(cgc_collector *gc, cgc_incident_fn fn,
                               void *client_data);

/* --- crash reporting -------------------------------------------------- */

/* Installs process-wide SIGSEGV/SIGABRT handlers that write the crash
 * report (collector phase, heap summary, resilience counters, armed
 * fault sites, last-events ring) to stderr, then restore the previous
 * disposition and re-raise.  Idempotent; async-signal-safe (write(2)
 * only, no allocation, no locks). */
void cgc_install_crash_reporter(void);

/* Writes the same crash report, on demand, to fd.  Async-signal-safe;
 * covers every live collector in the process. */
void cgc_dump_crash_report(int fd);

/* --- guarded-heap debugging ------------------------------------------ */

/* Allocation tagged with a site string for the guarded heap's
 * violation and leak reports.  site must outlive the collector (a
 * string literal; CGC_MALLOC_SITE builds one from __FILE__:__LINE__).
 * Without debug_guards this is exactly cgc_malloc. */
void *cgc_debug_malloc(cgc_collector *gc, size_t bytes, const char *site);

#define CGC_STRINGIZE_(x) #x
#define CGC_STRINGIZE(x) CGC_STRINGIZE_(x)
/* cgc_debug_malloc tagged with the call's file:line. */
#define CGC_MALLOC_SITE(gc, bytes)                                        \
  cgc_debug_malloc((gc), (bytes), __FILE__ ":" CGC_STRINGIZE(__LINE__))

/* Releases every quarantined object now, re-checking its poison fill
 * (a failed check is a use-after-free violation).  Collections flush
 * the quarantine themselves; this forces it between collections.
 * No-op without debug_guards. */
void cgc_debug_flush_quarantine(cgc_collector *gc);

/* Lifetime counters of the guarded heap (GcGuardStats). */
typedef struct cgc_guard_stats {
  unsigned long long guarded_allocations;
  unsigned long long guarded_frees;
  unsigned long long quarantine_depth;
  unsigned long long quarantine_flushes;
  unsigned long long header_smashes;
  unsigned long long redzone_smashes;
  unsigned long long double_frees;
  unsigned long long invalid_frees;
  unsigned long long use_after_free_writes;
  unsigned long long guard_slop_bytes;   /* header+redzone overhead   */
  unsigned long long leaked_objects;     /* from the last find-leaks  */
  unsigned long long leaked_bytes;
} cgc_guard_stats;

/* Fills *out with the guard counters; returns nonzero when guarded
 * mode is active, 0 (and a zeroed *out) when it is not. */
int cgc_debug_get_stats(cgc_collector *gc, cgc_guard_stats *out);

/* Leak-report callback: one call per allocation site that owns
 * never-freed unreachable objects, in deterministic site-intern
 * order.  first_seqno is the earliest leaked allocation's sequence
 * number.  Runs outside collection; it must not allocate from or
 * collect gc. */
typedef void (*cgc_leak_fn)(const char *site, unsigned long long objects,
                            unsigned long long bytes,
                            unsigned long long first_seqno, void *user);

/* Runs a find-leaks pass: flushes the quarantine, marks from the
 * current roots, and reports every unreachable-but-never-freed
 * guarded object grouped by allocation site.  Returns the total
 * leaked object count.  Requires debug_guards (returns 0 without). */
unsigned long long cgc_debug_find_leaks(cgc_collector *gc, cgc_leak_fn fn,
                                        void *user);

/* --- fault injection (testing) --------------------------------------- */

/* Injectable failure sites; process-global, shared by every collector
 * in the process. */
enum {
  CGC_FAULT_ARENA_GROW = 0,         /* page commit/grow fails          */
  CGC_FAULT_PAGE_RUN_SEARCH = 1,    /* free-run search reports no fit  */
  /* 2 is retired (it was CGC_FAULT_WORKER_SPAWN, the GC worker thread
   * spawn); arming it is a no-op. */
  CGC_FAULT_MARK_STACK_OVERFLOW = 3,/* mark-stack push drops its item  */
  CGC_FAULT_WEDGED_MUTATOR = 4,     /* safepoint park behaves as missed */
  /* Deterministic metadata-corruption classes (collection entry picks
   * a victim and damages it before any phase runs; the verifier must
   * detect and repair it). */
  CGC_FAULT_METADATA_HEADER_FLIP = 5,      /* block-descriptor bit flip  */
  CGC_FAULT_METADATA_FREE_LIST_SMASH = 6,  /* free-list link smashed     */
  CGC_FAULT_METADATA_PAGE_MAP_CLOBBER = 7, /* page-map entry clobbered   */
  CGC_FAULT_METADATA_ALLOC_BIT_FLIP = 8,   /* alloc bit vs header flip   */
};

/* Returns nonzero when the library was built with the injection hooks
 * compiled in (CMake option CGC_FAULT_INJECTION).  When it returns 0
 * the arming calls below are accepted but never fire. */
int cgc_fault_injection_available(void);

/* Arms a site deterministically: the next skip_hits reaches succeed,
 * the fail_count after that fail, then the site disarms itself.
 * fail_count of (unsigned long long)-1 means fail forever. */
void cgc_fault_arm(int site, unsigned long long skip_hits,
                   unsigned long long fail_count);

/* Arms a site probabilistically: each reach fails with the given
 * probability, drawn from a stream seeded with seed (deterministic
 * replay). */
void cgc_fault_arm_random(int site, double probability,
                          unsigned long long seed);

/* Disarms every site (counters survive). */
void cgc_fault_disarm_all(void);

/* Times the site was forced to fail since process start. */
unsigned long long cgc_fault_fired(int site);

/* --- observability --------------------------------------------------- */

/* Events delivered to cgc_gc_event_fn observers.  Every collection —
 * including ones triggered from inside allocation — emits:
 *   COLLECTION_BEGIN,
 *   { PHASE_BEGIN, PHASE_END } per phase in CGC_PHASE_* order,
 *   COLLECTION_END.
 */
enum {
  CGC_EVENT_COLLECTION_BEGIN = 0,
  CGC_EVENT_COLLECTION_END = 1,
  CGC_EVENT_PHASE_BEGIN = 2,
  CGC_EVENT_PHASE_END = 3,
};

/* Observer callback.  event is CGC_EVENT_*.  phase is CGC_PHASE_* for
 * phase events and -1 for collection events.  nanos is the phase
 * duration for CGC_EVENT_PHASE_END, the 0-based collection index for
 * CGC_EVENT_COLLECTION_BEGIN/END, and 0 otherwise.  The callback runs
 * mid-collection: it must not allocate from or collect gc. */
typedef void (*cgc_gc_event_fn)(int event, int phase,
                                unsigned long long nanos,
                                void *client_data);

/* Registers an observer; returns a handle (never 0) for
 * cgc_remove_gc_observer.  Registration and removal are legal from
 * inside a callback, including an observer removing itself. */
unsigned cgc_add_gc_observer(cgc_collector *gc, cgc_gc_event_fn fn,
                             void *client_data);
/* Unregisters; returns nonzero if the handle was registered. */
int cgc_remove_gc_observer(cgc_collector *gc, unsigned handle);

/* --- roots ----------------------------------------------------------- */

/* Registers [lo, hi) as a static-data root scanned for native
 * pointers; returns a handle for cgc_remove_roots. */
unsigned cgc_add_roots(cgc_collector *gc, const void *lo, const void *hi);
int cgc_remove_roots(cgc_collector *gc, unsigned handle);
/* Excludes [lo, hi) from all root scanning (IO buffers etc.). */
void cgc_exclude_roots(cgc_collector *gc, const void *lo, const void *hi);
/* Scans the calling thread's stack and registers during collections. */
void cgc_enable_stack_scanning(cgc_collector *gc);
/* Registers a valid interior displacement for BASE_ONLY policy. */
void cgc_register_displacement(cgc_collector *gc, unsigned displacement);

/* --- finalization ---------------------------------------------------- */

typedef void (*cgc_finalizer_fn)(void *obj, void *client_data);
/* Registers fn to run (via cgc_run_finalizers) once obj is found
 * unreachable.  Returns nonzero on success. */
int cgc_register_finalizer(cgc_collector *gc, void *obj,
                           cgc_finalizer_fn fn, void *client_data);
int cgc_unregister_finalizer(cgc_collector *gc, void *obj);
/* Runs queued finalizers; returns how many ran. */
size_t cgc_run_finalizers(cgc_collector *gc);

/* --- introspection --------------------------------------------------- */

int cgc_is_heap_ptr(cgc_collector *gc, const void *ptr);
/* Object base for an interior pointer, or NULL. */
void *cgc_base(cgc_collector *gc, const void *ptr);
/* Allocation size of the object at base ptr, or 0. */
size_t cgc_size(cgc_collector *gc, const void *ptr);
unsigned long long cgc_heap_committed_bytes(cgc_collector *gc);
unsigned long long cgc_live_bytes(cgc_collector *gc);
unsigned long long cgc_collection_count(cgc_collector *gc);
unsigned long long cgc_blacklisted_pages(cgc_collector *gc);
/* Prints the statistics report to stderr. */
void cgc_dump(cgc_collector *gc);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* CGC_CAPI_CGC_H */
