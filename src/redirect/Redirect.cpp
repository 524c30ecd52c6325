//===- redirect/Redirect.cpp - Drop-in malloc redirection ----------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
//
// The process-global state machine behind the malloc interposers.
// Lifecycle:
//
//   Uninit ──install──▶ Booting ──real fns resolved──▶ Creating
//     │                   │                               │
//     │ (calls served     │ (calls served from            │ (calls served
//     │  by lazy install)  │  the bootstrap buffer)        │  by real libc)
//     ▼                   ▼                               ▼
//   ...................................................▶ Ready / Fallback
//
// Once Ready, every interposed call routes to the collector unless the
// calling thread is already inside the redirect layer (Depth != 0):
// collector-internal allocations, trace bookkeeping, and thread-
// registration plumbing go to the real libc so the collector never
// recurses into itself.  Foreign pointers — anything neither the
// bootstrap buffer nor the collector owns — degrade to a structured
// incident plus a pass-through (or warn-and-ignore), never corruption.
//
//===----------------------------------------------------------------------===//

#include "redirect/Redirect.h"

#include "capi/cgc.h"
#include "capi/cgc_internal.h"
#include "core/Collector.h"
#include "core/GcIncident.h"
#include "redirect/BootstrapHeap.h"
#include "redirect/TraceLog.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <unordered_map>

#include <dlfcn.h>
#include <link.h>
#include <pthread.h>

namespace {

using cgc::BootstrapHeap;
using cgc::TraceOp;
using cgc::TraceRecord;
using cgc::TraceWriter;

//===----------------------------------------------------------------------===//
// Global state (everything here must be constant-initializable: the
// first interposed call can arrive before any constructor has run)
//===----------------------------------------------------------------------===//

enum : int {
  StUninit = 0,
  StBooting = 1,  // resolving the real libc functions (dlsym)
  StCreating = 2, // constructing the collector
  StReady = 3,
  StFallback = 4, // permanent libc pass-through
};

std::atomic<int> GState{StUninit};
cgc_collector *GGc = nullptr;
std::atomic<int> GForeignMode{CGC_FOREIGN_FREE_PASSTHROUGH};
std::atomic<int> GSimulateInitFailure{0};

constinit BootstrapHeap GBootstrap;

// Re-entrancy depth: nonzero while this thread is inside the redirect
// layer (collector call, trace bookkeeping, thread registration).
// initial-exec TLS so the access itself can never allocate — the
// general-dynamic model's lazy DTV setup calls malloc, which would
// recurse straight back here.
#if defined(__GNUC__)
#define CGC_REDIRECT_TLS __attribute__((tls_model("initial-exec")))
#else
#define CGC_REDIRECT_TLS
#endif
__thread unsigned GDepth CGC_REDIRECT_TLS = 0;
__thread int GThreadAttached CGC_REDIRECT_TLS = 0;

struct DepthScope {
  DepthScope() { ++GDepth; }
  ~DepthScope() { --GDepth; }
};

struct Counters {
  std::atomic<unsigned long long> GcAllocs{0};
  std::atomic<unsigned long long> GcFrees{0};
  std::atomic<unsigned long long> BootstrapAllocs{0};
  std::atomic<unsigned long long> LibcAllocs{0};
  std::atomic<unsigned long long> ForeignFrees{0};
  std::atomic<unsigned long long> ForeignReallocs{0};
  std::atomic<unsigned long long> CallocOverflows{0};
  std::atomic<unsigned long long> FailedAllocs{0};
  std::atomic<unsigned long long> ThreadsAttached{0};
  std::atomic<unsigned long long> TraceRecords{0};
};
Counters GCount;

// Real libc entry points, resolved once with dlsym(RTLD_NEXT) during
// Booting (glibc's dlsym calloc is served by the bootstrap buffer).
using MallocFn = void *(*)(size_t);
using CallocFn = void *(*)(size_t, size_t);
using ReallocFn = void *(*)(void *, size_t);
using FreeFn = void (*)(void *);
using MemalignFn = int (*)(void **, size_t, size_t);
using UsableSizeFn = size_t (*)(void *);

MallocFn GRealMalloc = nullptr;
CallocFn GRealCalloc = nullptr;
ReallocFn GRealRealloc = nullptr;
FreeFn GRealFree = nullptr;
MemalignFn GRealPosixMemalign = nullptr;
UsableSizeFn GRealUsableSize = nullptr;
std::atomic<int> GRealResolved{0};

// Non-trivially-constructible state, placement-built during install so
// no global constructor has to run before the first interposed call.
struct MutableState {
  std::mutex TraceLock;
  TraceWriter Writer;
  std::unordered_map<uintptr_t, uint64_t> TraceIds;
  uint64_t LastTraceId = 0;
  std::atomic<int> Tracing{0};

  std::mutex AlignLock;
  // aligned pointer -> object base, for over-aligned allocations
  // served as interior pointers of a padded object.
  std::unordered_map<uintptr_t, uintptr_t> AlignedBases;

  pthread_key_t DetachKey;
  bool DetachKeyValid = false;
};
alignas(MutableState) unsigned char GStateStorage[sizeof(MutableState)];
MutableState *GMut = nullptr;

//===----------------------------------------------------------------------===//
// Real-libc resolution and fallback
//===----------------------------------------------------------------------===//

#if defined(__GLIBC__)
extern "C" void *__libc_malloc(size_t) __attribute__((weak));
extern "C" void *__libc_calloc(size_t, size_t) __attribute__((weak));
extern "C" void *__libc_realloc(void *, size_t) __attribute__((weak));
extern "C" void __libc_free(void *) __attribute__((weak));
#endif

void resolveRealFunctions() {
  // dlsym(RTLD_NEXT) asks for "the next definition after the caller's
  // object": the real libc whether we were preloaded or linked in.
  GRealMalloc = reinterpret_cast<MallocFn>(dlsym(RTLD_NEXT, "malloc"));
  GRealCalloc = reinterpret_cast<CallocFn>(dlsym(RTLD_NEXT, "calloc"));
  GRealRealloc = reinterpret_cast<ReallocFn>(dlsym(RTLD_NEXT, "realloc"));
  GRealFree = reinterpret_cast<FreeFn>(dlsym(RTLD_NEXT, "free"));
  GRealPosixMemalign =
      reinterpret_cast<MemalignFn>(dlsym(RTLD_NEXT, "posix_memalign"));
  GRealUsableSize =
      reinterpret_cast<UsableSizeFn>(dlsym(RTLD_NEXT, "malloc_usable_size"));
#if defined(__GLIBC__)
  // A static link (or a hostile dlsym failure) can leave these null;
  // glibc exports the __libc_* aliases as a second chance.
  if (!GRealMalloc)
    GRealMalloc = &__libc_malloc;
  if (!GRealCalloc)
    GRealCalloc = &__libc_calloc;
  if (!GRealRealloc)
    GRealRealloc = &__libc_realloc;
  if (!GRealFree)
    GRealFree = &__libc_free;
#endif
  GRealResolved.store(
      GRealMalloc && GRealCalloc && GRealRealloc && GRealFree ? 1 : 0,
      std::memory_order_release);
}

void *libcMalloc(size_t Bytes) {
  if (GRealMalloc) {
    GCount.LibcAllocs.fetch_add(1, std::memory_order_relaxed);
    return GRealMalloc(Bytes);
  }
  // No libc to fall back to (still booting): bootstrap serves it.
  GCount.BootstrapAllocs.fetch_add(1, std::memory_order_relaxed);
  return GBootstrap.allocate(Bytes);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

bool tracingActive() {
  return GMut && GMut->Tracing.load(std::memory_order_acquire) != 0;
}

void traceAllocEvent(TraceOp Op, void *Ptr, uint64_t A, uint64_t B,
                     void *OldPtr) {
  if (!tracingActive())
    return;
  DepthScope Scope; // map/buffer work must not recurse into the GC
  std::lock_guard<std::mutex> Lock(GMut->TraceLock);
  if (!GMut->Tracing.load(std::memory_order_relaxed))
    return;
  TraceRecord Rec;
  Rec.Op = Op;
  Rec.A = A;
  Rec.B = B;
  if (OldPtr) {
    auto It = GMut->TraceIds.find(reinterpret_cast<uintptr_t>(OldPtr));
    if (It != GMut->TraceIds.end()) {
      Rec.OldId = It->second;
      GMut->TraceIds.erase(It);
    }
  }
  if (Ptr) {
    Rec.Id = ++GMut->LastTraceId;
    GMut->TraceIds[reinterpret_cast<uintptr_t>(Ptr)] = Rec.Id;
  }
  GMut->Writer.record(Rec);
  GCount.TraceRecords.fetch_add(1, std::memory_order_relaxed);
}

void traceFreeEvent(void *Ptr) {
  if (!tracingActive())
    return;
  DepthScope Scope;
  std::lock_guard<std::mutex> Lock(GMut->TraceLock);
  if (!GMut->Tracing.load(std::memory_order_relaxed))
    return;
  TraceRecord Rec;
  Rec.Op = TraceOp::Free;
  auto It = GMut->TraceIds.find(reinterpret_cast<uintptr_t>(Ptr));
  if (It != GMut->TraceIds.end()) {
    Rec.Id = It->second;
    GMut->TraceIds.erase(It);
  }
  // Unknown pointers (allocated before tracing started) record as the
  // id-0 no-op free so op counts survive the round trip.
  GMut->Writer.record(Rec);
  GCount.TraceRecords.fetch_add(1, std::memory_order_relaxed);
}

void traceForeignEvent() {
  if (!tracingActive())
    return;
  DepthScope Scope;
  std::lock_guard<std::mutex> Lock(GMut->TraceLock);
  if (!GMut->Tracing.load(std::memory_order_relaxed))
    return;
  TraceRecord Rec;
  Rec.Op = TraceOp::ForeignFree;
  GMut->Writer.record(Rec);
  GCount.TraceRecords.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Incidents
//===----------------------------------------------------------------------===//

void raiseForeignIncident(const void *Ptr, const char *Detail) {
  if (!GGc)
    return;
  DepthScope Scope;
  cgc::capi::collectorOf(GGc).raiseClientIncident(
      cgc::GcIncidentCause::ForeignFree,
      reinterpret_cast<uint64_t>(Ptr), Detail);
}

//===----------------------------------------------------------------------===//
// Install
//===----------------------------------------------------------------------===//

int phdrRegisterRoots(struct dl_phdr_info *Info, size_t, void *) {
  // Register every writable PT_LOAD segment of every loaded object as
  // a conservative root range: the program's globals (and ours — the
  // bootstrap buffer included) are exactly where an unmodified client
  // keeps its only pointer to an allocation.  The collector's own
  // metadata lives on the libc heap, which is deliberately NOT a root.
  for (int I = 0; I != Info->dlpi_phnum; ++I) {
    const ElfW(Phdr) &Ph = Info->dlpi_phdr[I];
    if (Ph.p_type != PT_LOAD || !(Ph.p_flags & PF_W))
      continue;
    const char *Lo =
        reinterpret_cast<const char *>(Info->dlpi_addr + Ph.p_vaddr);
    const char *Hi = Lo + Ph.p_memsz;
    if (Hi > Lo)
      cgc_add_roots(GGc, Lo, Hi);
  }
  return 0;
}

void detachKeyDestructor(void *) {
  // Fires at pthread exit for threads the interposer attached: the
  // trampoline's explicit detach already ran for a normal return, so
  // this only matters for pthread_exit() unwinds.
  cgc_redirect_thread_detach();
}

uint64_t envMaxHeapBytes() {
  const char *Value = std::getenv("CGC_REDIRECT_MAX_HEAP");
  if (!Value || !*Value)
    return uint64_t(1) << 30; // 1 GiB default for real programs
  char *End = nullptr;
  unsigned long long Parsed = std::strtoull(Value, &End, 0);
  if (End == Value || Parsed == 0)
    return uint64_t(1) << 30;
  return Parsed;
}

/// The installer body; exactly one thread runs it (CAS on GState).
int runInstall() {
  GState.store(StBooting, std::memory_order_release);
  resolveRealFunctions();

  bool Disabled = std::getenv("CGC_REDIRECT_DISABLE") != nullptr;
  if (Disabled || GSimulateInitFailure.load(std::memory_order_relaxed) ||
      !GRealResolved.load(std::memory_order_acquire)) {
    // Graceful fallback: without the real libc there is nothing to
    // fall back TO, but GRealResolved only fails on a libc that
    // exports no malloc at all — at which point the bootstrap buffer
    // is the best that can be done.
    GState.store(StFallback, std::memory_order_release);
    return 0;
  }

  GState.store(StCreating, std::memory_order_release);
  DepthScope Scope; // collector construction allocates via real libc

  GMut = new (GStateStorage) MutableState();
  if (pthread_key_create(&GMut->DetachKey, detachKeyDestructor) == 0)
    GMut->DetachKeyValid = true;

  cgc_config Config;
  cgc_config_init(&Config);
  Config.max_heap_bytes = envMaxHeapBytes();
  // Real programs have compute loops that never allocate: arm the
  // handshake watchdog so a non-polling thread is signal-suspended
  // instead of wedging every collection forever.
  Config.handshake_deadline_ms = 2000;
  GGc = cgc_create(&Config);
  if (!GGc) {
    GState.store(StFallback, std::memory_order_release);
    return 0;
  }

  const char *ForeignMode = std::getenv("CGC_REDIRECT_FOREIGN_FREE");
  if (ForeignMode && std::strcmp(ForeignMode, "warn") == 0)
    GForeignMode.store(CGC_FOREIGN_FREE_WARN, std::memory_order_relaxed);

  dl_iterate_phdr(phdrRegisterRoots, nullptr);
  cgc_register_thread(GGc); // the installing (usually main) thread
  GThreadAttached = 1;

  GState.store(StReady, std::memory_order_release);

  if (const char *TracePath = std::getenv("CGC_TRACE_FILE"))
    cgc_redirect_trace_start(TracePath);
  return 1;
}

// How an entry point should serve the current call.
enum class Route {
  Gc,        // the collector
  Libc,      // the real libc (re-entrant, mid-install, or fallback)
  Bootstrap, // static buffer (no libc yet)
};

Route routeFor() {
  for (;;) {
    int S = GState.load(std::memory_order_acquire);
    switch (S) {
    case StReady:
      if (GDepth != 0)
        return GRealResolved.load(std::memory_order_relaxed)
                   ? Route::Libc
                   : Route::Bootstrap;
      // Threads created before install (or while the redirect was
      // inactive) never passed the pthread_create trampoline; register
      // them before their first collector allocation so their stacks
      // are scanned and stop-the-world parks them.  Registration's own
      // allocations recurse here at Depth != 0 and route to libc.
      if (!GThreadAttached)
        cgc_redirect_thread_attach();
      return Route::Gc;
    case StFallback:
      return GRealResolved.load(std::memory_order_relaxed)
                 ? Route::Libc
                 : Route::Bootstrap;
    case StBooting:
      return Route::Bootstrap;
    case StCreating:
      return Route::Libc;
    case StUninit: {
      int Expected = StUninit;
      if (GState.compare_exchange_strong(Expected, StUninit,
                                         std::memory_order_acquire)) {
        // Lazy install on first use (the preload constructor usually
        // beats us here, but link-time interposition has no ctor and
        // libc init can call malloc before any constructor runs).
        cgc_redirect_install();
      }
      continue; // re-read the state the installer left
    }
    default:
      return Route::Bootstrap;
    }
  }
}

/// Rounds a request up so every size class the collector picks is a
/// multiple of 16: block geometry (page base + 16-byte first-slot
/// offset + multiple-of-16 stride) then guarantees the 16-byte
/// alignment the x86-64 malloc contract promises.  \returns false on
/// overflow.
bool roundRequest(size_t Bytes, size_t &Rounded) {
  if (Bytes == 0)
    Bytes = 1;
  if (Bytes > SIZE_MAX - 15)
    return false;
  Rounded = (Bytes + 15) & ~size_t(15);
  return true;
}

void *gcAllocate(size_t Bytes, bool Atomic) {
  size_t Rounded;
  if (!roundRequest(Bytes, Rounded)) {
    GCount.FailedAllocs.fetch_add(1, std::memory_order_relaxed);
    errno = ENOMEM;
    return nullptr;
  }
  void *Ptr;
  {
    DepthScope Scope;
    Ptr = Atomic ? cgc_malloc_atomic(GGc, Rounded)
                 : cgc_malloc(GGc, Rounded);
  }
  if (!Ptr) {
    GCount.FailedAllocs.fetch_add(1, std::memory_order_relaxed);
    errno = ENOMEM; // cgc_malloc sets it too; keep the contract local
    return nullptr;
  }
  GCount.GcAllocs.fetch_add(1, std::memory_order_relaxed);
  return Ptr;
}

/// Looks up (and on Erase removes) an over-aligned pointer's base.
void *alignedBaseFor(void *Ptr, bool Erase) {
  if (!GMut)
    return nullptr;
  DepthScope Scope;
  std::lock_guard<std::mutex> Lock(GMut->AlignLock);
  auto It = GMut->AlignedBases.find(reinterpret_cast<uintptr_t>(Ptr));
  if (It == GMut->AlignedBases.end())
    return nullptr;
  void *Base = reinterpret_cast<void *>(It->second);
  if (Erase)
    GMut->AlignedBases.erase(It);
  return Base;
}

void rememberAlignedBase(void *Aligned, void *Base) {
  DepthScope Scope;
  std::lock_guard<std::mutex> Lock(GMut->AlignLock);
  GMut->AlignedBases[reinterpret_cast<uintptr_t>(Aligned)] =
      reinterpret_cast<uintptr_t>(Base);
}

/// Frees a collector pointer on behalf of free()/realloc().  TraceAs
/// is the pointer the program passed in when it differs from the slot
/// base being released (an over-aligned interior pointer): the trace
/// id map is keyed by what the allocation event recorded, so freeing
/// under the base would orphan the id and leave a stale map entry
/// whose later reuse depends on heap addresses.
void gcFree(void *Ptr, void *TraceAs = nullptr) {
  traceFreeEvent(TraceAs ? TraceAs : Ptr);
  DepthScope Scope;
  cgc_free(GGc, Ptr);
  GCount.GcFrees.fetch_add(1, std::memory_order_relaxed);
}

/// The foreign-pointer ladder's last rung: not ours at all.
void foreignFree(void *Ptr) {
  GCount.ForeignFrees.fetch_add(1, std::memory_order_relaxed);
  traceForeignEvent();
  raiseForeignIncident(Ptr, "redirect: free of a foreign pointer");
  if (GForeignMode.load(std::memory_order_relaxed) ==
          CGC_FOREIGN_FREE_PASSTHROUGH &&
      GRealFree)
    GRealFree(Ptr); // memory libc handed out before we took over
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

extern "C" {

int cgc_redirect_install(void) {
  int Expected = StUninit;
  if (GState.compare_exchange_strong(Expected, StBooting,
                                     std::memory_order_acq_rel)) {
    // The winning CAS transfers installer ownership atomically: no
    // other thread may ever observe StUninit again, or it could win
    // the same CAS and run a second concurrent install (double
    // placement-new of MutableState, racing cgc_create calls).
    return runInstall();
  }
  // Another thread is installing or installation already finished;
  // report the current disposition without waiting (callers that need
  // the final answer poll cgc_redirect_active()).
  return GState.load(std::memory_order_acquire) == StReady ? 1 : 0;
}

int cgc_redirect_active(void) {
  return GState.load(std::memory_order_acquire) == StReady ? 1 : 0;
}

cgc_collector *cgc_redirect_collector(void) {
  return cgc_redirect_active() ? GGc : nullptr;
}

void cgc_redirect_get_stats(cgc_redirect_stats *Out) {
  if (!Out)
    return;
  std::memset(Out, 0, sizeof(*Out));
  Out->gc_allocs = GCount.GcAllocs.load(std::memory_order_relaxed);
  Out->gc_frees = GCount.GcFrees.load(std::memory_order_relaxed);
  Out->bootstrap_allocs = GBootstrap.chunksServed();
  Out->bootstrap_bytes = GBootstrap.bytesUsed();
  Out->libc_allocs = GCount.LibcAllocs.load(std::memory_order_relaxed);
  Out->foreign_frees = GCount.ForeignFrees.load(std::memory_order_relaxed);
  Out->foreign_reallocs =
      GCount.ForeignReallocs.load(std::memory_order_relaxed);
  Out->calloc_overflows =
      GCount.CallocOverflows.load(std::memory_order_relaxed);
  Out->failed_allocs = GCount.FailedAllocs.load(std::memory_order_relaxed);
  Out->threads_attached =
      GCount.ThreadsAttached.load(std::memory_order_relaxed);
  Out->trace_records = GCount.TraceRecords.load(std::memory_order_relaxed);
  Out->active = cgc_redirect_active();
  Out->fallback =
      GState.load(std::memory_order_acquire) == StFallback ? 1 : 0;
}

void cgc_redirect_set_foreign_free_mode(int Mode) {
  GForeignMode.store(Mode == CGC_FOREIGN_FREE_WARN
                         ? CGC_FOREIGN_FREE_WARN
                         : CGC_FOREIGN_FREE_PASSTHROUGH,
                     std::memory_order_relaxed);
}

void *cgc_redirect_malloc(size_t Bytes) {
  switch (routeFor()) {
  case Route::Bootstrap: {
    void *Ptr = GBootstrap.allocate(Bytes);
    if (Ptr)
      GCount.BootstrapAllocs.fetch_add(1, std::memory_order_relaxed);
    else
      errno = ENOMEM;
    return Ptr;
  }
  case Route::Libc:
    return libcMalloc(Bytes);
  case Route::Gc:
    break;
  }
  void *Ptr = gcAllocate(Bytes, /*Atomic=*/false);
  if (Ptr)
    traceAllocEvent(TraceOp::Malloc, Ptr, Bytes, 0, nullptr);
  return Ptr;
}

void *cgc_redirect_calloc(size_t Nmemb, size_t Bytes) {
  // The historical calloc hole: nmemb*size overflowing to a small
  // allocation that the caller then writes nmemb*size bytes into.
  if (Nmemb != 0 && Bytes != 0 && Nmemb > SIZE_MAX / Bytes) {
    GCount.CallocOverflows.fetch_add(1, std::memory_order_relaxed);
    GCount.FailedAllocs.fetch_add(1, std::memory_order_relaxed);
    errno = ENOMEM;
    return nullptr;
  }
  size_t Total = Nmemb * Bytes;
  switch (routeFor()) {
  case Route::Bootstrap: {
    void *Ptr = GBootstrap.allocate(Total); // buffer memory is zeroed
    if (Ptr)
      GCount.BootstrapAllocs.fetch_add(1, std::memory_order_relaxed);
    else
      errno = ENOMEM;
    return Ptr;
  }
  case Route::Libc:
    if (GRealCalloc) {
      GCount.LibcAllocs.fetch_add(1, std::memory_order_relaxed);
      return GRealCalloc(Nmemb, Bytes);
    }
    {
      // calloc's zeroing contract holds on the fallback too (the
      // bootstrap buffer libcMalloc may serve is pre-zeroed, but a
      // real-malloc result is not).
      void *Ptr = libcMalloc(Total);
      if (Ptr)
        std::memset(Ptr, 0, Total);
      else
        errno = ENOMEM;
      return Ptr;
    }
  case Route::Gc:
    break;
  }
  void *Ptr = gcAllocate(Total, /*Atomic=*/false);
  if (Ptr) {
    // Collector memory is zeroed by contract; re-zero anyway so that
    // calloc does not depend on where the collector zeroes slots.
    std::memset(Ptr, 0, Total);
    traceAllocEvent(TraceOp::Calloc, Ptr, Nmemb, Bytes, nullptr);
  }
  return Ptr;
}

void cgc_redirect_free(void *Ptr) {
  if (!Ptr)
    return;
  if (GBootstrap.owns(Ptr))
    return; // pre-init chunks are program-lifetime
  if (GDepth != 0) {
    // Re-entrant free: usually collector/trace internals releasing
    // libc memory they allocated through the Libc route — but ld.so
    // and glibc internals running beneath us (DTV growth, dlerror
    // buffers) also free memory here that the depth-0 interposer
    // served from the GC heap, and handing those to libc free aborts
    // glibc.  Provenance wins over depth: a collector-owned pointer
    // is simply dropped.  Re-entering cgc_free here is not an option
    // (the thread may be mid-allocation with its cache slot reserved);
    // dropping is — an unreferenced GC object is exactly what the
    // collector exists to reclaim.
    if (GState.load(std::memory_order_acquire) == StReady &&
        cgc_is_heap_ptr(GGc, Ptr))
      return;
    if (GRealFree)
      GRealFree(Ptr);
    return;
  }
  if (GState.load(std::memory_order_acquire) == StReady) {
    if (void *Base = alignedBaseFor(Ptr, /*Erase=*/true)) {
      gcFree(Base, /*TraceAs=*/Ptr);
      return;
    }
    if (cgc_is_heap_ptr(GGc, Ptr)) {
      gcFree(Ptr);
      return;
    }
  }
  foreignFree(Ptr);
}

void *cgc_redirect_realloc(void *Ptr, size_t Bytes) {
  if (!Ptr) {
    void *NewPtr = cgc_redirect_malloc(Bytes);
    return NewPtr;
  }
  if (Bytes == 0) {
    // glibc semantics: free and return NULL.
    cgc_redirect_free(Ptr);
    return nullptr;
  }
  if (GBootstrap.owns(Ptr)) {
    size_t OldBytes = GBootstrap.usableSize(Ptr);
    void *NewPtr = cgc_redirect_malloc(Bytes);
    if (!NewPtr)
      return nullptr;
    std::memcpy(NewPtr, Ptr, OldBytes < Bytes ? OldBytes : Bytes);
    return NewPtr; // the bootstrap chunk stays (free is a no-op)
  }
  if (GDepth != 0) {
    // Same provenance-before-depth rule as free: a re-entrant realloc
    // can be ld.so growing a thread's DTV that the depth-0 interposer
    // served from the GC heap (seen in the wild as __tls_get_addr →
    // realloc mid thread-attach, which glibc aborts on).  Copy-grow
    // into raw libc memory: the GC allocator cannot be re-entered
    // here (the thread may be mid-allocation with its cache slot
    // reserved), and the old object is dropped for the collector to
    // reclaim.  Size queries are read-only metadata lookups and safe.
    if (GState.load(std::memory_order_acquire) == StReady &&
        cgc_is_heap_ptr(GGc, Ptr)) {
      if (!GRealMalloc) {
        errno = ENOMEM;
        return nullptr;
      }
      size_t OldUsable = 0;
      if (void *ObjBase = cgc_base(GGc, Ptr)) {
        OldUsable = cgc_size(GGc, ObjBase);
        uintptr_t Delta = reinterpret_cast<uintptr_t>(Ptr) -
                          reinterpret_cast<uintptr_t>(ObjBase);
        OldUsable = OldUsable > Delta ? OldUsable - Delta : 0;
      }
      void *NewPtr = GRealMalloc(Bytes);
      if (!NewPtr) {
        errno = ENOMEM;
        return nullptr; // old block untouched
      }
      GCount.LibcAllocs.fetch_add(1, std::memory_order_relaxed);
      std::memcpy(NewPtr, Ptr, OldUsable < Bytes ? OldUsable : Bytes);
      return NewPtr;
    }
    if (GRealRealloc)
      return GRealRealloc(Ptr, Bytes);
    errno = ENOMEM;
    return nullptr;
  }
  if (GState.load(std::memory_order_acquire) == StReady) {
    void *Base = alignedBaseFor(Ptr, /*Erase=*/false);
    bool IsAligned = Base != nullptr;
    if (!IsAligned && cgc_is_heap_ptr(GGc, Ptr))
      Base = Ptr;
    if (Base) {
      size_t OldUsable;
      {
        DepthScope Scope;
        void *ObjBase = cgc_base(GGc, Base);
        OldUsable = ObjBase ? cgc_size(GGc, ObjBase) : 0;
        if (ObjBase && ObjBase != Ptr) {
          // Usable bytes from the handed-in pointer to the slot end.
          // This covers the over-aligned interior pointers we minted
          // ourselves AND a hostile realloc of an arbitrary interior
          // pointer: without the clamp the copy below would read
          // cgc_size bytes starting mid-object, running past the
          // object's end (and possibly the arena's committed edge).
          uintptr_t Delta = reinterpret_cast<uintptr_t>(Ptr) -
                            reinterpret_cast<uintptr_t>(ObjBase);
          OldUsable = OldUsable > Delta ? OldUsable - Delta : 0;
        }
      }
      void *NewPtr = gcAllocate(Bytes, /*Atomic=*/false);
      if (!NewPtr)
        return nullptr; // old block untouched, errno set
      std::memcpy(NewPtr, Ptr, OldUsable < Bytes ? OldUsable : Bytes);
      traceAllocEvent(TraceOp::Realloc, NewPtr, Bytes, 0, Ptr);
      if (IsAligned)
        alignedBaseFor(Ptr, /*Erase=*/true);
      {
        // A hostile interior Ptr degrades inside cgc_free (classified
        // NotObjectBase: incident + no-op) and the old object is left
        // to the collector.
        DepthScope Scope;
        cgc_free(GGc, IsAligned ? Base : Ptr);
        GCount.GcFrees.fetch_add(1, std::memory_order_relaxed);
      }
      return NewPtr;
    }
  }
  // Foreign pointer: libc memory from before the takeover (or from a
  // mid-install window).  Pass it through to the real realloc.
  GCount.ForeignReallocs.fetch_add(1, std::memory_order_relaxed);
  raiseForeignIncident(Ptr, "redirect: realloc of a foreign pointer");
  if (GForeignMode.load(std::memory_order_relaxed) ==
          CGC_FOREIGN_FREE_PASSTHROUGH &&
      GRealRealloc)
    return GRealRealloc(Ptr, Bytes);
  errno = ENOMEM;
  return nullptr; // warn mode: refuse, old block untouched
}

int cgc_redirect_posix_memalign(void **MemPtr, size_t Alignment,
                                size_t Bytes) {
  if (!MemPtr)
    return EINVAL;
  // POSIX: power of two and a multiple of sizeof(void*).
  if (Alignment == 0 || (Alignment & (Alignment - 1)) != 0 ||
      Alignment % sizeof(void *) != 0)
    return EINVAL;
  switch (routeFor()) {
  case Route::Bootstrap: {
    void *Ptr = GBootstrap.allocate(Bytes, Alignment);
    if (!Ptr)
      return ENOMEM;
    GCount.BootstrapAllocs.fetch_add(1, std::memory_order_relaxed);
    *MemPtr = Ptr;
    return 0;
  }
  case Route::Libc:
    if (GRealPosixMemalign) {
      GCount.LibcAllocs.fetch_add(1, std::memory_order_relaxed);
      return GRealPosixMemalign(MemPtr, Alignment, Bytes);
    }
    return ENOMEM;
  case Route::Gc:
    break;
  }
  void *Ptr;
  if (Alignment <= 16) {
    // Every collector pointer is already 16-aligned (see
    // roundRequest); the plain path serves it.
    Ptr = gcAllocate(Bytes, /*Atomic=*/false);
    if (!Ptr)
      return ENOMEM;
  } else {
    // Over-aligned: pad the object and hand out an aligned interior
    // pointer (InteriorPolicy::All keeps the base alive through it);
    // the side table routes free/realloc back to the base.
    if (Bytes > SIZE_MAX - Alignment) {
      GCount.FailedAllocs.fetch_add(1, std::memory_order_relaxed);
      return ENOMEM;
    }
    void *Base = gcAllocate(Bytes + Alignment, /*Atomic=*/false);
    if (!Base)
      return ENOMEM;
    uintptr_t Aligned =
        (reinterpret_cast<uintptr_t>(Base) + Alignment - 1) &
        ~(Alignment - 1);
    Ptr = reinterpret_cast<void *>(Aligned);
    if (Ptr != Base)
      rememberAlignedBase(Ptr, Base);
  }
  traceAllocEvent(TraceOp::Memalign, Ptr, Alignment, Bytes, nullptr);
  *MemPtr = Ptr;
  return 0;
}

void *cgc_redirect_aligned_alloc(size_t Alignment, size_t Bytes) {
  // C11: alignment must be one the implementation supports (power of
  // two); glibc does not require size % alignment == 0 and neither do
  // we.
  if (Alignment == 0 || (Alignment & (Alignment - 1)) != 0) {
    errno = EINVAL;
    return nullptr;
  }
  void *Ptr = nullptr;
  size_t EffectiveAlign =
      Alignment < sizeof(void *) ? sizeof(void *) : Alignment;
  int Err = cgc_redirect_posix_memalign(&Ptr, EffectiveAlign, Bytes);
  if (Err != 0) {
    errno = Err;
    return nullptr;
  }
  return Ptr;
}

char *cgc_redirect_strdup(const char *S) {
  if (!S)
    return nullptr;
  size_t Len = std::strlen(S);
  switch (routeFor()) {
  case Route::Bootstrap: {
    void *Ptr = GBootstrap.allocate(Len + 1);
    if (!Ptr) {
      errno = ENOMEM;
      return nullptr;
    }
    GCount.BootstrapAllocs.fetch_add(1, std::memory_order_relaxed);
    std::memcpy(Ptr, S, Len + 1);
    return static_cast<char *>(Ptr);
  }
  case Route::Libc: {
    void *Ptr = libcMalloc(Len + 1);
    if (!Ptr) {
      errno = ENOMEM;
      return nullptr;
    }
    std::memcpy(Ptr, S, Len + 1);
    return static_cast<char *>(Ptr);
  }
  case Route::Gc:
    break;
  }
  // Strings are pointer-free: the atomic kind keeps them out of the
  // conservative scan entirely (less work, no false references).
  void *Ptr = gcAllocate(Len + 1, /*Atomic=*/true);
  if (!Ptr)
    return nullptr;
  std::memcpy(Ptr, S, Len + 1);
  traceAllocEvent(TraceOp::Strdup, Ptr, Len, 0, nullptr);
  return static_cast<char *>(Ptr);
}

size_t cgc_redirect_malloc_usable_size(void *Ptr) {
  if (!Ptr)
    return 0;
  if (GBootstrap.owns(Ptr))
    return GBootstrap.usableSize(Ptr);
  if (GState.load(std::memory_order_acquire) == StReady) {
    if (void *Base = alignedBaseFor(Ptr, /*Erase=*/false)) {
      DepthScope Scope;
      size_t Total = cgc_size(GGc, Base);
      uintptr_t Delta = reinterpret_cast<uintptr_t>(Ptr) -
                        reinterpret_cast<uintptr_t>(Base);
      return Total > Delta ? Total - static_cast<size_t>(Delta) : 0;
    }
    if (cgc_is_heap_ptr(GGc, Ptr)) {
      DepthScope Scope;
      void *Base = cgc_base(GGc, Ptr);
      return Base ? cgc_size(GGc, Base) : 0;
    }
  }
  return GRealUsableSize ? GRealUsableSize(Ptr) : 0;
}

void cgc_redirect_thread_attach(void) {
  if (GThreadAttached || !cgc_redirect_active())
    return;
  DepthScope Scope;
  if (cgc_register_thread(GGc)) {
    GThreadAttached = 1;
    GCount.ThreadsAttached.fetch_add(1, std::memory_order_relaxed);
    if (GMut && GMut->DetachKeyValid)
      pthread_setspecific(GMut->DetachKey,
                          reinterpret_cast<void *>(uintptr_t(1)));
  }
}

void cgc_redirect_thread_detach(void) {
  if (!GThreadAttached || !cgc_redirect_active())
    return;
  GThreadAttached = 0;
  DepthScope Scope;
  cgc_unregister_thread(GGc);
  if (GMut && GMut->DetachKeyValid)
    pthread_setspecific(GMut->DetachKey, nullptr);
}

void *cgc_redirect_start_packet_alloc(size_t Bytes) {
  if (!cgc_redirect_active())
    return nullptr;
  DepthScope Scope;
  return cgc_malloc_uncollectable(GGc, Bytes);
}

void cgc_redirect_start_packet_free(void *Ptr) {
  if (!Ptr || !GGc)
    return;
  DepthScope Scope;
  cgc_free(GGc, Ptr);
}

int cgc_redirect_trace_start(const char *Path) {
  if (!Path || !*Path)
    return 0;
  if (!GMut)
    cgc_redirect_install();
  if (!GMut)
    return 0;
  DepthScope Scope;
  std::lock_guard<std::mutex> Lock(GMut->TraceLock);
  if (!GMut->Writer.open(Path))
    return 0;
  GMut->TraceIds.clear();
  GMut->LastTraceId = 0;
  GMut->Tracing.store(1, std::memory_order_release);
  // Flush on exit even if the program never stops tracing (serialized
  // by TraceLock; stop is idempotent).
  static bool AtexitRegistered = false;
  if (!AtexitRegistered) {
    AtexitRegistered = true;
    std::atexit(cgc_redirect_trace_stop);
  }
  return 1;
}

void cgc_redirect_trace_stop(void) {
  if (!GMut)
    return;
  DepthScope Scope;
  std::lock_guard<std::mutex> Lock(GMut->TraceLock);
  GMut->Tracing.store(0, std::memory_order_release);
  GMut->Writer.close();
  GMut->TraceIds.clear();
}

void cgc_redirect_simulate_init_failure(int Enable) {
  GSimulateInitFailure.store(Enable ? 1 : 0, std::memory_order_relaxed);
}

void cgc_redirect_reset_for_tests(void) {
  cgc_redirect_trace_stop();
  if (GThreadAttached && GGc) {
    DepthScope Scope;
    cgc_unregister_thread(GGc);
    GThreadAttached = 0;
  }
  // The collector is deliberately leaked: redirected memory may still
  // be referenced by the test process.
  GGc = nullptr;
  if (GMut) {
    GMut->~MutableState();
    GMut = nullptr;
  }
  GState.store(StUninit, std::memory_order_release);
}

} // extern "C"
