//===- support/MetadataArena.cpp - Sealable metadata storage --------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//

#include "support/MetadataArena.h"
#include "support/Assert.h"
#include "support/Clock.h"
#include <csignal>
#include <cstring>
#include <mutex>
#include <sys/mman.h>

using namespace cgc;

namespace {

constexpr size_t HostPageSize = 4096;

size_t roundUpToPages(size_t Bytes) {
  return (Bytes + HostPageSize - 1) & ~(HostPageSize - 1);
}

//===----------------------------------------------------------------------===//
// Global arena registry + pending wild-write ring
//===----------------------------------------------------------------------===//
// Both structures are read from the SIGSEGV sub-handler, so they are
// fixed-size arrays of atomics: registration publishes with release
// stores, the handler reads with acquire loads, and nothing ever
// allocates or locks on the signal path.

constexpr unsigned MaxArenas = 64;
std::atomic<MetadataArena *> ArenaRegistry[MaxArenas];

constexpr unsigned WildRingSlots = 64;
std::atomic<uintptr_t> WildRing[WildRingSlots];
std::atomic<unsigned> WildRingNext{0};

void registerArena(MetadataArena *Arena) {
  for (unsigned I = 0; I != MaxArenas; ++I) {
    MetadataArena *Expected = nullptr;
    if (ArenaRegistry[I].compare_exchange_strong(Expected, Arena,
                                                 std::memory_order_acq_rel))
      return;
  }
  CGC_UNREACHABLE("too many live metadata arenas");
}

void unregisterArena(MetadataArena *Arena) {
  for (unsigned I = 0; I != MaxArenas; ++I) {
    MetadataArena *Expected = Arena;
    if (ArenaRegistry[I].compare_exchange_strong(Expected, nullptr,
                                                 std::memory_order_acq_rel))
      return;
  }
}

MetadataArena *arenaContaining(const void *Addr) {
  for (unsigned I = 0; I != MaxArenas; ++I) {
    MetadataArena *Arena = ArenaRegistry[I].load(std::memory_order_acquire);
    if (Arena && Arena->contains(Addr))
      return Arena;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// SIGSEGV sub-handler
//===----------------------------------------------------------------------===//

std::mutex InstallLock;
bool HandlerInstalled = false;
struct sigaction PreviousSegv;

void handleSegv(int Signal, siginfo_t *Info, void *Context);

/// Hands a fault we do not own to whoever was installed before us.
/// Direct invocation (rather than restore-and-return) avoids the
/// handler ping-pong that restore-based chaining causes when the crash
/// reporter's own restore-and-reraise leads back here.
void chainToPrevious(int Signal, siginfo_t *Info, void *Context) {
  if (PreviousSegv.sa_flags & SA_SIGINFO) {
    if (PreviousSegv.sa_sigaction &&
        PreviousSegv.sa_sigaction != handleSegv) {
      PreviousSegv.sa_sigaction(Signal, Info, Context);
      return;
    }
  } else if (PreviousSegv.sa_handler != SIG_DFL &&
             PreviousSegv.sa_handler != SIG_IGN) {
    PreviousSegv.sa_handler(Signal);
    return;
  }
  // Default (or degenerate) previous disposition: restore it and
  // return; the faulting instruction re-executes and the kernel
  // terminates the process the ordinary way.
  ::sigaction(Signal, &PreviousSegv, nullptr);
}

void handleSegv(int Signal, siginfo_t *Info, void *Context) {
  void *Addr = Info ? Info->si_addr : nullptr;
  MetadataArena *Arena = Addr ? arenaContaining(Addr) : nullptr;
  if (!Arena || !Arena->sealed()) {
    chainToPrevious(Signal, Info, Context);
    return;
  }
  // A wild store hit sealed metadata.  Let it through: unprotect the
  // one page so the retried store succeeds, and queue the address for
  // the collector to attribute, report, and repair at its next entry.
  // The page stays writable until the next seal — the damage is
  // contained by verify-and-repair, not by re-faulting every store.
  uintptr_t Page = reinterpret_cast<uintptr_t>(Addr) & ~(HostPageSize - 1);
  ::mprotect(reinterpret_cast<void *>(Page), HostPageSize,
             PROT_READ | PROT_WRITE);
  unsigned Slot = WildRingNext.fetch_add(1, std::memory_order_relaxed) %
                  WildRingSlots;
  WildRing[Slot].store(reinterpret_cast<uintptr_t>(Addr),
                       std::memory_order_relaxed);
}

} // namespace

//===----------------------------------------------------------------------===//
// MetadataArena
//===----------------------------------------------------------------------===//

MetadataArena::MetadataArena() { registerArena(this); }

MetadataArena::~MetadataArena() {
  unregisterArena(this);
  unsigned N = NumChunks.load(std::memory_order_acquire);
  for (unsigned I = 0; I != N; ++I) {
    uintptr_t Base = Chunks[I].Base.load(std::memory_order_relaxed);
    size_t Size = Chunks[I].Size.load(std::memory_order_relaxed);
    if (Base)
      ::munmap(reinterpret_cast<void *>(Base), Size);
  }
}

unsigned MetadataArena::classFor(size_t Size) {
  size_t Cell = MinCellBytes;
  unsigned Class = 0;
  while (Cell < Size) {
    Cell <<= 1;
    ++Class;
  }
  return Class;
}

size_t MetadataArena::classBytes(unsigned Class) {
  return MinCellBytes << Class;
}

void MetadataArena::addChunk(size_t MinBytes) {
  unsigned Index = NumChunks.load(std::memory_order_relaxed);
  CGC_CHECK(Index < MaxChunks, "metadata arena chunk table exhausted");
  size_t Bytes = MinBytes > ChunkBytes ? roundUpToPages(MinBytes) : ChunkBytes;
  void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CGC_CHECK(Mem != MAP_FAILED, "metadata arena mmap failed");
  Chunks[Index].Size.store(Bytes, std::memory_order_relaxed);
  // Publish base last: once the handler can see the chunk it must see
  // its size too.
  Chunks[Index].Base.store(reinterpret_cast<uintptr_t>(Mem),
                           std::memory_order_release);
  NumChunks.store(Index + 1, std::memory_order_release);
  BumpPtr = reinterpret_cast<uintptr_t>(Mem);
  BumpEnd = BumpPtr + Bytes;
}

void *MetadataArena::allocateFromChunks(size_t Size) {
  if (BumpEnd - BumpPtr < Size)
    addChunk(Size);
  void *Result = reinterpret_cast<void *>(BumpPtr);
  BumpPtr += Size;
  return Result;
}

void *MetadataArena::allocate(size_t Size, size_t Align) {
  CGC_ASSERT(!sealed(), "metadata arena allocation while sealed");
  CGC_ASSERT(Align <= MinCellBytes, "over-aligned metadata allocation");
  if (Size == 0)
    Size = 1;
  if (Size > classBytes(NumSizeClasses - 1)) {
    // Oversize: first-fit from the oversize list (free nodes carry
    // their rounded size in the second word), else a dedicated chunk.
    size_t Bytes = roundUpToPages(Size);
    uintptr_t *Prev = reinterpret_cast<uintptr_t *>(&OversizeFree);
    for (uintptr_t Node = OversizeFree; Node;
         Node = *reinterpret_cast<uintptr_t *>(Node)) {
      size_t NodeBytes = reinterpret_cast<uintptr_t *>(Node)[1];
      if (NodeBytes == Bytes) {
        *Prev = *reinterpret_cast<uintptr_t *>(Node);
        return reinterpret_cast<void *>(Node);
      }
      Prev = reinterpret_cast<uintptr_t *>(Node);
    }
    addChunk(Bytes);
    void *Result = reinterpret_cast<void *>(BumpPtr);
    BumpPtr += Bytes;
    return Result;
  }
  unsigned Class = classFor(Size);
  if (FreeNode *Node = FreeLists[Class]) {
    FreeLists[Class] = Node->Next;
    return Node;
  }
  return allocateFromChunks(classBytes(Class));
}

void MetadataArena::deallocate(void *Ptr, size_t Size) {
  if (!Ptr)
    return;
  CGC_ASSERT(!sealed(), "metadata arena deallocation while sealed");
  CGC_ASSERT(contains(Ptr), "foreign pointer returned to metadata arena");
  if (Size == 0)
    Size = 1;
  if (Size > classBytes(NumSizeClasses - 1)) {
    uintptr_t *Node = reinterpret_cast<uintptr_t *>(Ptr);
    Node[0] = OversizeFree;
    Node[1] = roundUpToPages(Size);
    OversizeFree = reinterpret_cast<uintptr_t>(Ptr);
    return;
  }
  unsigned Class = classFor(Size);
  FreeNode *Node = static_cast<FreeNode *>(Ptr);
  Node->Next = FreeLists[Class];
  FreeLists[Class] = Node;
}

void MetadataArena::seal() {
  if (Sealed.exchange(true, std::memory_order_acq_rel))
    return;
  installHandler();
  uint64_t Start = monotonicNanos();
  unsigned N = NumChunks.load(std::memory_order_acquire);
  for (unsigned I = 0; I != N; ++I) {
    uintptr_t Base = Chunks[I].Base.load(std::memory_order_relaxed);
    size_t Size = Chunks[I].Size.load(std::memory_order_relaxed);
    if (Base)
      ::mprotect(reinterpret_cast<void *>(Base), Size, PROT_READ);
  }
  ProtectNanos.fetch_add(monotonicNanos() - Start, std::memory_order_relaxed);
  ProtectTransitions.fetch_add(1, std::memory_order_relaxed);
}

void MetadataArena::unseal() {
  if (!Sealed.exchange(false, std::memory_order_acq_rel))
    return;
  uint64_t Start = monotonicNanos();
  unsigned N = NumChunks.load(std::memory_order_acquire);
  for (unsigned I = 0; I != N; ++I) {
    uintptr_t Base = Chunks[I].Base.load(std::memory_order_relaxed);
    size_t Size = Chunks[I].Size.load(std::memory_order_relaxed);
    if (Base)
      ::mprotect(reinterpret_cast<void *>(Base), Size,
                 PROT_READ | PROT_WRITE);
  }
  ProtectNanos.fetch_add(monotonicNanos() - Start, std::memory_order_relaxed);
  ProtectTransitions.fetch_add(1, std::memory_order_relaxed);
}

bool MetadataArena::contains(const void *Ptr) const {
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Ptr);
  unsigned N = NumChunks.load(std::memory_order_acquire);
  for (unsigned I = 0; I != N; ++I) {
    uintptr_t Base = Chunks[I].Base.load(std::memory_order_acquire);
    if (!Base)
      continue;
    size_t Size = Chunks[I].Size.load(std::memory_order_relaxed);
    if (Addr >= Base && Addr < Base + Size)
      return true;
  }
  return false;
}

unsigned MetadataArena::drainWildWrites(WildWrite *Out, unsigned Max) {
  unsigned Count = 0;
  for (unsigned I = 0; I != WildRingSlots && Count < Max; ++I) {
    uintptr_t Addr = WildRing[I].load(std::memory_order_relaxed);
    if (!Addr || !contains(reinterpret_cast<void *>(Addr)))
      continue;
    // Claim the slot; a concurrent drain from another collector can
    // only claim addresses inside its own arena, so exchange suffices.
    if (WildRing[I].exchange(0, std::memory_order_relaxed) != Addr)
      continue;
    Out[Count++].Address = Addr;
  }
  return Count;
}

void MetadataArena::installHandler() {
  std::lock_guard<std::mutex> Guard(InstallLock);
  // Self-healing install: if someone (the crash reporter re-applying
  // its registrations, a test harness) displaced us, hook back in
  // front and remember them as the new chain target.
  struct sigaction Current;
  if (::sigaction(SIGSEGV, nullptr, &Current) == 0 && HandlerInstalled &&
      (Current.sa_flags & SA_SIGINFO) && Current.sa_sigaction == handleSegv)
    return;
  struct sigaction Action;
  std::memset(&Action, 0, sizeof(Action));
  Action.sa_sigaction = handleSegv;
  Action.sa_flags = SA_SIGINFO | SA_NODEFER;
  ::sigemptyset(&Action.sa_mask);
  ::sigaction(SIGSEGV, &Action, &PreviousSegv);
  HandlerInstalled = true;
}

bool MetadataArena::anyArenaContains(const void *Addr) {
  return arenaContaining(Addr) != nullptr;
}
