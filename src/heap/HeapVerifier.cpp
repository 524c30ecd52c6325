//===- heap/HeapVerifier.cpp - Deep heap consistency checker --------------===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//

#include "heap/HeapVerifier.h"
#include "heap/ObjectHeap.h"
#include "support/Assert.h"
#include <algorithm>
#include <bit>
#include <cstdio>

namespace cgc {

namespace {

/// Calls \p Fn(Offset, Word, Bit) for every set mark-table bit on the
/// pages of \p Block that the table covers: the bit's window offset
/// and its place in the table.  The page range is clamped to the
/// table, so a corrupt page count costs no more than the table.
template <typename FnT>
void forEachMark(MarkTable &Marks, const BlockDescriptor &Block, FnT Fn) {
  uint64_t Begin = std::max<uint64_t>(Block.StartPage, Marks.basePage());
  uint64_t End = std::min<uint64_t>(uint64_t(Block.StartPage) + Block.NumPages,
                                    Marks.limitPage());
  for (uint64_t P = Begin; P < End; ++P) {
    uint64_t *Words = Marks.pageWords(static_cast<PageIndex>(P));
    for (size_t W = 0; W != MarkTable::WordsPerPage; ++W)
      for (uint64_t Bits = Words[W]; Bits != 0; Bits &= Bits - 1) {
        unsigned Bit = static_cast<unsigned>(std::countr_zero(Bits));
        Fn(offsetOfPage(static_cast<PageIndex>(P)) +
               (W * 64 + Bit) * GranuleBytes,
           Words[W], Bit);
      }
  }
}

/// Whether \p Offset is the base of one of \p Block's slots.  Divides
/// rather than trusting the slot reciprocal, which may be the very
/// field that is corrupt.
bool isSlotBase(const BlockDescriptor &Block, WindowOffset Offset) {
  if (Block.ObjectSize == 0 || Offset < Block.firstSlotOffset())
    return false;
  uint64_t Delta = Offset - Block.firstSlotOffset();
  return Delta % Block.ObjectSize == 0 &&
         Delta / Block.ObjectSize < Block.ObjectCount;
}

/// Set mark-table bits over the committed heap pages.
uint64_t countCommittedMarks(const MarkTable &Marks,
                             const PageAllocator &Pages) {
  uint64_t Count = 0;
  for (PageIndex P = Pages.arenaBasePage(); P < Pages.committedLimitPage();
       ++P) {
    const uint64_t *Words = Marks.pageWords(P);
    for (size_t W = 0; W != MarkTable::WordsPerPage; ++W)
      Count += static_cast<uint64_t>(std::popcount(Words[W]));
  }
  return Count;
}

bool pageHasMarks(const MarkTable &Marks, PageIndex Page) {
  const uint64_t *Words = Marks.pageWords(Page);
  return std::any_of(Words, Words + MarkTable::WordsPerPage,
                     [](uint64_t W) { return W != 0; });
}

} // namespace

const char *verifyFindingKindName(VerifyFindingKind Kind) {
  switch (Kind) {
  case VerifyFindingKind::Generic:
    return "generic";
  case VerifyFindingKind::BlockGeometry:
    return "block-geometry";
  case VerifyFindingKind::PageMapStale:
    return "page-map-stale";
  case VerifyFindingKind::CounterMismatch:
    return "counter-mismatch";
  case VerifyFindingKind::FreeListBroken:
    return "free-list-broken";
  case VerifyFindingKind::FreeRunBroken:
    return "free-run-broken";
  case VerifyFindingKind::GuardSmash:
    return "guard-smash";
  case VerifyFindingKind::Accounting:
    return "accounting";
  }
  CGC_UNREACHABLE("unknown finding kind");
}

void HeapVerifyReport::record(VerifyFindingKind Kind, BlockId Block,
                              uint64_t Page, std::string Message) {
  // Dedup per (kind, page) — but never for Generic findings, which are
  // heterogeneous collector-level notes all sharing (Generic, 0).
  if (Kind != VerifyFindingKind::Generic) {
    for (const VerifyFinding &F : Findings) {
      if (F.Kind == Kind && F.Page == Page) {
        ++Deduplicated;
        return;
      }
    }
  }
  if (Findings.size() >= MaxFindings) {
    ++Truncated;
    return;
  }
  VerifyFinding F;
  F.Kind = Kind;
  F.Block = Block;
  F.Page = Page;
  F.Message = std::move(Message);
  Findings.push_back(std::move(F));
}

void HeapVerifyReport::notef(const char *Fmt, ...) {
  char Buffer[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buffer, sizeof(Buffer), Fmt, Args);
  va_end(Args);
  record(VerifyFindingKind::Generic, InvalidBlockId, 0, Buffer);
}

void HeapVerifyReport::notefAt(VerifyFindingKind Kind, BlockId Block,
                               uint64_t Page, const char *Fmt, ...) {
  char Buffer[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buffer, sizeof(Buffer), Fmt, Args);
  va_end(Args);
  record(Kind, Block, Page, Buffer);
}

std::string HeapVerifyReport::str() const {
  std::string Out;
  for (const VerifyFinding &F : Findings) {
    Out += F.Message;
    Out += '\n';
  }
  return Out;
}

void HeapVerifyReport::fatal(const char *Reason, const char *HeadlineFmt,
                             ...) const {
  va_list Args;
  va_start(Args, HeadlineFmt);
  std::vfprintf(stderr, HeadlineFmt, Args);
  va_end(Args);
  std::fprintf(stderr, " (%zu issues):\n%s", Findings.size(), str().c_str());
  fatalError(Reason, __FILE__, __LINE__);
}

HeapVerifyReport HeapVerifier::run() {
  HeapVerifyReport R;
  PageAllocator &Pages = Heap.Pages;
  PageMap &Map = Heap.Map;
  using K = VerifyFindingKind;

  // --- Block table ↔ page map ↔ bitmaps ↔ byte accounting. ---
  uint64_t BytesSeen = 0;
  uint64_t MarksInBlocks = 0;
  uint64_t BlockOwnedPages = 0;
  uint64_t PendingSeen = 0;
  uint64_t UncollectableSeen = 0;
  uint64_t ListedSeen = 0;
  Heap.Blocks.forEach([&](BlockId Id, BlockDescriptor &Block) {
    if (Block.NumPages == 0 || Block.ObjectCount == 0) {
      R.notefAt(K::BlockGeometry, Id, Block.StartPage,
                "block %u: degenerate (%u pages, %u slots)", Id,
                Block.NumPages, Block.ObjectCount);
      return; // Geometry is garbage; further checks would divide by it.
    }
    if (!Pages.inPotentialHeap(Block.StartPage) ||
        !Pages.inPotentialHeap(Block.StartPage + Block.NumPages - 1))
      R.notefAt(K::BlockGeometry, Id, Block.StartPage,
                "block %u: pages [%llu, %llu) outside the heap arena", Id,
                (unsigned long long)Block.StartPage,
                (unsigned long long)(Block.StartPage + Block.NumPages));
    if (Block.StartPage + Block.NumPages > Pages.committedLimitPage())
      R.notefAt(K::BlockGeometry, Id, Block.StartPage,
                "block %u: extends past the committed limit %llu", Id,
                (unsigned long long)Pages.committedLimitPage());
    if (Block.FirstObjectOffset +
            uint64_t(Block.ObjectCount) * Block.ObjectSize >
        uint64_t(Block.NumPages) * PageSize)
      R.notefAt(K::BlockGeometry, Id, Block.StartPage,
                "block %u: %u slots of %u bytes overflow %u pages", Id,
                Block.ObjectCount, Block.ObjectSize, Block.NumPages);
    if (Block.ObjectSize >= 2 &&
        Block.SlotReciprocal != BlockDescriptor::reciprocalOf(Block.ObjectSize))
      R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                "block %u: slot reciprocal %#llx does not match %u-byte "
                "slots",
                Id, (unsigned long long)Block.SlotReciprocal,
                Block.ObjectSize);
    for (uint32_t P = 0; P != Block.NumPages; ++P) {
      if (Map.blockAt(Block.StartPage + P) != Id) {
        R.notefAt(K::PageMapStale, Id, Block.StartPage + P,
                  "block %u: page map entry for page %llu points elsewhere",
                  Id, (unsigned long long)(Block.StartPage + P));
        break; // One line per block is enough to localize it.
      }
    }
    // An owned block's counter keeps its checkout value until the owner
    // returns it; only its bitmap is current.  A pending block's counts
    // are already the swept ones: its live slots are the allocated
    // marked ones, and its pins the marked free ones.
    uint64_t AllocSeen = Block.AllocBits.count();
    uint64_t PinnedSeen = Block.PinnedBits.count();
    if (Block.Pending) {
      ++PendingSeen;
      if (Block.IsLarge || Block.Owned || kindIsUncollectable(Block.Kind))
        R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                  "block %u: pending, but not a small collectable block "
                  "the heap owns",
                  Id);
      uint64_t Mark[MarkTable::MaxSlotWords];
      Heap.Marks.gather(Block, Mark);
      const uint64_t *Alloc = Block.AllocBits.words();
      AllocSeen = PinnedSeen = 0;
      for (size_t W = 0, E = Block.AllocBits.numWords(); W != E; ++W) {
        uint64_t Mask = Block.slotWordMask(W);
        AllocSeen += static_cast<uint64_t>(std::popcount(Alloc[W] & Mark[W]));
        PinnedSeen +=
            static_cast<uint64_t>(std::popcount(Mark[W] & ~Alloc[W] & Mask));
      }
    }
    if (!Block.Owned && AllocSeen != Block.AllocatedCount)
      R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                "block %u: alloc bitmap has %llu bits set, counter says %u",
                Id, (unsigned long long)AllocSeen, Block.AllocatedCount);
    if (PinnedSeen != Block.PinnedCount)
      R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                "block %u: pinned bitmap has %llu bits set, counter says %u",
                Id, (unsigned long long)PinnedSeen, Block.PinnedCount);
    if (Block.AllocatedCount + Block.PinnedCount > Block.ObjectCount)
      R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                "block %u: %u allocated + %u pinned exceed %u slots", Id,
                Block.AllocatedCount, Block.PinnedCount, Block.ObjectCount);
    // A word loop, not a BitVector temporary: the verifier also runs
    // with the world stopped, where it must not allocate.
    const uint64_t *Alloc = Block.AllocBits.words();
    const uint64_t *Pinned = Block.PinnedBits.words();
    uint64_t Overlap = 0;
    for (size_t W = 0, E = std::min(Block.AllocBits.numWords(),
                                    Block.PinnedBits.numWords());
         W != E; ++W)
      Overlap += static_cast<uint64_t>(std::popcount(Alloc[W] & Pinned[W]));
    if (Overlap != 0)
      R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                "block %u: %llu slots both allocated and pinned", Id,
                (unsigned long long)Overlap);
    // Every set mark bit on the block's pages is one of its slot bases.
    uint64_t OffBase = 0;
    forEachMark(Heap.Marks, Block,
                [&](WindowOffset Offset, uint64_t &, unsigned) {
                  ++MarksInBlocks;
                  OffBase += !isSlotBase(Block, Offset);
                });
    if (OffBase != 0)
      R.notefAt(K::CounterMismatch, Id, Block.StartPage,
                "block %u: %llu mark bits set off its slot bases", Id,
                (unsigned long long)OffBase);
    if (Block.IsLarge &&
        (Block.ObjectCount != 1 || Block.AllocatedCount != 1))
      R.notefAt(K::BlockGeometry, Id, Block.StartPage,
                "block %u: large block must hold exactly one object "
                "(%u slots, %u allocated)",
                Id, Block.ObjectCount, Block.AllocatedCount);
    // A small block is listed on its lane exactly when the listing
    // rule says so, pending or not (a pending block's counts are the
    // swept ones).
    if (!Block.IsLarge) {
      bool Listed = Heap.Lanes[Heap.laneOf(Block)].contains(Block.StartPage);
      ListedSeen += Listed;
      if (Listed != ObjectHeap::listable(Block))
        R.notefAt(K::FreeListBroken, Id, Block.StartPage,
                  "block %u: %s its lane with %u usable free slots%s", Id,
                  Listed ? "listed on" : "missing from",
                  Block.usableFreeCount(), Block.Owned ? ", owned" : "");
    }
    // Guarded mode: every allocated untyped slot must carry an intact
    // header and redzone — unless it is parked in the quarantine, where
    // the whole slot is poison instead (checked at flush time, not
    // here: a verifier pass must stay side-effect free).
    if (Heap.Config.Guards && Block.LayoutId == 0) {
      const GuardLayer *Guards = Heap.Config.Guards;
      Heap.forEachAllocatedSlot(Block, [&](uint32_t Slot) {
        WindowOffset Base = Block.slotOffset(Slot);
        if (Guards->isQuarantined(Base))
          return;
        GuardLayer::Decoded Info = GuardLayer::inspect(
            Heap.Arena.pointerTo(Base), Block.ObjectSize);
        if (!Info.HeaderIntact)
          R.notefAt(K::GuardSmash, Id, pageOfOffset(Base),
                    "block %u slot %u: guard header smashed (offset 0x%llx)",
                    Id, Slot, (unsigned long long)Base);
        else if (!Info.RedzoneIntact)
          R.notefAt(K::GuardSmash, Id, pageOfOffset(Base),
                    "block %u slot %u: guard redzone smashed (seqno %llu, "
                    "offset 0x%llx)",
                    Id, Slot, (unsigned long long)Info.Seqno,
                    (unsigned long long)Base);
      });
    }
    BytesSeen += uint64_t(Block.AllocatedCount) * Block.ObjectSize;
    BlockOwnedPages += Block.NumPages;
    UncollectableSeen += kindIsUncollectable(Block.Kind);
  });
  // No mark bit is set on a page that no live block covers: every set
  // bit of the committed range was counted inside some block above.
  // Comparing counts needs no per-page coverage map, so a page-map
  // entry clobbered on a live block does not read as a stray bit.
  uint64_t MarksCommitted = countCommittedMarks(Heap.Marks, Pages);
  if (MarksCommitted > MarksInBlocks) {
    PageIndex Stray = 0;
    for (PageIndex P = Pages.arenaBasePage();
         P < Pages.committedLimitPage() && Stray == 0; ++P)
      if (Map.blockAt(P) == InvalidBlockId && pageHasMarks(Heap.Marks, P))
        Stray = P;
    R.notefAt(K::CounterMismatch, InvalidBlockId, Stray,
              "mark table: %llu bits set on pages no live block covers "
              "(first at page %llu)",
              (unsigned long long)(MarksCommitted - MarksInBlocks),
              (unsigned long long)Stray);
  }
  if (BytesSeen != Heap.AllocatedBytes)
    R.notefAt(K::Accounting, InvalidBlockId, 0,
              "allocated-bytes accounting: blocks hold %llu bytes, counter "
              "says %llu",
              (unsigned long long)BytesSeen,
              (unsigned long long)Heap.AllocatedBytes);
  if (PendingSeen != Heap.PendingBlocks)
    R.notefAt(K::Accounting, InvalidBlockId, 0,
              "pending blocks: %llu flagged, counter says %llu",
              (unsigned long long)PendingSeen,
              (unsigned long long)Heap.PendingBlocks);
  if (UncollectableSeen != Heap.UncollectableBlocks)
    R.notefAt(K::Accounting, InvalidBlockId, 0,
              "uncollectable blocks: %llu live, counter says %llu",
              (unsigned long long)UncollectableSeen,
              (unsigned long long)Heap.UncollectableBlocks);

  // Every listed page starts a block of that lane: the walk above saw
  // each listed block, so a surplus is a stray bit.
  uint64_t ListedPages = 0;
  for (const PageSet &Listed : Heap.Lanes)
    ListedPages += Listed.count();
  if (ListedPages != ListedSeen)
    R.notefAt(K::FreeListBroken, InvalidBlockId, 0,
              "lanes: %llu pages listed, but %llu listed blocks start them",
              (unsigned long long)ListedPages,
              (unsigned long long)ListedSeen);

  // --- Free runs ↔ page map ↔ committed-page partition.  The runs
  // come from the free-page bitmap, so they are nonempty, disjoint and
  // maximal by construction. ---
  uint64_t FreePages = 0;
  Pages.forEachFreeRun([&](PageIndex Start, uint32_t Length) {
    if (Start + Length > Pages.committedLimitPage())
      R.notefAt(K::FreeRunBroken, InvalidBlockId, Start,
                "free run [%llu, %llu) outside the committed arena "
                "[%llu, %llu)",
                (unsigned long long)Start,
                (unsigned long long)(Start + Length),
                (unsigned long long)Pages.arenaBasePage(),
                (unsigned long long)Pages.committedLimitPage());
    FreePages += Length;
    for (uint32_t P = 0; P != Length; ++P) {
      if (Map.blockAt(Start + P) != InvalidBlockId) {
        R.notefAt(K::FreeRunBroken, InvalidBlockId, Start + P,
                  "free run [%llu, %llu): page %llu owned by block %u",
                  (unsigned long long)Start,
                  (unsigned long long)(Start + Length),
                  (unsigned long long)(Start + P), Map.blockAt(Start + P));
        break;
      }
    }
  });
  uint64_t QuarantinedPages = 0;
  Pages.forEachQuarantinedRun(
      [&](PageIndex, uint32_t Length) { QuarantinedPages += Length; });
  uint64_t Committed = Pages.committedLimitPage() - Pages.arenaBasePage();
  if (BlockOwnedPages + FreePages + QuarantinedPages != Committed)
    R.notefAt(K::Accounting, InvalidBlockId, 0,
              "committed-page partition: %llu block-owned + %llu free + "
              "%llu quarantined != %llu committed",
              (unsigned long long)BlockOwnedPages,
              (unsigned long long)FreePages,
              (unsigned long long)QuarantinedPages,
              (unsigned long long)Committed);
  if (Pages.stats().CommittedPages != Committed)
    R.notefAt(K::Accounting, InvalidBlockId, 0,
              "page stats: CommittedPages says %llu, commit limit implies "
              "%llu",
              (unsigned long long)Pages.stats().CommittedPages,
              (unsigned long long)Committed);
  return R;
}

HeapVerifyReport HeapVerifier::checkMarksClear() {
  HeapVerifyReport R;
  if (countCommittedMarks(Heap.Marks, Heap.Pages) == 0)
    return R;
  PageIndex First = Heap.Pages.arenaBasePage();
  while (!pageHasMarks(Heap.Marks, First))
    ++First;
  R.notefAt(VerifyFindingKind::CounterMismatch, Heap.Map.blockAt(First),
            First,
            "mark table: bits set before the root scan (first at page %llu)",
            (unsigned long long)First);
  return R;
}

//===----------------------------------------------------------------------===//
// Repair
//===----------------------------------------------------------------------===//

HeapVerifyReport HeapVerifier::verifyAndRepair(HeapRepairStats &Stats) {
  HeapVerifyReport Pre = run();
  if (Pre.clean()) {
    Pre.RepairedClean = true;
    return Pre;
  }

  // The repairs below resync counts from bitmaps, so the bitmaps must
  // hold the swept state first.
  Heap.finishPendingSweeps();
  PageAllocator &Pages = Heap.Pages;
  PageMap &Map = Heap.Map;
  std::vector<BlockId> QuarantinedBlocks;

  // (a) Quarantine blocks whose geometry cannot be trusted: every
  // later repair divides by it.  Their pages are withdrawn forever (a
  // wild pointer may still point into them), except pages the block
  // never plausibly owned.
  {
    std::vector<BlockId> Bad;
    Heap.Blocks.forEach([&](BlockId Id, BlockDescriptor &B) {
      bool Garbage =
          B.NumPages == 0 || B.ObjectCount == 0 ||
          !Pages.inPotentialHeap(B.StartPage) ||
          !Pages.inPotentialHeap(B.StartPage + B.NumPages - 1) ||
          B.StartPage + B.NumPages > Pages.committedLimitPage() ||
          B.ObjectSize == 0 ||
          B.FirstObjectOffset + uint64_t(B.ObjectCount) * B.ObjectSize >
              uint64_t(B.NumPages) * PageSize ||
          (B.IsLarge && B.ObjectCount != 1);
      if (Garbage)
        Bad.push_back(Id);
    });
    for (BlockId Id : Bad) {
      BlockDescriptor &B = Heap.Blocks.get(Id);
      bool PagesPlausible =
          B.NumPages != 0 && Pages.inPotentialHeap(B.StartPage) &&
          Pages.inPotentialHeap(B.StartPage + B.NumPages - 1) &&
          B.StartPage + B.NumPages <= Pages.committedLimitPage();
      if (PagesPlausible) {
        Pages.quarantineRun(B.StartPage, B.NumPages);
        Stats.PagesQuarantined += B.NumPages;
      }
      Heap.Blocks.destroy(Id);
      ++Stats.BlocksQuarantined;
      QuarantinedBlocks.push_back(Id);
    }
  }

  // (b) Per-block bitmap/counter repair.  The bitmaps are the source of
  // truth: counters resync to them, overlap resolves in favor of
  // "allocated" (freeing a live object is the one unrecoverable move).
  Heap.Blocks.forEach([&](BlockId, BlockDescriptor &B) {
    bool Resynced = false;
    // The reciprocal is derived from ObjectSize, which survived (a).
    uint64_t Reciprocal = BlockDescriptor::reciprocalOf(B.ObjectSize);
    if (B.SlotReciprocal != Reciprocal) {
      B.SlotReciprocal = Reciprocal;
      Resynced = true;
    }
    for (uint32_t Slot = 0; Slot != B.ObjectCount; ++Slot)
      if (B.AllocBits.test(Slot) && B.PinnedBits.test(Slot)) {
        B.PinnedBits.reset(Slot);
        Resynced = true;
      }
    // Marks are rebuilt every cycle, so dropping a mark bit that is no
    // slot base is always safe (repair runs with the cycle abandoned
    // and marks invalidated).
    forEachMark(Heap.Marks, B,
                   [&](WindowOffset Offset, uint64_t &Word, unsigned Bit) {
                     if (isSlotBase(B, Offset))
                       return;
                     Word &= ~(uint64_t(1) << Bit);
                     Resynced = true;
                   });
    if (B.IsLarge && B.AllocBits.count() == 0) {
      // A large block exists only to hold its object; resurrect the
      // bit rather than leave a phantom empty block.
      B.AllocBits.set(0);
      Resynced = true;
    }
    uint32_t AllocCount = static_cast<uint32_t>(B.AllocBits.count());
    if (B.AllocatedCount != AllocCount) {
      B.AllocatedCount = AllocCount;
      Resynced = true;
    }
    uint32_t PinCount = static_cast<uint32_t>(B.PinnedBits.count());
    if (B.PinnedCount != PinCount) {
      B.PinnedCount = PinCount;
      Resynced = true;
    }
    if (Resynced)
      ++Stats.CountersResynced;
  });

  // (c) Re-derive the page map from the block table: reset the arena
  // range, then stamp each block's run.  A block colliding with an
  // already-stamped page loses — it is quarantined (its non-colliding
  // pages too: their contents are unknown).
  {
    PageIndex Base = Pages.arenaBasePage();
    PageIndex Limit = Pages.committedLimitPage();
    if (Limit > Base)
      Map.clearRun(Base, Limit - Base);
    std::vector<BlockId> Colliding;
    Heap.Blocks.forEach([&](BlockId Id, BlockDescriptor &B) {
      bool Collides = false;
      for (uint32_t P = 0; P != B.NumPages; ++P)
        if (Map.blockAt(B.StartPage + P) != InvalidBlockId) {
          Collides = true;
          break;
        }
      if (Collides) {
        Colliding.push_back(Id);
        return;
      }
      for (uint32_t P = 0; P != B.NumPages; ++P)
        Map.setRaw(B.StartPage + P, Id);
    });
    for (BlockId Id : Colliding) {
      BlockDescriptor &B = Heap.Blocks.get(Id);
      for (uint32_t P = 0; P != B.NumPages; ++P) {
        if (Map.blockAt(B.StartPage + P) == InvalidBlockId) {
          Pages.quarantineRun(B.StartPage + P, 1);
          ++Stats.PagesQuarantined;
        }
      }
      Heap.Blocks.destroy(Id);
      ++Stats.BlocksQuarantined;
      QuarantinedBlocks.push_back(Id);
    }
    ++Stats.PageMapRederivations;
    // Quarantined and colliding blocks left the table with their marks:
    // clear every committed page the re-derived map gives no block.
    for (PageIndex P = Base; P < Limit; ++P)
      if (Map.blockAt(P) == InvalidBlockId &&
          pageHasMarks(Heap.Marks, P))
        Heap.Marks.clearPages(P, 1);
  }

  // (d) Rebuild the lanes from scratch: every block is relisted.
  {
    for (PageSet &Listed : Heap.Lanes)
      Listed.clear();
    Heap.Blocks.forEach(
        [&](BlockId, BlockDescriptor &B) { Heap.relist(B); });
    ++Stats.FreeListRebuilds;
  }

  // (e) Rebuild the free runs as the complement of (block-owned ∪
  // quarantined) within the committed range.
  {
    PageIndex Base = Pages.arenaBasePage();
    PageIndex Limit = Pages.committedLimitPage();
    std::vector<bool> Owned(Limit - Base, false);
    Heap.Blocks.forEach([&](BlockId, BlockDescriptor &B) {
      for (uint32_t P = 0; P != B.NumPages; ++P)
        Owned[B.StartPage + P - Base] = true;
    });
    Pages.forEachQuarantinedRun([&](PageIndex Start, uint32_t Length) {
      for (uint32_t P = 0; P != Length; ++P)
        if (Start + P >= Base && Start + P < Limit)
          Owned[Start + P - Base] = true;
    });
    std::vector<std::pair<PageIndex, uint32_t>> Runs;
    for (PageIndex P = 0; P < Limit - Base;) {
      if (Owned[P]) {
        ++P;
        continue;
      }
      PageIndex RunStart = P;
      while (P < Limit - Base && !Owned[P])
        ++P;
      Runs.emplace_back(Base + RunStart, P - RunStart);
    }
    Pages.rebuildFreeRuns(Runs);
  }

  // (f) Recompute the heap-wide allocated-bytes and uncollectable-block
  // counters: quarantine destroyed blocks without releasing them.
  {
    uint64_t Bytes = 0;
    size_t Uncollectable = 0;
    Heap.Blocks.forEach([&](BlockId, BlockDescriptor &B) {
      Bytes += uint64_t(B.AllocatedCount) * B.ObjectSize;
      Uncollectable += kindIsUncollectable(B.Kind);
    });
    Heap.AllocatedBytes = Bytes;
    Heap.UncollectableBlocks = Uncollectable;
  }

  // Annotate the pre-repair findings with what happened to them.
  for (VerifyFinding &F : Pre.Findings) {
    bool BlockGone = false;
    for (BlockId Q : QuarantinedBlocks)
      BlockGone |= Q == F.Block;
    if (BlockGone) {
      F.Outcome = VerifyRepairOutcome::Quarantined;
      continue;
    }
    switch (F.Kind) {
    case VerifyFindingKind::Generic:
    case VerifyFindingKind::GuardSmash:
      // Collector-level notes aren't heap metadata; guard smashes are
      // client-memory damage no metadata rebuild can undo.
      F.Outcome = VerifyRepairOutcome::NotAttempted;
      break;
    default:
      F.Outcome = VerifyRepairOutcome::Repaired;
      ++Stats.FindingsRepaired;
      break;
    }
  }

  // Re-verify: the repaired heap must satisfy every invariant again
  // (guard smashes excepted — those persist until the smashed objects
  // die or the client is told).
  HeapVerifyReport Post = run();
  bool OnlyGuardSmashes = true;
  for (const VerifyFinding &F : Post.Findings)
    OnlyGuardSmashes &= F.Kind == VerifyFindingKind::GuardSmash;
  Pre.RepairedClean = Post.clean() || OnlyGuardSmashes;
  return Pre;
}

} // namespace cgc
