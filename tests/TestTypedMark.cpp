//===- tests/TestTypedMark.cpp - Descriptor-driven tracing ----------------===//
//
// The typed mark path's contract, tested from both ends:
//
//   * Interning: registering the same {bitmap, size} twice yields the
//     same id; degenerate bitmaps (all words / no words) collapse onto
//     the ordinary Normal / PointerFree kinds and never mint typed
//     blocks.
//   * Precision: a word the descriptor declares non-pointer cannot
//     retain anything, so the typed heap retains a strict subset of
//     its all-conservative twin on decoy-laden workloads, and a plain
//     subset on the in-tree adopters (interpreter pairs, cords).
//   * Bit-identity: with GcConfig::AllConservativeDescriptors the
//     collector must be indistinguishable from an untyped collector
//     running the same allocation stream — retained sets, liveness
//     counters, blacklist, and free-list order.
//   * The C API round-trip (cgc_register_descriptor /
//     cgc_malloc_explicitly_typed) and the fourth object kind
//     (cgc_malloc_atomic_uncollectable) behave like their C++
//     counterparts, including the explicit-free path and the guarded
//     leak report.
//
//===----------------------------------------------------------------------===//

#include "capi/cgc.h"
#include "cords/Cord.h"
#include "core/Collector.h"
#include "core/GcNew.h"
#include "interp/Interpreter.h"
#include "structures/FalseRef.h"
#include "support/Random.h"
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <vector>

using namespace cgc;

namespace {

GcConfig typedConfig() {
  GcConfig Config;
  Config.MaxHeapBytes = 64 << 20;
  Config.GcAtStartup = false;
  Config.MinHeapBytesBeforeGc = ~uint64_t(0);
  return Config;
}

constexpr unsigned Cons =
    static_cast<unsigned>(DescriptorClass::Conservative);
constexpr unsigned Precise = static_cast<unsigned>(DescriptorClass::Precise);
constexpr unsigned PtrFree =
    static_cast<unsigned>(DescriptorClass::PointerFree);

/// The pointer-bearing word indices below \p Limit, in the order the
/// precise scan visits them.
std::vector<uint32_t> pointerWords(const TypeDescriptor &D, uint32_t Limit) {
  std::vector<uint32_t> Words;
  D.forEachPointerWord(Limit, [&](uint32_t Word) {
    Words.push_back(Word);
    return true;
  });
  return Words;
}

/// Window offsets of every currently allocated object, in address
/// order; after a non-lazy collection this is the retained set.
std::vector<WindowOffset> retainedSet(Collector &GC) {
  std::vector<WindowOffset> Offsets;
  GC.forEachObject([&](void *Ptr, size_t, ObjectKind) {
    Offsets.push_back(GC.windowOffsetOf(Ptr));
  });
  return Offsets;
}

} // namespace

//===----------------------------------------------------------------------===//
// Interning and classification
//===----------------------------------------------------------------------===//

TEST(TypedMark, InterningReturnsTheSameId) {
  Collector GC(typedConfig());
  LayoutId A = GC.registerObjectLayout({false, true, false}, 24);
  LayoutId B = GC.registerObjectLayout({false, true, false}, 24);
  EXPECT_NE(A, 0u);
  EXPECT_EQ(A, B) << "identical registrations must intern";

  // Different bitmap or different size: different descriptor.
  EXPECT_NE(A, GC.registerObjectLayout({true, false, false}, 24));
  EXPECT_NE(A, GC.registerObjectLayout({false, true, false, false}, 32));

  // Trailing pointer-free padding normalizes away: an over-long bitmap
  // spelling interns onto the canonical descriptor.
  EXPECT_EQ(GC.registerObjectLayout({false, true, false, false}, 24), A);
}

TEST(TypedMark, DegenerateBitmapsCollapseOntoKinds) {
  Collector GC(typedConfig());
  LayoutId AllWords = GC.registerObjectLayout({true, true, true}, 24);
  LayoutId NoWords = GC.registerObjectLayout({false, false, false}, 24);
  LayoutId Mixed = GC.registerObjectLayout({false, true, false}, 24);
  EXPECT_EQ(GC.objectHeap().layout(AllWords).Class,
            DescriptorClass::Conservative);
  EXPECT_EQ(GC.objectHeap().layout(NoWords).Class,
            DescriptorClass::PointerFree);
  EXPECT_EQ(GC.objectHeap().layout(Mixed).Class, DescriptorClass::Precise);

  // Degenerate allocations land on the ordinary kinds: the heap census
  // cannot tell them apart from untyped allocate() calls.
  void *FromAll = GC.allocateTyped(AllWords);
  void *FromNone = GC.allocateTyped(NoWords);
  ASSERT_NE(FromAll, nullptr);
  ASSERT_NE(FromNone, nullptr);
  unsigned Normals = 0, PointerFrees = 0;
  GC.forEachObject([&](void *Ptr, size_t, ObjectKind Kind) {
    if (Ptr == FromAll) {
      EXPECT_EQ(Kind, ObjectKind::Normal);
      ++Normals;
    } else if (Ptr == FromNone) {
      EXPECT_EQ(Kind, ObjectKind::PointerFree);
      ++PointerFrees;
    }
  });
  EXPECT_EQ(Normals, 1u);
  EXPECT_EQ(PointerFrees, 1u);
}

TEST(TypedMark, BitmapEdgesAroundTheInlineLimit) {
  Collector GC(typedConfig());

  // Exactly the inline limit: 64 words, last word pointer-bearing.
  std::vector<bool> AtLimit(TypeDescriptor::InlineWordLimit, false);
  AtLimit[0] = AtLimit[63] = true;
  LayoutId Inline = GC.registerObjectLayout(AtLimit, 64 * 8);
  const TypeDescriptor &DInline = GC.objectHeap().layout(Inline);
  EXPECT_TRUE(DInline.usesInlineBitmap());
  EXPECT_EQ(DInline.Class, DescriptorClass::Precise);
  EXPECT_TRUE(DInline.wordMayHoldPointer(0));
  EXPECT_TRUE(DInline.wordMayHoldPointer(63));
  EXPECT_FALSE(DInline.wordMayHoldPointer(32));
  EXPECT_FALSE(DInline.wordMayHoldPointer(64)) << "past the object";
  EXPECT_EQ(DInline.pointerWordCount(), 2u);
  EXPECT_EQ(pointerWords(DInline, 64), (std::vector<uint32_t>{0, 63}));
  EXPECT_EQ(pointerWords(DInline, 63), (std::vector<uint32_t>{0}));
  EXPECT_EQ(pointerWords(DInline, 1000), (std::vector<uint32_t>{0, 63}))
      << "a limit past the object stops at the object";

  // One word past the limit goes out of line; probe both sides of the
  // 64-word bitmap seam.
  std::vector<bool> PastLimit(TypeDescriptor::InlineWordLimit + 1, false);
  PastLimit[63] = PastLimit[64] = true;
  LayoutId OutOfLine = GC.registerObjectLayout(PastLimit, 65 * 8);
  const TypeDescriptor &DOut = GC.objectHeap().layout(OutOfLine);
  EXPECT_FALSE(DOut.usesInlineBitmap());
  EXPECT_TRUE(DOut.wordMayHoldPointer(63));
  EXPECT_TRUE(DOut.wordMayHoldPointer(64));
  EXPECT_FALSE(DOut.wordMayHoldPointer(62));
  EXPECT_EQ(DOut.pointerWordCount(), 2u);
  EXPECT_EQ(pointerWords(DOut, 65), (std::vector<uint32_t>{63, 64}));
  EXPECT_EQ(pointerWords(DOut, 64), (std::vector<uint32_t>{63}));
  // A callback that declines ends the walk, even with a pointer word
  // left in the next bitmap word.
  std::vector<uint32_t> Seen;
  DOut.forEachPointerWord(65, [&](uint32_t Word) {
    Seen.push_back(Word);
    return false;
  });
  EXPECT_EQ(Seen, (std::vector<uint32_t>{63}));

  // Largest small object: 2048 bytes = 256 words, sparse bitmap.
  std::vector<bool> Big(256, false);
  Big[255] = true;
  LayoutId Sparse = GC.registerObjectLayout(Big, 2048);
  const TypeDescriptor &DBig = GC.objectHeap().layout(Sparse);
  EXPECT_EQ(pointerWords(DBig, 256), (std::vector<uint32_t>{255}));
  EXPECT_EQ(DBig.pointerWordCount(), 1u);

  // Objects allocated through each still live on the typed path.
  EXPECT_NE(GC.allocateTyped(Inline), nullptr);
  EXPECT_NE(GC.allocateTyped(OutOfLine), nullptr);
  EXPECT_NE(GC.allocateTyped(Sparse), nullptr);
  GC.collect("typed-edges");
}

//===----------------------------------------------------------------------===//
// Precision: declared-non-pointer words retain nothing
//===----------------------------------------------------------------------===//

namespace {

struct DecoyNode {
  uint64_t Payload; // Holds a heap address but is declared non-pointer.
  DecoyNode *Next;
  uint64_t Noise;
};

/// Builds a rooted list of \p Count DecoyNodes whose integer words
/// spell the addresses of \p Decoys dead heap objects, collects, and
/// \returns the cycle stats.  With \p AllConservative the descriptors
/// are ignored and the decoys are falsely retained.
CollectionStats runDecoyWorkload(bool AllConservative, unsigned Count,
                                 unsigned Decoys,
                                 std::vector<WindowOffset> *Retained) {
  GcConfig Config = typedConfig();
  Config.AllConservativeDescriptors = AllConservative;
  Collector GC(Config);
  LayoutId Node =
      GC.registerObjectLayout({false, true, false}, sizeof(DecoyNode));
  std::vector<uint64_t> DecoyAddrs;
  for (unsigned I = 0; I != Decoys; ++I)
    DecoyAddrs.push_back(reinterpret_cast<uint64_t>(GC.allocate(64)));
  DecoyNode *Head = nullptr;
  for (unsigned I = 0; I != Count; ++I) {
    auto *N = static_cast<DecoyNode *>(GC.allocateTyped(Node));
    N->Payload = DecoyAddrs[I % DecoyAddrs.size()];
    N->Next = Head;
    N->Noise = DecoyAddrs[(I + 1) % DecoyAddrs.size()];
    Head = N;
  }
  PlantedRef Pin(GC);
  Pin.setPointer(Head);
  CollectionStats Cycle = GC.collect("decoys");
  if (Retained)
    *Retained = retainedSet(GC);
  return Cycle;
}

} // namespace

TEST(TypedMark, PreciseScanDropsIntegerAliases) {
  constexpr unsigned Count = 256, Decoys = 32;
  CollectionStats Typed =
      runDecoyWorkload(/*AllConservative=*/false, Count, Decoys, nullptr);
  CollectionStats Conservative =
      runDecoyWorkload(/*AllConservative=*/true, Count, Decoys, nullptr);

  // Precise tracing keeps exactly the list; the conservative twin also
  // drags in every decoy the integer words point at.
  EXPECT_EQ(Typed.ObjectsLive, Count);
  EXPECT_EQ(Conservative.ObjectsLive, Count + Decoys);
  EXPECT_LT(Typed.BytesLive, Conservative.BytesLive);

  // Scan accounting: the two classes partition the total, the typed
  // run dispatched precise scans, the demoted run never did.
  EXPECT_EQ(Typed.ScanWordsByClass[Cons] + Typed.ScanWordsByClass[Precise],
            Typed.HeapWordsScanned);
  EXPECT_EQ(Typed.ScanWordsByClass[PtrFree], 0u);
  EXPECT_GT(Typed.ScanWordsByClass[Precise], 0u);
  EXPECT_EQ(Conservative.ScanWordsByClass[Precise], 0u);
  EXPECT_GE(Typed.ScanWordsByClass[Precise],
            Typed.ScanCandidatesByClass[Precise]);

  // Each node contributes exactly one precisely-scanned word (Next);
  // every Next but the tail's null holds a real heap address, so the
  // candidate count is exactly Count - 1.
  EXPECT_EQ(Typed.ScanWordsByClass[Precise], uint64_t(Count));
  EXPECT_EQ(Typed.ScanCandidatesByClass[Precise], uint64_t(Count - 1));
}

TEST(TypedMark, PreciseWordsNeverFeedTheBlacklist) {
  // A precisely-traced word whose value misses every live object is a
  // stale/foreign pointer, not a near miss: it must neither count as
  // one nor blacklist the page it aims at.
  GcConfig Config = typedConfig();
  Collector GC(Config);
  LayoutId Node =
      GC.registerObjectLayout({false, true, false}, sizeof(DecoyNode));
  auto *N = static_cast<DecoyNode *>(GC.allocateTyped(Node));
  N->Payload = 0;
  N->Noise = 0;
  // A dangling value: one page past the node, in unallocated space.
  N->Next = reinterpret_cast<DecoyNode *>(
      reinterpret_cast<char *>(N) + (64 << 10));
  PlantedRef Pin(GC);
  Pin.setPointer(N);
  CollectionStats Cycle = GC.collect("stale-precise");
  EXPECT_EQ(Cycle.ObjectsLive, 1u);
  EXPECT_EQ(Cycle.NearMissesByOrigin[static_cast<unsigned>(
                ScanOrigin::Heap)],
            0u)
      << "a declared pointer word must not be treated as a near miss";
}

//===----------------------------------------------------------------------===//
// The CGC_DESCRIBE / gcAllocTyped front end
//===----------------------------------------------------------------------===//

namespace described {

struct Record {
  Record *Next;
  uint64_t Hash[3]; // Never traced, whatever bits land here.
};

struct MultiField {
  uint64_t Tag;
  void *Left;
  uint64_t Gap;
  void *Pair[2]; // A multi-word member: both words pointer-bearing.
};

} // namespace described

CGC_DESCRIBE(described::Record, Next)
CGC_DESCRIBE(described::MultiField, Left, Pair)

TEST(TypedMark, DescribeMacroTracesExactlyTheNamedFields) {
  using described::MultiField;
  using described::Record;
  Collector GC(typedConfig());

  // The macro-derived bitmaps match the hand-written spellings.
  LayoutId RecordId = gcLayoutOf<Record>(GC);
  EXPECT_EQ(RecordId, GC.registerObjectLayout(
                          {true, false, false, false}, sizeof(Record)));
  LayoutId MultiId = gcLayoutOf<MultiField>(GC);
  EXPECT_EQ(MultiId,
            GC.registerObjectLayout({false, true, false, true, true},
                                    sizeof(MultiField)));
  EXPECT_EQ(GC.objectHeap().layout(MultiId).pointerWordCount(), 3u);

  // gcAllocTyped objects behave precisely: a decoy address in Hash
  // retains nothing.
  uint64_t Decoy = reinterpret_cast<uint64_t>(GC.allocate(64));
  Record *Head = nullptr;
  for (unsigned I = 0; I != 50; ++I) {
    Record *R = gcAllocTyped<Record>(GC);
    ASSERT_NE(R, nullptr);
    R->Next = Head;
    R->Hash[0] = R->Hash[1] = R->Hash[2] = Decoy;
    Head = R;
  }
  PlantedRef Pin(GC);
  Pin.setPointer(Head);
  CollectionStats Cycle = GC.collect("describe-macro");
  EXPECT_EQ(Cycle.ObjectsLive, 50u)
      << "the decoy must die even though every Hash word names it";
  unsigned Count = 0;
  for (Record *R = Head; R; R = R->Next)
    ++Count;
  EXPECT_EQ(Count, 50u);
}

//===----------------------------------------------------------------------===//
// Bit-identity: AllConservativeDescriptors vs. the untyped collector
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t FuzzSizes[] = {24, 48, 96, 256, 768};
constexpr unsigned NumFuzzSizes = sizeof(FuzzSizes) / sizeof(FuzzSizes[0]);

struct FuzzResult {
  std::vector<WindowOffset> Retained;
  std::vector<WindowOffset> FreeListProbe;
  CollectionStats Final;
};

/// Seeded churn: links, self/interior pointers, and integer noise, a
/// collection per round, then a final collection, the retained set,
/// and a free-list order probe.  \p Alloc hides whether objects come
/// from allocate() or allocateTyped() — everything downstream must be
/// bit-identical either way.
template <typename AllocFn>
FuzzResult runIdentityFuzz(Collector &GC, uint64_t Seed, AllocFn Alloc) {
  Rng R(Seed);
  std::vector<uint64_t> Slots(96, 0);
  RootId Root = GC.addRootRange(Slots.data(), Slots.data() + Slots.size(),
                                RootEncoding::Native64, RootSource::Client,
                                "identity-fuzz-slots");
  for (unsigned Round = 0; Round != 4; ++Round) {
    for (unsigned I = 0; I != 300; ++I) {
      size_t Slot = R.pickIndex(Slots.size());
      if (R.nextBool(0.3)) {
        Slots[Slot] = 0;
        continue;
      }
      unsigned SizeIdx = static_cast<unsigned>(R.nextBelow(NumFuzzSizes));
      void *Ptr = Alloc(SizeIdx);
      if (!Ptr)
        continue;
      auto *Words = static_cast<uint64_t *>(Ptr);
      size_t NumWords = FuzzSizes[SizeIdx] / sizeof(uint64_t);
      for (size_t J = 0; J != NumWords; ++J) {
        switch (R.nextBelow(4)) {
        case 0: // Link to a rooted object.
          Words[J] = Slots[R.pickIndex(Slots.size())];
          break;
        case 1: // Self/interior/near-miss pressure.
          Words[J] =
              reinterpret_cast<uint64_t>(Ptr) + R.nextBelow(8 << 10);
          break;
        case 2: // Integer noise.
          Words[J] = R.nextBelow(uint64_t(1) << 30);
          break;
        default:
          Words[J] = 0;
        }
      }
      Slots[Slot] = reinterpret_cast<uint64_t>(Ptr);
    }
    GC.collect("identity-fuzz");
  }
  FuzzResult Out;
  Out.Final = GC.collect("identity-fuzz-final");
  Out.Retained = retainedSet(GC);
  // Free-list order: the next allocations must come off the free lists
  // in the same order for both collectors.
  for (unsigned I = 0; I != 24; ++I)
    Out.FreeListProbe.push_back(GC.windowOffsetOf(Alloc(I % NumFuzzSizes)));
  GC.removeRootRange(Root);
  return Out;
}

void expectIdentical(const FuzzResult &A, const FuzzResult &B,
                     const char *What) {
  EXPECT_EQ(A.Retained, B.Retained) << What;
  EXPECT_EQ(A.FreeListProbe, B.FreeListProbe) << What;
  EXPECT_EQ(A.Final.ObjectsMarked, B.Final.ObjectsMarked) << What;
  EXPECT_EQ(A.Final.BytesMarked, B.Final.BytesMarked) << What;
  EXPECT_EQ(A.Final.ObjectsLive, B.Final.ObjectsLive) << What;
  EXPECT_EQ(A.Final.BytesLive, B.Final.BytesLive) << What;
  EXPECT_EQ(A.Final.ObjectsSweptFree, B.Final.ObjectsSweptFree) << What;
  EXPECT_EQ(A.Final.HeapWordsScanned, B.Final.HeapWordsScanned) << What;
  EXPECT_EQ(A.Final.NearMisses, B.Final.NearMisses) << What;
  EXPECT_EQ(A.Final.BlacklistedPages, B.Final.BlacklistedPages) << What;
  EXPECT_EQ(A.Final.RootHits, B.Final.RootHits) << What;
  for (unsigned I = 0; I != NumDescriptorClasses; ++I) {
    EXPECT_EQ(A.Final.ScanWordsByClass[I], B.Final.ScanWordsByClass[I])
        << What;
    EXPECT_EQ(A.Final.ScanCandidatesByClass[I],
              B.Final.ScanCandidatesByClass[I])
        << What;
  }
}

} // namespace

// The test id predates the deletion of the parallel marker, when the
// twins also ran at four mark workers; it is kept so ids stay stable.
TEST(TypedMark, AllConservativeIsBitIdenticalAtAnyWorkerCombination) {
  for (uint64_t Seed : {11ull, 77ull}) {
    GcConfig Untyped = typedConfig();
    GcConfig Demoted = Untyped;
    Demoted.AllConservativeDescriptors = true;

    // The untyped baseline calls allocate(); the demoted collector
    // registers genuinely mixed descriptors and calls allocateTyped()
    // — the knob must erase every trace of the difference.
    Collector BaselineGC(Untyped);
    FuzzResult Baseline =
        runIdentityFuzz(BaselineGC, Seed, [&](unsigned SizeIdx) {
          return BaselineGC.allocate(FuzzSizes[SizeIdx]);
        });

    Collector DemotedGC(Demoted);
    std::vector<LayoutId> Layouts;
    for (size_t Bytes : FuzzSizes) {
      std::vector<bool> Bitmap(Bytes / sizeof(uint64_t), false);
      for (size_t W = 1; W < Bitmap.size(); W += 2)
        Bitmap[W] = true;
      Layouts.push_back(DemotedGC.registerObjectLayout(Bitmap, Bytes));
    }
    FuzzResult Twin =
        runIdentityFuzz(DemotedGC, Seed, [&](unsigned SizeIdx) {
          return DemotedGC.allocateTyped(Layouts[SizeIdx]);
        });

    char What[64];
    std::snprintf(What, sizeof(What), "seed %llu",
                  (unsigned long long)Seed);
    expectIdentical(Baseline, Twin, What);
  }
}

//===----------------------------------------------------------------------===//
// In-tree adopters: interpreter pairs and cords
//===----------------------------------------------------------------------===//

TEST(TypedMark, InterpreterHeapIsTypedAndRetainsASubset)
{
  auto run = [](bool AllConservative) {
    // No machine-stack scanning and no implicit collections: with the
    // heap stable during eval, the only root at collect time is the
    // global environment, so both runs retain a deterministic set.
    GcConfig Config = typedConfig();
    Config.AllConservativeDescriptors = AllConservative;
    auto GC = std::make_unique<Collector>(Config);
    interp::Interpreter Interp(*GC);
    interp::Value Result = Interp.evalString(
        "(define build (lambda (n acc) (if (= n 0) acc "
        "(build (- n 1) (cons n acc)))))"
        "(define keep (build 200 '()))"
        "(length (append keep (build 100 '())))");
    EXPECT_FALSE(Interp.failed()) << Interp.errorMessage();
    EXPECT_EQ(Interp.toString(Result), "300");
    CollectionStats Cycle = GC->collect("interp-typed");
    return std::make_pair(Cycle.ObjectsLive, Cycle.ScanWordsByClass[Precise]);
  };
  auto [TypedLive, TypedPrecise] = run(/*AllConservative=*/false);
  auto [ConsLive, ConsPrecise] = run(/*AllConservative=*/true);

  EXPECT_GT(TypedPrecise, 0u)
      << "interpreter pairs must trace through their descriptor";
  EXPECT_EQ(ConsPrecise, 0u);
  EXPECT_LE(TypedLive, ConsLive)
      << "the typed interpreter heap must retain a subset";
}

TEST(TypedMark, CordsAreTypedAndRetainASubset) {
  auto run = [](bool AllConservative) {
    GcConfig Config = typedConfig();
    Config.AllConservativeDescriptors = AllConservative;
    Collector GC(Config);
    Cord Text = Cord::fromString(GC, std::string(512, 'a'));
    for (unsigned I = 0; I != 64; ++I)
      Text = Text + Cord::fromString(GC, std::string(64, 'b' + (I % 20)));
    Cord Slice = Text.substr(100, 1000);
    EXPECT_EQ(Text.length(), 512u + 64u * 64u);
    EXPECT_EQ(Slice.length(), 1000u);
    // Root the cord values themselves (two pointer-bearing words each)
    // instead of scanning the machine stack: deterministic and enough
    // to keep both trees alive.
    RootId Root = GC.addRootRange(&Text, &Text + 1, RootEncoding::Native64,
                                  RootSource::Client, "cord-a");
    RootId Root2 = GC.addRootRange(&Slice, &Slice + 1,
                                   RootEncoding::Native64,
                                   RootSource::Client, "cord-b");
    CollectionStats Cycle = GC.collect("cord-typed");
    EXPECT_EQ(Slice.charAt(0), Text.charAt(100));
    GC.removeRootRange(Root);
    GC.removeRootRange(Root2);
    return std::make_pair(Cycle.ObjectsLive, Cycle.ScanWordsByClass[Precise]);
  };
  auto [TypedLive, TypedPrecise] = run(/*AllConservative=*/false);
  auto [ConsLive, ConsPrecise] = run(/*AllConservative=*/true);

  EXPECT_GT(TypedPrecise, 0u)
      << "cord concat nodes must trace through their descriptor";
  EXPECT_EQ(ConsPrecise, 0u);
  EXPECT_LE(TypedLive, ConsLive);
}

//===----------------------------------------------------------------------===//
// The C API round-trip
//===----------------------------------------------------------------------===//

namespace {

cgc_config capiConfig() {
  cgc_config Config;
  cgc_config_init(&Config);
  Config.max_heap_bytes = 32ULL << 20;
  Config.gc_at_startup = 0;
  return Config;
}

} // namespace

TEST(TypedMark, CApiDescriptorRoundTrip) {
  cgc_config Config = capiConfig();
  cgc_collector *GC = cgc_create(&Config);
  ASSERT_NE(GC, nullptr);

  // {Payload, Next, Noise}: only word 1 is a pointer.
  const unsigned char PointerWords[3] = {0, 1, 0};
  unsigned Desc = cgc_register_descriptor(GC, PointerWords, 3, 24);
  ASSERT_NE(Desc, 0u);
  EXPECT_EQ(cgc_register_descriptor(GC, PointerWords, 3, 24), Desc)
      << "the C entry point must intern too";

  struct CNode {
    uint64_t Payload;
    CNode *Next;
    uint64_t Noise;
  };
  // Decoys dropped immediately; only integer words remember them.
  uint64_t DecoyA = (uint64_t)(uintptr_t)cgc_malloc(GC, 64);
  uint64_t DecoyB = (uint64_t)(uintptr_t)cgc_malloc(GC, 64);
  CNode *Head = nullptr;
  unsigned RootHandle = cgc_add_roots(GC, &Head, &Head + 1);
  for (unsigned I = 0; I != 100; ++I) {
    auto *N = (CNode *)cgc_malloc_explicitly_typed(GC, Desc);
    ASSERT_NE(N, nullptr);
    N->Payload = DecoyA;
    N->Next = Head;
    N->Noise = DecoyB;
    Head = N;
  }
  // Stack scanning is off: the registered root keeps exactly the list
  // alive, and the decoys' only mentions are in words the descriptor
  // declared integer — so both must be reclaimed.
  unsigned long long Reclaimed = cgc_gcollect(GC);
  EXPECT_GE(Reclaimed, 2 * 64ULL)
      << "both decoys must be reclaimed despite their addresses "
         "surviving in typed integer words";
  EXPECT_EQ(cgc_live_bytes(GC), 100ULL * 24)
      << "exactly the hundred 24-byte nodes remain";
  EXPECT_EQ(Head->Payload, DecoyA) << "payload word preserved";
  unsigned Count = 0;
  for (CNode *N = Head; N; N = N->Next)
    ++Count;
  EXPECT_EQ(Count, 100u) << "the typed list survived collection";
  cgc_remove_roots(GC, RootHandle);
  cgc_destroy(GC);
}

TEST(TypedMark, CApiAtomicUncollectable) {
  cgc_config Config = capiConfig();
  cgc_collector *GC = cgc_create(&Config);
  ASSERT_NE(GC, nullptr);

  // Unreferenced and full of a dead object's address: survives every
  // collection (uncollectable) without retaining the dead object
  // (pointer-free).
  uint64_t Decoy = (uint64_t)(uintptr_t)cgc_malloc(GC, 256);
  auto *Slab =
      (uint64_t *)cgc_malloc_atomic_uncollectable(GC, 16 * sizeof(uint64_t));
  ASSERT_NE(Slab, nullptr);
  for (unsigned I = 0; I != 16; ++I)
    Slab[I] = Decoy;
  uint64_t SlabAddr = (uint64_t)(uintptr_t)Slab;
  Slab = nullptr;
  Decoy = 0;
  cgc_gcollect(GC);
  cgc_gcollect(GC);

  Slab = (uint64_t *)(uintptr_t)SlabAddr;
  EXPECT_EQ(Slab[0], Slab[15]) << "slab survived two collections intact";
  EXPECT_EQ(cgc_live_bytes(GC), 128ULL)
      << "only the uncollectable slab remains; the decoy it names "
         "was reclaimed because the slab is never scanned";

  // The explicit free path: gone after cgc_free + collect.
  cgc_free(GC, Slab);
  cgc_gcollect(GC);
  EXPECT_EQ(cgc_live_bytes(GC), 0ULL);
  cgc_destroy(GC);
}

TEST(TypedMark, PointerFreeUncollectableLeakReport) {
  // Guarded mode's leak report must attribute unreachable
  // atomic-uncollectable objects like any other guarded allocation.
  GcConfig Config = typedConfig();
  Config.DebugGuards = true;
  Collector GC(Config);
  void *Slab = GC.allocate(96, ObjectKind::PointerFreeUncollectable);
  ASSERT_NE(Slab, nullptr);
  GcLeakReport Clean = GC.findLeaks();
  // Uncollectable objects are roots: reachable by definition, so the
  // report must NOT call the slab a leak while it is still allocated.
  EXPECT_EQ(Clean.TotalObjects, 0u);
  GC.deallocate(Slab);
  GC.collect("drain");
  EXPECT_EQ(GC.findLeaks().TotalObjects, 0u);
}
