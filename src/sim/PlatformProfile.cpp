//===- sim/PlatformProfile.cpp - Table-1 platform models ------------------===//

#include "sim/PlatformProfile.h"

using namespace cgc;
using namespace cgc::sim;

const char *cgc::sim::platformName(Platform P) {
  switch (P) {
  case Platform::SparcStatic:
    return "SPARC(static)";
  case Platform::SparcDynamic:
    return "SPARC(dynamic)";
  case Platform::SgiStatic:
    return "SGI(static)";
  case Platform::Os2Static:
    return "OS/2(static)";
  case Platform::Pcr:
    return "PCR";
  }
  CGC_UNREACHABLE("bad platform");
}

PlatformSpec cgc::sim::specFor(Platform P, bool Optimized) {
  PlatformSpec Spec;
  Spec.Name = platformName(P);
  switch (P) {
  case Platform::SparcStatic:
    // Statically linked SunOS libc: ">35K of seemingly random integer
    // values" for base conversion, packed unaligned strings (the
    // big-endian trailing-NUL hazard), environment pollution.
    Spec.BigEndian = true;
    Spec.Tables = {/*Words=*/15800, /*MaxMagnitude=*/0x30000000,
                   /*WildFraction=*/0.05, /*SmallFraction=*/0.30};
    Spec.Strings = {/*Count=*/700, 3, 24, /*WordAligned=*/false};
    Spec.EnvVars = 40;
    Spec.RegisterCount = 32; // SPARC register windows, never cleared.
    Spec.StartupResidueFraction = 0.5;
    Spec.ChurnFraction = 0.2;
    Spec.ChurnRedrawProbability = 0.3;
    break;
  case Platform::SparcDynamic:
    // Shared libc: its tables are not in the scanned static area; only
    // the program's own small data and strings remain.
    Spec.BigEndian = true;
    Spec.Tables = {350, 0x30000000, 0.05, 0.30};
    Spec.Strings = {45, 3, 24, false};
    Spec.EnvVars = 40;
    Spec.RegisterCount = 32;
    Spec.StartupResidueFraction = 0.5;
    Spec.ChurnFraction = 0.2;
    Spec.ChurnRedrawProbability = 0.3;
    break;
  case Platform::SgiStatic:
    // IRIX: strings word-aligned (hazard avoided), small tables; the
    // paper attributes the remaining 1.5-8% to "varying register
    // contents after system call or trap returns" — high seed-to-seed
    // variance from a small number of register hits.
    Spec.BigEndian = true;
    Spec.Tables = {800, 0xFFFFFFFF, 1.0, 0.0}; // wild: full 32 bits.
    Spec.Strings = {500, 3, 24, /*WordAligned=*/true};
    Spec.EnvVars = 40;
    Spec.RegisterCount = 64;
    Spec.StartupResidueFraction = 0.6;
    Spec.ResidueMaxMagnitude = uint64_t(0x10000000); // 256 MiB.
    Spec.ChurnFraction = 0.3;
    Spec.ChurnRedrawProbability = 0.4;
    // IRIX showed no stack-derived residual with blacklisting: model a
    // collector whose own frames expose less dead stack.
    Spec.GcOverscanSlots = 8;
    break;
  case Platform::Os2Static:
    // 80486 PC, little-endian: the end-of-string hazard is the one
    // that is "harder to avoid".  Memory-constrained: 100 lists.
    Spec.BigEndian = false;
    Spec.ProgramTLists = 100;
    Spec.MaxHeapBytes = uint64_t(32) << 20;
    Spec.Tables = {1200, 0x30000000, 0.05, 0.30};
    Spec.Strings = {80, 3, 24, false};
    // "certain stack locations are likely to always contain pointers to
    // garbage objects": the small test(2) frame overwrites little of
    // the dead test() frame.
    Spec.FurtherExecSlots = 9;
    Spec.EnvVars = 20;
    Spec.RegisterCount = 8; // x86.
    Spec.StartupResidueFraction = 0.5;
    // OS/2's kernel-return residue sat close to the (small) heap, and
    // the paper measured 1-3% residual retention with blacklisting.
    Spec.ResidueMaxMagnitude = uint64_t(16) << 20;
    Spec.ChurnFraction = 0.5;
    Spec.ChurnRedrawProbability = 0.35;
    Spec.FrameWrittenFraction = 0.5; // "certain stack locations are
                                     // likely to always contain
                                     // pointers to garbage objects".
    break;
  case Platform::Pcr:
    // Cedar world: large static areas (most libc arrays excluded, but
    // megabytes of Cedar data), other live data, background threads,
    // and the heap-size statics that pinned lists in the paper.
    Spec.BigEndian = true;
    Spec.MaxHeapBytes = uint64_t(128) << 20;
    Spec.Tables = {28000, 0xFFFFFFFF, 1.0, 0.0};
    Spec.Strings = {500, 3, 24, false};
    Spec.EnvVars = 40;
    Spec.RegisterCount = 32;
    Spec.StartupResidueFraction = 0.5;
    Spec.ChurnFraction = 0.25;
    Spec.ChurnRedrawProbability = 0.3;
    Spec.OtherLiveDataBytes = uint64_t(8) << 20;
    Spec.MutatingStaticSlots = 16;
    Spec.MutatingStaticRedrawProbability = 0.12; // "changed
                                                 // occasionally, but
                                                 // not frequently".
    Spec.BackgroundStacks = 3;
    break;
  }

  if (Optimized) {
    // Optimizing compilers keep temporaries in registers and build
    // tighter frames: fewer lazily-written slots, smaller frames.  The
    // paper's optimized rows differ from unoptimized by at most a few
    // percent, in both directions.
    Spec.AllocFrameSlots = Spec.AllocFrameSlots / 2;
    Spec.FrameWrittenFraction =
        std::min(1.0, Spec.FrameWrittenFraction + 0.3);
    if (Spec.FurtherExecSlots < 12)
      Spec.FurtherExecSlots = 11;
  }
  return Spec;
}

GcConfig cgc::sim::configFor(const PlatformSpec &Spec, BlacklistMode Mode) {
  GcConfig Config;
  Config.Placement = HeapPlacement::LowSbrk;
  Config.MaxHeapBytes = Spec.MaxHeapBytes;
  Config.Interior = InteriorPolicy::All;
  Config.RootScanAlignment = 4;
  Config.Blacklist = Mode;
  Config.BlacklistAging = true;
  Config.GcAtStartup = true;
  return Config;
}

SimEnvironment::SimEnvironment(Collector &GC, const PlatformSpec &Spec,
                               uint64_t Seed)
    : GC(GC), Spec(Spec), R(Seed),
      Registers(Spec.RegisterCount),
      MutatorStack(Spec.StackCapacitySlots) {
  MutatorStack.setGcOverscanSlots(Spec.GcOverscanSlots);
  buildSegments();
  seedStartupResidue();
  attachRoots();
  GC.addPreCollectionHook([this] { onPreCollection(); });
  GC.addStackClearHook([this] {
    MutatorStack.clearBeyondTop(StackClearBytes / sizeof(uint64_t));
  });
}

void SimEnvironment::buildSegments() {
  appendIntTable(TableSegment, Spec.Tables, R, Spec.BigEndian);
  appendStringPool(StringSegment, Spec.Strings, R);
  appendEnvironmentBlock(EnvSegment, Spec.EnvVars, R);
  MutatingStatics.assign(Spec.MutatingStaticSlots, 0);
  for (size_t I = 0; I != Spec.BackgroundStacks; ++I) {
    auto Stack = std::make_unique<SimStack>(4096);
    // Background threads start with residue-laden frames.
    size_t Base = Stack->pushFrame(256, /*WrittenFraction=*/1.0);
    for (size_t Slot = 0; Slot != 256; ++Slot)
      if (R.nextBool(0.1))
        Stack->write(Base + Slot,
                     GC.arena().base() +
                         R.nextBelow(Spec.ResidueMaxMagnitude));
    Background.push_back(std::move(Stack));
  }
}

void SimEnvironment::attachRoots() {
  RootEncoding Enc32 =
      Spec.BigEndian ? RootEncoding::Window32BE : RootEncoding::Window32LE;
  auto addSegment = [&](const Segment &Seg, const char *Label) {
    if (Seg.empty())
      return;
    GC.addRootRange(Seg.data(), Seg.data() + Seg.size(), Enc32,
                    RootSource::StaticData, Label);
  };
  addSegment(TableSegment, "static-int-tables");
  addSegment(StringSegment, "static-strings");
  addSegment(EnvSegment, "environment");
  if (!MutatingStatics.empty())
    GC.addRootRange(MutatingStatics.data(),
                    MutatingStatics.data() + MutatingStatics.size(),
                    RootEncoding::Native64, RootSource::StaticData,
                    "mutating-statics");
  Registers.attachTo(GC);
  MutatorStack.attachTo(GC);
  for (size_t I = 0; I != Background.size(); ++I)
    Background[I]->attachTo(GC, "background-stack");
  GC.addRootRange(&OtherLiveHead, &OtherLiveHead + 1,
                  RootEncoding::Native64, RootSource::Client,
                  "other-live-data-root");
}

void SimEnvironment::seedStartupResidue() {
  // Residue present before the first allocation: register windows and
  // trap frames left over from program startup.  Constant thereafter,
  // so the startup collection blacklists whatever it points near.
  for (size_t I = 0; I != Registers.size(); ++I)
    if (R.nextBool(Spec.StartupResidueFraction))
      Registers.set(I, GC.arena().base() +
                           R.nextBelow(Spec.ResidueMaxMagnitude));
}

void SimEnvironment::onPreCollection() {
  // Post-allocation register churn: kernel/trap returns leave fresh
  // values.  Slow churn (values persist across a few collections) is
  // what survives blacklisting.
  size_t Churning = static_cast<size_t>(
      static_cast<double>(Registers.size()) * Spec.ChurnFraction);
  for (size_t I = 0; I != Churning; ++I)
    if (R.nextBool(Spec.ChurnRedrawProbability))
      Registers.set(I, GC.arena().base() +
                           R.nextBelow(Spec.ResidueMaxMagnitude));

  // PCR's "statically allocated variables that changed occasionally,
  // but not frequently": runtime bookkeeping whose values track the
  // heap — read as addresses they land inside the committed heap.
  for (uint64_t &Slot : MutatingStatics)
    if (R.nextBool(Spec.MutatingStaticRedrawProbability))
      Slot = GC.arena().base() + GC.config().heapBaseOffset() +
             R.nextBelow(std::max<uint64_t>(GC.committedHeapBytes(), 1));

  // Background threads wake up now and then; their stack activity
  // overwrites old residue ("this seemed to have a beneficial effect of
  // clearing out thread stacks").
  for (auto &Stack : Background) {
    if (!R.nextBool(0.5))
      continue;
    if (Stack->frameCount() > 1 && R.nextBool(0.5)) {
      Stack->popFrame();
    } else if (Stack->depth() + 64 <= Stack->capacity()) {
      Stack->pushFrame(64, /*WrittenFraction=*/1.0);
    }
  }
}

void SimEnvironment::populateOtherLiveData() {
  if (Spec.OtherLiveDataBytes == 0)
    return;
  // A chain of 64-byte pointer-bearing nodes, rooted at OtherLiveHead.
  struct ChainNode {
    ChainNode *Next;
    uint64_t Payload[7];
  };
  uint64_t Budget = Spec.OtherLiveDataBytes;
  while (Budget >= sizeof(ChainNode)) {
    auto *Node = static_cast<ChainNode *>(
        GC.allocate(sizeof(ChainNode), ObjectKind::Normal));
    CGC_CHECK(Node, "other-live-data allocation failed");
    // Keep the growing chain rooted at every step: allocation may
    // trigger a collection mid-build.
    Node->Next = reinterpret_cast<ChainNode *>(OtherLiveHead);
    OtherLiveHead = reinterpret_cast<uint64_t>(Node);
    Budget -= sizeof(ChainNode);
  }
}
