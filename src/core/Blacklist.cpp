//===- core/Blacklist.cpp - Page blacklisting -----------------------------===//

#include "core/Blacklist.h"
#include "core/GcConfig.h"
#include "support/Assert.h"

using namespace cgc;

Blacklist Blacklist::hashed(unsigned BitsLog2, bool Aging) {
  CGC_CHECK(BitsLog2 >= 4 && BitsLog2 <= 28,
            "hashed blacklist size out of range");
  return Blacklist(size_t(1) << BitsLog2, BitsLog2, Aging);
}

void Blacklist::noteCandidate(PageIndex Page) {
  ++Stats.CandidatesNoted;
  size_t Bit = bitFor(Page);
  if (Bit == NoBit)
    return;
  if (!Current.testAndSet(Bit)) {
    ++CurrentCount;
    CurrentWords.widen(Bit);
  }
  if (InCycle && !SeenThisCycle.testAndSet(Bit)) {
    ++SeenCount;
    SeenWords.widen(Bit);
  }
}

void Blacklist::beginCycle() {
  // Only the words the last cycle wrote can hold a set bit.
  std::fill(SeenThisCycle.words() + SeenWords.Lo,
            SeenThisCycle.words() + SeenWords.Hi, 0);
  SeenWords = {};
  SeenCount = 0;
  InCycle = true;
}

void Blacklist::adoptSeenSet() {
  uint64_t *Live = Current.words();
  const uint64_t *Seen = SeenThisCycle.words();
  std::fill(Live + CurrentWords.Lo, Live + CurrentWords.Hi, 0);
  std::copy(Seen + SeenWords.Lo, Seen + SeenWords.Hi, Live + SeenWords.Lo);
  CurrentWords = SeenWords;
  CurrentCount = SeenCount;
}

void Blacklist::endCycle() {
  ++Stats.Cycles;
  InCycle = false;
  // Entries the just-finished collection did not re-observe are dropped:
  // the stale value that produced them has been overwritten.
  if (Aging)
    adoptSeenSet();
}

void Blacklist::refresh() {
  // SeenThisCycle is a subset of Current (noteCandidate sets both), so
  // the intersection the sentinel wants is the seen set itself.  Only
  // meaningful between cycles; mid-cycle the seen set is still filling.
  if (!InCycle)
    adoptSeenSet();
}

std::unique_ptr<Blacklist> cgc::createBlacklist(BlacklistMode Mode,
                                                PageIndex NumPages,
                                                unsigned HashedBitsLog2,
                                                bool Aging) {
  switch (Mode) {
  case BlacklistMode::Off:
    return std::make_unique<Blacklist>(Blacklist::flat(0, Aging));
  case BlacklistMode::FlatBitmap:
    return std::make_unique<Blacklist>(Blacklist::flat(NumPages, Aging));
  case BlacklistMode::Hashed:
    return std::make_unique<Blacklist>(
        Blacklist::hashed(HashedBitsLog2, Aging));
  }
  CGC_UNREACHABLE("bad blacklist mode");
}
