//===- tests/TestOwnedBlockProtocol.cpp - Exhaustive slot protocol check --===//
//
// The owned-block protocol (heap/ThreadCache.h, ObjectHeap's checkout,
// takeSlot, returnBlock and deallocateExplicit), checked the way
// Hawblitzel and Petrank check a collector against its invariants
// ("Automated Verification of Practical Garbage Collectors"), scaled
// down to an exhaustive enumeration with no solver.
//
// The model is one slot of one block: its AllocWords bit, its mark and
// pin bits, which object's bytes it holds, the block's Owned and Pending
// flags, and the ledger.  Each actor's operation is a list of atomic
// steps, written as one step function.  No free and no sweep writes the
// slot; both takes zero it before its bit is set.  A collection sweeps
// the block it left pending last time, marks the slot when a client
// holds its object, and leaves a block no thread owns pending: counted
// as swept, bitmaps unswept.  A checkout, a locked take and a locked
// free sweep a pending block first.  The test runs every interleaving
// of every sequence of two or three operations from six starting
// states (a free slot starts dirty; a dropped object is garbage) and
// checks, on each:
//
//   * a contested free has exactly one winner, and every other free of
//     the same object reports DoubleFree (none aborts);
//   * no slot is zeroed while it holds an object, except by a free of
//     that object;
//   * no slot is handed out dirty;
//   * no slot is pinned: nothing in the model is a false reference;
//   * no thread owns a pending block;
//   * the counts balance: allocations minus frees and sweeps is the
//     bit as a swept block would hold it, and a block no thread owns
//     has that bit's AllocatedCount;
//
// and, after every step, that an allocated slot never holds an earlier
// object's bytes: the marker scans allocated slots only, so this is
// what keeps a dead object's bytes from retaining anything.
//
// Rule sets that break the protocol run through the same checker and
// must each be caught: a take that skips its zeroing, an owner take
// that sets its bit before zeroing, a remote free that wrote the slot
// and then CHECKed the bit (it aborted when the owner won the race), a
// checkout that hands out a pending block unswept, and a locked free
// that clears the bit of a pending block without sweeping it.
//
// The client is assumed not to free a pointer after its slot has been
// handed out again: such a free is indistinguishable from a free of the
// new object, in any allocator.  So a take and a free are never in
// flight at once.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace {

enum class Rules {
  Current,
  /// ThreadCache's take handed the slot out without zeroing it.
  OwnerTakeSkipsZeroing,
  /// ObjectHeap::takeSlot handed the slot out without zeroing it.
  LockedTakeSkipsZeroing,
  /// The owner's take set the bit, then zeroed the slot.
  OwnerTakePublishesFirst,
  /// The remote free zeroed the slot, then CHECKed that its atomic clear
  /// found the bit set.
  RemoteFreeWritesSlot,
  /// A checkout took a pending block without sweeping it.
  CheckoutSkipsSweep,
  /// A locked free into a pending block cleared the bit unswept.
  FreeSkipsSweep,
};

enum class OpKind {
  OwnerTake,  // Lock-free: zero the slot, set the bit, hand it out.
  OwnerFree,  // Lock-free: test the bit, then clear it.
  RemoteFree, // Locked: classify, then clear the bit of an owned block.
  Return,     // Locked, owner parked: end ownership.
  Collect,    // Locked, owner parked: leaves unowned blocks pending.
  Checkout,   // Locked, the owner's refill: sweep if pending, then own.
  LockedTake, // Locked: sweep if pending, zero and take a listed slot.
};
constexpr OpKind AllOps[] = {OpKind::OwnerTake,  OpKind::OwnerFree,
                             OpKind::RemoteFree, OpKind::Return,
                             OpKind::Collect,    OpKind::Checkout,
                             OpKind::LockedTake};

const char *opName(OpKind K) {
  switch (K) {
  case OpKind::OwnerTake:
    return "owner-take";
  case OpKind::OwnerFree:
    return "owner-free";
  case OpKind::RemoteFree:
    return "remote-free";
  case OpKind::Return:
    return "return";
  case OpKind::Collect:
    return "collect";
  case OpKind::Checkout:
    return "checkout";
  case OpKind::LockedTake:
    return "locked-take";
  }
  return "?";
}

bool isTake(OpKind K) {
  return K == OpKind::OwnerTake || K == OpKind::LockedTake;
}
bool isFree(OpKind K) {
  return K == OpKind::OwnerFree || K == OpKind::RemoteFree;
}
bool isOwners(OpKind K) {
  return K == OpKind::OwnerTake || K == OpKind::OwnerFree ||
         K == OpKind::Checkout;
}

enum class Outcome { Pending, Won, DoubleFree, Aborted, NoOp };

struct Op {
  OpKind Kind;
  int Pc = 0;
  bool Done = false;
  /// Frees: the object this free is of, and whether it was still held
  /// when the free began.
  int Target = 0;
  bool TargetHeld = false;
  Outcome Result = Outcome::Pending;
  bool inFlight() const { return Pc != 0 && !Done; }
};

struct State {
  bool Alloc = false;
  bool Owned = false;
  /// The last collection's mark, and the pin its sweep derived from it.
  bool Marked = false;
  bool Pinned = false;
  /// Counted as swept by the last collection; the bitmaps are not yet.
  bool Pending = false;
  /// The latest object (0: none), made when a take sets the bit; a
  /// client holds it from its handout until its free.
  int Gen = 0;
  bool Held = false;
  int NextGen = 1;
  /// The object whose bytes the slot holds; 0 once zeroed.
  int Bytes = 0;
  /// The ledger: the descriptor's AllocatedCount (frozen while owned),
  /// and slots handed out, freed explicitly and swept since the start.
  int Count = 0;
  int Allocs = 0;
  int Frees = 0;
  int Swept = 0;
  bool InitialAlloc = false;
  /// Every invariant this run broke.
  std::set<std::string> Violations;
};

void violate(State &S, const std::string &What) { S.Violations.insert(What); }

/// The bit as a swept block would hold it: a pending block's unmarked
/// object is already dead.
bool liveBit(const State &S) { return S.Alloc && (!S.Pending || S.Marked); }

/// Sweeps a pending block: the bitmaps catch up with its counts.
void sweepPending(State &S) {
  if (!S.Pending)
    return;
  S.Alloc = S.Alloc && S.Marked;
  S.Pinned = S.Marked && !S.Alloc;
  if (S.Pinned)
    violate(S, "a slot was pinned with no false reference");
  S.Pending = false;
}

/// A write of zeroes to the slot by \p By (a free names its target).
void zeroSlot(State &S, const Op &By) {
  if (S.Held && !(isFree(By.Kind) && By.Target == S.Gen))
    violate(S, "a slot holding an object was zeroed");
  S.Bytes = 0;
}

/// A take sets the bit: the slot holds a new object from here on.
void claim(State &S) {
  S.Alloc = true;
  S.Gen = S.NextGen++;
}

void handOut(State &S) {
  if (S.Bytes != 0)
    violate(S, "a slot was handed out dirty");
  S.Held = true;
  S.Bytes = S.Gen; // The client writes its object.
  ++S.Allocs;
}

/// The free of \p O succeeded: the bit is clear.
void won(State &S, Op &O) {
  if (S.Gen == O.Target)
    S.Held = false;
  ++S.Frees;
  O.Result = Outcome::Won;
  O.Done = true;
}

void finish(Op &O, Outcome Result) {
  O.Result = Result;
  O.Done = true;
}

/// A free through the locked path into a block no thread owns: classify
/// and deallocateExplicit under one hold of the lock.
void lockedFree(State &S, Op &O, Rules R) {
  if (!liveBit(S))
    return finish(O, Outcome::DoubleFree);
  if (R != Rules::FreeSkipsSweep)
    sweepPending(S);
  S.Alloc = false;
  --S.Count;
  won(S, O);
}

/// Whether \p O takes the heap lock at its next step.
bool locksNext(const State &S, const Op &O) {
  switch (O.Kind) {
  case OpKind::OwnerTake:
    return false;
  case OpKind::OwnerFree:
    return O.Pc == 0 && !S.Owned;
  case OpKind::RemoteFree:
    return O.Pc == 0;
  default:
    return true;
  }
}

/// Runs \p O's next atomic step.
void step(State &S, Op &O, Rules R) {
  // A free begins on the latest object the client had: one it dropped
  // is garbage it can no longer name, so that free frees nothing.
  auto Begin = [&] {
    O.Target = S.Gen;
    O.TargetHeld = S.Held;
    return !(S.Alloc && !S.Held);
  };
  switch (O.Kind) {
  case OpKind::OwnerTake:
    if (O.Pc == 0) {
      // Not owned: the owner's lane has no block (a refill is the
      // checkout operation).  Bit set or pinned: the block is dry.
      if (!S.Owned || S.Alloc || S.Pinned)
        return finish(O, Outcome::NoOp);
      if (R == Rules::OwnerTakePublishesFirst)
        claim(S);
      else if (R != Rules::OwnerTakeSkipsZeroing)
        zeroSlot(S, O);
    } else if (O.Pc == 1) {
      if (R == Rules::OwnerTakePublishesFirst)
        zeroSlot(S, O);
      else
        claim(S); // The atomic OR.
    } else {
      handOut(S);
      return finish(O, Outcome::NoOp);
    }
    break;
  case OpKind::OwnerFree:
    if (O.Pc == 0) {
      if (!Begin())
        return finish(O, Outcome::NoOp);
      if (!S.Owned)
        return lockedFree(S, O, R); // release() fails over to the lock.
      if (!S.Alloc)
        return finish(O, Outcome::DoubleFree);
    } else {
      if (!S.Alloc) // The atomic AND found the bit clear.
        return finish(O, Outcome::DoubleFree);
      S.Alloc = false;
      return won(S, O);
    }
    break;
  case OpKind::RemoteFree:
    if (O.Pc == 0) {
      if (!Begin())
        return finish(O, Outcome::NoOp);
      if (!liveBit(S)) // classifyExplicitFree: NotAllocated.
        return finish(O, Outcome::DoubleFree);
      if (!S.Owned)
        return lockedFree(S, O, R);
    } else if (R == Rules::RemoteFreeWritesSlot && O.Pc == 1) {
      zeroSlot(S, O);
    } else {
      if (!S.Alloc)
        return finish(O, R == Rules::RemoteFreeWritesSlot
                             ? Outcome::Aborted
                             : Outcome::DoubleFree);
      S.Alloc = false;
      return won(S, O);
    }
    break;
  case OpKind::Return:
    if (S.Owned) {
      S.Count = S.Alloc; // Refolded from the bitmap.
      S.Owned = false;
    }
    return finish(O, Outcome::NoOp);
  case OpKind::Collect:
    // The last collection's pending block is swept before the marks
    // are cleared; then a held object is marked, and an unowned block
    // is counted as swept and left pending (the rest of its slots keep
    // its mark line nonempty).  An owned block is skipped.
    sweepPending(S);
    S.Marked = S.Alloc && S.Held;
    if (!S.Owned) {
      if (S.Alloc && !S.Marked) {
        --S.Count;
        ++S.Swept;
      }
      S.Pending = true;
    }
    return finish(O, Outcome::NoOp);
  case OpKind::Checkout:
    if (!S.Owned) {
      if (R != Rules::CheckoutSkipsSweep)
        sweepPending(S);
      S.Owned = true;
    }
    return finish(O, Outcome::NoOp);
  case OpKind::LockedTake:
    if (!S.Owned)
      sweepPending(S);
    if (!S.Owned && !S.Alloc && !S.Pinned) {
      if (R != Rules::LockedTakeSkipsZeroing)
        zeroSlot(S, O);
      claim(S);
      ++S.Count;
      handOut(S);
    }
    return finish(O, Outcome::NoOp);
  }
  ++O.Pc;
}

/// The invariants checked after every step.
void checkStep(State &S) {
  if (S.Alloc && S.Bytes != 0 && S.Bytes != S.Gen)
    violate(S, "an allocated slot holds an earlier object's bytes");
  if (S.Owned && S.Pending)
    violate(S, "a thread owns a pending block");
}

bool enabled(const State &S, const std::vector<Op> &Ops, size_t I) {
  const Op &O = Ops[I];
  if (O.Done)
    return false;
  for (size_t J = 0; J != Ops.size(); ++J) {
    const Op &Other = Ops[J];
    if (J == I)
      continue;
    // The owner's operations run in program order.
    if (J < I && isOwners(O.Kind) && isOwners(Other.Kind) && !Other.Done)
      return false;
    if (!Other.inFlight())
      continue;
    // Only a remote free holds the lock across steps.
    if (Other.Kind == OpKind::RemoteFree && locksNext(S, O))
      return false;
    // The owner is parked only between its operations.
    if ((O.Kind == OpKind::Return || O.Kind == OpKind::Collect) &&
        isOwners(Other.Kind))
      return false;
    // No free of a pointer whose slot is being handed out again.
    if (O.Pc == 0 && ((isTake(O.Kind) && isFree(Other.Kind)) ||
                      (isFree(O.Kind) && isTake(Other.Kind))))
      return false;
  }
  return true;
}

/// Checks a finished run.
void checkEnd(State &S, const std::vector<Op> &Ops) {
  for (const Op &O : Ops) {
    if (!isFree(O.Kind) || O.Result == Outcome::NoOp)
      continue;
    if (O.Result == Outcome::Aborted)
      violate(S, "the losing free aborted instead of reporting DoubleFree");
    int Wins = 0;
    bool Held = false;
    for (const Op &Same : Ops)
      if (isFree(Same.Kind) && Same.Result != Outcome::NoOp &&
          Same.Target == O.Target) {
        Wins += Same.Result == Outcome::Won;
        Held = Held || Same.TargetHeld;
      }
    if (Wins != (Held ? 1 : 0))
      violate(S, "a free of a held object did not have exactly one winner");
  }
  if (int(S.InitialAlloc) + S.Allocs - S.Frees - S.Swept != int(liveBit(S)))
    violate(S, "allocations minus frees do not match the bit");
  if (!S.Owned && S.Count != int(liveBit(S)))
    violate(S, "an unowned block's AllocatedCount does not match the bit");
}

struct Result {
  uint64_t Runs = 0;
  uint64_t Violations = 0;
  /// Each invariant broken, with the steps of the first run that broke
  /// it.
  std::map<std::string, std::string> Broken;

  std::string str() const {
    std::string Text;
    for (const auto &[What, Steps] : Broken)
      Text += What + " after steps:" + Steps + "\n";
    return Text;
  }
};

void explore(State S, std::vector<Op> Ops, Rules R, std::string Trace,
             Result &Out) {
  bool Any = false;
  for (size_t I = 0; I != Ops.size(); ++I) {
    if (!enabled(S, Ops, I))
      continue;
    Any = true;
    State NextS = S;
    std::vector<Op> NextOps = Ops;
    step(NextS, NextOps[I], R);
    checkStep(NextS);
    explore(NextS, NextOps, R, Trace + " " + opName(Ops[I].Kind), Out);
  }
  if (Any)
    return;
  for (const Op &O : Ops)
    if (!O.Done)
      violate(S, "no operation can run: deadlock");
  checkEnd(S, Ops);
  ++Out.Runs;
  if (S.Violations.empty())
    return;
  ++Out.Violations;
  for (const std::string &What : S.Violations)
    Out.Broken.try_emplace(What, Trace);
}

/// Every interleaving of every sequence of two or three operations,
/// from each starting state.
Result checkProtocol(Rules R) {
  std::vector<State> Starts;
  for (bool Owned : {true, false})
    for (int Slot : {0, 1, 2}) {
      // 0: free; 1: an object the client holds; 2: one it dropped.
      bool Alloc = Slot != 0;
      State S;
      S.Owned = Owned;
      S.InitialAlloc = Alloc;
      S.Count = Owned ? 0 : Alloc;
      // A free slot keeps the bytes of the object freed from it.
      claim(S);
      S.Alloc = Alloc;
      S.Held = Slot == 1;
      S.Bytes = S.Gen;
      Starts.push_back(S);
    }
  Result Out;
  std::vector<std::vector<OpKind>> Sequences;
  for (OpKind A : AllOps)
    for (OpKind B : AllOps) {
      Sequences.push_back({A, B});
      for (OpKind C : AllOps)
        Sequences.push_back({A, B, C});
    }
  for (const State &S : Starts)
    for (const std::vector<OpKind> &Seq : Sequences) {
      std::vector<Op> Ops;
      for (OpKind K : Seq)
        Ops.push_back(Op{K});
      explore(S, Ops, R, "", Out);
    }
  return Out;
}

bool broke(const Result &Out, const std::string &What) {
  return Out.Broken.count(What) != 0;
}

} // namespace

TEST(OwnedBlockProtocol, EveryInterleavingKeepsTheInvariants) {
  Result Out = checkProtocol(Rules::Current);
  EXPECT_GT(Out.Runs, 5000u);
  EXPECT_EQ(Out.Violations, 0u) << Out.str();
}

TEST(OwnedBlockProtocol, CatchesTakeThatSkipsZeroing) {
  for (Rules R :
       {Rules::OwnerTakeSkipsZeroing, Rules::LockedTakeSkipsZeroing}) {
    SCOPED_TRACE(R == Rules::OwnerTakeSkipsZeroing ? "owner" : "locked");
    Result Out = checkProtocol(R);
    EXPECT_TRUE(broke(Out, "a slot was handed out dirty")) << Out.str();
  }
}

TEST(OwnedBlockProtocol, CatchesOwnerTakeThatPublishesBeforeZeroing) {
  Result Out = checkProtocol(Rules::OwnerTakePublishesFirst);
  EXPECT_TRUE(broke(Out, "an allocated slot holds an earlier object's bytes"))
      << Out.str();
  EXPECT_FALSE(broke(Out, "a slot was handed out dirty")) << Out.str();
}

TEST(OwnedBlockProtocol, CatchesCheckoutThatSkipsTheSweep) {
  Result Out = checkProtocol(Rules::CheckoutSkipsSweep);
  EXPECT_TRUE(broke(Out, "a thread owns a pending block")) << Out.str();
  EXPECT_TRUE(
      broke(Out, "an unowned block's AllocatedCount does not match the bit"))
      << Out.str();
}

TEST(OwnedBlockProtocol, CatchesFreeThatSkipsTheSweep) {
  Result Out = checkProtocol(Rules::FreeSkipsSweep);
  EXPECT_TRUE(broke(Out, "a slot was pinned with no false reference"))
      << Out.str();
}

TEST(OwnedBlockProtocol, CatchesRemoteFreeThatWritesTheSlot) {
  Result Out = checkProtocol(Rules::RemoteFreeWritesSlot);
  EXPECT_TRUE(broke(Out,
                    "the losing free aborted instead of reporting DoubleFree"))
      << Out.str();
}
