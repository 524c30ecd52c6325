//===- tests/TestOwnedBlockProtocol.cpp - Exhaustive slot protocol check --===//
//
// The owned-block protocol (heap/ThreadCache.h, ObjectHeap's checkout,
// takeSlot, returnBlock and deallocateExplicit), checked the way
// Hawblitzel and Petrank check a collector against its invariants
// ("Automated Verification of Practical Garbage Collectors"), scaled
// down to an exhaustive enumeration with no solver.
//
// The model is one slot of one block: its AllocWords bit, which
// object's bytes it holds, the block's Owned flag, and the ledger.  Each
// actor's operation is a list of atomic steps, written as one step
// function.  No free and no sweep writes the slot; both takes zero it
// before its bit is set.  The test runs every interleaving of every
// sequence of two or three operations from four starting states (a
// free slot starts dirty) and checks, on each:
//
//   * a contested free has exactly one winner, and every other free of
//     the same object reports DoubleFree (none aborts);
//   * no slot is zeroed while it holds an object, except by a free of
//     that object;
//   * no slot is handed out dirty;
//   * the counts balance: allocations minus frees is the bit, and a
//     block no thread owns has the bit's AllocatedCount;
//
// and, after every step, that an allocated slot never holds an earlier
// object's bytes: the marker scans allocated slots only, so this is
// what keeps a dead object's bytes from retaining anything.
//
// Rule sets that break the protocol run through the same checker and
// must each be caught: a take that skips its zeroing, an owner take
// that sets its bit before zeroing, and a remote free that wrote the
// slot and then CHECKed the bit (it aborted when the owner won the
// race).
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
};

enum class OpKind {
  OwnerTake,  // Lock-free: zero the slot, set the bit, hand it out.
  OwnerFree,  // Lock-free: test the bit, then clear it.
  RemoteFree, // Locked: classify, then clear the bit of an owned block.
  Return,     // Locked, owner parked: end ownership.
  Sweep,      // Locked, owner parked: skips owned blocks.
  LockedTake, // Locked: zero and take a slot of a listed block.
};
constexpr OpKind AllOps[] = {OpKind::OwnerTake, OpKind::OwnerFree,
                             OpKind::RemoteFree, OpKind::Return,
                             OpKind::Sweep,      OpKind::LockedTake};

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
  case OpKind::Sweep:
    return "sweep";
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
  return K == OpKind::OwnerTake || K == OpKind::OwnerFree;
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
void lockedFree(State &S, Op &O) {
  if (!S.Alloc)
    return finish(O, Outcome::DoubleFree);
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
  auto Begin = [&] {
    O.Target = S.Gen;
    O.TargetHeld = S.Held;
  };
  switch (O.Kind) {
  case OpKind::OwnerTake:
    if (O.Pc == 0) {
      // Not owned: the owner's lane has no block, and a refill is
      // outside this model.  Bit set: the block is dry.
      if (!S.Owned || S.Alloc)
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
      Begin();
      if (!S.Owned)
        return lockedFree(S, O); // release() fails over to the lock.
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
      Begin();
      if (!S.Alloc) // classifyExplicitFree: NotAllocated.
        return finish(O, Outcome::DoubleFree);
      if (!S.Owned)
        return lockedFree(S, O);
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
  case OpKind::Sweep:
    // An allocated slot no client holds is unmarked garbage.
    if (!S.Owned && S.Alloc && !S.Held) {
      S.Alloc = false;
      --S.Count;
      ++S.Swept;
    }
    return finish(O, Outcome::NoOp);
  case OpKind::LockedTake:
    if (!S.Owned && !S.Alloc) {
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

/// The invariant checked after every step.
void checkStep(State &S) {
  if (S.Alloc && S.Bytes != 0 && S.Bytes != S.Gen)
    violate(S, "an allocated slot holds an earlier object's bytes");
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
    if ((O.Kind == OpKind::Return || O.Kind == OpKind::Sweep) &&
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
    if (!isFree(O.Kind))
      continue;
    if (O.Result == Outcome::Aborted)
      violate(S, "the losing free aborted instead of reporting DoubleFree");
    int Wins = 0;
    bool Held = false;
    for (const Op &Same : Ops)
      if (isFree(Same.Kind) && Same.Target == O.Target) {
        Wins += Same.Result == Outcome::Won;
        Held = Held || Same.TargetHeld;
      }
    if (Wins != (Held ? 1 : 0))
      violate(S, "a free of a held object did not have exactly one winner");
  }
  if (int(S.InitialAlloc) + S.Allocs - S.Frees - S.Swept != int(S.Alloc))
    violate(S, "allocations minus frees do not match the bit");
  if (!S.Owned && S.Count != int(S.Alloc))
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
    for (bool Alloc : {true, false}) {
      State S;
      S.Owned = Owned;
      S.InitialAlloc = Alloc;
      S.Count = Owned ? 0 : Alloc;
      // A free slot keeps the bytes of the object freed from it.
      claim(S);
      S.Alloc = Alloc;
      S.Held = Alloc;
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

TEST(OwnedBlockProtocol, CatchesRemoteFreeThatWritesTheSlot) {
  Result Out = checkProtocol(Rules::RemoteFreeWritesSlot);
  EXPECT_TRUE(broke(Out,
                    "the losing free aborted instead of reporting DoubleFree"))
      << Out.str();
}
