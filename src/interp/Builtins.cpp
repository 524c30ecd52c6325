//===- interp/Builtins.cpp - Standard builtins ----------------------------===//

#include "interp/Interpreter.h"

using namespace cgc;
using namespace cgc::interp;

namespace {

int64_t asFixnum(Interpreter &In, Value V) {
  if (!V.isFixnum()) {
    In.fail("expected a number, got " + In.toString(V));
    return 0;
  }
  return V.Fixnum;
}

Value builtinAdd(Interpreter &In, Value Args) {
  int64_t Sum = 0;
  for (Value A = Args; A.isPair(); A = Interpreter::cdr(A))
    Sum += asFixnum(In, Interpreter::car(A));
  return Value::fixnum(Sum);
}

Value builtinSub(Interpreter &In, Value Args) {
  if (!Args.isPair())
    return In.fail("- requires at least one argument");
  int64_t Result = asFixnum(In, Interpreter::car(Args));
  Value Rest = Interpreter::cdr(Args);
  if (Rest.isNil())
    return Value::fixnum(-Result); // Unary negation.
  for (Value A = Rest; A.isPair(); A = Interpreter::cdr(A))
    Result -= asFixnum(In, Interpreter::car(A));
  return Value::fixnum(Result);
}

Value builtinMul(Interpreter &In, Value Args) {
  int64_t Product = 1;
  for (Value A = Args; A.isPair(); A = Interpreter::cdr(A))
    Product *= asFixnum(In, Interpreter::car(A));
  return Value::fixnum(Product);
}

Value builtinQuotient(Interpreter &In, Value Args) {
  int64_t A = asFixnum(In, Interpreter::car(Args));
  int64_t B = asFixnum(In, Interpreter::car(Interpreter::cdr(Args)));
  if (B == 0)
    return In.fail("division by zero");
  return Value::fixnum(A / B);
}

Value builtinRemainder(Interpreter &In, Value Args) {
  int64_t A = asFixnum(In, Interpreter::car(Args));
  int64_t B = asFixnum(In, Interpreter::car(Interpreter::cdr(Args)));
  if (B == 0)
    return In.fail("division by zero");
  return Value::fixnum(A % B);
}

template <typename CmpT>
Value compareChain(Interpreter &In, Value Args, CmpT Cmp) {
  if (!Args.isPair())
    return Value::boolean(true);
  int64_t Prev = asFixnum(In, Interpreter::car(Args));
  for (Value A = Interpreter::cdr(Args); A.isPair();
       A = Interpreter::cdr(A)) {
    int64_t Next = asFixnum(In, Interpreter::car(A));
    if (!Cmp(Prev, Next))
      return Value::boolean(false);
    Prev = Next;
  }
  return Value::boolean(true);
}

Value builtinLess(Interpreter &In, Value Args) {
  return compareChain(In, Args,
                      [](int64_t A, int64_t B) { return A < B; });
}
Value builtinGreater(Interpreter &In, Value Args) {
  return compareChain(In, Args,
                      [](int64_t A, int64_t B) { return A > B; });
}
Value builtinLessEq(Interpreter &In, Value Args) {
  return compareChain(In, Args,
                      [](int64_t A, int64_t B) { return A <= B; });
}
Value builtinGreaterEq(Interpreter &In, Value Args) {
  return compareChain(In, Args,
                      [](int64_t A, int64_t B) { return A >= B; });
}
Value builtinNumEq(Interpreter &In, Value Args) {
  return compareChain(In, Args,
                      [](int64_t A, int64_t B) { return A == B; });
}

Value builtinEq(Interpreter &, Value Args) {
  Value A = Interpreter::car(Args);
  Value B = Interpreter::car(Interpreter::cdr(Args));
  bool Same = A.Kind == B.Kind;
  if (Same) {
    switch (A.Kind) {
    case Tag::Nil:
      break;
    case Tag::Fixnum:
      Same = A.Fixnum == B.Fixnum;
      break;
    case Tag::Boolean:
      Same = A.Boolean == B.Boolean;
      break;
    case Tag::Symbol:
      Same = A.Symbol == B.Symbol;
      break;
    case Tag::Pair:
    case Tag::Closure:
      Same = A.Object == B.Object;
      break;
    case Tag::Builtin:
      Same = A.Builtin == B.Builtin;
      break;
    }
  }
  return Value::boolean(Same);
}

Value builtinCons(Interpreter &In, Value Args) {
  return In.cons(Interpreter::car(Args),
                 Interpreter::car(Interpreter::cdr(Args)));
}
Value builtinCar(Interpreter &In, Value Args) {
  Value P = Interpreter::car(Args);
  if (!P.isPair())
    return In.fail("car of a non-pair");
  return Interpreter::car(P);
}
Value builtinCdr(Interpreter &In, Value Args) {
  Value P = Interpreter::car(Args);
  if (!P.isPair())
    return In.fail("cdr of a non-pair");
  return Interpreter::cdr(P);
}
Value builtinIsNull(Interpreter &, Value Args) {
  return Value::boolean(Interpreter::car(Args).isNil());
}
Value builtinIsPair(Interpreter &, Value Args) {
  return Value::boolean(Interpreter::car(Args).isPair());
}
Value builtinNot(Interpreter &, Value Args) {
  return Value::boolean(!Interpreter::car(Args).truthy());
}

Value builtinList(Interpreter &, Value Args) { return Args; }

Value builtinLength(Interpreter &In, Value Args) {
  int64_t Count = 0;
  for (Value P = Interpreter::car(Args); P.isPair();
       P = Interpreter::cdr(P))
    ++Count;
  (void)In;
  return Value::fixnum(Count);
}

Value builtinAppend(Interpreter &In, Value Args) {
  // (append a b): copy a's spine, share b.  The copy is consed in
  // reverse onto a stack-held head, never parked in malloc memory the
  // collector does not scan, so a's items stay reachable through it
  // while later conses collect; then the copy is reversed in place
  // onto b.
  Value B = Interpreter::car(Interpreter::cdr(Args));
  Value Reversed = Value::nil();
  for (Value P = Interpreter::car(Args); P.isPair(); P = Interpreter::cdr(P)) {
    Reversed = In.cons(Interpreter::car(P), Reversed);
    if (In.failed())
      return Value::nil();
  }
  Value Result = B;
  while (Reversed.isPair()) {
    Value Next = Interpreter::cdr(Reversed);
    Reversed.Object->Slots[1] = Result;
    Result = Reversed;
    Reversed = Next;
  }
  return Result;
}

} // namespace

void Interpreter::installBuiltins() {
  defineBuiltin("+", builtinAdd);
  defineBuiltin("-", builtinSub);
  defineBuiltin("*", builtinMul);
  defineBuiltin("quotient", builtinQuotient);
  defineBuiltin("remainder", builtinRemainder);
  defineBuiltin("<", builtinLess);
  defineBuiltin(">", builtinGreater);
  defineBuiltin("<=", builtinLessEq);
  defineBuiltin(">=", builtinGreaterEq);
  defineBuiltin("=", builtinNumEq);
  defineBuiltin("eq?", builtinEq);
  defineBuiltin("cons", builtinCons);
  defineBuiltin("car", builtinCar);
  defineBuiltin("cdr", builtinCdr);
  defineBuiltin("null?", builtinIsNull);
  defineBuiltin("pair?", builtinIsPair);
  defineBuiltin("not", builtinNot);
  defineBuiltin("list", builtinList);
  defineBuiltin("length", builtinLength);
  defineBuiltin("append", builtinAppend);
}
