//===- interp/Interpreter.cpp - A small Lisp on the collector -------------===//

#include "interp/Interpreter.h"
#include <cctype>
#include <cstdlib>

using namespace cgc;
using namespace cgc::interp;

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Interpreter::Interpreter(Collector &GC) : GC(GC) {
  static_assert(sizeof(Obj) == 6 * sizeof(uint64_t),
                "Obj layout bitmap below assumes three two-word Values");
  ObjLayout = GC.registerObjectLayout(
      {false, true, false, true, false, true}, sizeof(Obj));
  GlobalRootId = GC.addRootRange(&GlobalEnvRoot, &GlobalEnvRoot + 1,
                                 RootEncoding::Native64,
                                 RootSource::StaticData,
                                 "lisp-global-environment");
  SymQuote = symbol("quote").Symbol;
  SymIf = symbol("if").Symbol;
  SymLambda = symbol("lambda").Symbol;
  SymDefine = symbol("define").Symbol;
  SymBegin = symbol("begin").Symbol;
  SymLet = symbol("let").Symbol;
  SymAnd = symbol("and").Symbol;
  SymOr = symbol("or").Symbol;
  SymCond = symbol("cond").Symbol;
  SymElse = symbol("else").Symbol;
  SymSet = symbol("set!").Symbol;
  installBuiltins();
}

Interpreter::~Interpreter() { GC.removeRootRange(GlobalRootId); }

Value Interpreter::fail(std::string Message) {
  if (!Failed) { // Keep the first, most precise message.
    Failed = true;
    ErrorMessage = std::move(Message);
  }
  return Value::nil();
}

//===----------------------------------------------------------------------===//
// Heap constructors
//===----------------------------------------------------------------------===//

Value Interpreter::cons(Value Car, Value Cdr) {
  auto *O = static_cast<Obj *>(GC.allocateTyped(ObjLayout));
  if (!O)
    return fail("out of memory");
  O->Slots[0] = Car;
  O->Slots[1] = Cdr;
  return Value::object(Tag::Pair, O);
}

Value Interpreter::makeClosure(Value Params, Value Body, Value Env) {
  auto *O = static_cast<Obj *>(GC.allocateTyped(ObjLayout));
  if (!O)
    return fail("out of memory");
  O->Slots[0] = Params;
  O->Slots[1] = Body;
  O->Slots[2] = Env;
  return Value::object(Tag::Closure, O);
}

Value Interpreter::symbol(std::string_view Name) {
  for (uint64_t I = 0; I != Symbols.size(); ++I)
    if (Symbols[I] == Name)
      return Value::symbol(I);
  Symbols.emplace_back(Name);
  return Value::symbol(Symbols.size() - 1);
}

Value Interpreter::list(std::initializer_list<Value> Items) {
  Value Result = Value::nil();
  for (const Value *I = Items.end(); I != Items.begin();)
    Result = cons(*--I, Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Environments: association lists of (symbol . value) pairs
//===----------------------------------------------------------------------===//

Value Interpreter::envBind(Value Env, Value Name, Value Bound) {
  return cons(cons(Name, Bound), Env);
}

Value *Interpreter::envLookup(Value Env, uint64_t Symbol) {
  for (Value E = Env; E.isPair(); E = cdr(E)) {
    Value Binding = car(E);
    if (car(Binding).isSymbol() && car(Binding).Symbol == Symbol)
      return &Binding.Object->Slots[1];
  }
  return nullptr;
}

Value Interpreter::globalEnv() const {
  if (GlobalEnvRoot == 0)
    return Value::nil();
  return Value::object(Tag::Pair,
                       reinterpret_cast<Obj *>(GlobalEnvRoot));
}

void Interpreter::defineGlobal(const char *Name, Value Bound) {
  Value NewGlobal = envBind(globalEnv(), symbol(Name), Bound);
  GlobalEnvRoot = reinterpret_cast<uint64_t>(NewGlobal.Object);
}

Value Interpreter::globalValue(const char *Name) {
  Value Sym = symbol(Name);
  if (Value *Slot = envLookup(globalEnv(), Sym.Symbol))
    return *Slot;
  return Value::nil();
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

void skipSpace(std::string_view Text, size_t &Cursor) {
  while (Cursor < Text.size()) {
    char C = Text[Cursor];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Cursor;
    } else if (C == ';') {
      while (Cursor < Text.size() && Text[Cursor] != '\n')
        ++Cursor;
    } else {
      return;
    }
  }
}

bool isDelimiter(char C) {
  return std::isspace(static_cast<unsigned char>(C)) || C == '(' ||
         C == ')' || C == ';';
}

} // namespace

Value Interpreter::read(std::string_view Text, size_t &Cursor) {
  skipSpace(Text, Cursor);
  if (Cursor >= Text.size())
    return fail("unexpected end of input");
  char C = Text[Cursor];

  if (C == '\'') {
    ++Cursor;
    Value Quoted = read(Text, Cursor);
    return cons(Value::symbol(SymQuote), cons(Quoted, Value::nil()));
  }

  if (C == '(') {
    ++Cursor;
    // Items are consed onto a reversed list as they are read rather than
    // parked in malloc memory, which the collector never scans: the
    // partial list is a stack-held temporary like every other, so items
    // read so far survive collections triggered by later items.
    Value Reversed = Value::nil();
    while (true) {
      skipSpace(Text, Cursor);
      if (Cursor >= Text.size())
        return fail("unterminated list");
      if (Text[Cursor] == ')') {
        ++Cursor;
        Value Result = Value::nil();
        while (Reversed.isPair()) {
          Value Next = cdr(Reversed);
          Reversed.Object->Slots[1] = Result;
          Result = Reversed;
          Reversed = Next;
        }
        return Result;
      }
      Value Item = read(Text, Cursor);
      if (Failed)
        return Value::nil();
      Reversed = cons(Item, Reversed);
    }
  }

  if (C == ')') {
    ++Cursor;
    return fail("unexpected ')'");
  }

  // Atom.
  size_t Start = Cursor;
  while (Cursor < Text.size() && !isDelimiter(Text[Cursor]))
    ++Cursor;
  std::string_view Token = Text.substr(Start, Cursor - Start);
  if (Token == "#t")
    return Value::boolean(true);
  if (Token == "#f")
    return Value::boolean(false);
  // Fixnum?
  std::string Buffer(Token);
  char *End = nullptr;
  long long N = std::strtoll(Buffer.c_str(), &End, 10);
  if (End && *End == 0 && End != Buffer.c_str())
    return Value::fixnum(N);
  return symbol(Token);
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

std::string Interpreter::toString(Value V) const {
  switch (V.Kind) {
  case Tag::Nil:
    return "()";
  case Tag::Fixnum:
    return std::to_string(V.Fixnum);
  case Tag::Boolean:
    return V.Boolean ? "#t" : "#f";
  case Tag::Symbol:
    return Symbols[V.Symbol];
  case Tag::Closure:
    return "#<closure>";
  case Tag::Builtin:
    return "#<builtin>";
  case Tag::Pair: {
    std::string Text = "(";
    Value P = V;
    bool First = true;
    while (P.isPair()) {
      if (!First)
        Text += ' ';
      First = false;
      Text += toString(car(P));
      P = cdr(P);
    }
    if (!P.isNil()) {
      Text += " . ";
      Text += toString(P);
    }
    Text += ')';
    return Text;
  }
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

Value Interpreter::evalString(std::string_view Program) {
  size_t Cursor = 0;
  Value Result = Value::nil();
  while (!Failed) {
    skipSpace(Program, Cursor);
    if (Cursor >= Program.size())
      break;
    Value Expr = read(Program, Cursor);
    if (Failed)
      break;
    Result = eval(Expr);
  }
  return Failed ? Value::nil() : Result;
}

Value Interpreter::eval(Value Expr) { return evalIn(Expr, globalEnv()); }

Value Interpreter::evalSequence(Value Body, Value Env) {
  Value Result = Value::nil();
  for (Value B = Body; B.isPair() && !Failed; B = cdr(B))
    Result = evalIn(car(B), Env);
  return Result;
}

Value Interpreter::evalArgs(Value Exprs, Value Env) {
  if (!Exprs.isPair() || Failed)
    return Value::nil();
  Value Head = evalIn(car(Exprs), Env);
  return cons(Head, evalArgs(cdr(Exprs), Env));
}

Value Interpreter::apply(Value Fn, Value Args) {
  if (Fn.Kind == Tag::Builtin)
    return Fn.Builtin(*this, Args);
  if (Fn.Kind != Tag::Closure)
    return fail("application of a non-function");
  Value Params = Fn.Object->Slots[0];
  Value Body = Fn.Object->Slots[1];
  Value Env = Fn.Object->Slots[2];
  for (; Params.isPair(); Params = cdr(Params), Args = cdr(Args)) {
    if (!Args.isPair())
      return fail("too few arguments to closure");
    Env = envBind(Env, car(Params), car(Args));
  }
  return evalSequence(Body, Env);
}

Value Interpreter::evalIn(Value Expr, Value Env) {
  if (Failed)
    return Value::nil();
  switch (Expr.Kind) {
  case Tag::Nil:
  case Tag::Fixnum:
  case Tag::Boolean:
  case Tag::Closure:
  case Tag::Builtin:
    return Expr;
  case Tag::Symbol: {
    if (Value *Slot = envLookup(Env, Expr.Symbol))
      return *Slot;
    // Fall back to the live global environment so recursive and
    // forward-referenced top-level definitions resolve.
    if (Value *Slot = envLookup(globalEnv(), Expr.Symbol))
      return *Slot;
    return fail("unbound symbol '" + Symbols[Expr.Symbol] + "'");
  }
  case Tag::Pair:
    break;
  }

  Value Head = car(Expr);
  if (Head.isSymbol()) {
    uint64_t S = Head.Symbol;
    if (S == SymQuote)
      return car(cdr(Expr));
    if (S == SymIf) {
      Value Test = evalIn(car(cdr(Expr)), Env);
      if (Failed)
        return Value::nil();
      return Test.truthy() ? evalIn(car(cdr(cdr(Expr))), Env)
                           : evalIn(car(cdr(cdr(cdr(Expr)))), Env);
    }
    if (S == SymLambda)
      return makeClosure(car(cdr(Expr)), cdr(cdr(Expr)), Env);
    if (S == SymDefine) {
      Value Name = car(cdr(Expr));
      if (!Name.isSymbol())
        return fail("define requires a symbol name");
      Value Bound = evalIn(car(cdr(cdr(Expr))), Env);
      if (Failed)
        return Value::nil();
      Value NewGlobal = envBind(globalEnv(), Name, Bound);
      GlobalEnvRoot = reinterpret_cast<uint64_t>(NewGlobal.Object);
      return Bound;
    }
    if (S == SymBegin)
      return evalSequence(cdr(Expr), Env);
    if (S == SymLet) {
      // (let ((name expr)...) body...)
      Value NewEnv = Env;
      for (Value B = car(cdr(Expr)); B.isPair() && !Failed; B = cdr(B)) {
        Value Binding = car(B);
        Value Bound = evalIn(car(cdr(Binding)), Env);
        NewEnv = envBind(NewEnv, car(Binding), Bound);
      }
      return evalSequence(cdr(cdr(Expr)), NewEnv);
    }
    if (S == SymAnd) {
      Value Result = Value::boolean(true);
      for (Value B = cdr(Expr); B.isPair() && !Failed; B = cdr(B)) {
        Result = evalIn(car(B), Env);
        if (!Result.truthy())
          return Result;
      }
      return Result;
    }
    if (S == SymOr) {
      Value Result = Value::boolean(false);
      for (Value B = cdr(Expr); B.isPair() && !Failed; B = cdr(B)) {
        Result = evalIn(car(B), Env);
        if (Result.truthy())
          return Result;
      }
      return Result;
    }
    if (S == SymCond) {
      // (cond (test body...)... (else body...))
      for (Value C = cdr(Expr); C.isPair() && !Failed; C = cdr(C)) {
        Value Clause = car(C);
        Value Test = car(Clause);
        bool IsElse = Test.isSymbol() && Test.Symbol == SymElse;
        if (IsElse || evalIn(Test, Env).truthy())
          return evalSequence(cdr(Clause), Env);
      }
      return Value::nil();
    }
    if (S == SymSet) {
      Value Name = car(cdr(Expr));
      if (!Name.isSymbol())
        return fail("set! requires a symbol name");
      Value Bound = evalIn(car(cdr(cdr(Expr))), Env);
      if (Failed)
        return Value::nil();
      // Mutate the nearest binding: lexical first, then global.
      if (Value *Slot = envLookup(Env, Name.Symbol)) {
        *Slot = Bound;
        return Bound;
      }
      if (Value *Slot = envLookup(globalEnv(), Name.Symbol)) {
        *Slot = Bound;
        return Bound;
      }
      return fail("set! of unbound symbol '" + Symbols[Name.Symbol] +
                  "'");
    }
  }

  Value Fn = evalIn(Head, Env);
  if (Failed)
    return Value::nil();
  Value Args = evalArgs(cdr(Expr), Env);
  if (Failed)
    return Value::nil();
  return apply(Fn, Args);
}
