//===- interp/Interpreter.h - A small Lisp on the collector ----*- C++ -*-===//
//
// Part of the cgc project: a reproduction of Boehm, "Space Efficient
// Conservative Garbage Collection", PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small Scheme-flavored interpreter whose entire runtime heap —
/// pairs, closures, environments — lives on a cgc::Collector, in the
/// style of the Scheme->C and ML->C systems the paper cites.  The only
/// registered root is the global environment; every interpreter
/// temporary is kept alive by conservative machine-stack scanning (or
/// by whatever roots the embedder provides).
///
/// Supported: fixnums, booleans, symbols, pairs; special forms quote,
/// if, cond, lambda, define, set!, begin, let, and, or; proper lexical
/// closures with recursion through the live global environment.
/// Errors set a flag and message rather than unwinding (the library
/// builds without exceptions).
///
//===----------------------------------------------------------------------===//

#ifndef CGC_INTERP_INTERPRETER_H
#define CGC_INTERP_INTERPRETER_H

#include "core/Collector.h"
#include "interp/Value.h"
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cgc::interp {

class Interpreter {
public:
  /// Binds the interpreter to \p GC and installs the standard builtins
  /// (+ - * quotient remainder < > <= >= = eq? cons car cdr null?
  /// pair? not list length append).
  explicit Interpreter(Collector &GC);
  ~Interpreter();

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  //===--------------------------------------------------------------===//
  // Running programs
  //===--------------------------------------------------------------===//

  /// Reads and evaluates every form in \p Program; \returns the last
  /// result (nil for an empty program or on error — check failed()).
  Value evalString(std::string_view Program);

  /// Evaluates one already-read expression in the global environment.
  Value eval(Value Expr);

  //===--------------------------------------------------------------===//
  // Reader and printer
  //===--------------------------------------------------------------===//

  /// Reads one datum from \p Text starting at \p Cursor (updated).
  /// \returns nil and sets the error flag on malformed input.
  Value read(std::string_view Text, size_t &Cursor);

  /// Renders a value as an s-expression.
  std::string toString(Value V) const;

  //===--------------------------------------------------------------===//
  // Environment and builtins
  //===--------------------------------------------------------------===//

  /// Binds \p Name to \p Bound in the global environment.
  void defineGlobal(const char *Name, Value Bound);
  void defineBuiltin(const char *Name, BuiltinFn Fn) {
    defineGlobal(Name, Value::builtin(Fn));
  }

  /// \returns the global binding of \p Name, or nil if absent.
  Value globalValue(const char *Name);

  //===--------------------------------------------------------------===//
  // Construction helpers (for builtins and embedders)
  //===--------------------------------------------------------------===//

  Value cons(Value Car, Value Cdr);
  static Value car(Value V) {
    return V.isPair() ? V.Object->Slots[0] : Value::nil();
  }
  static Value cdr(Value V) {
    return V.isPair() ? V.Object->Slots[1] : Value::nil();
  }
  Value symbol(std::string_view Name);
  const std::string &symbolName(uint64_t Index) const {
    return Symbols[Index];
  }

  /// Builds a proper list from \p Items.  An initializer list's items
  /// live in the caller's frame, which conservative stack scanning
  /// covers, so they survive the collections that consing may trigger;
  /// a std::vector's malloc buffer would not be scanned.
  Value list(std::initializer_list<Value> Items);

  //===--------------------------------------------------------------===//
  // Errors and introspection
  //===--------------------------------------------------------------===//

  bool failed() const { return Failed; }
  const std::string &errorMessage() const { return ErrorMessage; }
  void clearError() {
    Failed = false;
    ErrorMessage.clear();
  }
  /// Reports an error (used by builtins); evaluation returns nil.
  Value fail(std::string Message);

  Collector &collector() { return GC; }
  size_t symbolCount() const { return Symbols.size(); }

private:
  Value evalIn(Value Expr, Value Env);
  Value evalSequence(Value Body, Value Env);
  Value evalArgs(Value Exprs, Value Env);
  Value apply(Value Fn, Value Args);
  Value envBind(Value Env, Value Name, Value Bound);
  Value *envLookup(Value Env, uint64_t Symbol);
  Value globalEnv() const;
  Value makeClosure(Value Params, Value Body, Value Env);
  void installBuiltins();

  Collector &GC;
  /// Descriptor for Obj: each Value is {Tag word, payload word}, and
  /// only the payload words (1, 3, 5) can hold heap pointers.  The Tag
  /// words and any integer payloads are never traced, so a fixnum that
  /// happens to look like a heap address cannot retain (or blacklist)
  /// anything.
  LayoutId ObjLayout = 0;
  std::vector<std::string> Symbols;
  /// The global environment's pair pointer, registered as a root.
  uint64_t GlobalEnvRoot = 0;
  RootId GlobalRootId = 0;
  bool Failed = false;
  std::string ErrorMessage;

  // Interned special-form symbols, resolved once.
  uint64_t SymQuote, SymIf, SymLambda, SymDefine, SymBegin, SymLet,
      SymAnd, SymOr, SymCond, SymElse, SymSet;
};

} // namespace cgc::interp

#endif // CGC_INTERP_INTERPRETER_H
