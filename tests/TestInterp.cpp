//===- tests/TestInterp.cpp - Lisp interpreter tests ----------------------===//

#include "interp/Interpreter.h"
#include <gtest/gtest.h>

using namespace cgc;
using namespace cgc::interp;

namespace {

GcConfig interpConfig() {
  GcConfig Config;
  Config.MaxHeapBytes = 64 << 20;
  Config.MinHeapBytesBeforeGc = 1 << 20; // Let collections happen.
  return Config;
}

struct InterpTest : ::testing::Test {
  InterpTest() : GC(interpConfig()), In(GC) {
    GC.enableMachineStackScanning();
  }

  /// Evaluates and renders the last result.
  std::string run(const char *Program) {
    In.clearError();
    Value Result = In.evalString(Program);
    if (In.failed())
      return "ERROR: " + In.errorMessage();
    return In.toString(Result);
  }

  Collector GC;
  Interpreter In;
};

} // namespace

TEST_F(InterpTest, SelfEvaluating) {
  EXPECT_EQ(run("42"), "42");
  EXPECT_EQ(run("-17"), "-17");
  EXPECT_EQ(run("#t"), "#t");
  EXPECT_EQ(run("#f"), "#f");
}

TEST_F(InterpTest, ReaderShapes) {
  EXPECT_EQ(run("'(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("'()"), "()");
  EXPECT_EQ(run("'(a (b c) d)"), "(a (b c) d)");
  EXPECT_EQ(run("'(1 . 2)"), "(1 . 2)") << "dotted read via symbol";
  EXPECT_EQ(run("; comment\n 7"), "7");
}

TEST_F(InterpTest, Arithmetic) {
  EXPECT_EQ(run("(+ 1 2 3 4)"), "10");
  EXPECT_EQ(run("(- 10 3 2)"), "5");
  EXPECT_EQ(run("(- 5)"), "-5");
  EXPECT_EQ(run("(* 2 3 7)"), "42");
  EXPECT_EQ(run("(quotient 17 5)"), "3");
  EXPECT_EQ(run("(remainder 17 5)"), "2");
  EXPECT_EQ(run("(< 1 2 3)"), "#t");
  EXPECT_EQ(run("(< 1 3 2)"), "#f");
  EXPECT_EQ(run("(>= 3 3 2)"), "#t");
  EXPECT_EQ(run("(= 4 4)"), "#t");
}

TEST_F(InterpTest, ListPrimitives) {
  EXPECT_EQ(run("(cons 1 '(2 3))"), "(1 2 3)");
  EXPECT_EQ(run("(car '(a b))"), "a");
  EXPECT_EQ(run("(cdr '(a b))"), "(b)");
  EXPECT_EQ(run("(null? '())"), "#t");
  EXPECT_EQ(run("(null? '(1))"), "#f");
  EXPECT_EQ(run("(pair? '(1))"), "#t");
  EXPECT_EQ(run("(length '(a b c d))"), "4");
  EXPECT_EQ(run("(append '(1 2) '(3 4))"), "(1 2 3 4)");
  EXPECT_EQ(run("(list 1 (+ 1 1) 3)"), "(1 2 3)");
}

TEST_F(InterpTest, SpecialForms) {
  EXPECT_EQ(run("(if #t 1 2)"), "1");
  EXPECT_EQ(run("(if #f 1 2)"), "2");
  EXPECT_EQ(run("(if 0 1 2)"), "1") << "only #f is false";
  EXPECT_EQ(run("(begin 1 2 3)"), "3");
  EXPECT_EQ(run("(let ((x 3) (y 4)) (+ x y))"), "7");
  EXPECT_EQ(run("(and 1 2 3)"), "3");
  EXPECT_EQ(run("(and 1 #f 3)"), "#f");
  EXPECT_EQ(run("(quote (+ 1 2))"), "(+ 1 2)");
}

TEST_F(InterpTest, CondOrAndSet) {
  EXPECT_EQ(run("(cond (#f 1) (#t 2) (else 3))"), "2");
  EXPECT_EQ(run("(cond (#f 1) (else 3))"), "3");
  EXPECT_EQ(run("(cond (#f 1))"), "()");
  EXPECT_EQ(run("(define sign (lambda (n)"
                "  (cond ((< n 0) -1) ((= n 0) 0) (else 1))))"
                "(list (sign -5) (sign 0) (sign 9))"),
            "(-1 0 1)");
  EXPECT_EQ(run("(or #f #f 7)"), "7");
  EXPECT_EQ(run("(or #f #f)"), "#f");
  EXPECT_EQ(run("(define counter 0)"
                "(set! counter (+ counter 1))"
                "(set! counter (+ counter 1))"
                "counter"),
            "2");
  // set! mutates the captured lexical binding, not a copy: the classic
  // closure-counter test.
  EXPECT_EQ(run("(define make-counter (lambda ()"
                "  (let ((n 0))"
                "    (lambda () (set! n (+ n 1)) n))))"
                "(define c (make-counter))"
                "(c) (c) (c)"),
            "3");
  EXPECT_EQ(run("(set! nosuch 1)"),
            "ERROR: set! of unbound symbol 'nosuch'");
}

TEST_F(InterpTest, ClosuresAndLexicalCapture) {
  EXPECT_EQ(run("(define make-adder (lambda (n) (lambda (x) (+ x n))))"
                "(define add5 (make-adder 5))"
                "(add5 37)"),
            "42");
  // Shadowing: inner binding wins; outer unharmed.
  EXPECT_EQ(run("(define x 1)"
                "(let ((x 10)) (+ x 1))"),
            "11");
  EXPECT_EQ(run("x"), "1");
}

TEST_F(InterpTest, RecursionAndMutualRecursion) {
  EXPECT_EQ(run("(define fact (lambda (n)"
                "  (if (= n 0) 1 (* n (fact (- n 1))))))"
                "(fact 12)"),
            "479001600");
  EXPECT_EQ(run("(define even? (lambda (n)"
                "  (if (= n 0) #t (odd? (- n 1)))))"
                "(define odd? (lambda (n)"
                "  (if (= n 0) #f (even? (- n 1)))))"
                "(even? 100)"),
            "#t");
}

TEST_F(InterpTest, HigherOrderPrograms) {
  EXPECT_EQ(run("(define map (lambda (f xs)"
                "  (if (null? xs) '()"
                "      (cons (f (car xs)) (map f (cdr xs))))))"
                "(map (lambda (x) (* x x)) '(1 2 3 4 5))"),
            "(1 4 9 16 25)");
  EXPECT_EQ(run("(define foldl (lambda (f acc xs)"
                "  (if (null? xs) acc"
                "      (foldl f (f acc (car xs)) (cdr xs)))))"
                "(foldl + 0 '(1 2 3 4 5 6 7 8 9 10))"),
            "55");
}

TEST_F(InterpTest, ErrorsReported) {
  EXPECT_EQ(run("nosuchthing"), "ERROR: unbound symbol 'nosuchthing'");
  EXPECT_EQ(run("(1 2 3)"), "ERROR: application of a non-function");
  EXPECT_EQ(run("(car 5)"), "ERROR: car of a non-pair");
  EXPECT_EQ(run("(quotient 1 0)"), "ERROR: division by zero");
  EXPECT_EQ(run("(+ 1 'a)"), "ERROR: expected a number, got a");
  EXPECT_EQ(run("(foo"), "ERROR: unterminated list");
  // The interpreter recovers after clearError (run() clears).
  EXPECT_EQ(run("(+ 1 2)"), "3");
}

TEST_F(InterpTest, SymbolsInterned) {
  size_t Before = In.symbolCount();
  run("'(alpha alpha alpha beta)");
  size_t After = In.symbolCount();
  EXPECT_EQ(After - Before, 2u) << "alpha and beta interned once each";
}

TEST_F(InterpTest, GarbageHeavyProgramStaysBounded) {
  // Builds and drops a 100-element list 3000 times (~300k pairs); the
  // heap must stay bounded because conservative stack scanning is the
  // only thing keeping temporaries alive.
  std::string Result = run(
      "(define iota (lambda (n)"
      "  (if (= n 0) '() (cons n (iota (- n 1))))))"
      "(define churn (lambda (k acc)"
      "  (if (= k 0) acc (churn (- k 1) (+ acc (length (iota 100)))))))"
      "(churn 3000 0)");
  EXPECT_EQ(Result, "300000");
  EXPECT_GE(GC.lifetimeStats().Collections, 5u)
      << "collections must have happened under the churn";
  EXPECT_LT(GC.committedHeapBytes(), uint64_t(16) << 20)
      << "heap must stay bounded";
}

TEST_F(InterpTest, DefinitionsSurviveCollection) {
  run("(define keep (lambda (x) (* x 3)))");
  GC.collect("between-programs");
  EXPECT_EQ(run("(keep 14)"), "42")
      << "global environment is rooted; closures survive";
}

TEST_F(InterpTest, EmbedderApi) {
  In.defineGlobal("answer", Value::fixnum(42));
  EXPECT_EQ(run("(+ answer 0)"), "42");
  EXPECT_EQ(In.globalValue("answer").Fixnum, 42);
  In.defineBuiltin("twice", [](Interpreter &I, Value Args) {
    (void)I;
    return Value::fixnum(Interpreter::car(Args).Fixnum * 2);
  });
  EXPECT_EQ(run("(twice 21)"), "42");
  // list() helper.
  Value L = In.list({Value::fixnum(1), Value::fixnum(2)});
  EXPECT_EQ(In.toString(L), "(1 2)");
}

TEST(InterpOom, ExhaustedHeapReportsOutOfMemoryError) {
  // A deliberately tiny arena: a program that conses without dropping
  // references must climb the whole allocation ladder and then fail
  // with the interpreter's error protocol — never abort the process.
  GcConfig Config;
  Config.MaxHeapBytes = 256 << 10;
  Config.MinHeapBytesBeforeGc = 16 << 10;
  Collector GC(Config);
  Interpreter In(GC);
  GC.enableMachineStackScanning();

  In.clearError();
  Value Result = In.evalString(
      "(define grow (lambda (n acc)"
      "  (if (= n 0) acc (grow (- n 1) (cons n acc)))))"
      "(define hold (grow 100000 '()))"
      "(length hold)");
  (void)Result;
  ASSERT_TRUE(In.failed()) << "the rooted list cannot fit in 256 KiB";
  EXPECT_EQ(In.errorMessage(), "out of memory");
  EXPECT_GE(GC.resilienceStats().OomEvents, 1u);

  // The interpreter (and collector) remain usable after the failure.
  In.clearError();
  Value Ok = In.evalString("(+ 1 2)");
  EXPECT_FALSE(In.failed());
  EXPECT_EQ(In.toString(Ok), "3");
}

TEST(InterpTemporaries, AppendKeepsItemsAliveWhileCopying) {
  // append copies its first list, a fresh temporary nothing else
  // references, and the copy conses enough to trigger collections
  // part-way through.  Every item must survive them: the copied items
  // may be reachable only from the half-built copy, never from malloc
  // memory the collector does not scan.  A collected item's slot is
  // reused by a later pair of the same size, so ordered? then sees a
  // wrong car.  Stack clearing wipes the dead frames that could
  // otherwise keep the original list alive by accident.
  GcConfig Config;
  Config.MaxHeapBytes = 64 << 20;
  Config.MinHeapBytesBeforeGc = 16 << 10; // Collect every few KiB.
  Config.StackClearing = StackClearMode::Cheap;
  Collector GC(Config);
  Interpreter In(GC);
  GC.enableMachineStackScanning();

  In.clearError();
  Value Defined = In.evalString(
      "(define pairs (lambda (n acc)"
      "  (if (= n 0) acc (pairs (- n 1) (cons (cons n n) acc)))))"
      "(define ordered? (lambda (l i)"
      "  (if (null? l) #t"
      "      (if (= (car (car l)) i)"
      "          (if (= (cdr (car l)) i) (ordered? (cdr l) (+ i 1)) #f)"
      "          #f))))"
      "(define check (lambda (k n)"
      "  (if (= k 0) #t"
      "      (if (ordered? (append (pairs n '()) (list (cons (+ n 1) (+ n 1))))"
      "                    1)"
      "          (check (- k 1) n)"
      "          #f))))");
  (void)Defined;
  ASSERT_FALSE(In.failed()) << In.errorMessage();
  for (const char *Round : {"(check 10 2000)", "(check 5 8000)",
                            "(check 3 16000)"}) {
    uint64_t Before = GC.lifetimeStats().Collections;
    In.clearError();
    Value Result = In.evalString(Round);
    ASSERT_FALSE(In.failed()) << Round << ": " << In.errorMessage();
    EXPECT_EQ(In.toString(Result), "#t") << Round;
    EXPECT_GE(GC.lifetimeStats().Collections - Before, 4u)
        << Round << ": the trigger must collect during the appends";
  }
}
