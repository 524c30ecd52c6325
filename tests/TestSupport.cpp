//===- tests/TestSupport.cpp - Support library unit tests -----------------===//

#include "support/BitVector.h"
#include "support/MathExtras.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include <gtest/gtest.h>

using namespace cgc;

//===----------------------------------------------------------------------===//
// MathExtras
//===----------------------------------------------------------------------===//

TEST(MathExtras, PowerOfTwo) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ULL << 40));
  EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(MathExtras, AlignTo) {
  EXPECT_EQ(alignTo(0, 8), 0u);
  EXPECT_EQ(alignTo(1, 8), 8u);
  EXPECT_EQ(alignTo(8, 8), 8u);
  EXPECT_EQ(alignTo(9, 8), 16u);
  EXPECT_EQ(alignDown(9, 8), 8u);
  EXPECT_TRUE(isAligned(4096, 4096));
  EXPECT_FALSE(isAligned(4097, 4096));
}

TEST(MathExtras, TrailingZerosAndLog2) {
  EXPECT_EQ(countTrailingZeros(0), 64u);
  EXPECT_EQ(countTrailingZeros(1), 0u);
  EXPECT_EQ(countTrailingZeros(0x90000000ULL), 28u);
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(4095), 11u);
  EXPECT_EQ(log2Ceil(4096), 12u);
  EXPECT_EQ(log2Ceil(4097), 13u);
}

TEST(MathExtras, DivideCeilAndSaturatingSub) {
  EXPECT_EQ(divideCeil(0, 8), 0u);
  EXPECT_EQ(divideCeil(1, 8), 1u);
  EXPECT_EQ(divideCeil(16, 8), 2u);
  EXPECT_EQ(divideCeil(17, 8), 3u);
  EXPECT_EQ(saturatingSub(5, 3), 2u);
  EXPECT_EQ(saturatingSub(3, 5), 0u);
}

//===----------------------------------------------------------------------===//
// BitVector
//===----------------------------------------------------------------------===//

TEST(BitVector, BasicSetTestReset) {
  BitVector Bits(130);
  EXPECT_EQ(Bits.size(), 130u);
  EXPECT_EQ(Bits.count(), 0u);
  Bits.set(0);
  Bits.set(64);
  Bits.set(129);
  EXPECT_TRUE(Bits.test(0));
  EXPECT_TRUE(Bits.test(64));
  EXPECT_TRUE(Bits.test(129));
  EXPECT_FALSE(Bits.test(1));
  EXPECT_EQ(Bits.count(), 3u);
  Bits.reset(64);
  EXPECT_FALSE(Bits.test(64));
  EXPECT_EQ(Bits.count(), 2u);
}

TEST(BitVector, TestAndSet) {
  BitVector Bits(10);
  EXPECT_FALSE(Bits.testAndSet(3));
  EXPECT_TRUE(Bits.testAndSet(3));
  EXPECT_TRUE(Bits.test(3));
}

TEST(BitVector, FindFirstSetAndUnset) {
  BitVector Bits(200);
  EXPECT_EQ(Bits.findFirstSet(), BitVector::Npos);
  EXPECT_EQ(Bits.findFirstUnset(), 0u);
  Bits.set(77);
  Bits.set(190);
  EXPECT_EQ(Bits.findFirstSet(), 77u);
  EXPECT_EQ(Bits.findFirstSet(78), 190u);
  EXPECT_EQ(Bits.findFirstSet(191), BitVector::Npos);
  // A limit excludes its own bit, inside a word and at a word edge.
  EXPECT_EQ(Bits.findFirstSet(0, 77), BitVector::Npos);
  EXPECT_EQ(Bits.findFirstSet(0, 78), 77u);
  EXPECT_EQ(Bits.findFirstSet(78, 128), BitVector::Npos);
  EXPECT_EQ(Bits.findFirstSet(78, 191), 190u);
  EXPECT_EQ(Bits.findFirstSet(78, 1000), 190u);
  EXPECT_EQ(Bits.findFirstSet(77, 77), BitVector::Npos);
  EXPECT_FALSE(Bits.anyInRange(78, 190));
  EXPECT_TRUE(Bits.anyInRange(78, 191));
  Bits.setAll();
  EXPECT_EQ(Bits.findFirstUnset(), BitVector::Npos);
  Bits.reset(130);
  EXPECT_EQ(Bits.findFirstUnset(), 130u);
  EXPECT_EQ(Bits.findFirstUnset(131), BitVector::Npos);
  EXPECT_EQ(Bits.findFirstUnset(0, 130), BitVector::Npos);
  EXPECT_EQ(Bits.findFirstUnset(64, 131), 130u);
  EXPECT_EQ(Bits.findFirstUnset(131, 200), BitVector::Npos);
}

TEST(BitVector, RangeOperations) {
  BitVector Bits(300);
  Bits.setRange(10, 90);
  EXPECT_EQ(Bits.count(), 80u);
  EXPECT_TRUE(Bits.test(10));
  EXPECT_TRUE(Bits.test(89));
  EXPECT_FALSE(Bits.test(9));
  EXPECT_FALSE(Bits.test(90));
  EXPECT_TRUE(Bits.anyInRange(0, 11));
  EXPECT_FALSE(Bits.anyInRange(0, 10));
  EXPECT_FALSE(Bits.anyInRange(90, 300));
  EXPECT_EQ(Bits.countInRange(10, 90), 80u);
  EXPECT_EQ(Bits.countInRange(0, 300), 80u);
  EXPECT_EQ(Bits.countInRange(50, 60), 10u);
  Bits.resetRange(20, 80);
  EXPECT_EQ(Bits.count(), 20u);
}

TEST(BitVector, ResizeKeepsContent) {
  BitVector Bits(64);
  Bits.set(63);
  Bits.resize(128);
  EXPECT_TRUE(Bits.test(63));
  EXPECT_FALSE(Bits.test(64));
  Bits.resize(70, /*Value=*/true);
  EXPECT_TRUE(Bits.test(63));
  // Growing with Value=true fills new bits.
  BitVector Small(10);
  Small.resize(20, true);
  EXPECT_FALSE(Small.test(9));
  EXPECT_TRUE(Small.test(10));
  EXPECT_TRUE(Small.test(19));
  EXPECT_EQ(Small.count(), 10u);
}

TEST(BitVector, LogicalOps) {
  BitVector A(100), B(100);
  A.setRange(0, 50);
  B.setRange(25, 75);
  BitVector AandB = A;
  AandB.andWith(B);
  EXPECT_EQ(AandB.count(), 25u);
  EXPECT_TRUE(AandB.test(25));
  EXPECT_TRUE(AandB.test(49));
  EXPECT_FALSE(AandB.test(50));
  BitVector AorB = A;
  AorB.orWith(B);
  EXPECT_EQ(AorB.count(), 75u);
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(Random, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next64(), B.next64());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next64() == B.next64();
  EXPECT_LT(Same, 2);
}

TEST(Random, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I != 10000; ++I) {
    uint64_t V = R.nextBelow(37);
    EXPECT_LT(V, 37u);
  }
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.nextInRange(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

TEST(Random, NextBelowCoversRange) {
  Rng R(11);
  bool Seen[8] = {};
  for (int I = 0; I != 1000; ++I)
    Seen[R.nextBelow(8)] = true;
  for (bool S : Seen)
    EXPECT_TRUE(S);
}

TEST(Random, BoolProbability) {
  Rng R(3);
  int True30 = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    True30 += R.nextBool(0.3);
  double Fraction = double(True30) / N;
  EXPECT_NEAR(Fraction, 0.3, 0.02);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(Random, Shuffle) {
  Rng R(9);
  std::vector<int> V{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::vector<int> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted, Orig);
  EXPECT_NE(V, Orig); // Astronomically unlikely to match.
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(Statistics, RunningStatBasics) {
  RunningStat S;
  EXPECT_EQ(S.sampleCount(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  S.addSample(2.0);
  S.addSample(4.0);
  S.addSample(6.0);
  EXPECT_EQ(S.sampleCount(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.minimum(), 2.0);
  EXPECT_DOUBLE_EQ(S.maximum(), 6.0);
  EXPECT_NEAR(S.stddev(), 2.0, 1e-12);
}

TEST(Statistics, RunningStatMerge) {
  RunningStat A, B, All;
  for (double V : {1.0, 2.0, 3.0}) {
    A.addSample(V);
    All.addSample(V);
  }
  for (double V : {10.0, 20.0}) {
    B.addSample(V);
    All.addSample(V);
  }
  A.merge(B);
  EXPECT_EQ(A.sampleCount(), All.sampleCount());
  EXPECT_NEAR(A.mean(), All.mean(), 1e-12);
  EXPECT_NEAR(A.stddev(), All.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(A.minimum(), 1.0);
  EXPECT_DOUBLE_EQ(A.maximum(), 20.0);
}

TEST(Statistics, Log2Histogram) {
  Log2Histogram H;
  H.addSample(0);
  H.addSample(1);
  H.addSample(2);
  H.addSample(3);
  H.addSample(1024);
  EXPECT_EQ(H.totalSamples(), 5u);
  EXPECT_EQ(H.bucketValue(0), 2u); // 0 and 1
  EXPECT_EQ(H.bucketValue(1), 2u); // 2 and 3
  EXPECT_EQ(H.bucketValue(10), 1u);
}

TEST(Statistics, TableFormatting) {
  EXPECT_EQ(TablePrinter::percent(0.125), "12.5%");
  EXPECT_EQ(TablePrinter::percent(0.13, 0), "13%");
  EXPECT_EQ(TablePrinter::bytes(512), "512 B");
  EXPECT_EQ(TablePrinter::bytes(2048), "2.0 KiB");
  EXPECT_EQ(TablePrinter::bytes(3 << 20), "3.0 MiB");
}
