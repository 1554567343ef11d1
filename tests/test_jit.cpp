//===----------------------------------------------------------------------===//
// Tests for the JIT backend: the natively compiled conversion routine must
// agree bit-for-bit with the reference interpreter on every paper pair.
//===----------------------------------------------------------------------===//

#include "convert/Converter.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "support/Fault.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

using namespace convgen;

// Most of this suite verifies *behavior* (bit-exactness with the
// interpreter), which holds even when CONVGEN_FAULT degrades handles to
// interpreter execution — the CI fault leg runs it unchanged. A few tests
// assert *native-path artifacts* (compile time measured, phase counters
// resolved, zero-copy adoption) that a degraded handle legitimately lacks;
// those skip when fault injection is configured.
#define SKIP_UNDER_FAULT_INJECTION()                                          \
  do {                                                                        \
    if (support::faultsConfigured())                                          \
      GTEST_SKIP() << "asserts native-path artifacts; CONVGEN_FAULT is set"; \
  } while (false)

namespace {

struct JitCase {
  const char *Src, *Dst;
};

class JitMatchesInterpreter : public ::testing::TestWithParam<JitCase> {};

} // namespace

TEST_P(JitMatchesInterpreter, OnBandedRandom) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Src = formats::standardFormatOrDie(GetParam().Src);
  formats::Format Dst = formats::standardFormatOrDie(GetParam().Dst);
  tensor::Triplets T = tensor::genBandedRandom(60, 60, 5.0, 14, 11, 99);
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);

  convert::Converter Interp(Src, Dst);
  jit::JitConversion Native(Interp.conversion());
  tensor::SparseTensor FromInterp = Interp.run(In);
  tensor::SparseTensor FromJit = Native.run(In);
  FromJit.validate();

  // Bit-for-bit storage equality, not just logical equality: the native
  // code must execute the same algorithm.
  ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size());
  for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
    EXPECT_EQ(FromInterp.Levels[K].Pos, FromJit.Levels[K].Pos) << K;
    EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd) << K;
    EXPECT_EQ(FromInterp.Levels[K].Perm, FromJit.Levels[K].Perm) << K;
    EXPECT_EQ(FromInterp.Levels[K].SizeParam, FromJit.Levels[K].SizeParam)
        << K;
  }
  EXPECT_EQ(FromInterp.Vals, FromJit.Vals);
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(FromJit), T));
}

INSTANTIATE_TEST_SUITE_P(
    PaperPairs, JitMatchesInterpreter,
    ::testing::Values(JitCase{"coo", "csr"}, JitCase{"coo", "dia"},
                      JitCase{"csr", "csc"}, JitCase{"csr", "dia"},
                      JitCase{"csr", "ell"}, JitCase{"csc", "dia"},
                      JitCase{"csc", "ell"}, JitCase{"csr", "bcsr"},
                      JitCase{"ell", "csr"}, JitCase{"dia", "csc"},
                      JitCase{"coo", "coo"}),
    [](const auto &Info) {
      return std::string(Info.param.Src) + "_to_" + Info.param.Dst;
    });

TEST(Jit3, Order3PairsMatchInterpreterBitExactly) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  const char *Names[] = {"coo3", "csf", "csf_102", "csf_021"};
  for (const char *S : Names)
    for (const char *D : Names) {
      formats::Format Src = formats::standardFormatOrDie(S);
      formats::Format Dst = formats::standardFormatOrDie(D);
      convert::Converter Interp(Src, Dst);
      jit::JitConversion Native(Interp.conversion());
      for (auto &[Name, T] : tensor::testTensors3()) {
        tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
        tensor::SparseTensor FromInterp = Interp.run(In);
        tensor::SparseTensor FromJit = Native.run(In);
        FromJit.validate();
        std::string Label = std::string(S) + " -> " + D + " on " + Name;
        ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size()) << Label;
        for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
          EXPECT_EQ(FromInterp.Levels[K].Pos, FromJit.Levels[K].Pos)
              << Label << " level " << K;
          EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd)
              << Label << " level " << K;
        }
        EXPECT_EQ(FromInterp.Vals, FromJit.Vals) << Label;
        EXPECT_TRUE(tensor::equal(tensor::toTriplets(FromJit), T)) << Label;
      }
    }
}

TEST(Jit, EmptyMatrix) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T;
  T.NumRows = 9;
  T.NumCols = 5;
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeDIA());
  jit::JitConversion Native(Conv.conversion());
  tensor::SparseTensor Out = Native.run(In);
  Out.validate();
  EXPECT_EQ(Out.Levels[0].SizeParam, 0);
  EXPECT_TRUE(Out.Vals.empty());
}

TEST(Jit, CompileTimeIsMeasured) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  convert::Converter Conv(formats::makeCSR(), formats::makeELL());
  jit::JitConversion Native(Conv.conversion());
  EXPECT_GT(Native.compileSeconds(), 0.0);
  EXPECT_LT(Native.compileSeconds(), 60.0);
}

TEST(Jit, OutputIsAdoptedNotCopied) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  // collectOutput must take ownership of the routine's malloc'd arrays:
  // the SparseTensor's storage points at the very buffers the generated
  // code yielded, and the CTensor's pointers are nulled.
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 7, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeCSR());
  jit::JitConversion Native(Conv.conversion());
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  Native.runRaw(&A, &B);
  const int32_t *YieldedPos = B.pos[2];
  const double *YieldedVals = B.vals;
  tensor::SparseTensor Out =
      jit::collectOutput(Conv.conversion().Target, In.Dims, &B);
  EXPECT_EQ(Out.Levels[1].Pos.data(), YieldedPos);
  EXPECT_EQ(Out.Vals.data(), YieldedVals);
  EXPECT_EQ(B.pos[2], nullptr);
  EXPECT_EQ(B.vals, nullptr);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T));
}

TEST(Jit, InputIsBoundByPointer) {
  // marshalInput aliases the source tensor's storage — no input copies.
  tensor::Triplets T = tensor::genDiagonals(30, 30, {0}, 1.0, 2);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  jit::CTensor A;
  jit::marshalInput(In, &A);
  EXPECT_EQ(A.pos[2], In.Levels[1].Pos.data());
  EXPECT_EQ(A.crd[2], In.Levels[1].Crd.data());
  EXPECT_EQ(A.vals, In.Vals.data());
}

TEST(Jit, PhaseSecondsAccumulate) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  tensor::Triplets T = tensor::genBandedRandom(80, 80, 6.0, 15, 3, 17);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  jit::JitConversion Native(Conv.conversion());
  ASSERT_NE(Native.phaseSeconds(), nullptr);
  std::vector<double> Before(Native.phaseSeconds(),
                             Native.phaseSeconds() + jit::kNumPhases);
  tensor::SparseTensor Out = Native.run(In);
  Out.validate();
  double Delta = 0;
  for (int P = 0; P < jit::kNumPhases; ++P) {
    EXPECT_GE(Native.phaseSeconds()[P], Before[static_cast<size_t>(P)]) << P;
    Delta += Native.phaseSeconds()[P] - Before[static_cast<size_t>(P)];
  }
  EXPECT_GT(Delta, 0.0);
}

TEST(Jit, PhaseSecondsAreReadOnTheRunningThreadAfterTheLoaderExits) {
  // A shared handle is loaded by whichever thread missed first (the
  // single-flight leader, the preload warmer), and that thread may be gone
  // before anyone reads the phase clocks. The reader must see its own
  // runs' phases.
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  tensor::Triplets T = tensor::genBandedRandom(80, 80, 6.0, 15, 3, 17);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  std::unique_ptr<jit::JitConversion> Native;
  std::thread Loader(
      [&] { Native = std::make_unique<jit::JitConversion>(Conv.conversion()); });
  Loader.join();
  ASSERT_FALSE(Native->degraded()) << Native->degradationReason();
  double Delta = 0;
  std::thread Runner([&] {
    const double *P = Native->phaseSeconds();
    ASSERT_NE(P, nullptr);
    std::vector<double> Before(P, P + jit::kNumPhases);
    Native->run(In).validate();
    for (int K = 0; K < jit::kNumPhases; ++K)
      Delta += Native->phaseSeconds()[K] - Before[static_cast<size_t>(K)];
  });
  Runner.join();
  EXPECT_GT(Delta, 0.0);
}

TEST(Jit, RawInterfaceReusesBuffers) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T = tensor::genDiagonals(50, 50, {-1, 0, 1}, 1.0, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeDIA());
  jit::JitConversion Native(Conv.conversion());
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  for (int Rep = 0; Rep < 3; ++Rep) {
    B = jit::CTensor();
    Native.runRaw(&A, &B);
    EXPECT_EQ(B.params[1], 3); // three diagonals
    jit::freeOutput(&B);
  }
}
