//===----------------------------------------------------------------------===//
// Unit tests for the conversion path planner (src/planner/): analytic
// cost-model monotonicity, engagement rules and knob overrides, the
// measured-outcome auto-tuning flip, chain legality (the
// information-preservation and order-requirement predicates), and a
// randomized bit-compare of every enumerated candidate against the
// forced-direct default.
//===----------------------------------------------------------------------===//

#include "planner/Planner.h"

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "support/StringUtils.h"
#include "tensor/Oracle.h"
#include "tensor/Triplets.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;
using convgen::testing::ScopedEnv;

namespace {

planner::InputStats statsFor(int64_t Nnz, std::vector<int64_t> Dims) {
  planner::InputStats S;
  S.Nnz = Nnz;
  S.Dims = std::move(Dims);
  return S;
}

/// A fixed-seed random tensor in \p Src with ~\p MaxNnz distinct entries.
tensor::SparseTensor randomTensor(const formats::Format &Src,
                                  const std::vector<int64_t> &Dims,
                                  int MaxNnz, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  tensor::Triplets T;
  T.setDims(Dims);
  std::set<std::vector<int64_t>> Seen;
  for (int E = 0; E < MaxNnz; ++E) {
    std::vector<int64_t> Coord;
    for (int64_t D : Dims)
      Coord.push_back(static_cast<int64_t>(Rng() % static_cast<uint64_t>(D)));
    if (!Seen.insert(Coord).second)
      continue;
    T.Entries.push_back(tensor::Entry(
        Coord, static_cast<double>(1 + Rng() % 97)));
  }
  return tensor::buildFromTriplets(Src, T);
}

void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got,
                        const std::string &What) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size()) << What;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos)
        << What << ": pos, level " << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd)
        << What << ": crd, level " << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << What << ": perm, level " << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << What << ": param, level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << What << ": vals";
}

/// \p In (a COO-style tensor: compressed root, singletons below) with its
/// entries in a seeded random storage order: the same nonzeros, unordered.
tensor::SparseTensor shuffledCoo(const tensor::SparseTensor &In,
                                 uint64_t Seed) {
  std::vector<size_t> Order(In.Vals.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 Rng(Seed);
  std::shuffle(Order.begin(), Order.end(), Rng);
  tensor::SparseTensor Out = In;
  for (size_t I = 0; I < Order.size(); ++I) {
    for (size_t K = 0; K < In.Levels.size(); ++K)
      Out.Levels[K].Crd[I] = In.Levels[K].Crd[Order[I]];
    Out.Vals[I] = In.Vals[Order[I]];
  }
  return Out;
}

/// Executes one candidate path hop by hop through interpreter-backed
/// Converters with the planner disengaged, so exactly the candidate's
/// forced options run (the planner would otherwise re-decide).
StatusOr<tensor::SparseTensor> runCandidate(const planner::Candidate &C,
                                            const tensor::SparseTensor &In) {
  ScopedEnv Off("CONVGEN_PLANNER", "off");
  tensor::SparseTensor Staged;
  const tensor::SparseTensor *Cur = &In;
  for (const planner::Hop &H : C.Hops) {
    StatusOr<convert::Converter> Conv =
        convert::Converter::tryCreate(H.Src, H.Dst, H.Opts);
    if (!Conv.ok())
      return Conv.status();
    StatusOr<tensor::SparseTensor> Out = Conv->tryRun(*Cur);
    if (!Out.ok())
      return Out;
    Staged = Out.take();
    Cur = &Staged;
  }
  return std::move(Staged);
}

} // namespace

//===--------------------------------------------------------------------===//
// Analytic cost model
//===--------------------------------------------------------------------===//

TEST(PlannerCostModel, MonotoneInNnzForEveryPlanShape) {
  formats::Format Coo3 = formats::makeCOO(3);
  formats::Format Csf = formats::makeCSF(3);
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  std::vector<int64_t> Dims3 = {3000, 3000, 64};
  std::vector<int64_t> Dims2 = {2000, 2000};

  // One plan per strategy family: dense-ranked default, forced
  // sorted-ranking (packed radix at these extents), forced merge sort,
  // shared sort off.
  std::vector<std::pair<std::string, codegen::AssemblyPlan>> Plans;
  Plans.push_back({"coo3->csf default",
                   codegen::planAssembly(Coo3, Csf, Dims3)});
  {
    codegen::Options O;
    O.DimsHint = Dims3;
    O.ForceSortedRanking = true;
    Plans.push_back({"coo3->csf forced-sorted",
                     codegen::planAssembly(Coo3, Csf, O)});
    O.ForceSort = codegen::SortStrategy::Merge;
    Plans.push_back({"coo3->csf forced-sorted merge",
                     codegen::planAssembly(Coo3, Csf, O)});
    O.ForceSort = codegen::SortStrategy::Auto;
    O.ForceNoSharedSort = true;
    Plans.push_back({"coo3->csf forced-sorted nosharedsort",
                     codegen::planAssembly(Coo3, Csf, O)});
  }
  Plans.push_back({"csr->csc default",
                   codegen::planAssembly(Csr, Csc, Dims2)});

  for (const auto &[Label, Plan] : Plans) {
    ASSERT_TRUE(Plan.Unsupported.empty()) << Label << ": " << Plan.Unsupported;
    double Prev = 0;
    for (int64_t Nnz = 1024; Nnz <= (int64_t(1) << 24); Nnz *= 2) {
      const std::vector<int64_t> &Dims =
          Plan.Dedup.size() == 3 ? Dims3 : Dims2;
      double Cost = planner::analyticPlanCost(Plan, statsFor(Nnz, Dims));
      EXPECT_GE(Cost, Prev) << Label << " regressed at nnz " << Nnz;
      EXPECT_TRUE(std::isfinite(Cost)) << Label << " at nnz " << Nnz;
      Prev = Cost;
    }
  }
}

TEST(PlannerCostModel, UnsupportedPlanCostsInfinity) {
  codegen::AssemblyPlan P;
  P.Unsupported = "nope";
  EXPECT_TRUE(std::isinf(planner::analyticPlanCost(P, statsFor(1000, {10}))));
}

//===--------------------------------------------------------------------===//
// Engagement rules and knob overrides
//===--------------------------------------------------------------------===//

TEST(PlannerEngagement, DisabledByKnob) {
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  ScopedEnv Off("CONVGEN_PLANNER", "off");
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      codegen::Options(), statsFor(100000, {100, 100}));
  EXPECT_FALSE(D.Engaged);
  EXPECT_NE(D.Why.find("disabled"), std::string::npos) << D.Why;
}

TEST(PlannerEngagement, NnzFloorIsAKnob) {
  // Pinned on so the test holds under the CI ablation leg's ambient
  // CONVGEN_PLANNER=off (likewise below wherever engagement is expected).
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "500");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  EXPECT_FALSE(
      planner::decide(Csr, Csc, codegen::Options(), statsFor(499, {100, 100}))
          .Engaged);
  EXPECT_TRUE(
      planner::decide(Csr, Csc, codegen::Options(), statsFor(500, {100, 100}))
          .Engaged);
}

TEST(PlannerEngagement, CallerForcedStrategiesDisengage) {
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  codegen::Options Forced;
  Forced.ForceSortedRanking = true;
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      Forced, statsFor(100000, {100, 100}));
  EXPECT_FALSE(D.Engaged);
}

TEST(PlannerEngagement, PinnedRankKnobSuppressesRankCandidates) {
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  formats::Format Coo3 = formats::makeCOO(3);
  formats::Format Csf = formats::makeCSF(3);
  // Huge extents push the default plan onto sorted ranking, where the
  // rank-strategy candidates would normally appear.
  planner::InputStats S = statsFor(100000, {int64_t(1) << 31, 1 << 20, 64});
  {
    planner::Decision D =
        planner::decide(Coo3, Csf, codegen::Options(), S);
    ASSERT_TRUE(D.Engaged) << D.Why;
    bool SawRankVariant = false;
    for (const planner::Candidate &C : D.Considered)
      if (C.Label == "rank=sorted" || C.Label == "rank=hashed")
        SawRankVariant = true;
    EXPECT_TRUE(SawRankVariant)
        << "expected rank-strategy candidates on a sorted-ranking plan";
  }
  {
    ScopedEnv Pin("CONVGEN_RANK_STRATEGY", "sorted");
    planner::Decision D =
        planner::decide(Coo3, Csf, codegen::Options(), S);
    ASSERT_TRUE(D.Engaged) << D.Why;
    for (const planner::Candidate &C : D.Considered)
      EXPECT_TRUE(C.Label != "rank=sorted" && C.Label != "rank=hashed")
          << "pinned CONVGEN_RANK_STRATEGY must suppress " << C.Label;
  }
}

TEST(PlannerEngagement, DefaultCandidateAlwaysEnumerated) {
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      codegen::Options(), statsFor(10000, {100, 100}));
  ASSERT_TRUE(D.Engaged) << D.Why;
  ASSERT_FALSE(D.Considered.empty());
  EXPECT_EQ(D.Considered[0].Label, "direct");
  EXPECT_FALSE(D.Considered[0].OutcomeKey.empty());
  // At benign extents the analytic model keeps the dense-ranked direct
  // plan; the pinning below is what the ablation leg relies on.
  EXPECT_EQ(D.Chosen.Label, "direct");
}

//===--------------------------------------------------------------------===//
// Measured-outcome auto-tuning
//===--------------------------------------------------------------------===//

namespace {

/// Fixture state shared by the flip tests: memory-only outcome store,
/// engagement floor at 1, store reset around each test.
struct OutcomeGuard {
  ScopedEnv On{"CONVGEN_PLANNER", "on"};
  ScopedEnv Outcomes{"CONVGEN_OUTCOMES", ""};
  ScopedEnv MinNnz{"CONVGEN_PLANNER_MIN_NNZ", "1"};
  OutcomeGuard() { convert::PlanCache::instance().resetOutcomes(); }
  ~OutcomeGuard() { convert::PlanCache::instance().resetOutcomes(); }
};

} // namespace

TEST(PlannerAutoTuning, MeasuredOutcomesFlipTheChoiceAfterK) {
  OutcomeGuard Guard;
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  planner::InputStats S = statsFor(10000, {100, 100});

  planner::Decision Cold = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Cold.Engaged) << Cold.Why;
  ASSERT_GE(Cold.Considered.size(), 2u)
      << "need at least one variant to flip to";
  EXPECT_EQ(Cold.Chosen.Label, "direct");
  EXPECT_FALSE(Cold.MeasuredWin);

  // Find a non-default candidate to teach the planner about.
  const planner::Candidate *Variant = nullptr;
  for (const planner::Candidate &C : Cold.Considered)
    if (C.Label != "direct")
      Variant = &C;
  ASSERT_NE(Variant, nullptr);

  convert::PlanCache &Cache = convert::PlanCache::instance();
  int64_t K = codegen::knobs().PlannerTrustAfter;
  ASSERT_GE(K, 1);

  // K-1 observations: not yet trusted, no flip.
  for (int64_t I = 0; I < K - 1; ++I) {
    Cache.recordOutcome(Cold.Chosen.OutcomeKey, 1.0);
    Cache.recordOutcome(Variant->OutcomeKey, 0.01);
  }
  planner::Decision Warmup = planner::decide(Csr, Csc, codegen::Options(), S);
  EXPECT_EQ(Warmup.Chosen.Label, "direct")
      << "flipped before CONVGEN_PLANNER_TRUST_AFTER observations";

  // The K-th observation crosses the trust threshold; the variant's mean
  // beats the favourite's by far more than the margin.
  Cache.recordOutcome(Cold.Chosen.OutcomeKey, 1.0);
  Cache.recordOutcome(Variant->OutcomeKey, 0.01);
  planner::Decision Hot = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Hot.Engaged);
  EXPECT_EQ(Hot.Chosen.Label, Variant->Label);
  EXPECT_TRUE(Hot.MeasuredWin);
  EXPECT_TRUE(Hot.Chosen.Measured);
}

TEST(PlannerAutoTuning, InsideTheMarginTheAnalyticChoiceStands) {
  OutcomeGuard Guard;
  ScopedEnv Margin("CONVGEN_PLANNER_MARGIN", "0.15");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  planner::InputStats S = statsFor(10000, {100, 100});

  planner::Decision Cold = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Cold.Engaged);
  ASSERT_GE(Cold.Considered.size(), 2u);
  const planner::Candidate *Variant = nullptr;
  for (const planner::Candidate &C : Cold.Considered)
    if (C.Label != "direct")
      Variant = &C;
  ASSERT_NE(Variant, nullptr);

  convert::PlanCache &Cache = convert::PlanCache::instance();
  for (int64_t I = 0; I < codegen::knobs().PlannerTrustAfter; ++I) {
    Cache.recordOutcome(Cold.Chosen.OutcomeKey, 1.0);
    Cache.recordOutcome(Variant->OutcomeKey, 0.9); // Better, but < 15% better.
  }
  planner::Decision D = planner::decide(Csr, Csc, codegen::Options(), S);
  EXPECT_EQ(D.Chosen.Label, "direct");
  EXPECT_FALSE(D.MeasuredWin);
}

TEST(PlannerAutoTuning, OutcomeKeysNameTheEngineAndThreadCount) {
  OutcomeGuard Guard;
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  planner::InputStats S = statsFor(10000, {100, 100});
  auto keyOf = [&](planner::Engine E) {
    return planner::decide(Csr, Csc, codegen::Options(), S, E)
        .Chosen.OutcomeKey;
  };
  EXPECT_EQ(keyOf(planner::Engine::Interpreter),
            "csr->csc|n13|d6x6|direct|interp.t1");
  // The four-argument call is the JIT engine at this thread's OpenMP
  // thread count, the count a routine called from here runs on.
  EXPECT_EQ(planner::decide(Csr, Csc, codegen::Options(), S).Chosen.OutcomeKey,
            keyOf(planner::Engine::Jit));
#ifdef _OPENMP
  int Saved = omp_get_max_threads();
  omp_set_num_threads(3);
  EXPECT_EQ(keyOf(planner::Engine::Jit), "csr->csc|n13|d6x6|direct|jit.t3");
  omp_set_num_threads(Saved);
#else
  EXPECT_EQ(keyOf(planner::Engine::Jit), "csr->csc|n13|d6x6|direct|jit.t1");
#endif
}

TEST(PlannerAutoTuning, InterpreterOutcomesNeverSteerTheNativeDecision) {
  OutcomeGuard Guard;
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  planner::InputStats S = statsFor(10000, {100, 100});
  planner::Decision Native = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Native.Engaged) << Native.Why;
  ASSERT_GE(Native.Considered.size(), 2u);

  // Teach the interpreter engine that a variant beats the favourite by far
  // more than the margin.
  planner::Decision Interp = planner::decide(
      Csr, Csc, codegen::Options(), S, planner::Engine::Interpreter);
  const planner::Candidate *Variant = nullptr;
  for (const planner::Candidate &C : Interp.Considered)
    if (C.Label != Interp.Chosen.Label)
      Variant = &C;
  ASSERT_NE(Variant, nullptr);
  convert::PlanCache &Cache = convert::PlanCache::instance();
  for (int64_t I = 0; I < 10 * codegen::knobs().PlannerTrustAfter; ++I) {
    Cache.recordOutcome(Interp.Chosen.OutcomeKey, 1.0);
    Cache.recordOutcome(Variant->OutcomeKey, 0.001);
  }
  planner::Decision InterpHot = planner::decide(
      Csr, Csc, codegen::Options(), S, planner::Engine::Interpreter);
  EXPECT_EQ(InterpHot.Chosen.Label, Variant->Label)
      << "the interpreter engine did not learn from its own outcomes";

  // The native decision still comes from the analytic model alone.
  planner::Decision After = planner::decide(Csr, Csc, codegen::Options(), S);
  EXPECT_EQ(After.Chosen.Label, Native.Chosen.Label);
  EXPECT_FALSE(After.MeasuredWin);
  for (const planner::Candidate &C : After.Considered)
    EXPECT_FALSE(C.Measured) << C.Label;
}

TEST(PlannerAutoTuning, OutcomeRecordsAccumulateAndReset) {
  OutcomeGuard Guard;
  convert::PlanCache &Cache = convert::PlanCache::instance();
  Cache.recordOutcome("test|key", 2.0);
  Cache.recordOutcome("test|key", 4.0);
  Cache.recordOutcome("test|key", -1.0); // Ignored: broken clock.
  convert::OutcomeRecord Rec;
  ASSERT_TRUE(Cache.outcomeFor("test|key", &Rec));
  EXPECT_EQ(Rec.Count, 2u);
  EXPECT_DOUBLE_EQ(Rec.TotalSeconds, 6.0);
  EXPECT_DOUBLE_EQ(Rec.MinSeconds, 2.0);
  EXPECT_DOUBLE_EQ(Rec.meanSeconds(), 3.0);
  Cache.resetOutcomes();
  EXPECT_FALSE(Cache.outcomeFor("test|key", &Rec));
}

//===--------------------------------------------------------------------===//
// Chain legality (the satellite bugfix: no lossy intermediates)
//===--------------------------------------------------------------------===//

TEST(PlannerChainLegality, OrderRequiringSecondHopIsIllegal) {
  formats::Format Csc = formats::standardFormatOrDie("csc");
  formats::Format Coo = formats::makeCOO();
  formats::Format Bcsr = formats::standardFormatOrDie("bcsr");
  std::string Why;
  // csc -> coo yields column-major coo; coo -> bcsr's sequenced dedup
  // trusts a lexicographically sorted coo source. Chaining them would
  // reject (or garble) inputs the direct conversion handles.
  EXPECT_FALSE(planner::chainLegal(Csc, Coo, Bcsr, {8, 8}, &Why));
  EXPECT_NE(Why.find("sorted"), std::string::npos) << Why;
}

TEST(PlannerChainLegality, DedupingIntermediateIsIllegal) {
  formats::Format Coo3 = formats::makeCOO(3);
  formats::Format Csf = formats::makeCSF(3);
  std::string Why;
  // Both endpoints store duplicate tuples; csf deduplicates. The chain
  // would silently merge duplicates the direct conversion preserves.
  EXPECT_FALSE(
      planner::chainLegal(Coo3, Csf, Coo3, {10, 10, 10}, &Why));
  EXPECT_NE(Why.find("duplicate"), std::string::npos) << Why;
}

TEST(PlannerChainLegality, EndpointIntermediateIsIllegal) {
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Coo = formats::makeCOO();
  EXPECT_FALSE(planner::chainLegal(Coo, Coo, Csr, {8, 8}));
  EXPECT_FALSE(planner::chainLegal(Csr, Coo, Coo, {8, 8}));
}

TEST(PlannerChainLegality, BenignChainIsLegal) {
  formats::Format Csc = formats::standardFormatOrDie("csc");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Coo = formats::makeCOO();
  std::string Why;
  EXPECT_TRUE(planner::chainLegal(Csc, Coo, Csr, {8, 8}, &Why)) << Why;
}

TEST(PlannerChainLegality, DecideNeverProposesAnIllegalChain) {
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  formats::Format Bcsr = formats::standardFormatOrDie("bcsr");
  planner::Decision D = planner::decide(Csc, Bcsr, codegen::Options(),
                                        statsFor(10000, {8, 8}));
  if (!D.Engaged)
    GTEST_SKIP() << "csc -> bcsr direct unsupported here: " << D.Why;
  for (const planner::Candidate &C : D.Considered)
    EXPECT_NE(C.Label, "via-coo")
        << "csc -> coo -> bcsr must be rejected by chainLegal";
}

//===--------------------------------------------------------------------===//
// Randomized bit-compare: every candidate vs the forced-direct default
//===--------------------------------------------------------------------===//

TEST(PlannerFuzz, EveryCandidateBitIdenticalToForcedDirect) {
  OutcomeGuard Guard;
  struct Pair {
    const char *Src;
    const char *Dst;
    std::vector<int64_t> Dims;
  };
  const Pair Pairs[] = {
      {"coo", "csr", {12, 12}},       {"csr", "csc", {12, 12}},
      {"csc", "coo", {12, 12}},       {"coo3", "csf", {6, 6, 6}},
      {"csf", "coo3", {6, 6, 6}},     {"csf_102", "csf", {6, 6, 6}},
      {"coo3", "csf_021", {6, 6, 6}},
      // Extents past the dense-rank budget: sorted-ranking direct plans.
      {"coo3", "csf", {int64_t(1) << 31, 1 << 20, 1 << 20}},
      {"coo3", "csf_021", {int64_t(1) << 31, 1 << 20, 1 << 20}},
  };
  int ShuffledRuns = 0;
  for (const Pair &P : Pairs) {
    formats::Format Src = formats::standardFormatOrDie(P.Src);
    formats::Format Dst = formats::standardFormatOrDie(P.Dst);
    for (uint64_t Seed : {0x5eed01ull, 0x5eed02ull, 0x5eed03ull}) {
      SCOPED_TRACE(strfmt("%s -> %s, seed 0x%llx", P.Src, P.Dst,
                          static_cast<unsigned long long>(Seed)));
      tensor::SparseTensor In = randomTensor(Src, P.Dims, 150, Seed);

      // Reference: the forced-direct default (planner off).
      tensor::SparseTensor Want;
      {
        ScopedEnv Off("CONVGEN_PLANNER", "off");
        convert::Converter Conv(Src, Dst);
        StatusOr<tensor::SparseTensor> R = Conv.tryRun(In);
        ASSERT_TRUE(R.ok()) << R.status().message();
        Want = R.take();
      }
      Want.validate();

      // Every candidate the planner would consider, executed explicitly.
      planner::Decision D = planner::decide(
          Src, Dst, codegen::Options(), planner::InputStats::fromTensor(In));
      ASSERT_TRUE(D.Engaged) << D.Why;
      for (const planner::Candidate &C : D.Considered) {
        StatusOr<tensor::SparseTensor> Got = runCandidate(C, In);
        ASSERT_TRUE(Got.ok())
            << C.Label << " failed: " << Got.status().message();
        Got->validate();
        expectBitIdentical(Want, *Got, C.Label);
      }

      // End to end: the engaged Converter (whichever path it picks) must
      // match the planner-off reference bit for bit.
      convert::Converter Conv(Src, Dst);
      StatusOr<tensor::SparseTensor> OnR = Conv.tryRun(In);
      ASSERT_TRUE(OnR.ok()) << OnR.status().message();
      expectBitIdentical(Want, *OnR, "planner-on end-to-end");

      // The same nonzeros stored out of order: the direct plan lays them
      // out by its own rules, every candidate free to run on an unordered
      // source matches it, and the engaged Converter serves it.
      if (Src.Levels.back().Kind != formats::LevelKind::Singleton ||
          In.storedSize() < 2)
        continue;
      tensor::SparseTensor Shuffled = shuffledCoo(In, Seed);
      ASSERT_FALSE(Shuffled.lexOrderedUpTo(
          static_cast<int>(Shuffled.Levels.size())));
      tensor::SparseTensor WantShuffled;
      {
        ScopedEnv Off("CONVGEN_PLANNER", "off");
        WantShuffled = convert::Converter(Src, Dst).run(Shuffled);
      }
      for (const planner::Candidate &C : D.Considered) {
        if (C.NeedsOrderedSource)
          continue;
        StatusOr<tensor::SparseTensor> Got = runCandidate(C, Shuffled);
        ASSERT_TRUE(Got.ok())
            << C.Label << " failed: " << Got.status().message();
        expectBitIdentical(WantShuffled, *Got, C.Label + " (shuffled)");
        ++ShuffledRuns;
      }
      StatusOr<tensor::SparseTensor> OnShuffled = Conv.tryRun(Shuffled);
      ASSERT_TRUE(OnShuffled.ok()) << OnShuffled.status().message();
      expectBitIdentical(WantShuffled, *OnShuffled,
                         "planner-on end-to-end (shuffled)");
    }
  }
  EXPECT_GT(ShuffledRuns, 0);
}

TEST(PlannerOrderGate, OnlyCandidatesThatLayOutLevelsDifferentlyNeedOrder) {
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  auto decideFor = [](const char *Src, const char *Dst,
                      std::vector<int64_t> Dims) {
    return planner::decide(formats::standardFormatOrDie(Src),
                           formats::standardFormatOrDie(Dst),
                           codegen::Options(),
                           statsFor(250000, std::move(Dims)));
  };
  // Past the dense-rank budget every direct level is a sorted list or a
  // rank array, placed in coordinate order like every variant's, so no
  // direct variant needs an ordered source (and none pays the check).
  const int64_t Side = int64_t(1) << 13;
  for (planner::Decision D :
       {decideFor("coo3", "csf", {Side, Side, Side}),
        decideFor("csf", "csf_102", {Side, Side, Side})}) {
    ASSERT_TRUE(D.Engaged) << D.Why;
    ASSERT_GT(D.Considered.size(), 1u);
    for (const planner::Candidate &C : D.Considered)
      EXPECT_EQ(C.NeedsOrderedSource,
                C.Kind == planner::Candidate::Path::TwoHop)
          << C.Label;
  }
  // Small extents: the direct plan inserts the leaf level in source order,
  // the sort-first variant places it in coordinate order.
  planner::Decision Small = decideFor("coo3", "csf_021", {10, 2, 5});
  ASSERT_TRUE(Small.Engaged) << Small.Why;
  bool SawSorted = false;
  for (const planner::Candidate &C : Small.Considered) {
    if (C.Label == "direct")
      EXPECT_FALSE(C.NeedsOrderedSource);
    if (C.Label == "direct+sorted") {
      SawSorted = true;
      EXPECT_TRUE(C.NeedsOrderedSource);
    }
  }
  EXPECT_TRUE(SawSorted);
}
