//===----------------------------------------------------------------------===//
// Randomized differential fuzz harness for the conversion pipeline. The
// strategy space is now four-way per level (sequenced / ranked-dense /
// sorted / hashed, with an optional shared full-arity sort across sorted
// levels), so hand-enumerated tests cannot cover the combinations; this
// harness drives random (source, target, dims, nonzero pattern,
// CONVGEN_RANK_DENSE_MAX_BYTES, CONVGEN_RANK_STRATEGY,
// CONVGEN_NO_SHARED_SORT) tuples and bit-compares
//
//   * the interpreter-backed Converter against the hand-written triplet
//     oracle (structural validity + exact triplet equality), and
//   * the JIT-compiled routine against the interpreter result at 1 and 4
//     OpenMP threads (exact pos/crd/perm/param/vals equality), and
//   * ConversionService::convert — the pipeline every service entry point
//     shares, planner included — against the interpreter result. Under
//     CONVGEN_PLANNER_MIN_NNZ=1 the planner decides every case, so its
//     chosen candidates are fuzzed too.
//
// Every case derives from one base seed. On failure the trace names the
// case seed and the replay invocation:
//
//   ./test_fuzz_conversions --seed=0x1234 --iters=500
//
// --seed / --iters (or CONVGEN_FUZZ_SEED / CONVGEN_FUZZ_ITERS) override
// the defaults; the per-push CI legs run the default smoke count, the
// nightly leg a larger count with a date-rotated seed under ASan.
//
// COO sources are legally unordered (csc -> coo yields column-major coo),
// so COO-source cases whose plan does not validate source order shuffle
// the entries (always for sorted plans, half the time otherwise): sorted
// levels then fail their ordered-lead check and take the full-sort
// fallback, packed or merge. A
// CONVGEN_SORT_STRATEGY set in the environment pins that lowering for
// every case instead of the per-case draw (the sanitizer leg runs the
// harness once more under "merge").
//
// --threads=N (or CONVGEN_FUZZ_THREADS) additionally runs the same case
// stream concurrently from N threads through the shared PlanCache — the
// concurrency stress the TSan leg drives. Concurrent cases use the
// library-default knob profile only: setenv is not thread-safe, so the
// per-case ScopedEnv randomization (and the OpenMP thread flips) stay
// confined to the serial harness.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "service/ConversionService.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "support/StringUtils.h"
#include "tensor/Corpus.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;

using convgen::testing::ScopedEnv;

namespace {

uint64_t FuzzSeed = 0x5eedc0de2026ull; // Deterministic smoke default.
int FuzzIters = 500;
// Fault mode (--faults / CONVGEN_FUZZ_FAULTS=1): each case additionally
// draws a random CONVGEN_FAULT spec — random site subset, random rates,
// case-derived seeds — so the degradation machinery is fuzzed across the
// same tuple space as the conversions themselves. The differential checks
// are unchanged: a degraded handle must still be bit-identical to the
// interpreter, and no injected fault may ever surface as an abort.
bool FuzzFaults = false;
// Concurrency mode (--threads=N / CONVGEN_FUZZ_THREADS): N threads drain
// the same case stream through the shared PlanCache. 0/1 skips the
// concurrent test (the serial harness already ran the cases).
int FuzzThreads = 0;

/// Pins the OpenMP thread count for the scope (host runtime + the env the
/// dlopen'd generated routines read).
void setThreads(int Threads) {
  setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
  omp_set_num_threads(Threads);
#endif
}

void restoreThreads() {
  unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

struct FuzzStats {
  int Ran = 0;
  int Skipped = 0;
  int JitCompared = 0;
  int Shuffled = 0; ///< Cases run on a shuffled COO source.
};

/// Applies one random permutation to a COO tensor's entries: every
/// coordinate array (the non-unique root's crd and the singleton levels')
/// and the values move together, so the tensor stays the same set of
/// nonzeros in a different stored order.
void shuffleCooEntries(tensor::SparseTensor &T, std::mt19937_64 &Rng) {
  size_t N = static_cast<size_t>(T.storedSize());
  std::vector<size_t> Perm(N);
  for (size_t I = 0; I < N; ++I)
    Perm[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Perm[I - 1], Perm[static_cast<size_t>(Rng() % I)]);
  for (tensor::LevelStorage &L : T.Levels) {
    std::vector<int32_t> Crd(L.Crd.begin(), L.Crd.end());
    for (size_t I = 0; I < N; ++I)
      L.Crd[I] = Crd[Perm[I]];
  }
  std::vector<double> Vals(T.Vals.begin(), T.Vals.end());
  for (size_t I = 0; I < N; ++I)
    T.Vals[I] = Vals[Perm[I]];
}

/// Exact structural equality of two tensors in the same format (the
/// bit-compare the JIT leg uses; triplet equality would hide layout
/// divergence between bit-identical-value layouts).
void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got, int Threads) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size());
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos)
        << "pos, level " << K << ", " << Threads << " threads";
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd)
        << "crd, level " << K << ", " << Threads << " threads";
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << "perm, level " << K << ", " << Threads << " threads";
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << "param, level " << K << ", " << Threads << " threads";
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << Threads << " threads";
}

/// The service the cases go through: roomy enough that the concurrent
/// stream never sheds. Leaked, like ConversionService::instance().
convert::ConversionService &fuzzService() {
  static convert::ConversionService *Service = [] {
    convert::ServiceLimits Limits;
    Limits.MaxInflight = 64;
    Limits.QueueDepth = 64;
    return new convert::ConversionService(Limits);
  }();
  return *Service;
}

/// One random case: draws the tuple, runs interpreter-vs-oracle and (when
/// a compiler exists) JIT-vs-interpreter at 1 and 4 threads and
/// service-vs-interpreter. With \p
/// Concurrent set the case must stay thread-safe: no setenv (knob/fault
/// randomization) and no process-wide OpenMP thread flips — the tuple,
/// pattern, and differential checks are unchanged.
void runFuzzCase(uint64_t CaseSeed, FuzzStats &Stats,
                 bool Concurrent = false) {
  std::mt19937_64 Rng(CaseSeed);
  auto Pick = [&](int N) { return static_cast<int>(Rng() % static_cast<uint64_t>(N)); };

  static const char *Names2[] = {"coo", "csr", "csc", "dia",
                                 "ell", "bcsr", "sky"};
  static const char *Names3[] = {"coo3", "csf", "csf_102", "csf_021"};

  bool Order3 = Pick(5) >= 3; // ~40% order-3 cases.
  std::string SrcName, DstName;
  std::vector<int64_t> Dims;
  bool Huge = false;
  if (Order3) {
    SrcName = Names3[Pick(4)];
    DstName = Names3[Pick(4)];
    Huge = Pick(4) == 0; // 25% of order-3 cases use a huge-extent mode.
    if (Huge)
      Dims = {int64_t(1) << 31, int64_t(1) << (10 + Pick(11)),
              int64_t(1) + Pick(1000)};
    else
      Dims = {int64_t(1) + Pick(10), int64_t(1) + Pick(10),
              int64_t(1) + Pick(10)};
  } else {
    SrcName = Names2[Pick(7)];
    DstName = Names2[Pick(7)];
    Dims = {int64_t(1) + Pick(12), int64_t(1) + Pick(12)};
    // Skyline stores lower-triangular square matrices only.
    if (SrcName == "sky" || DstName == "sky")
      Dims[1] = Dims[0];
  }

  // Random ranking-knob profile. Tiny budgets push ordinary-size levels
  // onto the sorted/hashed strategies, so the O(nnz) machinery (and the
  // shared sort) gets differential coverage on small tensors too, where
  // the oracle is cheap. The profile set is deliberately small: each
  // distinct (pair, strategy-bits) combination costs one JIT compile.
  std::vector<std::unique_ptr<ScopedEnv>> Knobs;
  switch (Concurrent ? 0 : Pick(4)) {
  case 0:
    break; // Library defaults.
  case 1:
    Knobs.push_back(std::make_unique<ScopedEnv>(
        "CONVGEN_RANK_DENSE_MAX_BYTES", std::to_string(1 << Pick(8))));
    break;
  case 2:
    Knobs.push_back(std::make_unique<ScopedEnv>(
        "CONVGEN_RANK_DENSE_MAX_BYTES", "1"));
    Knobs.push_back(
        std::make_unique<ScopedEnv>("CONVGEN_RANK_STRATEGY", "hashed"));
    break;
  default:
    Knobs.push_back(std::make_unique<ScopedEnv>(
        "CONVGEN_RANK_DENSE_MAX_BYTES", "1"));
    Knobs.push_back(
        std::make_unique<ScopedEnv>("CONVGEN_RANK_STRATEGY", "sorted"));
    Knobs.push_back(
        std::make_unique<ScopedEnv>("CONVGEN_NO_SHARED_SORT", "1"));
    break;
  }

  // Sort-strategy randomization, orthogonal to the rank profile: huge
  // order-3 dims with a narrow second mode pack into 64 bits, so "radix"
  // (and auto under the tiny-budget profiles) exercises the packed sort
  // differentially against the interpreter's comparison sort; "merge"
  // pins the comparison path even where keys fit.
  const char *Pinned = std::getenv("CONVGEN_SORT_STRATEGY");
  std::string SortStrategy =
      Pinned ? std::string(Pinned) + " (environment)" : "ambient";
  if (!Concurrent && !Pinned) {
    static const char *Strategies[] = {"auto", "merge", "radix"};
    SortStrategy = Strategies[Pick(3)];
    Knobs.push_back(std::make_unique<ScopedEnv>("CONVGEN_SORT_STRATEGY",
                                                SortStrategy.c_str()));
  }
  SCOPED_TRACE("CONVGEN_SORT_STRATEGY=" + SortStrategy);

  if (FuzzFaults && !Concurrent) {
    static const char *Sites[] = {"compile",    "dlopen",      "dlsym",
                                  "cache-read", "cache-write", "alloc-probe"};
    static const char *Rates[] = {"0.25", "0.5", "0.75", "1"};
    std::string Spec;
    for (const char *Site : Sites) {
      if (Pick(2) == 0)
        continue; // ~half the sites per case.
      if (!Spec.empty())
        Spec += ",";
      // Rates in {0.25, 0.5, 0.75, 1}; per-case seeds keep the draw
      // streams independent across cases but replayable from --seed.
      Spec += strfmt("%s:%s:%llu", Site, Rates[Pick(4)],
                     static_cast<unsigned long long>(Rng()));
    }
    if (!Spec.empty())
      Knobs.push_back(std::make_unique<ScopedEnv>("CONVGEN_FAULT", Spec));
  }

  formats::Format Src = formats::standardFormatOrDie(SrcName);
  formats::Format Dst = formats::standardFormatOrDie(DstName);
  std::vector<std::string> DimNames;
  for (int64_t D : Dims)
    DimNames.push_back(std::to_string(D));
  SCOPED_TRACE(SrcName + " -> " + DstName + ", dims " + join(DimNames, "x"));
  std::string Why;
  if (!codegen::conversionSupported(Src, Dst, Dims, &Why)) {
    ++Stats.Skipped;
    return;
  }

  // Random nonzero pattern: distinct coordinates, exact small values
  // (integer-valued doubles compare bit-exactly through any backend).
  tensor::Triplets T;
  T.setDims(Dims);
  int MaxNnz = Huge ? 40 : Pick(3) == 0 ? 0 : 1 + Pick(48);
  std::set<std::vector<int64_t>> Seen;
  for (int E = 0; E < MaxNnz; ++E) {
    std::vector<int64_t> Coord;
    for (int64_t D : Dims)
      Coord.push_back(static_cast<int64_t>(
          Rng() % static_cast<uint64_t>(D)));
    if (!Order3 && (SrcName == "sky" || DstName == "sky") &&
        Coord[1] > Coord[0])
      std::swap(Coord[0], Coord[1]); // Keep skyline lower-triangular.
    if (!Seen.insert(Coord).second)
      continue;
    T.Entries.push_back(
        tensor::Entry(Coord, static_cast<double>(1 + Pick(97))));
  }

  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  // Sorted plans always take the shuffle (it is their fallback that needs
  // the coverage); other order-agnostic plans half the time.
  codegen::AssemblyPlan Plan = codegen::planAssembly(Src, Dst, Dims);
  bool Shuffled = SrcName.rfind("coo", 0) == 0 && In.storedSize() > 1 &&
                  Plan.LexCheckLevels == 0 &&
                  (Plan.anySorted() || Pick(2) == 0);
  if (Shuffled) {
    shuffleCooEntries(In, Rng);
    ++Stats.Shuffled;
  }
  SCOPED_TRACE(Shuffled ? "source entries shuffled" : "source in order");
  convert::Converter Conv(Src, Dst);
  tensor::SparseTensor Out = Conv.run(In);
  Out.validate();
  tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), tensor::toTriplets(Want)))
      << SrcName << " -> " << DstName << " diverged from the oracle";
  ++Stats.Ran;

  if (!jit::jitAvailable())
    return;
  // The JIT handle runs the direct plan; the Converter above and the
  // service below go through the planner, which must serve the direct
  // plan's output bit for bit on ordered and shuffled sources alike.
  codegen::Options Opts =
      codegen::optionsForDims(Src, Dst, codegen::Options(), Dims);
  auto Native = convert::PlanCache::instance().jit(Src, Dst, Opts);
  if (Concurrent) {
    // No OMP_NUM_THREADS flips from worker threads; the routine runs at
    // the ambient thread count (nested parallel regions when several
    // workers convert at once — itself part of the stress).
    tensor::SparseTensor FromJit = Native->run(In);
    expectBitIdentical(Out, FromJit, 0);
  } else {
    for (int Threads : {1, 4}) {
      setThreads(Threads);
      tensor::SparseTensor FromJit = Native->run(In);
      expectBitIdentical(Out, FromJit, Threads);
    }
    restoreThreads();
  }
  convert::ConversionRequest Request;
  Request.Source = Src;
  Request.Target = Dst;
  Request.Input = &In;
  StatusOr<tensor::SparseTensor> Served = fuzzService().convert(Request);
  ASSERT_TRUE(Served.ok()) << "through the service: "
                           << Served.status().toString();
  expectBitIdentical(Out, *Served, 0);
  ++Stats.JitCompared;
}

/// The splitmix64 per-case seed shared by the serial and concurrent
/// harnesses: a failing concurrent case replays serially from --seed.
uint64_t caseSeed(int Case) {
  uint64_t S = FuzzSeed +
               0x9e3779b97f4a7c15ull * static_cast<uint64_t>(Case + 1);
  S ^= S >> 30;
  S *= 0xbf58476d1ce4e5b9ull;
  S ^= S >> 27;
  return S;
}

} // namespace

TEST(FuzzConversions, RandomizedDifferentialAgainstTheOracle) {
  FuzzStats Stats;
  for (int Case = 0; Case < FuzzIters; ++Case) {
    // splitmix64 over (base seed, case index): independent per-case
    // streams, and a failing case replays from the same --seed.
    uint64_t CaseSeed = caseSeed(Case);
    SCOPED_TRACE(strfmt("case %d of %d, case seed 0x%llx — replay: "
                        "./test_fuzz_conversions --seed=0x%llx --iters=%d",
                        Case, FuzzIters,
                        static_cast<unsigned long long>(CaseSeed),
                        static_cast<unsigned long long>(FuzzSeed),
                        FuzzIters));
    runFuzzCase(CaseSeed, Stats);
    if (::testing::Test::HasFatalFailure())
      break;
  }
  std::printf("[  fuzz    ] %d cases run (%d on shuffled coo sources), %d "
              "unsupported-pair skips, %d JIT and service compared "
              "(seed 0x%llx)\n",
              Stats.Ran, Stats.Shuffled, Stats.Skipped, Stats.JitCompared,
              static_cast<unsigned long long>(FuzzSeed));
  if (FuzzFaults || support::faultsConfigured())
    std::printf("[  fuzz    ] faults injected: %llu; degradations: %s\n",
                static_cast<unsigned long long>(
                    support::faultInjectionTotal()),
                support::DegradationLog::instance().summary().c_str());
  // The harness must exercise real conversions, not skip everything (tiny
  // random budgets legitimately reject a chunk of the pair space).
  EXPECT_GT(Stats.Ran, FuzzIters / 3);
}

TEST(FuzzConversions, ConcurrentCaseStreamThroughTheSharedCache) {
  if (FuzzThreads <= 1)
    GTEST_SKIP() << "pass --threads=N (or CONVGEN_FUZZ_THREADS) to run the "
                    "concurrent stream";
  // The same deterministic case stream as the serial harness, drained
  // round-robin by N threads through the shared single-flight PlanCache.
  // Identical seeds mean identical coverage regardless of thread count,
  // and a failing case replays serially with the printed --seed.
  std::vector<FuzzStats> PerThread(static_cast<size_t>(FuzzThreads));
  std::vector<std::thread> Pool;
  for (int T = 0; T < FuzzThreads; ++T) {
    Pool.emplace_back([&, T] {
      for (int Case = T; Case < FuzzIters; Case += FuzzThreads) {
        uint64_t CaseSeed = caseSeed(Case);
        SCOPED_TRACE(strfmt(
            "concurrent case %d (thread %d), case seed 0x%llx — serial "
            "replay: ./test_fuzz_conversions --seed=0x%llx --iters=%d",
            Case, T, static_cast<unsigned long long>(CaseSeed),
            static_cast<unsigned long long>(FuzzSeed), FuzzIters));
        runFuzzCase(CaseSeed, PerThread[static_cast<size_t>(T)],
                    /*Concurrent=*/true);
        if (::testing::Test::HasFatalFailure())
          break;
      }
    });
  }
  for (std::thread &Th : Pool)
    Th.join();
  FuzzStats Total;
  for (const FuzzStats &S : PerThread) {
    Total.Ran += S.Ran;
    Total.Skipped += S.Skipped;
    Total.JitCompared += S.JitCompared;
  }
  std::printf("[  fuzz    ] concurrent: %d threads, %d cases run, "
              "%d unsupported-pair skips, %d JIT and service compared "
              "(seed 0x%llx)\n",
              FuzzThreads, Total.Ran, Total.Skipped, Total.JitCompared,
              static_cast<unsigned long long>(FuzzSeed));
  EXPECT_GT(Total.Ran, FuzzIters / 3);
}

//===----------------------------------------------------------------------===//
// Forced-hashed full-corpus pass: every corpus tensor through every pair
// whose plan takes the O(nnz) ranking path, with the hashed variant forced
// (acceptance criterion: this sweep is green).
//===----------------------------------------------------------------------===//

TEST(FuzzCorpus, ForcedHashedFullCorpusMatchesTheOracle) {
  ScopedEnv Strategy("CONVGEN_RANK_STRATEGY", "hashed");
  ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "1");
  int Ran = 0;
  auto sweep = [&](const std::vector<const char *> &Names,
                   const std::vector<std::pair<std::string, tensor::Triplets>>
                       &Corpus) {
    for (const char *SrcName : Names) {
      for (const char *DstName : Names) {
        formats::Format Src = formats::standardFormatOrDie(SrcName);
        formats::Format Dst = formats::standardFormatOrDie(DstName);
        for (const auto &[TName, T] : Corpus) {
          std::vector<int64_t> Dims;
          for (int M = 0; M < T.order(); ++M)
            Dims.push_back(T.dim(M));
          if (!codegen::conversionSupported(Src, Dst, Dims))
            continue;
          codegen::AssemblyPlan Plan = codegen::planAssembly(Src, Dst, Dims);
          if (!Plan.anySorted())
            continue; // The knob only affects the O(nnz) ranking path.
          EXPECT_TRUE(Plan.anyHashed() || !Plan.anySorted());
          tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
          convert::Converter Conv(Src, Dst);
          tensor::SparseTensor Out = Conv.run(In);
          Out.validate();
          tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
          EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out),
                                    tensor::toTriplets(Want)))
              << SrcName << " -> " << DstName << " on " << TName;
          ++Ran;
        }
      }
    }
  };
  sweep({"coo", "csr", "csc", "ell"}, tensor::testMatrices());
  sweep({"coo3", "csf", "csf_102", "csf_021"}, tensor::testTensors3());
  sweep({"coo3", "csf", "csf_102", "csf_021"}, tensor::testTensorsHuge3());
  std::printf("[  fuzz    ] forced-hashed corpus: %d conversions\n", Ran);
  EXPECT_GT(Ran, 0);
}

int main(int argc, char **argv) {
  // CONVGEN_FUZZ_SEED / CONVGEN_FUZZ_ITERS set the CI defaults; explicit
  // --seed= / --iters= flags (the replay workflow) override them.
  if (const char *Env = std::getenv("CONVGEN_FUZZ_SEED"))
    FuzzSeed = std::strtoull(Env, nullptr, 0);
  if (const char *Env = std::getenv("CONVGEN_FUZZ_ITERS"))
    if (std::atoi(Env) > 0)
      FuzzIters = std::atoi(Env);
  if (const char *Env = std::getenv("CONVGEN_FUZZ_FAULTS"))
    FuzzFaults = std::string(Env) != "0";
  if (const char *Env = std::getenv("CONVGEN_FUZZ_THREADS"))
    FuzzThreads = std::atoi(Env);
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--seed=", 0) == 0)
      FuzzSeed = std::strtoull(Arg.c_str() + 7, nullptr, 0);
    else if (Arg.rfind("--iters=", 0) == 0)
      FuzzIters = std::atoi(Arg.c_str() + 8);
    else if (Arg == "--faults")
      FuzzFaults = true;
    else if (Arg.rfind("--threads=", 0) == 0)
      FuzzThreads = std::atoi(Arg.c_str() + 10);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
