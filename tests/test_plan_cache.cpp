//===----------------------------------------------------------------------===//
// Tests for convert::PlanCache: plan memoization (a second Converter for
// the same pair must not re-run codegen), JIT handle sharing (at most one
// external-compiler invocation per triple and process), and the on-disk
// shared-object cache (a "new process", simulated by clearing the in-memory
// cache, skips the external compiler entirely), and the warm-request route
// memo (tryJitFor: bit-exact hits, dims routing, per-request checks, knob
// and clearMemory invalidation, its cap, and the completeness of its key).
//===----------------------------------------------------------------------===//

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "support/Fault.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <unistd.h>

using namespace convgen;
using convert::PlanCache;
using convert::PlanCacheStats;

TEST(PlanCacheKeys, FingerprintDistinguishesFormats) {
  std::string Csr = convert::formatFingerprint(formats::makeCSR());
  std::string Csc = convert::formatFingerprint(formats::makeCSC());
  std::string Coo = convert::formatFingerprint(formats::makeCOO());
  EXPECT_NE(Csr, Csc);
  EXPECT_NE(Csr, Coo);
  // Fingerprints are deterministic.
  EXPECT_EQ(Csr, convert::formatFingerprint(formats::makeCSR()));
}

TEST(PlanCacheKeys, OptionsChangeTheKey) {
  codegen::Options Default;
  codegen::Options NoReuse;
  NoReuse.CounterReuse = false;
  EXPECT_NE(
      convert::planKey(formats::makeCSR(), formats::makeELL(), Default),
      convert::planKey(formats::makeCSR(), formats::makeELL(), NoReuse));
  EXPECT_EQ(
      convert::planKey(formats::makeCSR(), formats::makeELL(), Default),
      convert::planKey(formats::makeCSR(), formats::makeELL(), Default));
}

TEST(PlanCacheMemo, SecondConverterSharesThePlan) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  PlanCacheStats Before = Cache.stats();

  convert::Converter First(formats::makeCOO(), formats::makeCSR());
  convert::Converter Second(formats::makeCOO(), formats::makeCSR());

  PlanCacheStats After = Cache.stats();
  EXPECT_EQ(After.PlanMisses - Before.PlanMisses, 1u);
  EXPECT_GE(After.PlanHits - Before.PlanHits, 1u);
  // Both converters hold the *same* generated routine, not a copy:
  // codegen ran once.
  EXPECT_EQ(&First.conversion(), &Second.conversion());
}

TEST(PlanCacheMemo, DistinctOptionsGenerateSeparatePlans) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();

  codegen::Options NoReuse;
  NoReuse.CounterReuse = false;
  convert::Converter A(formats::makeCSR(), formats::makeELL());
  convert::Converter B(formats::makeCSR(), formats::makeELL(), NoReuse);
  EXPECT_NE(&A.conversion(), &B.conversion());
}

TEST(PlanCacheMemo, ConvertersStillConvertCorrectly) {
  PlanCache::instance().clearMemory();
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 5, 21);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Warmup(formats::makeCOO(), formats::makeCSR());
  convert::Converter Cached(formats::makeCOO(), formats::makeCSR());
  tensor::SparseTensor Out = Cached.run(In);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T));
}

using convgen::testing::ScopedEnv;

TEST(PlanCacheJit, HandleSharedWithinTheProcess) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  PlanCacheStats Before = Cache.stats();

  auto First = Cache.jit(formats::makeCOO(), formats::makeCSR());
  auto Second = Cache.jit(formats::makeCOO(), formats::makeCSR());

  PlanCacheStats After = Cache.stats();
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 1u);
  EXPECT_GE(After.JitHits - Before.JitHits, 1u);
}

TEST(PlanCacheJit, DiskCacheSkipsTheExternalCompiler) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  if (support::faultsConfigured())
    GTEST_SKIP() << "asserts native-path artifacts; CONVGEN_FAULT is set";
  char Template[] = "/tmp/convgen-cachetest-XXXXXX";
  char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);
  ScopedEnv CacheDir("CONVGEN_CACHE_DIR", Dir);
  ScopedEnv Enable("CONVGEN_DISABLE_DISK_CACHE", "0");

  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();

  // Cold: runs the external compiler and installs the shared object.
  auto Cold = Cache.jit(formats::makeCSR(), formats::makeELL());
  EXPECT_FALSE(Cold->loadedFromCache());
  EXPECT_GT(Cold->compileSeconds(), 0.0);

  // "New process": the in-memory cache is gone, the disk cache is not.
  Cache.clearMemory();
  PlanCacheStats Before = Cache.stats();
  auto Warm = Cache.jit(formats::makeCSR(), formats::makeELL());
  PlanCacheStats After = Cache.stats();
  EXPECT_TRUE(Warm->loadedFromCache());
  EXPECT_EQ(Warm->compileSeconds(), 0.0);
  EXPECT_EQ(After.DiskHits - Before.DiskHits, 1u);

  // The cached object still computes the right answer (bit-identical to
  // the interpreter).
  tensor::Triplets T = tensor::genBandedRandom(30, 30, 3.0, 7, 3, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Interp(formats::makeCSR(), formats::makeELL());
  tensor::SparseTensor FromInterp = Interp.run(In);
  tensor::SparseTensor FromJit = Warm->run(In);
  FromJit.validate();
  ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size());
  for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
    EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd);
    EXPECT_EQ(FromInterp.Levels[K].SizeParam, FromJit.Levels[K].SizeParam);
  }
  EXPECT_EQ(FromInterp.Vals, FromJit.Vals);

  std::string Cleanup = "rm -rf " + std::string(Dir);
  (void)std::system(Cleanup.c_str());
}

TEST(PlanCacheJit, DisablingTheDiskCacheStaysInMemory) {
  ScopedEnv Disable("CONVGEN_DISABLE_DISK_CACHE", "1");
  EXPECT_EQ(PlanCache::diskCacheDir(), "");
}

TEST(PlanCacheKeys, RankStrategyKnobChangesKeyAndJitFlags) {
  // A CONVGEN_RANK_STRATEGY flip changes the generated code (hashed
  // presence vs plain sort), so both halves of every cache key must move
  // with it: the plan key's strategy bits (re-derived from the environment
  // per lookup) and the effective JIT flag string (part of the in-memory
  // JIT key and the on-disk object name). Otherwise a knob flip could
  // dlopen a stale shared object compiled under the other strategy.
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  Opts.DimsHint = {int64_t(1) << 31, int64_t(1) << 20, int64_t(1) << 20};
  std::string DefaultKey = convert::planKey(Coo3, Csf, Opts);
  std::string DefaultFlags = jit::jitEffectiveFlags("");
  {
    ScopedEnv Strategy("CONVGEN_RANK_STRATEGY", "hashed");
    EXPECT_NE(convert::planKey(Coo3, Csf, Opts), DefaultKey);
    std::string Flags = jit::jitEffectiveFlags("");
    EXPECT_NE(Flags, DefaultFlags);
    EXPECT_NE(Flags.find("-DCONVGEN_RANK_STRATEGY_HASHED=1"),
              std::string::npos)
        << Flags;
  }
  {
    ScopedEnv NoShare("CONVGEN_NO_SHARED_SORT", "1");
    EXPECT_NE(convert::planKey(Coo3, Csf, Opts), DefaultKey);
    EXPECT_NE(jit::jitEffectiveFlags("").find("-DCONVGEN_NO_SHARED_SORT=1"),
              std::string::npos);
  }
  // Back to default: keys and flags are restored, so the original cache
  // entries are found again (no permanent split).
  EXPECT_EQ(convert::planKey(Coo3, Csf, Opts), DefaultKey);
  EXPECT_EQ(jit::jitEffectiveFlags(""), DefaultFlags);
  // Without a dims hint no level is sorted and the knob is inert: small
  // tensors keep sharing one cached plan per pair.
  codegen::Options NoHint;
  std::string SmallKey = convert::planKey(Coo3, Csf, NoHint);
  ScopedEnv Strategy("CONVGEN_RANK_STRATEGY", "hashed");
  EXPECT_EQ(convert::planKey(Coo3, Csf, NoHint), SmallKey);
}

TEST(PlanCacheJit, KnobFlipCompilesAFreshObjectNotAStaleOne) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts = codegen::optionsForDims(
      Coo3, Csf, {}, {int64_t(1) << 31, int64_t(1) << 20, int64_t(1) << 20});
  auto Default = Cache.jit(Coo3, Csf, Opts);
  EXPECT_EQ(Default->conversion().cSource().find("cvg_hash_distinct(B"),
            std::string::npos);
  ScopedEnv Strategy("CONVGEN_RANK_STRATEGY", "hashed");
  auto Hashed = Cache.jit(Coo3, Csf, Opts);
  EXPECT_NE(Hashed.get(), Default.get());
  EXPECT_NE(Hashed->conversion().cSource().find("cvg_hash_distinct(B"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// The warm-request route memo (PlanCache::tryJitFor).
//===----------------------------------------------------------------------===//

namespace {

/// A lower-triangular 8x8 matrix (valid for every order-2 format, skyline
/// included) with exact integer values.
tensor::Triplets lowerTriangular() {
  tensor::Triplets T;
  T.setDims({8, 8});
  int V = 1;
  for (int64_t I = 0; I < 8; ++I)
    for (int64_t J = 0; J <= I; J += (I % 3) + 1)
      T.Entries.push_back(tensor::Entry({I, J}, static_cast<double>(V++)));
  return T;
}

tensor::Triplets smallTensor3() {
  tensor::Triplets T;
  T.setDims({4, 5, 3});
  int V = 1;
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t J = I % 3; J < 5; J += 2)
      T.Entries.push_back(
          tensor::Entry({I, J, (I + J) % 3}, static_cast<double>(V++)));
  return T;
}

void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got,
                        const std::string &What) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size()) << What;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos) << What << ", level " << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd) << What << ", level " << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << What << ", level " << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << What << ", level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << What;
}

/// tryJitFor + tryRunShaped, the service's direct native path.
StatusOr<tensor::SparseTensor> convertViaRoute(const formats::Format &Src,
                                               const formats::Format &Dst,
                                               const tensor::SparseTensor &In) {
  StatusOr<std::shared_ptr<jit::JitConversion>> H =
      PlanCache::instance().tryJitFor(Src, Dst, codegen::Options(), In);
  if (!H.ok())
    return H.status();
  return (*H)->tryRunShaped(In);
}

} // namespace

TEST(RouteMemo, HitIsBitIdenticalToTheInterpreterForEveryPair) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  std::vector<std::pair<formats::Format, tensor::Triplets>> Sources;
  for (const formats::Format &F : formats::allStandardFormats())
    Sources.push_back({F, lowerTriangular()});
  for (const formats::Format &F : formats::standardOrder3Formats())
    Sources.push_back({F, smallTensor3()});
  for (const auto &[Src, T] : Sources)
    for (const auto &Target : Sources) {
      const formats::Format &Dst = Target.first;
      if (Src.SrcOrder != Dst.SrcOrder ||
          !codegen::conversionSupported(Src, Dst))
        continue;
      std::string What = Src.Name + " -> " + Dst.Name;
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      tensor::SparseTensor Want = convert::Converter(Src, Dst).run(In);
      StatusOr<tensor::SparseTensor> Cold = convertViaRoute(Src, Dst, In);
      ASSERT_TRUE(Cold.ok()) << What << ": " << Cold.status().toString();
      PlanCacheStats Before = Cache.stats();
      StatusOr<tensor::SparseTensor> Warm = convertViaRoute(Src, Dst, In);
      PlanCacheStats After = Cache.stats();
      ASSERT_TRUE(Warm.ok()) << What << ": " << Warm.status().toString();
      // The second request is a memo hit, counted as a JIT hit.
      EXPECT_EQ(After.JitHits - Before.JitHits, 1u) << What;
      EXPECT_EQ(After.JitMisses, Before.JitMisses) << What;
      expectBitIdentical(Want, *Cold, What + " (miss)");
      expectBitIdentical(Want, *Warm, What + " (hit)");
    }
}

TEST(RouteMemo, HugeDimsAfterSmallDimsGetTheDimsSpecializedHandle) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  tensor::SparseTensor Small =
      tensor::buildFromTriplets(Coo3, smallTensor3());
  tensor::SparseTensor Huge = tensor::buildFromTriplets(
      Coo3, tensor::genHyperSparse3(int64_t(1) << 31, int64_t(1) << 20,
                                    int64_t(1) << 20, 50, 5));
  auto SmallH = Cache.tryJitFor(Coo3, Csf, codegen::Options(), Small);
  ASSERT_TRUE(SmallH.ok()) << SmallH.status().toString();
  EXPECT_FALSE((*SmallH)->conversion().Asm.anySorted());
  for (int Rep = 0; Rep < 2; ++Rep) { // a miss, then a memo hit
    auto HugeH = Cache.tryJitFor(Coo3, Csf, codegen::Options(), Huge);
    ASSERT_TRUE(HugeH.ok()) << HugeH.status().toString();
    EXPECT_NE(HugeH->get(), SmallH->get());
    EXPECT_TRUE((*HugeH)->conversion().Asm.anySorted());
    EXPECT_FALSE((*HugeH)->conversion().Opts.DimsHint.empty());
    StatusOr<tensor::SparseTensor> Out = (*HugeH)->tryRunShaped(Huge);
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    expectBitIdentical(convert::Converter(Coo3, Csf).run(Huge), *Out,
                       "hypersparse coo3 -> csf");
  }
}

TEST(RouteMemo, HitStillRejectsWrongFormatAndUnsortedSources) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  formats::Format Coo = formats::makeCOO();
  formats::Format Bcsr = formats::makeBCSR(4, 4);
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 5, 21);
  tensor::SparseTensor Sorted = tensor::buildFromTriplets(Coo, T);
  ASSERT_TRUE(convertViaRoute(Coo, Bcsr, Sorted).ok());
  size_t Routes = Cache.routeCount();

  // A csr tensor on the coo -> bcsr route fails the shape check, and a
  // failed check is never memoized.
  tensor::SparseTensor Csr = tensor::buildFromTriplets(formats::makeCSR(), T);
  StatusOr<tensor::SparseTensor> Wrong = convertViaRoute(Coo, Bcsr, Csr);
  ASSERT_FALSE(Wrong.ok());
  EXPECT_EQ(Wrong.status().code(), ErrorCode::InvalidArgument);
  EXPECT_EQ(Cache.routeCount(), Routes);

  // Column-major coo has the warmed route's format and dims, so it hits
  // the memo; the per-request source-order check still rejects it.
  tensor::SparseTensor ColMajor =
      convert::Converter(formats::makeCSC(), Coo)
          .run(tensor::buildFromTriplets(formats::makeCSC(), T));
  ASSERT_FALSE(ColMajor.lexOrderedUpTo(1));
  PlanCacheStats Before = Cache.stats();
  StatusOr<tensor::SparseTensor> Unsorted =
      convertViaRoute(Coo, Bcsr, ColMajor);
  EXPECT_EQ(Cache.stats().JitHits - Before.JitHits, 1u);
  ASSERT_FALSE(Unsorted.ok());
  EXPECT_EQ(Unsorted.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Unsorted.status().message().find("lexicographically sorted"),
            std::string::npos)
      << Unsorted.status().message();
}

TEST(RouteMemo, ClearMemoryAndKnobReloadReRoute) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, smallTensor3());
  tensor::SparseTensor Want = convert::Converter(Coo3, Csf).run(In);
  auto Dense = Cache.tryJitFor(Coo3, Csf, codegen::Options(), In);
  ASSERT_TRUE(Dense.ok()) << Dense.status().toString();
  EXPECT_FALSE((*Dense)->conversion().Asm.anySorted());
  {
    // A one-byte dense-ranking budget moves these dims onto sorted
    // ranking: the memoized route must not outlive the knob snapshot.
    ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "1");
    auto Sorted = Cache.tryJitFor(Coo3, Csf, codegen::Options(), In);
    ASSERT_TRUE(Sorted.ok()) << Sorted.status().toString();
    EXPECT_NE(Sorted->get(), Dense->get());
    EXPECT_TRUE((*Sorted)->conversion().Asm.anySorted());
    StatusOr<tensor::SparseTensor> Out = (*Sorted)->tryRunShaped(In);
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    expectBitIdentical(Want, *Out, "coo3 -> csf under a 1-byte budget");
  }
  // The budget is back to its default, and so is the route.
  auto Back = Cache.tryJitFor(Coo3, Csf, codegen::Options(), In);
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back->get(), Dense->get());

  Cache.clearMemory();
  EXPECT_EQ(Cache.routeCount(), 0u);
  PlanCacheStats Before = Cache.stats();
  auto Fresh = Cache.tryJitFor(Coo3, Csf, codegen::Options(), In);
  ASSERT_TRUE(Fresh.ok()) << Fresh.status().toString();
  EXPECT_EQ(Cache.stats().JitMisses - Before.JitMisses, 1u);
  EXPECT_NE(Fresh->get(), Dense->get());
  EXPECT_EQ(Cache.routeCount(), 1u);
}

TEST(RouteMemo, StaysWithinItsCapUnderManyDistinctDims) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  formats::Format Coo = formats::makeCOO();
  formats::Format Csr = formats::makeCSR();
  std::shared_ptr<jit::JitConversion> First;
  for (int64_t I = 0; I < int64_t(PlanCache::kMaxRoutes) + 300; ++I) {
    tensor::Triplets T;
    T.setDims({2 + I, 3});
    T.Entries.push_back(tensor::Entry({1, 2}, 1.0));
    tensor::SparseTensor In = tensor::buildFromTriplets(Coo, T);
    auto H = Cache.tryJitFor(Coo, Csr, codegen::Options(), In);
    ASSERT_TRUE(H.ok()) << H.status().toString();
    // Small dims share the pair's default plan: one handle throughout.
    if (!First)
      First = *H;
    EXPECT_EQ(H->get(), First.get());
    ASSERT_LE(Cache.routeCount(), PlanCache::kMaxRoutes);
  }
  EXPECT_GT(Cache.routeCount(), PlanCache::kMaxRoutes / 2);
}

TEST(RouteKey, EveryInputChangesTheKey) {
  // The memo serves a handle whose shape check passed for the key's
  // inputs, so every input that can change the route or the check must
  // change the key. Perturb each one alone; every key must be distinct.
  formats::Format Coo = formats::makeCOO(), Csr = formats::makeCSR();
  std::vector<std::string> Keys;
  auto key = [&](const codegen::Options &O,
                 const std::vector<int64_t> &Dims = {6, 6},
                 const std::string &In = "coo",
                 const std::string &Flags = "",
                 const formats::Format *Src = nullptr,
                 const formats::Format *Dst = nullptr) {
    Keys.push_back(convert::routeKey(Src ? *Src : Coo, Dst ? *Dst : Csr, O,
                                     In, Dims, Flags));
  };
  codegen::Options Base;
  key(Base);
  auto perturbed = [&](auto Mutate) {
    codegen::Options O;
    Mutate(O);
    key(O);
  };
  perturbed([](codegen::Options &O) { O.OptimizeQueries = false; });
  perturbed([](codegen::Options &O) { O.CounterReuse = false; });
  perturbed([](codegen::Options &O) { O.ForceUnseqEdges = true; });
  perturbed([](codegen::Options &O) { O.MaterializeRemap = true; });
  perturbed([](codegen::Options &O) { O.DimsHint = {6, 6}; });
  perturbed([](codegen::Options &O) { O.DimsHint = {66}; });
  perturbed([](codegen::Options &O) {
    O.ForceRank = codegen::RankStrategy::Sorted;
  });
  perturbed([](codegen::Options &O) {
    O.ForceRank = codegen::RankStrategy::Hashed;
  });
  perturbed([](codegen::Options &O) {
    O.ForceSort = codegen::SortStrategy::Merge;
  });
  perturbed([](codegen::Options &O) {
    O.ForceSort = codegen::SortStrategy::Radix;
  });
  perturbed([](codegen::Options &O) { O.ForceNoSharedSort = true; });
  perturbed([](codegen::Options &O) { O.ForceSortedRanking = true; });
  key(Base, {6, 7});
  key(Base, {66});
  key(Base, {6, 6, 1});
  key(Base, {6, 6}, "csr");
  key(Base, {6, 6}, "coo> h");
  key(Base, {6, 6}, "coo", "-O2");
  formats::Format Csc = formats::makeCSC();
  key(Base, {6, 6}, "coo", "", &Csc);
  key(Base, {6, 6}, "coo", "", nullptr, &Csc);
  std::set<std::string> Distinct(Keys.begin(), Keys.end());
  EXPECT_EQ(Distinct.size(), Keys.size());
  // And the key is a function of its inputs alone.
  EXPECT_EQ(convert::routeKey(Coo, Csr, Base, "coo", {6, 6}, ""), Keys[0]);
}
