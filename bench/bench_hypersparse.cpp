//===----------------------------------------------------------------------===//
// Huge-dimension hyper-sparse benchmark: the workload class the
// sorted-ranking strategy opens. A coo3 tensor with a 2^31-extent mode
// cannot go through dense rank-array assembly at all (the rank array alone
// would be 5 * 2^31 bytes — the planner reports the size-grounds verdict,
// printed below), while the sorted path converts it with O(nnz)
// workspaces; the nnz sweep demonstrates the cost tracking nnz rather than
// any dimension extent.
//
// Each nnz point is measured under three list-construction variants so the
// strategy knobs' effect is a recorded number, not a claim:
//
//   shared     one full-arity sort, ancestor lists by prefix compaction
//              (the default for nested sorted levels)
//   per-level  CONVGEN_NO_SHARED_SORT=1 CONVGEN_RANK_STRATEGY=sorted —
//              the pre-shared-sort behavior: every level re-collects and
//              re-sorts the same nonzeros
//   hashed     CONVGEN_RANK_STRATEGY=hashed — open-addressing dedup before
//              the (shared) sort
//
// A second leg pits the two sort lowerings against each other at
// dimensions whose coordinate tuple packs into 64 bits (2^24 x 2^20 x
// 2^20 = exactly 64 key bits — still far past the dense-rank budget, so
// every level stays sorted): "merge" forces the fully unpacked strategy
// (comparison merge sort + a tuple-compare binary search per inserted
// nonzero), "radix" the packed-key strategy (fused LSD radix sort +
// dedup whose source-slot payload precomputes every insertion rank — no
// searches at all) that is the auto default whenever the dims hint
// proves the fit. The two variants run in interleaved pairs and the
// speedup is the median of per-rep ratios (see runPairedRows: sequential
// timing see-saws with container load drift). Every row
// carries the routine's own
// per-phase seconds (analysis / edge_insert / insertion / finalize plus
// the sorted-ranking sub-phases collect / sort / pos / crd), so a sort-
// strategy win is attributable to the sort phase, not smeared over the
// whole conversion.
//
// A third leg prices the ordered lead (the planner's count of leading
// tuple components the source order leaves unsorted) against the full
// sort every plan ran before it, on one routine whose sort statements are
// rewritten to lead = arity: csf -> csf_102 at the huge dims (the source
// is ordered except for the new leading mode, lead 1), and coo3 -> csf on
// a shuffled COO (lead 0's check fails, so the ratio is the fallback's
// price: the wasted O(nnz) verification). Both run as interleaved pairs
// with median-of-ratio speedups. The rank payload is on in both variants,
// so this leg isolates the lead; the searches it replaced are gone from
// both.
//
// Emits a human-readable table and machine-readable BENCH_hypersparse.json
// (speedup columns included). Environment: CONVGEN_BENCH_SCALE /
// CONVGEN_BENCH_REPS as usual; scale 1.0 runs the full 10^6-nonzero point
// the shared-vs-per-level and radix-vs-merge acceptance numbers are
// defined at, the default 0.2 a 200k smoke point.
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/Knobs.h"
#include "ir/IR.h"
#include "support/StringUtils.h"
#include "tensor/Generators.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace convgen;
using namespace convgen::bench;

namespace {

int64_t scaled(int64_t V) {
  return std::max<int64_t>(
      64, static_cast<int64_t>(static_cast<double>(V) * benchScale()));
}

const char *const kPhaseNames[jit::kNumPhases] = {
    "analysis", "edge_insert", "insertion", "finalize",
    "collect",  "sort",        "pos",       "crd"};

std::string phasesJson(const double Phases[jit::kNumPhases]) {
  std::string S = "{";
  for (int P = 0; P < jit::kNumPhases; ++P)
    S += strfmt("%s\"%s\": %.6f", P ? ", " : "", kPhaseNames[P], Phases[P]);
  return S + "}";
}

/// One list-construction variant: a label plus the env overrides that
/// select it. Overrides are applied for plan acquisition AND the timed
/// runs (the plan key re-derives its strategy bits from the environment,
/// so each variant lands on its own cached plan and JIT object). Every
/// variant pins ALL three strategy knobs — including CONVGEN_SORT_STRATEGY
/// — so an ambient setting in the caller's environment cannot relabel a
/// row.
struct Variant {
  const char *Label;
  std::vector<std::pair<const char *, const char *>> Env;
};

class ScopedVariant {
public:
  explicit ScopedVariant(const Variant &V) {
    for (const auto &[Name, Value] : V.Env) {
      const char *Old = std::getenv(Name);
      Saved.emplace_back(Name, Old ? std::make_optional<std::string>(Old)
                                   : std::nullopt);
      setenv(Name, Value, 1);
    }
    // The strategy knobs are a one-time snapshot; flipping the
    // environment only takes effect through an explicit reload.
    codegen::reloadKnobsFromEnv();
  }
  ~ScopedVariant() {
    // Restore, don't unset: an ambient knob (e.g. the README-documented
    // CONVGEN_RANK_STRATEGY) must survive across variants, or later
    // "shared" rows would silently measure a different configuration.
    for (const auto &[Name, Old] : Saved) {
      if (Old)
        setenv(Name, Old->c_str(), 1);
      else
        unsetenv(Name);
    }
    codegen::reloadKnobsFromEnv();
  }

private:
  std::vector<std::pair<const char *, std::optional<std::string>>> Saved;
};

/// Prints + records one timed row from precomputed stats and phases.
void emitRow(const char *Leg, const char *VariantLabel, int64_t Nnz,
             const TimeStats &S, const double Phases[jit::kNumPhases],
             BenchReport &Report) {
  std::string Label = strfmt("%s.%lldk.%s", Leg,
                             static_cast<long long>(Nnz / 1000), VariantLabel);
  double NsPerNnz =
      Nnz ? S.MedianSeconds * 1e9 / static_cast<double>(Nnz) : 0;
  std::printf("%-26s %12.3f %12.3f %14.1f\n", Label.c_str(),
              S.MedianSeconds * 1e3, S.MinSeconds * 1e3, NsPerNnz);
  std::printf("  phases:");
  for (int P = 0; P < jit::kNumPhases; ++P)
    std::printf(" %s %.3fms", kPhaseNames[P], Phases[P] * 1e3);
  std::printf("\n");
  Report.add(strfmt("{\"label\": \"%s\", \"variant\": \"%s\", "
                    "\"nnz\": %lld, \"median_seconds\": %.6g, "
                    "\"min_seconds\": %.6g, \"ns_per_nnz\": %.1f, "
                    "\"phases\": %s}",
                    Label.c_str(), VariantLabel, static_cast<long long>(Nnz),
                    S.MedianSeconds, S.MinSeconds, NsPerNnz,
                    phasesJson(Phases).c_str()));
}

/// Times coo3->csf under \p V at \p Dims, prints the table row, records
/// the JSON row (with the per-phase breakdown), and returns the median.
double runVariantRow(const Variant &V, const std::vector<int64_t> &Dims,
                     const tensor::SparseTensor &In, int64_t Nnz,
                     const char *Leg, BenchReport &Report) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  ScopedVariant Env(V);
  codegen::Options Opts = codegen::optionsForDims(Coo3, Csf, {}, Dims);
  const jit::JitConversion &Fwd = jitConversion("coo3", "csf", Opts);
  double Phases[jit::kNumPhases] = {};
  TimeStats S = timeJitWithPhases(Fwd, In, Phases);
  emitRow(Leg, V.Label, Nnz, S, Phases, Report);
  return S.MedianSeconds;
}

/// Times two routines on the same input in interleaved pairs: every rep
/// runs routine A then routine B back-to-back, and the returned speedup is
/// the MEDIAN OF THE PER-REP RATIOS time(A)/time(B). On a shared dev
/// container, load drift between two separately timed variants easily
/// exceeds the effect under measurement; pairing puts both sides of every
/// ratio under near-identical machine state, so the ratio median converges
/// where sequential medians see-saw. Emits one row per routine
/// (median/min/phases over the paired reps).
double runPairedRoutines(const jit::JitConversion *const Convs[2],
                         const char *const Labels[2],
                         const tensor::SparseTensor &In, int64_t Nnz,
                         const char *Leg, BenchReport &Report) {
  jit::CTensor A;
  jit::marshalInput(In, &A);
  int Reps = benchReps();
  std::vector<double> Times[2];
  std::vector<double> Before[2];
  for (int V = 0; V < 2; ++V) {
    Before[V].assign(static_cast<size_t>(jit::kNumPhases), 0);
    if (const double *P = Convs[V]->phaseSeconds())
      Before[V].assign(P, P + jit::kNumPhases);
  }
  for (int Rep = 0; Rep < Reps; ++Rep)
    for (int V = 0; V < 2; ++V) {
      auto Begin = std::chrono::steady_clock::now();
      jit::CTensor B;
      Convs[V]->runRaw(&A, &B);
      jit::freeOutput(&B);
      Times[V].push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Begin)
                             .count());
    }
  std::vector<double> Ratios;
  for (int Rep = 0; Rep < Reps; ++Rep)
    if (Times[1][static_cast<size_t>(Rep)] > 0)
      Ratios.push_back(Times[0][static_cast<size_t>(Rep)] /
                       Times[1][static_cast<size_t>(Rep)]);
  std::sort(Ratios.begin(), Ratios.end());
  double Speedup = Ratios.empty() ? 0 : Ratios[Ratios.size() / 2];
  for (int V = 0; V < 2; ++V) {
    std::vector<double> Sorted = Times[V];
    std::sort(Sorted.begin(), Sorted.end());
    TimeStats S{Sorted.front(), Sorted[Sorted.size() / 2]};
    double Phases[jit::kNumPhases] = {};
    if (const double *P = Convs[V]->phaseSeconds())
      for (int I = 0; I < jit::kNumPhases; ++I)
        Phases[I] = (P[I] - Before[V][static_cast<size_t>(I)]) /
                    static_cast<double>(Reps);
    emitRow(Leg, Labels[V], Nnz, S, Phases, Report);
  }
  return Speedup;
}

/// runPairedRoutines over coo3->csf planned under two knob variants.
double runPairedRows(const Variant &VA, const Variant &VB,
                     const std::vector<int64_t> &Dims,
                     const tensor::SparseTensor &In, int64_t Nnz,
                     const char *Leg, BenchReport &Report) {
  const jit::JitConversion *Convs[2];
  for (int V = 0; V < 2; ++V) {
    ScopedVariant Env(V == 0 ? VA : VB);
    formats::Format Coo3 = formats::standardFormatOrDie("coo3");
    formats::Format Csf = formats::standardFormatOrDie("csf");
    codegen::Options Opts = codegen::optionsForDims(Coo3, Csf, {}, Dims);
    Convs[V] = &jitConversion("coo3", "csf", Opts);
  }
  const char *const Labels[2] = {VA.Label, VB.Label};
  return runPairedRoutines(Convs, Labels, In, Nnz, Leg, Report);
}

/// Applies a seeded permutation to a COO tensor's stored entries (every
/// crd array and the values together): still a legal COO tensor with the
/// same nonzeros, but no prefix of its tuples is ordered.
void shuffleCooEntries(tensor::SparseTensor &T, uint64_t Seed) {
  size_t N = static_cast<size_t>(T.storedSize());
  std::vector<size_t> Perm(N);
  for (size_t I = 0; I < N; ++I)
    Perm[I] = I;
  std::mt19937_64 Rng(Seed);
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

/// A copy of \p S whose every sortUniqueRank sorts outright (lead = arity,
/// no order check): the full-sort lowering plans used before the ordered
/// lead, kept only here as the baseline it is measured against.
ir::Stmt withFullSortLead(const ir::Stmt &S) {
  if (!S)
    return S;
  auto Copy = std::make_shared<ir::StmtNode>(*S);
  if (Copy->Kind == ir::StmtKind::SortUniqueRank)
    Copy->OrderedLead = Copy->Arity;
  for (ir::Stmt &Sub : Copy->Stmts)
    Sub = withFullSortLead(Sub);
  Copy->Body = withFullSortLead(Copy->Body);
  Copy->Else = withFullSortLead(Copy->Else);
  return Copy;
}

/// Times \p Src -> \p Dst at \p Dims with the full-sort lead against the
/// planner's ordered lead, paired; returns full/ordered.
double runLeadPair(const char *Src, const char *Dst,
                   const std::vector<int64_t> &Dims,
                   const tensor::SparseTensor &In, int64_t Nnz,
                   const char *Leg, BenchReport &Report) {
  formats::Format Source = formats::standardFormatOrDie(Src);
  formats::Format Target = formats::standardFormatOrDie(Dst);
  codegen::Options Opts = codegen::optionsForDims(Source, Target, {}, Dims);
  codegen::Conversion Full = codegen::generateConversion(Source, Target, Opts);
  Full.Func.Body = withFullSortLead(Full.Func.Body);
  static std::vector<std::unique_ptr<jit::JitConversion>> Baselines;
  Baselines.push_back(std::make_unique<jit::JitConversion>(Full));
  const jit::JitConversion *Convs[2] = {Baselines.back().get(),
                                        &jitConversion(Src, Dst, Opts)};
  const char *const Labels[2] = {"fullsort", "ordered"};
  return runPairedRoutines(Convs, Labels, In, Nnz, Leg, Report);
}

} // namespace

int main() {
  if (!jit::jitAvailable()) {
    std::fprintf(stderr, "bench_hypersparse: no system C compiler\n");
    return 1;
  }
  BenchReport Report("BENCH_hypersparse.json");
  Report.metaStr("bench", "hypersparse");
  Report.meta("openmp", jit::jitOpenMPAvailable() ? "true" : "false");
  Report.meta("rank_dense_max_bytes",
              strfmt("%lld", static_cast<long long>(
                                 codegen::rankDenseMaxBytes())));

  const std::vector<int64_t> Dims = {int64_t(1) << 31, int64_t(1) << 20,
                                     int64_t(1) << 20};
  // 24 + 20 + 20 = 64 key bits: the largest extents whose coordinate
  // tuple still packs into one uint64_t, and still 5 * 2^24 bytes past the
  // dense-rank budget, so the plan keeps every CSF level sorted.
  const std::vector<int64_t> PackedDims = {int64_t(1) << 24,
                                           int64_t(1) << 20,
                                           int64_t(1) << 20};
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");

  // The dense path is genuinely rejected at these dimensions: without the
  // sorted fallback the planner's only honest answer is a size-grounds
  // diagnostic (exercised here through a pair that has no fallback), and
  // with it the plan switches every CSF level to sorted ranking sharing
  // one full-arity sort.
  {
    std::string Why;
    bool Rejected = !codegen::conversionSupported(
        formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("sky"),
        std::vector<int64_t>{Dims[0], Dims[0]}, &Why);
    std::printf("dense-path rejection (csr->sky at 2^31 rows):\n  %s\n\n",
                Rejected ? Why.c_str() : "UNEXPECTEDLY ACCEPTED");
    Report.meta("dense_path_rejected", Rejected ? "true" : "false");
    codegen::AssemblyPlan Plan = codegen::planAssembly(Coo3, Csf, Dims);
    std::string Sorted;
    for (bool S : Plan.Sorted)
      Sorted += S ? '1' : '0';
    std::printf("coo3->csf strategy at (2^31, 2^20, 2^20): sorted levels %s, "
                "shared-sort anchor level %d\n\n",
                Sorted.c_str(), Plan.SharedSortAnchor);
    Report.metaStr("sorted_levels", Sorted);
    Report.meta("shared_sort_anchor",
                strfmt("%d", Plan.SharedSortAnchor));
  }

  // Every knob is pinned in every variant, so an ambient
  // CONVGEN_RANK_STRATEGY / CONVGEN_NO_SHARED_SORT / CONVGEN_SORT_STRATEGY
  // in the caller's environment cannot relabel a row. The huge-dims leg
  // pins auto sort: a 2^31 extent cannot pack into 64 bits, so auto is the
  // merge sort there by construction.
  const Variant Variants[] = {
      {"shared",
       {{"CONVGEN_NO_SHARED_SORT", "0"},
        {"CONVGEN_RANK_STRATEGY", "sorted"},
        {"CONVGEN_SORT_STRATEGY", "auto"}}},
      {"perlevel",
       {{"CONVGEN_NO_SHARED_SORT", "1"},
        {"CONVGEN_RANK_STRATEGY", "sorted"},
        {"CONVGEN_SORT_STRATEGY", "auto"}}},
      {"hashed",
       {{"CONVGEN_NO_SHARED_SORT", "0"},
        {"CONVGEN_RANK_STRATEGY", "hashed"},
        {"CONVGEN_SORT_STRATEGY", "auto"}}},
  };

  std::printf("%-26s %12s %12s %14s\n", "case", "median_ms", "min_ms",
              "ns_per_nnz");
  const int64_t FullNnz = scaled(1000000);
  double SharedVsPerLevel = 0;
  for (int64_t Nnz : {FullNnz / 4, FullNnz / 2, FullNnz}) {
    tensor::Triplets T =
        tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], Nnz, 401);
    tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
    double MedianByVariant[3] = {0, 0, 0};
    for (size_t V = 0; V < 3; ++V)
      MedianByVariant[V] = runVariantRow(Variants[V], Dims, In, T.nnz(),
                                         "coo3_to_csf", Report);
    double Speedup = MedianByVariant[0] > 0
                         ? MedianByVariant[1] / MedianByVariant[0]
                         : 0;
    double HashedRatio = MedianByVariant[0] > 0
                             ? MedianByVariant[2] / MedianByVariant[0]
                             : 0;
    std::printf("  %-24s %.2fx vs per-level, hashed/shared %.2fx\n",
                "shared-sort speedup:", Speedup, HashedRatio);
    Report.add(strfmt("{\"label\": \"coo3_to_csf.%lldk.speedups\", "
                      "\"nnz\": %lld, "
                      "\"shared_vs_perlevel_speedup\": %.3f, "
                      "\"hashed_over_shared_ratio\": %.3f}",
                      static_cast<long long>(T.nnz() / 1000),
                      static_cast<long long>(T.nnz()), Speedup,
                      HashedRatio));
    if (Nnz == FullNnz)
      SharedVsPerLevel = Speedup;
  }
  Report.meta("shared_vs_perlevel_speedup_full",
              strfmt("%.3f", SharedVsPerLevel));

  // Radix-vs-merge leg at the packable dims: identical plan except for the
  // full-sort lowering, so the phase breakdown localizes the difference
  // to the sort slot.
  const Variant SortVariants[] = {
      {"merge",
       {{"CONVGEN_NO_SHARED_SORT", "0"},
        {"CONVGEN_RANK_STRATEGY", "sorted"},
        {"CONVGEN_SORT_STRATEGY", "merge"}}},
      {"radix",
       {{"CONVGEN_NO_SHARED_SORT", "0"},
        {"CONVGEN_RANK_STRATEGY", "sorted"},
        {"CONVGEN_SORT_STRATEGY", "radix"}}},
  };
  std::printf("\npacked-key sort strategy at (2^24, 2^20, 2^20):\n");
  double RadixVsMerge = 0;
  for (int64_t Nnz : {FullNnz / 4, FullNnz / 2, FullNnz}) {
    tensor::Triplets T = tensor::genHyperSparse3(
        PackedDims[0], PackedDims[1], PackedDims[2], Nnz, 401);
    tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
    double Speedup =
        runPairedRows(SortVariants[0], SortVariants[1], PackedDims, In,
                      T.nnz(), "coo3_to_csf_packed", Report);
    std::printf("  %-24s %.2fx (median of paired per-rep ratios)\n",
                "radix-vs-merge speedup:", Speedup);
    Report.add(strfmt("{\"label\": \"coo3_to_csf_packed.%lldk.speedups\", "
                      "\"nnz\": %lld, "
                      "\"radix_vs_merge_speedup\": %.3f, "
                      "\"method\": \"median_of_paired_rep_ratios\"}",
                      static_cast<long long>(T.nnz() / 1000),
                      static_cast<long long>(T.nnz()), Speedup));
    if (Nnz == FullNnz)
      RadixVsMerge = Speedup;
  }
  Report.meta("radix_vs_merge_speedup_full", strfmt("%.3f", RadixVsMerge));

  // Ordered-lead leg (auto knobs): csf -> csf_102 at the huge dims, then
  // shuffled COO sources for coo3 -> csf at both dims sets (merge and
  // packed-radix fallbacks).
  std::printf("\nordered lead vs full sort (median of paired per-rep "
              "ratios, full/ordered):\n");
  double LeadSpeedup = 0;
  for (int64_t Nnz : {FullNnz / 4, FullNnz}) {
    tensor::Triplets T =
        tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], Nnz, 401);
    tensor::SparseTensor InCsf = tensor::buildFromTriplets(Csf, T);
    double Speedup = runLeadPair("csf", "csf_102", Dims, InCsf, T.nnz(),
                                 "csf_to_csf102", Report);
    std::printf("  %-24s %.2fx\n", "csf->csf_102 lead 1:", Speedup);
    Report.add(strfmt("{\"label\": \"csf_to_csf102.%lldk.speedups\", "
                      "\"nnz\": %lld, \"ordered_vs_fullsort_speedup\": "
                      "%.3f, \"method\": \"median_of_paired_rep_ratios\"}",
                      static_cast<long long>(T.nnz() / 1000),
                      static_cast<long long>(T.nnz()), Speedup));
    if (Nnz == FullNnz)
      LeadSpeedup = Speedup;
  }
  Report.meta("csf_to_csf102_ordered_vs_fullsort_full",
              strfmt("%.3f", LeadSpeedup));
  for (const std::vector<int64_t> *D : {&Dims, &PackedDims}) {
    bool Packed = D == &PackedDims;
    tensor::Triplets T =
        tensor::genHyperSparse3((*D)[0], (*D)[1], (*D)[2], FullNnz, 401);
    tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
    shuffleCooEntries(In, 7);
    const char *Leg =
        Packed ? "coo3_to_csf_shuffled_packed" : "coo3_to_csf_shuffled";
    double Ratio = runLeadPair("coo3", "csf", *D, In, T.nnz(), Leg, Report);
    std::printf("  %-24s %.2fx (the check's fallback cost, %s)\n",
                "shuffled coo3->csf:", Ratio, Packed ? "radix" : "merge");
    Report.add(strfmt("{\"label\": \"%s.%lldk.speedups\", \"nnz\": %lld, "
                      "\"ordered_vs_fullsort_speedup\": %.3f, "
                      "\"method\": \"median_of_paired_rep_ratios\"}",
                      Leg, static_cast<long long>(T.nnz() / 1000),
                      static_cast<long long>(T.nnz()), Ratio));
  }

  // Round-trip leg: csf back to coo3 at the full point (needs no sorted
  // levels — the coo3 target has no dense ranking structures — so it also
  // documents that huge dims alone do not force the strategy).
  {
    tensor::Triplets T =
        tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], FullNnz, 401);
    tensor::SparseTensor InCsf = tensor::buildFromTriplets(Csf, T);
    codegen::Options Back = codegen::optionsForDims(Csf, Coo3, {}, Dims);
    const jit::JitConversion &Rev = jitConversion("csf", "coo3", Back);
    TimeStats S = timeJitStats(Rev, InCsf);
    std::printf("\n%-26s %12.3f %12.3f %14.1f\n", "csf_to_coo3",
                S.MedianSeconds * 1e3, S.MinSeconds * 1e3,
                T.nnz() ? S.MedianSeconds * 1e9 /
                              static_cast<double>(T.nnz())
                        : 0);
    Report.add(strfmt("{\"label\": \"csf_to_coo3\", \"nnz\": %lld, "
                      "\"median_seconds\": %.6g, \"min_seconds\": %.6g}",
                      static_cast<long long>(T.nnz()), S.MedianSeconds,
                      S.MinSeconds));
  }
  return Report.write() ? 0 : 1;
}
