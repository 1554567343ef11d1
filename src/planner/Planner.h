//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conversion path planner: one decision layer for every strategy knob.
///
/// Given a (source, target) pair and the input tensor's statistics (nnz,
/// dimension sizes), the planner enumerates candidate execution paths —
/// the direct conversion under each meaningfully distinct strategy
/// assignment (sorted vs hashed ranking, merge vs packed-radix sort,
/// shared sort on/off, sorted-ranking forced below the dense budget) plus
/// legal two-hop chains through COO — estimates the cost of each from a
/// simple analytic model, and picks the plan the conversion runners
/// execute. The scattered per-knob heuristics (the rank-strategy width
/// rule, the sort-strategy packability rule, the 64 MiB dense-budget flip)
/// stay where they are as the *defaults*; the planner reasons about
/// deviations from them through codegen::Options' planner-forced fields.
///
/// Environment knobs always win: a pinned CONVGEN_RANK_STRATEGY /
/// CONVGEN_SORT_STRATEGY / CONVGEN_NO_SHARED_SORT suppresses the
/// corresponding candidates (codegen would ignore the forced field
/// anyway), so explicit pinning behaves exactly as before the planner
/// existed.
///
/// Auto-tuning: every planner-executed conversion records its measured
/// wall-clock into the PlanCache's outcome store, keyed by (pair,
/// log2-bucketed nnz and dims, strategy label, engine and thread count),
/// so interpreter timings never steer a native decision and a 1-thread
/// measurement never steers a 4-thread one. Once a candidate has
/// CONVGEN_PLANNER_TRUST_AFTER observations, decide() trusts measurements
/// over the analytic model: if both the analytic favourite and some other
/// candidate are measured and the other's mean beats the favourite's by
/// more than CONVGEN_PLANNER_MARGIN, the measurement wins. Cold candidates
/// keep competing on analytic cost, so the first few conversions of a new
/// shape explore and later ones exploit.
///
/// Correctness contract: every request is served the direct plan's output
/// bit for bit. On a source stored in lexicographic order every candidate
/// computes exactly that output (strategies are pure implementation
/// choices, and chainLegal() rejects intermediates that would drop
/// information the target preserves — see the duplicate-tuple and
/// order-requirement predicates). On any other source (a shuffled COO) a
/// candidate that places some level in coordinate order where the direct
/// plan follows the source's order would sort segments the direct plan
/// does not; such candidates carry NeedsOrderedSource, and
/// convert::execute() runs them only on an ordered source, serving every
/// other one the direct path. That also preserves the direct path's
/// acceptance behaviour: a source tensor the default plan would reject
/// (unsorted where its dedup assembly requires order) is rejected no
/// matter which path the planner chose.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_PLANNER_PLANNER_H
#define CONVGEN_PLANNER_PLANNER_H

#include "codegen/Generator.h"
#include "formats/Format.h"
#include "tensor/SparseTensor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace convgen {
namespace planner {

/// The input statistics the cost model consumes. Cheap to compute: nnz is
/// the stored size (an upper bound for padded formats, which is fine — the
/// model only ranks candidates) and the dims are copied.
struct InputStats {
  int64_t Nnz = 0;
  std::vector<int64_t> Dims;

  static InputStats fromTensor(const tensor::SparseTensor &In);
};

/// The engine that executes a decision's hops. Outcomes are recorded and
/// consulted per engine (see engineTag).
enum class Engine { Interpreter, Jit };

/// One conversion step of a candidate path, with the exact options the
/// runner must plan/compile it under (dims hint and planner-forced
/// strategy fields included).
struct Hop {
  formats::Format Src;
  formats::Format Dst;
  codegen::Options Opts;
};

/// A candidate execution path for the pair.
struct Candidate {
  enum class Path { Direct, TwoHop };
  Path Kind = Path::Direct;
  /// Stable strategy label, also a component of OutcomeKey:
  /// "direct", "direct+sorted", "rank=sorted", "rank=hashed",
  /// "sort=merge", "nosharedsort", "via-coo".
  std::string Label;
  /// One hop for Direct, two for TwoHop (source -> mid, mid -> target).
  std::vector<Hop> Hops;
  /// The candidate may run only on a source stored in lexicographic order:
  /// it is a chain or places some level by another method than the direct
  /// plan (in coordinate order where the direct plan follows the source's
  /// order, or the reverse), so only there do the layouts agree; or the
  /// direct plan itself requires order (LexCheckLevels), and rejecting an
  /// unsorted source must not depend on the path.
  bool NeedsOrderedSource = false;
  /// Abstract element-operation estimate from the analytic model (not
  /// seconds; comparable only across candidates of one decide() call).
  double AnalyticCost = 0;
  /// True when the outcome store had >= trust-threshold observations.
  bool Measured = false;
  /// Mean measured seconds (valid when Measured).
  double MeasuredMean = 0;
  /// The outcome-store key this candidate records under.
  std::string OutcomeKey;
};

/// decide()'s verdict.
struct Decision {
  /// False: the planner stands aside (disabled, input below the nnz
  /// engagement floor, caller already forced strategies, or the direct
  /// pair is unsupported) and the runner takes its classic path. Why says
  /// which.
  bool Engaged = false;
  std::string Why;
  /// True when measured outcomes overrode the analytic favourite.
  bool MeasuredWin = false;
  Candidate Chosen;                ///< Valid when Engaged.
  /// All enumerated candidates; the first is always "direct".
  std::vector<Candidate> Considered;
};

/// True when routing Src -> Mid -> Dst is semantically equivalent to the
/// direct conversion for every input tensor:
///  * all three formats store the same canonical order;
///  * Mid differs from both endpoints;
///  * Mid does not drop duplicate coordinate tuples both endpoints can
///    represent (csc -> coo -> bcsr-shaped chains deduplicate in the
///    middle — illegal when source duplicates would survive a direct
///    conversion);
///  * neither Src nor Mid carries padded values (explicit-zero filtering
///    in the middle would alter what the target stores);
///  * both hops are supported at these dims; and
///  * the second hop's plan needs no source-order validation
///    (LexCheckLevels == 0), since the first hop's output order is
///    data-dependent (csc -> coo legally yields column-major coo).
/// On failure \p Why (optional) names the violated predicate.
bool chainLegal(const formats::Format &Src, const formats::Format &Mid,
                const formats::Format &Dst, const std::vector<int64_t> &Dims,
                std::string *Why = nullptr);

/// The outcome-key component naming who measured: "interp.t1" (the
/// interpreter is serial) or "jit.t<N>", N the calling thread's
/// omp_get_max_threads() (1 without OpenMP) — the threads a JIT routine
/// called from this thread runs on.
std::string engineTag(Engine E);

/// The outcome-store key for (pair, stats, strategy label, engine tag). Nnz
/// and dims are log2-bucketed so measurements generalize across inputs of
/// similar shape: "coo3->csf|n20|d11x11x6|direct|jit.t4".
std::string outcomeKey(const formats::Format &Src, const formats::Format &Dst,
                       const InputStats &Stats, const std::string &Label,
                       const std::string &EngineTag);

/// The analytic cost model: abstract element operations to execute \p Plan
/// on an input with \p Stats. Monotone non-decreasing in nnz for a fixed
/// plan shape (the property the unit tests pin). Infinity for unsupported
/// plans.
double analyticPlanCost(const codegen::AssemblyPlan &Plan,
                        const InputStats &Stats);

/// The decision layer: enumerate, cost, consult measured outcomes, pick.
/// \p BaseOpts are the caller's options (ablation toggles are inherited by
/// every candidate); a caller that already forced strategies disengages
/// the planner. Measurements are read (and candidates keyed) for engine
/// \p E (see engineTag).
Decision decide(const formats::Format &Src, const formats::Format &Dst,
                const codegen::Options &BaseOpts, const InputStats &Stats,
                Engine E = Engine::Jit);

} // namespace planner
} // namespace convgen

#endif // CONVGEN_PLANNER_PLANNER_H
