//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "convert/Converter.h"

#include "convert/PlanCache.h"
#include "ir/Interpreter.h"
#include "jit/Jit.h"
#include "support/Assert.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"

#include <array>
#include <chrono>

using namespace convgen;
using namespace convgen::convert;
using formats::LevelKind;

Converter::Converter(formats::Format Source, formats::Format Target,
                     codegen::Options Opts)
    : Conv(PlanCache::instance().plan(Source, Target, Opts)) {}

StatusOr<Converter> Converter::tryCreate(formats::Format Source,
                                         formats::Format Target,
                                         codegen::Options Opts) {
  StatusOr<std::shared_ptr<const codegen::Conversion>> Plan =
      PlanCache::instance().tryPlan(Source, Target, Opts);
  if (!Plan.ok())
    return Plan.status();
  return Converter(Plan.take());
}

void convert::bindSourceTensor(ir::Interpreter &Interp,
                               const tensor::SparseTensor &In) {
  for (size_t D = 0; D < In.Dims.size(); ++D)
    Interp.bindScalar("dim" + std::to_string(D), In.Dims[D]);
  for (size_t K = 0; K < In.Format.Levels.size(); ++K) {
    const tensor::LevelStorage &L = In.Levels[K];
    std::string Base = "A" + std::to_string(K + 1);
    switch (In.Format.Levels[K].Kind) {
    case LevelKind::Compressed:
      Interp.bindIntBuffer(Base + "_pos", L.Pos);
      Interp.bindIntBuffer(Base + "_crd", L.Crd);
      break;
    case LevelKind::Singleton:
      Interp.bindIntBuffer(Base + "_crd", L.Crd);
      break;
    case LevelKind::Squeezed:
      Interp.bindIntBuffer(Base + "_perm", L.Perm);
      Interp.bindScalar(Base + "_param", L.SizeParam);
      break;
    case LevelKind::Sliced:
      Interp.bindScalar(Base + "_param", L.SizeParam);
      break;
    case LevelKind::Skyline:
      Interp.bindIntBuffer(Base + "_pos", L.Pos);
      break;
    case LevelKind::Dense:
    case LevelKind::Offset:
      break;
    }
  }
  Interp.bindFloatBuffer("A_vals", In.Vals);
}

tensor::SparseTensor
convert::collectTargetTensor(const formats::Format &Target,
                             const std::vector<int64_t> &Dims,
                             ir::RunResult &Result) {
  tensor::SparseTensor Out;
  Out.Format = Target;
  Out.Dims = Dims;
  Out.Levels.resize(Target.Levels.size());
  for (size_t K = 0; K < Target.Levels.size(); ++K) {
    std::string Base = "B" + std::to_string(K + 1);
    tensor::LevelStorage &L = Out.Levels[K];
    auto takeInts = [&](const std::string &Slot,
                        tensor::OwnedArray<int32_t> &Dest) {
      auto It = Result.Buffers.find(Slot);
      if (It == Result.Buffers.end())
        fatalError(("conversion did not yield " + Slot).c_str());
      Dest = It->second.Ints;
    };
    switch (Target.Levels[K].Kind) {
    case LevelKind::Compressed:
      takeInts(Base + "_pos", L.Pos);
      takeInts(Base + "_crd", L.Crd);
      break;
    case LevelKind::Singleton:
      takeInts(Base + "_crd", L.Crd);
      break;
    case LevelKind::Squeezed:
      takeInts(Base + "_perm", L.Perm);
      L.SizeParam = Result.Scalars.at(Base + "_param");
      break;
    case LevelKind::Sliced:
      L.SizeParam = Result.Scalars.at(Base + "_param");
      break;
    case LevelKind::Skyline:
      takeInts(Base + "_pos", L.Pos);
      break;
    case LevelKind::Dense:
    case LevelKind::Offset:
      break;
    }
  }
  auto It = Result.Buffers.find("B_vals");
  if (It == Result.Buffers.end())
    fatalError("conversion did not yield B_vals");
  Out.Vals = It->second.Floats;
  return Out;
}

Status convert::checkSourceOrder(const codegen::Conversion &Conv,
                                 const tensor::SparseTensor &In) {
  if (Conv.LexCheckLevels <= 0)
    return Status();
  std::string Why;
  if (!In.lexOrderedUpTo(Conv.LexCheckLevels, &Why))
    return Status::error(
        ErrorCode::InvalidArgument,
        strfmt("conversion %s -> %s requires a lexicographically sorted "
               "source (its dedup assembly visits grouping coordinates as "
               "an ordered prefix), but the input is unsorted: %s",
               Conv.Source.Name.c_str(), Conv.Target.Name.c_str(),
               Why.c_str()));
  return Status();
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Returns a deadline that expired at \p Where, logging it unless a lower
/// layer already has (\p Logged).
Status deadlineExpired(const formats::Format &Source,
                       const formats::Format &Target, const char *Where,
                       bool Logged = false) {
  if (!Logged)
    support::DegradationLog::instance().record(
        support::Degradation::DeadlineExceeded,
        strfmt("%s -> %s: %s", Source.Name.c_str(), Target.Name.c_str(),
               Where));
  return Status::error(ErrorCode::DeadlineExceeded,
                       strfmt("request deadline expired %s", Where));
}

/// One acquired hop: the plan the interpreter runs, or the JIT handle.
struct HopHandle {
  std::shared_ptr<const codegen::Conversion> Plan;
  std::shared_ptr<jit::JitConversion> Native;
};

/// A candidate path has one hop (direct) or two (a chain through COO).
constexpr size_t kMaxHops = 2;

/// The engine's hop acquisition. \p Direct marks the request's own pair
/// under the caller's options, which each engine routes to the plan the
/// input's dims need; variant hops carry fully routed options already.
StatusOr<HopHandle> acquireHop(Engine E, const formats::Format &Src,
                               const formats::Format &Dst,
                               const codegen::Options &Opts, bool Direct,
                               const tensor::SparseTensor &In,
                               const support::Deadline &Deadline) {
  PlanCache &Cache = PlanCache::instance();
  HopHandle H;
  switch (E) {
  case Engine::Interpreter: {
    StatusOr<std::shared_ptr<const codegen::Conversion>> P = Cache.tryPlan(
        Src, Dst,
        Direct ? codegen::optionsForDims(Src, Dst, Opts, In.Dims) : Opts,
        Deadline);
    if (!P.ok())
      return P.status();
    H.Plan = P.take();
    break;
  }
  case Engine::Jit: {
    StatusOr<std::shared_ptr<jit::JitConversion>> J =
        Direct ? Cache.tryJitFor(Src, Dst, Opts, In, "", Deadline)
               : Cache.tryJit(Src, Dst, Opts, "", Deadline);
    if (!J.ok())
      return J.status();
    H.Native = J.take();
    break;
  }
  }
  return H;
}

/// The engine's hop run; both check the source order the plan requires.
StatusOr<tensor::SparseTensor> runHop(Engine E, const HopHandle &H,
                                      const tensor::SparseTensor &In) {
  switch (E) {
  case Engine::Interpreter: {
    Status Order = checkSourceOrder(*H.Plan, In);
    if (!Order.ok())
      return Order;
    ir::Interpreter Interp;
    bindSourceTensor(Interp, In);
    ir::RunResult Result = Interp.run(H.Plan->Func);
    return collectTargetTensor(H.Plan->Target, In.Dims, Result);
  }
  case Engine::Jit:
    return H.Native->tryRunShaped(In);
  }
  convgen_unreachable("unknown engine");
}

/// Acquires every hop of one path — \p Variant's, or the direct hop when
/// null — up front (codegen and compiles are once-per-process costs, not
/// per-conversion ones), then runs the chain with a deadline check before
/// each hop. \p Seconds (optional) receives the chain's wall-clock,
/// \p Degraded whether any hop ran on a degraded JIT handle.
StatusOr<tensor::SparseTensor>
runPath(Engine E, const formats::Format &Source, const formats::Format &Target,
        const codegen::Options &Opts, const planner::Candidate *Variant,
        const tensor::SparseTensor &In, const support::Deadline &Deadline,
        double *Seconds, bool *Degraded) {
  size_t N = Variant ? Variant->Hops.size() : 1;
  CONVGEN_ASSERT(N >= 1 && N <= kMaxHops,
                 "candidate path of unexpected length");
  std::array<HopHandle, kMaxHops> Hops;
  // A compile the request's deadline cut short has logged the expiry.
  bool CompileCutShort = false;
  for (size_t I = 0; I < N; ++I) {
    StatusOr<HopHandle> H =
        Variant ? acquireHop(E, Variant->Hops[I].Src, Variant->Hops[I].Dst,
                             Variant->Hops[I].Opts, false, In, Deadline)
                : acquireHop(E, Source, Target, Opts, true, In, Deadline);
    if (!H.ok())
      return H.status();
    Hops[I] = H.take();
    CompileCutShort = CompileCutShort ||
                      (Hops[I].Native &&
                       Hops[I].Native->degradedByRequestDeadline());
  }
  std::chrono::steady_clock::time_point Start;
  if (Seconds)
    Start = std::chrono::steady_clock::now();
  tensor::SparseTensor Staged;
  for (size_t I = 0;; ++I) {
    if (Deadline.expired())
      return deadlineExpired(Source, Target,
                             I ? "between planned hops"
                               : "after plan/JIT acquisition",
                             CompileCutShort);
    StatusOr<tensor::SparseTensor> Out = runHop(E, Hops[I], I ? Staged : In);
    if (!Out.ok())
      return Out;
    *Degraded = *Degraded || (Hops[I].Native && Hops[I].Native->degraded());
    if (I + 1 == N) {
      if (Seconds)
        *Seconds = secondsSince(Start);
      return Out;
    }
    Staged = Out.take();
  }
}

} // namespace

StatusOr<tensor::SparseTensor>
convert::execute(Engine E, const formats::Format &Source,
                 const formats::Format &Target, const codegen::Options &Opts,
                 const tensor::SparseTensor &In,
                 const support::Deadline &Deadline, ExecInfo *Info) {
  ExecInfo Local;
  ExecInfo &X = Info ? *Info : Local;
  X = ExecInfo();
  if (Deadline.expired())
    return deadlineExpired(Source, Target, "on entry");
  if (In.Format.Name != Source.Name)
    return Status::error(
        ErrorCode::InvalidArgument,
        strfmt("conversion from '%s' got a '%s' tensor", Source.Name.c_str(),
               In.Format.Name.c_str()));
  // The path planner picks the cheapest equivalent strategy assignment or
  // two-hop chain for this input on this engine; its "direct" choice is
  // exactly the dims-routed default plan, so a disengaged planner and an
  // engaged-but-default one run (and cache) identically.
  planner::Decision Route = planner::decide(
      Source, Target, Opts, planner::InputStats::fromTensor(In), E);
  X.Engaged = Route.Engaged;
  X.MeasuredWin = Route.MeasuredWin;
  double Seconds = 0;
  // A variant whose layout matches the direct plan's only on a source in
  // lexicographic order (NeedsOrderedSource) runs only on such a source;
  // any other (a shuffled COO) takes the direct path, which validates the
  // order it needs itself, so an unsorted source is a request error on
  // every path, never a fallback.
  if (Route.Engaged && Route.Chosen.Label != "direct" &&
      (!Route.Chosen.NeedsOrderedSource ||
       In.lexOrderedUpTo(static_cast<int>(In.Format.Levels.size())))) {
    bool Degraded = false;
    StatusOr<tensor::SparseTensor> Planned =
        runPath(E, Source, Target, Opts, &Route.Chosen, In, Deadline,
                &Seconds, &Degraded);
    if (Planned.ok()) {
      PlanCache::instance().recordOutcome(Route.Chosen.OutcomeKey, Seconds);
      X.TwoHop = Route.Chosen.Kind == planner::Candidate::Path::TwoHop;
      X.Forced = !X.TwoHop;
      X.Degraded = Degraded;
      return Planned;
    }
    if (Planned.status().code() == ErrorCode::DeadlineExceeded)
      return Planned;
    // Any other failure is the variant's: the planner must never make a
    // convertible input fail.
    support::DegradationLog::instance().record(
        support::Degradation::PlannerFallback,
        strfmt("%s -> %s: planned path '%s' failed (%s); using the direct "
               "conversion",
               Source.Name.c_str(), Target.Name.c_str(),
               Route.Chosen.Label.c_str(),
               Planned.status().message().c_str()));
  }
  StatusOr<tensor::SparseTensor> Out =
      runPath(E, Source, Target, Opts, nullptr, In, Deadline,
              Route.Engaged ? &Seconds : nullptr, &X.Degraded);
  if (Out.ok() && Route.Engaged)
    PlanCache::instance().recordOutcome(Route.Considered.front().OutcomeKey,
                                        Seconds);
  return Out;
}

StatusOr<tensor::SparseTensor>
Converter::tryRun(const tensor::SparseTensor &In,
                  const support::Deadline &Deadline) const {
  return execute(Engine::Interpreter, Conv->Source, Conv->Target, Conv->Opts,
                 In, Deadline);
}

tensor::SparseTensor Converter::run(const tensor::SparseTensor &In) const {
  StatusOr<tensor::SparseTensor> R = tryRun(In);
  if (!R.ok())
    fatalError(R.status().message().c_str());
  return R.take();
}
