//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing conversion API: compile once per (source, target)
/// format pair, then convert tensors. This header's Converter executes
/// through the reference interpreter; the JIT backend (jit/Jit.h) runs the
/// same generated routine as native code.
///
/// \code
///   Converter Conv(formats::makeCOO(), formats::makeCSR());
///   tensor::SparseTensor Csr = Conv.run(Coo);
///   std::fputs(Conv.conversion().pretty().c_str(), stdout);
/// \endcode
///
/// Ownership: run() never aliases its input — the interpreter binds copies
/// of the source arrays and the result owns fresh storage. The JIT backend
/// is the zero-copy path: it binds source arrays by pointer and the result
/// tensor adopts the routine's malloc'd output buffers (see jit/Jit.h for
/// the full contract).
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_CONVERT_CONVERTER_H
#define CONVGEN_CONVERT_CONVERTER_H

#include "codegen/Generator.h"
#include "ir/Interpreter.h"
#include "planner/Planner.h"
#include "support/Deadline.h"
#include "support/Status.h"
#include "tensor/SparseTensor.h"

#include <memory>

namespace convgen {
namespace convert {

class Converter {
public:
  /// Obtains the generated routine through the process-wide PlanCache:
  /// the first Converter for a (source, target, options) triple runs
  /// codegen, later ones share its plan. Aborts on an unsupported pair;
  /// tryCreate is the checked form.
  Converter(formats::Format Source, formats::Format Target,
            codegen::Options Opts = codegen::Options());

  /// Checked construction: an unsupported pair comes back as
  /// ErrorCode::Unsupported with the planner's diagnostic instead of
  /// aborting.
  static StatusOr<Converter> tryCreate(formats::Format Source,
                                       formats::Format Target,
                                       codegen::Options Opts =
                                           codegen::Options());

  const codegen::Conversion &conversion() const { return *Conv; }

  /// Converts \p In (which must be in the source format) by interpreting
  /// the generated routine. The result is fully validated in debug use via
  /// SparseTensor::validate by the caller if desired. Aborts on request
  /// errors; tryRun is the checked form.
  tensor::SparseTensor run(const tensor::SparseTensor &In) const;

  /// Checked conversion: execute() on the interpreter engine. A tensor in
  /// the wrong format, an unsorted source where the plan requires order,
  /// or dimensions no plan supports come back as a Status instead of
  /// aborting; an expired \p Deadline comes back as DeadlineExceeded.
  StatusOr<tensor::SparseTensor>
  tryRun(const tensor::SparseTensor &In,
         const support::Deadline &Deadline = {}) const;

private:
  explicit Converter(std::shared_ptr<const codegen::Conversion> Plan)
      : Conv(std::move(Plan)) {}

  std::shared_ptr<const codegen::Conversion> Conv;
};

using planner::Engine;

/// What one execute() call did, for callers that keep their own books.
struct ExecInfo {
  /// The path planner engaged (see planner::Decision::Engaged).
  bool Engaged = false;
  /// Its choice came from measured outcomes overriding the analytic model.
  bool MeasuredWin = false;
  /// The result came from the planner's two-hop chain through COO.
  bool TwoHop = false;
  /// The result came from a direct conversion under a planner-forced
  /// strategy assignment (not the default plan).
  bool Forced = false;
  /// Some hop of the path that produced the result ran on a degraded
  /// (interpreter-backed) JIT handle.
  bool Degraded = false;
};

/// The one execution pipeline behind every entry point (Converter::tryRun,
/// ConversionService::convert / submit / submitBatch): converts \p In from
/// \p Source to \p Target on engine \p E. In order, it
///  1. fails with DeadlineExceeded if \p Deadline has already expired;
///  2. rejects a tensor whose format is not \p Source (InvalidArgument);
///  3. asks planner::decide for this engine's path;
///  4. runs a chosen variant marked NeedsOrderedSource only on a source
///     stored in lexicographic order, where its output is the direct
///     plan's bit for bit; any other source takes the direct path, which
///     checks the order it needs as it runs, so planner-on and planner-off
///     accept the same inputs and return the same layout;
///  5. acquires every hop (interpreter: PlanCache::tryPlan, dims-routed for
///     the direct hop; JIT: PlanCache::tryJitFor for the direct hop,
///     PlanCache::tryJit for variant hops), then runs the chain, checking
///     the deadline before each hop;
///  6. reruns a failed variant path through the direct plan, logging
///     planner-fallback, unless it failed on the deadline;
///  7. records the measured run under the served candidate's outcome key
///     when the planner engaged.
/// Deadline expiries are logged once, where they are detected. \p Info
/// (optional) receives what happened.
StatusOr<tensor::SparseTensor>
execute(Engine E, const formats::Format &Source, const formats::Format &Target,
        const codegen::Options &Opts, const tensor::SparseTensor &In,
        const support::Deadline &Deadline = {}, ExecInfo *Info = nullptr);

/// Binds \p In's arrays/dims/params as interpreter inputs under the "A"
/// naming convention (shared with the JIT runner's marshalling).
void bindSourceTensor(ir::Interpreter &Interp, const tensor::SparseTensor &In);

/// Enforces the plan's source-order requirement (Conversion's
/// LexCheckLevels): returns ErrorCode::InvalidArgument with a diagnostic
/// when \p In's leading levels are not lexicographically sorted but the
/// routine's dedup assembly assumes they are. Shared by the interpreter
/// and JIT runners.
Status checkSourceOrder(const codegen::Conversion &Conv,
                        const tensor::SparseTensor &In);

/// Assembles the output tensor from interpreter yields.
tensor::SparseTensor collectTargetTensor(const formats::Format &Target,
                                         const std::vector<int64_t> &Dims,
                                         ir::RunResult &Result);

} // namespace convert
} // namespace convgen

#endif // CONVGEN_CONVERT_CONVERTER_H
