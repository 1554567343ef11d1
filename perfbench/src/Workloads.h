//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads: seeded request sets the driver feeds to
/// ConversionService. Each workload is a working set of (source format,
/// target format, input tensor) requests plus the load shape it is served
/// under (closed-loop clients x OpenMP threads per client). The program
/// under test sees only the generated tensors; the seed never reaches it.
///
///   small-allpairs  every supported order-2 and order-3 standard pair on
///                   1e3..3e4-nnz inputs (below the planner floor), so
///                   fixed per-request costs dominate; 4 clients x 1 thread
///   tensor3-sort    coo3->csf and csf->csf_102 on random, slice-skewed and
///                   huge-dims hypersparse order-3 tensors of 2.5e5..5e5
///                   nnz, where the sort phase dominates; 1 client x (host
///                   CPUs - 1) threads, leaving the system one CPU
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_PERFBENCH_WORKLOADS_H
#define CONVGEN_PERFBENCH_WORKLOADS_H

#include "formats/Format.h"
#include "tensor/SparseTensor.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One request of the working set. Input points into Workload::Inputs.
struct Request {
  convgen::formats::Format Src;
  convgen::formats::Format Dst;
  const convgen::tensor::SparseTensor *Input = nullptr;
  /// True nonzeros of the input (padding excluded), the throughput unit.
  int64_t Nnz = 0;
  /// Short description for diagnostics: "csr->dia cant@6.0e5".
  std::string Label;
};

struct Workload {
  std::string Name;
  int Clients = 1;
  int OmpThreads = 1;
  /// Owned inputs; requests borrow them.
  std::vector<std::unique_ptr<convgen::tensor::SparseTensor>> Inputs;
  std::vector<Request> Requests;
};

/// CPUs this process may run on (its affinity mask, as nproc counts them).
int hostThreads();

/// Runs Fn(0..N-1) on hostThreads() threads, indices handed out in order.
void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

/// Builds \p Name's working set from \p Seed; false on an unknown name.
bool makeWorkload(const std::string &Name, uint64_t Seed, Workload *Out);

} // namespace perfbench

#endif // CONVGEN_PERFBENCH_WORKLOADS_H
