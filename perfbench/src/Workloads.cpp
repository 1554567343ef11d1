//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "codegen/Generator.h"
#include "formats/Standard.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>

#include <sched.h>

using namespace convgen;

namespace perfbench {
namespace {

/// Distinct generator seeds per (run seed, slot).
uint64_t mix(uint64_t Seed, uint64_t Slot) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + Slot * 0xBF58476D1CE4E5B9ull;
  X ^= X >> 31;
  return X * 0x94D049BB133111EBull + 1;
}

std::string nnzTag(int64_t Nnz) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1e", static_cast<double>(Nnz));
  return Buf;
}

tensor::SparseTensor *own(Workload &W, tensor::SparseTensor T) {
  W.Inputs.push_back(std::make_unique<tensor::SparseTensor>(std::move(T)));
  return W.Inputs.back().get();
}

void addRequest(Workload &W, const formats::Format &Src,
                const formats::Format &Dst, const tensor::SparseTensor *In,
                int64_t Nnz, const std::string &What) {
  Request R;
  R.Src = Src;
  R.Dst = Dst;
  R.Input = In;
  R.Nnz = Nnz;
  R.Label = Src.Name + "->" + Dst.Name + " " + What + "@" + nnzTag(Nnz);
  W.Requests.push_back(std::move(R));
}

/// The planner's default engagement floor (CONVGEN_PLANNER_MIN_NNZ).
constexpr int64_t kPlannerFloor = 32768;

/// Every supported standard pair, one input each. Input sizes are a
/// geometric ladder from 1e3 to 3e4 nnz dealt out to the pairs in one
/// fixed order; the seed draws the tensors. Every seed thus serves the same
/// pair/size mix, which keeps run-to-run totals comparable.
void smallAllPairs(uint64_t Seed, Workload &W) {
  W.Clients = 4;
  W.OmpThreads = 1;
  std::vector<std::pair<formats::Format, formats::Format>> Pairs;
  for (const std::vector<formats::Format> &Family :
       {formats::allStandardFormats(), formats::standardOrder3Formats()})
    for (const formats::Format &S : Family)
      for (const formats::Format &D : Family)
        if (S.Name != D.Name && codegen::conversionSupported(S, D))
          Pairs.push_back({S, D});

  std::vector<int64_t> Ladder;
  for (size_t K = 0; K < Pairs.size(); ++K) {
    double F = Pairs.size() > 1 ? double(K) / double(Pairs.size() - 1) : 0;
    Ladder.push_back(std::llround(1e3 * std::pow(30.0, F)));
  }
  std::mt19937_64 Deal(mix(0, 0));
  std::shuffle(Ladder.begin(), Ladder.end(), Deal);

  for (size_t K = 0; K < Pairs.size(); ++K) {
    const auto &[Src, Dst] = Pairs[K];
    int64_t Target = Ladder[K];
    uint64_t GenSeed = mix(Seed, K + 1);
    // Padded sources (DIA, ELL, BCSR) store more slots than nonzeros; halve
    // the size until the stored size, which the planner's engagement floor
    // reads, sits below it too.
    for (;; Target /= 2) {
      tensor::Triplets T;
      bool Lower = Src.Name == "sky" || Dst.Name == "sky";
      if (Src.SrcOrder != 2) {
        int64_t Side = std::max<int64_t>(
            8, std::llround(std::cbrt(static_cast<double>(Target) * 8.0)));
        T = tensor::genRandomTensor3(Side, Side, Side, Target, GenSeed);
      } else if (Lower) {
        // Skyline storage holds lower-triangular matrices only.
        T = tensor::genLowerBanded(std::max<int64_t>(16, Target / 5), 5.0, 8,
                                   GenSeed);
      } else {
        // Banded, so every order-2 target (DIA, ELL, BCSR) stays compact.
        int64_t Rows = std::max<int64_t>(16, Target / 8);
        T = tensor::genBandedRandom(Rows, Rows, 8.0, 16, 8, GenSeed);
      }
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      if (In.storedSize() >= kPlannerFloor && Target > 1000)
        continue;
      addRequest(W, Src, Dst, own(W, std::move(In)), T.nnz(),
                 Lower ? "lower-banded" : Src.SrcOrder == 2 ? "banded"
                                                            : "random3");
      break;
    }
  }
}

/// The three order-3 generators at fixed size slots; the seed draws the
/// coordinates. Extents are far past the dense-rank budget, so every CSF
/// level is assembled by sorting. The last slot serves coo3->csf only,
/// making the request count odd so the latency median falls inside one
/// request's samples.
void tensor3Sort(uint64_t Seed, Workload &W) {
  // One client whose OpenMP team leaves the system a CPU: a team on every
  // CPU stalls at each barrier whenever the host takes one of them.
  W.Clients = 1;
  W.OmpThreads = std::max(1, hostThreads() - 1);
  // Random and skewed tuples pack into 64-bit radix-sort keys; the 2^31 x
  // 2^20 x 2^20 hypersparse ones do not.
  const int64_t Big = int64_t(1) << 31, Mid = int64_t(1) << 20,
                Side = int64_t(1) << 13;
  struct Slot {
    const char *Kind;
    int64_t Nnz;
    bool BothPairs;
  };
  const std::vector<Slot> Slots = {{"random", 250000, true},
                                   {"skewed", 250000, true},
                                   {"hyper", 250000, true},
                                   {"random", 500000, false}};
  formats::Format Coo3 = formats::makeCOO(3), Csf = formats::makeCSF(3),
                  Csf102 = formats::makeCSFPermuted({1, 0, 2});
  struct Drawn {
    int64_t Nnz = 0;
    tensor::SparseTensor InCoo3, InCsf;
  };
  std::vector<Drawn> Tensors(Slots.size());
  parallelFor(Slots.size(), [&](size_t K) {
    const Slot &S = Slots[K];
    uint64_t GenSeed = mix(Seed, K + 1);
    std::string Kind = S.Kind;
    tensor::Triplets T =
        Kind == "random"
            ? tensor::genRandomTensor3(Side, Side, Side, S.Nnz, GenSeed)
        : Kind == "skewed"
            ? tensor::genSliceSkewed3(Side / 2, Side, Side, S.Nnz, GenSeed)
            : tensor::genHyperSparse3(Big, Mid, Mid, S.Nnz, GenSeed);
    Tensors[K].Nnz = T.nnz();
    Tensors[K].InCoo3 = tensor::buildFromTriplets(Coo3, T);
    if (S.BothPairs)
      Tensors[K].InCsf = tensor::buildFromTriplets(Csf, T);
  });
  for (size_t K = 0; K < Slots.size(); ++K) {
    Drawn &D = Tensors[K];
    addRequest(W, Coo3, Csf, own(W, std::move(D.InCoo3)), D.Nnz,
               Slots[K].Kind);
    if (Slots[K].BothPairs)
      addRequest(W, Csf, Csf102, own(W, std::move(D.InCsf)), D.Nnz,
                 Slots[K].Kind);
  }
}

} // namespace

int hostThreads() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Threads;
  for (size_t T = 1; T < static_cast<size_t>(hostThreads()) && T < N; ++T)
    Threads.emplace_back(Worker);
  Worker();
  for (std::thread &T : Threads)
    T.join();
}

bool makeWorkload(const std::string &Name, uint64_t Seed, Workload *Out) {
  Out->Name = Name;
  if (Name == "small-allpairs")
    smallAllPairs(Seed, *Out);
  else if (Name == "tensor3-sort")
    tensor3Sort(Seed, *Out);
  else
    return false;
  return true;
}

} // namespace perfbench
