//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layered native-path benchmark. One process builds a workload's
/// seeded working set, computes the interpreter oracle for every request,
/// then drives convert::ConversionService::convert() on the JIT engine
/// with closed-loop clients (each client sends its next request only after
/// the previous reply) and bit-compares every reply against the oracle.
///
///   --trace 0  end-to-end metrics: cold set-up time (median of several
///              set-ups, each from an empty cache directory), warm
///              throughput, p50/p99 request latency, success rate and peak
///              RSS.
///   --trace 1  per-layer metrics: one cold set-up with the workload's
///              clients (compile and coalesce counts), then, on one client
///              on the thread that loads the handles, a traced cold set-up,
///              an untraced phase (the tracing-overhead base) and a traced
///              phase. Each traced request is served by convert() and then
///              replayed through the layers' public functions (planner
///              decide, optionsForDims + PlanCache::tryJit, checkSourceOrder,
///              marshalInput, runRaw, collectOutput), each call a span;
///              service self time is convert() minus the replayed layers.
///
/// Usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///                         --workdir DIR [--spans FILE]
/// DIR must exist; every cache directory, compiler scratch directory and
/// outcome store the run creates lives under it. The last stdout line is
/// the result JSON; the line before it carries provenance.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "baselines/Baselines.h"
#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "jit/Jit.h"
#include "planner/Planner.h"
#include "service/ConversionService.h"
#include "support/DegradationLog.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;
using namespace perfbench;
using convert::ConversionRequest;
using convert::ConversionService;
using convert::PlanCache;
using convert::PlanCacheStats;
using convert::ServiceStats;
using tensor::SparseTensor;

namespace {

const char *const kPhaseNames[jit::kNumPhases] = {
    "analysis", "edge_insert", "insertion", "finalize",
    "collect",  "sort",        "pos",       "crd"};

/// Planner candidate labels, as the census metrics name them.
const char *const kChosenLabels[] = {"direct",      "direct_sorted",
                                     "rank_sorted", "rank_hashed",
                                     "sort_merge",  "nosharedsort",
                                     "via-coo",     "other"};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  std::string SpansPath;
};

bool parseArgs(int Argc, char **Argv, Args *A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A->Workload = V;
    else if (K == "--seed")
      A->Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A->Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A->Trace = V == "1";
    else if (K == "--workdir")
      A->WorkDir = V;
    else if (K == "--spans")
      A->SpansPath = V;
    else
      return false;
  }
  return !A->Workload.empty() && !A->WorkDir.empty() && A->Seconds > 0;
}

void setOmpThreads(int N) {
#ifdef _OPENMP
  omp_set_num_threads(N);
#else
  (void)N;
#endif
}

template <typename T>
bool sameBits(const tensor::OwnedArray<T> &A, const tensor::OwnedArray<T> &B) {
  return A.size() == B.size() &&
         (A.size() == 0 ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(T)) == 0);
}

bool identical(const SparseTensor &A, const SparseTensor &B) {
  if (A.Format.Name != B.Format.Name || A.Dims != B.Dims ||
      A.Levels.size() != B.Levels.size() || !sameBits(A.Vals, B.Vals))
    return false;
  for (size_t K = 0; K < A.Levels.size(); ++K)
    if (!sameBits(A.Levels[K].Pos, B.Levels[K].Pos) ||
        !sameBits(A.Levels[K].Crd, B.Levels[K].Crd) ||
        !sameBits(A.Levels[K].Perm, B.Levels[K].Perm) ||
        A.Levels[K].SizeParam != B.Levels[K].SizeParam)
      return false;
  return true;
}

/// Bytes of every stored array (the computed I/O of one routine call).
double storageBytes(const SparseTensor &T) {
  double B = 8.0 * static_cast<double>(T.Vals.size());
  for (const tensor::LevelStorage &L : T.Levels)
    B += 4.0 * static_cast<double>(L.Pos.size() + L.Crd.size() +
                                   L.Perm.size());
  return B;
}

/// Whether resetPeakRss() managed to reset the kernel's peak-RSS mark.
bool PeakMarkReset = false;

/// Resets the kernel's peak-RSS mark (Linux clear_refs), so peakRssMiB()
/// covers serving only, not the oracle's transient interpreter state.
void resetPeakRss() {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return;
  bool Ok = std::fputs("5", F) >= 0;
  PeakMarkReset = std::fclose(F) == 0 && Ok;
}

/// Peak resident set size since the last resetPeakRss() (VmHWM), or over
/// the process lifetime (getrusage) where the mark was not reset.
double peakRssMiB() {
  if (PeakMarkReset)
    if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
      char Line[256];
      long long Kib = -1;
      while (std::fgets(Line, sizeof(Line), F))
        if (std::sscanf(Line, "VmHWM: %lld kB", &Kib) == 1)
          break;
      std::fclose(F);
      if (Kib >= 0)
        return static_cast<double>(Kib) / 1024.0;
    }
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Percentile of sorted samples, linearly interpolated between the two
/// nearest order statistics.
double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Pos - static_cast<double>(Lo)) * (Sorted[Hi] - Sorted[Lo]);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / static_cast<double>(V.size()));
}

/// The hops the service executes for \p R: the planner's chosen path when
/// it engages, otherwise the dims-routed direct plan.
std::vector<planner::Hop> routeOf(const Request &R) {
  planner::Decision D =
      planner::decide(R.Src, R.Dst, codegen::Options(),
                      planner::InputStats::fromTensor(*R.Input));
  if (D.Engaged)
    return D.Chosen.Hops;
  return {planner::Hop{R.Src, R.Dst,
                       codegen::optionsForDims(R.Src, R.Dst,
                                               codegen::Options(),
                                               R.Input->Dims)}};
}

/// Distinct JIT keys of the working set.
struct KeySet {
  std::vector<planner::Hop> Keys; // first-appearance order
  /// The requests that first touch some key; serving them compiles every
  /// key.
  std::vector<size_t> Representatives;
};

KeySet keySetOf(const Workload &W) {
  KeySet K;
  std::set<std::string> Seen;
  for (size_t I = 0; I < W.Requests.size(); ++I) {
    bool New = false;
    for (const planner::Hop &H : routeOf(W.Requests[I]))
      if (Seen.insert(convert::planKey(H.Src, H.Dst, H.Opts)).second) {
        K.Keys.push_back(H);
        New = true;
      }
    if (New)
      K.Representatives.push_back(I);
  }
  return K;
}

/// Outcome tallies shared by every client of a run.
struct Tally {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<int> Reported{0};

  void record(const Request &R, const StatusOr<SparseTensor> &Out,
              const SparseTensor &Want) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    bool Ok = Out.ok() && identical(*Out, Want);
    if (Ok)
      return;
    Failed.fetch_add(1, std::memory_order_relaxed);
    if (Reported.fetch_add(1) < 5)
      std::fprintf(stderr, "perfbench: %s: %s\n", R.Label.c_str(),
                   Out.ok() ? "result differs from the interpreter oracle"
                            : Out.status().message().c_str());
  }
};

StatusOr<SparseTensor> serve(ConversionService &Svc, const Request &R) {
  ConversionRequest Rq;
  Rq.Source = R.Src;
  Rq.Target = R.Dst;
  Rq.Input = R.Input;
  return Svc.convert(Rq);
}

/// Per-client samples of a closed-loop phase.
/// Samples are kept compact (4 bytes each) in fixed-size blocks that are
/// never copied, so the log's own growth barely moves the peak RSS the run
/// reports, however many requests the run serves.
struct ClientLog {
  std::deque<float> LatencyMs;
  double Nnz = 0;
  Clock::time_point End;
};

/// Runs \p Clients closed-loop clients with \p Omp OpenMP threads each;
/// client 0 runs on the calling thread, the others on their own threads.
/// With \p Stop unset, the clients share one pass over \p Order (each
/// index served once); otherwise client c cycles through \p Order from
/// offset c*n/Clients until \p Stop.
std::vector<ClientLog> closedLoop(ConversionService &Svc, const Workload &W,
                                  const std::vector<SparseTensor> &Want,
                                  const std::vector<size_t> &Order,
                                  int Clients, int Omp, Tally &T,
                                  const Clock::time_point *Stop) {
  std::vector<ClientLog> Logs(static_cast<size_t>(Clients));
  std::atomic<size_t> Next{0};
  auto Client = [&](int C) {
    setOmpThreads(Omp);
    ClientLog &Log = Logs[static_cast<size_t>(C)];
    size_t Cursor = Order.size() * static_cast<size_t>(C) /
                    static_cast<size_t>(Clients);
    for (;;) {
      size_t Idx;
      if (Stop) {
        if (Clock::now() >= *Stop)
          break;
        Idx = Order[Cursor++ % Order.size()];
      } else {
        size_t N = Next.fetch_add(1);
        if (N >= Order.size())
          break;
        Idx = Order[N];
      }
      const Request &R = W.Requests[Idx];
      Clock::time_point T0 = Clock::now();
      StatusOr<SparseTensor> Out = serve(Svc, R);
      Clock::time_point T1 = Clock::now();
      Log.LatencyMs.push_back(static_cast<float>(secondsBetween(T0, T1) * 1e3));
      Log.Nnz += static_cast<double>(R.Nnz);
      T.record(R, Out, Want[Idx]);
    }
    Log.End = Clock::now();
  };
  std::vector<std::thread> Threads;
  for (int C = 1; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  Client(0);
  for (std::thread &Th : Threads)
    Th.join();
  return Logs;
}

std::string makeDir(const std::string &Path) {
  mkdir(Path.c_str(), 0700);
  return Path;
}

/// Points the plan cache at a new, empty directory under \p Parent and
/// forgets every in-memory plan, handle and outcome, so the next requests
/// start cold.
void coldCache(const std::string &Parent) {
  std::string Template = Parent + "/cache-XXXXXX";
  if (!mkdtemp(Template.data())) {
    std::perror("perfbench: mkdtemp");
    std::exit(2);
  }
  setenv("CONVGEN_CACHE_DIR", Template.c_str(), 1);
  PlanCache::instance().clearMemory();
  PlanCache::instance().resetOutcomes();
}

struct SetupResult {
  double Seconds = 0;
  uint64_t JitMisses = 0;
  uint64_t Coalesced = 0;
  uint64_t DiskHits = 0;
  std::unique_ptr<ConversionService> Service;
};

/// One cold set-up: service construction plus one request per distinct
/// key, served by the workload's clients from an empty cache directory.
SetupResult coldSetup(const std::string &Parent, const Workload &W,
                      const std::vector<SparseTensor> &Want,
                      const KeySet &Keys, Tally &T) {
  coldCache(Parent);
  PlanCacheStats S0 = PlanCache::instance().stats();
  SetupResult R;
  Clock::time_point T0 = Clock::now();
  R.Service = std::make_unique<ConversionService>();
  closedLoop(*R.Service, W, Want, Keys.Representatives, W.Clients,
             W.OmpThreads, T, nullptr);
  R.Seconds = secondsBetween(T0, Clock::now());
  PlanCacheStats S1 = PlanCache::instance().stats();
  R.JitMisses = S1.JitMisses - S0.JitMisses;
  R.Coalesced = S1.JitCoalesced - S0.JitCoalesced;
  R.DiskHits = S1.DiskHits - S0.DiskHits;
  return R;
}

struct PhaseResult {
  uint64_t Requests = 0;
  double Seconds = 0;
  double Nnz = 0;
  std::vector<double> LatencyMs; // sorted
  /// Peak RSS at the end of the phase, before the samples are merged.
  double PeakRssMiB = 0;
  double throughputMnnzS() const { return Seconds > 0 ? Nnz / Seconds / 1e6 : 0; }
};

/// The warm steady state: every client cycles through its own seeded
/// permutation of the working set until \p Seconds have passed.
PhaseResult timedPhase(ConversionService &Svc, const Workload &W,
                       const std::vector<SparseTensor> &Want,
                       const std::vector<size_t> &Order, int Clients,
                       double Seconds, Tally &T) {
  Clock::time_point Start = Clock::now();
  Clock::time_point Stop =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  std::vector<ClientLog> Logs =
      closedLoop(Svc, W, Want, Order, Clients, W.OmpThreads, T, &Stop);
  PhaseResult P;
  P.PeakRssMiB = peakRssMiB();
  Clock::time_point End = Start;
  for (ClientLog &L : Logs) {
    P.Nnz += L.Nnz;
    P.LatencyMs.insert(P.LatencyMs.end(), L.LatencyMs.begin(),
                       L.LatencyMs.end());
    End = std::max(End, L.End);
  }
  P.Requests = P.LatencyMs.size();
  P.Seconds = secondsBetween(Start, End);
  std::sort(P.LatencyMs.begin(), P.LatencyMs.end());
  return P;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Per-request means of the traced layers (microseconds unless noted).
struct LayerTotals {
  uint64_t Requests = 0;
  double Convert = 0, Decide = 0, Acquire = 0, CheckOrder = 0, Marshal = 0,
         Run = 0, Adopt = 0;
  double PhaseSecs[jit::kNumPhases] = {};
  double IoBytes = 0, Nnz = 0;
  uint64_t Engaged = 0, NonDirect = 0, MeasuredWin = 0;
  std::map<std::string, uint64_t> Chosen;
  std::vector<double> Self;
};

std::string censusName(const std::string &Label) {
  std::string N = Label;
  for (char &C : N)
    if (C == '+' || C == '=')
      C = '_';
  for (const char *Known : kChosenLabels)
    if (N == Known)
      return N;
  return "other";
}

/// Replays \p R through the layers convert() crosses, one span per call,
/// and returns the converted tensor (or the first failing Status).
StatusOr<SparseTensor> replay(const Request &R, Tracer &Tr, int32_t Root,
                              int64_t Id, LayerTotals &L) {
  int32_t S = Tr.open("planner.decide", Root, Id);
  planner::Decision D =
      planner::decide(R.Src, R.Dst, codegen::Options(),
                      planner::InputStats::fromTensor(*R.Input));
  L.Decide += Tr.close(S);

  std::vector<planner::Hop> Hops;
  if (D.Engaged) {
    ++L.Engaged;
    if (D.Chosen.Label != "direct")
      ++L.NonDirect;
    if (D.MeasuredWin)
      ++L.MeasuredWin;
    ++L.Chosen[censusName(D.Chosen.Label)];
    Hops = D.Chosen.Hops;
    // A non-default path first validates the input against the direct
    // plan's order requirement, as the service does.
    if (D.Chosen.Label != "direct")
      for (const planner::Candidate &C : D.Considered)
        if (C.Label == "direct" && !C.Hops.empty()) {
          S = Tr.open("convert.check_order", Root, Id);
          const planner::Hop &H = C.Hops[0];
          StatusOr<std::shared_ptr<const codegen::Conversion>> Direct =
              PlanCache::instance().tryPlan(H.Src, H.Dst, H.Opts);
          Status Order = Direct.ok()
                             ? convert::checkSourceOrder(**Direct, *R.Input)
                             : Direct.status();
          L.CheckOrder += Tr.close(S);
          if (!Order.ok())
            return Order;
        }
  } else {
    Hops.push_back(planner::Hop{R.Src, R.Dst, codegen::Options()});
  }

  SparseTensor Staged;
  const SparseTensor *Cur = R.Input;
  for (const planner::Hop &H : Hops) {
    S = Tr.open("convert.acquire", Root, Id);
    codegen::Options Opts =
        D.Engaged ? H.Opts
                  : codegen::optionsForDims(H.Src, H.Dst, H.Opts, Cur->Dims);
    StatusOr<std::shared_ptr<jit::JitConversion>> Handle =
        PlanCache::instance().tryJit(H.Src, H.Dst, Opts);
    L.Acquire += Tr.close(S);
    if (!Handle.ok())
      return Handle.status();
    const jit::JitConversion &J = **Handle;

    S = Tr.open("convert.check_order", Root, Id);
    Status Order = convert::checkSourceOrder(J.conversion(), *Cur);
    L.CheckOrder += Tr.close(S);
    if (!Order.ok())
      return Order;

    jit::CTensor A, B;
    S = Tr.open("jit.marshal", Root, Id);
    jit::marshalInput(*Cur, &A);
    L.Marshal += Tr.close(S);

    double Before[jit::kNumPhases] = {};
    if (const double *P = J.phaseSeconds())
      std::copy(P, P + jit::kNumPhases, Before);
    S = Tr.open("jit.run", Root, Id);
    J.runRaw(&A, &B);
    L.Run += Tr.close(S);
    if (const double *P = J.phaseSeconds())
      for (int K = 0; K < jit::kNumPhases; ++K)
        L.PhaseSecs[K] += P[K] - Before[K];

    S = Tr.open("jit.adopt", Root, Id);
    SparseTensor Out = jit::collectOutput(J.conversion().Target, Cur->Dims, &B);
    L.Adopt += Tr.close(S);
    L.IoBytes += storageBytes(*Cur) + storageBytes(Out);
    Staged = std::move(Out);
    Cur = &Staged;
  }
  return Staged;
}

/// Codegen / emission / compile / load split of a cold set-up, traced on
/// the calling thread (which thereby owns the handles' phase clocks).
struct ColdSplit {
  double GenerateMs = 0, EmitMs = 0, CKiB = 0, CompileS = 0, LoadMs = 0;
};

ColdSplit tracedColdSetup(const KeySet &Keys, Tracer &Tr, int64_t Id) {
  ColdSplit C;
  for (const planner::Hop &H : Keys.Keys) {
    int32_t Root = Tr.open("setup.key", -1, Id);
    int32_t S = Tr.open("codegen.generate", Root, Id);
    codegen::Conversion Conv = codegen::generateConversion(H.Src, H.Dst, H.Opts);
    double GenUs = Tr.close(S);
    S = Tr.open("ir.emit_c", Root, Id);
    std::string Source = Conv.cSource();
    double EmitUs = Tr.close(S);
    S = Tr.open("convert.acquire_cold", Root, Id);
    StatusOr<std::shared_ptr<jit::JitConversion>> Handle =
        PlanCache::instance().tryJit(H.Src, H.Dst, H.Opts);
    double AcquireUs = Tr.close(S);
    Tr.close(Root);
    double CompileS = Handle.ok() ? (*Handle)->compileSeconds() : 0;
    C.GenerateMs += GenUs * 1e-3;
    C.EmitMs += EmitUs * 1e-3;
    C.CKiB += static_cast<double>(Source.size()) / 1024.0;
    C.CompileS += CompileS;
    // The cold acquisition regenerates and re-emits the routine inside the
    // cache; what remains after compile, codegen and emission is the
    // object install, dlopen and dlsym.
    C.LoadMs += std::max(0.0, AcquireUs * 1e-3 - CompileS * 1e3 -
                                  GenUs * 1e-3 - EmitUs * 1e-3);
  }
  double N = std::max<double>(1, static_cast<double>(Keys.Keys.size()));
  C.GenerateMs /= N;
  C.EmitMs /= N;
  C.CKiB /= N;
  C.CompileS /= N;
  C.LoadMs /= N;
  return C;
}

/// Geometric mean of SPARSKIT-port time over generated-routine time,
/// single-threaded, over the requests whose pair the ports cover; 0 when
/// none is covered (no order-3 ports exist).
double sparskitRatio(const Workload &W) {
  using namespace baselines;
  setOmpThreads(1);
  std::vector<double> Ratios;
  for (const Request &R : W.Requests) {
    std::string Pair = R.Src.Name + "->" + R.Dst.Name;
    const SparseTensor &In = *R.Input;
    std::function<void()> Skit;
    if (Pair == "coo->csr")
      Skit = [&] { skitCooCsr(viewCoo(In)).release(); };
    else if (Pair == "coo->dia")
      Skit = [&] {
        RawCsr Mid = skitCooCsr(viewCoo(In));
        skitCsrDia(Mid).release();
        Mid.release();
      };
    else if (Pair == "csr->csc")
      Skit = [&] { skitCsrCsc(viewCsr(In)).release(); };
    else if (Pair == "csr->dia")
      Skit = [&] { skitCsrDia(viewCsr(In)).release(); };
    else if (Pair == "csr->ell")
      Skit = [&] { skitCsrEll(viewCsr(In)).release(); };
    else if (Pair == "csc->dia" || Pair == "csc->ell")
      Skit = [&, Ell = Pair == "csc->ell"] {
        RawCsr Mid = skitCsrCsc(viewCscAsTransposedCsr(In));
        if (Ell)
          skitCsrEll(Mid).release();
        else
          skitCsrDia(Mid).release();
        Mid.release();
      };
    if (!Skit)
      continue;
    StatusOr<std::shared_ptr<jit::JitConversion>> Handle =
        PlanCache::instance().tryJit(
            R.Src, R.Dst,
            codegen::optionsForDims(R.Src, R.Dst, codegen::Options(),
                                    In.Dims));
    if (!Handle.ok())
      continue;
    jit::CTensor A;
    jit::marshalInput(In, &A);
    std::vector<double> Gen, Port;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Clock::time_point T0 = Clock::now();
      jit::CTensor B;
      (*Handle)->runRaw(&A, &B);
      jit::freeOutput(&B);
      Clock::time_point T1 = Clock::now();
      Skit();
      Clock::time_point T2 = Clock::now();
      Gen.push_back(secondsBetween(T0, T1));
      Port.push_back(secondsBetween(T1, T2));
    }
    Ratios.push_back(median(Port) / median(Gen));
  }
  return geomean(Ratios);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Items;
  void add(const std::string &Name, double Value, const char *Unit) {
    Items.push_back({Name, {Value, Unit}});
  }
  std::string json() const {
    std::string S = "{";
    for (size_t I = 0; I < Items.size(); ++I) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Items[I].second.first);
      S += (I ? ", \"" : "\"") + Items[I].first + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Items[I].second.second + "\"}";
    }
    return S + "}";
  }
};

uint64_t degradationCount(const ServiceStats &S) {
  return support::DegradationLog::instance().snapshot().degradedTotal() +
         S.DegradedRuns;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, &A)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n");
    return 2;
  }
  // Run isolation: every cache, outcome store and compiler scratch
  // directory lives under the run's work directory; nothing is preloaded.
  setenv("CONVGEN_PRELOAD", "off", 1);
  unsetenv("CONVGEN_OUTCOMES");
  unsetenv("CONVGEN_MANIFEST");
  unsetenv("CONVGEN_DISABLE_DISK_CACHE");
  setenv("TMPDIR", makeDir(A.WorkDir + "/tmp").c_str(), 1);
  coldCache(A.WorkDir); // The oracle's plans and outcomes stay here.

  Clock::time_point Began = Clock::now();
  auto progress = [&Began](const char *What) {
    std::fprintf(stderr, "perfbench: %-10s done at %7.2f s\n", What,
                 secondsBetween(Began, Clock::now()));
  };
  Workload W;
  if (!makeWorkload(A.Workload, A.Seed, &W)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  if (!jit::jitAvailable()) {
    std::fprintf(stderr, "perfbench: no working C compiler for the JIT\n");
    return 2;
  }
  jit::jitOpenMPAvailable(); // Probe once, outside every timed set-up.
  progress("inputs");

  // Thread budget: clients x OpenMP threads never exceeds the CPUs this
  // process may use.
  int HostThreads = hostThreads();
  W.Clients = std::min(W.Clients, HostThreads);
  W.OmpThreads = std::max(1, std::min(W.OmpThreads, HostThreads / W.Clients));

  // Oracle: the reference interpreter, before any timing, on every host
  // thread (largest requests first, so the longest one starts earliest).
  std::vector<SparseTensor> Want(W.Requests.size());
  std::vector<size_t> BySize(W.Requests.size());
  for (size_t I = 0; I < BySize.size(); ++I)
    BySize[I] = I;
  std::sort(BySize.begin(), BySize.end(), [&](size_t X, size_t Y) {
    return W.Requests[X].Nnz > W.Requests[Y].Nnz;
  });
  std::atomic<bool> OracleFailed{false};
  parallelFor(BySize.size(), [&](size_t N) {
    const Request &R = W.Requests[BySize[N]];
    StatusOr<convert::Converter> C = convert::Converter::tryCreate(R.Src, R.Dst);
    StatusOr<SparseTensor> Out =
        C.ok() ? C->tryRun(*R.Input) : StatusOr<SparseTensor>(C.status());
    if (!Out.ok()) {
      std::fprintf(stderr, "perfbench: oracle failed on %s: %s\n",
                   R.Label.c_str(), Out.status().message().c_str());
      OracleFailed = true;
      return;
    }
    Want[BySize[N]] = Out.take();
  });
  if (OracleFailed)
    return 2;
  resetPeakRss();
  progress("oracle");
  KeySet Keys = keySetOf(W);
  std::vector<size_t> Order(W.Requests.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 Rng(A.Seed * 7919 + 17);
  std::shuffle(Order.begin(), Order.end(), Rng);

  Tally T;
  bool KeysCompiledOnce = true;
  auto checkCompiles = [&](const SetupResult &S) {
    if (S.JitMisses != Keys.Keys.size() || S.DiskHits != 0) {
      KeysCompiledOnce = false;
      std::fprintf(stderr,
                   "perfbench: set-up compiled %llu keys (%llu from disk) "
                   "for %zu distinct keys\n",
                   static_cast<unsigned long long>(S.JitMisses),
                   static_cast<unsigned long long>(S.DiskHits),
                   Keys.Keys.size());
    }
  };

  Metrics M;
  ServiceStats Flow;
  auto addFlow = [&Flow](const ServiceStats &S) {
    Flow.Shed += S.Shed;
    Flow.DeadlineExpired += S.DeadlineExpired;
    Flow.DegradedRuns += S.DegradedRuns;
  };
  // setup_s is the median of several cold set-ups; the traced run needs one.
  int SetupReps = A.Trace ? 1 : 5;
  std::vector<double> SetupSecs;
  SetupResult Setup;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    if (Setup.Service)
      addFlow(Setup.Service->stats());
    Setup = coldSetup(A.WorkDir, W, Want, Keys, T);
    checkCompiles(Setup);
    SetupSecs.push_back(Setup.Seconds);
  }
  progress("set-up");

  std::string Extra;
  if (!A.Trace) {
    // Warm-up: every request once, untimed, then the steady state.
    closedLoop(*Setup.Service, W, Want, Order, W.Clients, W.OmpThreads, T,
               nullptr);
    PhaseResult Timed = timedPhase(*Setup.Service, W, Want, Order, W.Clients,
                                   A.Seconds, T);
    addFlow(Setup.Service->stats());
    double P99 = percentile(Timed.LatencyMs, 0.99);
    size_t Beyond = static_cast<size_t>(
        Timed.LatencyMs.end() -
        std::upper_bound(Timed.LatencyMs.begin(), Timed.LatencyMs.end(), P99));
    M.add("setup_s", median(SetupSecs), "s");
    M.add("throughput_mnnz_s", Timed.throughputMnnzS(), "Mnnz/s");
    M.add("latency_p50_ms", percentile(Timed.LatencyMs, 0.5), "ms");
    M.add("latency_p99_ms", P99, "ms");
    uint64_t Attempted = T.Attempted.load(), Failed = T.Failed.load();
    M.add("success_rate",
          Attempted ? double(Attempted - Failed) / double(Attempted) : 0,
          "ratio");
    M.add("peak_rss_mib", Timed.PeakRssMiB, "MiB");
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  ", \"latency_samples\": %llu, \"samples_beyond_p99\": %zu"
                  ", \"setup_reps\": %d",
                  static_cast<unsigned long long>(Timed.Requests), Beyond,
                  SetupReps);
    Extra = Buf;
  } else {
    addFlow(Setup.Service->stats());
    Setup.Service.reset();
    // From here on one client on this thread, which also loads every
    // handle: the routines' phase clocks are thread-local to the loader.
    // An untraced phase on the same client is the tracing-overhead base.
    setOmpThreads(W.OmpThreads);
    Tracer Tr(Clock::now());
    coldCache(A.WorkDir);
    ConversionService Svc;
    ColdSplit Cold = tracedColdSetup(Keys, Tr, -1);
    closedLoop(Svc, W, Want, Order, 1, W.OmpThreads, T, nullptr);
    PlanCacheStats Before = PlanCache::instance().stats();
    PhaseResult Base =
        timedPhase(Svc, W, Want, Order, 1, A.Seconds / 2, T);
    PlanCacheStats After = PlanCache::instance().stats();

    LayerTotals L;
    Clock::time_point Start = Clock::now();
    Clock::time_point Stop =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(A.Seconds / 2));
    double ConvertedNnz = 0;
    for (size_t Cursor = 0; Clock::now() < Stop; ++Cursor) {
      size_t Idx = Order[Cursor % Order.size()];
      const Request &R = W.Requests[Idx];
      int64_t Id = static_cast<int64_t>(Cursor);
      int32_t Root = Tr.open("request", -1, Id);
      // Each result is released before the next call, so neither side
      // pays for the other's output pages.
      double ConvertUs;
      {
        int32_t S = Tr.open("service.convert", Root, Id);
        StatusOr<SparseTensor> Out = serve(Svc, R);
        ConvertUs = Tr.close(S);
        T.record(R, Out, Want[Idx]);
      }
      ConvertedNnz += static_cast<double>(R.Nnz);

      LayerTotals Req;
      T.record(R, replay(R, Tr, Root, Id, Req), Want[Idx]);
      Tr.close(Root);
      double Layers = Req.Decide + Req.Acquire + Req.CheckOrder +
                      Req.Marshal + Req.Run + Req.Adopt;
      L.Requests++;
      L.Convert += ConvertUs;
      L.Self.push_back(ConvertUs - Layers);
      L.Decide += Req.Decide;
      L.Acquire += Req.Acquire;
      L.CheckOrder += Req.CheckOrder;
      L.Marshal += Req.Marshal;
      L.Run += Req.Run;
      L.Adopt += Req.Adopt;
      for (int K = 0; K < jit::kNumPhases; ++K)
        L.PhaseSecs[K] += Req.PhaseSecs[K];
      L.IoBytes += Req.IoBytes;
      L.Nnz += static_cast<double>(R.Nnz);
      L.Engaged += Req.Engaged;
      L.NonDirect += Req.NonDirect;
      L.MeasuredWin += Req.MeasuredWin;
      for (const auto &[Label, Count] : Req.Chosen)
        L.Chosen[Label] += Count;
    }
    double TracedThroughput =
        ConvertedNnz / secondsBetween(Start, Clock::now()) / 1e6;
    addFlow(Svc.stats());
    double Skit = sparskitRatio(W);

    double N = std::max<double>(1, static_cast<double>(L.Requests));
    double Engaged = static_cast<double>(L.Engaged);
    double SelfMean = 0;
    for (double X : L.Self)
      SelfMean += X;
    M.add("service.convert_us", L.Convert / N, "us");
    M.add("service.self_us", SelfMean / N, "us");
    M.add("service.self_us_p50", median(L.Self), "us");
    M.add("service.shed", double(Flow.Shed), "count");
    M.add("service.deadline_expired", double(Flow.DeadlineExpired), "count");
    M.add("service.degraded_runs", double(Flow.DegradedRuns), "count");
    M.add("planner.decide_us", L.Decide / N, "us");
    M.add("planner.engaged_ratio", Engaged / N, "ratio");
    M.add("planner.nondirect_ratio",
          Engaged > 0 ? double(L.NonDirect) / Engaged : 0, "ratio");
    M.add("planner.measured_win_ratio",
          Engaged > 0 ? double(L.MeasuredWin) / Engaged : 0, "ratio");
    for (const char *Label : kChosenLabels)
      M.add(std::string("planner.chosen.") + Label,
            Engaged > 0 ? double(L.Chosen[Label]) / Engaged : 0, "ratio");
    M.add("convert.acquire_us", L.Acquire / N, "us");
    M.add("convert.check_order_us", L.CheckOrder / N, "us");
    uint64_t Hits = After.JitHits - Before.JitHits;
    uint64_t Lookups = Hits + (After.JitMisses - Before.JitMisses);
    M.add("convert.jit_hit_ratio", Lookups ? double(Hits) / double(Lookups) : 0,
          "ratio");
    M.add("convert.jit_misses", double(Setup.JitMisses), "count");
    M.add("convert.coalesced", double(Setup.Coalesced), "count");
    M.add("codegen.generate_ms", Cold.GenerateMs, "ms");
    M.add("ir.emit_c_ms", Cold.EmitMs, "ms");
    M.add("ir.c_kib", Cold.CKiB, "KiB");
    M.add("jit.compile_s", Cold.CompileS, "s");
    M.add("jit.load_ms", Cold.LoadMs, "ms");
    M.add("jit.run_us", L.Run / N, "us");
    M.add("jit.marshal_us", L.Marshal / N, "us");
    M.add("jit.adopt_us", L.Adopt / N, "us");
    M.add("jit.io_bytes_per_nnz", L.Nnz > 0 ? L.IoBytes / L.Nnz : 0,
          "computed-B/nnz");
    for (int K = 0; K < jit::kNumPhases; ++K)
      M.add(std::string("jit.phase.") + kPhaseNames[K] + "_ms",
            L.PhaseSecs[K] * 1e3 / N, "ms");
    M.add("baselines.sparskit_ratio", Skit, "ratio");
    M.add("trace.overhead_ratio",
          Base.throughputMnnzS() > 0
              ? TracedThroughput / Base.throughputMnnzS()
              : 0,
          "ratio");
    M.add("trace.requests", double(L.Requests), "count");
    if (!A.SpansPath.empty() && !Tr.write(A.SpansPath))
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   A.SpansPath.c_str());
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), ", \"spans\": %zu", Tr.size());
    Extra = Buf;
  }

  uint64_t Degraded = degradationCount(Flow);
  uint64_t Attempted = T.Attempted.load(), Failed = T.Failed.load();
  bool Correct = Failed == 0 && Degraded == 0 && KeysCompiledOnce;
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"engine\": \"jit\", "
              "\"host_threads\": %d, \"clients\": %d, \"omp_threads\": %d, "
              "\"requests_in_working_set\": %zu, \"distinct_keys\": %zu, "
              "\"degradations\": \"%s\"%s}\n",
              W.Name.c_str(), static_cast<unsigned long long>(A.Seed),
              HostThreads, W.Clients, W.OmpThreads, W.Requests.size(),
              Keys.Keys.size(),
              support::DegradationLog::instance().summary().c_str(),
              Extra.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), M.json().c_str());
  std::fflush(stdout);
  if (Degraded) {
    std::fprintf(stderr, "perfbench: the runtime degraded (%s); these are "
                         "not native timings\n",
                 support::DegradationLog::instance().summary().c_str());
    return 3;
  }
  if (!Correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu replies differed from the "
                         "oracle or failed, or a set-up did not compile "
                         "every key exactly once\n",
                 static_cast<unsigned long long>(Failed),
                 static_cast<unsigned long long>(Attempted));
    return 4;
  }
  return 0;
}
