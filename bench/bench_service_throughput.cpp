//===----------------------------------------------------------------------===//
// Throughput of the concurrent conversion service: client threads at 1, 2,
// 4, and the hardware thread count issue a fixed mix of conversion
// requests through ConversionService, every result bit-compared against a
// serially precomputed golden. Handles are warmed before timing, so the
// measured regime is the steady state a server actually runs in: shared
// read-mostly cache hits plus the conversion itself.
//
// A second section deliberately overloads a MaxInflight=1 service (tiny
// queue, tiny deadlines) and reports the shed / deadline / coalesce
// accounting — the observability surface the serving layer exports.
//
// A third section compares submitBatch against an equivalent convert()
// loop over the same request stream (both run every request through the
// same pipeline, so the ratio isolates the batch loop's own overhead),
// and a fourth measures cold-boot vs
// warm-boot time-to-first-conversion: a fresh cache directory and a cold
// compile on one side, manifest export + eager preload standing in for a
// process restart on the other.
//
// Usage: bench_service_throughput
//   CONVGEN_BENCH_SCALE (default 0.2) scales the corpus matrices;
//   CONVGEN_BENCH_REPS (default 5) repetitions per thread count.
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "jit/Jit.h"
#include "service/ConversionService.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "tensor/Generators.h"

#include <atomic>
#include <cstdlib>
#include <thread>

using namespace convgen;
using namespace convgen::bench;
using convert::ConversionRequest;
using convert::ConversionService;
using convert::PlanCacheStats;
using convert::ServiceLimits;
using convert::ServiceStats;

namespace {

struct PoolItem {
  formats::Format Src;
  formats::Format Dst;
  const tensor::SparseTensor *In = nullptr;
  tensor::SparseTensor Want;
  std::string Label;
};

bool identical(const tensor::SparseTensor &A, const tensor::SparseTensor &B) {
  if (A.Levels.size() != B.Levels.size() || !(A.Vals == B.Vals))
    return false;
  for (size_t K = 0; K < A.Levels.size(); ++K)
    if (!(A.Levels[K].Pos == B.Levels[K].Pos) ||
        !(A.Levels[K].Crd == B.Levels[K].Crd) ||
        !(A.Levels[K].Perm == B.Levels[K].Perm) ||
        A.Levels[K].SizeParam != B.Levels[K].SizeParam)
      return false;
  return true;
}

/// Requests completed per second with \p Clients threads hammering \p
/// Service round-robin over \p Pool; every result is bit-checked.
double throughput(ConversionService &Service, const std::vector<PoolItem> &Pool,
                  int Clients, int PerClient, std::atomic<uint64_t> &BadBits) {
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  auto Begin = std::chrono::steady_clock::now();
  for (int C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (int I = 0; I < PerClient; ++I) {
        const PoolItem &P = Pool[(C + I) % Pool.size()];
        ConversionRequest R;
        R.Source = P.Src;
        R.Target = P.Dst;
        R.Input = P.In;
        StatusOr<tensor::SparseTensor> Out = Service.convert(R);
        if (!Out.ok() || !identical(P.Want, *Out))
          BadBits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  Go.store(true, std::memory_order_release);
  Begin = std::chrono::steady_clock::now();
  for (std::thread &T : Threads)
    T.join();
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
  return Secs > 0 ? double(Clients) * PerClient / Secs : 0;
}

} // namespace

int main() {
  std::printf("convgen service throughput (scale %.2f, %d reps)\n\n",
              benchScale(), benchReps());
  BenchReport Report("BENCH_service_throughput.json");

  // Request pool: two corpus matrices through the bread-and-butter 2-D
  // pairs, plus a small order-3 tensor — distinct cache keys so the shard
  // map sees spread, repeated requests so the hit path dominates.
  const MatrixInputs &Scir = corpusInputs("scircuit");
  const MatrixInputs &Jnl = corpusInputs("jnlbrng1");
  tensor::Triplets T3 = tensor::genHyperSparse3(400, 300, 200, 5000, 40);
  tensor::SparseTensor Coo3 =
      tensor::buildFromTriplets(formats::standardFormatOrDie("coo3"), T3);

  std::vector<PoolItem> Pool;
  auto addItem = [&](const char *Src, const char *Dst,
                     const tensor::SparseTensor &In, const std::string &Tag) {
    PoolItem P;
    P.Src = formats::standardFormatOrDie(Src);
    P.Dst = formats::standardFormatOrDie(Dst);
    P.In = &In;
    P.Label = Tag + ":" + Src + "->" + Dst;
    convert::Converter Oracle(P.Src, P.Dst);
    P.Want = Oracle.run(In);
    Pool.push_back(std::move(P));
  };
  addItem("coo", "csr", Scir.Coo, Scir.Name);
  addItem("csr", "csc", Scir.Csr, Scir.Name);
  addItem("coo", "csr", Jnl.Coo, Jnl.Name);
  addItem("csr", "coo", Jnl.Csr, Jnl.Name);
  addItem("coo3", "csf", Coo3, "hyper3");

  // Warm every handle serially: throughput numbers measure the serving
  // steady state, not first-request compilation.
  {
    ConversionService Warm;
    for (const PoolItem &P : Pool) {
      ConversionRequest R;
      R.Source = P.Src;
      R.Target = P.Dst;
      R.Input = P.In;
      StatusOr<tensor::SparseTensor> Out = Warm.convert(R);
      if (!Out.ok()) {
        std::fprintf(stderr, "warmup failed for %s: %s\n", P.Label.c_str(),
                     Out.status().toString().c_str());
        return 1;
      }
    }
  }

  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> ClientCounts = {1, 2, 4};
  if (Hw > 4)
    ClientCounts.push_back(static_cast<int>(Hw));
  const int PerClient = std::max(20, static_cast<int>(40 * benchScale()));

  std::printf("%-10s %12s %14s\n", "clients", "req/s", "vs 1 client");
  std::atomic<uint64_t> BadBits{0};
  double Base = 0;
  for (int Clients : ClientCounts) {
    ServiceLimits Limits;
    Limits.MaxInflight = std::max(Clients, 1);
    Limits.QueueDepth = 2 * Clients;
    ConversionService Service(Limits);
    std::vector<double> Rates;
    for (int Rep = 0; Rep < benchReps(); ++Rep)
      Rates.push_back(throughput(Service, Pool, Clients, PerClient, BadBits));
    std::sort(Rates.begin(), Rates.end());
    double Median = Rates[Rates.size() / 2];
    if (Clients == 1)
      Base = Median;
    std::printf("%-10d %12.1f %13.2fx\n", Clients, Median,
                Base > 0 ? Median / Base : 0);
    ServiceStats S = Service.stats();
    Report.add(strfmt("{\"section\": \"throughput\", \"clients\": %d, "
                      "\"requests_per_second\": %.2f, \"speedup\": %.3f, "
                      "\"completed\": %llu, \"shed\": %llu}",
                      Clients, Median, Base > 0 ? Median / Base : 0,
                      static_cast<unsigned long long>(S.Completed),
                      static_cast<unsigned long long>(S.Shed)));
  }
  if (BadBits.load() != 0) {
    std::fprintf(stderr,
                 "%llu concurrent results diverged from the serial oracle\n",
                 static_cast<unsigned long long>(BadBits.load()));
    return 1;
  }
  std::printf("\nall concurrent results bit-identical to the serial oracle\n");

  // Overload section: a single-slot service with a depth-2 queue and 5ms
  // deadlines, hammered by 8 clients. The point is the accounting: every
  // rejected request is a deliberate shed or deadline expiry, visible in
  // the service stats and the DegradationLog, and the service stays
  // correct throughout.
  {
    support::DegradationLog::instance().reset();
    ServiceLimits Limits;
    Limits.MaxInflight = 1;
    Limits.QueueDepth = 2;
    Limits.DefaultDeadlineMs = 5;
    ConversionService Service(Limits);
    std::atomic<uint64_t> OverloadBad{0};
    throughput(Service, Pool, 8, PerClient, OverloadBad);
    ServiceStats S = Service.stats();
    PlanCacheStats C = convert::PlanCache::instance().stats();
    std::printf("\noverload (1 slot, queue 2, 5ms deadline, 8 clients): "
                "%llu submitted, %llu completed, %llu shed, %llu expired\n",
                static_cast<unsigned long long>(S.Submitted),
                static_cast<unsigned long long>(S.Completed),
                static_cast<unsigned long long>(S.Shed),
                static_cast<unsigned long long>(S.DeadlineExpired));
    Report.add(strfmt(
        "{\"section\": \"overload\", \"clients\": 8, \"submitted\": %llu, "
        "\"completed\": %llu, \"shed\": %llu, \"deadline_expired\": %llu, "
        "\"jit_hits\": %llu, \"jit_coalesced\": %llu}",
        static_cast<unsigned long long>(S.Submitted),
        static_cast<unsigned long long>(S.Completed),
        static_cast<unsigned long long>(S.Shed),
        static_cast<unsigned long long>(S.DeadlineExpired),
        static_cast<unsigned long long>(C.JitHits),
        static_cast<unsigned long long>(C.JitCoalesced)));
    // Conservation: every submitted request either completed or was
    // rejected for an accounted reason.
    if (S.Submitted != S.Completed + S.Shed + S.DeadlineExpired +
                           S.RequestErrors) {
      std::fprintf(stderr, "service stats do not balance\n");
      return 1;
    }
    // Only completed requests may carry bad bits; rejected ones return
    // Status errors, which the checker counts — expected under overload.
    (void)OverloadBad;
  }

  // Batched vs individual submission over one identical request stream.
  // Handles are warm (the throughput section just hammered them), so the
  // delta is pure serving overhead of the two entry points.
  {
    ServiceLimits Limits;
    Limits.MaxInflight = 2;
    Limits.QueueDepth = 64;
    ConversionService Service(Limits);
    const int StreamLen = 8 * PerClient;
    std::vector<const PoolItem *> Stream;
    for (int I = 0; I < StreamLen; ++I)
      Stream.push_back(&Pool[I % Pool.size()]);

    std::atomic<uint64_t> BatchBad{0};
    double IndividualRps = 0, BatchedRps = 0;
    convert::BatchStats BS;
    {
      // Hold every result until the run ends, like submitBatch must:
      // freeing each result before the next conversion lets the allocator
      // recycle hot buffers, which mismeasures the loop as faster than
      // any caller who actually keeps the batch's outputs.
      TimeStats T = timeStats([&] {
        std::vector<StatusOr<tensor::SparseTensor>> Held;
        Held.reserve(Stream.size());
        for (const PoolItem *P : Stream) {
          ConversionRequest R;
          R.Source = P->Src;
          R.Target = P->Dst;
          R.Input = P->In;
          Held.push_back(Service.convert(R));
          StatusOr<tensor::SparseTensor> &Out = Held.back();
          if (!Out.ok() || !identical(P->Want, *Out))
            BatchBad.fetch_add(1, std::memory_order_relaxed);
        }
      });
      IndividualRps = T.MedianSeconds > 0 ? StreamLen / T.MedianSeconds : 0;
    }
    {
      std::vector<ConversionRequest> Requests;
      for (const PoolItem *P : Stream) {
        ConversionRequest R;
        R.Source = P->Src;
        R.Target = P->Dst;
        R.Input = P->In;
        Requests.push_back(R);
      }
      TimeStats T = timeStats([&] {
        BS = convert::BatchStats();
        std::vector<StatusOr<tensor::SparseTensor>> Results =
            Service.submitBatch(Requests, &BS);
        for (size_t I = 0; I < Results.size(); ++I)
          if (!Results[I].ok() || !identical(Stream[I]->Want, *Results[I]))
            BatchBad.fetch_add(1, std::memory_order_relaxed);
      });
      BatchedRps = T.MedianSeconds > 0 ? StreamLen / T.MedianSeconds : 0;
    }
    if (BatchBad.load() != 0) {
      std::fprintf(stderr, "%llu batch-section results diverged\n",
                   static_cast<unsigned long long>(BatchBad.load()));
      return 1;
    }
    double Ratio = IndividualRps > 0 ? BatchedRps / IndividualRps : 0;
    std::printf("\nbatch (%d requests): individual %.1f req/s, batched "
                "%.1f req/s (%.2fx), %llu of %llu completed\n",
                StreamLen, IndividualRps, BatchedRps, Ratio,
                static_cast<unsigned long long>(BS.Completed),
                static_cast<unsigned long long>(BS.Requests));
    Report.add(strfmt("{\"section\": \"batch\", \"label\": \"individual\", "
                      "\"clients\": 1, \"requests_per_second\": %.2f}",
                      IndividualRps));
    Report.add(strfmt(
        "{\"section\": \"batch\", \"label\": \"batched\", \"clients\": 1, "
        "\"requests_per_second\": %.2f, \"batched_vs_individual\": %.3f, "
        "\"requests\": %llu}",
        BatchedRps, Ratio, static_cast<unsigned long long>(BS.Requests)));
  }

  // Cold boot vs warm boot: time-to-first-conversion with an empty cache
  // directory (plan + external compile + dlopen) against a restart that
  // preloads the exported manifest first (revalidate + dlopen, no
  // compiler). Each rep gets a fresh cache directory; clearMemory() stands
  // in for the process restart. Skipped when no compiler is available —
  // a degraded cold boot would not measure a compile.
  if (jit::jitAvailable() && !support::faultsConfigured()) {
    convert::PlanCache &Cache = convert::PlanCache::instance();
    std::vector<double> ColdSecs, WarmSecs, PreloadSecs;
    for (int Rep = 0; Rep < benchReps(); ++Rep) {
      char Template[] = "/tmp/convgen-boot-XXXXXX";
      char *Dir = mkdtemp(Template);
      if (!Dir)
        break;
      setenv("CONVGEN_CACHE_DIR", Dir, 1);
      setenv("CONVGEN_DISABLE_DISK_CACHE", "0", 1);
      Cache.clearMemory();

      const PoolItem &First = Pool.front();
      auto timeFirstConversion = [&]() -> double {
        ConversionService Boot;
        ConversionRequest R;
        R.Source = First.Src;
        R.Target = First.Dst;
        R.Input = First.In;
        auto Begin = std::chrono::steady_clock::now();
        StatusOr<tensor::SparseTensor> Out = Boot.convert(R);
        double Secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Begin)
                          .count();
        return Out.ok() && identical(First.Want, *Out) ? Secs : -1;
      };

      double Cold = timeFirstConversion();
      // Warm the full pool so the manifest describes a realistic server's
      // working set, then "restart" and preload.
      {
        ConversionService Warm;
        for (const PoolItem &P : Pool) {
          ConversionRequest R;
          R.Source = P.Src;
          R.Target = P.Dst;
          R.Input = P.In;
          (void)Warm.convert(R);
        }
      }
      (void)Cache.exportManifest();
      Cache.clearMemory();
      auto PreBegin = std::chrono::steady_clock::now();
      convert::PreloadStats PS =
          Cache.preload("", convert::PreloadMode::Eager);
      double Pre = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - PreBegin)
                       .count();
      double Warm = timeFirstConversion();
      if (Cold > 0 && Warm > 0 && PS.Loaded > 0 && PS.Evicted == 0) {
        ColdSecs.push_back(Cold);
        WarmSecs.push_back(Warm + Pre);
        PreloadSecs.push_back(Pre);
      }
      std::string Cleanup = std::string("rm -rf ") + Dir;
      (void)std::system(Cleanup.c_str());
    }
    if (!ColdSecs.empty()) {
      std::sort(ColdSecs.begin(), ColdSecs.end());
      std::sort(WarmSecs.begin(), WarmSecs.end());
      std::sort(PreloadSecs.begin(), PreloadSecs.end());
      double Cold = ColdSecs[ColdSecs.size() / 2];
      double Warm = WarmSecs[WarmSecs.size() / 2];
      double Pre = PreloadSecs[PreloadSecs.size() / 2];
      std::printf("\nboot: cold first conversion %.3fs, warm (preload + "
                  "first conversion) %.4fs (%.0fx faster; preload alone "
                  "%.4fs)\n",
                  Cold, Warm, Warm > 0 ? Cold / Warm : 0, Pre);
      Report.add(strfmt("{\"section\": \"boot\", \"label\": \"cold_boot\", "
                        "\"median_seconds\": %.6g}",
                        Cold));
      Report.add(strfmt("{\"section\": \"boot\", \"label\": \"warm_boot\", "
                        "\"median_seconds\": %.6g, "
                        "\"preload_seconds\": %.6g, "
                        "\"cold_vs_warm\": %.3f}",
                        Warm, Pre, Warm > 0 ? Cold / Warm : 0));
    } else {
      std::printf("\nboot: skipped (cold/warm reps did not all succeed)\n");
    }
  } else {
    std::printf("\nboot: skipped (no JIT compiler available)\n");
  }

  Report.write();
  return 0;
}
