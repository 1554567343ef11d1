//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ConversionService.h"

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <sched.h>
#include <thread>
#include <utility>

using namespace convgen;
using namespace convgen::convert;
using support::Deadline;
using support::Degradation;
using support::DegradationLog;

static int64_t envInt(const char *Name, int64_t Default) {
  if (const char *Env = std::getenv(Name)) {
    char *End = nullptr;
    long long V = std::strtoll(Env, &End, 10);
    if (End != Env && *End == '\0')
      return V;
  }
  return Default;
}

ServiceLimits ServiceLimits::fromEnv() {
  // The CPUs this process may run on, not the machine's: under an affinity
  // mask (taskset, container cpusets) hardware_concurrency() overstates it.
  int Hw = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    Hw = CPU_COUNT(&Set);
  if (Hw < 1)
    Hw = 1;
  ServiceLimits L;
  // 2x the usable threads: conversion is memory-bound enough that a
  // little oversubscription keeps cores busy across the marshal/compile
  // gaps without drowning the allocator.
  L.MaxInflight =
      static_cast<int>(envInt("CONVGEN_MAX_INFLIGHT", 2LL * Hw));
  if (L.MaxInflight < 1)
    L.MaxInflight = 1;
  L.QueueDepth = static_cast<int>(
      envInt("CONVGEN_QUEUE_DEPTH", 2LL * L.MaxInflight));
  if (L.QueueDepth < 0)
    L.QueueDepth = 0;
  L.DefaultDeadlineMs = envInt("CONVGEN_DEFAULT_DEADLINE_MS", 0);
  if (L.DefaultDeadlineMs < 0)
    L.DefaultDeadlineMs = 0;
  return L;
}

ConversionService::ConversionService(ServiceLimits L) : Limits(L) {
  if (Limits.MaxInflight < 1)
    Limits.MaxInflight = 1;
  if (Limits.QueueDepth < 0)
    Limits.QueueDepth = 0;
  // Warm-start hook: under CONVGEN_PRELOAD=eager|background the shared
  // PlanCache revalidates and dlopens the manifest's entries now, so the
  // first requests hit warm. One-shot per process — a second service
  // instance does not re-preload.
  PlanCache::instance().maybePreloadFromEnv();
}

ConversionService::~ConversionService() {
  // Outstanding submit() workers hold `this`; leaving before they finish
  // would be a use-after-free. Futures already handed out stay valid
  // (shared state is owned by the future/promise pair, not the service).
  std::unique_lock<std::mutex> Lock(AsyncMu);
  AsyncDrained.wait(Lock, [this] { return AsyncOutstanding == 0; });
}

ConversionService &ConversionService::instance() {
  // Leaked like PlanCache::instance(): request threads may outlive static
  // destruction in exotic shutdown orders.
  static ConversionService *S = new ConversionService();
  return *S;
}

Deadline ConversionService::deadlineFor(const ConversionRequest &R) const {
  int64_t Ms = R.DeadlineMs < 0 ? Limits.DefaultDeadlineMs : R.DeadlineMs;
  return Ms > 0 ? Deadline::afterMillis(Ms) : Deadline::never();
}

Status ConversionService::admit(const Deadline &D) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Inflight < Limits.MaxInflight) {
    ++Inflight;
    return Status();
  }
  if (Queued >= Limits.QueueDepth) {
    Counts.Shed.fetch_add(1, std::memory_order_relaxed);
    DegradationLog::instance().record(
        Degradation::LoadShed,
        strfmt("shed at capacity (%d in flight, %d queued)", Inflight,
               Queued));
    return Status::error(
        ErrorCode::ResourceExhausted,
        strfmt("service: at capacity (%d in flight, queue of %d full); "
               "retry later",
               Limits.MaxInflight, Limits.QueueDepth));
  }
  ++Queued;
  while (Inflight >= Limits.MaxInflight) {
    if (D.infinite()) {
      SlotFreed.wait(Lock);
      continue;
    }
    if (SlotFreed.wait_until(Lock, D.timePoint()) ==
            std::cv_status::timeout &&
        Inflight >= Limits.MaxInflight) {
      --Queued;
      Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      DegradationLog::instance().record(
          Degradation::DeadlineExceeded,
          "request deadline expired in the admission queue");
      return Status::error(ErrorCode::DeadlineExceeded,
                           "service: deadline expired while queued for "
                           "admission");
    }
  }
  --Queued;
  ++Inflight;
  return Status();
}

void ConversionService::release() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    --Inflight;
  }
  SlotFreed.notify_one();
}

StatusOr<tensor::SparseTensor>
ConversionService::convert(const ConversionRequest &Request) {
  ExecInfo Info;
  return serve(Request, deadlineFor(Request), Info);
}

StatusOr<tensor::SparseTensor>
ConversionService::serve(const ConversionRequest &Request, const Deadline &D,
                         ExecInfo &Info) {
  Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
  if (!Request.Input) {
    Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Status::error(ErrorCode::InvalidArgument,
                         "service: request carries no input tensor");
  }
  Status Admitted = admit(D);
  if (!Admitted.ok())
    return Admitted; // Shed / queue-deadline counters recorded in admit().
  SlotReleaser Releaser{this};
  StatusOr<tensor::SparseTensor> Out = execute(
      Request.ForceInterpreter ? Engine::Interpreter : Engine::Jit,
      Request.Source, Request.Target, Request.Opts, *Request.Input, D, &Info);
  if (Info.Engaged)
    Counts.PlannerEngaged.fetch_add(1, std::memory_order_relaxed);
  if (Info.MeasuredWin)
    Counts.PlannerMeasured.fetch_add(1, std::memory_order_relaxed);
  if (!Out.ok()) {
    if (Out.status().code() == ErrorCode::DeadlineExceeded)
      Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    else
      Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Out;
  }
  if (Info.TwoHop)
    Counts.PlannerTwoHop.fetch_add(1, std::memory_order_relaxed);
  if (Info.Forced)
    Counts.PlannerForcedStrategy.fetch_add(1, std::memory_order_relaxed);
  if (Info.Degraded)
    Counts.DegradedRuns.fetch_add(1, std::memory_order_relaxed);
  Counts.Completed.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

std::vector<StatusOr<tensor::SparseTensor>>
ConversionService::submitBatch(const std::vector<ConversionRequest> &Requests,
                               BatchStats *Stats) {
  Counts.Batches.fetch_add(1, std::memory_order_relaxed);
  Counts.BatchRequests.fetch_add(Requests.size(),
                                 std::memory_order_relaxed);
  // Deadlines resolve once, at batch entry: a member's budget covers its
  // whole stay in the batch, including the members ahead of it in FIFO
  // order (that wait is exactly what the deadline is for).
  std::vector<Deadline> Deadlines;
  Deadlines.reserve(Requests.size());
  for (const ConversionRequest &R : Requests)
    Deadlines.push_back(deadlineFor(R));

  BatchStats B;
  B.Requests = Requests.size();
  std::vector<StatusOr<tensor::SparseTensor>> Results;
  Results.reserve(Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I) {
    ExecInfo Info;
    Results.push_back(serve(Requests[I], Deadlines[I], Info));
    const StatusOr<tensor::SparseTensor> &Out = Results.back();
    if (Out.ok()) {
      B.Completed++;
      B.DegradedRuns += Info.Degraded;
    } else if (Out.status().code() == ErrorCode::ResourceExhausted) {
      B.Shed++;
    } else if (Out.status().code() == ErrorCode::DeadlineExceeded) {
      B.DeadlineExpired++;
    } else {
      B.RequestErrors++;
    }
  }
  if (Stats)
    *Stats = B;
  return Results;
}

std::future<StatusOr<tensor::SparseTensor>>
ConversionService::submit(ConversionRequest Request) {
  Counts.AsyncSubmitted.fetch_add(1, std::memory_order_relaxed);
  // The packaged_task owns the promise; the caller's future stays valid
  // even if the service dies right after the worker finishes. The worker
  // thread holds `this` only until it decrements AsyncOutstanding, which
  // the destructor waits on.
  auto Task = std::make_shared<
      std::packaged_task<StatusOr<tensor::SparseTensor>()>>(
      [this, Request = std::move(Request)] { return convert(Request); });
  std::future<StatusOr<tensor::SparseTensor>> Fut = Task->get_future();
  {
    std::lock_guard<std::mutex> Lock(AsyncMu);
    ++AsyncOutstanding;
  }
  std::thread([this, Task] {
    (*Task)();
    // Notify under the lock: once it is released, the destructor may
    // return and destroy the condition variable.
    std::lock_guard<std::mutex> Lock(AsyncMu);
    --AsyncOutstanding;
    AsyncDrained.notify_all();
  }).detach();
  return Fut;
}

ServiceStats ConversionService::stats() const {
  ServiceStats Out;
  Out.Submitted = Counts.Submitted.load(std::memory_order_relaxed);
  Out.Completed = Counts.Completed.load(std::memory_order_relaxed);
  Out.Shed = Counts.Shed.load(std::memory_order_relaxed);
  Out.DeadlineExpired =
      Counts.DeadlineExpired.load(std::memory_order_relaxed);
  Out.DegradedRuns = Counts.DegradedRuns.load(std::memory_order_relaxed);
  Out.RequestErrors =
      Counts.RequestErrors.load(std::memory_order_relaxed);
  Out.Batches = Counts.Batches.load(std::memory_order_relaxed);
  Out.BatchRequests =
      Counts.BatchRequests.load(std::memory_order_relaxed);
  Out.AsyncSubmitted =
      Counts.AsyncSubmitted.load(std::memory_order_relaxed);
  Out.PlannerEngaged =
      Counts.PlannerEngaged.load(std::memory_order_relaxed);
  Out.PlannerForcedStrategy =
      Counts.PlannerForcedStrategy.load(std::memory_order_relaxed);
  Out.PlannerTwoHop = Counts.PlannerTwoHop.load(std::memory_order_relaxed);
  Out.PlannerMeasured =
      Counts.PlannerMeasured.load(std::memory_order_relaxed);
  return Out;
}

int ConversionService::inflight() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Inflight;
}
