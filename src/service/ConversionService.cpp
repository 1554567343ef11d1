//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ConversionService.h"

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "jit/Jit.h"
#include "planner/Planner.h"
#include "support/Assert.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <optional>
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

Status ConversionService::deadlineExpired(const ConversionRequest &R,
                                          const char *Where) {
  Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
  DegradationLog::instance().record(
      Degradation::DeadlineExceeded,
      strfmt("%s -> %s: %s", R.Source.Name.c_str(), R.Target.Name.c_str(),
             Where));
  return Status::error(ErrorCode::DeadlineExceeded,
                       strfmt("service: request deadline expired %s", Where));
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

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Executes a planner-chosen candidate path through JIT handles: every
/// hop's handle acquired up front (compiles are a once-per-process cost),
/// the hop chain timed, and the measured outcome recorded under the
/// candidate's key. \p AnyDegraded reports whether any hop served through
/// a degraded (interpreter) handle.
StatusOr<tensor::SparseTensor>
runPlannedNative(const planner::Decision &Route,
                 const ConversionRequest &Request, const Deadline &D,
                 bool *AnyDegraded) {
  const planner::Candidate &Chosen = Route.Chosen;
  // Acceptance contract: a source tensor the default direct plan rejects
  // (unsorted where its dedup assembly requires order) stays rejected no
  // matter which path the planner chose, so planner-on and planner-off
  // accept exactly the same inputs.
  if (Chosen.Label != "direct") {
    for (const planner::Candidate &C : Route.Considered)
      if (C.Label == "direct" && !C.Hops.empty()) {
        StatusOr<std::shared_ptr<const codegen::Conversion>> Direct =
            PlanCache::instance().tryPlan(C.Hops[0].Src, C.Hops[0].Dst,
                                          C.Hops[0].Opts);
        if (!Direct.ok())
          return Direct.status();
        Status Order = checkSourceOrder(**Direct, *Request.Input);
        if (!Order.ok())
          return Order;
        break;
      }
  }
  std::vector<std::shared_ptr<jit::JitConversion>> Handles;
  for (const planner::Hop &H : Chosen.Hops) {
    StatusOr<std::shared_ptr<jit::JitConversion>> HRes =
        PlanCache::instance().tryJit(H.Src, H.Dst, H.Opts, "", D);
    if (!HRes.ok())
      return HRes.status();
    Handles.push_back(HRes.take());
  }
  if (D.expired())
    return Status::error(ErrorCode::DeadlineExceeded,
                         "service: request deadline expired after "
                         "planned-path JIT acquisition");
  auto Start = std::chrono::steady_clock::now();
  tensor::SparseTensor Staged;
  const tensor::SparseTensor *Cur = Request.Input;
  for (size_t I = 0; I < Handles.size(); ++I) {
    if (I && D.expired())
      return Status::error(
          ErrorCode::DeadlineExceeded,
          "service: request deadline expired between planned hops");
    StatusOr<tensor::SparseTensor> Out = Handles[I]->tryRun(*Cur);
    if (!Out.ok())
      return Out;
    if (Handles[I]->degraded())
      *AnyDegraded = true;
    Staged = Out.take();
    Cur = &Staged;
  }
  PlanCache::instance().recordOutcome(Chosen.OutcomeKey, secondsSince(Start));
  return std::move(Staged);
}

} // namespace

StatusOr<tensor::SparseTensor>
ConversionService::convert(const ConversionRequest &Request) {
  Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
  if (!Request.Input) {
    Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Status::error(ErrorCode::InvalidArgument,
                         "service: request carries no input tensor");
  }
  Deadline D = deadlineFor(Request);

  Status Admitted = admit(D);
  if (!Admitted.ok())
    return Admitted; // Shed / queue-deadline counters recorded in admit().
  SlotReleaser Releaser{this};
  if (D.expired())
    return deadlineExpired(Request, "entering execution");

  if (Request.ForceInterpreter) {
    // Oracle traffic: the Converter routes dims-specialized plans itself
    // and checks the deadline at its own phase boundaries.
    StatusOr<Converter> C =
        Converter::tryCreate(Request.Source, Request.Target, Request.Opts);
    if (!C.ok()) {
      Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
      return C.status();
    }
    StatusOr<tensor::SparseTensor> Out = C->tryRun(*Request.Input, D);
    if (!Out.ok()) {
      if (Out.status().code() == ErrorCode::DeadlineExceeded)
        Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      else
        Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
      return Out;
    }
    Counts.Completed.fetch_add(1, std::memory_order_relaxed);
    return Out;
  }

  // Native path. The path planner picks the cheapest equivalent strategy
  // assignment or two-hop chain for this input; its default "direct"
  // choice is exactly the classic dims-routed plan, so a disengaged
  // planner and an engaged-but-default one key the shared cache
  // identically. Planner-executed conversions are timed and their
  // outcomes recorded so repeated shapes auto-tune.
  planner::Decision Route =
      planner::decide(Request.Source, Request.Target, Request.Opts,
                      planner::InputStats::fromTensor(*Request.Input));
  if (Route.Engaged) {
    Counts.PlannerEngaged.fetch_add(1, std::memory_order_relaxed);
    if (Route.MeasuredWin)
      Counts.PlannerMeasured.fetch_add(1, std::memory_order_relaxed);
    bool AnyDegraded = false;
    StatusOr<tensor::SparseTensor> Out =
        runPlannedNative(Route, Request, D, &AnyDegraded);
    bool Fallback = false;
    if (!Out.ok() && Out.status().code() != ErrorCode::DeadlineExceeded &&
        Route.Chosen.Label != "direct") {
      // A variant path must never make a convertible input fail: retry
      // through the default direct plan before reporting anything.
      DegradationLog::instance().record(
          Degradation::PlannerFallback,
          strfmt("%s -> %s: planned path '%s' failed (%s); using the "
                 "direct conversion",
                 Request.Source.Name.c_str(), Request.Target.Name.c_str(),
                 Route.Chosen.Label.c_str(),
                 Out.status().message().c_str()));
      Fallback = true;
    }
    if (!Fallback) {
      if (!Out.ok()) {
        if (Out.status().code() == ErrorCode::DeadlineExceeded)
          Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
        else
          Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
        return Out;
      }
      if (Route.Chosen.Kind == planner::Candidate::Path::TwoHop)
        Counts.PlannerTwoHop.fetch_add(1, std::memory_order_relaxed);
      else if (Route.Chosen.Label != "direct")
        Counts.PlannerForcedStrategy.fetch_add(1, std::memory_order_relaxed);
      if (AnyDegraded)
        Counts.DegradedRuns.fetch_add(1, std::memory_order_relaxed);
      Counts.Completed.fetch_add(1, std::memory_order_relaxed);
      return Out;
    }
  }
  std::shared_ptr<jit::JitConversion> Handle;
  return runDirect(Request, D, D, Handle);
}

StatusOr<tensor::SparseTensor>
ConversionService::runDirect(const ConversionRequest &Request,
                             const Deadline &D, const Deadline &AcquireD,
                             std::shared_ptr<jit::JitConversion> &Handle) {
  if (!Handle) {
    StatusOr<std::shared_ptr<jit::JitConversion>> H =
        PlanCache::instance().tryJitFor(Request.Source, Request.Target,
                                        Request.Opts, *Request.Input, "",
                                        AcquireD);
    if (!H.ok()) {
      if (H.status().code() == ErrorCode::DeadlineExceeded)
        Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      else
        Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
      return H.status();
    }
    Handle = H.take();
  }
  if (D.expired())
    return deadlineExpired(Request, "after plan/JIT acquisition");
  StatusOr<tensor::SparseTensor> Out = Handle->tryRunShaped(*Request.Input);
  if (!Out.ok()) {
    Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Out;
  }
  if (Handle->degraded())
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
  BatchStats Local;
  BatchStats &B = Stats ? *Stats : Local;
  B = BatchStats();
  B.Requests = Requests.size();

  // Batches bypass the path planner deliberately: grouping exists to
  // amortize one handle acquisition across same-route members, and
  // per-member planner decisions would fragment the groups (and the
  // outcome records) it amortizes over. Callers wanting planned execution
  // submit individually.
  //
  // Group member indices by route key, first-appearance order: the key
  // convert() memoizes its handle under, so a group's one tryJitFor shape
  // check covers every member. ForceInterpreter and null-input requests
  // cannot share a native handle; each is its own singleton group,
  // executed through convert().
  std::vector<std::pair<std::string, std::vector<size_t>>> Groups;
  std::map<std::string, size_t> GroupIndex;
  for (size_t I = 0; I < Requests.size(); ++I) {
    const ConversionRequest &R = Requests[I];
    if (R.ForceInterpreter || !R.Input) {
      Groups.push_back({"", {I}});
      continue;
    }
    std::string Key = routeKey(R.Source, R.Target, R.Opts,
                               R.Input->Format.Name, R.Input->Dims, "");
    auto [It, New] = GroupIndex.emplace(Key, Groups.size());
    if (New)
      Groups.push_back({Key, {}});
    Groups[It->second].second.push_back(I);
  }
  B.Groups = Groups.size();
  Counts.BatchGroups.fetch_add(Groups.size(), std::memory_order_relaxed);

  // Deadlines resolve once, at batch entry: a member's budget covers its
  // whole stay in the batch, including the members ahead of it in FIFO
  // order (that wait is exactly what the deadline is for).
  std::vector<Deadline> Deadlines(Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I)
    Deadlines[I] = deadlineFor(Requests[I]);

  std::vector<std::optional<StatusOr<tensor::SparseTensor>>> Results(
      Requests.size());
  auto NoteOutcome = [&B](const StatusOr<tensor::SparseTensor> &Out) {
    if (Out.ok())
      B.Completed++;
    else if (Out.status().code() == ErrorCode::ResourceExhausted)
      B.Shed++;
    else if (Out.status().code() == ErrorCode::DeadlineExceeded)
      B.DeadlineExpired++;
    else
      B.RequestErrors++;
  };

  for (const auto &[Key, Members] : Groups) {
    if (Key.empty()) {
      // Singleton: convert() does all the accounting; mirror the outcome
      // into the batch breakout.
      size_t Idx = Members.front();
      Results[Idx] = convert(Requests[Idx]);
      NoteOutcome(*Results[Idx]);
      continue;
    }

    // One handle acquisition serves the group, bounded by the most
    // patient member (the handle outlives any single member; an impatient
    // first member must not starve the rest of the group).
    bool AnyInfinite = false;
    Deadline::Clock::time_point Latest{};
    for (size_t Idx : Members) {
      if (Deadlines[Idx].infinite())
        AnyInfinite = true;
      else if (Deadlines[Idx].timePoint() > Latest)
        Latest = Deadlines[Idx].timePoint();
    }
    Deadline GroupD =
        AnyInfinite ? Deadline::never() : Deadline::at(Latest);

    std::shared_ptr<jit::JitConversion> Handle;
    for (size_t Idx : Members) {
      const ConversionRequest &R = Requests[Idx];
      Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
      const Deadline &D = Deadlines[Idx];
      Status Admitted = admit(D);
      if (!Admitted.ok()) {
        // Shed / queue-deadline service counters recorded in admit(); the
        // member fails alone, the batch continues.
        Results[Idx] = Admitted;
        NoteOutcome(*Results[Idx]);
        continue;
      }
      SlotReleaser Releaser{this};
      bool Acquiring = !Handle;
      // A failed acquisition leaves Handle empty, so the next member
      // retries it.
      Results[Idx] = D.expired() ? deadlineExpired(R, "entering execution")
                                 : runDirect(R, D, GroupD, Handle);
      if (Acquiring && Handle)
        B.HandleAcquisitions++;
      NoteOutcome(*Results[Idx]);
      if (Results[Idx]->ok() && Handle->degraded())
        B.DegradedRuns++;
    }
  }

  std::vector<StatusOr<tensor::SparseTensor>> Out;
  Out.reserve(Requests.size());
  for (auto &R : Results) {
    CONVGEN_ASSERT(R.has_value(), "batch member left without an outcome");
    Out.push_back(std::move(*R));
  }
  return Out;
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
  Out.BatchGroups = Counts.BatchGroups.load(std::memory_order_relaxed);
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
