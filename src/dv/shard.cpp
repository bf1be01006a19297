#include "dv/shard.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"

#include <algorithm>
#include <cassert>

namespace simfs::dv {

namespace {
constexpr const char* kTag = "dv";
}  // namespace

DvShard::ContextState::ContextState(
    std::unique_ptr<simmodel::SimulationDriver> d)
    : driver(std::move(d)),
      area(driver->config().name, driver->config().cacheQuotaBytes),
      cache(cache::makeCache(driver->config().policy,
                             driver->config().cacheCapacitySteps())) {}

DvShard::DvShard(const Clock& clock, ClientId firstClientId,
                 SimJobId firstJobId, std::uint64_t idStride)
    : clock_(clock),
      nextClient_(firstClientId),
      nextJob_(firstJobId),
      idStride_(idStride) {
  SIMFS_CHECK(idStride_ > 0);
  SIMFS_CHECK(firstClientId > 0);
  SIMFS_CHECK(firstJobId > 0);
}

DvShard::~DvShard() = default;

Status DvShard::registerContext(
    std::unique_ptr<simmodel::SimulationDriver> driver) {
  SIMFS_CHECK(driver != nullptr);
  const std::string name = driver->config().name;
  if (contexts_.count(name) > 0) {
    return errAlreadyExists("dv: context exists: " + name);
  }
  contexts_.emplace(name, std::make_unique<ContextState>(std::move(driver)));
  SIMFS_LOG_INFO(kTag, "registered context '%s'", name.c_str());
  return Status::ok();
}

Status DvShard::seedAvailableStep(const std::string& context, StepIndex step) {
  auto* ctx = findContext(context);
  if (ctx == nullptr) return errNotFound("dv: no context: " + context);
  const auto& cfg = ctx->driver->config();
  if (!cfg.geometry.validStep(step)) {
    return errOutOfRange(str::format("dv: step %lld outside timeline",
                                     static_cast<long long>(step)));
  }
  auto& fs = ctx->files[step];
  if (fs.kind == FileState::Kind::kAvailable) return Status::ok();
  if (!fs.waiters.empty()) {
    // Seeding over a pending step: it stops being owed, so release the
    // registered producer's waited-step counter (prefetch-kill decisions
    // read it) exactly as makeAvailable would.
    const auto jit = jobs_.find(fs.producer);
    if (jit != jobs_.end()) --jit->second.waitedSteps;
  }
  fs.kind = FileState::Kind::kAvailable;
  fs.producer = 0;
  (void)ctx->area.addStep(step, cfg.outputStepBytes);
  processEvictions(*ctx, ctx->cache->insert(
                             step, static_cast<double>(
                                       cfg.geometry.missCostSteps(step))));
  return Status::ok();
}

Status DvShard::setChecksumMap(const std::string& context,
                               simmodel::ChecksumMap map) {
  auto* ctx = findContext(context);
  if (ctx == nullptr) return errNotFound("dv: no context: " + context);
  ctx->checksums = std::move(map);
  return Status::ok();
}

Result<ClientId> DvShard::clientConnect(const std::string& context) {
  auto* ctx = findContext(context);
  if (ctx == nullptr) return errNotFound("dv: no context: " + context);
  const ClientId id = nextClient_;
  nextClient_ += idStride_;
  ClientInfo info;
  info.id = id;
  info.ctx = ctx;
  info.agent = std::make_unique<prefetch::PrefetchAgent>(ctx->driver->config());
  const auto it = clients_.emplace(id, std::move(info)).first;
  ctx->clients.push_back(&it->second);
  SIMFS_LOG_DEBUG(kTag, "client %llu connected to '%s'",
                  static_cast<unsigned long long>(id), context.c_str());
  return id;
}

void DvShard::clientDisconnect(ClientId client) {
  auto* info = findClient(client);
  if (info == nullptr) return;
  auto* ctx = info->ctx;
  SIMFS_CHECK(ctx != nullptr);
  // Drop every reference the client still holds.
  for (const auto& [step, count] : info->refs) {
    for (int i = 0; i < count; ++i) ctx->cache->unpin(step);
  }
  // Remove it from the waiter lists it is actually enqueued on.
  for (const StepIndex step : info->waitingSteps) {
    const auto fit = ctx->files.find(step);
    if (fit == ctx->files.end()) continue;
    auto& fs = fit->second;
    const bool hadWaiters = !fs.waiters.empty();
    std::erase_if(fs.waiters,
                  [client](const Waiter& w) { return w.client == client; });
    if (hadWaiters && fs.waiters.empty() &&
        fs.kind == FileState::Kind::kPending) {
      const auto jit = jobs_.find(fs.producer);
      if (jit != jobs_.end()) --jit->second.waitedSteps;
    }
  }
  info->waitingSteps.clear();
  killUnneededPrefetches(client);
  ctx->clients.erase(
      std::remove(ctx->clients.begin(), ctx->clients.end(), info),
      ctx->clients.end());
  clients_.erase(client);
}

OpenResult DvShard::clientOpen(ClientId client, std::string_view file,
                               VTime deadline) {
  OpenResult res;
  auto* info = findClient(client);
  if (info == nullptr) {
    res.status = errFailedPrecondition("dv: unknown client");
    return res;
  }
  ContextState* ctx = info->ctx;
  SIMFS_CHECK(ctx != nullptr);
  const auto& cfg = ctx->driver->config();

  // Restart files are always kept on disk (they are SimFS's fixed storage
  // investment); opening one succeeds immediately.
  if (cfg.codec.isRestartFile(file)) {
    res.status = Status::ok();
    res.available = true;
    return res;
  }

  // The one and only filename parse of this request.
  const auto key = ctx->driver->key(file);
  if (!key) {
    res.status = key.status();
    return res;
  }
  const StepIndex step = *key;
  if (!cfg.geometry.validStep(step)) {
    res.status = errOutOfRange("dv: step outside timeline: " + std::string(file));
    return res;
  }

  ++stats_.opens;
  bool hit = false;
  bool servedBySim = false;

  const auto fit = ctx->files.find(step);
  if (fit != ctx->files.end() && fit->second.kind == FileState::Kind::kAvailable) {
    hit = true;
    ++stats_.hits;
    // Touch the replacement policy and take a reference (one probe).
    const auto outcome = ctx->cache->accessAndPin(
        step, static_cast<double>(cfg.geometry.missCostSteps(step)));
    SIMFS_CHECK(outcome.hit);
    ++info->refs[step];
    res.status = Status::ok();
    res.available = true;
  } else if (fit != ctx->files.end()) {
    // Pending: some job is already producing it.
    ++stats_.misses;
    servedBySim = true;
    addWaiter(*ctx, step, fit->second, *info, deadline);
    const auto jit = jobs_.find(fit->second.producer);
    res.status = Status::ok();
    res.available = false;
    res.estimatedWait =
        jit == jobs_.end() ? 0 : estimateWait(*ctx, jit->second, step);
  } else if (launcher_ == nullptr) {
    // Launcher detached (fleet shut down): requests that would need a
    // re-simulation fail soft instead of aborting.
    ++stats_.misses;
    res.status = errUnavailable("dv: launcher detached");
    return res;
  } else {
    // Missing: start the demand re-simulation from R(d_i) until at least
    // the next restart step (Sec. II-A).
    ++stats_.misses;
    const auto& geom = cfg.geometry;
    const StepIndex start =
        geom.firstStepAtOrAfterRestart(geom.restartFor(step));
    StepIndex stop = geom.lastStepOfRunUntil(geom.nextRestartAfter(step));
    if (geom.numTimesteps() > 0) {
      stop = std::min<StepIndex>(stop, geom.numOutputSteps() - 1);
    }
    const SimJobId job =
        launchJob(*ctx, start, stop, info->agent->parallelismLevel(),
                  JobPurpose::kDemand, client);
    ++stats_.demandJobs;
    info->agent->onJobLaunched(start, stop, /*prefetched=*/false);
    auto& fs = ctx->files[step];
    fs.kind = FileState::Kind::kPending;
    fs.producer = job;
    addWaiter(*ctx, step, fs, *info, deadline);
    const auto jit = jobs_.find(job);
    res.status = Status::ok();
    res.available = false;
    res.estimatedWait =
        jit == jobs_.end() ? 0 : estimateWait(*ctx, jit->second, step);
  }

  const auto actions =
      info->agent->onAccess(step, clock_.now(), hit, servedBySim);
  applyAgentActions(*ctx, *info, actions);
  return res;
}

void DvShard::addWaiter(ContextState& /*ctx*/, StepIndex step, FileState& fs,
                        ClientInfo& client, VTime deadline) {
  fs.waiters.push_back(Waiter{client.id, deadline});
  client.waitingSteps.push_back(step);
  if (fs.waiters.size() == 1 && fs.kind == FileState::Kind::kPending) {
    const auto jit = jobs_.find(fs.producer);
    if (jit != jobs_.end()) ++jit->second.waitedSteps;
  }
}

Status DvShard::clientRelease(ClientId client, std::string_view file) {
  auto* info = findClient(client);
  if (info == nullptr) return errFailedPrecondition("dv: unknown client");
  ContextState* ctx = info->ctx;
  SIMFS_CHECK(ctx != nullptr);
  // Same parse seam as clientOpen: the driver's key() is the authority
  // (its default is the allocation-free codec fast path).
  const auto key = ctx->driver->key(file);
  if (!key) return errFailedPrecondition("dv: release without open: " + std::string(file));
  const StepIndex step = *key;
  const auto rit = info->refs.find(step);
  if (rit == info->refs.end() || rit->second <= 0) {
    return errFailedPrecondition("dv: release without open: " + std::string(file));
  }
  --rit->second;  // zero-count entries linger: keeps the hot path node-free
  ctx->cache->unpin(step);
  return Status::ok();
}

Status DvShard::clientCancel(ClientId client, std::string_view file) {
  auto* info = findClient(client);
  if (info == nullptr) return errFailedPrecondition("dv: unknown client");
  ContextState* ctx = info->ctx;
  SIMFS_CHECK(ctx != nullptr);
  if (ctx->driver->config().codec.isRestartFile(file)) {
    return Status::ok();  // restart opens register nothing to cancel
  }
  const auto key = ctx->driver->key(file);
  if (!key) return errFailedPrecondition("dv: cancel without open: " + std::string(file));
  const StepIndex step = *key;

  // Still pending: the open registered this client as a waiter. Remove
  // exactly ONE entry (overlapping acquires enqueue one entry each) and
  // keep the producing job's waited-step counter consistent, mirroring
  // clientDisconnect's per-step unwind.
  const auto fit = ctx->files.find(step);
  if (fit != ctx->files.end() &&
      fit->second.kind == FileState::Kind::kPending) {
    auto& fs = fit->second;
    const auto wit =
        std::find_if(fs.waiters.begin(), fs.waiters.end(),
                     [client](const Waiter& w) { return w.client == client; });
    if (wit != fs.waiters.end()) {
      fs.waiters.erase(wit);
      const auto pos = std::find(info->waitingSteps.begin(),
                                 info->waitingSteps.end(), step);
      if (pos != info->waitingSteps.end()) {
        *pos = info->waitingSteps.back();
        info->waitingSteps.pop_back();
      }
      if (fs.waiters.empty()) {
        const auto jit = jobs_.find(fs.producer);
        if (jit != jobs_.end()) --jit->second.waitedSteps;
      }
      // The waiter is gone: a prefetch nobody else waits for is now a
      // kill candidate again.
      killUnneededPrefetches(client);
      return Status::ok();
    }
  }

  // Already delivered (available at open time, or the notification won
  // the race against this cancel): the open holds a reference — drop it.
  const auto rit = info->refs.find(step);
  if (rit != info->refs.end() && rit->second > 0) {
    --rit->second;
    ctx->cache->unpin(step);
    return Status::ok();
  }
  return errFailedPrecondition("dv: cancel without open: " + std::string(file));
}

Result<bool> DvShard::clientBitrep(ClientId client, std::string_view file,
                                   std::uint64_t digest) {
  auto* info = findClient(client);
  if (info == nullptr) return errFailedPrecondition("dv: unknown client");
  ContextState* ctx = info->ctx;
  SIMFS_CHECK(ctx != nullptr);
  return ctx->checksums.matches(std::string(file), digest);
}

SimJobId DvShard::launchJob(ContextState& ctx, StepIndex start, StepIndex stop,
                            int level, JobPurpose purpose, ClientId owner) {
  SIMFS_CHECK(launcher_ != nullptr);
  const auto& cfg = ctx.driver->config();
  // Align the start onto its restart step: the simulator can only begin
  // from a restart file.
  const StepIndex alignedStart =
      cfg.geometry.firstStepAtOrAfterRestart(cfg.geometry.restartFor(start));
  stop = std::max(stop, start);

  const SimJobId id = nextJob_;
  nextJob_ += idStride_;
  JobInfo job;
  job.id = id;
  job.ctx = &ctx;
  job.startStep = alignedStart;
  job.stopStep = stop;
  job.level = level;
  job.purpose = purpose;
  job.owner = owner;
  job.launchTime = clock_.now();
  jobs_.emplace(id, job);
  ++ctx.running;
  ++stats_.jobsLaunched;

  // Every not-yet-available step in the range becomes pending under this
  // job (steps already pending keep their first producer).
  for (StepIndex s = alignedStart; s <= stop; ++s) {
    if (!cfg.geometry.validStep(s)) break;
    auto [it, inserted] = ctx.files.try_emplace(s);
    if (inserted) {
      it->second.kind = FileState::Kind::kPending;
      it->second.producer = id;
    }
  }

  launcher_->launch(id, ctx.driver->makeJob(alignedStart, stop, level));
  SIMFS_LOG_DEBUG(kTag, "job %llu launched [%lld, %lld] level=%d %s",
                  static_cast<unsigned long long>(id),
                  static_cast<long long>(alignedStart),
                  static_cast<long long>(stop), level,
                  purpose == JobPurpose::kDemand ? "demand" : "prefetch");
  return id;
}

void DvShard::applyAgentActions(ContextState& ctx, ClientInfo& client,
                                const prefetch::AgentActions& actions) {
  if (actions.pollutionDetected) {
    // Sec. IV-C: produced-then-evicted before use. Reset every agent.
    ++stats_.agentResets;
    SIMFS_LOG_DEBUG(kTag, "cache pollution detected; resetting agents");
    for (ClientInfo* ci : ctx.clients) ci->agent->reset();
  }
  if (actions.trajectoryAbandoned) {
    killUnneededPrefetches(client.id);
  }
  if (launcher_ == nullptr) return;  // detached: nothing left to prefetch into
  const int sMax = ctx.driver->config().sMax;
  for (const auto& req : actions.launches) {
    if (ctx.running >= sMax) break;  // s_max clamps prefetch depth
    const SimJobId job = launchJob(ctx, req.startStep, req.stopStep,
                                   req.parallelismLevel, JobPurpose::kPrefetch,
                                   client.id);
    ++stats_.prefetchJobs;
    client.prefetchJobs.push_back(job);  // ids ascend: list stays sorted
    // Report the job range actually launched (start is restart-aligned).
    const auto& info = jobs_.at(job);
    client.agent->onJobLaunched(info.startStep, info.stopStep,
                                /*prefetched=*/true);
  }
}

void DvShard::simulationStarted(SimJobId job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  it->second.phase = JobPhase::kRunning;
}

void DvShard::simulationFileWritten(SimJobId job, std::string_view file) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;  // late event from a killed job
  auto& info = it->second;
  ContextState* ctx = info.ctx;
  SIMFS_CHECK(ctx != nullptr);
  // The one and only filename parse of this event.
  const auto key = ctx->driver->key(file);
  if (!key) {
    SIMFS_LOG_WARN(kTag, "simulator wrote unparsable file '%s'",
                    std::string(file).c_str());
    return;
  }
  ++stats_.stepsProduced;

  const VTime now = clock_.now();
  const auto tauCfg = ctx->driver->config().perf.at(info.level).tauSim;
  if (!info.firstFileSeen) {
    info.firstFileSeen = true;
    // Observed restart latency: launch -> first file, minus the one
    // production interval the first file itself took (Sec. IV-C1c).
    const VDuration alpha =
        std::max<VDuration>(0, (now - info.launchTime) - tauCfg);
    for (ClientInfo* ci : ctx->clients) ci->agent->observeRestartLatency(alpha);
  } else {
    const VDuration tau = now - info.lastFileTime;
    if (tau > 0) {
      for (ClientInfo* ci : ctx->clients) ci->agent->observeTauSim(tau);
    }
  }
  info.lastFileTime = now;

  makeAvailable(*ctx, *key, job);
}

void DvShard::makeAvailable(ContextState& ctx, StepIndex step,
                            SimJobId producer) {
  const auto& cfg = ctx.driver->config();
  if (!cfg.geometry.validStep(step)) return;

  auto [it, inserted] = ctx.files.try_emplace(step);
  auto& fs = it->second;
  if (!inserted && fs.kind == FileState::Kind::kAvailable) {
    return;  // overwrite of an existing file: nothing changes
  }
  if (!inserted && fs.kind == FileState::Kind::kPending && !fs.waiters.empty()) {
    // The step stops being owed: release the registered producer's counter
    // (which may differ from the job that actually wrote the file).
    const auto jit = jobs_.find(fs.producer);
    if (jit != jobs_.end()) --jit->second.waitedSteps;
  }
  fs.kind = FileState::Kind::kAvailable;
  fs.producer = producer;

  (void)ctx.area.addStep(step, cfg.outputStepBytes);
  if (produced_) produced_(cfg.name, step);
  const auto evicted = ctx.cache->insert(
      step, static_cast<double>(cfg.geometry.missCostSteps(step)));

  // Wake the waiters: each takes its reference now. The filename is
  // materialized once, and only when someone needs to hear about it.
  if (!fs.waiters.empty()) {
    std::vector<Waiter> waiters;
    waiters.swap(fs.waiters);
    const std::string file = cfg.codec.outputFile(step);
    for (const Waiter& w : waiters) {
      auto* wi = findClient(w.client);
      if (wi == nullptr) continue;
      ctx.cache->pin(step);
      ++wi->refs[step];
      // One enqueue entry per notification: prune exactly one.
      const auto pos = std::find(wi->waitingSteps.begin(),
                                 wi->waitingSteps.end(), step);
      if (pos != wi->waitingSteps.end()) {
        *pos = wi->waitingSteps.back();
        wi->waitingSteps.pop_back();
      }
      ++stats_.notifications;
      if (notify_) notify_(w.client, file, Status::ok());
    }
  }

  processEvictions(ctx, evicted);
}

void DvShard::processEvictions(ContextState& ctx,
                               const std::vector<StepIndex>& evicted) {
  const auto& cfg = ctx.driver->config();
  for (const StepIndex step : evicted) {
    ++stats_.evictions;
    ctx.files.erase(step);
    (void)ctx.area.removeStep(step);
    if (evict_) evict_(cfg.name, cfg.codec.outputFile(step));
  }
}

void DvShard::simulationFinished(SimJobId job, const Status& status) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  auto& info = it->second;
  ContextState* ctx = info.ctx;
  SIMFS_CHECK(ctx != nullptr);
  if (info.phase == JobPhase::kQueued || info.phase == JobPhase::kRunning) {
    --ctx->running;
  }
  info.phase = status.isOk() ? JobPhase::kFinished : JobPhase::kFailed;

  if (!status.isOk()) {
    // Propagate restart failure to everything this job owed (Sec. III-C2:
    // the SIMFS_Status carries error states such as "restart failed").
    for (StepIndex s = info.startStep; s <= info.stopStep; ++s) {
      const auto fit = ctx->files.find(s);
      if (fit == ctx->files.end() ||
          fit->second.kind != FileState::Kind::kPending ||
          fit->second.producer != job) {
        continue;
      }
      if (!fit->second.waiters.empty()) {
        const std::string file = ctx->driver->config().codec.outputFile(s);
        for (const Waiter& w : fit->second.waiters) {
          ++stats_.notifications;
          if (notify_) notify_(w.client, file, status);
          // Mirror makeAvailable: one waitingSteps entry per notification.
          if (auto* wi = findClient(w.client); wi != nullptr) {
            const auto pos = std::find(wi->waitingSteps.begin(),
                                       wi->waitingSteps.end(), s);
            if (pos != wi->waitingSteps.end()) {
              *pos = wi->waitingSteps.back();
              wi->waitingSteps.pop_back();
            }
          }
        }
      }
      ctx->files.erase(fit);
    }
    SIMFS_LOG_WARN(kTag, "job %llu failed: %s",
                   static_cast<unsigned long long>(job),
                   status.toString().c_str());
  }
  forgetOwnedJob(info);
  jobs_.erase(it);
}

void DvShard::forgetOwnedJob(const JobInfo& job) {
  if (job.purpose != JobPurpose::kPrefetch) return;
  auto* owner = findClient(job.owner);
  if (owner != nullptr) std::erase(owner->prefetchJobs, job.id);
}

void DvShard::killUnneededPrefetches(ClientId client) {
  auto* info = findClient(client);
  if (info == nullptr) return;
  std::vector<SimJobId> toKill;
  for (const SimJobId id : info->prefetchJobs) {
    const auto jit = jobs_.find(id);
    if (jit == jobs_.end()) continue;
    const auto& job = jit->second;
    if (job.phase != JobPhase::kQueued && job.phase != JobPhase::kRunning) {
      continue;
    }
    // Killable only if no analysis waits for any step it still owes —
    // an O(1) counter check instead of scanning the job's step range.
    if (job.waitedSteps == 0) toKill.push_back(id);
  }
  for (const SimJobId id : toKill) {
    killJob(id);
    SIMFS_LOG_DEBUG(kTag, "killed prefetch job %llu",
                    static_cast<unsigned long long>(id));
  }
}

void DvShard::killJob(SimJobId id) {
  const auto jit = jobs_.find(id);
  if (jit == jobs_.end()) return;
  JobInfo& job = jit->second;
  if (job.phase != JobPhase::kQueued && job.phase != JobPhase::kRunning) {
    return;
  }
  ContextState* ctx = job.ctx;
  SIMFS_CHECK(ctx != nullptr);
  // A detached launcher (fleet already shut down) has no jobs left to
  // kill; the bookkeeping below still has to be unwound.
  if (launcher_ != nullptr) launcher_->kill(id);
  // Steps it still owed revert to missing.
  for (StepIndex s = job.startStep; s <= job.stopStep; ++s) {
    const auto fit = ctx->files.find(s);
    if (fit != ctx->files.end() &&
        fit->second.kind == FileState::Kind::kPending &&
        fit->second.producer == id) {
      ctx->files.erase(fit);
    }
  }
  --ctx->running;
  ++stats_.jobsKilled;
  forgetOwnedJob(job);
  jobs_.erase(jit);
}

std::size_t DvShard::reapExpiredWaiters(VTime now) {
  std::size_t reaped = 0;
  // Producers whose last owed waited step expired in THIS sweep. Only
  // those are kill candidates: a job at waitedSteps == 0 because its
  // waiters were already satisfied is healthy read-ahead, not abandoned.
  std::vector<SimJobId> abandoned;
  for (auto& [name, ctxPtr] : contexts_) {
    ContextState& ctx = *ctxPtr;
    const auto& cfg = ctx.driver->config();
    for (auto& [step, fs] : ctx.files) {
      if (fs.kind != FileState::Kind::kPending || fs.waiters.empty()) {
        continue;
      }
      std::string file;  // materialized once, only if something expired
      bool removed = false;
      for (std::size_t i = 0; i < fs.waiters.size();) {
        const Waiter w = fs.waiters[i];
        if (w.deadline == 0 || w.deadline > now) {
          ++i;
          continue;
        }
        fs.waiters[i] = fs.waiters.back();
        fs.waiters.pop_back();
        removed = true;
        ++reaped;
        ++stats_.waitersExpired;
        if (auto* wi = findClient(w.client); wi != nullptr) {
          const auto pos = std::find(wi->waitingSteps.begin(),
                                     wi->waitingSteps.end(), step);
          if (pos != wi->waitingSteps.end()) {
            *pos = wi->waitingSteps.back();
            wi->waitingSteps.pop_back();
          }
        }
        if (file.empty()) file = cfg.codec.outputFile(step);
        ++stats_.notifications;
        if (notify_) notify_(w.client, file, errTimedOut("dv: open deadline expired"));
      }
      if (removed && fs.waiters.empty()) {
        const auto jit = jobs_.find(fs.producer);
        if (jit != jobs_.end() && --jit->second.waitedSteps == 0 &&
            (jit->second.phase == JobPhase::kQueued ||
             jit->second.phase == JobPhase::kRunning)) {
          abandoned.push_back(fs.producer);
        }
      }
    }
  }
  for (const SimJobId id : abandoned) {
    killJob(id);
    SIMFS_LOG_DEBUG(kTag, "killed abandoned job %llu (all waiters expired)",
                    static_cast<unsigned long long>(id));
  }
  return reaped;
}

VDuration DvShard::estimateWait(const ContextState& ctx, const JobInfo& job,
                                StepIndex step) const {
  const auto& perf = ctx.driver->config().perf.at(job.level);
  const std::int64_t stepsToGo = std::max<std::int64_t>(step - job.startStep + 1, 1);
  const VTime eta = job.launchTime + perf.alphaSim + stepsToGo * perf.tauSim;
  return std::max<VDuration>(0, eta - clock_.now());
}

DvShard::ContextState* DvShard::findContext(const std::string& name) {
  const auto it = contexts_.find(name);
  return it == contexts_.end() ? nullptr : it->second.get();
}

const DvShard::ContextState* DvShard::findContext(
    const std::string& name) const {
  const auto it = contexts_.find(name);
  return it == contexts_.end() ? nullptr : it->second.get();
}

DvShard::ClientInfo* DvShard::findClient(ClientId id) {
  const auto it = clients_.find(id);
  return it == clients_.end() ? nullptr : &it->second;
}

bool DvShard::isAvailable(const std::string& context, StepIndex step) const {
  const auto* ctx = findContext(context);
  if (ctx == nullptr) return false;
  const auto it = ctx->files.find(step);
  return it != ctx->files.end() &&
         it->second.kind == FileState::Kind::kAvailable;
}

int DvShard::runningJobs(const std::string& context) const {
  const auto* ctx = findContext(context);
  return ctx == nullptr ? 0 : ctx->running;
}

const cache::CacheStats* DvShard::cacheStats(const std::string& context) const {
  const auto* ctx = findContext(context);
  return ctx == nullptr ? nullptr : &ctx->cache->stats();
}

const simmodel::ContextConfig* DvShard::contextConfig(
    const std::string& context) const {
  const auto* ctx = findContext(context);
  return ctx == nullptr ? nullptr : &ctx->driver->config();
}

std::vector<std::string> DvShard::contextNames() const {
  std::vector<std::string> out;
  out.reserve(contexts_.size());
  for (const auto& [name, _] : contexts_) out.push_back(name);
  return out;
}

std::size_t DvShard::residentSteps() const {
  std::size_t total = 0;
  for (const auto& [name, ctx] : contexts_) total += ctx->area.stepCount();
  return total;
}

std::optional<ContextSnapshot> DvShard::exportContextSnapshot(
    const std::string& context) const {
  const auto* ctx = findContext(context);
  if (ctx == nullptr) return std::nullopt;
  ContextSnapshot snap;
  snap.context = context;
  snap.available.reserve(ctx->files.size());
  for (const auto& [step, fs] : ctx->files) {
    if (fs.kind == FileState::Kind::kAvailable) {
      snap.available.push_back(step);
    } else if (!fs.waiters.empty()) {
      snap.pendingWaiters.emplace_back(
          step, static_cast<std::uint32_t>(fs.waiters.size()));
    }
  }
  std::sort(snap.available.begin(), snap.available.end());
  std::sort(snap.pendingWaiters.begin(), snap.pendingWaiters.end());
  for (const ClientInfo* ci : ctx->clients) {
    for (const auto& [step, count] : ci->refs) {
      (void)step;
      snap.refs += static_cast<std::uint64_t>(count > 0 ? count : 0);
    }
  }
  return snap;
}

Status DvShard::importContextSteps(const std::string& context,
                                   std::span<const std::int64_t> steps) {
  auto* ctx = findContext(context);
  if (ctx == nullptr) return errNotFound("dv: no context: " + context);
  const auto& geom = ctx->driver->config().geometry;
  for (const std::int64_t raw : steps) {
    const auto step = static_cast<StepIndex>(raw);
    if (!geom.validStep(step)) continue;  // hostile/mismatched frame entry
    makeAvailable(*ctx, step, /*producer=*/0);
  }
  return Status::ok();
}

Status DvShard::adoptContextOwnership(
    const std::string& context,
    std::span<const std::pair<StepIndex, std::uint32_t>> pendingWaiters) {
  auto* ctx = findContext(context);
  if (ctx == nullptr) return errNotFound("dv: no context: " + context);
  if (launcher_ == nullptr) return Status::ok();
  const auto& cfg = ctx->driver->config();
  const auto& geom = cfg.geometry;
  for (const auto& [step, waiters] : pendingWaiters) {
    (void)waiters;
    if (!geom.validStep(step)) continue;
    if (ctx->running >= cfg.sMax) break;  // same clamp as prefetch depth
    const auto fit = ctx->files.find(step);
    if (fit != ctx->files.end()) continue;  // resident or already cooking
    const StepIndex start =
        geom.firstStepAtOrAfterRestart(geom.restartFor(step));
    StepIndex stop = geom.lastStepOfRunUntil(geom.nextRestartAfter(step));
    if (geom.numTimesteps() > 0) {
      stop = std::min<StepIndex>(stop, geom.numOutputSteps() - 1);
    }
    (void)launchJob(*ctx, start, stop, /*level=*/1, JobPurpose::kDemand,
                    /*owner=*/0);
    ++stats_.demandJobs;
  }
  return Status::ok();
}

}  // namespace simfs::dv
