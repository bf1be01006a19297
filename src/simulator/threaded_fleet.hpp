// Wall-clock simulator fleet: runs (re-)simulation jobs as threads that
// write real files, for the live (daemon) deployment.
//
// Each launched job sleeps through its scaled queue delay and restart
// latency, then produces one output file per (scaled) tau_sim: content
// comes from a pluggable producer (synthetic payload by default, or the
// Sedov solver in the physics examples), lands in a FileStore, and the DV
// daemon is notified exactly as a DVLib-intercepted simulator would
// (create -> write -> close -> "file is ready").
//
// `timeScale` compresses virtual seconds into real ones so examples run in
// milliseconds while keeping the paper's timing ratios.
#pragma once

#include "common/types.hpp"
#include "dv/daemon.hpp"
#include "dv/launcher.hpp"
#include "simulator/batch.hpp"
#include "vfs/file_store.hpp"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace simfs::simulator {

/// SimLauncher for live deployments.
class ThreadedSimulatorFleet final : public dv::SimLauncher {
 public:
  /// Produces the content of one output step.
  using ProduceFn =
      std::function<std::string(const simmodel::JobSpec&, StepIndex)>;

  /// `timeScale` multiplies all model durations (1.0 = real time,
  /// 0.001 = 1000x compressed). Default producer emits a small synthetic
  /// payload derived from (context, step) — deterministic, so Bitrep holds.
  ThreadedSimulatorFleet(dv::Daemon& daemon, vfs::FileStore& store,
                         double timeScale = 0.001);

  ~ThreadedSimulatorFleet() override;

  /// Registers context timing/naming (same config the daemon's driver has).
  void registerContext(const simmodel::ContextConfig& config);

  /// Installs a custom producer (e.g. the Sedov solver).
  void setProducer(ProduceFn produce);

  /// Queue-delay model applied to every launch.
  void setBatchModel(BatchModel model) { batch_ = model; }

  // --- SimLauncher ------------------------------------------------------------
  /// Non-blocking: joins the threads of finished jobs, then spawns the job
  /// thread. Called on a daemon worker with the owning shard's lock held,
  /// so it must never call back into the daemon synchronously (job threads
  /// report events asynchronously via the daemon's shard queues).
  void launch(SimJobId job, const simmodel::JobSpec& spec) override;
  void kill(SimJobId job) override;

  /// Blocks until every job thread has finished (shutdown path). Must not
  /// be called from a daemon worker (it would wait on jobs whose events
  /// need that worker).
  void joinAll();

  [[nodiscard]] std::uint64_t launched() const noexcept { return launched_.load(); }

  /// Jobs whose threads are still running (stress tests and benches poll
  /// this to detect quiescence).
  [[nodiscard]] std::uint64_t activeJobs() const noexcept {
    return active_.load();
  }

 private:
  struct Job {
    std::thread thread;
    std::atomic<bool> killed{false};
    std::atomic<bool> done{false};  ///< set as the thread body returns
  };

  /// Sleeps for `d` (already scaled) or until the job is killed.
  bool sleepOrKilled(Job& job, VDuration d);

  void runJob(Job& job, SimJobId id, simmodel::JobSpec spec);

  dv::Daemon& daemon_;
  vfs::FileStore& store_;
  double timeScale_;
  BatchModel batch_;
  ProduceFn produce_;
  Rng rng_{123};

  std::mutex mutex_;
  std::condition_variable killCv_;
  std::map<std::string, simmodel::ContextConfig> contexts_;
  std::map<SimJobId, std::unique_ptr<Job>> jobs_;
  std::atomic<std::uint64_t> launched_{0};
  std::atomic<std::uint64_t> active_{0};
};

}  // namespace simfs::simulator
