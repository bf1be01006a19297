// Live-stack tests: SimFSClient / C API / I/O facades against a real
// Daemon with a ThreadedSimulatorFleet (wall-clock, heavily time-scaled).
#include "common/checksum.hpp"
#include "dv/daemon.hpp"
#include "dvlib/iolib.hpp"
#include "dvlib/session.hpp"
#include "dvlib/simfs_capi.hpp"
#include "dvlib/simfs_client.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>

namespace simfs::dvlib {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

/// Pass-through transport wrapper counting outbound messages by type —
/// pins the wire-level contract of the vectored session API.
class CountingTransport final : public msg::Transport {
 public:
  struct Counters {
    std::mutex mu;
    std::map<msg::MsgType, int> sent;
    int of(msg::MsgType t) {
      std::lock_guard lock(mu);
      const auto it = sent.find(t);
      return it == sent.end() ? 0 : it->second;
    }
  };

  CountingTransport(std::unique_ptr<msg::Transport> inner,
                    std::shared_ptr<Counters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  Status send(const msg::Message& m) override {
    {
      std::lock_guard lock(counters_->mu);
      ++counters_->sent[m.type];
    }
    return inner_->send(m);
  }
  void setHandler(Handler handler) override {
    inner_->setHandler(std::move(handler));
  }
  void setCloseHandler(std::function<void()> handler) override {
    inner_->setCloseHandler(std::move(handler));
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool isOpen() const override { return inner_->isOpen(); }

 private:
  std::unique_ptr<msg::Transport> inner_;
  std::shared_ptr<Counters> counters_;
};

/// A launcher that records jobs without running them: files stay pending
/// until the test completes them by hand (deterministic cancellation
/// scenarios).
struct RecordingLauncher final : dv::SimLauncher {
  void launch(SimJobId job, const simmodel::JobSpec& spec) override {
    std::lock_guard lock(mu);
    jobs.emplace_back(job, spec);
  }
  void kill(SimJobId) override {}
  std::mutex mu;
  std::vector<std::pair<SimJobId, simmodel::JobSpec>> jobs;
};

ContextConfig liveConfig() {
  ContextConfig cfg;
  cfg.name = "live";
  cfg.geometry = StepGeometry(1, 4, 128);
  cfg.outputStepBytes = 64;
  cfg.cacheQuotaBytes = 0;  // no eviction surprises in these tests
  cfg.sMax = 4;
  // Model times: alpha = 50 ms, tau = 20 ms; the fleet runs them 1:1
  // (they are already tiny).
  cfg.perf = PerfModel(4, 20 * vtime::kMillisecond, 50 * vtime::kMillisecond);
  return cfg;
}

class LiveStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = liveConfig();
    daemon_ = std::make_unique<dv::Daemon>();
    fleet_ = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *daemon_, store_, /*timeScale=*/1.0);
    ASSERT_TRUE(daemon_
                    ->registerContext(
                        std::make_unique<simmodel::SyntheticDriver>(cfg_))
                    .isOk());
    fleet_->registerContext(cfg_);
    daemon_->setLauncher(fleet_.get());
    daemon_->setEvictFn([this](const std::string&, const std::string& f) {
      (void)store_.remove(f);
    });
  }

  void TearDown() override {
    client_.reset();
    IoDispatch::instance().reset();
    fleet_.reset();  // kill + join before the daemon goes away
    daemon_.reset();
  }

  void connectClient() {
    auto c = SimFSClient::connect(daemon_->connectInProc(), cfg_.name);
    ASSERT_TRUE(c.isOk()) << c.status().toString();
    client_ = std::move(*c);
  }

  ContextConfig cfg_;
  vfs::MemFileStore store_;
  std::unique_ptr<dv::Daemon> daemon_;
  std::unique_ptr<simulator::ThreadedSimulatorFleet> fleet_;
  std::unique_ptr<SimFSClient> client_;
};

TEST_F(LiveStackTest, ConnectAndFinalize) {
  connectClient();
  EXPECT_GT(client_->clientId(), 0u);
  EXPECT_EQ(client_->context(), "live");
  client_->finalize();
}

TEST_F(LiveStackTest, ConnectUnknownContextFails) {
  auto c = SimFSClient::connect(daemon_->connectInProc(), "nope");
  EXPECT_FALSE(c.isOk());
  EXPECT_EQ(c.status().code(), StatusCode::kNotFound);
}

TEST_F(LiveStackTest, AcquireMissTriggersResimulation) {
  connectClient();
  SimfsStatus status;
  ASSERT_TRUE(client_->acquire({"out_0000000005.snc"}, &status).isOk());
  // The file now exists with deterministic content.
  EXPECT_TRUE(store_.exists("out_0000000005.snc"));
  EXPECT_TRUE(daemon_->isAvailable("live", 5));
  // Spatial locality: the whole interval was produced.
  EXPECT_TRUE(daemon_->isAvailable("live", 4));
  ASSERT_TRUE(client_->release("out_0000000005.snc").isOk());
}

TEST_F(LiveStackTest, SecondAcquireIsImmediate) {
  connectClient();
  ASSERT_TRUE(client_->acquire({"out_0000000002.snc"}).isOk());
  ASSERT_TRUE(client_->release("out_0000000002.snc").isOk());
  const auto before = daemon_->stats().jobsLaunched;
  SimfsStatus status;
  ASSERT_TRUE(client_->acquire({"out_0000000002.snc"}, &status).isOk());
  EXPECT_EQ(daemon_->stats().jobsLaunched, before);  // served from disk
  ASSERT_TRUE(client_->release("out_0000000002.snc").isOk());
}

TEST_F(LiveStackTest, AcquireMultipleFilesAcrossIntervals) {
  connectClient();
  const std::vector<std::string> files{
      "out_0000000001.snc", "out_0000000006.snc", "out_0000000011.snc"};
  ASSERT_TRUE(client_->acquire(files).isOk());
  for (const auto& f : files) {
    EXPECT_TRUE(store_.exists(f));
    ASSERT_TRUE(client_->release(f).isOk());
  }
}

TEST_F(LiveStackTest, NonBlockingAcquireWaitAndTest) {
  connectClient();
  auto req = client_->acquireNb({"out_0000000009.snc"});
  ASSERT_TRUE(req.isOk());
  // Eventually the request completes; poll with test() then wait().
  ASSERT_TRUE(client_->wait(*req).isOk());
  EXPECT_TRUE(store_.exists("out_0000000009.snc"));
  // Handle is consumed by wait.
  bool done = false;
  EXPECT_EQ(client_->test(*req, &done).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiveStackTest, WaitSomeReportsSubsets) {
  connectClient();
  // First file is already on disk; second needs a re-simulation.
  ASSERT_TRUE(client_->acquire({"out_0000000000.snc"}).isOk());
  auto req = client_->acquireNb({"out_0000000000.snc", "out_0000000020.snc"});
  ASSERT_TRUE(req.isOk());
  std::vector<int> ready;
  ASSERT_TRUE(client_->waitSome(*req, &ready).isOk());
  EXPECT_FALSE(ready.empty());
  // Drain the request to completion.
  for (int i = 0; i < 100 && !ready.empty() && ready.size() < 2; ++i) {
    auto st = client_->waitSome(*req, &ready);
    if (st.code() == StatusCode::kFailedPrecondition) break;  // done+erased
    ASSERT_TRUE(st.isOk());
  }
  ASSERT_TRUE(client_->release("out_0000000000.snc").isOk());
}

TEST_F(LiveStackTest, BitrepMatchesRecordedChecksum) {
  connectClient();
  // Produce the file once, record its checksum "at initial run time".
  ASSERT_TRUE(client_->acquire({"out_0000000003.snc"}).isOk());
  const auto content = store_.read("out_0000000003.snc");
  ASSERT_TRUE(content.isOk());
  simmodel::ChecksumMap map;
  map.record("out_0000000003.snc", fnv1a64(*content));
  ASSERT_TRUE(daemon_->setChecksumMap("live", std::move(map)).isOk());
  // The re-simulated file matches (deterministic producer).
  const auto match =
      client_->bitrep("out_0000000003.snc", fnv1a64(*content));
  ASSERT_TRUE(match.isOk());
  EXPECT_TRUE(*match);
  const auto mismatch = client_->bitrep("out_0000000003.snc", 0xDEAD);
  ASSERT_TRUE(mismatch.isOk());
  EXPECT_FALSE(*mismatch);
}

TEST_F(LiveStackTest, ReleaseWithoutAcquireFails) {
  connectClient();
  EXPECT_EQ(client_->release("out_0000000001.snc").code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(LiveStackTest, OpenIsNonBlockingThenWaitFileBlocks) {
  connectClient();
  auto info = client_->open("out_0000000013.snc");
  ASSERT_TRUE(info.isOk());
  EXPECT_FALSE(info->available);       // miss: re-simulation started
  EXPECT_GT(info->estimatedWait, 0);   // DV estimated the wait
  ASSERT_TRUE(client_->waitFile("out_0000000013.snc").isOk());
  EXPECT_TRUE(store_.exists("out_0000000013.snc"));
}

// ------------------------------------------- vectored async session core

TEST_F(LiveStackTest, VectoredAcquireIsOneRoundTrip) {
  // The acceptance contract of the session redesign: a 64-file acquire
  // puts exactly ONE kOpenBatchReq on the wire — no per-file round
  // trips.
  auto counters = std::make_shared<CountingTransport::Counters>();
  auto transport = std::make_unique<CountingTransport>(
      daemon_->connectInProc(), counters);
  auto client = SimFSClient::connect(std::move(transport), cfg_.name);
  ASSERT_TRUE(client.isOk()) << client.status().toString();

  std::vector<std::string> files;
  for (StepIndex s = 0; s < 64; ++s) {
    files.push_back(cfg_.codec.outputFile(s));
  }
  SimfsStatus status;
  ASSERT_TRUE((*client)->acquire(files, &status).isOk());
  for (const auto& f : files) EXPECT_TRUE(store_.exists(f));

  EXPECT_EQ(counters->of(msg::MsgType::kOpenBatchReq), 1);

  for (const auto& f : files) ASSERT_TRUE((*client)->release(f).isOk());
  (*client)->finalize();
}

TEST_F(LiveStackTest, BatchedReleaseIsOneRoundTrip) {
  // The release mirror of the vectored acquire: N files travel in ONE
  // kReleaseReq, and the daemon drops every reference under one
  // shard-lock acquisition.
  auto counters = std::make_shared<CountingTransport::Counters>();
  auto transport = std::make_unique<CountingTransport>(
      daemon_->connectInProc(), counters);
  auto client = SimFSClient::connect(std::move(transport), cfg_.name);
  ASSERT_TRUE(client.isOk()) << client.status().toString();

  std::vector<std::string> files;
  for (StepIndex s = 0; s < 8; ++s) {
    files.push_back(cfg_.codec.outputFile(s));
  }
  ASSERT_TRUE((*client)->acquire(files).isOk());
  ASSERT_TRUE((*client)->session()->release(files).isOk());
  EXPECT_EQ(counters->of(msg::MsgType::kReleaseReq), 1);

  // Every reference is gone: releasing any file again must fail exactly
  // like a release-without-open.
  for (const auto& f : files) {
    EXPECT_EQ((*client)->release(f).code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(counters->of(msg::MsgType::kReleaseReq), 9);
  (*client)->finalize();
}

TEST_F(LiveStackTest, BatchedReleaseReportsWorstStatusAndFreedCount) {
  connectClient();
  const std::string good = "out_0000000002.snc";
  ASSERT_TRUE(client_->acquire({good}).isOk());
  // One held file, one never-opened file: the batch must release the
  // held reference AND surface the per-file failure as the worst status.
  const std::vector<std::string> batch = {good, "out_0000000003.snc"};
  EXPECT_EQ(client_->session()->release(batch).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client_->release(good).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiveStackTest, PartialAcquireFailureUnwindsRegisteredInterest) {
  // Regression: when file i of an acquire fails, files 0..i-1 already
  // registered DV interest (references / waiter entries); a failed
  // acquire must release them again, or the steps stay pinned forever.
  connectClient();
  const std::string good = "out_0000000002.snc";
  SimfsStatus status;
  EXPECT_FALSE(client_->acquire({good, "definitely-not-a-step"}, &status)
                   .isOk());
  EXPECT_FALSE(status.error.isOk());
  // The good file's reference was unwound: releasing it again must fail
  // exactly like a release-without-open.
  EXPECT_EQ(client_->release(good).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiveStackTest, CancelReleasesDeliveredReference) {
  connectClient();
  const std::string f = "out_0000000004.snc";
  ASSERT_TRUE(client_->acquire({f}).isOk());  // reference #1

  // A second, vectored acquire of the now-available file takes another
  // reference; cancelling the handle must give exactly that one back.
  auto handle = client_->session()->acquireAsync({f});
  ASSERT_TRUE(handle.wait().isOk());
  const auto p = handle.probe(0);
  EXPECT_TRUE(p.available);
  ASSERT_TRUE(handle.cancel().isOk());
  EXPECT_TRUE(handle.complete());

  ASSERT_TRUE(client_->release(f).isOk());  // reference #1 still held
  EXPECT_EQ(client_->release(f).code(), StatusCode::kFailedPrecondition);
}

TEST_F(LiveStackTest, ThenContinuationFiresOnCompletion) {
  connectClient();
  auto handle = client_->session()->acquireAsync({"out_0000000017.snc"});
  std::promise<Status> completed;
  handle.then([&](const Status& st) { completed.set_value(st); });
  auto fut = completed.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(fut.get().isOk());
  // Registering on an already-complete handle fires inline.
  bool inlineFired = false;
  handle.then([&](const Status&) { inlineFired = true; });
  EXPECT_TRUE(inlineFired);
  ASSERT_TRUE(handle.cancel().isOk());  // drop the reference again
}

TEST_F(LiveStackTest, AcquireNbAckCarriesPerFileEstimates) {
  connectClient();
  SimfsStatus status;
  auto req = client_->acquireNb({"out_0000000025.snc"}, &status);
  ASSERT_TRUE(req.isOk());
  // The batch ack came back within the acquireNb call: a miss carries
  // the DV's estimated wait.
  EXPECT_TRUE(status.error.isOk());
  EXPECT_GT(status.estimatedWait, 0);
  ASSERT_TRUE(client_->wait(*req).isOk());
  ASSERT_TRUE(client_->release("out_0000000025.snc").isOk());
}

/// Daemon without a completing fleet: jobs stay pending until the test
/// drives the simulator events by hand — deterministic cancellation and
/// deadline scenarios.
class PendingStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = liveConfig();
    daemon_ = std::make_unique<dv::Daemon>();
    ASSERT_TRUE(daemon_
                    ->registerContext(
                        std::make_unique<simmodel::SyntheticDriver>(cfg_))
                    .isOk());
    daemon_->setLauncher(&launcher_);
  }

  void TearDown() override {
    client_.reset();
    daemon_.reset();
  }

  void connectClient() {
    auto c = SimFSClient::connect(daemon_->connectInProc(), cfg_.name);
    ASSERT_TRUE(c.isOk()) << c.status().toString();
    client_ = std::move(*c);
  }

  /// Fully-async opens race the worker pool: wait until the daemon has
  /// actually launched `n` jobs before replaying them.
  void awaitRecordedJobs(std::size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      {
        std::lock_guard lock(launcher_.mu);
        if (launcher_.jobs.size() >= n) return;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "job never reached the launcher";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Replays every recorded job as a completed simulation.
  void completeRecordedJobs() {
    std::vector<std::pair<SimJobId, simmodel::JobSpec>> jobs;
    {
      std::lock_guard lock(launcher_.mu);
      jobs = launcher_.jobs;
    }
    for (const auto& [id, spec] : jobs) {
      daemon_->simulationStarted(id);
      for (StepIndex s = spec.startStep; s <= spec.stopStep; ++s) {
        daemon_->simulationFileWritten(id, cfg_.codec.outputFile(s));
      }
      daemon_->simulationFinished(id, Status::ok());
    }
  }

  void awaitAvailable(StepIndex step) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!daemon_->isAvailable(cfg_.name, step) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(daemon_->isAvailable(cfg_.name, step));
  }

  ContextConfig cfg_;
  RecordingLauncher launcher_;
  std::unique_ptr<dv::Daemon> daemon_;
  std::unique_ptr<SimFSClient> client_;
};

TEST_F(PendingStackTest, CancelPendingAcquireRemovesWaiter) {
  connectClient();
  const std::string f = "out_0000000006.snc";
  SimfsStatus status;
  auto req = client_->acquireNb({f}, &status);
  ASSERT_TRUE(req.isOk());
  EXPECT_GT(status.estimatedWait, 0);  // pending: job recorded, not run

  // Cancel while the step is still owed: the DV must drop the waiter
  // entry, so when the file later materializes no reference is taken on
  // this client's behalf.
  ASSERT_TRUE(client_->cancel(*req).isOk());
  // The request handle is consumed.
  EXPECT_EQ(client_->wait(*req).code(), StatusCode::kFailedPrecondition);

  completeRecordedJobs();
  awaitAvailable(6);
  // No reference was registered for the cancelled acquire: a cancelled
  // acquire cannot pin cache slots.
  EXPECT_EQ(client_->release(f).code(), StatusCode::kFailedPrecondition);
}

TEST_F(PendingStackTest, WaitDeadlineExpiresWithoutCompleting) {
  connectClient();
  auto handle = client_->session()->acquireAsync({"out_0000000009.snc"});
  SimfsStatus status;
  // 5 ms deadline against a job that never runs: the wait must time out
  // and leave the handle live.
  const auto st =
      handle.wait(&status, /*timeoutNs=*/5 * vtime::kMillisecond);
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
  EXPECT_FALSE(handle.complete());
  // The DV's estimate (from the ack) seeds a real deadline choice.
  EXPECT_GT(handle.estimatedWait(), 0);
  ASSERT_TRUE(handle.cancel().isOk());
  EXPECT_TRUE(handle.complete());
  bool done = false;
  EXPECT_EQ(handle.test(&done, nullptr).code(), StatusCode::kCancelled);
  EXPECT_TRUE(done);
}

TEST_F(PendingStackTest, DaemonDeathFailsOutstandingWaitsInsteadOfHanging) {
  // Regression for the async redesign: the session installs a close
  // handler, so when the daemon dies mid-wait every outstanding acquire
  // completes instead of blocking forever (the old per-file calls were
  // bounded by the 30s call timeout). A router-less session has no way
  // to re-resolve the owner, so the outcome is the terminal
  // kUnreachable, not the retryable kUnavailable.
  connectClient();
  auto handle = client_->session()->acquireAsync({"out_0000000014.snc"});
  ASSERT_TRUE(handle.waitAck(nullptr).isOk());
  EXPECT_FALSE(handle.complete());  // pending: the job never runs

  daemon_->stop();
  daemon_.reset();  // tears every transport down

  const Status st = handle.wait();  // must return promptly
  EXPECT_EQ(st.code(), StatusCode::kUnreachable);
  EXPECT_TRUE(handle.complete());
  // The transparent-mode wait wakes too.
  EXPECT_EQ(client_->waitFile("out_0000000014.snc").code(),
            StatusCode::kUnreachable);
}

TEST_F(PendingStackTest, FinalizeWakesBlockedWaiters) {
  connectClient();
  auto handle = client_->session()->acquireAsync({"out_0000000018.snc"});
  ASSERT_TRUE(handle.waitAck(nullptr).isOk());
  std::thread finalizer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client_->finalize();
  });
  const Status st = handle.wait();  // woken by finalize, not hung
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  finalizer.join();
}

TEST_F(PendingStackTest, FacadeCloseWithoutReadCancelsPendingOpen) {
  // snc_open pipelines (no ack wait); closing the handle without ever
  // reading must cancel the open so the DV registers no lasting
  // interest for it.
  connectClient();
  vfs::MemFileStore store;
  IoDispatch::instance().installAnalysis(client_.get(), &store);
  int ncid = -1;
  ASSERT_EQ(snc_open("out_0000000012.snc", 0, &ncid), 0);
  ASSERT_EQ(snc_close(ncid), 0);
  IoDispatch::instance().reset();

  awaitRecordedJobs(1);
  completeRecordedJobs();
  awaitAvailable(12);
  EXPECT_EQ(client_->release("out_0000000012.snc").code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------------- C API

TEST_F(LiveStackTest, CApiFullLifecycle) {
  SIMFS_SetDaemon(daemon_.get());
  SIMFS_SetFileStore(&store_);

  SIMFS_Context ctx = nullptr;
  ASSERT_EQ(SIMFS_Init("live", &ctx), SIMFS_OK);

  const char* files[] = {"out_0000000007.snc"};
  SIMFS_Status status{};
  ASSERT_EQ(SIMFS_Acquire(ctx, files, 1, &status), SIMFS_OK);
  EXPECT_EQ(status.error_code, 0);
  EXPECT_TRUE(store_.exists("out_0000000007.snc"));

  // Record a checksum so Bitrep has a reference.
  const auto content = store_.read("out_0000000007.snc");
  simmodel::ChecksumMap map;
  map.record("out_0000000007.snc", fnv1a64(*content));
  ASSERT_TRUE(daemon_->setChecksumMap("live", std::move(map)).isOk());
  int flag = 0;
  ASSERT_EQ(SIMFS_Bitrep(ctx, "out_0000000007.snc", &flag), SIMFS_OK);
  EXPECT_EQ(flag, 1);

  ASSERT_EQ(SIMFS_Release(ctx, "out_0000000007.snc"), SIMFS_OK);
  ASSERT_EQ(SIMFS_Finalize(&ctx), SIMFS_OK);
  EXPECT_EQ(ctx, nullptr);
  SIMFS_SetDaemon(nullptr);
  SIMFS_SetFileStore(nullptr);
}

TEST_F(LiveStackTest, CApiNonBlockingRequest) {
  SIMFS_SetDaemon(daemon_.get());
  SIMFS_Context ctx = nullptr;
  ASSERT_EQ(SIMFS_Init("live", &ctx), SIMFS_OK);

  const char* files[] = {"out_0000000015.snc", "out_0000000016.snc"};
  SIMFS_Status status{};
  SIMFS_Req req{};
  ASSERT_EQ(SIMFS_Acquire_nb(ctx, files, 2, &status, &req), SIMFS_OK);
  ASSERT_EQ(SIMFS_Wait(&req, &status), SIMFS_OK);
  EXPECT_TRUE(store_.exists("out_0000000015.snc"));
  EXPECT_TRUE(store_.exists("out_0000000016.snc"));
  ASSERT_EQ(SIMFS_Finalize(&ctx), SIMFS_OK);
  SIMFS_SetDaemon(nullptr);
}

TEST_F(LiveStackTest, CApiValidatesArguments) {
  EXPECT_NE(SIMFS_Init(nullptr, nullptr), SIMFS_OK);
  SIMFS_Context ctx = nullptr;
  EXPECT_NE(SIMFS_Finalize(&ctx), SIMFS_OK);
  EXPECT_NE(SIMFS_Release(nullptr, "x"), SIMFS_OK);
  SIMFS_Req req{};
  EXPECT_NE(SIMFS_Wait(&req, nullptr), SIMFS_OK);
}

// -------------------------------------------------------------- I/O facades

TEST_F(LiveStackTest, TransparentSncdfAnalysisPath) {
  connectClient();
  IoDispatch::instance().installAnalysis(client_.get(), &store_);

  int ncid = -1;
  ASSERT_EQ(snc_open("out_0000000021.snc", 0, &ncid), 0);  // non-blocking
  double buf[16];
  std::size_t n = 0;
  // The read blocks until the re-simulation delivered the file; the
  // default producer emits a text payload, so the typed decode reports
  // kInvalidArgument — but only after the file actually appeared.
  EXPECT_EQ(snc_get_var_double(ncid, buf, 16, &n),
            static_cast<int>(StatusCode::kInvalidArgument));
  EXPECT_TRUE(store_.exists("out_0000000021.snc"));
  ASSERT_EQ(snc_close(ncid), 0);
}

TEST_F(LiveStackTest, TransparentRoundTripWithFieldPayload) {
  // Make the simulator produce genuine SNC1 fields.
  fleet_->setProducer([](const simmodel::JobSpec&, StepIndex step) {
    std::vector<double> field(16, static_cast<double>(step));
    return encodeField(field);
  });
  connectClient();
  IoDispatch::instance().installAnalysis(client_.get(), &store_);

  int ncid = -1;
  ASSERT_EQ(snc_open("out_0000000030.snc", 0, &ncid), 0);
  double buf[32];
  std::size_t n = 0;
  ASSERT_EQ(snc_get_var_double(ncid, buf, 32, &n), 0);
  ASSERT_EQ(n, 16u);
  EXPECT_DOUBLE_EQ(buf[0], 30.0);
  ASSERT_EQ(snc_close(ncid), 0);

  // Same data through the HDF5-flavoured facade.
  const sh5_id h = sh5_fopen("out_0000000030.snc", 0);
  ASSERT_GT(h, 0);
  ASSERT_EQ(sh5_dread(h, buf, 32, &n), 0);
  EXPECT_EQ(n, 16u);
  ASSERT_EQ(sh5_fclose(h), 0);

  // And the ADIOS-flavoured one (schedule + perform).
  const sadios_id a = sadios_open("out_0000000030.snc", "r");
  ASSERT_GT(a, 0);
  std::size_t n2 = 0;
  ASSERT_EQ(sadios_schedule_read(a, buf, 32, &n2), 0);
  ASSERT_EQ(sadios_perform_reads(a), 0);
  EXPECT_EQ(n2, 16u);
  ASSERT_EQ(sadios_close(a), 0);
}

TEST_F(LiveStackTest, SimulatorRoleCreateCloseNotifies) {
  std::vector<std::string> closed;
  IoDispatch::instance().installSimulator(
      [&](const std::string& name) { closed.push_back(name); }, &store_);

  int ncid = -1;
  ASSERT_EQ(snc_create("out_0000000050.snc", 0, &ncid), 0);
  const double values[] = {1.0, 2.0, 3.0};
  ASSERT_EQ(snc_put_var_double(ncid, values, 3), 0);
  ASSERT_EQ(snc_close(ncid), 0);

  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0], "out_0000000050.snc");
  EXPECT_TRUE(store_.exists("out_0000000050.snc"));
  const auto decoded = decodeField(store_.read("out_0000000050.snc").value());
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(decoded->size(), 3u);
}

TEST_F(LiveStackTest, AnalysisRoleCannotCreate) {
  connectClient();
  IoDispatch::instance().installAnalysis(client_.get(), &store_);
  int ncid = -1;
  EXPECT_NE(snc_create("out_0000000001.snc", 0, &ncid), 0);
}

TEST_F(LiveStackTest, PassthroughReadsExistingFiles) {
  ASSERT_TRUE(store_.put("plain.snc", encodeField(std::vector<double>{7.0}))
                  .isOk());
  IoDispatch::instance().installPassthrough(&store_);
  int ncid = -1;
  ASSERT_EQ(snc_open("plain.snc", 0, &ncid), 0);
  double v = 0;
  std::size_t n = 0;
  ASSERT_EQ(snc_get_var_double(ncid, &v, 1, &n), 0);
  EXPECT_DOUBLE_EQ(v, 7.0);
  ASSERT_EQ(snc_close(ncid), 0);
  // Missing files fail at open in passthrough mode.
  EXPECT_NE(snc_open("missing.snc", 0, &ncid), 0);
}

/// A transport that sheds the first `shedCount` open batches exactly like
/// an overloaded shard (whole-batch kUnavailable, no outcome pairs), then
/// acks every file as immediately available. Hellos succeed inline.
class SheddingTransport final : public msg::Transport {
 public:
  explicit SheddingTransport(int shedCount) : shedLeft_(shedCount) {}

  Status send(const msg::Message& m) override {
    msg::Message reply;
    reply.requestId = m.requestId;
    switch (m.type) {
      case msg::MsgType::kHello:
        reply.type = msg::MsgType::kHelloAck;
        reply.intArg = 7;  // clientId
        break;
      case msg::MsgType::kOpenBatchReq: {
        std::lock_guard lock(mu_);
        batchIds_.push_back(m.requestId);
        reply.type = msg::MsgType::kOpenBatchAck;
        if (shedLeft_ > 0) {
          --shedLeft_;
          reply.code = static_cast<std::int32_t>(StatusCode::kUnavailable);
          reply.text = "dv: shard queue over capacity";
        } else {
          for (std::size_t i = 0; i < m.files.size(); ++i) {
            reply.ints.push_back(
                (static_cast<std::int64_t>(StatusCode::kOk) << 1) | 1);
            reply.ints.push_back(0);
          }
        }
        break;
      }
      default:
        return Status::ok();  // fire-and-forget traffic needs no reply
    }
    Handler h;
    {
      std::lock_guard lock(mu_);
      h = handler_;
    }
    if (h) h(std::move(reply));
    return Status::ok();
  }
  void setHandler(Handler handler) override {
    std::lock_guard lock(mu_);
    handler_ = std::move(handler);
  }
  void setCloseHandler(std::function<void()>) override {}
  void close() override { open_ = false; }
  [[nodiscard]] bool isOpen() const override { return open_; }

  std::vector<std::uint64_t> batchIds() {
    std::lock_guard lock(mu_);
    return batchIds_;
  }

 private:
  std::mutex mu_;
  Handler handler_;
  std::vector<std::uint64_t> batchIds_;
  int shedLeft_;
  std::atomic<bool> open_{true};
};

TEST(SessionRetryTest, ShedBatchesResendUnderSameRequestId) {
  auto owned = std::make_unique<SheddingTransport>(2);
  auto* t = owned.get();
  auto session = Session::connect(std::move(owned), "live");
  ASSERT_TRUE(session.isOk()) << session.status().toString();
  (*session)->setRetryPolicy(/*budget=*/3, /*baseBackoffNs=*/1'000'000);
  auto handle = (*session)->acquireAsync({"out_0000000001.snc"});
  const Status st = handle.wait();
  EXPECT_TRUE(st.isOk()) << st.toString();
  // Two sheds, one success — all three sends carry the SAME requestId,
  // which is what makes the daemon-side dedup window able to absorb a
  // resend that raced a lost ack.
  const auto ids = t->batchIds();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ids[1]);
  EXPECT_EQ(ids[1], ids[2]);
  (*session)->finalize();
}

TEST(SessionRetryTest, ShedBeyondBudgetCompletesUnreachable) {
  auto owned = std::make_unique<SheddingTransport>(1'000'000);
  auto* t = owned.get();
  auto session = Session::connect(std::move(owned), "live");
  ASSERT_TRUE(session.isOk()) << session.status().toString();
  (*session)->setRetryPolicy(/*budget=*/2, /*baseBackoffNs=*/1'000'000);
  auto handle = (*session)->acquireAsync({"out_0000000001.snc"});
  const Status st = handle.wait();  // must complete, not hang
  EXPECT_EQ(st.code(), StatusCode::kUnreachable);
  EXPECT_EQ(t->batchIds().size(), 3u);  // the original + 2 budgeted resends
  (*session)->finalize();
}

TEST(DeadlineReapTest, ServerReapsExpiredWaitersWithTimedOut) {
  // The reap interval is read at daemon construction; shrink it so the
  // sweep fires within test time.
  ::setenv("SIMFS_DV_REAP_MS", "20", 1);
  auto cfg = liveConfig();
  auto daemon = std::make_unique<dv::Daemon>();
  ::unsetenv("SIMFS_DV_REAP_MS");
  ASSERT_TRUE(
      daemon->registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  RecordingLauncher launcher;  // jobs never run: the file stays pending
  daemon->setLauncher(&launcher);
  auto c = SimFSClient::connect(daemon->connectInProc(), cfg.name);
  ASSERT_TRUE(c.isOk()) << c.status().toString();
  (*c)->session()->setOpDeadline(50 * vtime::kMillisecond);
  auto handle = (*c)->session()->acquireAsync({"out_0000000014.snc"});
  ASSERT_TRUE(handle.waitAck(nullptr).isOk());
  EXPECT_FALSE(handle.complete());  // pending on the never-run job
  // The daemon's reap sweep expires the waiter and notifies kTimedOut —
  // the client needs no timer of its own.
  const Status st = handle.wait();
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
  (*c)->finalize();
}

TEST(IoFormatTest, EncodeDecodeRoundTrip) {
  const std::vector<double> values{1.5, -2.25, 1e300, 0.0};
  const auto decoded = decodeField(encodeField(values));
  ASSERT_TRUE(decoded.isOk());
  EXPECT_EQ(*decoded, values);
}

TEST(IoFormatTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(decodeField("not a field").isOk());
  EXPECT_FALSE(decodeField("").isOk());
  auto truncated = encodeField(std::vector<double>{1.0, 2.0});
  truncated.pop_back();
  EXPECT_FALSE(decodeField(truncated).isOk());
}

}  // namespace
}  // namespace simfs::dvlib
