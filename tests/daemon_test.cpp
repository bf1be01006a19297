// End-to-end daemon tests over real Unix-domain sockets: a DVLib client in
// this process, the daemon serving connections, a threaded fleet producing
// files — the full Fig. 4 message sequence on a live transport.
#include "analysis/trace_tool.hpp"
#include "dv/daemon.hpp"
#include "dvlib/iolib.hpp"
#include "dvlib/simfs_client.hpp"
#include "msg/transport.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

namespace simfs::dv {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

ContextConfig socketConfig() {
  ContextConfig cfg;
  cfg.name = "sock";
  cfg.geometry = StepGeometry(1, 4, 64);
  cfg.outputStepBytes = 64;
  cfg.sMax = 4;
  cfg.perf = PerfModel(2, 5 * vtime::kMillisecond, 10 * vtime::kMillisecond);
  return cfg;
}

class SocketDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/simfs_daemon_" + std::to_string(::getpid()) + ".sock";
    cfg_ = socketConfig();
    daemon_ = std::make_unique<Daemon>();
    fleet_ = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *daemon_, store_, /*timeScale=*/1.0);
    ASSERT_TRUE(
        daemon_
            ->registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg_))
            .isOk());
    fleet_->registerContext(cfg_);
    daemon_->setLauncher(fleet_.get());
    ASSERT_TRUE(daemon_->listen(path_).isOk());
  }

  void TearDown() override {
    fleet_.reset();
    daemon_.reset();
  }

  std::string path_;
  ContextConfig cfg_;
  vfs::MemFileStore store_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<simulator::ThreadedSimulatorFleet> fleet_;
};

TEST_F(SocketDaemonTest, FullMissFlowOverSocket) {
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk()) << client.status().toString();

  dvlib::SimfsStatus status;
  ASSERT_TRUE((*client)->acquire({"out_0000000006.snc"}, &status).isOk());
  EXPECT_TRUE(store_.exists("out_0000000006.snc"));
  ASSERT_TRUE((*client)->release("out_0000000006.snc").isOk());
  (*client)->finalize();
}

TEST_F(SocketDaemonTest, MultipleConcurrentClients) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto conn = msg::unixSocketConnect(path_);
      if (!conn.isOk()) {
        ++failures;
        return;
      }
      auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
      if (!client.isOk()) {
        ++failures;
        return;
      }
      // Each client walks a different region; some intervals overlap.
      for (int i = 0; i < 6; ++i) {
        const auto step = static_cast<StepIndex>(c * 4 + i);
        const auto file = socketConfig().codec.outputFile(step);
        if (!(*client)->acquire({file}).isOk() ||
            !(*client)->release(file).isOk()) {
          ++failures;
          return;
        }
      }
      (*client)->finalize();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(daemon_->stats().stepsProduced, 0u);
}

TEST_F(SocketDaemonTest, ClientDisconnectReleasesState) {
  {
    auto conn = msg::unixSocketConnect(path_);
    ASSERT_TRUE(conn.isOk());
    auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE((*client)->acquire({"out_0000000002.snc"}).isOk());
    // Client vanishes while holding a reference.
    (*client)->finalize();
  }
  // Give the daemon a moment to observe the disconnect.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A fresh client can still work; the dead client's reference is gone.
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk());
  ASSERT_TRUE((*client)->acquire({"out_0000000002.snc"}).isOk());
  ASSERT_TRUE((*client)->release("out_0000000002.snc").isOk());
  (*client)->finalize();
}

TEST_F(SocketDaemonTest, StatusRequestReportsCounters) {
  // Produce some activity first.
  {
    auto conn = msg::unixSocketConnect(path_);
    ASSERT_TRUE(conn.isOk());
    auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE((*client)->acquire({"out_0000000001.snc"}).isOk());
    ASSERT_TRUE((*client)->release("out_0000000001.snc").isOk());
    (*client)->finalize();
  }
  // Raw kStatusReq, the simfsctl introspection path.
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  msg::Message reply;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    reply = std::move(m);
    got = true;
    cv.notify_all();
  });
  msg::Message req;
  req.type = msg::MsgType::kStatusReq;
  ASSERT_TRUE((*conn)->send(req).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
  }
  EXPECT_EQ(reply.type, msg::MsgType::kStatusAck);
  EXPECT_NE(reply.text.find("opens="), std::string::npos);
  EXPECT_NE(reply.text.find("misses="), std::string::npos);
  EXPECT_GT(reply.intArg, 0);  // steps were produced
  ASSERT_EQ(reply.files.size(), 1u);
  EXPECT_EQ(reply.files[0], "sock");
  (*conn)->close();
}

TEST_F(SocketDaemonTest, PipelinedHelloThenOpenIsServedInOrder) {
  // A client may stream kHello and kOpenBatchReq in one burst without
  // waiting for kHelloAck; the daemon must serve both, in order, on the context's
  // shard (the seed's synchronous handler guaranteed this too).
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> replies;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    replies.push_back(std::move(m));
    cv.notify_all();
  });
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  ASSERT_TRUE((*conn)->send(hello).isOk());
  msg::Message open;
  open.type = msg::MsgType::kOpenBatchReq;
  open.requestId = 2;
  open.files = {"out_0000000001.snc"};
  ASSERT_TRUE((*conn)->send(open).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return replies.size() >= 2u; }));
  }
  EXPECT_EQ(replies[0].type, msg::MsgType::kHelloAck);
  EXPECT_EQ(replies[0].code, 0);
  EXPECT_EQ(replies[1].type, msg::MsgType::kOpenBatchAck);
  EXPECT_EQ(replies[1].code, 0) << replies[1].text;
  (*conn)->close();
}

TEST_F(SocketDaemonTest, ShardStatsReportPerShardCounters) {
  // Generate some served traffic first.
  {
    auto conn = msg::unixSocketConnect(path_);
    ASSERT_TRUE(conn.isOk());
    auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE((*client)->acquire({"out_0000000003.snc"}).isOk());
    ASSERT_TRUE((*client)->release("out_0000000003.snc").isOk());
    (*client)->finalize();
  }
  // The simfsctl introspection path: raw kShardStatsReq over the wire.
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  msg::Message reply;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    reply = std::move(m);
    got = true;
    cv.notify_all();
  });
  msg::Message req;
  req.type = msg::MsgType::kShardStatsReq;
  ASSERT_TRUE((*conn)->send(req).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
  }
  EXPECT_EQ(reply.type, msg::MsgType::kShardStatsAck);
  EXPECT_EQ(static_cast<std::size_t>(reply.intArg), daemon_->shardCount());
  ASSERT_EQ(reply.files.size(), daemon_->shardCount());
  EXPECT_NE(reply.text.find("shards="), std::string::npos);
  // The one context lives on exactly one shard; that shard served the
  // traffic above and holds the produced steps.
  bool sawServing = false;
  for (const auto& line : reply.files) {
    EXPECT_NE(line.find("shard="), std::string::npos);
    if (line.find("contexts=sock") != std::string::npos) {
      sawServing = true;
      EXPECT_NE(line.find("resident_steps="), std::string::npos);
      EXPECT_NE(line.find(";inline="), std::string::npos) << line;
      EXPECT_EQ(line.find("served=0;"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(sawServing);
  // The in-process view agrees with the wire view.
  const auto counters = daemon_->shardCounters();
  ASSERT_EQ(counters.size(), daemon_->shardCount());
  std::uint64_t served = 0;
  std::size_t resident = 0;
  for (const auto& c : counters) {
    served += c.served;
    resident += c.residentSteps;
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(resident, 0u);
  (*conn)->close();
}

TEST_F(SocketDaemonTest, ShardCountersFeedTheAutotuner) {
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk());
  for (StepIndex s = 0; s < 6; s += 2) {
    const std::string file = cfg_.codec.outputFile(s);
    ASSERT_TRUE((*client)->acquire({file}).isOk());
    ASSERT_TRUE((*client)->release(file).isOk());
  }
  (*client)->finalize();

  // The shard owning the context exposes the live TuneWindow feed.
  const auto counters = daemon_->shardCounters();
  const Daemon::ShardCounters* owner = nullptr;
  for (const auto& c : counters) {
    if (!c.contexts.empty()) owner = &c;
  }
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->accesses, 3u);
  EXPECT_GT(owner->misses, 0u);
  EXPECT_GT(owner->resimSteps, 0u);

  // Diffing two samples yields the observation window; all-zero "prev"
  // is the first window. The tuner consumes it directly.
  const auto window = Daemon::tuneWindowOf(*owner, Daemon::ShardCounters{});
  EXPECT_EQ(window.accesses, owner->accesses);
  EXPECT_EQ(window.misses, owner->misses);
  EXPECT_EQ(window.resimulatedSteps, owner->resimSteps);
  CacheAutotuner::Config tcfg;
  tcfg.scenario = cost::cosmoScenario();
  tcfg.rates = cost::azureRates();
  tcfg.minCacheSteps = 100;
  tcfg.maxCacheSteps = tcfg.scenario.numOutputSteps;
  CacheAutotuner tuner(tcfg, 500);
  const auto decision = tuner.observe(window);
  EXPECT_GE(decision.recommendedCacheSteps, tcfg.minCacheSteps);
  EXPECT_LE(decision.recommendedCacheSteps, tcfg.maxCacheSteps);

  // And the same counters travel the wire (simfsctl stats).
  auto raw = msg::unixSocketConnect(path_);
  ASSERT_TRUE(raw.isOk());
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  msg::Message reply;
  (*raw)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    reply = std::move(m);
    got = true;
    cv.notify_all();
  });
  msg::Message req;
  req.type = msg::MsgType::kShardStatsReq;
  ASSERT_TRUE((*raw)->send(req).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return got; }));
  }
  bool sawFeed = false;
  for (const auto& line : reply.files) {
    if (line.find("contexts=sock") == std::string::npos) continue;
    sawFeed = true;
    EXPECT_NE(line.find("accesses=3"), std::string::npos) << line;
    EXPECT_NE(line.find("misses="), std::string::npos) << line;
    EXPECT_NE(line.find("resim_steps="), std::string::npos) << line;
    EXPECT_NE(line.find("shed=0"), std::string::npos) << line;
  }
  EXPECT_TRUE(sawFeed);
  (*raw)->close();
}

TEST(DaemonBackpressureTest, ShedsClientRequestsOverQueueCap) {
  // A launcher that parks the (single) worker inside launch() — holding
  // the shard lock — so the shard queue backs up deterministically.
  struct BlockingLauncher final : SimLauncher {
    void launch(SimJobId, const simmodel::JobSpec&) override {
      std::unique_lock lock(mutex);
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    void kill(SimJobId) override {}
    std::mutex mutex;
    std::condition_variable cv;
    bool blocked = false;
    bool release = false;
  } launcher;

  Daemon::Options options;
  options.shards = 1;
  options.workers = 1;
  options.queueCap = 1;
  Daemon daemon(options);
  const auto cfg = socketConfig();
  ASSERT_TRUE(
      daemon.registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  daemon.setLauncher(&launcher);
  EXPECT_EQ(daemon.queueCap(), 1u);

  auto conn = daemon.connectInProc();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> replies;
  conn->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    replies.push_back(std::move(m));
    cv.notify_all();
  });
  const auto replyFor = [&](std::uint64_t id) -> const msg::Message* {
    for (const auto& r : replies) {
      if (r.requestId == id) return &r;
    }
    return nullptr;
  };

  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  ASSERT_TRUE(conn->send(hello).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return replyFor(1) != nullptr; }));
  }

  // Open a missing step: the worker dives into launch() and stays there.
  msg::Message open;
  open.type = msg::MsgType::kOpenBatchReq;
  open.requestId = 2;
  open.files = {cfg.codec.outputFile(0)};
  ASSERT_TRUE(conn->send(open).isOk());
  {
    std::unique_lock lock(launcher.mutex);
    ASSERT_TRUE(launcher.cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return launcher.blocked; }));
  }

  // One request fits the queue; the next is shed with kUnavailable —
  // synchronously, while the worker is still stuck.
  open.requestId = 3;
  ASSERT_TRUE(conn->send(open).isOk());
  open.requestId = 4;
  ASSERT_TRUE(conn->send(open).isOk());
  {
    std::lock_guard lock(mu);
    const msg::Message* shedReply = replyFor(4);
    ASSERT_NE(shedReply, nullptr) << "shed reply must not wait for the worker";
    EXPECT_EQ(shedReply->type, msg::MsgType::kOpenBatchAck);
    EXPECT_EQ(static_cast<StatusCode>(shedReply->code),
              StatusCode::kUnavailable);
    EXPECT_EQ(replyFor(3), nullptr) << "within-cap request must not be shed";
  }

  // Unblock: the queued (not shed) request is then served normally.
  {
    std::lock_guard lock(launcher.mutex);
    launcher.release = true;
  }
  launcher.cv.notify_all();
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return replyFor(2) != nullptr && replyFor(3) != nullptr;
    }));
    EXPECT_EQ(static_cast<StatusCode>(replyFor(2)->code), StatusCode::kOk);
    EXPECT_EQ(static_cast<StatusCode>(replyFor(3)->code), StatusCode::kOk);
  }
  // (Read only after the worker released the shard lock: shardCounters
  // briefly takes every shard mutex.)
  EXPECT_EQ(daemon.shardCounters()[0].shed, 1u);
  conn->close();
}

// --- hits served on the dispatching thread -----------------------------------

/// Replies one in-proc client received, in arrival order. An in-proc
/// send dispatches on the sending thread, so a request served inline has
/// its reply here by the time send() returns; a queued one usually not.
struct ReplyLog {
  void attach(msg::Transport& t) {
    t.setHandler([this](msg::Message&& m) {
      std::lock_guard lock(mu);
      replies.push_back(std::move(m));
      cv.notify_all();
    });
  }
  bool has(std::uint64_t id) {
    std::lock_guard lock(mu);
    return find(id) != nullptr;
  }
  /// The reply to `id`, or a message with code kTimedOut when none came
  /// within 10 s.
  msg::Message waitFor(std::uint64_t id) {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return find(id) != nullptr; })) {
      msg::Message none;
      none.code = static_cast<std::int32_t>(StatusCode::kTimedOut);
      return none;
    }
    return *find(id);
  }
  std::vector<std::uint64_t> order() {
    std::lock_guard lock(mu);
    std::vector<std::uint64_t> ids;
    for (const auto& r : replies) ids.push_back(r.requestId);
    return ids;
  }
  const msg::Message* find(std::uint64_t id) const {
    for (const auto& r : replies) {
      if (r.requestId == id) return &r;
    }
    return nullptr;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> replies;
};

/// Records the thread of every launch() and, while closed, parks it there.
struct ParkingLauncher final : SimLauncher {
  explicit ParkingLauncher(bool startOpen) : open(startOpen) {}
  void launch(SimJobId, const simmodel::JobSpec&) override {
    std::unique_lock lock(mutex);
    threads.push_back(std::this_thread::get_id());
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void kill(SimJobId) override {}
  bool waitLaunches(std::size_t n) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return threads.size() >= n; });
  }
  void release() {
    {
      std::lock_guard lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  std::vector<std::thread::id> launchThreads() {
    std::lock_guard lock(mutex);
    return threads;
  }
  std::mutex mutex;
  std::condition_variable cv;
  bool open;
  std::vector<std::thread::id> threads;
};

msg::Message fileRequest(msg::MsgType type, std::uint64_t id,
                         const std::string& file) {
  msg::Message m;
  m.type = type;
  m.requestId = id;
  m.files = {file};
  return m;
}

/// A one-shard, one-worker daemon serving socketConfig() (prefetch as
/// given) with steps [residentFrom, residentTo] seeded resident.
std::unique_ptr<Daemon> oneShardDaemon(bool prefetch, SimLauncher* launcher,
                                       StepIndex residentFrom,
                                       StepIndex residentTo) {
  Daemon::Options options;
  options.shards = 1;
  options.workers = 1;
  auto daemon = std::make_unique<Daemon>(options);
  ContextConfig cfg = socketConfig();
  cfg.prefetchEnabled = prefetch;
  EXPECT_TRUE(
      daemon->registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  daemon->setLauncher(launcher);
  for (StepIndex s = residentFrom; s <= residentTo; ++s) {
    EXPECT_TRUE(daemon->seedAvailableStep(cfg.name, s).isOk());
  }
  return daemon;
}

void helloOk(msg::Transport& conn, ReplyLog& log) {
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
  ASSERT_TRUE(conn.send(hello).isOk());
  EXPECT_EQ(log.waitFor(1).code, 0);
}

TEST(DaemonInlineTest, PipelinedHitIsAnsweredAfterTheQueuedMissAheadOfIt) {
  // A hit may only skip the queue when nothing is ahead of it: one session
  // pipelines a miss (its worker parks in launch()), a resident open and
  // that open's release. The hit and the release wait for the miss, and
  // all three acks arrive in request order.
  ParkingLauncher launcher(/*startOpen=*/false);
  auto daemon = oneShardDaemon(/*prefetch=*/false, &launcher, 5, 5);
  const auto cfg = socketConfig();
  ReplyLog log;
  auto conn = daemon->connectInProc();
  log.attach(*conn);
  helloOk(*conn, log);

  ASSERT_TRUE(conn->send(fileRequest(msg::MsgType::kOpenBatchReq, 2,
                                     cfg.codec.outputFile(0)))
                  .isOk());
  ASSERT_TRUE(launcher.waitLaunches(1));
  // EXPECT from here on: the launcher must be released before returning.
  EXPECT_TRUE(conn->send(fileRequest(msg::MsgType::kOpenBatchReq, 3,
                                     cfg.codec.outputFile(5)))
                  .isOk());
  EXPECT_TRUE(conn->send(fileRequest(msg::MsgType::kReleaseReq, 4,
                                     cfg.codec.outputFile(5)))
                  .isOk());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(log.has(3)) << "the hit overtook the parked miss";
  EXPECT_FALSE(log.has(4)) << "the release overtook the parked miss";

  launcher.release();
  EXPECT_EQ(log.waitFor(4).code, 0);
  EXPECT_EQ(log.order(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(log.waitFor(3).intArg, 1) << "step 5 was resident";

  // Once the shard is idle, the same hit is answered before send returns.
  bool servedInline = false;
  for (std::uint64_t id = 10; id < 200 && !servedInline; id += 2) {
    ASSERT_TRUE(conn->send(fileRequest(msg::MsgType::kOpenBatchReq, id,
                                       cfg.codec.outputFile(5)))
                    .isOk());
    servedInline = log.has(id);
    EXPECT_EQ(log.waitFor(id).code, 0);
    ASSERT_TRUE(conn->send(fileRequest(msg::MsgType::kReleaseReq, id + 1,
                                       cfg.codec.outputFile(5)))
                    .isOk());
    EXPECT_EQ(log.waitFor(id + 1).code, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(servedInline);
  const auto c = daemon->shardCounters()[0];
  EXPECT_GT(c.inlineServed, 0u);
  EXPECT_EQ(c.served, c.enqueued);
  EXPECT_LE(c.batches, c.served);
  conn->close();
}

TEST(DaemonInlineTest, PrefetchingContextHitsStayOnTheWorkers) {
  // A prefetching agent may launch on a hit, so hits on a prefetch-enabled
  // context are never served on the dispatching thread (here: this test
  // thread, the in-proc sender). launch() must only run on workers.
  ParkingLauncher launcher(/*startOpen=*/true);
  auto daemon = oneShardDaemon(/*prefetch=*/true, &launcher, 8, 60);
  const auto cfg = socketConfig();
  ReplyLog log;
  auto conn = daemon->connectInProc();
  log.attach(*conn);
  helloOk(*conn, log);

  // A demand miss gives the agent its coverage, then a stride-1 sweep
  // over resident steps lets it detect the pattern and prefetch ahead.
  std::uint64_t id = 2;
  ASSERT_TRUE(conn->send(fileRequest(msg::MsgType::kOpenBatchReq, id,
                                     cfg.codec.outputFile(0)))
                  .isOk());
  EXPECT_EQ(log.waitFor(id).code, 0);
  ASSERT_TRUE(launcher.waitLaunches(1));
  for (StepIndex s = 8; s <= 60; ++s) {
    ++id;
    ASSERT_TRUE(conn->send(fileRequest(msg::MsgType::kOpenBatchReq, id,
                                       cfg.codec.outputFile(s)))
                    .isOk());
    EXPECT_EQ(log.waitFor(id).code, 0) << "step " << s;
  }
  const auto threads = launcher.launchThreads();
  EXPECT_GE(threads.size(), 2u) << "no hit reached the launcher";
  for (const auto& t : threads) {
    EXPECT_NE(t, std::this_thread::get_id()) << "launch() on the dispatcher";
  }
  EXPECT_EQ(daemon->shardCounters()[0].inlineServed, 0u);
  conn->close();
}

TEST(DaemonInlineTest, StopRacingInlineHitsAnswersEveryRequest) {
  // Four in-proc sessions flood hit + release pairs (served inline on
  // their own threads, or queued when the shard is busy) while stop()
  // joins the workers. Every request is answered: the queue drains on the
  // claim holder once the workers are gone.
  ParkingLauncher launcher(/*startOpen=*/true);
  auto daemon = oneShardDaemon(/*prefetch=*/false, &launcher, 0, 15);
  const auto cfg = socketConfig();
  constexpr int kClients = 4;
  std::vector<ReplyLog> logs(kClients);
  std::vector<std::unique_ptr<msg::Transport>> conns;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(daemon->connectInProc());
    logs[c].attach(*conns[c]);
    helloOk(*conns[c], logs[c]);
  }
  std::atomic<bool> stopped{false};
  std::atomic<bool> done{false};
  std::atomic<int> unanswered{0};
  std::atomic<int> afterStop{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::uint64_t id = 2; !done.load(); id += 2) {
        const auto file = cfg.codec.outputFile(static_cast<StepIndex>(id % 16));
        const bool wasStopped = stopped.load();
        if (!conns[c]->send(fileRequest(msg::MsgType::kOpenBatchReq, id, file))
                 .isOk() ||
            !conns[c]->send(fileRequest(msg::MsgType::kReleaseReq, id + 1, file))
                 .isOk()) {
          return;  // session closed: nothing more to answer
        }
        for (const auto want : {id, id + 1}) {
          if (logs[c].waitFor(want).code != 0) unanswered.fetch_add(1);
        }
        if (wasStopped) afterStop.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  daemon->stop();
  stopped.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  done.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(unanswered.load(), 0);
  EXPECT_GT(afterStop.load(), 0) << "nothing was served after stop()";
  for (auto& conn : conns) conn->close();
}

TEST(DaemonInlineTest, StopSweepKeepsARequestQueuedBehindAnInlineClaim) {
  // Session A's hit is served inline and its reply handler (running on
  // A's sending thread, inside the daemon's reply flush) holds the claim.
  // Session B's request queues behind it; stop() then joins the workers,
  // whose final pass and sweep both find the shard claimed. The claim
  // holder must serve B's request when it lets go.
  ParkingLauncher launcher(/*startOpen=*/true);
  auto daemon = oneShardDaemon(/*prefetch=*/false, &launcher, 5, 5);
  const auto cfg = socketConfig();
  const std::string file = cfg.codec.outputFile(5);

  ReplyLog logB;
  std::mutex mu;
  std::condition_variable cv;
  std::thread::id senderA;
  bool heldInline = false;   // A's handler is parked inside the flush
  bool answeredA = false;    // A's hit came back (inline or not)
  bool releaseA = false;
  auto connA = daemon->connectInProc();
  auto connB = daemon->connectInProc();
  connA->setHandler([&](msg::Message&& m) {
    std::unique_lock lock(mu);
    if (m.type != msg::MsgType::kOpenBatchAck) return;
    answeredA = true;
    if (std::this_thread::get_id() == senderA) {
      heldInline = true;
      cv.notify_all();
      cv.wait(lock, [&] { return releaseA; });
    }
    cv.notify_all();
  });
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.context = "sock";
  ASSERT_TRUE(connA->send(hello).isOk());
  logB.attach(*connB);
  helloOk(*connB, logB);

  std::thread threadA;
  // Lets A's handler go and joins its thread on every way out of the test.
  struct Unpark {
    std::function<void()> fn;
    ~Unpark() { fn(); }
  } unparkA{[&] {
    {
      std::lock_guard lock(mu);
      releaseA = true;
    }
    cv.notify_all();
    if (threadA.joinable()) threadA.join();
  }};
  for (std::uint64_t id = 2; id < 100 && !heldInline; ++id) {
    if (threadA.joinable()) threadA.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      std::lock_guard lock(mu);
      answeredA = false;
    }
    threadA = std::thread([&, id] {
      {
        std::lock_guard lock(mu);
        senderA = std::this_thread::get_id();
      }
      (void)connA->send(fileRequest(msg::MsgType::kOpenBatchReq, id, file));
    });
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return answeredA; }));
  }
  ASSERT_TRUE(heldInline) << "no hit of A was served inline";

  ASSERT_TRUE(
      connB->send(fileRequest(msg::MsgType::kOpenBatchReq, 500, file)).isOk());
  EXPECT_FALSE(logB.has(500)) << "B overtook A's claim";
  daemon->stop();
  EXPECT_FALSE(logB.has(500));
  unparkA.fn();
  const auto reply = logB.waitFor(500);
  EXPECT_EQ(reply.type, msg::MsgType::kOpenBatchAck);
  EXPECT_EQ(reply.code, 0);
  connA->close();
  connB->close();
}

TEST_F(SocketDaemonTest, TraceToolRunsOverLiveStack) {
  auto conn = msg::unixSocketConnect(path_);
  ASSERT_TRUE(conn.isOk());
  auto client = dvlib::SimFSClient::connect(std::move(*conn), "sock");
  ASSERT_TRUE(client.isOk());

  // Produce SNC1 fields so the analysis can reduce them.
  fleet_->setProducer([](const simmodel::JobSpec&, StepIndex step) {
    std::vector<double> field(8, static_cast<double>(step) * 0.5);
    return dvlib::encodeField(field);
  });

  analysis::TraceAnalysisTool tool(**client, store_, cfg_.codec);
  const auto report = tool.run(trace::makeForwardTrace(0, 10, 64));
  ASSERT_TRUE(report.isOk());
  EXPECT_EQ(report->accesses, 10u);
  EXPECT_EQ(report->failures, 0u);
  EXPECT_GT(report->meanOfMeans, 0.0);
  (*client)->finalize();
}

/// VmSize of this process in KiB, from /proc/self/status.
std::int64_t vmSizeKiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

// Every finished job's thread is joined at the next launch, so a long run
// holds no dead thread (and its stack) per job it ever launched. Jobs run
// one at a time: overlapping job threads make glibc reserve new 64 MiB
// malloc arenas, which would swamp the stacks this test measures.
TEST(ThreadedFleetTest, LaunchReapsFinishedJobThreads) {
  Daemon daemon;
  vfs::MemFileStore store;
  simulator::ThreadedSimulatorFleet fleet(daemon, store, /*timeScale=*/1e-6);
  fleet.registerContext(socketConfig());
  simmodel::JobSpec spec;
  spec.context = "sock";
  const auto idle = [&fleet] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fleet.activeJobs() != 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  // Warm-up: one job per daemon shard, so every worker thread that handles
  // job events has its malloc arena before the baseline is taken.
  SimJobId id = 1;
  for (int i = 0; i < 16; ++i) {
    fleet.launch(id++, spec);
    ASSERT_TRUE(idle());
  }
  const std::int64_t before = vmSizeKiB();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 200; ++i) {
    fleet.launch(id++, spec);
    ASSERT_TRUE(idle());
  }
  fleet.launch(id++, spec);
  EXPECT_LT(vmSizeKiB() - before, 64 * 1024);
  ASSERT_TRUE(idle());
}

/// Counts put() per file name over a MemFileStore.
class CountingStore final : public vfs::FileStore {
 public:
  Status put(const std::string& name, std::string content) override {
    {
      std::lock_guard lock(mu_);
      ++puts_[name];
    }
    return inner_.put(name, std::move(content));
  }
  Result<std::string> read(const std::string& name) const override {
    return inner_.read(name);
  }
  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  Result<vfs::FileInfo> stat(const std::string& name) const override {
    return inner_.stat(name);
  }
  Status remove(const std::string& name) override {
    return inner_.remove(name);
  }
  std::vector<std::string> list() const override { return inner_.list(); }
  Bytes totalBytes() const override { return inner_.totalBytes(); }

  int puts(const std::string& name) const {
    std::lock_guard lock(mu_);
    const auto it = puts_.find(name);
    return it == puts_.end() ? 0 : it->second;
  }
  vfs::MemFileStore& inner() { return inner_; }

 private:
  vfs::MemFileStore inner_;
  mutable std::mutex mu_;
  std::map<std::string, int> puts_;
};

/// Forwards to the fleet and records every launched job's range.
class RecordingLauncher final : public SimLauncher {
 public:
  explicit RecordingLauncher(SimLauncher& inner) : inner_(inner) {}
  void launch(SimJobId job, const simmodel::JobSpec& spec) override {
    {
      std::lock_guard lock(mu_);
      specs_.push_back(spec);
    }
    inner_.launch(job, spec);
  }
  void kill(SimJobId job) override { inner_.kill(job); }
  std::vector<simmodel::JobSpec> specs() const {
    std::lock_guard lock(mu_);
    return specs_;
  }

 private:
  SimLauncher& inner_;
  mutable std::mutex mu_;
  std::vector<simmodel::JobSpec> specs_;
};

TEST(ThreadedFleetTest, ResimulationSkipsResidentStepsAndFillsTheRest) {
  // A re-simulation reproduces a resident step bitwise, and a reader may
  // hold that step open: the job must not put it again. Every step of the
  // range that was missing must still become available.
  const ContextConfig cfg = socketConfig();
  Daemon daemon;
  CountingStore store;
  simulator::ThreadedSimulatorFleet fleet(daemon, store, /*timeScale=*/0.1);
  ASSERT_TRUE(daemon
                  .registerContext(
                      std::make_unique<simmodel::SyntheticDriver>(cfg))
                  .isOk());
  fleet.registerContext(cfg);
  RecordingLauncher launcher(fleet);
  daemon.setLauncher(&launcher);

  constexpr StepIndex kResident = 5;
  constexpr StepIndex kWanted = 6;
  const std::string residentFile = cfg.codec.outputFile(kResident);
  ASSERT_TRUE(store.inner().put(residentFile, "resident bytes").isOk());
  ASSERT_TRUE(daemon.seedAvailableStep(cfg.name, kResident).isOk());

  auto client = dvlib::SimFSClient::connect(daemon.connectInProc(), cfg.name);
  ASSERT_TRUE(client.isOk()) << client.status().toString();
  const std::string wanted = cfg.codec.outputFile(kWanted);
  ASSERT_TRUE((*client)->acquire({wanted}).isOk());
  ASSERT_TRUE((*client)->release(wanted).isOk());
  (*client)->finalize();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.activeJobs() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.setLauncher(nullptr);

  const auto specs = launcher.specs();
  ASSERT_FALSE(specs.empty());
  const simmodel::JobSpec& demand = specs.front();
  ASSERT_LE(demand.startStep, kResident);
  ASSERT_GE(demand.stopStep, kWanted);
  EXPECT_EQ(store.puts(residentFile), 0);
  EXPECT_EQ(*store.read(residentFile), "resident bytes");
  for (StepIndex s = demand.startStep; s <= demand.stopStep; ++s) {
    if (s == kResident) continue;
    EXPECT_TRUE(daemon.isAvailable(cfg.name, s)) << "step " << s;
    EXPECT_GE(store.puts(cfg.codec.outputFile(s)), 1) << "step " << s;
  }
}

/// Sends one kHello with the version cap and the given advertised range
/// over a fresh in-process connection; returns the kHelloAck.
msg::Message versionedHello(Daemon& daemon, msg::ClientRole role,
                            std::vector<std::int64_t> ints) {
  auto conn = daemon.connectInProc();
  std::mutex mu;
  std::condition_variable cv;
  std::optional<msg::Message> ack;
  conn->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    ack = std::move(m);
    cv.notify_all();
  });
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  hello.intArg = static_cast<std::int64_t>(role);
  hello.intArg2 = msg::kHelloCapVersion;
  hello.ints = std::move(ints);
  EXPECT_TRUE(conn->send(hello).isOk());
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return ack.has_value(); }));
  msg::Message out = ack.value_or(msg::Message{});
  lock.unlock();
  conn->close();
  return out;
}

TEST(DaemonHelloTest, VersionNegotiationIsTheSameForEveryRole) {
  // Missing max reads as min, missing min as version 1: 0-, 1- and 2-int
  // hellos negotiate alike for simulators and analyses.
  Daemon daemon;
  ASSERT_TRUE(daemon
                  .registerContext(std::make_unique<simmodel::SyntheticDriver>(
                      socketConfig()))
                  .isOk());
  struct Case {
    std::vector<std::int64_t> ints;
    StatusCode code;
    std::vector<std::int64_t> chosen;
  };
  const std::vector<Case> cases = {
      {{}, StatusCode::kOk, {1}},
      {{1}, StatusCode::kOk, {1}},
      {{2}, StatusCode::kOk, {2}},
      {{1, 2}, StatusCode::kOk, {2}},
      {{1, 9}, StatusCode::kOk, {msg::kProtocolVersionMax}},
      {{3, 9}, StatusCode::kFailedPrecondition, {}},
      {{5}, StatusCode::kFailedPrecondition, {}},
  };
  for (const auto role :
       {msg::ClientRole::kAnalysis, msg::ClientRole::kSimulator}) {
    for (const auto& c : cases) {
      const auto ack = versionedHello(daemon, role, c.ints);
      const auto where = ::testing::Message()
                         << "role " << static_cast<int>(role) << ", "
                         << c.ints.size() << " ints";
      EXPECT_EQ(ack.type, msg::MsgType::kHelloAck) << where;
      EXPECT_EQ(static_cast<StatusCode>(ack.code), c.code) << where;
      EXPECT_EQ(ack.ints, c.chosen) << where;
    }
  }
}

TEST(DaemonHelloTest, RetiredOpsAreAnsweredWithAnError) {
  // Values 3, 4, 6, 7, 13 and 14 left MsgType; a stale client that still
  // sends one gets a kError echoing its requestId, not silence.
  Daemon daemon;
  ASSERT_TRUE(daemon
                  .registerContext(std::make_unique<simmodel::SyntheticDriver>(
                      socketConfig()))
                  .isOk());
  auto conn = daemon.connectInProc();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> replies;
  conn->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    replies.push_back(std::move(m));
    cv.notify_all();
  });
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.context = "sock";
  ASSERT_TRUE(conn->send(hello).isOk());
  const std::vector<std::uint16_t> retired = {3, 4, 6, 7, 13, 14};
  for (const auto value : retired) {
    msg::Message m;
    m.type = static_cast<msg::MsgType>(value);
    m.requestId = 100 + value;
    m.files = {"out_0000000001.snc"};
    ASSERT_TRUE(conn->send(m).isOk());
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] {
    return replies.size() == 1 + retired.size();
  }));
  EXPECT_EQ(replies[0].type, msg::MsgType::kHelloAck);
  for (std::size_t i = 0; i < retired.size(); ++i) {
    const auto& r = replies[1 + i];
    EXPECT_EQ(r.type, msg::MsgType::kError) << retired[i];
    EXPECT_EQ(r.requestId, 100u + retired[i]);
    EXPECT_EQ(static_cast<StatusCode>(r.code), StatusCode::kInvalidArgument);
  }
  lock.unlock();
  conn->close();
}

}  // namespace
}  // namespace simfs::dv
