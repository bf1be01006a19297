// Federation tests: a 3-node DV ring served by three daemon pipelines
// (own sockets, own simulator fleets) must be indistinguishable, to the
// clients, from one big DV:
//
//   * routing-aware clients spread across the ring (some seeded with a
//     deliberately stale one-node ring so redirects are exercised)
//     observe exactly the availability sets of a single-node
//     DataVirtualizer replay of the same accesses,
//   * every context is served by its ring owner and nobody else
//     (verified through per-node serving stats),
//   * fire-and-forget simulator events sent to the wrong node are
//     transparently forwarded to the owner, and
//   * a one-node ring degenerates to standalone behavior: same counters,
//     zero redirects/forwards.
//
// The three daemons live in one process here (separate processes in the
// CI federation-smoke job) — they share nothing but Unix sockets, so the
// routing, redirect, and forwarding paths are identical.
#include "cluster/ring.hpp"
#include "dv/daemon.hpp"
#include "dv/data_virtualizer.hpp"
#include "dvlib/router.hpp"
#include "dvlib/simfs_client.hpp"
#include "msg/transport.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

namespace simfs::dv {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

constexpr int kNodes = 3;
constexpr int kContexts = 6;
constexpr int kClients = 9;
constexpr int kAccessesPerClient = 10;
constexpr StepIndex kStepSpan = 48;

std::string contextName(int i) { return "ctx" + std::to_string(i); }

ContextConfig fedConfig(int i) {
  ContextConfig cfg;
  cfg.name = contextName(i);
  cfg.geometry = StepGeometry(1, 4, 64);
  cfg.outputStepBytes = 64;
  cfg.cacheQuotaBytes = 0;  // unlimited: end state is the produced union
  cfg.sMax = 8;
  cfg.prefetchEnabled = false;
  cfg.perf = PerfModel(2, 1 * vtime::kMillisecond, 2 * vtime::kMillisecond);
  return cfg;
}

std::vector<StepIndex> accessesOf(int c) {
  std::vector<StepIndex> steps;
  steps.reserve(kAccessesPerClient);
  for (int k = 0; k < kAccessesPerClient; ++k) {
    steps.push_back(static_cast<StepIndex>((c * 11 + k * 5) % kStepSpan));
  }
  return steps;
}

/// One ring member: daemon + store + fleet, serving a Unix socket.
struct Node {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<vfs::MemFileStore> store;
  std::unique_ptr<simulator::ThreadedSimulatorFleet> fleet;
  std::string socketPath;
};

std::string socketPathFor(const std::string& tag, int i) {
  return "/tmp/simfs_fed_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(i) + ".sock";
}

/// Builds the shared membership table (version 2, so the version-1 stale
/// client ring below is superseded by redirect payloads).
cluster::Ring fullRing(const std::string& tag) {
  std::vector<cluster::NodeInfo> members;
  for (int i = 0; i < kNodes; ++i) {
    members.push_back({"dv" + std::to_string(i), socketPathFor(tag, i)});
  }
  return cluster::Ring::make(std::move(members), /*version=*/2).value();
}

std::vector<Node> startCluster(const std::string& tag,
                               const cluster::Ring& ring) {
  std::vector<Node> nodes;
  for (int i = 0; i < kNodes; ++i) {
    Node node;
    Daemon::Options options;
    options.shards = 2;
    options.workers = 2;
    options.nodeId = "dv" + std::to_string(i);
    options.ring = ring;
    node.daemon = std::make_unique<Daemon>(options);
    node.store = std::make_unique<vfs::MemFileStore>();
    node.fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *node.daemon, *node.store, /*timeScale=*/1.0);
    for (int c = 0; c < kContexts; ++c) {
      const auto cfg = fedConfig(c);
      EXPECT_TRUE(node.daemon
                      ->registerContext(
                          std::make_unique<simmodel::SyntheticDriver>(cfg))
                      .isOk());
      node.fleet->registerContext(cfg);
    }
    node.daemon->setLauncher(node.fleet.get());
    node.socketPath = socketPathFor(tag, i);
    EXPECT_TRUE(node.daemon->listen(node.socketPath).isOk());
    nodes.push_back(std::move(node));
  }
  return nodes;
}

void quiesce(std::vector<Node>& nodes) {
  const auto quiet = [&] {
    for (auto& n : nodes) {
      if (n.fleet->activeJobs() > 0) return false;
      for (const auto& c : n.daemon->shardCounters()) {
        if (c.queued > 0 || c.served < c.enqueued) return false;
      }
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!quiet() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(quiet()) << "federation did not quiesce";
}

/// Single-threaded replay of all accesses against one DataVirtualizer;
/// returns the per-context availability sets (the federation oracle).
std::vector<std::set<StepIndex>> replaySingleNode() {
  ManualClock clock;
  struct RecLauncher final : SimLauncher {
    struct L {
      SimJobId id;
      simmodel::JobSpec spec;
    };
    void launch(SimJobId job, const simmodel::JobSpec& spec) override {
      pending.push_back({job, spec});
    }
    void kill(SimJobId) override {}
    std::vector<L> pending;
  } launcher;
  DataVirtualizer dv(clock);
  dv.setLauncher(&launcher);
  std::vector<ContextConfig> cfgs;
  for (int i = 0; i < kContexts; ++i) {
    cfgs.push_back(fedConfig(i));
    EXPECT_TRUE(
        dv.registerContext(std::make_unique<simmodel::SyntheticDriver>(cfgs[i]))
            .isOk());
  }
  const auto completeLaunches = [&] {
    while (!launcher.pending.empty()) {
      const auto job = launcher.pending.back();
      launcher.pending.pop_back();
      const auto& cfg = cfgs[std::stoi(job.spec.context.substr(3))];
      dv.simulationStarted(job.id);
      for (StepIndex s = job.spec.startStep; s <= job.spec.stopStep; ++s) {
        dv.simulationFileWritten(job.id, cfg.codec.outputFile(s));
      }
      dv.simulationFinished(job.id, Status::ok());
    }
  };
  for (int c = 0; c < kClients; ++c) {
    const int ctx = c % kContexts;
    const auto client = dv.clientConnect(contextName(ctx)).value();
    for (const StepIndex step : accessesOf(c)) {
      const std::string file = cfgs[ctx].codec.outputFile(step);
      (void)dv.clientOpen(client, file);
      completeLaunches();
      (void)dv.clientRelease(client, file);
    }
    dv.clientDisconnect(client);
  }
  std::vector<std::set<StepIndex>> available(kContexts);
  for (int i = 0; i < kContexts; ++i) {
    const auto steps = cfgs[i].geometry.numOutputSteps();
    for (StepIndex s = 0; s < steps; ++s) {
      if (dv.isAvailable(contextName(i), s)) available[i].insert(s);
    }
  }
  return available;
}

TEST(FederationTest, ThreeNodeRingMatchesSingleNodeReplay) {
  const std::string tag = "stress";
  const cluster::Ring ring = fullRing(tag);
  auto nodes = startCluster(tag, ring);

  // Half the clients resolve through the true ring; the others are
  // seeded with a stale one-node table pointing at dv0 (version 1) and
  // must be redirected onto the owner, adopting the ring the redirect
  // carries.
  const cluster::Ring staleRing =
      cluster::Ring::make({{"dv0", nodes[0].socketPath}}, /*version=*/1)
          .value();
  auto sharedRouter = dvlib::NodeRouter::overUnixSockets(ring);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  int expectedRedirects = 0;
  for (int c = 0; c < kClients; ++c) {
    const bool stale = c % 2 == 1;
    if (stale && ring.ownerOf(contextName(c % kContexts)).id != "dv0") {
      ++expectedRedirects;
    }
    threads.emplace_back([&, c, stale] {
      const int ctx = c % kContexts;
      auto router = stale ? dvlib::NodeRouter::overUnixSockets(staleRing)
                          : sharedRouter;
      auto client = dvlib::SimFSClient::connect(router, contextName(ctx));
      if (!client.isOk()) {
        ++failures;
        return;
      }
      for (const StepIndex step : accessesOf(c)) {
        const std::string file = fedConfig(ctx).codec.outputFile(step);
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
  ASSERT_EQ(failures.load(), 0);
  quiesce(nodes);

  // Availability: for every context, the RING OWNER serves exactly the
  // single-node replay's set; non-owners never produced anything.
  const auto expected = replaySingleNode();
  for (int i = 0; i < kContexts; ++i) {
    const int owner = std::stoi(ring.ownerOf(contextName(i)).id.substr(2));
    ASSERT_FALSE(expected[i].empty()) << "oracle produced nothing?";
    const auto steps = fedConfig(i).geometry.numOutputSteps();
    for (StepIndex s = 0; s < steps; ++s) {
      EXPECT_EQ(nodes[owner].daemon->isAvailable(contextName(i), s),
                expected[i].count(s) > 0)
          << "context " << i << " step " << s << " owner dv" << owner;
      for (int n = 0; n < kNodes; ++n) {
        if (n == owner) continue;
        EXPECT_FALSE(nodes[n].daemon->isAvailable(contextName(i), s))
            << "non-owner dv" << n << " produced context " << i;
      }
    }
  }

  // Ownership: opens land only on ring owners, and add up exactly.
  std::uint64_t expectedOpens[kNodes] = {};
  for (int c = 0; c < kClients; ++c) {
    const int owner =
        std::stoi(ring.ownerOf(contextName(c % kContexts)).id.substr(2));
    expectedOpens[owner] += kAccessesPerClient;
  }
  std::uint64_t totalOpens = 0;
  for (int n = 0; n < kNodes; ++n) {
    const auto stats = nodes[n].daemon->stats();
    EXPECT_EQ(stats.opens, expectedOpens[n]) << "node dv" << n;
    totalOpens += stats.opens;
  }
  EXPECT_EQ(totalOpens,
            static_cast<std::uint64_t>(kClients) * kAccessesPerClient);

  // Redirects: every stale-seeded client whose context lives off dv0 was
  // bounced exactly once, by dv0; nobody else redirected anything.
  EXPECT_EQ(nodes[0].daemon->federationCounters().redirects,
            static_cast<std::uint64_t>(expectedRedirects));
  for (int n = 1; n < kNodes; ++n) {
    EXPECT_EQ(nodes[n].daemon->federationCounters().redirects, 0u)
        << "dv" << n;
  }

  for (auto& n : nodes) {
    n.fleet.reset();
    n.daemon.reset();
  }
}

TEST(FederationTest, WrongNodeSimulatorEventsAreForwarded) {
  const std::string tag = "fwd";
  const cluster::Ring ring = fullRing(tag);
  auto nodes = startCluster(tag, ring);

  // Pick any context owned by dv0 and a wrong node to aim at.
  int ctxIdx = -1;
  for (int i = 0; i < kContexts; ++i) {
    if (ring.ownerOf(contextName(i)).id == "dv0") {
      ctxIdx = i;
      break;
    }
  }
  ASSERT_GE(ctxIdx, 0) << "dv0 owns nothing (ring changed?)";
  const std::string ctx = contextName(ctxIdx);
  const auto cfg = fedConfig(ctxIdx);

  // Replace dv0's fleet with a recording launcher so the demand job
  // stays open until the test completes it over the wire.
  struct RecLauncher final : SimLauncher {
    void launch(SimJobId job, const simmodel::JobSpec& spec) override {
      std::lock_guard lock(mutex);
      jobs.push_back({job, spec});
      cv.notify_all();
    }
    void kill(SimJobId) override {}
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::pair<SimJobId, simmodel::JobSpec>> jobs;
  } launcher;
  nodes[0].daemon->setLauncher(&launcher);

  auto router = dvlib::NodeRouter::overUnixSockets(ring);
  auto client = dvlib::SimFSClient::connect(router, ctx);
  ASSERT_TRUE(client.isOk());

  const std::string file = cfg.codec.outputFile(0);
  auto info = (*client)->open(file);
  ASSERT_TRUE(info.isOk());
  ASSERT_FALSE(info->available);

  SimJobId job = 0;
  simmodel::JobSpec spec;
  {
    std::unique_lock lock(launcher.mutex);
    ASSERT_TRUE(launcher.cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return !launcher.jobs.empty(); }));
    job = launcher.jobs[0].first;
    spec = launcher.jobs[0].second;
  }

  // Deliver the simulator events to the WRONG node (dv1): each must be
  // forwarded to dv0, which owns the context and issued the job id.
  auto wrong = msg::unixSocketConnect(nodes[1].socketPath);
  ASSERT_TRUE(wrong.isOk());
  (*wrong)->setHandler([](msg::Message&&) {});
  std::uint64_t sent = 0;
  for (StepIndex s = spec.startStep; s <= spec.stopStep; ++s) {
    msg::Message m;
    m.type = msg::MsgType::kSimFileClosed;
    m.context = ctx;
    m.intArg = static_cast<std::int64_t>(job);
    m.files = {cfg.codec.outputFile(s)};
    ASSERT_TRUE((*wrong)->send(m).isOk());
    ++sent;
  }
  msg::Message fin;
  fin.type = msg::MsgType::kSimFinished;
  fin.context = ctx;
  fin.intArg = static_cast<std::int64_t>(job);
  ASSERT_TRUE((*wrong)->send(fin).isOk());
  ++sent;

  // The forwarded events reach dv0 and release the blocked open.
  EXPECT_TRUE((*client)->waitFile(file).isOk());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (nodes[1].daemon->federationCounters().forwarded < sent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(nodes[1].daemon->federationCounters().forwarded, sent);
  EXPECT_EQ(nodes[1].daemon->federationCounters().forwardDrops, 0u);
  EXPECT_EQ(nodes[0].daemon->federationCounters().forwarded, 0u);
  EXPECT_GT(nodes[0].daemon->stats().stepsProduced, 0u);

  (*client)->finalize();
  (*wrong)->close();
  for (auto& n : nodes) {
    n.fleet.reset();
    n.daemon.reset();
  }
}

TEST(FederationTest, DisagreeingRingsCannotPingPongForwards) {
  // Adversarial setup: nodeA's ring says nodeB owns everything relevant,
  // while nodeB's ring routes the same context back to nodeA's endpoint
  // (under a different member id). Without the single-hop bound a
  // forwarded event would bounce between them forever; with it, the
  // second node must process the event locally and forward nothing.
  const std::string pathA = socketPathFor("pingpong", 0);
  const std::string pathB = socketPathFor("pingpong", 1);

  // Ring for A, and a context A does NOT own (placement is pure hash,
  // so scan the context names for one landing on nodeB).
  const cluster::Ring ringA =
      cluster::Ring::make({{"nodeA", pathA}, {"nodeB", pathB}}).value();
  int ctxIdx = -1;
  for (int i = 0; i < kContexts; ++i) {
    if (ringA.ownerOf(contextName(i)).id == "nodeB") {
      ctxIdx = i;
      break;
    }
  }
  ASSERT_GE(ctxIdx, 0) << "nodeB owns none of the test contexts";
  const std::string ctx = contextName(ctxIdx);
  // Ring for B: B plus an alias whose endpoint is A, picked so B does
  // NOT own ctx either — B's table points the forward straight back.
  cluster::Ring ringB;
  for (const char* alias : {"nodeC", "nodeD", "nodeE", "nodeF"}) {
    auto candidate =
        cluster::Ring::make({{"nodeB", pathB}, {alias, pathA}}).value();
    if (candidate.ownerOf(ctx).id == alias) {
      ringB = candidate;
      break;
    }
  }
  ASSERT_FALSE(ringB.empty()) << "no alias maps ctx back to A's endpoint";

  const auto makeNode = [&](const std::string& id, const cluster::Ring& ring,
                            const std::string& path) {
    Node node;
    Daemon::Options options;
    options.shards = 1;
    options.workers = 1;
    options.nodeId = id;
    options.ring = ring;
    node.daemon = std::make_unique<Daemon>(options);
    node.store = std::make_unique<vfs::MemFileStore>();
    node.fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *node.daemon, *node.store, /*timeScale=*/1.0);
    const auto cfg = fedConfig(ctxIdx);
    EXPECT_TRUE(
        node.daemon
            ->registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
            .isOk());
    node.fleet->registerContext(cfg);
    node.daemon->setLauncher(node.fleet.get());
    node.socketPath = path;
    EXPECT_TRUE(node.daemon->listen(path).isOk());
    return node;
  };
  Node a = makeNode("nodeA", ringA, pathA);
  Node b = makeNode("nodeB", ringB, pathB);

  auto conn = msg::unixSocketConnect(pathA);
  ASSERT_TRUE(conn.isOk());
  (*conn)->setHandler([](msg::Message&&) {});
  msg::Message ev;
  ev.type = msg::MsgType::kSimFileClosed;
  ev.context = ctx;
  ev.intArg = 12345;  // job id unknown everywhere: fails soft at B
  ev.files = {fedConfig(ctxIdx).codec.outputFile(0)};
  ASSERT_TRUE((*conn)->send(ev).isOk());

  // A forwards once (to B); B must NOT forward it back despite its ring
  // saying the owner is over at A's endpoint.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (a.daemon->federationCounters().forwarded < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(a.daemon->federationCounters().forwarded, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(b.daemon->federationCounters().forwarded, 0u)
      << "hop bound violated: B re-forwarded a relayed event";
  EXPECT_EQ(a.daemon->federationCounters().forwarded, 1u)
      << "event bounced back to A";

  (*conn)->close();
  a.fleet.reset();
  a.daemon.reset();
  b.fleet.reset();
  b.daemon.reset();
}

TEST(FederationTest, OneNodeRingDegeneratesToStandalone) {
  const std::string tag = "solo";
  const std::string path = socketPathFor(tag, 0);
  const cluster::Ring ring =
      cluster::Ring::make({{"solo", path}}, /*version=*/1).value();

  // Run the same access sequence against (a) a federated one-node ring
  // and (b) a plain standalone daemon; every serving stat must agree.
  DvStats statsBy[2];
  for (int mode = 0; mode < 2; ++mode) {
    Daemon::Options options;
    options.shards = 2;
    options.workers = 2;
    if (mode == 0) {
      options.nodeId = "solo";
      options.ring = ring;
    }
    Daemon daemon(options);
    vfs::MemFileStore store;
    simulator::ThreadedSimulatorFleet fleet(daemon, store, /*timeScale=*/1.0);
    for (int c = 0; c < kContexts; ++c) {
      const auto cfg = fedConfig(c);
      ASSERT_TRUE(
          daemon
              .registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
              .isOk());
      fleet.registerContext(cfg);
    }
    daemon.setLauncher(&fleet);
    if (mode == 0) {
      ASSERT_TRUE(daemon.listen(path).isOk());
    }

    for (int c = 0; c < 4; ++c) {
      const int ctx = c % kContexts;
      std::unique_ptr<dvlib::SimFSClient> client;
      if (mode == 0) {
        auto router = dvlib::NodeRouter::overUnixSockets(ring);
        auto connected = dvlib::SimFSClient::connect(router, contextName(ctx));
        ASSERT_TRUE(connected.isOk());
        client = std::move(*connected);
      } else {
        auto connected = dvlib::SimFSClient::connect(daemon.connectInProc(),
                                                     contextName(ctx));
        ASSERT_TRUE(connected.isOk());
        client = std::move(*connected);
      }
      for (const StepIndex step : accessesOf(c)) {
        const std::string file = fedConfig(ctx).codec.outputFile(step);
        ASSERT_TRUE(client->acquire({file}).isOk());
        ASSERT_TRUE(client->release(file).isOk());
      }
      client->finalize();
    }

    const auto quiet = [&] {
      if (fleet.activeJobs() > 0) return false;
      for (const auto& sc : daemon.shardCounters()) {
        if (sc.queued > 0 || sc.served < sc.enqueued) return false;
      }
      return true;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!quiet() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(quiet());

    statsBy[mode] = daemon.stats();
    EXPECT_EQ(daemon.federationCounters().redirects, 0u);
    EXPECT_EQ(daemon.federationCounters().forwarded, 0u);
    daemon.stop();
    fleet.joinAll();
  }
  EXPECT_EQ(statsBy[0].opens, statsBy[1].opens);
  EXPECT_EQ(statsBy[0].hits, statsBy[1].hits);
  EXPECT_EQ(statsBy[0].misses, statsBy[1].misses);
  EXPECT_EQ(statsBy[0].jobsLaunched, statsBy[1].jobsLaunched);
  EXPECT_EQ(statsBy[0].stepsProduced, statsBy[1].stepsProduced);
}

TEST(FederationTest, BatchedOpenFollowsRedirect) {
  // A routing-aware session holds an in-flight kOpenBatchReq when the
  // serving node answers kRedirect (here: a scripted impostor node that
  // accepts the hello but disowns the context on first use). The session
  // must rebind to the named owner — dial, re-hello — and RESEND the
  // batch there under the same request id, completing the acquire as if
  // nothing happened, without duplicating the batch on either node.
  const auto cfg = fedConfig(0);
  const std::string ctx = contextName(0);

  Daemon realDaemon;  // standalone: accepts any context it serves
  vfs::MemFileStore store;
  simulator::ThreadedSimulatorFleet fleet(realDaemon, store, /*timeScale=*/1.0);
  ASSERT_TRUE(
      realDaemon
          .registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
          .isOk());
  fleet.registerContext(cfg);
  realDaemon.setLauncher(&fleet);

  // Whichever node the hash picks for `ctx` plays the impostor; the
  // other one fronts the real daemon — so the first batch always lands
  // on the scripted node, whatever the ring says.
  const cluster::Ring ring =
      cluster::Ring::make({{"dvA", "ep-A"}, {"dvB", "ep-B"}}, /*version=*/2)
          .value();
  const std::string fakeId = ring.ownerOf(ctx).id;
  const std::string realId = fakeId == "dvA" ? "dvB" : "dvA";
  const std::string fakeEp = ring.find(fakeId)->endpoint;
  std::vector<std::string> ringEntries;
  for (const auto& n : ring.nodes()) {
    ringEntries.push_back(n.id + "=" + n.endpoint);
  }

  std::atomic<int> batchReqsAtFake{0};
  std::atomic<int> batchReqsAtReal{0};
  std::vector<std::unique_ptr<msg::Transport>> fakeEnds;
  std::mutex fakeMutex;

  /// Counts kOpenBatchReq on the real link (resend exactly once).
  class CountingTransport final : public msg::Transport {
   public:
    CountingTransport(std::unique_ptr<msg::Transport> inner,
                      std::atomic<int>& batches)
        : inner_(std::move(inner)), batches_(batches) {}
    Status send(const msg::MessageRef& m) override {
      if (m.type == msg::MsgType::kOpenBatchReq) ++batches_;
      return inner_->send(m);
    }
    void setViewHandler(ViewHandler h) override {
      inner_->setViewHandler(std::move(h));
    }
    void setCloseHandler(std::function<void()> h) override {
      inner_->setCloseHandler(std::move(h));
    }
    void close() override { inner_->close(); }
    [[nodiscard]] bool isOpen() const override { return inner_->isOpen(); }

   private:
    std::unique_ptr<msg::Transport> inner_;
    std::atomic<int>& batches_;
  };

  auto router = std::make_shared<dvlib::NodeRouter>(
      ring,
      [&](const std::string& endpoint)
          -> Result<std::unique_ptr<msg::Transport>> {
        if (endpoint != fakeEp) {
          return std::unique_ptr<msg::Transport>(
              std::make_unique<CountingTransport>(realDaemon.connectInProc(),
                                                  batchReqsAtReal));
        }
        // The impostor: hello succeeds, the first batched open bounces.
        auto [serverEnd, clientEnd] = msg::makeInProcPair();
        msg::Transport* raw = serverEnd.get();
        raw->setHandler(
            [raw, &batchReqsAtFake, ringEntries, realId](msg::Message&& m) {
              msg::Message reply;
              reply.requestId = m.requestId;
              if (m.type == msg::MsgType::kHello) {
                reply.type = msg::MsgType::kHelloAck;
                reply.intArg = 4242;
                (void)raw->send(reply);
              } else if (m.type == msg::MsgType::kOpenBatchReq) {
                ++batchReqsAtFake;
                reply.type = msg::MsgType::kRedirect;
                reply.text = realId;
                reply.files = ringEntries;
                reply.intArg = 2;  // ring version
                (void)raw->send(reply);
              }
            });
        std::lock_guard lock(fakeMutex);
        fakeEnds.push_back(std::move(serverEnd));
        return std::move(clientEnd);
      });

  auto connected = dvlib::Session::connect(router, ctx);
  ASSERT_TRUE(connected.isOk()) << connected.status().toString();
  std::shared_ptr<dvlib::Session> session = std::move(*connected);

  const std::string file = cfg.codec.outputFile(3);
  dvlib::SimfsStatus status;
  ASSERT_TRUE(session->acquire({file}, &status).isOk())
      << status.error.toString();
  EXPECT_TRUE(store.exists(file));
  EXPECT_TRUE(realDaemon.isAvailable(ctx, 3));

  EXPECT_EQ(batchReqsAtFake.load(), 1) << "batch not sent to first owner";
  EXPECT_EQ(batchReqsAtReal.load(), 1)
      << "batch must be resent exactly once after the redirect";

  // Exactly one reference was registered end-to-end (no duplicate from
  // the resend): the second release must fail.
  ASSERT_TRUE(session->release(file).isOk());
  EXPECT_EQ(session->release(file).code(), StatusCode::kFailedPrecondition);

  session->finalize();
}

bool pollUntil(const std::function<bool()>& pred, int seconds = 20) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One admin-plane request/reply over a fresh Unix socket (the in-test
/// equivalent of `simfsctl join`'s kRingPropose / kRingCommit sends).
Result<msg::Message> adminCall(const std::string& socketPath,
                               msg::Message req) {
  auto conn = msg::unixSocketConnect(socketPath);
  if (!conn) return conn.status();
  std::mutex mu;
  std::condition_variable cv;
  std::optional<msg::Message> got;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    got = std::move(m);
    cv.notify_all();
  });
  req.requestId = 1;
  SIMFS_RETURN_IF_ERROR((*conn)->send(req));
  std::unique_lock lock(mu);
  if (!cv.wait_for(lock, std::chrono::seconds(5),
                   [&] { return got.has_value(); })) {
    return errTimedOut("no admin reply");
  }
  (*conn)->close();
  return std::move(*got);
}

TEST(FederationTest, JoinMidFloodMatchesStaticFourNodeOracle) {
  // A 3-node ring takes a client flood; mid-flood a 4th daemon (started
  // on its own self-ring, owning nothing anyone routes to) joins through
  // the two-phase admin path. The moving contexts' resident state streams
  // to dv3 before the commit; afterwards every op on a moved context is
  // redirected and served by dv3. Acceptance: ZERO failed client ops, and
  // the final owners' availability is exactly the single-node oracle —
  // i.e. indistinguishable from a ring that was 4 nodes all along.
  const std::string tag = "elastic";
  const cluster::Ring ring3 = fullRing(tag);
  auto nodes = startCluster(tag, ring3);
  const std::string dv3Sock = socketPathFor(tag, 3);
  {
    Node extra;
    Daemon::Options options;
    options.shards = 2;
    options.workers = 2;
    options.nodeId = "dv3";
    options.ring = cluster::Ring::make({{"dv3", dv3Sock}}, 1).value();
    extra.daemon = std::make_unique<Daemon>(options);
    extra.store = std::make_unique<vfs::MemFileStore>();
    extra.fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *extra.daemon, *extra.store, /*timeScale=*/1.0);
    for (int c = 0; c < kContexts; ++c) {
      const auto cfg = fedConfig(c);
      ASSERT_TRUE(extra.daemon
                      ->registerContext(
                          std::make_unique<simmodel::SyntheticDriver>(cfg))
                      .isOk());
      extra.fleet->registerContext(cfg);
    }
    extra.daemon->setLauncher(extra.fleet.get());
    extra.socketPath = dv3Sock;
    ASSERT_TRUE(extra.daemon->listen(dv3Sock).isOk());
    nodes.push_back(std::move(extra));
  }
  const auto ring4 =
      ring3.withNode({"dv3", dv3Sock}, ring3.version() + 1).value();
  std::vector<std::string> ctxNames;
  for (int i = 0; i < kContexts; ++i) ctxNames.push_back(contextName(i));
  const auto moved = cluster::Ring::movedContexts(ring3, ring4, ctxNames);
  ASSERT_FALSE(moved.empty()) << "a 4th node must attract some contexts";

  // The flood: wave 1 runs against the 3-ring, then each client parks
  // until the membership change committed and runs wave 2 on its still-
  // bound session — the op lands on the old owner, is redirected, and
  // the client rebinds + resends under the same requestId.
  std::atomic<int> failures{0};
  std::atomic<int> wave1Done{0};
  std::atomic<bool> committed{false};
  auto sharedRouter = dvlib::NodeRouter::overUnixSockets(ring3);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const int ctx = c % kContexts;
      auto client = dvlib::SimFSClient::connect(sharedRouter, contextName(ctx));
      if (!client.isOk()) {
        ++failures;
        ++wave1Done;
        return;
      }
      const auto steps = accessesOf(c);
      const std::size_t half = steps.size() / 2;
      const auto run = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to; ++k) {
          const std::string file = fedConfig(ctx).codec.outputFile(steps[k]);
          if (!(*client)->acquire({file}).isOk() ||
              !(*client)->release(file).isOk()) {
            ++failures;
            return false;
          }
        }
        return true;
      };
      const bool wave1Ok = run(0, half);
      ++wave1Done;
      if (wave1Ok) {
        while (!committed.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        run(half, steps.size());
      }
      (*client)->finalize();
    });
  }
  while (wave1Done.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The two-phase change, driven exactly like `simfsctl join`: propose
  // through dv0 (which relays to old ∪ new), drain, commit.
  msg::Message propose;
  propose.type = msg::MsgType::kRingPropose;
  propose.files = ring4.encodeEntries();
  propose.intArg = static_cast<std::int64_t>(ring4.version());
  auto proposeAck = adminCall(nodes[0].socketPath, propose);
  ASSERT_TRUE(proposeAck.isOk());
  ASSERT_EQ(proposeAck->type, msg::MsgType::kRingProposeAck);
  ASSERT_EQ(proposeAck->code, 0) << proposeAck->text;
  EXPECT_GT(proposeAck->intArg2, 0) << "dv0 must report moving contexts";
  const auto drainDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto inflightEverywhere = [&] {
    std::size_t n = 0;
    for (auto& node : nodes) {
      n += node.daemon->federationCounters().handoffsInflight;
    }
    return n;
  };
  while (inflightEverywhere() > 0 &&
         std::chrono::steady_clock::now() < drainDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(inflightEverywhere(), 0u) << "handoffs did not drain";
  msg::Message commit;
  commit.type = msg::MsgType::kRingCommit;
  commit.files = ring4.encodeEntries();
  commit.intArg = static_cast<std::int64_t>(ring4.version());
  auto commitAck = adminCall(nodes[0].socketPath, commit);
  ASSERT_TRUE(commitAck.isOk());
  ASSERT_EQ(commitAck->type, msg::MsgType::kRingCommitAck);
  ASSERT_EQ(commitAck->code, 0) << commitAck->text;
  // The commit relay fans out async: wave 2 starts once every member
  // adopted v3, so no old owner keeps serving a moved context.
  const auto adoptDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto allAdopted = [&] {
    for (auto& node : nodes) {
      if (node.daemon->ring().version() != ring4.version()) return false;
    }
    return true;
  };
  while (!allAdopted() &&
         std::chrono::steady_clock::now() < adoptDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(allAdopted()) << "commit relay did not converge";
  committed.store(true);
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0) << "elastic join must lose zero client ops";

  // Every real mover's transfer committed (dv3's self-ring mirage adds
  // trivial commits on top, hence >=); nothing is still in flight.
  std::uint64_t committedSum = 0;
  for (auto& node : nodes) {
    const auto fed = node.daemon->federationCounters();
    committedSum += fed.handoffsCommitted;
    EXPECT_EQ(fed.handoffsInflight, 0u);
  }
  EXPECT_GE(committedSum, moved.size());

  quiesce(nodes);
  // The oracle: the final owner under ring4 serves EXACTLY the steps a
  // single-node replay of the same accesses produced — handed-off state
  // plus post-commit production, byte-equivalent to a static 4-ring.
  // (Delta frames ride the maintenance tick, so poll before asserting.)
  const auto expected = replaySingleNode();
  const auto ownerHasOracle = [&](int i) {
    const int owner = std::stoi(ring4.ownerOf(contextName(i)).id.substr(2));
    const auto steps = fedConfig(i).geometry.numOutputSteps();
    for (StepIndex s = 0; s < steps; ++s) {
      if (nodes[owner].daemon->isAvailable(contextName(i), s) !=
          (expected[i].count(s) > 0)) {
        return false;
      }
    }
    return true;
  };
  const auto settleDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto settled = [&] {
    for (int i = 0; i < kContexts; ++i) {
      if (!ownerHasOracle(i)) return false;
    }
    return true;
  };
  while (!settled() &&
         std::chrono::steady_clock::now() < settleDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (int i = 0; i < kContexts; ++i) {
    const int owner = std::stoi(ring4.ownerOf(contextName(i)).id.substr(2));
    ASSERT_FALSE(expected[i].empty()) << "oracle produced nothing?";
    const auto steps = fedConfig(i).geometry.numOutputSteps();
    for (StepIndex s = 0; s < steps; ++s) {
      EXPECT_EQ(nodes[owner].daemon->isAvailable(contextName(i), s),
                expected[i].count(s) > 0)
          << "context " << i << " step " << s << " final owner dv" << owner;
      // Nobody anywhere invented a step the oracle never produced; old
      // owners may keep a residue subset, which is harmless (they
      // redirect instead of serving it).
      for (std::size_t n = 0; n < nodes.size(); ++n) {
        if (expected[i].count(s) == 0) {
          EXPECT_FALSE(nodes[n].daemon->isAvailable(contextName(i), s))
              << "dv" << n << " invented context " << i << " step " << s;
        }
      }
    }
  }

  for (auto& n : nodes) {
    n.fleet.reset();
    n.daemon.reset();
  }
}

TEST(FederationTest, StaleEpochHandoffIsFenced) {
  // The epoch fence in one frame: a kContextHandoff tagged with an epoch
  // BELOW the receiver's committed ring version is rejected outright with
  // kFailedPrecondition — a crashed-and-recovered old owner that missed a
  // commit cannot scribble authority it no longer has. A frame for a
  // context the receiver does not own under the committed ring bounces
  // the same way.
  const std::string tag = "fence";
  const cluster::Ring ring = fullRing(tag);  // version 2
  auto nodes = startCluster(tag, ring);

  msg::Message stale;
  stale.type = msg::MsgType::kContextHandoff;
  stale.context = contextName(0);
  stale.intArg = 1;  // epoch 1 < committed version 2
  stale.text = "dv9";
  stale.ints = {0, 1, 2};
  auto reply = adminCall(nodes[0].socketPath, stale);
  ASSERT_TRUE(reply.isOk());
  ASSERT_EQ(reply->type, msg::MsgType::kContextHandoffAck);
  EXPECT_EQ(static_cast<StatusCode>(reply->code),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(reply->intArg, 1);

  // Current epoch, but aimed at a non-owner: equally fenced.
  int nonOwner = -1;
  for (int n = 0; n < kNodes && nonOwner < 0; ++n) {
    if (ring.ownerOf(contextName(0)).id != "dv" + std::to_string(n)) {
      nonOwner = n;
    }
  }
  ASSERT_GE(nonOwner, 0);
  msg::Message misaimed = stale;
  misaimed.intArg = static_cast<std::int64_t>(ring.version());
  auto bounced = adminCall(nodes[nonOwner].socketPath, misaimed);
  ASSERT_TRUE(bounced.isOk());
  EXPECT_EQ(static_cast<StatusCode>(bounced->code),
            StatusCode::kFailedPrecondition);

  // Neither frame touched any state.
  for (auto& n : nodes) {
    EXPECT_FALSE(n.daemon->isAvailable(contextName(0), 0));
    EXPECT_FALSE(n.daemon->isAvailable(contextName(0), 1));
  }
  for (auto& n : nodes) {
    n.fleet.reset();
    n.daemon.reset();
  }
}

TEST(FederationTest, StepProducedAfterSnapshotReachesNewOwner) {
  // The handoff delta path: a moving context's snapshot streams to the
  // new owner before the commit, while the old owner keeps serving. A
  // step the old owner produces in that window is not in the snapshot;
  // the produced hook forwards it as an epoch-tagged delta frame, so the
  // new owner holds it once the change commits.
  const std::string tag = "delta";
  const cluster::Ring ring = fullRing(tag);  // version 2
  auto nodes = startCluster(tag, ring);
  const std::string ctx = contextName(0);
  const auto cfg = fedConfig(0);
  const std::string fromId = ring.ownerOf(ctx).id;
  const auto next = ring.withoutNode(fromId, ring.version() + 1).value();
  const int from = std::stoi(fromId.substr(2));
  const int to = std::stoi(next.ownerOf(ctx).id.substr(2));

  // One acquire + release straight on `node` (no router: nothing follows
  // a redirect, so the step is produced exactly there).
  const auto acquireOn = [&](int node, StepIndex step) {
    auto conn = msg::unixSocketConnect(nodes[node].socketPath);
    if (!conn) return false;
    auto session = dvlib::Session::connect(std::move(*conn), ctx);
    if (!session) return false;
    const std::string file = cfg.codec.outputFile(step);
    const bool ok = (*session)->acquire({file}).isOk() &&
                    (*session)->release(file).isOk();
    (*session)->finalize();
    return ok;
  };
  constexpr StepIndex kInSnapshot = 1;
  constexpr StepIndex kAfterSnapshot = 40;  // a different restart interval
  ASSERT_TRUE(acquireOn(from, kInSnapshot));

  msg::Message propose;
  propose.type = msg::MsgType::kRingPropose;
  propose.files = next.encodeEntries();
  propose.intArg = static_cast<std::int64_t>(next.version());
  auto proposeAck = adminCall(nodes[from].socketPath, propose);
  ASSERT_TRUE(proposeAck.isOk());
  ASSERT_EQ(proposeAck->code, 0) << proposeAck->text;
  // The snapshot has streamed once the old owner's transfer is acked.
  ASSERT_TRUE(pollUntil([&] {
    const auto fed = nodes[from].daemon->federationCounters();
    return fed.handoffsInflight == 0 && fed.handoffsCommitted > 0;
  })) << "snapshot did not stream";

  ASSERT_FALSE(nodes[from].daemon->isAvailable(ctx, kAfterSnapshot));
  ASSERT_TRUE(acquireOn(from, kAfterSnapshot));
  ASSERT_TRUE(nodes[from].daemon->isAvailable(ctx, kAfterSnapshot));

  msg::Message commit = propose;
  commit.type = msg::MsgType::kRingCommit;
  auto commitAck = adminCall(nodes[from].socketPath, commit);
  ASSERT_TRUE(commitAck.isOk());
  ASSERT_EQ(commitAck->code, 0) << commitAck->text;

  EXPECT_TRUE(pollUntil([&] {
    return nodes[to].daemon->ring().version() == next.version() &&
           nodes[to].daemon->isAvailable(ctx, kAfterSnapshot);
  })) << "step produced after the snapshot never reached dv" << to;
  EXPECT_TRUE(nodes[to].daemon->isAvailable(ctx, kInSnapshot));

  for (auto& n : nodes) {
    n.fleet.reset();
    n.daemon.reset();
  }
}

TEST(NodeRouterTest, PoolsUnboundConnectionsPerEndpoint) {
  // The dialer counts dials; checkout after checkin must reuse.
  std::atomic<int> dials{0};
  std::vector<std::unique_ptr<msg::Transport>> serverEnds;
  std::mutex serverMutex;
  auto router = std::make_shared<dvlib::NodeRouter>(
      cluster::Ring::make({{"a", "ep-a"}, {"b", "ep-b"}}).value(),
      [&](const std::string&) -> Result<std::unique_ptr<msg::Transport>> {
        ++dials;
        auto [server, client] = msg::makeInProcPair();
        std::lock_guard lock(serverMutex);
        serverEnds.push_back(std::move(server));
        return std::move(client);
      });

  auto first = router->checkout("ep-a");
  ASSERT_TRUE(first.isOk());
  EXPECT_EQ(dials.load(), 1);
  router->checkin("ep-a", std::move(*first));
  auto second = router->checkout("ep-a");
  ASSERT_TRUE(second.isOk());
  EXPECT_EQ(dials.load(), 1) << "pooled transport not reused";
  auto other = router->checkout("ep-b");
  ASSERT_TRUE(other.isOk());
  EXPECT_EQ(dials.load(), 2) << "pool must be per-endpoint";

  // A transport whose peer died while pooled is discarded, not reused.
  router->checkin("ep-a", std::move(*second));
  {
    std::lock_guard lock(serverMutex);
    serverEnds.clear();  // closes every server end
  }
  auto third = router->checkout("ep-a");
  ASSERT_TRUE(third.isOk());
  EXPECT_EQ(dials.load(), 3) << "stale pooled transport was handed out";
  router->drainPool();
}

TEST(NodeRouterTest, AdoptRingKeepsNewestVersion) {
  auto v2 = cluster::Ring::make({{"a", "/a"}, {"b", "/b"}}, 2).value();
  auto v3 = cluster::Ring::make({{"a", "/a"}, {"c", "/c"}}, 3).value();
  auto router = std::make_shared<dvlib::NodeRouter>(
      v2, [](const std::string&) -> Result<std::unique_ptr<msg::Transport>> {
        return errUnavailable("no dial in this test");
      });
  EXPECT_FALSE(router->adoptRing(v2));  // same version, same table: no-op
  EXPECT_TRUE(router->adoptRing(v3));
  EXPECT_EQ(router->ringSnapshot().version(), 3u);
  EXPECT_FALSE(router->adoptRing(v2));  // stale: ignored
  EXPECT_NE(router->node("c").isOk(), false);
  EXPECT_FALSE(router->node("b").isOk());
  // Same version but DIFFERENT membership is authoritative (the daemon's
  // table supersedes a wrong client seed) — without this, a client seeded
  // with a bad same-version ring could never converge on the table every
  // redirect carries.
  auto v3fixed = cluster::Ring::make({{"a", "/a"}, {"d", "/d"}}, 3).value();
  EXPECT_TRUE(router->adoptRing(v3fixed));
  EXPECT_TRUE(router->node("d").isOk());
  EXPECT_FALSE(router->node("c").isOk());
  // A newer version with IDENTICAL membership fast-forwards silently:
  // the stored version advances (so stale-update checks keep working)
  // but adoptRing reports "nothing changed" — no rebind storm on the
  // pure version bumps an elastic commit fans out to every client.
  const auto v4 =
      cluster::Ring::fromEntries(v3fixed.encodeEntries(), 4).value();
  EXPECT_FALSE(router->adoptRing(v4));
  EXPECT_EQ(router->ringSnapshot().version(), 4u);
  EXPECT_TRUE(router->node("d").isOk());
}

}  // namespace
}  // namespace simfs::dv
