// Daemon serving-pipeline throughput (google-benchmark): N flood clients
// stream one-file kOpenBatchReq at the sharded daemon and the measured
// rate is acked requests per second end-to-end through
//
//   transport -> dispatch -> shard queue -> worker batch drain -> DvShard
//   -> buffered reply -> transport
//
// All opens hit pre-seeded steps, so this isolates the serving stack from
// simulation cost. The contexts axis is the sharding axis: contexts are
// pinned 1:1 to shards, so BM_*Flood/contexts:4 spreads the same client
// load over four independently-locked pipelines while contexts:1
// serializes it through one. A bounded in-flight window per client keeps
// queues finite without round-trip lockstep.
//
// Zero-copy pipeline accounting: every benchmark reports allocs/op
// (operator-new calls per open, across ALL threads — clients, reactor
// loops, shard workers). Clients receive acks through the MessageView
// handler, flood threads persist across iterations, and one untimed
// warm-up round fills the buffer pools / arenas / queue capacities, so
// the steady-state number must be 0 — CI gates on it.
//
// Run with --json (see bench_util.hpp) for BENCH_daemon.json; the
// items_per_second counter is ops/sec (real time).
#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "dv/daemon.hpp"
#include "msg/message.hpp"
#include "msg/transport.hpp"

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace {

using namespace simfs;

constexpr StepIndex kSeededSteps = 64;
constexpr int kOpsPerClientPerIter = 4096;
constexpr std::uint64_t kInFlightWindow = 1024;

/// The daemon never launches anything here (pure hit traffic), but the
/// seam must exist in case a request slips off the seeded range.
class NullLauncher final : public dv::SimLauncher {
 public:
  void launch(SimJobId, const simmodel::JobSpec&) override {}
  void kill(SimJobId) override {}
};

simmodel::ContextConfig benchContext(int i) {
  simmodel::ContextConfig cfg;
  cfg.name = "bench" + std::to_string(i);
  cfg.geometry = simmodel::StepGeometry(1, 16, 1 << 12);
  cfg.outputStepBytes = 1;
  cfg.cacheQuotaBytes = 1 << 16;  // far above the seeded set: no eviction
  cfg.prefetchEnabled = false;
  return cfg;
}

/// One flood client: a raw transport, a per-client ack counter and a
/// bounded-window sender. Acks arrive through the zero-copy view handler
/// and the request message is reused across sends, so a warm flood round
/// performs no client-side allocation.
struct FloodClient {
  std::unique_ptr<msg::Transport> transport;
  std::vector<std::string> files;  ///< pre-rendered hit filenames
  msg::Message request;            ///< reused one-file kOpenBatchReq
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t acks = 0;
  std::uint64_t sent = 0;
  bool helloOk = false;
  bool helloDone = false;

  void attachHandler() {
    transport->setViewHandler([this](const msg::MessageView& m) {
      std::lock_guard lock(mu);
      if (m.type() == msg::MsgType::kHelloAck) {
        helloDone = true;
        helloOk = m.code() == 0;
      } else {
        ++acks;
      }
      cv.notify_all();
    });
  }

  bool hello(const std::string& context) {
    msg::Message m;
    m.type = msg::MsgType::kHello;
    m.context = context;
    m.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
    if (!transport->send(m).isOk()) return false;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return helloDone; });
    return helloOk;
  }

  /// Streams `n` opens with at most kInFlightWindow unacked, then drains.
  void flood(int n) {
    msg::Message& m = request;
    m.type = msg::MsgType::kOpenBatchReq;
    m.files.resize(1);
    for (int i = 0; i < n; ++i) {
      m.files[0] = files[static_cast<std::size_t>(i) % files.size()];
      if (!transport->send(m).isOk()) return;
      ++sent;
      if ((sent & 63u) == 0) {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return sent - acks <= kInFlightWindow; });
      }
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return acks == sent; });
  }
};

/// Persistent flood threads: spawning a thread per iteration would both
/// skew small-iteration timings and allocate (stacks, handles) inside the
/// measured region. One pool of threads runs numbered rounds instead.
class FloodPool {
 public:
  explicit FloodPool(std::vector<std::unique_ptr<FloodClient>>& clients)
      : clients_(clients) {
    threads_.reserve(clients_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      threads_.emplace_back([this, i] { worker(i); });
    }
  }

  ~FloodPool() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Runs one flood round on every client and blocks until all drain.
  void runRound(int opsPerClient) {
    {
      std::lock_guard lock(mu_);
      ops_ = opsPerClient;
      done_ = 0;
      ++round_;
    }
    cv_.notify_all();
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return done_ == threads_.size(); });
  }

 private:
  void worker(std::size_t index) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return stop_ || round_ != seen; });
        if (stop_) return;
        seen = round_;
      }
      clients_[index]->flood(ops_);
      {
        std::lock_guard lock(mu_);
        ++done_;
      }
      cv_.notify_all();
    }
  }

  std::vector<std::unique_ptr<FloodClient>>& clients_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t round_ = 0;
  std::size_t done_ = 0;
  int ops_ = 0;
  bool stop_ = false;
};

using ConnectFn =
    std::function<std::unique_ptr<msg::Transport>(dv::Daemon&, int client)>;

void runFloodBenchmark(benchmark::State& state, const ConnectFn& connect) {
  const int contexts = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));

  dv::Daemon::Options options;
  options.shards = static_cast<std::size_t>(contexts);
  options.workers = static_cast<std::size_t>(contexts);
  // Provision the queues for the full in-flight load (clients x window):
  // shedding is backpressure for misbehaving producers, not a regime this
  // throughput bench wants to measure — and each shed builds an owned
  // error reply, which would show up in the allocs/op audit.
  options.queueCap = static_cast<std::size_t>(clients) * kInFlightWindow * 2;
  dv::Daemon daemon(options);
  NullLauncher launcher;
  daemon.setLauncher(&launcher);
  std::vector<simmodel::ContextConfig> cfgs;
  for (int i = 0; i < contexts; ++i) {
    cfgs.push_back(benchContext(i));
    if (!daemon
             .registerContext(
                 std::make_unique<simmodel::SyntheticDriver>(cfgs[i]))
             .isOk()) {
      state.SkipWithError("registerContext failed");
      return;
    }
    for (StepIndex s = 0; s < kSeededSteps; ++s) {
      (void)daemon.seedAvailableStep(cfgs[i].name, s);
    }
  }

  std::vector<std::unique_ptr<FloodClient>> flood;
  for (int c = 0; c < clients; ++c) {
    auto fc = std::make_unique<FloodClient>();
    fc->transport = connect(daemon, c);
    if (!fc->transport) {
      state.SkipWithError("connect failed");
      return;
    }
    const auto& cfg = cfgs[static_cast<std::size_t>(c % contexts)];
    for (StepIndex s = 0; s < kSeededSteps; ++s) {
      fc->files.push_back(cfg.codec.outputFile(s));
    }
    fc->attachHandler();
    if (!fc->hello(cfg.name)) {
      state.SkipWithError("hello failed");
      return;
    }
    flood.push_back(std::move(fc));
  }

  {
    FloodPool pool(flood);
    // Untimed warm-up round: grows the buffer pools, shard arenas, queue
    // and outbox capacities to steady state.
    pool.runRound(kOpsPerClientPerIter);
    for (auto _ : state) {
      pool.runRound(kOpsPerClientPerIter);
    }
    // Steady-state allocation audit, in a quiet region after the timed
    // loop so google-benchmark's own bookkeeping cannot leak into the
    // count: every operator-new on any thread (flood clients, reactor
    // loops, shard workers) lands in g_allocCount. CI fails the bench if
    // the socket flood's number is not 0.
    const std::uint64_t before =
        bench::g_allocCount.load(std::memory_order_relaxed);
    pool.runRound(kOpsPerClientPerIter);
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(bench::g_allocCount.load(
                                std::memory_order_relaxed) -
                            before) /
        (static_cast<double>(clients) * kOpsPerClientPerIter));
  }
  state.SetItemsProcessed(state.iterations() * clients * kOpsPerClientPerIter);
  state.counters["clients"] = clients;
  state.counters["shards"] = contexts;

  for (auto& fc : flood) fc->transport->close();
}

/// In-proc transports: no socket hop, so the measured scaling is the
/// shard/worker pipeline itself.
void BM_DaemonOpenFlood(benchmark::State& state) {
  runFloodBenchmark(state, [](dv::Daemon& daemon, int) {
    return daemon.connectInProc();
  });
}

/// Unix-socket transports: adds the epoll reactor and writev batching to
/// the measured path (the daemon deployment of the paper's Fig. 4).
void BM_DaemonSocketOpenFlood(benchmark::State& state) {
  static int serial = 0;
  const std::string path = "/tmp/simfs_bench_" + std::to_string(::getpid()) +
                           "_" + std::to_string(serial++) + ".sock";
  struct Listener {
    dv::Daemon* daemon = nullptr;
    std::string path;
    bool listening = false;
  };
  Listener listener;
  listener.path = path;
  runFloodBenchmark(
      state, [&listener](dv::Daemon& daemon,
                         int) -> std::unique_ptr<msg::Transport> {
        if (!listener.listening) {
          if (!daemon.listen(listener.path).isOk()) return nullptr;
          listener.daemon = &daemon;
          listener.listening = true;
        }
        auto conn = msg::unixSocketConnect(listener.path);
        if (!conn.isOk()) return nullptr;
        return std::move(*conn);
      });
  ::unlink(path.c_str());
}

}  // namespace

// The sharding axis: 4 clients against 1 shard vs 4 shards is the
// headline scaling comparison; 1 and 16 clients bound the latency and
// oversubscription regimes.
BENCHMARK(BM_DaemonOpenFlood)
    ->ArgNames({"contexts", "clients"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({1, 16})
    ->Args({4, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DaemonSocketOpenFlood)
    ->ArgNames({"contexts", "clients"})
    ->Args({1, 4})
    ->Args({4, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return simfs::bench::runMicroBenchmarks(argc, argv, "BENCH_daemon.json");
}
