// simfs_bench — live time-to-data benchmark over a real daemon process.
//
//   simfs_bench --workload <name> --seed <n> [--seconds <s>]
//               [--trace <spans.jsonl>] [--out <run.json>] [--allow-debug]
//
// The binary re-executes itself with --serve as a separate daemon
// process: dv::Daemon (4 shards, 4 workers) on a Unix socket, fed by a
// ThreadedSimulatorFleet running at timeScale 1.0 (model durations are
// wall time) that writes into a DiskFileStore; evicted steps are removed
// from the store. This process is the load generator: at most four closed-loop
// client threads on at most four data connections, replaying traces that
// src/trace generates from --seed. One access is
//   acquireAsync -> waitAck -> wait -> pread of the store file -> closeNotify
// (PosixVfs open -> waitReady -> pread -> close for mixed_rw's readers),
// timed from issue until its bytes are in memory. Every access then
// compares the bytes with the producer's deterministic payload.
//
// Each run sets the daemon up kSetupRepeats times (setup_s is the median),
// warms up for kWarmupNs, then measures for --seconds; it never outlives
// kRunCapNs.
//
// Without --trace the run reports the end-to-end metrics. With --trace it
// runs the workload twice on fresh daemons, untraced and traced, reports
// the per-layer metrics of the traced run plus the tracing overhead, and
// writes every span (client side plus the daemon host's launcher and store
// decorators) to the given JSONL file.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is non-zero when an access failed, a check failed, or a
// deadline expired (a hang fails the run instead of stalling it).
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dv/daemon.hpp"
#include "dv/data_virtualizer.hpp"
#include "dvlib/session.hpp"
#include "msg/transport.hpp"
#include "posix/vfs_core.hpp"
#include "simmodel/driver.hpp"
#include "simulator/threaded_fleet.hpp"
#include "trace/trace.hpp"
#include "vfs/file_store.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

extern char** environ;

namespace {

using namespace simfs;
namespace fs = std::filesystem;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleepNs(std::int64_t ns) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "simfs_bench: %s\n", why.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ workloads

// Geometry shared by every workload: a 4096-step timeline with a restart
// every 8 output steps; a restart costs 10 ms, each output step 1 ms.
constexpr StepIndex kTimeline = 4096;
constexpr std::int64_t kDeltaR = 8;
constexpr VDuration kAlphaSim = 10 * vtime::kMillisecond;
constexpr VDuration kTauSim = 1 * vtime::kMillisecond;
constexpr int kSMax = 8;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWorkers = 4;
constexpr std::int64_t kAccessDeadlineNs = 10 * vtime::kSecond;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kModelCheckAccesses = 300;
constexpr std::int64_t kWarmupNs = 2 * vtime::kSecond;
constexpr std::int64_t kRunCapNs = 170 * vtime::kSecond;

/// The end-to-end metrics of BENCHMARK.json: the result line of an
/// untraced run carries exactly these; --out reports every metric.
constexpr std::string_view kEndToEnd[] = {"setup_s", "throughput_ops_s",
                                          "ttd_p99_us"};

struct Workload {
  const char* name;
  int contexts;
  Bytes stepBytes;
  std::int64_t cacheSteps;  ///< per context; 0 = unlimited
  simmodel::PolicyKind policy;
  bool prefetch;
};

// Why each workload exists is recorded in ttdbench/README.md.
constexpr Workload kWorkloads[] = {
    {"hit_flood", 4, 4096, 0, simmodel::PolicyKind::kDcl, false},
    {"sweep_prefetch", 4, 65536, 256, simmodel::PolicyKind::kDcl, true},
    {"zipf_miss", 4, 65536, 256, simmodel::PolicyKind::kDcl, false},
    // LRU keeps the readers' hot set resident beside the sweep's churn.
    {"mixed_rw", 2, 65536, 256, simmodel::PolicyKind::kLru, true},
};

const Workload* findWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string contextName(int i) { return "ctx" + std::to_string(i); }

int contextIndex(std::string_view name) {
  int i = -1;
  if (name.size() > 3) std::sscanf(std::string(name).c_str(), "ctx%d", &i);
  return i;
}

simmodel::ContextConfig contextConfig(const Workload& w, int i) {
  simmodel::ContextConfig cfg;
  cfg.name = contextName(i);
  cfg.geometry = simmodel::StepGeometry(1, kDeltaR, kTimeline);
  cfg.outputStepBytes = w.stepBytes;
  cfg.restartStepBytes = w.stepBytes;
  cfg.cacheQuotaBytes = static_cast<Bytes>(w.cacheSteps) * w.stepBytes;
  cfg.policy = w.policy;
  cfg.sMax = kSMax;
  cfg.prefetchEnabled = w.prefetch;
  cfg.perf = simmodel::PerfModel(1, kTauSim, kAlphaSim);
  // All contexts share one flat store directory.
  cfg.codec = simmodel::FilenameCodec(cfg.name + "_out_", ".snc",
                                      cfg.name + "_restart_", ".rst", 10);
  return cfg;
}

/// One client thread's inputs.
struct StreamPlan {
  bool posix = false;  ///< PosixVfs reader instead of a Session
  int ctx = 0;
  int window = 1;      ///< acquires kept in flight
  VDuration thinkNs = 0;  ///< analysis time between two accesses
  std::vector<StepIndex> steps;  ///< replayed in order, cyclically
};

struct Plan {
  std::vector<std::vector<StepIndex>> resident;  ///< per context, seed order
  std::vector<StreamPlan> streams;
};

constexpr VDuration kThinkNs = 500 * vtime::kMicrosecond;

/// Everything both processes derive from (workload, seed). The daemon
/// process uses only `resident`; the load generator replays `streams`.
Plan makePlan(const Workload& w, std::uint64_t seed) {
  Rng root(seed);
  Plan plan;
  plan.resident.resize(static_cast<std::size_t>(w.contexts));
  const std::string name = w.name;
  for (int c = 0; c < w.contexts; ++c) {
    Rng rng = root.split();
    auto& resident = plan.resident[static_cast<std::size_t>(c)];
    StreamPlan s;
    s.ctx = c;
    if (name == "hit_flood") {
      constexpr StepIndex kResident = 256;
      for (StepIndex i = 0; i < kResident; ++i) resident.push_back(i);
      std::vector<StepIndex> rankToStep = resident;
      rng.shuffle(rankToStep);
      const ZipfSampler zipf(kResident, 0.9);
      s.steps.resize(1 << 16);
      for (auto& step : s.steps) step = rankToStep[zipf.sample(rng)];
      s.window = 16;
      plan.streams.push_back(std::move(s));
    } else if (name == "sweep_prefetch") {
      trace::PatternWorkload p;
      p.timelineSteps = kTimeline;
      p.numTraces = 200;
      s.steps = trace::makeConcatenatedPattern(rng, trace::PatternKind::kForward, p);
      s.thinkNs = kThinkNs;
      plan.streams.push_back(std::move(s));
    } else if (name == "zipf_miss") {
      trace::EcmwfParams e;
      e.distinctFiles = 1024;
      e.totalAccesses = 64000;
      e.burstProbability = 0.35;
      const auto t = trace::makeEcmwfLikeTrace(rng, e, kTimeline);
      // The first kHistory accesses stand for the analysis' past: their
      // most recent distinct steps, up to the cache size, start resident.
      constexpr std::size_t kHistory = 4000;
      std::vector<bool> seen(static_cast<std::size_t>(kTimeline), false);
      for (std::size_t i = kHistory; i-- > 0 &&
                                     resident.size() <
                                         static_cast<std::size_t>(w.cacheSteps);) {
        if (!seen[static_cast<std::size_t>(t[i])]) {
          seen[static_cast<std::size_t>(t[i])] = true;
          resident.push_back(t[i]);
        }
      }
      std::reverse(resident.begin(), resident.end());
      s.steps.assign(t.begin() + kHistory, t.end());
      s.thinkNs = kThinkNs;
      plan.streams.push_back(std::move(s));
    } else {  // mixed_rw
      // The readers' hot set sits at the top of the timeline; the sweep
      // stays below it, so re-simulation never rewrites a hot step.
      constexpr StepIndex kHot = 32;
      for (StepIndex i = kTimeline - kHot; i < kTimeline; ++i) {
        resident.push_back(i);
      }
      StreamPlan reader = s;
      reader.posix = true;
      reader.thinkNs = kThinkNs;
      reader.steps.resize(1 << 16);
      for (auto& step : reader.steps) {
        step = resident[static_cast<std::size_t>(rng.uniformInt(0, kHot - 1))];
      }
      trace::PatternWorkload p;
      p.timelineSteps = kTimeline - 512;
      p.numTraces = 200;
      s.steps = trace::makeConcatenatedPattern(rng, trace::PatternKind::kBackward, p);
      s.thinkNs = kThinkNs;
      plan.streams.push_back(std::move(reader));
      plan.streams.push_back(std::move(s));
    }
  }
  return plan;
}

// -------------------------------------------------------------- payload

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The producer's deterministic output step content, seeded by
/// (context, step): a re-simulation reproduces it bit for bit.
void fillPayload(int ctx, StepIndex step, char* out, std::size_t n) {
  std::uint64_t s = (static_cast<std::uint64_t>(ctx + 1) << 40) ^
                    static_cast<std::uint64_t>(step);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = splitmix(s);
    std::memcpy(out + i, &v, 8);
  }
  if (i < n) {
    const std::uint64_t v = splitmix(s);
    std::memcpy(out + i, &v, n - i);
  }
}

// ------------------------------------------------------------ span file

constexpr std::uint64_t kHostIdBase = 1ULL << 40;

struct SpanRec {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int ctx = -1;
  StepIndex step = -1;
};

void writeSpan(std::FILE* f, const char* name, std::uint64_t id,
               std::uint64_t parent, std::int64_t start, std::int64_t end,
               int ctx, StepIndex step) {
  std::fprintf(f,
               "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
               ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
               ",\"context\":\"ctx%d\",\"step\":%" PRId64 "}\n",
               name, id, parent, start, end, ctx, step);
}

bool parseSpan(const char* line, SpanRec* out) {
  char name[32];
  unsigned long long id = 0;
  unsigned long long parent = 0;
  long long start = 0;
  long long end = 0;
  long long step = 0;
  int ctx = 0;
  if (std::sscanf(line,
                  "{\"name\":\"%31[^\"]\",\"id\":%llu,\"parent\":%llu,"
                  "\"start_ns\":%lld,\"end_ns\":%lld,\"context\":\"ctx%d\","
                  "\"step\":%lld}",
                  name, &id, &parent, &start, &end, &ctx, &step) != 7) {
    return false;
  }
  *out = SpanRec{name, id, parent, start, end, ctx, step};
  return true;
}

// ==================================================== daemon host process

/// Host-side span recorder: the launcher and store decorators report into
/// it; spans are kept in memory and written once at shutdown.
class HostRecorder {
 public:
  explicit HostRecorder(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  void launched(SimJobId id, int ctx, StepIndex start, StepIndex stop,
                std::int64_t t0, std::int64_t t1, std::uint64_t active) {
    std::lock_guard lock(mu_);
    byId_[id] = jobs_.size();
    jobs_.push_back(Job{ctx, start, stop, t0, t1, t1, active, false});
  }

  /// Binds the calling job thread to the earliest unclaimed launch of the
  /// same (context, range); -1 while the launch is not recorded yet.
  std::int64_t claim(int ctx, StepIndex start, StepIndex stop) {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Job& j = jobs_[i];
      if (!j.claimed && j.ctx == ctx && j.start == start && j.stop == stop) {
        j.claimed = true;
        return static_cast<std::int64_t>(i);
      }
    }
    return -1;
  }

  void killed(SimJobId id, std::int64_t t0, std::int64_t t1) {
    std::lock_guard lock(mu_);
    const auto it = byId_.find(id);
    if (it == byId_.end()) return;
    Job& j = jobs_[it->second];
    j.end = std::max(j.end, t1);
    j.claimed = true;  // a relaunch of the same range must not bind to it
    spans_.push_back({kKill, static_cast<std::int64_t>(it->second), j.ctx,
                      j.start, t0, t1});
  }

  void put(std::int64_t job, int ctx, StepIndex step, std::int64_t t0,
           std::int64_t t1) {
    std::lock_guard lock(mu_);
    if (job >= 0) {
      Job& j = jobs_[static_cast<std::size_t>(job)];
      j.end = std::max(j.end, t1);
    }
    spans_.push_back({kPut, job, ctx, step, t0, t1});
  }

  void removed(int ctx, StepIndex step, std::int64_t t0, std::int64_t t1) {
    std::lock_guard lock(mu_);
    spans_.push_back({kRemove, -1, ctx, step, t0, t1});
  }

  /// Span ids: job i is kHostIdBase + 2i, its launch call 2i + 1, and the
  /// put/kill/remove spans follow. A job span's `step` is its first step;
  /// its launch span's `step` is the number of jobs active after launch.
  bool dump(const std::string& path) {
    std::lock_guard lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      const std::uint64_t id = kHostIdBase + 2 * i;
      writeSpan(f, "sim.job", id, 0, j.t0, j.end, j.ctx, j.start);
      writeSpan(f, "sim.launch", id + 1, id, j.t0, j.t1, j.ctx,
                static_cast<StepIndex>(j.active));
    }
    std::uint64_t next = kHostIdBase + 2 * jobs_.size();
    static constexpr const char* kNames[] = {"sim.kill", "vfs.put",
                                             "vfs.remove"};
    for (const Span& s : spans_) {
      const std::uint64_t parent =
          s.job >= 0 ? kHostIdBase + 2 * static_cast<std::uint64_t>(s.job) : 0;
      writeSpan(f, kNames[s.kind], next++, parent, s.t0, s.t1, s.ctx, s.step);
    }
    return std::fclose(f) == 0;
  }

 private:
  enum Kind : int { kKill = 0, kPut = 1, kRemove = 2 };
  struct Job {
    int ctx;
    StepIndex start;
    StepIndex stop;
    std::int64_t t0;  ///< launch() entry
    std::int64_t t1;  ///< launch() return
    std::int64_t end;  ///< last put or kill
    std::uint64_t active;
    bool claimed;
  };
  struct Span {
    int kind;
    std::int64_t job;
    int ctx;
    StepIndex step;
    std::int64_t t0;
    std::int64_t t1;
  };

  const bool on_;
  std::mutex mu_;
  std::vector<Job> jobs_;
  std::unordered_map<SimJobId, std::size_t> byId_;
  std::vector<Span> spans_;
};

/// The job a simulator thread is producing for (fleet jobs run one thread
/// each, so the producer can bind it on the thread's first output step).
thread_local std::int64_t tlsJob = -1;

bool parseStoreName(const std::string& name, int* ctx, StepIndex* step) {
  long long s = 0;
  if (std::sscanf(name.c_str(), "ctx%d_out_%lld", ctx, &s) != 2) return false;
  *step = s;
  return true;
}

/// Timing decorator over DiskFileStore that never creates a file while
/// serving. Creating an inode took 0.1-0.5 ms on the ext4 volume of the
/// 4-core VM this benchmark was calibrated on, drifting by 4x within a
/// minute, so file creation would dominate and destabilize every
/// write-heavy number. Instead the store cycles a pool of spare files:
///   - a put writes the content into a spare through DiskFileStore::put
///     and swaps it into place with one RENAME_EXCHANGE, so a reader of a
///     step that a re-simulation rewrites sees the old file or the new
///     one, never a truncated one; the replaced inode becomes a spare;
///   - a remove renames the file back to a spare name.
/// Spares come from `pool` (a directory outside the run, filled before
/// set-up and refilled at shutdown), so neither set-up nor the timed phase
/// pays for inode creation once the pool is large enough.
class BenchStore final : public vfs::FileStore {
 public:
  BenchStore(const std::string& root, std::string pool, HostRecorder& rec)
      : disk_(root), pool_(std::move(pool)), rec_(rec) {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(pool_, ec)) {
      pooled_.push_back(e.path().filename().string());
    }
  }

  [[nodiscard]] Status put(const std::string& name,
                           std::string content) override {
    const std::int64_t t0 = nowNs();
    const std::string spare = takeSpare();
    Status st = disk_.put(spare, std::move(content));
    if (st.isOk()) {
      std::lock_guard lock(mu_);
      const std::string from = path(spare);
      const std::string to = path(name);
      if (::renameat2(AT_FDCWD, from.c_str(), AT_FDCWD, to.c_str(),
                      RENAME_EXCHANGE) == 0) {
        spares_.push_back(spare);
      } else if (errno != ENOENT || ::rename(from.c_str(), to.c_str()) != 0) {
        st = errIoError("bench store: cannot publish " + name);
      }
      ++puts_[name];
    }
    if (rec_.on()) {
      int ctx = -1;
      StepIndex step = -1;
      (void)parseStoreName(name, &ctx, &step);
      rec_.put(tlsJob, ctx, step, t0, nowNs());
    }
    return st;
  }

  [[nodiscard]] Status remove(const std::string& name) override {
    const std::int64_t t0 = nowNs();
    std::lock_guard lock(mu_);
    return removeLocked(name, t0);
  }

  /// Puts of `name` completed so far.
  [[nodiscard]] std::uint64_t putsOf(const std::string& name) {
    std::lock_guard lock(mu_);
    return puts_[name];
  }

  /// Removes `name` unless a put landed since putsOf() returned `puts`.
  void removeIfUnchanged(const std::string& name, std::uint64_t puts) {
    const std::int64_t t0 = nowNs();
    std::lock_guard lock(mu_);
    if (puts_[name] == puts) (void)removeLocked(name, t0);
  }

  /// Hands every file of the store back to the pool (shutdown).
  void returnToPool() {
    std::lock_guard lock(mu_);
    std::error_code ec;
    std::uint64_t n = 0;
    const std::string tag = std::to_string(::getpid());
    for (const auto& e : fs::directory_iterator(disk_.root(), ec)) {
      (void)::rename(e.path().c_str(),
                     (pool_ + "/" + tag + "-" + std::to_string(n++)).c_str());
    }
  }

  [[nodiscard]] Result<std::string> read(const std::string& name) const override {
    return disk_.read(name);
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return disk_.exists(name);
  }
  [[nodiscard]] Result<vfs::FileInfo> stat(const std::string& name) const override {
    return disk_.stat(name);
  }
  [[nodiscard]] std::vector<std::string> list() const override {
    return disk_.list();
  }
  [[nodiscard]] Bytes totalBytes() const override { return disk_.totalBytes(); }

 private:
  [[nodiscard]] std::string path(const std::string& name) const {
    return disk_.root() + "/" + name;
  }

  /// A spare's name: an existing file when the store or the pool has one,
  /// else a fresh name that DiskFileStore::put will create.
  std::string takeSpare() {
    std::lock_guard lock(mu_);
    if (!spares_.empty()) {
      std::string s = std::move(spares_.back());
      spares_.pop_back();
      return s;
    }
    std::string s = "spare" + std::to_string(nextSpare_++);
    while (!pooled_.empty()) {
      const std::string from = pool_ + "/" + pooled_.back();
      pooled_.pop_back();
      if (::rename(from.c_str(), path(s).c_str()) == 0) break;
    }
    return s;
  }

  Status removeLocked(const std::string& name, std::int64_t t0) {
    const std::string spare = "spare" + std::to_string(nextSpare_++);
    Status st = Status::ok();
    if (::rename(path(name).c_str(), path(spare).c_str()) == 0) {
      spares_.push_back(spare);
    } else {
      st = errNotFound("bench store: no file " + name);
    }
    if (rec_.on()) {
      int ctx = -1;
      StepIndex step = -1;
      (void)parseStoreName(name, &ctx, &step);
      rec_.removed(ctx, step, t0, nowNs());
    }
    return st;
  }

  vfs::DiskFileStore disk_;
  const std::string pool_;
  HostRecorder& rec_;
  std::mutex mu_;  ///< guards everything below and every rename
  std::unordered_map<std::string, std::uint64_t> puts_;
  std::vector<std::string> spares_;
  std::vector<std::string> pooled_;
  std::uint64_t nextSpare_ = 0;
};

/// The eviction sink: removes evicted steps from the store off the shard
/// lock, once that is safe. Removing inside the callback races a
/// re-simulation that rewrites the step: its put lands, the eviction
/// removes the new file, then the put's file-written event marks the step
/// available again and readers find no file. So an eviction is checked
/// again after a grace period longer than any event's queueing delay: the
/// file goes only if the step is still not available and no put landed
/// since the eviction.
class EvictionReaper {
 public:
  EvictionReaper(BenchStore& store, const dv::Daemon& daemon)
      : store_(store), daemon_(daemon), thread_([this] { loop(); }) {}
  ~EvictionReaper() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  EvictionReaper(const EvictionReaper&) = delete;
  EvictionReaper& operator=(const EvictionReaper&) = delete;

  /// Eviction callback; runs under the owning shard's lock.
  void evicted(const std::string& context, const std::string& file) {
    Entry e{context, file, store_.putsOf(file), nowNs() + kGraceNs};
    std::lock_guard lock(mu_);
    pending_.push_back(std::move(e));
    cv_.notify_one();
  }

 private:
  static constexpr std::int64_t kGraceNs = 200 * vtime::kMillisecond;

  struct Entry {
    std::string context;
    std::string file;
    std::uint64_t puts;
    std::int64_t due;
  };

  void loop() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
      const std::int64_t wait = pending_.front().due - nowNs();
      if (wait > 0) {
        cv_.wait_for(lock, std::chrono::nanoseconds(wait), [this] { return stop_; });
        continue;
      }
      const Entry e = std::move(pending_.front());
      pending_.pop_front();
      lock.unlock();
      int ctx = -1;
      StepIndex step = -1;
      if (parseStoreName(e.file, &ctx, &step) &&
          !daemon_.isAvailable(e.context, step)) {
        store_.removeIfUnchanged(e.file, e.puts);
      }
      lock.lock();
    }
  }

  BenchStore& store_;
  const dv::Daemon& daemon_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> pending_;
  bool stop_ = false;
  std::thread thread_;
};

/// Timing decorator over the fleet's SimLauncher seam. launch() runs on a
/// daemon worker under the owning shard's lock, so its duration is time
/// the shard is held.
class TimedLauncher final : public dv::SimLauncher {
 public:
  TimedLauncher(simulator::ThreadedSimulatorFleet& fleet, HostRecorder& rec)
      : fleet_(fleet), rec_(rec) {}

  void launch(SimJobId job, const simmodel::JobSpec& spec) override {
    const std::int64_t t0 = nowNs();
    fleet_.launch(job, spec);
    if (rec_.on()) {
      const std::int64_t t1 = nowNs();
      rec_.launched(job, contextIndex(spec.context), spec.startStep,
                    spec.stopStep, t0, t1, fleet_.activeJobs());
    }
  }

  void kill(SimJobId job) override {
    const std::int64_t t0 = nowNs();
    fleet_.kill(job);
    if (rec_.on()) rec_.killed(job, t0, nowNs());
  }

 private:
  simulator::ThreadedSimulatorFleet& fleet_;
  HostRecorder& rec_;
};

struct ServeArgs {
  std::string workload;
  std::uint64_t seed = 0;
  std::string dir;
  std::string pool;
  int contexts = 0;  ///< 0 = all of the workload's contexts
  bool trace = false;
  pid_t parent = 0;
};

/// --serve: the daemon host. Prints "ready" once the socket listens and
/// shuts down on "stop" (or EOF) on standard input.
int serveMain(const ServeArgs& a) {
  // Die with the load generator, whatever way it goes.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != a.parent) return 1;
  ::signal(SIGPIPE, SIG_IGN);

  const Workload* w = findWorkload(a.workload);
  if (w == nullptr) return 1;
  const Plan plan = makePlan(*w, a.seed);
  const int contexts = a.contexts > 0 ? std::min(a.contexts, w->contexts)
                                      : w->contexts;

  HostRecorder rec(a.trace);
  BenchStore store(a.dir + "/store", a.pool, rec);
  dv::Daemon::Options options;
  options.shards = kShards;
  options.workers = kWorkers;
  auto daemon = std::make_unique<dv::Daemon>(options);
  auto fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
      *daemon, store, /*timeScale=*/1.0);
  const Bytes stepBytes = w->stepBytes;
  fleet->setProducer([&rec, stepBytes](const simmodel::JobSpec& spec,
                                       StepIndex step) {
    const int ctx = contextIndex(spec.context);
    if (rec.on() && tlsJob < 0) {
      tlsJob = rec.claim(ctx, spec.startStep, spec.stopStep);
    }
    std::string out(stepBytes, '\0');
    fillPayload(ctx, step, out.data(), out.size());
    return out;
  });
  TimedLauncher launcher(*fleet, rec);
  std::string payload(stepBytes, '\0');
  for (int c = 0; c < contexts; ++c) {
    const auto cfg = contextConfig(*w, c);
    if (!daemon->registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
             .isOk()) {
      return 1;
    }
    fleet->registerContext(cfg);
  }
  daemon->setLauncher(&launcher);
  auto reaper = std::make_unique<EvictionReaper>(store, *daemon);
  daemon->setEvictFn([&reaper](const std::string& context, const std::string& file) {
    reaper->evicted(context, file);
  });
  for (int c = 0; c < contexts; ++c) {
    const auto cfg = contextConfig(*w, c);
    for (const StepIndex step : plan.resident[static_cast<std::size_t>(c)]) {
      fillPayload(c, step, payload.data(), payload.size());
      if (!store.put(cfg.codec.outputFile(step), payload).isOk() ||
          !daemon->seedAvailableStep(cfg.name, step).isOk()) {
        return 1;
      }
    }
  }
  if (!daemon->listen(a.dir + "/d.sock").isOk()) return 1;
  std::printf("ready\n");
  std::fflush(stdout);

  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "stop", 4) == 0) break;
  }
  // The fleet detaches from the daemon and kills its jobs first, so no
  // launch can reach the decorator once it is gone.
  fleet.reset();
  daemon->stop();
  reaper.reset();
  daemon.reset();
  store.returnToPool();
  if (a.trace && !rec.dump(a.dir + "/host_spans.jsonl")) return 1;
  std::printf("bye\n");
  std::fflush(stdout);
  return 0;
}

// ================================================== load generator process

std::string gSelfExe;
std::atomic<pid_t> gChild{-1};
std::string gRunDir;  ///< removed on every exit path

void killChild() {
  const pid_t pid = gChild.exchange(-1);
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

/// Hard failure after setup: no result line, child gone, run directory removed.
[[noreturn]] void abortRun(const std::string& why) {
  std::fprintf(stderr, "simfs_bench: FAILED: %s\n", why.c_str());
  std::fflush(stderr);
  killChild();
  std::error_code ec;
  if (!gRunDir.empty()) fs::remove_all(gRunDir, ec);
  std::fflush(stdout);
  ::_exit(3);
}

/// Spare files shared by every run in this working directory (see
/// BenchStore); kept between runs so only the first one creates them.
constexpr const char* kPoolDir = ".bench_run/pool";
constexpr std::size_t kPoolFiles = 2560;

/// Tops the pool up to kPoolFiles files, outside any timed section.
void fillPool() {
  std::error_code ec;
  fs::create_directories(kPoolDir, ec);
  std::size_t have = 0;
  for (auto it = fs::directory_iterator(kPoolDir, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    ++have;
  }
  const std::string tag = std::string(kPoolDir) + "/fill-" + std::to_string(::getpid()) + "-";
  for (std::size_t i = have; i < kPoolFiles; ++i) {
    const int fd = ::open((tag + std::to_string(i)).c_str(),
                          O_CREAT | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) abortRun("cannot fill the spare-file pool");
    ::close(fd);
  }
}

/// The --serve child. Talks over two pipes: "ready"/"bye" out, "stop" in.
class DaemonProc {
 public:
  DaemonProc() = default;
  ~DaemonProc() { kill(); }
  DaemonProc(const DaemonProc&) = delete;
  DaemonProc& operator=(const DaemonProc&) = delete;

  void spawn(const std::vector<std::string>& args) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      abortRun("pipe failed");
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addclosefrom_np(&fa, 3);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(gSelfExe.c_str()));
    for (const auto& s : args) argv.push_back(const_cast<char*>(s.c_str()));
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, gSelfExe.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(in[0]);
    ::close(out[1]);
    if (rc != 0) abortRun("spawn of the daemon process failed");
    pid_ = pid;
    gChild.store(pid);
    in_ = in[1];
    out_ = out[0];
  }

  /// Waits for `want` as the next line from the child.
  bool awaitLine(const char* want, int timeoutMs) {
    const std::int64_t deadline = nowNs() + timeoutMs * vtime::kMillisecond;
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line == want;
      }
      const std::int64_t left = deadline - nowNs();
      if (left <= 0) return false;
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left / vtime::kMillisecond) + 1) <= 0) {
        continue;
      }
      char chunk[256];
      const ssize_t n = ::read(out_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Orderly shutdown; SIGKILL when the child does not answer in time.
  bool stop() {
    if (pid_ < 0) return true;
    const bool ok = ::write(in_, "stop\n", 5) == 5 && awaitLine("bye", 20000);
    if (!ok) {
      kill();
      return false;
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    gChild.store(-1);
    pid_ = -1;
    closeFds();
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  void kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    gChild.store(-1);
    pid_ = -1;
    closeFds();
  }

 private:
  void closeFds() {
    if (in_ >= 0) ::close(in_);
    if (out_ >= 0) ::close(out_);
    in_ = out_ = -1;
  }

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buf_;
};

/// A raw introspection connection: kPing, kStatusReq, kShardStatsReq.
class ControlLink {
 public:
  explicit ControlLink(const std::string& socketPath) {
    auto conn = msg::unixSocketConnect(socketPath);
    if (!conn) abortRun("control connect: " + conn.status().toString());
    transport_ = std::move(*conn);
    transport_->setHandler([this](msg::Message&& m) {
      std::lock_guard lock(mu_);
      replies_[m.requestId] = std::move(m);
      cv_.notify_all();
    });
  }
  ~ControlLink() { transport_->close(); }
  ControlLink(const ControlLink&) = delete;
  ControlLink& operator=(const ControlLink&) = delete;

  msg::Message call(msg::MsgType type) {
    msg::Message req;
    req.type = type;
    req.requestId = next_++;
    if (!transport_->send(req).isOk()) abortRun("control send failed");
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(10),
                      [&] { return replies_.count(req.requestId) > 0; })) {
      lock.unlock();
      abortRun("daemon did not answer an introspection request");
    }
    msg::Message reply = std::move(replies_[req.requestId]);
    replies_.erase(req.requestId);
    return reply;
  }

 private:
  std::unique_ptr<msg::Transport> transport_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, msg::Message> replies_;
  std::uint64_t next_ = 1;
};

/// The daemon's "key=value;..." introspection text.
std::map<std::string, std::string> parseKv(std::string_view text) {
  std::map<std::string, std::string> kv;
  for (const auto& item : str::split(text, ';')) {
    const auto eq = item.find('=');
    if (eq != std::string::npos) kv.emplace(item.substr(0, eq), item.substr(eq + 1));
  }
  return kv;
}

double kvNum(const std::map<std::string, std::string>& kv, const char* key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// Daemon counters at one instant: kStatusReq plus kShardStatsReq summed
/// over shards (max_batch is the max).
struct Counters {
  std::map<std::string, std::string> status;
  double served = 0, batches = 0, maxBatch = 0, shed = 0;
  std::string reactor;
};

Counters sampleCounters(ControlLink& link) {
  Counters c;
  c.status = parseKv(link.call(msg::MsgType::kStatusReq).text);
  const msg::Message s = link.call(msg::MsgType::kShardStatsReq);
  c.reactor = parseKv(s.text)["reactor"];
  for (const auto& shard : s.files) {
    const auto kv = parseKv(shard);
    c.served += kvNum(kv, "served");
    c.batches += kvNum(kv, "batches");
    c.shed += kvNum(kv, "shed");
    c.maxBatch = std::max(c.maxBatch, kvNum(kv, "max_batch"));
  }
  return c;
}

double delta(const Counters& a, const Counters& b, const char* key) {
  return kvNum(b.status, key) - kvNum(a.status, key);
}

// --------------------------------------------------------- client streams

enum Phase : int { kIdle = 0, kIssue, kAck, kWait, kRead, kClose };
constexpr const char* kPhaseNames[] = {"idle", "issue", "ack", "wait", "read",
                                       "close"};

/// One access. Offsets are ns after `start`; all but ttd and waitEnd are
/// taken only in traced runs.
struct AccessRec {
  std::int64_t start = 0;
  std::int64_t ttd = 0;        ///< start -> bytes in memory
  std::uint32_t waitEnd = 0;   ///< wait()/waitReady() returned
  std::uint32_t issueEnd = 0;  ///< acquireAsync()/open() returned
  std::uint32_t ackStart = 0;
  std::uint32_t ackEnd = 0;
  std::uint32_t closeEnd = 0;
  std::uint32_t completed = 0;  ///< handle completion callback (0 = none)
  std::int32_t step = 0;
  std::uint8_t ctx = 0;
  bool hit = false;
  bool posix = false;
  bool ok = false;
};

std::uint32_t clampU32(std::int64_t v) {
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(v, 0, std::numeric_limits<std::uint32_t>::max()));
}

struct Target {
  std::string socket;
  std::string storeDir;
  const Workload* w = nullptr;
  /// Per context, per step: store file name and its path.
  std::vector<std::vector<std::string>> names;
  std::vector<std::vector<std::string>> paths;
};

Target makeTarget(const Workload& w, const std::string& dir) {
  Target t;
  t.socket = dir + "/d.sock";
  t.storeDir = dir + "/store";
  t.w = &w;
  for (int c = 0; c < w.contexts; ++c) {
    const auto cfg = contextConfig(w, c);
    t.names.emplace_back();
    t.paths.emplace_back();
    for (StepIndex s = 0; s < kTimeline; ++s) {
      t.names.back().push_back(cfg.codec.outputFile(s));
      t.paths.back().push_back(t.storeDir + "/" + t.names.back().back());
    }
  }
  return t;
}

/// Reads a whole store file into `buf`; returns the byte count or -1.
std::int64_t readStoreFile(const std::string& path, std::vector<char>& buf) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  std::size_t got = 0;
  for (;;) {
    if (got == buf.size()) buf.resize(buf.size() * 2);
    const ssize_t n = ::pread(fd, buf.data() + got, buf.size() - got,
                              static_cast<off_t>(got));
    if (n < 0) {
      ::close(fd);
      return -1;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return static_cast<std::int64_t>(got);
}

/// One client thread: its connection, its records and what the watchdog
/// reads while it runs.
class Stream {
 public:
  Stream(const StreamPlan& plan, const Target& target, bool trace)
      : plan_(plan), target_(target), trace_(trace) {}

  void connect() {
    const std::string ctx = contextName(plan_.ctx);
    if (plan_.posix) {
      vfs_ = std::make_unique<posix::PosixVfs>(
          posix::PosixVfs::socketOptions(target_.socket));
      // The Session behind a PosixVfs dials on first open: one warm-up
      // read of a resident step connects it.
      auto opened = vfs_->open(ctx, target_.names[static_cast<std::size_t>(plan_.ctx)]
                                                 [static_cast<std::size_t>(plan_.steps[0])]);
      if (!opened || !vfs_->waitReady(opened->id).isOk()) {
        abortRun("posix reader could not connect");
      }
      vfs_->close(opened->id);
      return;
    }
    auto conn = msg::unixSocketConnect(target_.socket);
    if (!conn) abortRun("connect: " + conn.status().toString());
    auto session = dvlib::Session::connect(std::move(*conn), ctx);
    if (!session) abortRun("session: " + session.status().toString());
    session_ = std::move(*session);
  }

  void disconnect() {
    if (session_) session_->finalize();
    session_.reset();
    vfs_.reset();
  }

  /// Closed loop until `stopIssueNs`, then drains what is in flight.
  void run(std::int64_t stopIssueNs) {
    recs_.clear();
    recs_.reserve(1 << 16);
    buf_.resize(static_cast<std::size_t>(target_.w->stepBytes) * 2);
    expect_.resize(static_cast<std::size_t>(target_.w->stepBytes));
    cursor_ = 0;
    if (plan_.posix) {
      while (nowNs() < stopIssueNs) {
        posixAccess();
        if (plan_.thinkNs > 0) sleepNs(plan_.thinkNs);
      }
    } else {
      std::deque<InFlight> inflight;
      for (;;) {
        while (static_cast<int>(inflight.size()) < plan_.window &&
               nowNs() < stopIssueNs) {
          inflight.push_back(issue());
        }
        if (inflight.empty()) break;
        complete(inflight.front());
        inflight.pop_front();
        if (plan_.thinkNs > 0) sleepNs(plan_.thinkNs);
      }
    }
    phase_.store(kIdle);
  }

  void moveRecordsTo(std::vector<AccessRec>& out) {
    out.insert(out.end(), recs_.begin(), recs_.end());
    std::vector<AccessRec>().swap(recs_);
  }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

  /// For the watchdog: what this thread is blocked on, and since when.
  [[nodiscard]] std::string describe() const {
    char line[160];
    std::snprintf(line, sizeof(line), "%s ctx%d step %" PRId64 " phase %s for %.1f s",
                  plan_.posix ? "posix" : "session", plan_.ctx,
                  curStep_.load(), kPhaseNames[phase_.load()],
                  static_cast<double>(nowNs() - since_.load()) / 1e9);
    return line;
  }
  [[nodiscard]] std::int64_t busyForNs() const {
    return phase_.load() == kIdle ? 0 : nowNs() - since_.load();
  }

 private:
  struct InFlight {
    dvlib::AcquireHandle handle;
    AccessRec rec;
    std::shared_ptr<std::atomic<std::int64_t>> completed;
  };

  void enter(Phase p, StepIndex step) {
    curStep_.store(step, std::memory_order_relaxed);
    since_.store(nowNs(), std::memory_order_relaxed);
    phase_.store(p, std::memory_order_relaxed);
  }

  StepIndex nextStep() {
    const StepIndex s = plan_.steps[cursor_];
    cursor_ = (cursor_ + 1) % plan_.steps.size();
    return s;
  }

  const std::string& name(StepIndex s) const {
    return target_.names[static_cast<std::size_t>(plan_.ctx)][static_cast<std::size_t>(s)];
  }
  const std::string& path(StepIndex s) const {
    return target_.paths[static_cast<std::size_t>(plan_.ctx)][static_cast<std::size_t>(s)];
  }

  InFlight issue() {
    InFlight f;
    f.rec.step = static_cast<std::int32_t>(nextStep());
    f.rec.ctx = static_cast<std::uint8_t>(plan_.ctx);
    enter(kIssue, f.rec.step);
    f.rec.start = nowNs();
    f.handle = session_->acquireAsync(std::span<const std::string>(&name(f.rec.step), 1));
    if (trace_) {
      f.rec.issueEnd = clampU32(nowNs() - f.rec.start);
      f.completed = std::make_shared<std::atomic<std::int64_t>>(0);
      f.handle.then([c = f.completed](const Status&) { c->store(nowNs()); });
    }
    return f;
  }

  void complete(InFlight& f) {
    AccessRec& r = f.rec;
    enter(kAck, r.step);
    if (trace_) r.ackStart = clampU32(nowNs() - r.start);
    Status st = f.handle.waitAck(nullptr);
    r.hit = st.isOk() && f.handle.probe(0).available;
    if (trace_) r.ackEnd = clampU32(nowNs() - r.start);
    enter(kWait, r.step);
    if (st.isOk()) {
      const std::int64_t left = r.start + kAccessDeadlineNs - nowNs();
      st = f.handle.wait(nullptr, std::max<std::int64_t>(left, 1));
    }
    r.waitEnd = clampU32(nowNs() - r.start);
    if (!st.isOk()) {
      fail(r, "wait: " + st.toString());
      (void)f.handle.cancel();
      return;
    }
    enter(kRead, r.step);
    const std::int64_t n = readStoreFile(path(r.step), buf_);
    r.ttd = nowNs() - r.start;
    enter(kClose, r.step);
    session_->closeNotify(name(r.step));
    if (trace_) {
      r.closeEnd = clampU32(nowNs() - r.start);
      const std::int64_t c = f.completed->load();
      if (c > r.start) r.completed = clampU32(c - r.start);
    }
    finish(r, n);
  }

  void posixAccess() {
    AccessRec r;
    r.step = static_cast<std::int32_t>(nextStep());
    r.ctx = static_cast<std::uint8_t>(plan_.ctx);
    r.posix = true;
    // The hot set is seeded resident and kept resident by the LRU cache;
    // the run cross-checks that against the daemon's miss count.
    r.hit = true;
    const std::string ctx = contextName(plan_.ctx);
    enter(kIssue, r.step);
    r.start = nowNs();
    auto opened = vfs_->open(ctx, name(r.step));
    if (trace_) r.issueEnd = clampU32(nowNs() - r.start);
    if (!opened) {
      fail(r, "posix open: " + opened.status().toString());
      return;
    }
    enter(kWait, r.step);
    const Status st = vfs_->waitReady(opened->id);
    r.waitEnd = clampU32(nowNs() - r.start);
    if (trace_) r.ackStart = r.ackEnd = r.issueEnd;
    if (!st.isOk()) {
      vfs_->close(opened->id);
      fail(r, "posix wait: " + st.toString());
      return;
    }
    enter(kRead, r.step);
    const std::int64_t n =
        readStoreFile(target_.storeDir + "/" + opened->storeName, buf_);
    r.ttd = nowNs() - r.start;
    enter(kClose, r.step);
    vfs_->close(opened->id);
    if (trace_) r.closeEnd = clampU32(nowNs() - r.start);
    finish(r, n);
  }

  /// Byte verification, after the access was timed.
  void finish(AccessRec& r, std::int64_t n) {
    enter(kIdle, r.step);
    const auto want = static_cast<std::int64_t>(target_.w->stepBytes);
    if (n != want) {
      fail(r, "read " + std::to_string(n) + " bytes, want " + std::to_string(want));
      return;
    }
    fillPayload(plan_.ctx, r.step, expect_.data(), expect_.size());
    if (std::memcmp(buf_.data(), expect_.data(), expect_.size()) != 0) {
      fail(r, "payload mismatch");
      return;
    }
    r.ok = true;
    recs_.push_back(r);
  }

  void fail(AccessRec& r, const std::string& why) {
    enter(kIdle, r.step);
    if (++failures_ <= 5) {
      std::fprintf(stderr, "simfs_bench: access ctx%d step %" PRId64 " failed: %s\n",
                   plan_.ctx, static_cast<std::int64_t>(r.step), why.c_str());
    }
    r.ok = false;
    recs_.push_back(r);
  }

  const StreamPlan& plan_;
  const Target& target_;
  const bool trace_;
  std::shared_ptr<dvlib::Session> session_;
  std::unique_ptr<posix::PosixVfs> vfs_;
  std::vector<AccessRec> recs_;
  std::vector<char> buf_;
  std::vector<char> expect_;
  std::size_t cursor_ = 0;
  std::uint64_t failures_ = 0;
  std::atomic<int> phase_{kIdle};
  std::atomic<StepIndex> curStep_{0};
  std::atomic<std::int64_t> since_{0};
};

/// Fails the run loudly when a stage outlives its deadline or one access
/// stays blocked past the per-access deadline.
class Watchdog {
 public:
  /// No stage outlives `hardCapNs` (steady-clock time).
  explicit Watchdog(std::int64_t hardCapNs)
      : hardCap_(hardCapNs), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::int64_t deadlineNs, std::string stage,
           std::vector<const Stream*> streams = {}) {
    std::lock_guard lock(mu_);
    deadline_ = std::min(deadlineNs, hardCap_);
    stage_ = std::move(stage);
    streams_ = std::move(streams);
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(50));
      if (stop_) return;
      const std::int64_t now = nowNs();
      const Stream* stuck = nullptr;
      for (const Stream* s : streams_) {
        if (s->busyForNs() > kAccessDeadlineNs + 2 * vtime::kSecond) stuck = s;
      }
      if (now < std::min(deadline_, hardCap_) && stuck == nullptr) continue;
      std::fprintf(stderr, "simfs_bench: %s during %s; blocked accesses:\n",
                   stuck != nullptr ? "access deadline expired" : "deadline expired",
                   stage_.c_str());
      for (const Stream* s : streams_) {
        std::fprintf(stderr, "  %s\n", s->describe().c_str());
      }
      abortRun("hang in " + stage_);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::int64_t deadline_ = std::numeric_limits<std::int64_t>::max();
  const std::int64_t hardCap_;
  std::string stage_ = "start";
  std::vector<const Stream*> streams_;
  std::thread thread_;
};

// --------------------------------------------------------------- metrics

struct Tail {
  double value = 0;
  double q = 0;  ///< the quantile actually reported
  std::size_t n = 0;
};

double quantileSorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median and the highest of p99/p90/p50 with at least ten samples
/// beyond it.
std::pair<Tail, Tail> summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double q = n >= 1000 ? 0.99 : n >= 100 ? 0.9 : 0.5;
  return {Tail{quantileSorted(v, 0.5), 0.5, n}, Tail{quantileSorted(v, q), q, n}};
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  double quantile = 0;  ///< 0 for non-percentile metrics
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, double q = 0) {
    items_.push_back({std::move(name), value, std::move(unit), samples, q});
  }

  /// "<prefix>_p50<suffix>" and "<prefix>_p99<suffix>" from one sample set.
  void addTimes(const std::string& prefix, std::vector<double> v,
                const std::string& unit, bool withTail = true) {
    const auto [mid, tail] = summarize(std::move(v));
    add(prefix + "_p50_" + unit, mid.value, unit, mid.n, 0.5);
    if (withTail) add(prefix + "_p99_" + unit, tail.value, unit, tail.n, tail.q);
  }

  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }

 private:
  std::vector<Metric> items_;
};

struct PhaseResult {
  std::vector<AccessRec> recs;
  std::int64_t t0 = 0;        ///< phase start (warm-up begins)
  std::int64_t tMeasure = 0;  ///< warm-up over, measurement begins
  std::int64_t tStop = 0;     ///< no access is issued after this
  std::int64_t tEnd = 0;      ///< last in-flight access drained
  double cpuSeconds = 0;      ///< both processes, tMeasure..tStop
  std::uint64_t failed = 0;
  Counters before;
  Counters after;
  std::vector<double> pingUs;
  std::vector<SpanRec> host;
};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Accesses issued after the warm-up and before the stop.
bool measured(const PhaseResult& p, const AccessRec& r) {
  return r.ok && r.start >= p.tMeasure && r.start < p.tStop;
}

/// The measured period cut into one-second windows.
struct Windows {
  std::int64_t count;
  std::int64_t width;
  explicit Windows(const PhaseResult& p)
      : count(std::max<std::int64_t>(1, (p.tStop - p.tMeasure) / vtime::kSecond)),
        width((p.tStop - p.tMeasure) / count) {}
};

/// Completions per second: the mean over the middle half of the windows
/// ranked by count, so a stall of the shared host in a few of them moves
/// it less than a plain mean would.
double throughputOf(const PhaseResult& p) {
  const Windows win(p);
  std::vector<double> counts(static_cast<std::size_t>(win.count), 0);
  for (const auto& r : p.recs) {
    const std::int64_t done = r.start + r.ttd;
    if (r.ok && done >= p.tMeasure && done < p.tStop) {
      ++counts[static_cast<std::size_t>((done - p.tMeasure) / win.width)];
    }
  }
  std::sort(counts.begin(), counts.end());
  const std::size_t lo = counts.size() / 4;
  const std::size_t hi = counts.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += counts[i];
  return sum / static_cast<double>(hi - lo) * 1e9 / static_cast<double>(win.width);
}

/// TTD of one access class: the median over all measured accesses, and
/// the tail of summarize() taken per window and reported as the median
/// across windows when at least half of them hold 1000 samples.
void addTtd(MetricSet& m, const std::string& prefix,
            std::vector<std::vector<double>> byWindow) {
  std::vector<double> all, tails;
  for (auto& w : byWindow) {
    all.insert(all.end(), w.begin(), w.end());
    if (w.size() >= 1000) {
      std::sort(w.begin(), w.end());
      tails.push_back(quantileSorted(w, 0.99));
    }
  }
  auto [mid, tail] = summarize(std::move(all));
  if (!tails.empty() && tails.size() * 2 >= byWindow.size()) {
    std::sort(tails.begin(), tails.end());
    tail.value = quantileSorted(tails, 0.5);
    tail.q = 0.99;
  }
  m.add(prefix + "_p50_us", mid.value, "us", mid.n, 0.5);
  m.add(prefix + "_p99_us", tail.value, "us", tail.n, tail.q);
}

void endToEndMetrics(const PhaseResult& p, MetricSet& m) {
  const Windows win(p);
  const auto n = static_cast<std::size_t>(win.count);
  std::vector<std::vector<double>> all(n), hit(n), miss(n);
  double sum = 0;
  std::size_t samples = 0;
  for (const auto& r : p.recs) {
    if (!measured(p, r)) continue;
    const auto w = static_cast<std::size_t>((r.start - p.tMeasure) / win.width);
    all[w].push_back(us(r.ttd));
    (r.hit ? hit : miss)[w].push_back(us(r.ttd));
    sum += us(r.ttd);
    ++samples;
  }
  const double thr = throughputOf(p);
  m.add("throughput_ops_s", thr, "ops/s", samples);
  m.add("ttd_mean_us", samples == 0 ? 0 : sum / static_cast<double>(samples), "us",
        samples);
  m.add("cpu_us_per_access", thr > 0 ? p.cpuSeconds * 1e6 / (thr * (p.tStop - p.tMeasure) / 1e9) : 0,
        "us");
  addTtd(m, "ttd", std::move(all));
  addTtd(m, "ttd_hit", std::move(hit));
  addTtd(m, "ttd_miss", std::move(miss));
}

/// Host spans whose start falls in the timed phase.
bool inPhase(const PhaseResult& p, std::int64_t t) {
  return t >= p.t0 && t <= p.tEnd;
}

void perLayerMetrics(const PhaseResult& p, const PhaseResult& untraced,
                     const Workload& w, MetricSet& m) {
  // The untraced run's breakdown the layers are read against. Medians
  // and the hit/miss split sit here, not among the end-to-end metrics:
  // on a lightly loaded host a hit's latency is mostly thread wake-ups
  // and shifts run to run with the host's idle state. In a closed loop
  // the mean is throughput seen from the other side.
  {
    MetricSet e2e;
    endToEndMetrics(untraced, e2e);
    for (const char* name : {"ttd_mean_us", "ttd_p50_us", "ttd_hit_p50_us",
                             "ttd_hit_p99_us", "ttd_miss_p50_us", "ttd_miss_p99_us",
                             "cpu_us_per_access"}) {
      m.add(name, e2e.get(name), "us");
    }
    std::size_t done = 0;
    for (const auto& r : untraced.recs) done += r.ok ? 1 : 0;
    m.add("resim_steps_per_access",
          done == 0 ? 0 : delta(untraced.before, untraced.after, "steps") /
                              static_cast<double>(done),
          "ratio", done);
    const double thrU = throughputOf(untraced);
    m.add("trace.overhead_pct",
          thrU > 0 ? 100.0 * (thrU - throughputOf(p)) / thrU : 0, "%");
  }

  // msg / dvlib / posix / vfs read: client-side spans.
  m.addTimes("msg.ping_rtt", p.pingUs, "us");
  std::vector<double> issue, ackRtt, read, popen, pwait, pclose;
  std::size_t reads = 0;
  for (const auto& r : p.recs) {
    if (!r.ok) continue;
    ++reads;
    read.push_back(us(r.ttd - r.waitEnd));
    if (r.posix) {
      popen.push_back(us(r.issueEnd));
      pwait.push_back(us(static_cast<std::int64_t>(r.waitEnd) - r.issueEnd));
      pclose.push_back(us(static_cast<std::int64_t>(r.closeEnd) - r.ttd));
    } else {
      issue.push_back(us(r.issueEnd));
      // A hit's handle completes with its ack: completion - issue is the
      // ack round trip, whatever the window does to the client thread.
      if (r.hit && r.completed > 0) ackRtt.push_back(us(r.completed));
    }
  }
  m.addTimes("dvlib.issue", std::move(issue), "us", false);
  m.addTimes("dvlib.ack_rtt", std::move(ackRtt), "us");
  m.add("dv.queue_service_p50_us",
        m.get("dvlib.ack_rtt_p50_us") - m.get("msg.ping_rtt_p50_us"), "us");
  m.addTimes("vfs.read", std::move(read), "us");
  m.add("vfs.bytes_read", static_cast<double>(reads) * static_cast<double>(w.stepBytes),
        "bytes");
  m.addTimes("posix.open", std::move(popen), "us", false);
  m.addTimes("posix.wait", std::move(pwait), "us", false);
  m.addTimes("posix.close", std::move(pclose), "us", false);

  // dv / cache / prefetch: daemon counter deltas over the phase.
  const double opens = delta(p.before, p.after, "opens");
  m.add("dv.served", p.after.served - p.before.served, "count");
  const double batches = p.after.batches - p.before.batches;
  m.add("dv.batches", batches, "count");
  m.add("dv.mean_batch",
        batches > 0 ? (p.after.served - p.before.served) / batches : 0, "ratio");
  m.add("dv.max_batch", p.after.maxBatch, "count");
  m.add("dv.shed", p.after.shed - p.before.shed, "count");
  m.add("dv.notifications", delta(p.before, p.after, "notifications"), "count");
  m.add("dv.waiters_expired", delta(p.before, p.after, "waiters_expired"), "count");
  m.add("cache.hit_ratio", opens > 0 ? delta(p.before, p.after, "hits") / opens : 0,
        "ratio");
  const double evictions = delta(p.before, p.after, "evictions");
  m.add("cache.evictions", evictions, "count");
  m.add("cache.evictions_per_access",
        reads > 0 ? evictions / static_cast<double>(reads) : 0, "ratio");
  m.add("prefetch.jobs", delta(p.before, p.after, "prefetch"), "count");
  m.add("prefetch.jobs_killed", delta(p.before, p.after, "killed"), "count");
  m.add("prefetch.agent_resets", delta(p.before, p.after, "agent_resets"), "count");

  // sim / vfs write path: the host process' spans.
  std::vector<double> launchCall, firstFile, overhead, put;
  std::map<std::uint64_t, std::int64_t> jobFirstPut;  // job span id -> put end
  std::map<std::uint64_t, std::int64_t> jobStart;
  double launches = 0, kills = 0, puts = 0, removes = 0, activeMax = 0;
  for (const auto& s : p.host) {
    if (s.name == "sim.job") {
      if (inPhase(p, s.start)) jobStart[s.id] = s.start;
    } else if (s.name == "sim.launch") {
      if (!inPhase(p, s.start)) continue;
      ++launches;
      launchCall.push_back(us(s.end - s.start));
      activeMax = std::max(activeMax, static_cast<double>(s.step));
    } else if (s.name == "sim.kill") {
      if (inPhase(p, s.start)) ++kills;
    } else if (s.name == "vfs.put") {
      if (!inPhase(p, s.start)) continue;
      ++puts;
      put.push_back(us(s.end - s.start));
      auto [it, fresh] = jobFirstPut.try_emplace(s.parent, s.end);
      if (!fresh) it->second = std::min(it->second, s.end);
    } else if (s.name == "vfs.remove") {
      if (inPhase(p, s.start)) ++removes;
    }
  }
  for (const auto& [id, t0] : jobStart) {
    const auto it = jobFirstPut.find(id);
    if (it == jobFirstPut.end()) continue;
    firstFile.push_back(static_cast<double>(it->second - t0) / 1e6);
    overhead.push_back(us(it->second - t0 - kAlphaSim - kTauSim));
  }
  m.add("sim.launches", launches, "count");
  m.add("sim.kills", kills, "count");
  m.addTimes("sim.launch_call", std::move(launchCall), "us", false);
  m.addTimes("sim.first_file", std::move(firstFile), "ms", false);
  m.addTimes("sim.overhead", std::move(overhead), "us", false);
  const double span = static_cast<double>(p.tEnd - p.t0) / 1e9;
  m.add("sim.steps_per_s", span > 0 ? puts / span : 0, "steps/s");
  m.add("sim.active_jobs_max", activeMax, "count");
  m.addTimes("vfs.put", std::move(put), "us");
  m.add("vfs.bytes_written", puts * static_cast<double>(w.stepBytes), "bytes");
  m.add("vfs.removes", removes, "count");

  // Produced steps read before their eviction, and store put end ->
  // client wait return for demand misses: host and client events joined
  // by (context, step) on the shared monotonic clock.
  struct Ev {
    std::int64_t t;
    int kind;  // 0 put end, 1 read, 2 remove
  };
  std::map<std::pair<int, StepIndex>, std::vector<Ev>> byStep;
  for (const auto& s : p.host) {
    if (s.name == "vfs.put" && inPhase(p, s.start)) {
      byStep[{s.ctx, s.step}].push_back({s.end, 0});
    } else if (s.name == "vfs.remove" && inPhase(p, s.start)) {
      byStep[{s.ctx, s.step}].push_back({s.end, 2});
    }
  }
  std::vector<double> notify;
  for (const auto& r : p.recs) {
    if (!r.ok) continue;
    const auto it = byStep.find({r.ctx, r.step});
    if (it == byStep.end()) continue;
    const std::int64_t waited = r.start + r.waitEnd;
    if (!r.hit && !r.posix) {
      std::int64_t lastPut = -1;
      for (const Ev& e : it->second) {
        if (e.kind == 0 && e.t <= waited && e.t >= r.start) lastPut = std::max(lastPut, e.t);
      }
      if (lastPut >= 0) notify.push_back(us(waited - lastPut));
    }
    it->second.push_back({r.start + r.ttd, 1});
  }
  m.addTimes("dvlib.notify", std::move(notify), "us");
  double produced = 0, useful = 0;
  for (auto& [key, evs] : byStep) {
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) { return a.t < b.t; });
    bool open = false, used = false;
    for (const Ev& e : evs) {
      if (e.kind == 0) {
        ++produced;
        open = true;
        used = false;
      } else if (e.kind == 1 && open && !used) {
        ++useful;
        used = true;
      } else if (e.kind == 2) {
        open = false;
      }
    }
  }
  m.add("resim.useful_ratio", produced > 0 ? useful / produced : 0, "ratio",
        static_cast<std::size_t>(produced));
}

// ----------------------------------------------------------------- runs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string tracePath;
  std::string outPath;
  bool allowDebug = false;
};

class Bench {
 public:
  Bench(const Options& o, const Workload& w, std::string runDir)
      : o_(o), w_(w), plan_(makePlan(w, o.seed)), runDir_(std::move(runDir)) {}

  /// Spawns the daemon host, waits until it serves, connects every client
  /// stream; returns the elapsed seconds.
  double setup(int index, bool trace, int contexts = 0) {
    streams_.clear();
    dir_ = runDir_ + "/run" + std::to_string(index);
    fs::create_directories(dir_);
    target_ = std::make_unique<Target>(makeTarget(w_, dir_));
    watchdog_.arm(nowNs() + 60 * vtime::kSecond, "setup");
    const std::int64_t t0 = nowNs();
    daemon_.spawn({"--serve", "--workload", w_.name, "--seed",
                   std::to_string(o_.seed), "--dir", dir_, "--pool", kPoolDir, "--contexts",
                   std::to_string(contexts), "--trace", trace ? "1" : "0",
                   "--parent", std::to_string(::getpid())});
    if (!daemon_.awaitLine("ready", 60000)) abortRun("daemon process did not start");
    if (contexts == 0) {
      for (const auto& sp : plan_.streams) {
        streams_.push_back(std::make_unique<Stream>(sp, *target_, trace));
        streams_.back()->connect();
      }
    }
    return static_cast<double>(nowNs() - t0) / 1e9;
  }

  /// Disconnects the clients and stops the daemon host; loads its spans.
  std::vector<SpanRec> teardown(bool trace) {
    for (auto& s : streams_) s->disconnect();
    watchdog_.arm(nowNs() + 30 * vtime::kSecond, "teardown");
    if (!daemon_.stop()) abortRun("daemon process did not shut down cleanly");
    std::vector<SpanRec> host;
    if (trace) {
      std::FILE* f = std::fopen((dir_ + "/host_spans.jsonl").c_str(), "r");
      if (f == nullptr) abortRun("daemon process wrote no spans");
      char line[512];
      SpanRec s;
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (parseSpan(line, &s)) host.push_back(std::move(s));
      }
      std::fclose(f);
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
    return host;
  }

  /// CPU time consumed so far by this process and the daemon host.
  std::int64_t cpuNs() const {
    const auto ns = [](clockid_t id) -> std::int64_t {
      timespec t{};
      if (::clock_gettime(id, &t) != 0) return 0;
      return static_cast<std::int64_t>(t.tv_sec) * vtime::kSecond + t.tv_nsec;
    };
    clockid_t child{};
    const std::int64_t daemon =
        ::clock_getcpuclockid(daemon_.pid(), &child) == 0 ? ns(child) : 0;
    return ns(CLOCK_PROCESS_CPUTIME_ID) + daemon;
  }

  PhaseResult timedPhase(bool trace) {
    PhaseResult p;
    {
      ControlLink link(target_->socket);
      if (trace) {
        for (int i = 0; i < 2000; ++i) {
          const std::int64_t t0 = nowNs();
          (void)link.call(msg::MsgType::kPing);
          p.pingUs.push_back(us(nowNs() - t0));
        }
      }
      p.before = sampleCounters(link);
    }
    p.t0 = nowNs();
    p.tMeasure = p.t0 + kWarmupNs;
    p.tStop = p.tMeasure + static_cast<std::int64_t>(o_.seconds * 1e9);
    std::vector<const Stream*> watched;
    for (const auto& s : streams_) watched.push_back(s.get());
    watchdog_.arm(p.t0 + 3 * (p.tStop - p.t0),
                  std::string("timed phase of ") + w_.name, watched);
    std::vector<std::thread> threads;
    for (auto& s : streams_) {
      threads.emplace_back([&s, stop = p.tStop] { s->run(stop); });
    }
    sleepNs(p.tMeasure - nowNs());
    const std::int64_t cpu0 = cpuNs();
    sleepNs(p.tStop - nowNs());
    p.cpuSeconds = static_cast<double>(cpuNs() - cpu0) / 1e9;
    for (auto& t : threads) t.join();
    p.tEnd = nowNs();
    watchdog_.arm(nowNs() + 30 * vtime::kSecond, "counter sampling");
    {
      ControlLink link(target_->socket);
      p.after = sampleCounters(link);
    }
    for (auto& s : streams_) {
      p.failed += s->failures();
      s->moveRecordsTo(p.recs);
    }
    return p;
  }

  /// Replays a prefix of ctx0's trace on a fresh one-context daemon and
  /// through a single-threaded DataVirtualizer fed by a recording
  /// launcher; the daemon's counters must equal the replay's exactly.
  bool modelCheck(std::uint64_t* attempted, std::uint64_t* failed) {
    (void)setup(100, false, /*contexts=*/1);
    watchdog_.arm(nowNs() + 90 * vtime::kSecond, "model check");
    const StreamPlan& sp = plan_.streams[0];
    const auto cfg = contextConfig(w_, 0);

    struct Recording final : dv::SimLauncher {
      std::vector<std::pair<SimJobId, simmodel::JobSpec>> pending;
      void launch(SimJobId job, const simmodel::JobSpec& spec) override {
        pending.emplace_back(job, spec);
      }
      void kill(SimJobId) override {}
    } launcher;
    ManualClock clock;
    dv::DataVirtualizer model(clock);
    model.setLauncher(&launcher);
    (void)model.registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg));
    for (const StepIndex s : plan_.resident[0]) (void)model.seedAvailableStep(cfg.name, s);
    const ClientId client = model.clientConnect(cfg.name).value();

    auto conn = msg::unixSocketConnect(target_->socket);
    if (!conn) abortRun("model check connect failed");
    auto session = dvlib::Session::connect(std::move(*conn), cfg.name);
    if (!session) abortRun("model check session failed");
    ControlLink link(target_->socket);
    std::vector<char> buf(static_cast<std::size_t>(w_.stepBytes) * 2);
    std::vector<char> expect(static_cast<std::size_t>(w_.stepBytes));
    bool ok = true;
    const std::size_t n = std::min(kModelCheckAccesses, sp.steps.size());
    for (std::size_t i = 0; i < n && ok; ++i) {
      const StepIndex step = sp.steps[i];
      const std::string& file = target_->names[0][static_cast<std::size_t>(step)];
      (void)model.clientOpen(client, file);
      while (!launcher.pending.empty()) {
        const auto job = launcher.pending.back();
        launcher.pending.pop_back();
        model.simulationStarted(job.first);
        for (StepIndex s = job.second.startStep; s <= job.second.stopStep; ++s) {
          model.simulationFileWritten(job.first, cfg.codec.outputFile(s));
        }
        model.simulationFinished(job.first, Status::ok());
      }
      ++*attempted;
      auto h = (*session)->acquireAsync(std::span<const std::string>(&file, 1));
      if (!h.wait(nullptr, kAccessDeadlineNs).isOk()) {
        ++*failed;
        ok = false;
        break;
      }
      const std::int64_t got =
          readStoreFile(target_->paths[0][static_cast<std::size_t>(step)], buf);
      fillPayload(0, step, expect.data(), expect.size());
      if (got != static_cast<std::int64_t>(w_.stepBytes) || std::memcmp(buf.data(), expect.data(), expect.size()) != 0) {
        ++*failed;
        ok = false;
        break;
      }
      // Hold the reference until the re-simulation has written its whole
      // range, as the replay does, so eviction sees the same pins.
      const auto want = static_cast<std::int64_t>(model.stats().stepsProduced);
      const std::int64_t deadline = nowNs() + kAccessDeadlineNs;
      for (;;) {
        const std::int64_t steps = link.call(msg::MsgType::kStatusReq).intArg;
        if (steps == want) break;
        if (steps > want || nowNs() > deadline) {
          std::fprintf(stderr,
                       "simfs_bench: model check: access %zu: daemon produced %" PRId64
                       " steps, replay %" PRId64 "\n",
                       i, steps, want);
          ok = false;
          break;
        }
        sleepNs(200 * vtime::kMicrosecond);
      }
      (*session)->closeNotify(file);
      (void)model.clientRelease(client, file);
    }
    if (ok) {
      const auto live = parseKv(link.call(msg::MsgType::kStatusReq).text);
      const auto& s = model.stats();
      const std::pair<const char*, std::uint64_t> want[] = {
          {"opens", s.opens},         {"hits", s.hits},
          {"misses", s.misses},       {"jobs", s.jobsLaunched},
          {"steps", s.stepsProduced}, {"evictions", s.evictions}};
      for (const auto& [key, value] : want) {
        if (kvNum(live, key) != static_cast<double>(value)) {
          std::fprintf(stderr, "simfs_bench: model check: %s daemon %.0f, replay %" PRIu64 "\n",
                       key, kvNum(live, key), value);
          ok = false;
        }
      }
    }
    (*session)->finalize();
    (void)teardown(false);
    std::fprintf(stderr, "simfs_bench: model check on %zu accesses of ctx0: %s\n", n,
                 ok ? "pass" : "FAIL");
    return ok;
  }

  /// Writes client spans (sampled to at most kMaxAccesses accesses) and
  /// every host span, host roots linked to the latest access of the same
  /// context issued before them.
  void writeSpans(const PhaseResult& p, const std::string& path) {
    constexpr std::size_t kMaxAccesses = 20000;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) abortRun("cannot write " + path);
    const std::size_t stride = std::max<std::size_t>(1, p.recs.size() / kMaxAccesses);
    std::map<int, std::vector<std::pair<std::int64_t, std::uint64_t>>> starts;
    for (std::size_t i = 0; i < p.recs.size(); ++i) {
      const AccessRec& r = p.recs[i];
      const std::uint64_t id = 1 + i * 8;
      starts[r.ctx].emplace_back(r.start, id);
      if (i % stride != 0) continue;
      const std::int64_t s = r.start;
      const std::int64_t end = s + std::max<std::int64_t>(r.closeEnd, r.ttd);
      writeSpan(f, "client.access", id, 0, s, end, r.ctx, r.step);
      if (r.posix) {
        writeSpan(f, "posix.open", id + 1, id, s, s + r.issueEnd, r.ctx, r.step);
        writeSpan(f, "posix.wait", id + 2, id, s + r.issueEnd, s + r.waitEnd, r.ctx, r.step);
      } else {
        writeSpan(f, "client.issue", id + 1, id, s, s + r.issueEnd, r.ctx, r.step);
        writeSpan(f, "client.ack", id + 2, id, s + r.ackStart, s + r.ackEnd, r.ctx, r.step);
        writeSpan(f, "client.wait", id + 3, id, s + r.ackEnd, s + r.waitEnd, r.ctx, r.step);
      }
      writeSpan(f, "vfs.read", id + 4, id, s + r.waitEnd, s + r.ttd, r.ctx, r.step);
      writeSpan(f, r.posix ? "posix.close" : "client.close", id + 5, id, s + r.ttd,
                s + r.closeEnd, r.ctx, r.step);
    }
    for (auto& [ctx, v] : starts) std::sort(v.begin(), v.end());
    for (const auto& s : p.host) {
      std::uint64_t parent = s.parent;
      if (parent == 0) {
        const auto& v = starts[s.ctx];
        auto it = std::upper_bound(
            v.begin(), v.end(),
            std::make_pair(s.start, std::numeric_limits<std::uint64_t>::max()));
        if (it != v.begin()) parent = std::prev(it)->second;
      }
      writeSpan(f, s.name.c_str(), s.id, parent, s.start, s.end, s.ctx, s.step);
    }
    if (std::fclose(f) != 0) abortRun("cannot write " + path);
  }

  int run() {
    const bool traced = !o_.tracePath.empty();
    std::uint64_t attempted = 0, failed = 0;
    MetricSet e2e, layers;
    std::vector<double> setups;
    PhaseResult measured;
    std::string reactor;
    fillPool();
    if (!traced) {
      for (int i = 0; i < kSetupRepeats; ++i) {
        setups.push_back(setup(i, false));
        if (i + 1 < kSetupRepeats) (void)teardown(false);
      }
      measured = timedPhase(false);
      (void)teardown(false);
      std::sort(setups.begin(), setups.end());
      e2e.add("setup_s", setups[setups.size() / 2], "s", setups.size(), 0.5);
      endToEndMetrics(measured, e2e);
    } else {
      (void)setup(0, false);
      PhaseResult untraced = timedPhase(false);
      (void)teardown(false);
      (void)setup(1, true);
      measured = timedPhase(true);
      measured.host = teardown(true);
      perLayerMetrics(measured, untraced, w_, layers);
      writeSpans(measured, o_.tracePath);
      attempted += untraced.recs.size();
      failed += untraced.failed;
    }
    attempted += measured.recs.size();
    failed += measured.failed;
    reactor = measured.after.reactor;

    // Cross-checks: posix reads were hits (daemon misses are all the
    // Session accesses' misses), and the live run equals the model.
    bool checksOk = true;
    double posixMisses = 0;
    {
      double sessionMisses = 0;
      bool anyPosix = false;
      for (const auto& r : measured.recs) {
        anyPosix = anyPosix || r.posix;
        if (!r.posix && !r.hit) ++sessionMisses;
      }
      if (anyPosix) {
        posixMisses = delta(measured.before, measured.after, "misses") - sessionMisses;
        if (posixMisses != 0) {
          std::fprintf(stderr, "simfs_bench: %0.f posix reads missed the hot set\n",
                       posixMisses);
        }
      }
    }
    std::string modelStatus = "skipped";
    if (std::string(w_.name) == "zipf_miss") {
      const bool ok = modelCheck(&attempted, &failed);
      modelStatus = ok ? "pass" : "fail";
      checksOk = checksOk && ok;
    }
    watchdog_.arm(nowNs() + 60 * vtime::kSecond, "report");
    const bool correct = failed == 0 && checksOk;
    const MetricSet& shown = traced ? layers : e2e;

    // Human-readable summary, then the result line.
    utsname u{};
    ::uname(&u);
#ifdef NDEBUG
    const char* buildType = "release";
#else
    const char* buildType = "debug";
#endif
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("simfs_bench %s seed %" PRIu64 " %.0f s %s: hw_cores %u, %s build, "
                "reactor %s, kernel %s\n",
                w_.name, o_.seed, o_.seconds, traced ? "traced" : "untraced", cores,
                buildType, reactor.c_str(), u.release);
    for (const auto& m : shown.items()) {
      std::printf("  %-28s %14.4f %-8s", m.name.c_str(), m.value, m.unit.c_str());
      if (m.samples > 0) std::printf(" n=%zu", m.samples);
      if (m.quantile > 0 && m.quantile != 0.5 && m.quantile != 0.99) {
        std::printf(" (reported at q=%.2f: too few samples for p99)", m.quantile);
      }
      std::printf("\n");
    }
    std::printf("  attempted %" PRIu64 ", failed %" PRIu64 ", model check %s\n",
                attempted, failed, modelStatus.c_str());

    const auto metricsJson = [](const MetricSet& set, bool endToEndOnly) {
      std::string s = "{";
      for (const auto& m : set.items()) {
        if (endToEndOnly && std::find(std::begin(kEndToEnd), std::end(kEndToEnd),
                                      m.name) == std::end(kEndToEnd)) {
          continue;
        }
        if (s.size() > 1) s += ", ";
        char item[256];
        std::snprintf(item, sizeof(item), "\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                      m.name.c_str(), m.value, m.unit.c_str());
        s += item;
      }
      return s + "}";
    };
    if (!o_.outPath.empty()) {
      std::FILE* f = std::fopen(o_.outPath.c_str(), "w");
      if (f == nullptr) abortRun("cannot write " + o_.outPath);
      std::string samples = "{";
      for (const auto& m : shown.items()) {
        if (m.samples == 0) continue;
        if (samples.size() > 1) samples += ", ";
        char item[160];
        std::snprintf(item, sizeof(item), "\"%s\": {\"n\": %zu, \"q\": %.2f}",
                      m.name.c_str(), m.samples, m.quantile);
        samples += item;
      }
      samples += "}";
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %.9g, "
                   "\"traced\": %s,\n \"machine\": {\"hw_cores\": %u, \"build_type\": "
                   "\"%s\", \"reactor_backend\": \"%s\", \"kernel\": \"%s\", \"seed\": %" PRIu64
                   "},\n \"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                   ", \"error_rate\": %.9g,\n \"checks\": {\"model_check\": \"%s\", "
                   "\"posix_misses\": %.0f},\n \"metrics\": %s,\n \"samples\": %s}\n",
                   w_.name, o_.seed, o_.seconds, traced ? "true" : "false", cores,
                   buildType, reactor.c_str(), u.release, o_.seed,
                   correct ? "true" : "false", attempted, failed,
                   attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                   modelStatus.c_str(), posixMisses, metricsJson(shown, false).c_str(),
                   samples.c_str());
      std::fclose(f);
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metricsJson(shown, !traced).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  const Options& o_;
  const Workload& w_;
  const Plan plan_;
  const std::string runDir_;
  std::string dir_;
  std::unique_ptr<Target> target_;
  DaemonProc daemon_;
  std::vector<std::unique_ptr<Stream>> streams_;
  Watchdog watchdog_{nowNs() + kRunCapNs};
};

void usage() {
  std::fprintf(stderr,
               "usage: simfs_bench --workload <name> --seed <n> [--seconds <s>]\n"
               "                   [--trace <spans.jsonl>] [--out <run.json>] "
               "[--allow-debug]\n"
               "workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) usage();
    return args[++i];
  };
  if (!args.empty() && args[0] == "--serve") {
    ServeArgs a;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--workload") a.workload = value(i);
      else if (args[i] == "--seed") a.seed = std::stoull(value(i));
      else if (args[i] == "--dir") a.dir = value(i);
      else if (args[i] == "--pool") a.pool = value(i);
      else if (args[i] == "--contexts") a.contexts = std::stoi(value(i));
      else if (args[i] == "--trace") a.trace = value(i) == "1";
      else if (args[i] == "--parent") a.parent = std::stoi(value(i));
    }
    return serveMain(a);
  }

  Options o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--workload") o.workload = value(i);
    else if (args[i] == "--seed") o.seed = std::stoull(value(i));
    else if (args[i] == "--seconds") o.seconds = std::stod(value(i));
    else if (args[i] == "--trace") o.tracePath = value(i);
    else if (args[i] == "--out") o.outPath = value(i);
    else if (args[i] == "--allow-debug") o.allowDebug = true;
    else usage();
  }
  const Workload* w = findWorkload(o.workload);
  if (w == nullptr || o.seconds <= 0 || o.seconds > 50) usage();
#ifndef NDEBUG
  if (!o.allowDebug) die("refusing to measure a non-release build (pass --allow-debug)");
#endif

  std::error_code ec;
  gSelfExe = fs::read_symlink("/proc/self/exe", ec).string();
  if (ec) die("cannot locate own executable");
  // Same-host shm rings would live outside the working directory; the
  // per-access deadline also bounds the session's ack wait.
  ::setenv("SIMFS_SHM", "0", 1);
  ::setenv("SIMFS_CALL_TIMEOUT_MS", "10000", 1);
  ::signal(SIGPIPE, SIG_IGN);

  gRunDir = ".bench_run/" + std::string(w->name) + "-" + std::to_string(o.seed) +
            "-" + std::to_string(::getpid());
  fs::create_directories(gRunDir, ec);
  if (ec) die("cannot create " + gRunDir);
  int rc = 0;
  {
    Bench bench(o, *w, gRunDir);
    rc = bench.run();
  }
  fs::remove_all(gRunDir, ec);
  return rc;
}
