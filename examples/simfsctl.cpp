// simfsctl — operator utility for SimFS deployments.
//
// Implements the paper's "command line utility" workflows (Sec. III-C2)
// plus daemon introspection:
//
//   simfsctl record-checksums <data-dir> <map-file>
//       Scans every file in the directory and records its checksum —
//       run this after the initial simulation so SIMFS_Bitrep has the
//       reference digests.
//
//   simfsctl verify-checksums <data-dir> <map-file>
//       Re-computes digests and reports any file that differs from the
//       recorded reference (offline bit-reproducibility audit).
//
//   simfsctl driver-info <file.drv>
//       Parses a simulation-driver description and prints the context it
//       defines (geometry, timing, naming, job template sanity check).
//
//   simfsctl ping <socket-path> [count]
//       Liveness probe: `count` (default 1) kPing round trips on one
//       negotiated connection, answered on the daemon's
//       dispatch thread (NOT through the worker pool), so it tells a
//       wedged pipeline apart from a dead process. Prints the node id
//       and the measured RTT.
//
//   simfsctl status <socket-path>
//       Queries a running DV daemon for its aggregate statistics.
//
//   simfsctl stats <socket-path>
//       Queries a running DV daemon for its per-shard serving counters
//       (queued/served requests, batch sizes, shed requests, requests
//       served inline on the dispatching thread, resident steps, and the
//       autotuner feed: accesses/misses/resim_steps).
//
//   simfsctl ring <socket-path>
//       Prints the daemon's federation membership table (node ids,
//       endpoints, ring version) plus the wire protocol version each
//       member negotiates (probed with a version-carrying kPing).
//
//   simfsctl join <socket-path> <node-id> <endpoint>
//   simfsctl leave <socket-path> <node-id>
//   simfsctl drain-node <socket-path> <node-id>
//       Elastic membership: builds the successor ring (current +/- the
//       named member, version + 1) and drives the two-phase change —
//       kRingPropose through the contacted member (which relays to the
//       union of old and new membership), a drain poll until every
//       reachable member reports handoffs_inflight=0 (the owners stream
//       their moving contexts' state to the new owners meanwhile), then
//       kRingCommit, after which the new table is authoritative and
//       stale-epoch writes are fenced off. `drain-node` is `leave` under
//       the operational name: drain first, then the node can be stopped.
//
//   simfsctl cluster-status <socket-path>
//       Resolves the ring through one member, then queries every member
//       for its aggregate statistics and handoff counters, and prints
//       which node owns which context (consistent-hash placement).
//
//   simfsctl acquire <socket-path> <context> <file...>
//       Drives the vectored session API against a live daemon: ALL files
//       go out in one kOpenBatchReq, the per-file ack outcomes are
//       printed (available now / re-simulating + estimated wait /
//       failed), then the command blocks until the whole batch resolved
//       and releases the acquired references again (kCancelReq).
//
//   simfsctl ls <socket-path> [<context>]
//       The POSIX frontend's synthesized namespace without a mount: no
//       context lists the registered contexts, with one it renders the
//       directory listing (size + filename per output step) from one
//       kGeometryReq.
//
//   simfsctl stat <socket-path> <context> <file>
//       Classifies one synthesized filename: step index, size, and the
//       timestep/restart coordinates a re-simulation would start from.
#include "cluster/ring.hpp"
#include "common/checksum.hpp"
#include "common/strings.hpp"
#include "dvlib/session.hpp"
#include "msg/message.hpp"
#include "msg/transport.hpp"
#include "posix/geometry.hpp"
#include "simmodel/driver.hpp"
#include "vfs/file_store.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

using namespace simfs;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: simfsctl record-checksums <data-dir> <map-file>\n"
               "       simfsctl verify-checksums <data-dir> <map-file>\n"
               "       simfsctl driver-info <file.drv>\n"
               "       simfsctl ping <socket-path> [count]\n"
               "       simfsctl status <socket-path>\n"
               "       simfsctl stats <socket-path>\n"
               "       simfsctl ring <socket-path>\n"
               "       simfsctl join <socket-path> <node-id> <endpoint>\n"
               "       simfsctl leave <socket-path> <node-id>\n"
               "       simfsctl drain-node <socket-path> <node-id>\n"
               "       simfsctl cluster-status <socket-path>\n"
               "       simfsctl acquire <socket-path> <context> <file...>\n"
               "       simfsctl ls <socket-path> [<context>]\n"
               "       simfsctl stat <socket-path> <context> <file>\n");
  return 2;
}

int recordChecksums(const std::string& dir, const std::string& mapFile) {
  vfs::DiskFileStore store(dir);
  simmodel::ChecksumMap map;
  for (const auto& name : store.list()) {
    const auto content = store.read(name);
    if (!content) {
      std::fprintf(stderr, "skip %s: %s\n", name.c_str(),
                   content.status().toString().c_str());
      continue;
    }
    map.record(name, fnv1a64(*content));
  }
  const auto st = map.save(mapFile);
  if (!st.isOk()) {
    std::fprintf(stderr, "cannot save: %s\n", st.toString().c_str());
    return 1;
  }
  std::printf("recorded %zu checksums into %s\n", map.size(), mapFile.c_str());
  return 0;
}

int verifyChecksums(const std::string& dir, const std::string& mapFile) {
  auto map = simmodel::ChecksumMap::load(mapFile);
  if (!map) {
    std::fprintf(stderr, "cannot load %s: %s\n", mapFile.c_str(),
                 map.status().toString().c_str());
    return 1;
  }
  vfs::DiskFileStore store(dir);
  int checked = 0;
  int mismatched = 0;
  int unknown = 0;
  for (const auto& name : store.list()) {
    const auto content = store.read(name);
    if (!content) continue;
    const auto match = map->matches(name, fnv1a64(*content));
    if (!match.isOk()) {
      ++unknown;
      continue;
    }
    ++checked;
    if (!*match) {
      ++mismatched;
      std::printf("MISMATCH %s\n", name.c_str());
    }
  }
  std::printf("%d checked, %d mismatched, %d without reference\n", checked,
              mismatched, unknown);
  return mismatched == 0 ? 0 : 1;
}

int driverInfo(const std::string& path) {
  auto driver = simmodel::loadDriverFile(path);
  if (!driver) {
    std::fprintf(stderr, "cannot load driver: %s\n",
                 driver.status().toString().c_str());
    return 1;
  }
  const auto& cfg = (*driver)->config();
  std::printf("context          %s\n", cfg.name.c_str());
  std::printf("delta_d/delta_r  %lld / %lld timesteps "
              "(%lld output steps per restart interval)\n",
              static_cast<long long>(cfg.geometry.deltaD()),
              static_cast<long long>(cfg.geometry.deltaR()),
              static_cast<long long>(cfg.geometry.stepsPerRestartInterval()));
  if (cfg.geometry.numTimesteps() > 0) {
    std::printf("timeline         %lld timesteps -> %lld output steps, "
                "%lld restarts\n",
                static_cast<long long>(cfg.geometry.numTimesteps()),
                static_cast<long long>(cfg.geometry.numOutputSteps()),
                static_cast<long long>(cfg.geometry.numRestartSteps()));
  }
  std::printf("sizes            output %s, restart %s\n",
              bytes::toString(cfg.outputStepBytes).c_str(),
              bytes::toString(cfg.restartStepBytes).c_str());
  std::printf("policy           %s, cache quota %s, s_max %d\n",
              simmodel::policyKindName(cfg.policy),
              cfg.cacheQuotaBytes == 0
                  ? "unlimited"
                  : bytes::toString(cfg.cacheQuotaBytes).c_str(),
              cfg.sMax);
  const auto& perf = cfg.perf.at(0);
  std::printf("timing           tau_sim %s, alpha_sim %s at %d nodes\n",
              vtime::toString(perf.tauSim).c_str(),
              vtime::toString(perf.alphaSim).c_str(), perf.nodes);
  std::printf("naming           %s  /  %s\n", cfg.codec.outputFile(0).c_str(),
              cfg.codec.restartFile(0).c_str());
  const auto job = (*driver)->makeJob(0, cfg.geometry.stepsPerRestartInterval(),
                                      0);
  std::printf("job script       %s\n", job.script.c_str());
  return 0;
}

/// Name for the TransportChoice a kHelloAck reported (0 = the daemon
/// predates negotiation, or no offer was made).
const char* transportChoiceName(std::int64_t choice) {
  switch (static_cast<msg::TransportChoice>(choice)) {
    case msg::TransportChoice::kShm: return "shm";
    case msg::TransportChoice::kSocket: return "socket";
    case msg::TransportChoice::kLegacy: break;
  }
  return "socket (no negotiation)";
}

/// One-shot request/reply against a daemon socket; returns non-zero and
/// prints a diagnostic on connection/timeout failure.
///
/// With `transportKind` set, a simulator-role kHello precedes the request
/// so the connection can negotiate the same-host shm data plane — the
/// request then travels over whichever transport the session settled on,
/// and `transportKind` receives its name. `rttUs` (optional) receives the
/// round-trip time of the request itself, negotiation excluded.
int daemonCall(const std::string& socketPath, msg::MsgType type,
               msg::Message* reply, std::string* transportKind = nullptr,
               long long* rttUs = nullptr) {
  auto conn = msg::unixSocketConnect(socketPath);
  if (!conn) {
    std::fprintf(stderr, "cannot connect: %s\n",
                 conn.status().toString().c_str());
    return 1;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> got;
  std::size_t seen = 0;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    got.push_back(std::move(m));
    cv.notify_all();
  });
  const auto await = [&](msg::Message* out) {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(5),
                     [&] { return got.size() > seen; })) {
      std::fprintf(stderr, "no reply from daemon\n");
      return false;
    }
    *out = std::move(got[seen++]);
    return true;
  };
  if (transportKind != nullptr) {
    msg::Message hello;
    hello.type = msg::MsgType::kHello;
    hello.requestId = 1;
    hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kSimulator);
    if (!(*conn)->send(hello).isOk()) {
      std::fprintf(stderr, "send failed\n");
      return 1;
    }
    msg::Message ack;
    if (!await(&ack)) return 1;
    *transportKind = transportChoiceName(ack.intArg2);
  }
  msg::Message req;
  req.type = type;
  req.requestId = 2;
  const auto t0 = std::chrono::steady_clock::now();
  if (!(*conn)->send(req).isOk()) {
    std::fprintf(stderr, "send failed\n");
    return 1;
  }
  if (!await(reply)) return 1;
  if (rttUs != nullptr) {
    *rttUs = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  }
  (*conn)->close();
  return 0;
}

/// One-shot request/reply with a caller-built request (no hello) — the
/// admin plane: ring proposals/commits and version-probing pings.
int daemonSend(const std::string& socketPath, msg::Message req,
               msg::Message* reply) {
  auto conn = msg::unixSocketConnect(socketPath);
  if (!conn) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", socketPath.c_str(),
                 conn.status().toString().c_str());
    return 1;
  }
  std::mutex mu;
  std::condition_variable cv;
  bool have = false;
  msg::Message got;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    got = std::move(m);
    have = true;
    cv.notify_all();
  });
  if (req.requestId == 0) req.requestId = 1;
  if (!(*conn)->send(req).isOk()) {
    std::fprintf(stderr, "send failed\n");
    return 1;
  }
  {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(5), [&] { return have; })) {
      std::fprintf(stderr, "no reply from daemon at %s\n", socketPath.c_str());
      return 1;
    }
  }
  *reply = std::move(got);
  (*conn)->close();
  return 0;
}

/// The wire protocol version a node speaks, probed with a kPing carrying
/// this tool's ceiling in intArg2 (additive: legacy daemons echo 0).
/// Returns -1 when the node is unreachable.
std::int64_t probeProtocolVersion(const std::string& endpoint) {
  msg::Message ping;
  ping.type = msg::MsgType::kPing;
  ping.intArg2 = msg::kProtocolVersionMax;
  msg::Message pong;
  if (daemonSend(endpoint, ping, &pong) != 0 ||
      pong.type != msg::MsgType::kPong) {
    return -1;
  }
  return pong.intArg2 > 0 ? pong.intArg2 : 1;  // 0 = pre-negotiation daemon
}

int daemonPing(const std::string& socketPath, long long count) {
  auto conn = msg::unixSocketConnect(socketPath);
  if (!conn) {
    std::fprintf(stderr, "cannot connect: %s\n",
                 conn.status().toString().c_str());
    return 1;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> got;
  std::size_t seen = 0;
  (*conn)->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    got.push_back(std::move(m));
    cv.notify_all();
  });
  const auto await = [&](msg::Message* out) {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(5),
                     [&] { return got.size() > seen; })) {
      std::fprintf(stderr, "no reply from daemon\n");
      return false;
    }
    *out = std::move(got[seen++]);
    return true;
  };
  msg::Message hello;
  hello.type = msg::MsgType::kHello;
  hello.requestId = 1;
  hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kSimulator);
  if (!(*conn)->send(hello).isOk()) {
    std::fprintf(stderr, "send failed\n");
    return 1;
  }
  msg::Message ack;
  if (!await(&ack)) return 1;
  const std::string transport = transportChoiceName(ack.intArg2);
  long long minUs = std::numeric_limits<long long>::max();
  long long sumUs = 0;
  msg::Message reply;
  for (long long i = 0; i < count; ++i) {
    msg::Message req;
    req.type = msg::MsgType::kPing;
    req.requestId = static_cast<std::uint64_t>(2 + i);
    const auto t0 = std::chrono::steady_clock::now();
    if (!(*conn)->send(req).isOk()) {
      std::fprintf(stderr, "send failed\n");
      return 1;
    }
    if (!await(&reply)) return 1;
    if (reply.type != msg::MsgType::kPong) {
      std::fprintf(stderr, "unexpected reply type\n");
      return 1;
    }
    const long long us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    minUs = std::min(minUs, us);
    sumUs += us;
  }
  const char* node = reply.text.empty() ? "(standalone)" : reply.text.c_str();
  if (count == 1) {
    std::printf("pong from %s: %lld us over %s\n", node, sumUs,
                transport.c_str());
  } else {
    std::printf("pong from %s: %lld pings, min %lld us, avg %lld us over %s\n",
                node, count, minUs, count > 0 ? sumUs / count : 0,
                transport.c_str());
  }
  (*conn)->close();
  return 0;
}

int daemonStatus(const std::string& socketPath) {
  msg::Message reply;
  if (const int rc = daemonCall(socketPath, msg::MsgType::kStatusReq, &reply);
      rc != 0) {
    return rc;
  }
  std::printf("daemon statistics:\n");
  for (const auto& kv : str::split(reply.text, ';')) {
    std::printf("  %s\n", kv.c_str());
  }
  std::printf("contexts:\n");
  for (const auto& name : reply.files) std::printf("  %s\n", name.c_str());
  return 0;
}

int daemonShardStats(const std::string& socketPath) {
  msg::Message reply;
  std::string transport;
  if (const int rc = daemonCall(socketPath, msg::MsgType::kShardStatsReq,
                                &reply, &transport);
      rc != 0) {
    return rc;
  }
  if (reply.type != msg::MsgType::kShardStatsAck) {
    std::fprintf(stderr, "daemon does not speak kShardStatsReq\n");
    return 1;
  }
  std::printf("transport: %s\n", transport.c_str());
  std::printf("serving pipeline (%s):\n", reply.text.c_str());
  for (const auto& line : reply.files) {
    std::printf("  ");
    for (const auto& kv : str::split(line, ';')) {
      std::printf("%-24s", kv.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// Fetches a daemon's ring (kRingReq); rc != 0 on failure.
int fetchRing(const std::string& socketPath, cluster::Ring* ring,
              std::string* nodeId) {
  msg::Message reply;
  if (const int rc = daemonCall(socketPath, msg::MsgType::kRingReq, &reply);
      rc != 0) {
    return rc;
  }
  if (reply.type != msg::MsgType::kRingUpdate) {
    std::fprintf(stderr, "daemon does not speak kRingReq\n");
    return 1;
  }
  if (nodeId != nullptr) *nodeId = reply.text;
  if (reply.files.empty()) {
    *ring = cluster::Ring();  // standalone daemon
    return 0;
  }
  auto parsed = cluster::Ring::fromEntries(
      reply.files, static_cast<std::uint64_t>(reply.intArg));
  if (!parsed) {
    std::fprintf(stderr, "bad ring from daemon: %s\n",
                 parsed.status().toString().c_str());
    return 1;
  }
  *ring = std::move(*parsed);
  return 0;
}

int daemonRing(const std::string& socketPath) {
  cluster::Ring ring;
  std::string nodeId;
  if (const int rc = fetchRing(socketPath, &ring, &nodeId); rc != 0) return rc;
  if (ring.empty()) {
    std::printf("standalone daemon (no ring)\n");
    return 0;
  }
  std::printf("ring version %llu, answered by %s:\n",
              static_cast<unsigned long long>(ring.version()),
              nodeId.empty() ? "-" : nodeId.c_str());
  for (const auto& n : ring.nodes()) {
    const std::int64_t proto = probeProtocolVersion(n.endpoint);
    std::string protoCol = proto < 0 ? "unreachable"
                                     : str::format("proto v%lld",
                                                   static_cast<long long>(proto));
    if (proto == 1) protoCol += " (legacy)";
    std::printf("  %-12s %-28s %s\n", n.id.c_str(), n.endpoint.c_str(),
                protoCol.c_str());
  }
  return 0;
}

/// "key=value;key=value" (the shard-stats text field) into a map.
std::map<std::string, std::string> parseKvText(const std::string& text) {
  std::map<std::string, std::string> kv;
  for (const auto& item : str::split(text, ';')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) continue;
    kv[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return kv;
}

/// The node-level "key=value;..." text of one daemon's kShardStatsAck;
/// nullopt when the daemon is unreachable.
std::optional<std::map<std::string, std::string>> fetchNodeKv(
    const std::string& endpoint) {
  msg::Message reply;
  if (daemonCall(endpoint, msg::MsgType::kShardStatsReq, &reply) != 0 ||
      reply.type != msg::MsgType::kShardStatsAck) {
    return std::nullopt;
  }
  return parseKvText(reply.text);
}

// ------------------------------------------------------- elastic membership


/// Drives one two-phase membership change to `next`: propose through the
/// contacted member (which relays to the union of both memberships), poll
/// until every reachable member has drained its context handoffs, then
/// commit. Unreachable members are skipped with a warning — the leave of
/// a crashed node must not wait on the crashed node.
int membershipChange(const std::string& socketPath, const cluster::Ring& from,
                     const cluster::Ring& next) {
  msg::Message propose;
  propose.type = msg::MsgType::kRingPropose;
  propose.files = next.encodeEntries();
  propose.intArg = static_cast<std::int64_t>(next.version());
  msg::Message ack;
  if (daemonSend(socketPath, propose, &ack) != 0) return 1;
  if (ack.type != msg::MsgType::kRingProposeAck) {
    std::fprintf(stderr, "daemon does not speak kRingPropose\n");
    return 1;
  }
  if (ack.code != 0) {
    std::fprintf(stderr, "propose rejected: %s\n", ack.text.c_str());
    return 1;
  }
  std::printf("proposed ring v%llu: %lld context(s) changing owner\n",
              static_cast<unsigned long long>(next.version()),
              static_cast<long long>(ack.intArg2));
  for (const auto& move : ack.files) std::printf("  %s\n", move.c_str());
  // Drain poll: owners stream their moving contexts' state meanwhile;
  // the commit waits until no transfer is still in flight anywhere.
  std::set<std::string> members;  // endpoint set over old ∪ new
  for (const cluster::Ring* r : {&from, &next}) {
    for (const auto& n : r->nodes()) members.insert(n.endpoint);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::size_t inflight = 0;
    std::size_t unreachable = 0;
    for (const auto& endpoint : members) {
      const auto kv = fetchNodeKv(endpoint);
      if (!kv) {
        ++unreachable;
        continue;
      }
      const auto it = kv->find("handoffs_inflight");
      if (it != kv->end()) {
        inflight += std::strtoull(it->second.c_str(), nullptr, 10);
      }
    }
    if (inflight == 0) {
      if (unreachable > 0) {
        std::fprintf(stderr,
                     "warning: %zu member(s) unreachable during drain\n",
                     unreachable);
      }
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "drain timed out with %zu handoff(s) still in flight; "
                   "not committing\n",
                   inflight);
      return 1;
    }
    std::printf("  draining: %zu handoff(s) in flight...\n", inflight);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  msg::Message commit;
  commit.type = msg::MsgType::kRingCommit;
  commit.files = next.encodeEntries();
  commit.intArg = static_cast<std::int64_t>(next.version());
  msg::Message commitAck;
  if (daemonSend(socketPath, commit, &commitAck) != 0) return 1;
  if (commitAck.type != msg::MsgType::kRingCommitAck || commitAck.code != 0) {
    std::fprintf(stderr, "commit rejected: %s\n", commitAck.text.c_str());
    return 1;
  }
  std::printf("ring v%llu committed (%zu member(s))\n",
              static_cast<unsigned long long>(next.version()), next.size());
  return 0;
}

int joinNode(const std::string& socketPath, const std::string& nodeId,
             const std::string& endpoint) {
  cluster::Ring ring;
  if (const int rc = fetchRing(socketPath, &ring, nullptr); rc != 0) return rc;
  if (ring.empty()) {
    std::fprintf(stderr,
                 "standalone daemon (no ring): seed a ring first "
                 "(start daemons with a membership table)\n");
    return 1;
  }
  auto next = ring.withNode(cluster::NodeInfo{nodeId, endpoint},
                            ring.version() + 1);
  if (!next) {
    std::fprintf(stderr, "cannot join: %s\n", next.status().toString().c_str());
    return 1;
  }
  return membershipChange(socketPath, ring, *next);
}

int leaveNode(const std::string& socketPath, const std::string& nodeId) {
  cluster::Ring ring;
  if (const int rc = fetchRing(socketPath, &ring, nullptr); rc != 0) return rc;
  if (ring.empty()) {
    std::fprintf(stderr, "standalone daemon (no ring): nothing to leave\n");
    return 1;
  }
  auto next = ring.withoutNode(nodeId, ring.version() + 1);
  if (!next) {
    std::fprintf(stderr, "cannot remove '%s': %s\n", nodeId.c_str(),
                 next.status().toString().c_str());
    return 1;
  }
  return membershipChange(socketPath, ring, *next);
}

int clusterStatus(const std::string& socketPath) {
  cluster::Ring ring;
  if (const int rc = fetchRing(socketPath, &ring, nullptr); rc != 0) return rc;
  if (ring.empty()) {
    std::printf("standalone daemon (no ring); falling back to status\n");
    return daemonStatus(socketPath);
  }
  for (const auto& n : ring.nodes()) {
    msg::Message reply;
    if (daemonCall(n.endpoint, msg::MsgType::kStatusReq, &reply) != 0) {
      std::printf("%-12s %-28s UNREACHABLE\n", n.id.c_str(),
                  n.endpoint.c_str());
      continue;
    }
    // Handoff column: elastic-membership transfers this node drove
    // (inflight/committed/aborted); pre-elastic daemons report none.
    std::string handoffs;
    const auto kv = fetchNodeKv(n.endpoint).value_or(
        std::map<std::string, std::string>{});
    if (const auto it = kv.find("handoffs_inflight"); it != kv.end()) {
      const auto committed = kv.find("handoffs_committed");
      const auto aborted = kv.find("handoffs_aborted");
      handoffs = str::format(
          "  handoffs=%s/%s/%s", it->second.c_str(),
          committed != kv.end() ? committed->second.c_str() : "0",
          aborted != kv.end() ? aborted->second.c_str() : "0");
    }
    std::printf("%-12s %-28s %s%s\n", n.id.c_str(), n.endpoint.c_str(),
                reply.text.c_str(), handoffs.c_str());
    for (const auto& ctx : reply.files) {
      const bool owned = ring.ownerOf(ctx).id == n.id;
      std::printf("    %-20s %s\n", ctx.c_str(),
                  owned ? "owner" : "remote (redirects)");
    }
  }
  return 0;
}

int acquireFiles(const std::string& socketPath, const std::string& context,
                 std::vector<std::string> files) {
  // Resolve the deployment first: a federated daemon answers with its
  // ring and the session routes to the context's owner (following
  // redirects); a standalone daemon is dialed directly.
  cluster::Ring ring;
  if (const int rc = fetchRing(socketPath, &ring, nullptr); rc != 0) return rc;
  Result<std::shared_ptr<dvlib::Session>> session =
      errUnavailable("unresolved");
  if (ring.empty()) {
    auto conn = msg::unixSocketConnect(socketPath);
    if (!conn) {
      std::fprintf(stderr, "cannot connect: %s\n",
                   conn.status().toString().c_str());
      return 1;
    }
    session = dvlib::Session::connect(std::move(*conn), context);
  } else {
    session =
        dvlib::Session::connect(dvlib::NodeRouter::overUnixSockets(ring),
                                context);
  }
  if (!session) {
    std::fprintf(stderr, "cannot open session on '%s': %s\n", context.c_str(),
                 session.status().toString().c_str());
    return 1;
  }
  // One kOpenBatchReq for the whole list; the ack carries the per-file
  // outcomes printed below.
  auto handle = (*session)->acquireAsync(files);
  dvlib::SimfsStatus ack;
  (void)handle.waitAck(&ack);
  std::printf("vectored acquire of %zu file(s) on '%s' (one round trip):\n",
              files.size(), context.c_str());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto p = handle.probe(i);
    if (!p.status.isOk()) {
      std::printf("  %-28s FAILED      %s\n", files[i].c_str(),
                  p.status.toString().c_str());
    } else if (p.available) {
      std::printf("  %-28s AVAILABLE\n", files[i].c_str());
    } else {
      std::printf("  %-28s RESIMULATING  est wait %s\n", files[i].c_str(),
                  vtime::toString(p.estimatedWait).c_str());
    }
  }
  const Status done = handle.wait();
  if (!done.isOk()) {
    std::fprintf(stderr, "acquire failed: %s\n", done.toString().c_str());
    (void)handle.cancel();  // unwind whatever part did register
    (*session)->finalize();
    return 1;
  }
  std::printf("all %zu file(s) available\n", files.size());
  // Release the references again so the operator command leaves nothing
  // pinned.
  (void)handle.cancel();
  (*session)->finalize();
  return 0;
}

// --------------------------------------------------------- POSIX namespace

/// `simfsctl ls <socket> [<context>]` — the geometry RPC as an operator
/// view: no context lists the registered contexts; with one, the
/// synthesized directory listing (name + size per output step), i.e.
/// exactly what the FUSE mount / preload shim present, without mounting
/// anything.
int posixLs(const std::string& socketPath, const std::string& context) {
  const auto call = posix::socketGeometryCall(socketPath);
  if (context.empty()) {
    const auto ack = call(posix::makeGeometryReq(1, ""));
    if (!ack) {
      std::fprintf(stderr, "geometry rpc failed: %s\n",
                   ack.status().toString().c_str());
      return 1;
    }
    auto names = posix::parseContextListAck(*ack);
    if (!names) {
      std::fprintf(stderr, "bad geometry ack: %s\n",
                   names.status().toString().c_str());
      return 1;
    }
    std::sort(names->begin(), names->end());
    for (const auto& n : *names) std::printf("%s/\n", n.c_str());
    return 0;
  }
  const auto ack = call(posix::makeGeometryReq(1, context));
  if (!ack) {
    std::fprintf(stderr, "geometry rpc failed: %s\n",
                 ack.status().toString().c_str());
    return 1;
  }
  const auto g = posix::parseGeometryAck(*ack);
  if (!g) {
    std::fprintf(stderr, "bad geometry ack: %s\n",
                 g.status().toString().c_str());
    return 1;
  }
  for (StepIndex i = 0; i < g->numOutputSteps; ++i) {
    std::printf("%10llu  %s\n",
                static_cast<unsigned long long>(g->outputStepBytes),
                g->fileAt(i).c_str());
  }
  return 0;
}

/// `simfsctl stat <socket> <context> <file>` — classifies one synthesized
/// filename: its step index, size, and the timestep/restart coordinates
/// the DV would re-simulate from.
int posixStat(const std::string& socketPath, const std::string& context,
              const std::string& file) {
  const auto call = posix::socketGeometryCall(socketPath);
  const auto ack = call(posix::makeGeometryReq(1, context));
  if (!ack) {
    std::fprintf(stderr, "geometry rpc failed: %s\n",
                 ack.status().toString().c_str());
    return 1;
  }
  const auto g = posix::parseGeometryAck(*ack);
  if (!g) {
    std::fprintf(stderr, "bad geometry ack: %s\n",
                 g.status().toString().c_str());
    return 1;
  }
  StepIndex step = 0;
  if (!g->stepOf(file, &step) || step < 0 || step >= g->numOutputSteps) {
    std::fprintf(stderr, "%s: not an output step of %s\n", file.c_str(),
                 context.c_str());
    return 1;
  }
  const auto& geo = g->geometry;
  std::printf("context:   %s\n", g->context.c_str());
  std::printf("file:      %s\n", file.c_str());
  std::printf("step:      %lld\n", static_cast<long long>(step));
  std::printf("size:      %llu\n",
              static_cast<unsigned long long>(g->outputStepBytes));
  std::printf("timestep:  %lld\n",
              static_cast<long long>(geo.outputTimestep(step)));
  std::printf("restart:   %lld\n",
              static_cast<long long>(geo.restartFor(step)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "record-checksums" && argc == 4) {
    return recordChecksums(argv[2], argv[3]);
  }
  if (cmd == "verify-checksums" && argc == 4) {
    return verifyChecksums(argv[2], argv[3]);
  }
  if (cmd == "driver-info" && argc == 3) {
    return driverInfo(argv[2]);
  }
  if (cmd == "ping" && (argc == 3 || argc == 4)) {
    const long long count = argc == 4 ? std::atoll(argv[3]) : 1;
    if (count < 1) return usage();
    return daemonPing(argv[2], count);
  }
  if (cmd == "status" && argc == 3) {
    return daemonStatus(argv[2]);
  }
  if (cmd == "stats" && argc == 3) {
    return daemonShardStats(argv[2]);
  }
  if (cmd == "ring" && argc == 3) {
    return daemonRing(argv[2]);
  }
  if (cmd == "join" && argc == 5) {
    return joinNode(argv[2], argv[3], argv[4]);
  }
  if ((cmd == "leave" || cmd == "drain-node") && argc == 4) {
    return leaveNode(argv[2], argv[3]);
  }
  if (cmd == "cluster-status" && argc == 3) {
    return clusterStatus(argv[2]);
  }
  if (cmd == "acquire" && argc >= 5) {
    return acquireFiles(argv[2], argv[3],
                        std::vector<std::string>(argv + 4, argv + argc));
  }
  if (cmd == "ls" && (argc == 3 || argc == 4)) {
    return posixLs(argv[2], argc == 4 ? argv[3] : "");
  }
  if (cmd == "stat" && argc == 5) {
    return posixStat(argv[2], argv[3], argv[4]);
  }
  return usage();
}
