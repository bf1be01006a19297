// Client-side federation routing (the DVLib half of src/cluster).
//
// A NodeRouter is shared by every SimFSClient session a process opens
// against one DV federation. It owns:
//
//   * the live ring — seeded from configuration (SIMFS_RING / Ring::parse)
//     and replaced whenever a kRedirect or kRingUpdate carries a newer
//     version, so all sessions re-resolve placement together, and
//   * a per-node connection pool — transports that were dialed but ended
//     up unbound (a hello that was redirected never binds server-side)
//     are checked back in and reused for the next session that resolves
//     to that node, instead of re-dialing.
//
// Sessions stay single-context (one kHello binds one connection to one
// context, as before); the router is what turns "a transport" into "the
// transport of whichever node owns this context".
#pragma once

#include "cluster/ring.hpp"
#include "msg/transport.hpp"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace simfs::dvlib {

class NodeRouter {
 public:
  /// Opens a transport to a node endpoint (Unix-socket path by default;
  /// tests inject in-process dialers).
  using Dialer =
      std::function<Result<std::unique_ptr<msg::Transport>>(const std::string&)>;

  NodeRouter(cluster::Ring ring, Dialer dial);

  /// Router over Unix-domain sockets (endpoints are socket paths).
  [[nodiscard]] static std::shared_ptr<NodeRouter> overUnixSockets(
      cluster::Ring ring);

  // --- placement --------------------------------------------------------------

  [[nodiscard]] Result<cluster::NodeInfo> ownerOf(
      const std::string& context) const;
  [[nodiscard]] Result<cluster::NodeInfo> node(const std::string& id) const;
  [[nodiscard]] cluster::Ring ringSnapshot() const;

  /// Installs `ring` if it supersedes the current table: newer version,
  /// or same version with different membership (daemon-provided tables
  /// are authoritative over a wrong client seed). Strictly older tables
  /// are ignored. Returns true if adopted.
  bool adoptRing(const cluster::Ring& ring);

  // --- per-node connection pool ------------------------------------------------

  /// An open transport to `endpoint`: a pooled idle one if present,
  /// freshly dialed otherwise. The caller owns it until checkin().
  [[nodiscard]] Result<std::shared_ptr<msg::Transport>> checkout(
      const std::string& endpoint);

  /// Returns an UNBOUND, still-open transport to the pool. The router
  /// neutralizes its handlers; transports that carried a bound session
  /// must be closed instead (the server tears the session down on EOF).
  void checkin(const std::string& endpoint,
               std::shared_ptr<msg::Transport> transport);

  /// Closes every pooled transport (process shutdown).
  void drainPool();

 private:
  mutable std::mutex mutex_;
  cluster::Ring ring_;
  Dialer dial_;
  std::map<std::string, std::vector<std::shared_ptr<msg::Transport>>> idle_;
};

/// Rebuilds the ring a kRedirect / kRingUpdate message carries
/// (files = "id=endpoint" entries, intArg = version).
[[nodiscard]] Result<cluster::Ring> ringFromMessage(const msg::Message& m);

}  // namespace simfs::dvlib
