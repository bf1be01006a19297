// Cluster membership and context placement for federated DV deployments.
//
// The paper's DV is one coordinating daemon; this layer generalizes the
// serving stack's "which shard owns this context" question to "which
// node, then which shard". A Ring is a static membership table (node id +
// transport endpoint) plus a consistent-hash ring with virtual nodes:
//
//     Ring::ownerOf(context)  ->  the one NodeInfo serving that context
//
// Inside the owning node, the existing ShardedVirtualizer lattice
// ((id - 1) % S) picks the shard — the ring is the top level of the same
// placement function, not a replacement for it. A one-node ring maps
// every context to that node, so the single-node deployment degenerates
// to exactly the pre-federation behavior (bit-identical DES outputs).
//
// Virtual nodes (kDefaultVirtualNodes points per member) smooth the
// assignment so K contexts spread ~K/N per node, and membership changes
// move only ~1/N of the contexts. Membership is static per process in
// this iteration: rings are built at startup (Ring::parse of a
// "id=endpoint,id=endpoint" spec, mirrored by the SIMFS_RING environment
// convention) and exchanged over the wire via msg::MsgType::kRingUpdate;
// the version field lets receivers keep the newest table.
#pragma once

#include "common/status.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simfs::cluster {

/// One federation member: a DV daemon process.
struct NodeInfo {
  std::string id;        ///< stable node name (e.g. "dv0")
  std::string endpoint;  ///< transport address (Unix-socket path)

  friend bool operator==(const NodeInfo&, const NodeInfo&) = default;
};

/// Immutable consistent-hash ring over a static membership table.
/// Copyable and cheap to share; an empty ring means "not federated".
class Ring {
 public:
  static constexpr std::size_t kDefaultVirtualNodes = 64;

  Ring() = default;

  /// Builds a ring. Node ids must be non-empty, unique, and free of the
  /// '=' / ',' separators used by the entry encoding; endpoints must be
  /// non-empty.
  [[nodiscard]] static Result<Ring> make(
      std::vector<NodeInfo> nodes, std::uint64_t version = 1,
      std::size_t virtualNodesPerNode = kDefaultVirtualNodes);

  /// Parses a membership spec "id=endpoint,id=endpoint,..." (the format
  /// of the SIMFS_RING environment variable and simfs_daemon --ring).
  [[nodiscard]] static Result<Ring> parse(
      std::string_view spec, std::uint64_t version = 1,
      std::size_t virtualNodesPerNode = kDefaultVirtualNodes);

  /// Rebuilds a ring from encodeEntries() output (wire form).
  [[nodiscard]] static Result<Ring> fromEntries(
      const std::vector<std::string>& entries, std::uint64_t version,
      std::size_t virtualNodesPerNode = kDefaultVirtualNodes);

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const std::vector<NodeInfo>& nodes() const noexcept {
    return nodes_;
  }

  /// The node owning `context`. Requires !empty().
  [[nodiscard]] const NodeInfo& ownerOf(std::string_view context) const;

  /// Membership lookup by node id; nullptr if unknown.
  [[nodiscard]] const NodeInfo* find(std::string_view nodeId) const;

  /// Wire form: one "id=endpoint" string per member, membership order.
  [[nodiscard]] std::vector<std::string> encodeEntries() const;

  /// Same membership (ignores version and ring geometry).
  [[nodiscard]] bool sameMembership(const Ring& other) const;

  // --- membership ops (elastic ring) ---------------------------------------
  // Rings stay immutable: each op builds the successor table at
  // `newVersion`. Validation is Ring::make's — duplicate ids, bad
  // separators, or an empty result fail the op instead of minting a ring
  // the rest of the cluster would reject.

  /// This membership plus `node`. Fails on a duplicate id.
  [[nodiscard]] Result<Ring> withNode(NodeInfo node,
                                      std::uint64_t newVersion) const;

  /// This membership minus the member named `nodeId`. Fails when the id
  /// is unknown or the ring would become empty.
  [[nodiscard]] Result<Ring> withoutNode(std::string_view nodeId,
                                         std::uint64_t newVersion) const;

  /// The contexts (from `contexts`) whose owner differs between `from`
  /// and `to` — the handoff work list of a membership change. Empty when
  /// either ring is empty (nothing placed) or the membership is
  /// identical (a pure version bump moves nothing, by construction: the
  /// ring points depend only on node ids).
  [[nodiscard]] static std::vector<std::string> movedContexts(
      const Ring& from, const Ring& to,
      const std::vector<std::string>& contexts);

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t node;  ///< index into nodes_
  };

  std::vector<NodeInfo> nodes_;
  std::vector<Point> points_;  ///< sorted by hash
  std::uint64_t version_ = 0;
};

}  // namespace simfs::cluster
