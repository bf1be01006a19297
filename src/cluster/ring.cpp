#include "cluster/ring.hpp"

#include "common/checksum.hpp"
#include "common/strings.hpp"

#include <algorithm>

namespace simfs::cluster {
namespace {

/// splitmix64 finalizer. Raw FNV-1a digests of short, shared-prefix keys
/// ("dv0#0", "dv1#0", ...) cluster enough that whole nodes can end up
/// owning nothing; this scrambles them into a uniform ring position. The
/// function is fixed constants only — stable across builds/processes,
/// which the placement function requires (every node and client must
/// agree byte-for-byte).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Ring-point hash for virtual node `vnode` of `id`.
std::uint64_t pointHash(const std::string& id, std::size_t vnode) {
  Fnv1a64Hasher h;
  h.update(id);
  h.update("#");
  h.update(std::to_string(vnode));
  return mix64(h.digest());
}

/// One "id=endpoint" member entry (shared by the spec and wire forms;
/// make() separately rejects separators smuggled into either half).
Result<NodeInfo> parseEntry(const std::string& entry) {
  const auto eq = entry.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
    return errInvalidArgument("ring: bad entry (want id=endpoint): " + entry);
  }
  return NodeInfo{entry.substr(0, eq), entry.substr(eq + 1)};
}

}  // namespace

Result<Ring> Ring::make(std::vector<NodeInfo> nodes, std::uint64_t version,
                        std::size_t virtualNodesPerNode) {
  if (nodes.empty()) return errInvalidArgument("ring: no nodes");
  if (virtualNodesPerNode == 0) {
    return errInvalidArgument("ring: need >= 1 virtual node per member");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& n = nodes[i];
    if (n.id.empty() || n.endpoint.empty()) {
      return errInvalidArgument("ring: empty node id or endpoint");
    }
    if (n.id.find('=') != std::string::npos ||
        n.id.find(',') != std::string::npos ||
        n.endpoint.find(',') != std::string::npos) {
      return errInvalidArgument("ring: '=' / ',' not allowed in member: " +
                                n.id);
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (nodes[j].id == n.id) {
        return errInvalidArgument("ring: duplicate node id: " + n.id);
      }
    }
  }
  Ring ring;
  ring.nodes_ = std::move(nodes);
  ring.version_ = version;
  ring.points_.reserve(ring.nodes_.size() * virtualNodesPerNode);
  for (std::size_t i = 0; i < ring.nodes_.size(); ++i) {
    for (std::size_t v = 0; v < virtualNodesPerNode; ++v) {
      ring.points_.push_back(
          Point{pointHash(ring.nodes_[i].id, v), static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(ring.points_.begin(), ring.points_.end(),
            [](const Point& a, const Point& b) {
              // Tie-break on node index so colliding hashes still yield
              // one deterministic owner everywhere.
              return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
            });
  return ring;
}

Result<Ring> Ring::parse(std::string_view spec, std::uint64_t version,
                         std::size_t virtualNodesPerNode) {
  std::vector<NodeInfo> nodes;
  for (const auto& entry : str::split(spec, ',')) {
    if (entry.empty()) continue;
    auto node = parseEntry(entry);
    if (!node) return node.status();
    nodes.push_back(std::move(*node));
  }
  return make(std::move(nodes), version, virtualNodesPerNode);
}

Result<Ring> Ring::fromEntries(const std::vector<std::string>& entries,
                               std::uint64_t version,
                               std::size_t virtualNodesPerNode) {
  // Each wire entry is one member — never re-split on ',' (a forged
  // "x=/a,y=/b" entry must fail make()'s validation, not mint members).
  std::vector<NodeInfo> nodes;
  nodes.reserve(entries.size());
  for (const auto& entry : entries) {
    auto node = parseEntry(entry);
    if (!node) return node.status();
    nodes.push_back(std::move(*node));
  }
  return make(std::move(nodes), version, virtualNodesPerNode);
}

const NodeInfo& Ring::ownerOf(std::string_view context) const {
  SIMFS_CHECK(!points_.empty());
  const std::uint64_t h = mix64(fnv1a64(context));
  // First ring point at or after the context's hash, wrapping past the
  // top of the hash space back to the first point.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t value) { return p.hash < value; });
  if (it == points_.end()) it = points_.begin();
  return nodes_[it->node];
}

const NodeInfo* Ring::find(std::string_view nodeId) const {
  for (const auto& n : nodes_) {
    if (n.id == nodeId) return &n;
  }
  return nullptr;
}

std::vector<std::string> Ring::encodeEntries() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.id + "=" + n.endpoint);
  return out;
}

bool Ring::sameMembership(const Ring& other) const {
  return nodes_ == other.nodes_;
}

Result<Ring> Ring::withNode(NodeInfo node, std::uint64_t newVersion) const {
  std::vector<NodeInfo> nodes = nodes_;
  nodes.push_back(std::move(node));
  return make(std::move(nodes), newVersion);
}

Result<Ring> Ring::withoutNode(std::string_view nodeId,
                               std::uint64_t newVersion) const {
  std::vector<NodeInfo> nodes;
  nodes.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (n.id != nodeId) nodes.push_back(n);
  }
  if (nodes.size() == nodes_.size()) {
    return errNotFound("ring: no member named: " + std::string(nodeId));
  }
  return make(std::move(nodes), newVersion);
}

std::vector<std::string> Ring::movedContexts(
    const Ring& from, const Ring& to, const std::vector<std::string>& contexts) {
  std::vector<std::string> moved;
  if (from.empty() || to.empty()) return moved;
  for (const auto& ctx : contexts) {
    if (from.ownerOf(ctx).id != to.ownerOf(ctx).id) moved.push_back(ctx);
  }
  return moved;
}

}  // namespace simfs::cluster
