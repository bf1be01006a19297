#include "dvlib/router.hpp"

namespace simfs::dvlib {

NodeRouter::NodeRouter(cluster::Ring ring, Dialer dial)
    : ring_(std::move(ring)), dial_(std::move(dial)) {}

std::shared_ptr<NodeRouter> NodeRouter::overUnixSockets(cluster::Ring ring) {
  return std::make_shared<NodeRouter>(
      std::move(ring),
      [](const std::string& endpoint) { return msg::unixSocketConnect(endpoint); });
}

Result<cluster::NodeInfo> NodeRouter::ownerOf(const std::string& context) const {
  std::lock_guard lock(mutex_);
  if (ring_.empty()) return errFailedPrecondition("router: empty ring");
  return ring_.ownerOf(context);
}

Result<cluster::NodeInfo> NodeRouter::node(const std::string& id) const {
  std::lock_guard lock(mutex_);
  const cluster::NodeInfo* n = ring_.find(id);
  if (n == nullptr) return errNotFound("router: unknown node: " + id);
  return *n;
}

cluster::Ring NodeRouter::ringSnapshot() const {
  std::lock_guard lock(mutex_);
  return ring_;
}

bool NodeRouter::adoptRing(const cluster::Ring& ring) {
  if (ring.empty()) return false;
  std::lock_guard lock(mutex_);
  if (!ring_.empty()) {
    if (ring.version() < ring_.version()) return false;
    // Same version: daemons hand out their table via kRedirect /
    // kRingUpdate, which makes it authoritative over whatever this
    // client was seeded with — refusing it would leave a client with a
    // wrong same-version seed unable to converge on the very table every
    // redirect is trying to give it. Identical membership is a no-op.
    if (ring.version() == ring_.version() && ring_.sameMembership(ring)) {
      return false;
    }
    // Newer version, identical membership: a pure version bump (e.g. an
    // aborted membership change re-proposed, or an admin no-op commit).
    // Fast-forward the stored table so later comparisons don't thrash,
    // but report "nothing changed" — placement is a function of the node
    // ids only, so no owner moved, and callers must not react with a
    // pool teardown or a rebind of every session.
    if (ring_.sameMembership(ring)) {
      ring_ = ring;
      return false;
    }
  }
  ring_ = ring;
  return true;
}

Result<std::shared_ptr<msg::Transport>> NodeRouter::checkout(
    const std::string& endpoint) {
  {
    std::lock_guard lock(mutex_);
    auto it = idle_.find(endpoint);
    if (it != idle_.end()) {
      while (!it->second.empty()) {
        std::shared_ptr<msg::Transport> t = std::move(it->second.back());
        it->second.pop_back();
        if (t->isOpen()) return t;  // stale (peer died while pooled): drop
      }
    }
  }
  auto dialed = dial_(endpoint);
  if (!dialed) return dialed.status();
  return std::shared_ptr<msg::Transport>(std::move(*dialed));
}

void NodeRouter::checkin(const std::string& endpoint,
                         std::shared_ptr<msg::Transport> transport) {
  if (!transport || !transport->isOpen()) return;
  // Nothing may reference the previous user once pooled: a push arriving
  // while idle (the daemon does not push to unbound sessions, but a
  // hostile/buggy peer might) must not run a dangling handler.
  transport->setHandler([](msg::Message&&) {});
  transport->setCloseHandler([] {});
  std::lock_guard lock(mutex_);
  idle_[endpoint].push_back(std::move(transport));
}

void NodeRouter::drainPool() {
  std::map<std::string, std::vector<std::shared_ptr<msg::Transport>>> idle;
  {
    std::lock_guard lock(mutex_);
    idle.swap(idle_);
  }
  for (auto& [endpoint, transports] : idle) {
    for (auto& t : transports) t->close();
  }
}

Result<cluster::Ring> ringFromMessage(const msg::Message& m) {
  return cluster::Ring::fromEntries(m.files,
                                    static_cast<std::uint64_t>(m.intArg));
}

}  // namespace simfs::dvlib
