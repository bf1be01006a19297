// Message transports between DVLib clients and the DV daemon.
//
// Three implementations behind one interface:
//   * InProc pair — synchronous delivery on the sender's thread; used by
//     tests and by single-process deployments where the DV runs as a
//     thread of the analysis driver.
//   * Unix-domain stream sockets — the daemon deployment (the paper uses
//     TCP/IP; a UNIX socket carries the identical framed protocol and
//     keeps the examples self-contained). All socket endpoints of the
//     process are owned by a shared epoll reactor: one event-loop thread
//     per core (at most 16), each serving its round-robin share of the
//     connections, and outbound messages are batched into writev() calls
//     instead of one write per frame — connection count no longer implies
//     thread count. A reply sent from inside a receive handler queues on
//     the handler's own loop without an eventfd wakeup.
//   * Same-host shared memory — a socket session that upgrades to a ring
//     pair during the kHello handshake (see shm_transport.hpp).
//
// One message path: every transport takes a MessageRef in (send) and
// hands a MessageView out (setViewHandler); nothing inside a transport
// builds an owned Message. Owned messages exist only at the edges, in
// two non-virtual helpers: send(const Message&) borrows the message as a
// MessageRef, and setHandler wraps an owned-message handler as a view
// handler that calls toMessage().
//
// Delivery contract: the receive handler may be invoked from an arbitrary
// thread (the sender's for InProc, an event-loop or ring-consumer thread
// otherwise) and must not synchronously send on the same transport it is
// handling, except to reply — replies are safe because handlers never
// hold transport locks. Messages that arrive before a handler is
// installed are kept as encoded frames and replayed, in order, on the
// thread that installs it.
#pragma once

#include "common/status.hpp"
#include "msg/message.hpp"

#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace simfs::msg {

/// Bidirectional message endpoint.
class Transport {
 public:
  /// Edge receive handler taking an owned message (see setHandler).
  using Handler = std::function<void(Message&&)>;
  /// Zero-copy receive handler: the view (and every string_view /
  /// iterator it hands out) references transport-owned buffer memory and
  /// is valid ONLY for the duration of the callback. Copy out (or arena-
  /// copy) anything that must survive it.
  using ViewHandler = std::function<void(const MessageView&)>;

  virtual ~Transport() = default;

  /// Sends a message to the peer; the referenced storage only needs to
  /// outlive this call (the transport serializes `m` into its own pooled
  /// buffer or ring slot before returning). Returns kUnavailable once
  /// closed. Socket sends are asynchronous: the frame is queued and
  /// flushed by the reactor (batched with neighbours into one writev). A
  /// peer that stops draining its socket is disconnected once its queue
  /// exceeds a fixed byte bound (send then also returns kUnavailable) —
  /// senders are never blocked on a slow consumer.
  [[nodiscard]] virtual Status send(const MessageRef& m) = 0;

  /// Edge helper for owned messages: sends a MessageRef over `m`.
  [[nodiscard]] Status send(const Message& m) { return send(RefOf(m).ref()); }

  /// Installs the receive handler (nullptr uninstalls). Messages that
  /// arrived before the handler was installed are replayed to it, in
  /// arrival order, before this call returns.
  virtual void setViewHandler(ViewHandler handler) = 0;

  /// Edge helper for consumers that keep what they receive: installs a
  /// view handler that materializes each message with toMessage().
  void setHandler(Handler handler);

  /// Installs a disconnect callback, invoked once when the peer goes away
  /// (socket EOF / peer close). Optional.
  virtual void setCloseHandler(std::function<void()> handler) = 0;

  /// Closes the endpoint; new sends fail, already-queued sends are
  /// flushed (bounded by a grace period if the peer stops reading), then
  /// the peer observes EOF.
  virtual void close() = 0;

  /// True until close() (or peer disconnect for sockets).
  [[nodiscard]] virtual bool isOpen() const = 0;

  /// Which data plane this endpoint currently uses: "inproc", "socket" or
  /// "shm". A negotiating wrapper's answer can change once — from
  /// "socket" to "shm" — when the hello handshake settles.
  [[nodiscard]] virtual std::string_view kindName() const {
    return "unknown";
  }
};

/// Creates a connected in-process transport pair.
[[nodiscard]] std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcPair();

/// Listening Unix-domain socket. Accepted connections are registered with
/// the process-wide epoll reactor and handed to the callback as
/// Transports; no per-connection threads are created.
class UnixSocketServer {
 public:
  using ConnectionHandler = std::function<void(std::unique_ptr<Transport>)>;

  /// Binds and listens at `path` (unlinking a stale socket file first).
  explicit UnixSocketServer(std::string path);
  ~UnixSocketServer();
  UnixSocketServer(const UnixSocketServer&) = delete;
  UnixSocketServer& operator=(const UnixSocketServer&) = delete;

  /// Starts the accept loop on a background thread.
  [[nodiscard]] Status start(ConnectionHandler onConnection);

  /// Stops accepting and joins the accept thread.
  void stop();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string path_;
};

/// Connects to a UnixSocketServer. When shm negotiation is enabled
/// (SIMFS_SHM unset or != 0) the returned transport is wrapped in the
/// same-host shm negotiator: a kHello sent through it offers a shared-
/// memory ring pair to the peer and the session upgrades transparently if
/// the daemon accepts (see shm_transport.hpp). Endpoints that never send
/// kHello (daemon peer links, raw tools) behave exactly as before.
[[nodiscard]] Result<std::unique_ptr<Transport>> unixSocketConnect(
    const std::string& path);

}  // namespace simfs::msg
