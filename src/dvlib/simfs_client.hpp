// DVLib client (Sec. III-C): the paper-shaped library analyses link
// against — now a THIN ADAPTER over the asynchronous vectored Session
// core (dvlib/session.hpp).
//
// SimFSClient keeps the paper's exact call shapes:
//
//   SIMFS_Init / SIMFS_Finalize        -> connect() / finalize()
//   SIMFS_Acquire / SIMFS_Acquire_nb   -> acquire() / acquireNb()
//   SIMFS_Wait/Test/Waitsome/Testsome  -> wait()/test()/waitSome()/testSome()
//   SIMFS_Release                      -> release()
//   SIMFS_Bitrep                       -> bitrep()
//
// but every acquire — blocking or not, 1 file or 64 — is now ONE
// kOpenBatchReq round trip resolved by the Session core. RequestIds map 1:1 onto AcquireHandles
// held in a small table; wait/test/waitSome/testSome delegate to the
// handle and erase the entry on completion, reproducing the original
// consume-on-completion semantics. cancel() exposes the core's
// first-class cancellation for non-blocking requests. A failed acquire()
// unwinds its partial registration (the files that resolved before the
// failure release their DV interest) instead of leaking pinned steps.
//
// The transparent-mode primitives used by the I/O facades — open(),
// waitFile(), closeNotify() — pass through to the Session, as do the
// federation semantics (routing-aware connect, redirect-follow, ring
// adoption); see session.hpp for the full contract. The legacy
// single-transport connect() keeps working unchanged.
//
// Thread-safety: all public methods may be called from any thread.
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"
#include "dvlib/router.hpp"
#include "dvlib/session.hpp"
#include "msg/transport.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace simfs::dvlib {

/// Handle of a non-blocking acquire (the paper's SIMFS_Req).
using RequestId = std::uint64_t;

class SimFSClient {
 public:
  /// Result of a non-blocking open.
  using OpenInfo = Session::OpenInfo;

  /// Connects over `transport` and opens a session on `context`
  /// (SIMFS_Init). Blocks for the handshake.
  [[nodiscard]] static Result<std::unique_ptr<SimFSClient>> connect(
      std::unique_ptr<msg::Transport> transport, const std::string& context);

  /// Routing-aware SIMFS_Init against a federation: resolves `context`'s
  /// owner through the router's ring, dials (or reuses a pooled
  /// connection to) that node and follows redirects until a daemon
  /// accepts the session.
  [[nodiscard]] static Result<std::unique_ptr<SimFSClient>> connect(
      std::shared_ptr<NodeRouter> router, const std::string& context);

  ~SimFSClient();
  SimFSClient(const SimFSClient&) = delete;
  SimFSClient& operator=(const SimFSClient&) = delete;

  /// SIMFS_Acquire: ONE vectored round trip, blocks until every file is
  /// available (or one fails, unwinding the partial registration).
  [[nodiscard]] Status acquire(const std::vector<std::string>& files,
                               SimfsStatus* status = nullptr);

  /// SIMFS_Acquire_nb: registers interest (one vectored round trip for
  /// the ack, so `status` carries the DV's estimates), returns a request
  /// handle immediately — completion is asynchronous.
  [[nodiscard]] Result<RequestId> acquireNb(const std::vector<std::string>& files,
                                            SimfsStatus* status = nullptr);

  /// SIMFS_Wait: blocks until the request completes (consumes it).
  [[nodiscard]] Status wait(RequestId req, SimfsStatus* status = nullptr);

  /// SIMFS_Test: non-blocking completion check (consumes when complete).
  [[nodiscard]] Status test(RequestId req, bool* done,
                            SimfsStatus* status = nullptr);

  /// SIMFS_Waitsome: blocks until at least one file of the request is
  /// ready; returns the indices ready so far.
  [[nodiscard]] Status waitSome(RequestId req, std::vector<int>* readyIdx,
                                SimfsStatus* status = nullptr);

  /// SIMFS_Testsome: non-blocking subset check.
  [[nodiscard]] Status testSome(RequestId req, std::vector<int>* readyIdx,
                                SimfsStatus* status = nullptr);

  /// Cancels a non-blocking request: releases every waiter entry / step
  /// reference its batch registered at the DV and consumes the handle.
  [[nodiscard]] Status cancel(RequestId req);

  /// SIMFS_Release.
  [[nodiscard]] Status release(const std::string& file);

  /// SIMFS_Bitrep: compares the digest (computed over the locally read
  /// content) against the reference recorded at initial-simulation time.
  [[nodiscard]] Result<bool> bitrep(const std::string& file,
                                    std::uint64_t digest);

  // --- transparent-mode primitives -------------------------------------------

  /// Intercepted open: non-blocking; on a miss the DV starts the
  /// re-simulation and this client later unblocks waitFile().
  [[nodiscard]] Result<OpenInfo> open(const std::string& file);

  /// Intercepted read's blocking point: waits until `file` (previously
  /// open()ed or acquired) is available on disk.
  [[nodiscard]] Status waitFile(const std::string& file);

  /// Intercepted close: fire-and-forget dereference.
  void closeNotify(const std::string& file);

  /// SIMFS_Finalize: closes the session (idempotent).
  void finalize();

  /// The asynchronous session core (pipelined acquires, continuations,
  /// per-file probes) for callers that outgrow the paper API.
  [[nodiscard]] const std::shared_ptr<Session>& session() const noexcept {
    return session_;
  }

  [[nodiscard]] const std::string& context() const noexcept {
    return session_->context();
  }
  [[nodiscard]] ClientId clientId() const noexcept {
    return session_->clientId();
  }

 private:
  explicit SimFSClient(std::shared_ptr<Session> session);

  /// Looks a request's handle up (copy; handles are shared tokens).
  [[nodiscard]] Result<AcquireHandle> findRequest(RequestId req);

  /// Consume-on-completion semantics of the paper API: drops the table
  /// entry once the request reached a terminal state.
  void eraseIfComplete(RequestId req, const AcquireHandle& handle);

  std::shared_ptr<Session> session_;

  std::mutex mutex_;
  std::map<RequestId, AcquireHandle> requests_;
  RequestId nextRequest_ = 1;
};

}  // namespace simfs::dvlib
