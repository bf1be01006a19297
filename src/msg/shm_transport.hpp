// Same-host shared-memory transport and its kHello negotiation.
//
// The data plane is a per-connection POSIX shm segment holding two SPSC
// rings (see shm_ring.hpp). The companion Unix socket stays open for the
// whole session but carries no traffic once the upgrade settles — its
// only remaining job is crash detection: a peer that dies (even SIGKILL)
// closes its socket fd, the surviving side observes EOF and tears the shm
// session down exactly like a socket loss, so Session's rebind/resend
// machinery needs no new code path.
//
// Negotiation (rides kHello, fully backward compatible):
//
//   client                               daemon
//     | kHello{caps|=shm, text=key}  ->    |   (socket)
//     |                                    |  accept: map segment, swap the
//     |    <- kHelloAck{choice=shm}        |   session transport, ack on the
//     |        (RING)                      |   RING
//     |    <- kHelloAck/kRedirect/kError   |  decline / old daemon: answer on
//     |        (socket)                    |   the socket as always
//
// The client wrapper buffers every send between the hello and the ack as
// an encoded frame, and flushes the buffer onto the chosen channel before
// any later send may use it, so after the handshake settles exactly ONE
// channel has ever carried traffic — per-session FIFO ordering survives
// the upgrade, also for sends racing the flush from other threads. An old
// daemon simply ignores the offer fields and answers on the socket; an
// old client never sets the capability bit and the daemon never upgrades.
//
// Knobs: SIMFS_SHM=0 disables the offer (client) and acceptance (daemon);
// SIMFS_SHM_RING_SLOTS sizes each direction's ring (default 1024 slots of
// kShmSlotBytes).
#pragma once

#include "common/status.hpp"
#include "msg/transport.hpp"

#include <memory>
#include <string>

namespace simfs::msg {

/// True unless SIMFS_SHM=0 — gates both the client offer and the daemon's
/// acceptance. Read per call, so tests can flip it between connections.
[[nodiscard]] bool shmNegotiationEnabled();

/// Client side: wraps a freshly-dialed socket transport in the shm
/// negotiator described above. Called by unixSocketConnect; the wrapper
/// is a pure passthrough until (and unless) a kHello flows through it.
[[nodiscard]] std::unique_ptr<Transport> wrapShmClient(
    std::unique_ptr<Transport> socket);

/// Daemon side: maps the client-created segment named `key`, takes
/// ownership of the session's socket transport and returns the combined
/// shm transport — the caller then sends its kHelloAck through it (i.e.
/// over the ring, which IS the accept signal). Returns nullptr on any
/// validation/mapping failure, leaving `socket` untouched so the caller
/// falls back to the socket path. The segment is shm_unlink()ed as soon
/// as it is mapped: no crash can leak it.
[[nodiscard]] std::unique_ptr<Transport> shmAdoptServer(
    const std::string& key, std::unique_ptr<Transport>& socket);

}  // namespace simfs::msg
