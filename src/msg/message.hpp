// DV <-> DVLib protocol messages (the "TCP/IP control messages" of Fig. 4).
//
// One compact tagged struct covers the whole protocol; the fields a given
// message type uses are documented next to the type. Encoding is a simple
// length-prefixed binary format (little-endian) so the same messages flow
// over the in-process transport and Unix-domain sockets unchanged.
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"
#include "msg/wire.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace simfs::msg {

/// Protocol message types.
enum class MsgType : std::uint16_t {
  // --- session setup -------------------------------------------------------
  kHello = 1,      ///< client->DV: context=ctx name, intArg=role (ClientRole).
                   ///< Transport negotiation (additive, PR 7): intArg2 is a
                   ///< bitmask of client transport capabilities (0 = legacy
                   ///< client, socket only) and text carries the client's shm
                   ///< segment key when kHelloCapShm is set. Old daemons
                   ///< ignore both fields — the offer degrades transparently.
  kHelloAck = 2,   ///< DV->client: code=status, intArg=assigned client id.
                   ///< intArg2=TransportChoice the daemon selected; 0
                   ///< (kLegacy) from old daemons AND whenever the client did
                   ///< not advertise capabilities, so acks to legacy clients
                   ///< stay byte-identical to the pre-negotiation protocol.

  // Values 3, 4, 6 and 7 are retired (single-file open/acquire ops, now
  // served by kOpenBatchReq); do not reuse. Every op from here on carries
  // an explicit value so the live wire bytes stay unchanged.

  // --- analysis-side data access (Sec. III-A, III-C) -----------------------
  kCloseNotify = 5,  ///< files[]: close interception (deref), no reply.
                   ///< Served by the kReleaseReq release loop.
  kReleaseReq = 8,  ///< files[]: SIMFS_Release. Vectored like kOpenBatchReq:
                   ///< the daemon drops every file's reference under ONE
                   ///< shard-lock acquisition.
  kReleaseAck = 9, ///< code=worst per-file status, intArg=#refs released
  kBitrepReq = 10, ///< files[0]=name: SIMFS_Bitrep
  kBitrepAck = 11, ///< code=status, intArg: 1 bitwise match, 0 mismatch
  kFileReady = 12, ///< DV->client: files[0]=name, code=status (also failures)

  // --- simulator-side events (Sec. III-B) -----------------------------------
  // Values 13 and 14 are retired (simulator hello / file-created events
  // that nothing sent or served); do not reuse.
  kSimFileClosed = 15, ///< files[0]=name, intArg=size: file is ready on disk
  kSimFinished = 16, ///< job completed; code=status (failures propagate)

  // --- introspection ----------------------------------------------------------
  kStatusReq = 17, ///< ask the DV for its aggregate statistics
  kStatusAck = 18, ///< text="key=value;..." dump, intArg=stepsProduced

  // --- generic --------------------------------------------------------------
  kError = 19,     ///< code=status, text=message

  // --- introspection (daemon pipeline) ---------------------------------------
  kShardStatsReq = 20, ///< ask the daemon for per-shard serving counters
  kShardStatsAck = 21, ///< files[i]="key=value;..." per shard, intArg=#shards,
                   ///< text="shards=N;workers=M"

  // --- federation (consistent-hash context routing) --------------------------
  kRedirect = 22,  ///< DV->client: context is owned by another node.
                   ///< context=ctx, text=owner node id, files[i]=ring
                   ///< entries "id=endpoint", intArg=ring version.
  kRingReq = 23,   ///< ask a daemon for its ring membership table
  kRingUpdate = 24, ///< DV->client: files[i]="id=endpoint", intArg=ring
                   ///< version, text=answering node's id. Sent as the
                   ///< kRingReq reply and pushed when a daemon learns a
                   ///< newer table; receivers re-resolve routing.

  // --- vectored session ops (async DVLib core) --------------------------------
  kOpenBatchReq = 25, ///< files[]: open N files in ONE round trip. The daemon
                   ///< resolves the whole batch under a single shard-lock
                   ///< acquisition; per-file outcomes come back in the ack.
                   ///< intArg2=relative deadline budget (ns, 0 = none): the
                   ///< daemon converts it to an absolute shard deadline at
                   ///< dispatch, and re-simulations whose waiters have all
                   ///< expired or cancelled are killed. Relative on the wire
                   ///< so cross-process clock skew cannot shift it.
  kOpenBatchAck = 26, ///< code/text=worst per-file status. Outcome pairs are
                   ///< positional (request order): ints[2i]=per-file
                   ///< StatusCode*2 + (1 if already available),
                   ///< ints[2i+1]=per-file estimated wait (ns).
                   ///< intArg=#immediately available, intArg2=max
                   ///< estimated wait across the batch.
  kCancelReq = 27, ///< files[]: release DV interest registered by an
                   ///< abandoned acquire — per file, either the client's
                   ///< waiter entry (still pending) or one output-step
                   ///< reference (already delivered). Never shed: dropping
                   ///< a cancel would leak pinned cache slots. requestId 0
                   ///< = fire-and-forget (no ack), the DVLib default.
  kCancelAck = 28, ///< code=status, intArg=#files whose interest was freed
                   ///< (only sent for cancels with requestId != 0)

  // --- liveness (peer health / probing) ---------------------------------------
  kPing = 29,      ///< liveness probe: intArg=sender's monotonic sequence
                   ///< number. Sent daemon->daemon as the peer heartbeat and
                   ///< by `simfsctl ping`; answered inline, never queued.
  kPong = 30,      ///< probe reply: intArg echoes the ping sequence,
                   ///< text=answering node's id

  // Values 31-33 are retired; the ops below keep their wire values.

  // --- context geometry (POSIX frontend namespace synthesis) ------------------
  kGeometryReq = 34,  ///< ask a daemon for a context's step/file geometry so
                   ///< a POSIX adapter can synthesize listings and stat
                   ///< results without opening anything. context="" asks
                   ///< for the context enumeration instead. Answered inline
                   ///< on the dispatching thread (geometry is static config,
                   ///< registered on every node, so no kRedirect is needed).
  kGeometryAck = 35,  ///< context form: ints[] = [deltaD, deltaR,
                   ///< numTimesteps, outputStepBytes, padWidth], files[] =
                   ///< [outputPrefix, outputSuffix], intArg =
                   ///< numOutputSteps, text = answering node's id, code =
                   ///< status (kNotFound for an unknown context).
                   ///< Enumeration form (req context ""): files[] =
                   ///< registered context names, intArg = count, ints[]
                   ///< empty. Decoders must length-check both lists like
                   ///< every other ack — a hostile peer controls them.

  // --- elastic membership (ring admin + live context handoff) ---------------
  kRingPropose = 36,  ///< admin/peer->DV: stage a membership change.
                   ///< files[] = proposed ring entries ("id=endpoint"),
                   ///< intArg = proposed ring version (must exceed the
                   ///< current one). The first receiver (hops == 0) relays
                   ///< the proposal to every member of old ∪ new
                   ///< membership; each node that loses a context starts
                   ///< streaming its kContextHandoff snapshot to the new
                   ///< owner while still serving it.
  kRingProposeAck = 37,  ///< DV->admin: code=status, intArg=proposed
                   ///< version, intArg2=#contexts changing owner, files[] =
                   ///< the moved contexts as "ctx:oldOwner>newOwner".
  kRingCommit = 38,  ///< admin/peer->DV: commit a proposed change. Same
                   ///< payload as kRingPropose (entries travel again, so a
                   ///< node that missed the proposal still converges). The
                   ///< receiver adopts the ring, applies staged handoff
                   ///< imports whose epoch matches, and relays when hops ==
                   ///< 0. Old owners flip moved contexts to redirect mode
                   ///< at this point.
  kRingCommitAck = 39,  ///< DV->admin: code=status, intArg=committed
                   ///< version.
  kContextHandoff = 40,  ///< old owner->new owner: one snapshot frame of a
                   ///< moving context. context=name, intArg=epoch (the ring
                   ///< version the transfer belongs to — the fence),
                   ///< text=sender's node id. Data frame (intArg2 bit0
                   ///< clear): ints[] = available StepIndex values (≤
                   ///< SIMFS_HANDOFF_BATCH per frame). Final frame (intArg2
                   ///< bit0 set): ints[] = [totalRefs, (pendingStep,
                   ///< waiters)...] — the pending steps clients are still
                   ///< owed, so the new owner can warm-launch their
                   ///< re-simulations. Frames with epoch < the receiver's
                   ///< committed version are rejected (stale); epoch ==
                   ///< current applies immediately (post-commit delta);
                   ///< epoch > current is staged until kRingCommit.
  kContextHandoffAck = 41,  ///< new owner->old owner: context, code=status,
                   ///< intArg echoes the epoch, intArg2=1 when acking the
                   ///< final frame (the commit point of the transfer),
                   ///< text=acking node's id.
};

/// Who is connecting (intArg of kHello).
enum class ClientRole : std::int64_t { kAnalysis = 0, kSimulator = 1 };

/// kHello.intArg2 capability bit: the client can map a same-host shared-
/// memory ring pair; kHello.text then names its shm segment.
inline constexpr std::int64_t kHelloCapShm = 1;

/// kHello.intArg2 capability bit 2 is retired; daemons ignore it.

/// kHello.intArg2 capability bit: the client speaks versioned protocol —
/// kHello.ints = [minVersion, maxVersion] it can serve, and the daemon
/// answers kHelloAck.ints = [chosenVersion] (the top of the intersection)
/// or rejects the hello with kFailedPrecondition when the ranges do not
/// overlap. Hellos without this bit (and the acks to them) are
/// byte-identical to the pre-negotiation protocol, which is what lets a
/// mixed-version ring upgrade rolling instead of in lockstep.
inline constexpr std::int64_t kHelloCapVersion = 4;

/// Protocol versions this build can speak. Version 1 is everything up to
/// the static-ring protocol; version 2 adds the elastic-membership ops
/// (kRingPropose/kRingCommit/kContextHandoff) and the version handshake
/// itself. kPing.intArg2 / kPong.intArg2 carry the same negotiation
/// additively (0 = legacy peer) so operators can read a node's negotiated
/// version without binding a session.
inline constexpr std::int64_t kProtocolVersionMin = 1;
inline constexpr std::int64_t kProtocolVersionMax = 2;

/// kHelloAck.intArg2: which data plane the daemon chose for this session.
/// kLegacy (0) doubles as "the daemon predates negotiation" — both sides
/// then behave exactly like the socket path.
enum class TransportChoice : std::int64_t {
  kLegacy = 0,
  kSocket = 1,
  kShm = 2,
  // 3 is retired (was a second socket reactor backend); do not reuse.
};

/// The one protocol message shape.
struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t requestId = 0;   ///< echoes the request on replies
  std::string context;           ///< simulation context name
  std::vector<std::string> files;
  /// Type-specific scalar list (e.g. the per-file outcome pairs of
  /// kOpenBatchAck). Encoded after `files`.
  std::vector<std::int64_t> ints;
  std::int32_t code = 0;         ///< StatusCode as int
  std::int64_t intArg = 0;       ///< type-specific scalar
  std::int64_t intArg2 = 0;      ///< second scalar (e.g. estimated wait)
  /// Federation forwarding hop count. A daemon only relays messages with
  /// hops == 0 and increments it on the relayed copy, so disagreeing
  /// rings can never ping-pong a message between nodes.
  std::uint16_t hops = 0;
  std::string text;              ///< human-readable detail

  friend bool operator==(const Message&, const Message&) = default;
};

/// Non-owning message for the zero-copy send path: the same fields as
/// Message, but every string is a view and the lists are spans. Callers
/// keep the referenced storage alive until the send call returns (the
/// transport serializes into its own pooled buffer before queueing).
/// The daemon builds replies as MessageRefs over per-shard arena memory.
struct MessageRef {
  MsgType type = MsgType::kError;
  std::uint64_t requestId = 0;
  std::string_view context;
  std::span<const std::string_view> files;
  std::span<const std::int64_t> ints;
  std::int32_t code = 0;
  std::int64_t intArg = 0;
  std::int64_t intArg2 = 0;
  std::uint16_t hops = 0;
  std::string_view text;
};

/// Non-owning view over one encoded message, decoding IN PLACE from the
/// transport's receive buffer: scalars are parsed eagerly (cheap), the
/// context/text strings are string_views into the buffer, and files[] /
/// ints[] decode lazily through forward iterators. parse() validates the
/// whole buffer up front (hostile counts, truncation, trailing bytes —
/// exactly the checks decode() applies), so iteration afterwards is
/// unchecked and allocation-free.
///
/// Lifetime: a view (and everything it hands out) is valid only while the
/// underlying buffer is; transports guarantee it for the duration of the
/// receive callback and not a moment longer. Anything that outlives the
/// callback must be copied out (toMessage(), or an arena copy).
class MessageView {
 public:
  /// Validates `payload` (an encode()d message, no outer frame) and
  /// builds the view. Failure modes and messages match decode().
  [[nodiscard]] static Result<MessageView> parse(std::string_view payload);

  [[nodiscard]] MsgType type() const noexcept { return type_; }
  [[nodiscard]] std::uint64_t requestId() const noexcept { return requestId_; }
  [[nodiscard]] std::int32_t code() const noexcept { return code_; }
  [[nodiscard]] std::int64_t intArg() const noexcept { return intArg_; }
  [[nodiscard]] std::int64_t intArg2() const noexcept { return intArg2_; }
  [[nodiscard]] std::uint16_t hops() const noexcept { return hops_; }
  [[nodiscard]] std::string_view context() const noexcept { return context_; }
  [[nodiscard]] std::string_view text() const noexcept { return text_; }

  [[nodiscard]] std::size_t fileCount() const noexcept { return nFiles_; }
  [[nodiscard]] std::size_t intCount() const noexcept { return nInts_; }

  /// Forward iterator over files[], decoding each length-prefixed entry
  /// in place.
  class FileIterator {
   public:
    FileIterator() = default;
    FileIterator(const char* at, std::size_t remaining)
        : at_(at), remaining_(remaining) {}
    [[nodiscard]] std::string_view operator*() const;
    FileIterator& operator++();
    [[nodiscard]] bool operator==(const FileIterator& o) const noexcept {
      return remaining_ == o.remaining_;
    }

   private:
    const char* at_ = nullptr;
    std::size_t remaining_ = 0;  ///< entries left including *this
  };

  /// Forward iterator over ints[]; entries are byte-decoded, so the
  /// region needs no alignment.
  class IntIterator {
   public:
    IntIterator() = default;
    IntIterator(const char* at, std::size_t remaining)
        : at_(at), remaining_(remaining) {}
    [[nodiscard]] std::int64_t operator*() const;
    IntIterator& operator++() {
      at_ += 8;
      --remaining_;
      return *this;
    }
    [[nodiscard]] bool operator==(const IntIterator& o) const noexcept {
      return remaining_ == o.remaining_;
    }

   private:
    const char* at_ = nullptr;
    std::size_t remaining_ = 0;
  };

  [[nodiscard]] FileIterator filesBegin() const noexcept {
    return {filesRegion_.data(), nFiles_};
  }
  [[nodiscard]] FileIterator filesEnd() const noexcept { return {nullptr, 0}; }
  [[nodiscard]] IntIterator intsBegin() const noexcept {
    return {intsRegion_.data(), nInts_};
  }
  [[nodiscard]] IntIterator intsEnd() const noexcept { return {nullptr, 0}; }

  /// First file, or empty when the list is (most handlers only need
  /// files[0]).
  [[nodiscard]] std::string_view file0() const noexcept {
    return nFiles_ == 0 ? std::string_view() : *filesBegin();
  }

  /// Materializes an owned Message (the legacy decode() result).
  [[nodiscard]] Message toMessage() const;

 private:
  MsgType type_ = MsgType::kError;
  std::uint64_t requestId_ = 0;
  std::int32_t code_ = 0;
  std::int64_t intArg_ = 0;
  std::int64_t intArg2_ = 0;
  std::uint16_t hops_ = 0;
  std::string_view context_;
  std::string_view text_;
  std::string_view filesRegion_;  ///< the validated files[] byte region
  std::string_view intsRegion_;   ///< the validated ints[] byte region
  std::size_t nFiles_ = 0;
  std::size_t nInts_ = 0;
};

/// Serializes `m` as ONE COMPLETE FRAME (u32 length prefix + payload)
/// directly into `out`: beginFrame / payload bytes / endFrame, no
/// intermediate string and no re-copy. out.payload() is byte-identical
/// to encode(m) — pinned by the golden-bytes test.
void encodeInto(const Message& m, WireBuffer& out);
void encodeInto(const MessageRef& m, WireBuffer& out);

/// Exact encode()d payload size of `m` (no outer frame header), computed
/// arithmetically without serializing — how the shm transport reserves a
/// ring extent before encoding straight into it.
[[nodiscard]] std::size_t encodedSize(const Message& m);
[[nodiscard]] std::size_t encodedSize(const MessageRef& m);

/// Serializes `m`'s payload (no outer frame) into caller-provided memory.
/// Writes exactly encodedSize(m) bytes; the bytes are identical to
/// encode(m). The shm send path uses this to encode directly into a
/// reserved ring slot — zero intermediate buffers.
void encodeToBuffer(const Message& m, char* dst);
void encodeToBuffer(const MessageRef& m, char* dst);

/// Materializes an owned Message from a send ref (legacy-transport
/// interop; the zero-copy paths never call this).
[[nodiscard]] Message materialize(const MessageRef& m);

/// Deep-copies a view into `arena` and returns a MessageRef over the
/// stable arena storage — how a request outlives the receive buffer
/// without touching the heap (the daemon's queued shard requests).
[[nodiscard]] MessageRef copyToArena(const MessageView& v, Arena& arena);

/// Serializes a message (without any outer framing). Thin wrapper over
/// encodeInto, kept for tests and cold paths.
[[nodiscard]] std::string encode(const Message& m);

/// Parses an encode()d buffer into an owned Message. Thin wrapper over
/// MessageView::parse + toMessage, kept for tests and cold paths.
[[nodiscard]] Result<Message> decode(std::string_view data);

/// Frames a payload with a u32 length prefix for stream transports.
[[nodiscard]] std::string frame(std::string_view payload);

}  // namespace simfs::msg
