#include "msg/shm_transport.hpp"

#include "common/env.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "msg/handler_slot.hpp"
#include "msg/shm_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace simfs::msg {
namespace {

constexpr char kShmMagic[8] = {'S', 'I', 'M', 'F', 'S', 'H', 'M', '1'};

/// How long a producer may wait on a full ring before declaring the peer
/// dead. Matches the socket path's philosophy (bounded patience with a
/// peer that stopped draining), just with a block instead of a buffer.
constexpr auto kSendTimeout = std::chrono::seconds(5);

/// Consumer poll slice; the loop re-checks its stop flag at this cadence.
constexpr auto kConsumeSlice = std::chrono::milliseconds(100);

[[nodiscard]] std::size_t ringBytesFromEnv() {
  std::int64_t slots = 1024;
  if (const auto v = env::getInt("SIMFS_SHM_RING_SLOTS")) {
    slots = std::clamp<std::int64_t>(*v, 16, 1 << 20);
  }
  return static_cast<std::size_t>(slots) * kShmSlotBytes;
}

/// RAII mapping of one connection's segment. The creator (client) keeps
/// `unlinkKey` set as a backstop — the server unlinks the name the moment
/// it maps, and the duplicate unlink fails with ENOENT, harmlessly.
struct ShmSegment {
  std::string key;
  void* base = nullptr;
  std::size_t bytes = 0;
  bool unlinkKey = false;

  [[nodiscard]] ShmSegmentHdr* hdr() const noexcept {
    return static_cast<ShmSegmentHdr*>(base);
  }
  [[nodiscard]] char* c2sData() const noexcept {
    return static_cast<char*>(base) + sizeof(ShmSegmentHdr);
  }
  [[nodiscard]] char* s2cData() const noexcept {
    return c2sData() + hdr()->ringBytes;
  }

  ~ShmSegment() {
    if (base != nullptr) ::munmap(base, bytes);
    if (unlinkKey) (void)::shm_unlink(key.c_str());
  }
};

/// Client side: creates and initializes a fresh segment. nullptr on any
/// failure — the caller then simply keeps the socket path.
std::unique_ptr<ShmSegment> createSegment() {
  static std::atomic<std::uint64_t> seq{0};
  const std::size_t ringBytes = ringBytesFromEnv();
  auto seg = std::make_unique<ShmSegment>();
  seg->key = "/simfs-" + std::to_string(::getpid()) + "-" +
             std::to_string(seq.fetch_add(1));
  seg->bytes = shmSegmentBytes(ringBytes);
  const int fd =
      ::shm_open(seg->key.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return nullptr;
  seg->unlinkKey = true;
  if (::ftruncate(fd, static_cast<off_t>(seg->bytes)) != 0) {
    ::close(fd);
    return nullptr;
  }
  seg->base = ::mmap(nullptr, seg->bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);
  if (seg->base == MAP_FAILED) {
    seg->base = nullptr;
    return nullptr;
  }
  auto* h = new (seg->base) ShmSegmentHdr();
  std::memcpy(h->magic, kShmMagic, sizeof(kShmMagic));
  h->version = kShmVersion;
  h->slotBytes = static_cast<std::uint32_t>(kShmSlotBytes);
  h->ringBytes = ringBytes;
  h->closed.store(0, std::memory_order_relaxed);
  h->serverAttached.store(0, std::memory_order_relaxed);
  ShmRing::initHeader(&h->c2s);
  ShmRing::initHeader(&h->s2c);
  return seg;
}

/// Server side: maps and validates a client-created segment. Every field
/// is checked against the mapped size before any ring code trusts it — a
/// hostile client controls this memory.
std::unique_ptr<ShmSegment> openSegment(const std::string& key) {
  if (key.empty() || key.front() != '/' || key.size() > 200) return nullptr;
  const int fd = ::shm_open(key.c_str(), O_RDWR, 0);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(ShmSegmentHdr)) {
    ::close(fd);
    return nullptr;
  }
  auto seg = std::make_unique<ShmSegment>();
  seg->key = key;
  seg->bytes = static_cast<std::size_t>(st.st_size);
  seg->base =
      ::mmap(nullptr, seg->bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (seg->base == MAP_FAILED) {
    seg->base = nullptr;
    return nullptr;
  }
  ShmSegmentHdr* h = seg->hdr();
  const std::size_t ringBytes = h->ringBytes;
  if (std::memcmp(h->magic, kShmMagic, sizeof(kShmMagic)) != 0 ||
      h->version != kShmVersion || h->slotBytes != kShmSlotBytes ||
      ringBytes < 16 * kShmSlotBytes || ringBytes > (1u << 30) ||
      ringBytes % kShmSlotBytes != 0 ||
      shmSegmentBytes(ringBytes) != seg->bytes) {
    return nullptr;
  }
  // Unlink immediately: the name served only to hand the mapping over,
  // and with it gone no crash on either side can leak the segment.
  (void)::shm_unlink(key.c_str());
  h->serverAttached.store(1, std::memory_order_release);
  return seg;
}

/// The shm transport. One class serves both roles:
///   * client (wrapClient): starts as a transparent passthrough over the
///     dialed socket, negotiates on the first kHello, and either upgrades
///     to the rings or settles back to pure passthrough.
///   * server (adoptServer): born settled on shm — the daemon only
///     constructs it after deciding to accept, and its first send (the
///     kHelloAck, over the ring) is what tells the client so.
class ShmTransport final : public Transport {
  /// kSettling: the daemon has answered and pending_ is being flushed to
  /// the chosen channel; sends still buffer behind the flush.
  enum class State { kPassthrough, kNegotiating, kSettling, kShm, kSocket };

 public:
  ShmTransport(std::unique_ptr<Transport> socket,
               std::unique_ptr<ShmSegment> segment, bool isServer)
      : socket_(std::move(socket)),
        segment_(std::move(segment)),
        isServer_(isServer),
        closedBit_(isServer ? kShmClosedServer : kShmClosedClient) {
    if (isServer_) {
      state_ = State::kShm;
      bindRings();
      startConsumer();
    }
    socket_->setViewHandler(
        [this](const MessageView& v) { onSocketMessage(v); });
    // socketGone=true: the socket is the one reporting the loss, so
    // onPeerGone must not call back into it (it may already be inside its
    // own teardown when this fires).
    socket_->setCloseHandler([this] { onPeerGone(/*socketGone=*/true); });
  }

  ~ShmTransport() override {
    close();
    stopConsumer();
    // Neutralize the socket callbacks (they capture `this`), then let the
    // socket's own destructor handshake wait out any in-flight delivery.
    socket_->setViewHandler(nullptr);
    socket_->setCloseHandler(nullptr);
    // Quiesce via the socket's destructor WITHOUT nulling the member
    // first: a close callback copied out before the null-install above
    // can still fire onPeerGone during the destructor's deregister
    // handshake, and it must find socket_ pointing at valid memory.
    // (unique_ptr::reset() clears the pointer before deleting — exactly
    // the window that crashed.)
    delete socket_.get();
    (void)socket_.release();
  }

  Status send(const MessageRef& m) override {
    std::unique_lock lock(mutex_);
    switch (state_) {
      case State::kPassthrough:
        if (m.type == MsgType::kHello && shmNegotiationEnabled()) {
          return startNegotiation(m, lock);
        }
        [[fallthrough]];
      case State::kSocket:
        lock.unlock();
        return socket_->send(m);
      case State::kNegotiating:
      case State::kSettling: {
        // FIFO across the upgrade: nothing may travel on either channel
        // until the daemon's answer picks the one channel this session
        // will ever use, and the buffered frames have gone out on it. The
        // handshake is one RTT; the buffer stays tiny.
        WireBuffer frame = detail::acquireScratch();
        encodeInto(m, frame);
        pending_.push_back(std::move(frame));
        return Status::ok();
      }
      case State::kShm:
        lock.unlock();
        return shmSend(m);
    }
    return errInternal("shm: unreachable");
  }

  void setViewHandler(ViewHandler handler) override {
    detail::installAndReplay(slotMutex_, slot_, std::move(handler));
  }

  void setCloseHandler(std::function<void()> handler) override {
    std::function<void()> fire;
    {
      std::lock_guard lock(slotMutex_);
      closeHandler_ = std::move(handler);
      if (closePending_ && !closeNotified_) {
        closeNotified_ = true;
        closePending_ = false;
        fire = closeHandler_;
      }
    }
    if (fire) fire();
  }

  void close() override {
    bool expected = false;
    if (!closedLocally_.compare_exchange_strong(expected, true)) return;
    open_.store(false);
    {
      // mutex_ orders this against startNegotiation's segment/ring setup
      // on a concurrent sender thread.
      std::lock_guard lock(mutex_);
      if (segment_) {
        segment_->hdr()->closed.fetch_or(closedBit_, std::memory_order_seq_cst);
        wakeRings();
      }
    }
    stop_.store(true);
    // The socket close gives the peer the same EOF it would see on a
    // plain socket session — one teardown path for both planes.
    socket_->close();
  }

  bool isOpen() const override { return open_.load(); }

  std::string_view kindName() const override {
    std::lock_guard lock(mutex_);
    return state_ == State::kShm ? "shm" : "socket";
  }

 private:
  void bindRings() {
    ShmSegmentHdr* h = segment_->hdr();
    const auto ringBytes = static_cast<std::size_t>(h->ringBytes);
    // Client produces commands (c2s) and consumes completions (s2c); the
    // server is the mirror image.
    if (isServer_) {
      sendRing_.emplace(&h->s2c, segment_->s2cData(), ringBytes, &h->closed);
      recvRing_.emplace(&h->c2s, segment_->c2sData(), ringBytes, &h->closed);
    } else {
      sendRing_.emplace(&h->c2s, segment_->c2sData(), ringBytes, &h->closed);
      recvRing_.emplace(&h->s2c, segment_->s2cData(), ringBytes, &h->closed);
    }
  }

  void startConsumer() {
    std::lock_guard lock(joinMutex_);
    consumer_ = std::thread([this] { consumerMain(); });
  }

  void stopConsumer() {
    stop_.store(true);
    {
      std::lock_guard lock(mutex_);
      if (segment_) {
        segment_->hdr()->closed.fetch_or(closedBit_, std::memory_order_seq_cst);
        wakeRings();
      }
    }
    // Claim the thread handle under a lock: stopConsumer races with itself
    // (settleSocket on the delivery thread vs the destructor on the owner
    // thread), and a concurrent double join is undefined behaviour. One
    // caller gets the handle and joins; the other sees an empty thread.
    std::thread claimed;
    {
      std::lock_guard lock(joinMutex_);
      claimed = std::move(consumer_);
    }
    if (claimed.joinable()) claimed.join();
  }

  void wakeRings() {
    if (sendRing_) sendRing_->wakeAll();
    if (recvRing_) recvRing_->wakeAll();
  }

  /// First kHello through the wrapper: create the segment, rewrite the
  /// hello into an offer, enter the buffering state. Any failure keeps
  /// the plain socket path.
  Status startNegotiation(const MessageRef& hello,
                          std::unique_lock<std::mutex>& lock) {
    segment_ = createSegment();
    if (!segment_) {
      state_ = State::kSocket;  // no second offer; stay a passthrough
      lock.unlock();
      return socket_->send(hello);
    }
    bindRings();
    MessageRef offer = hello;
    offer.intArg2 |= kHelloCapShm;
    offer.text = segment_->key;
    state_ = State::kNegotiating;
    // The consumer must already be listening: the accept signal IS the
    // kHelloAck arriving over the completion ring.
    startConsumer();
    lock.unlock();
    return socket_->send(offer);
  }

  /// The daemon answered (state_ is kSettling): flushes the buffered
  /// sends to the channel `to` in order, then switches to it. The switch
  /// happens only once a pass under the lock finds pending_ empty, so a
  /// send racing the flush appends behind it instead of overtaking it on
  /// the settled channel. Called with `lock` held; returns with it held.
  void settle(State to, std::unique_lock<std::mutex>& lock) {
    Arena arena(4096);
    while (!pending_.empty()) {
      std::vector<WireBuffer> batch;
      batch.swap(pending_);
      lock.unlock();
      for (auto& frame : batch) {
        const MessageRef m = copyToArena(detail::viewOf(frame), arena);
        (void)(to == State::kShm ? shmSend(m) : socket_->send(m));
        arena.reset();
        detail::releaseScratch(std::move(frame));
      }
      lock.lock();
    }
    state_ = to;
  }

  void onSocketMessage(const MessageView& v) {
    {
      std::unique_lock lock(mutex_);
      if (state_ == State::kNegotiating &&
          (v.type() == MsgType::kHelloAck || v.type() == MsgType::kRedirect ||
           v.type() == MsgType::kError)) {
        // Daemon answered on the socket (old daemon, redirect, decline):
        // the session stays on the socket. Tear the rings down and flush
        // the buffered sends BEFORE the answer reaches the session, so its
        // handler observes the same ordering a plain socket would give.
        state_ = State::kSettling;
        lock.unlock();
        stopConsumer();
        // The declined segment stays MAPPED until the destructor: close()
        // and onPeerGone() on other threads may still dereference it, and
        // an early munmap here is a use-after-unmap in their hands. The
        // name itself is unlinked by ~ShmSegment (the daemon never
        // attached), so the only cost is one idle mapping for the
        // session's remaining lifetime.
        lock.lock();
        settle(State::kSocket, lock);
      }
    }
    detail::deliverView(slotMutex_, slot_, v);
  }

  void onRingPayload(std::string_view payload) {
    auto view = MessageView::parse(payload);
    if (!view) {
      SIMFS_LOG_ERROR("msg", "shm: undecodable ring frame: %s",
                      view.status().toString().c_str());
      poisoned_ = true;
      return;
    }
    if (fault::active()) {
      fault::maybeDelay(fault::Point::kRecv);
      const auto limit = fault::closeAfterLimit();
      if (limit > 0 && ++faultFramesSeen_ > limit) {
        SIMFS_LOG_WARN("msg", "fault: closing shm session after %u frames",
                       limit);
        poisoned_ = true;  // same observable outcome: hard connection loss
        return;
      }
    }
    {
      std::unique_lock lock(mutex_);
      if (state_ == State::kNegotiating && view->type() == MsgType::kHelloAck) {
        // Accept: the daemon swapped before acking, so from here the ring
        // is the session's one channel. Flush the buffered sends before
        // the ack reaches the session — its handler may immediately issue
        // follow-ups that must not overtake them.
        state_ = State::kSettling;
        settle(State::kShm, lock);
      }
    }
    detail::deliverView(slotMutex_, slot_, *view);
  }

  void consumerMain() {
    while (!stop_.load()) {
      const auto poll = recvRing_->consume(
          kConsumeSlice,
          [this](std::string_view payload) { onRingPayload(payload); });
      // Every LOCAL teardown (close(), settleSocket's stopConsumer, the
      // destructor) sets stop_ before raising the close mask, so a poll
      // that came back kClosed with stop_ set is our own doing — exit
      // quietly. Reporting it as peer loss would fire the close handler
      // into a session that merely settled back to the socket.
      if (stop_.load()) return;
      if (poisoned_ || poll == ShmRing::Poll::kPoisoned) {
        SIMFS_LOG_WARN("msg", "shm: dropping poisoned/faulted session");
        onPeerGone();
        return;
      }
      if (poll == ShmRing::Poll::kClosed) {
        onPeerGone();
        return;
      }
    }
  }

  Status shmSend(const MessageRef& m) {
    if (fault::active() && fault::shouldFail(fault::Point::kSend)) {
      // Same observable behaviour as the socket path's injected fault:
      // abrupt connection loss, close callback and all.
      onPeerGone();
      return errUnavailable("shm: injected send fault");
    }
    const std::size_t size = encodedSize(m);
    std::lock_guard sendLock(sendMutex_);
    if (!open_.load()) return errUnavailable("shm: closed");
    if (size <= sendRing_->maxExtentPayload()) {
      // The fast path: reserve a ring extent and encode straight into it.
      // No WireBuffer, no copy, no allocation.
      char* dst =
          sendRing_->beginWrite(static_cast<std::uint32_t>(size), kSendTimeout);
      if (dst == nullptr) return sendStalled();
      encodeToBuffer(m, dst);
      sendRing_->commitWrite(static_cast<std::uint32_t>(size), kSlotMsg, 0);
      return Status::ok();
    }
    // Oversized frame: serialize once, stream it through chunk records.
    WireBuffer scratch = detail::acquireScratch();
    encodeInto(m, scratch);
    const std::string_view payload = scratch.payload();
    const std::uint32_t maxChunk = sendRing_->maxExtentPayload();
    std::size_t at = 0;
    Status st = Status::ok();
    while (at < payload.size()) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(maxChunk, payload.size() - at));
      char* dst = sendRing_->beginWrite(n, kSendTimeout);
      if (dst == nullptr) {
        st = sendStalled();
        break;
      }
      std::memcpy(dst, payload.data() + at, n);
      at += n;
      sendRing_->commitWrite(
          n, kSlotChunk, at == payload.size() ? kChunkLast : 0);
    }
    detail::releaseScratch(std::move(scratch));
    return st;
  }

  /// The ring stayed full past the send timeout (or the peer closed):
  /// exactly the situation where the socket path drops the peer for
  /// overflowing its outbox — same verdict here.
  Status sendStalled() {
    SIMFS_LOG_WARN("msg", "shm: peer stopped draining, dropping session");
    onPeerGone();
    return errUnavailable("shm: peer not draining");
  }

  /// Peer loss from any signal (companion-socket EOF, ring close mask,
  /// poisoned record, injected fault): sticky-close and notify once.
  /// `socketGone` means the companion socket itself reported the loss —
  /// closing it again would call into a transport that may be mid-teardown.
  void onPeerGone(bool socketGone = false) {
    open_.store(false);
    stop_.store(true);
    {
      std::lock_guard lock(mutex_);
      if (segment_) {
        segment_->hdr()->closed.fetch_or(closedBit_, std::memory_order_seq_cst);
        wakeRings();
      }
    }
    if (!socketGone) socket_->close();
    std::function<void()> fire;
    {
      std::lock_guard lock(slotMutex_);
      if (!closeNotified_) {
        if (closeHandler_) {
          closeNotified_ = true;
          fire = closeHandler_;
        } else {
          closePending_ = true;
        }
      }
    }
    if (fire) fire();
  }

  std::unique_ptr<Transport> socket_;
  std::unique_ptr<ShmSegment> segment_;
  const bool isServer_;
  const std::uint32_t closedBit_;

  mutable std::mutex mutex_;  ///< guards state_ and pending_
  State state_ = State::kPassthrough;
  std::vector<WireBuffer> pending_;  ///< frames sent during negotiation

  std::mutex sendMutex_;  ///< serializes ring producers (send is MT-safe)
  std::optional<ShmRing> sendRing_;
  std::optional<ShmRing> recvRing_;

  std::thread consumer_;
  std::mutex joinMutex_;  ///< serializes claiming consumer_ for join
  std::atomic<bool> stop_{false};
  bool poisoned_ = false;  ///< consumer-thread only
  std::uint32_t faultFramesSeen_ = 0;

  std::mutex slotMutex_;
  detail::HandlerSlot slot_;
  std::function<void()> closeHandler_;
  bool closeNotified_ = false;
  bool closePending_ = false;

  std::atomic<bool> open_{true};
  std::atomic<bool> closedLocally_{false};
};

}  // namespace

bool shmNegotiationEnabled() {
  const auto v = env::get("SIMFS_SHM");
  return !v || *v != "0";
}

std::unique_ptr<Transport> wrapShmClient(std::unique_ptr<Transport> socket) {
  if (!shmNegotiationEnabled()) return socket;
  return std::make_unique<ShmTransport>(std::move(socket), nullptr,
                                        /*isServer=*/false);
}

std::unique_ptr<Transport> shmAdoptServer(const std::string& key,
                                          std::unique_ptr<Transport>& socket) {
  if (!shmNegotiationEnabled()) return nullptr;
  auto segment = openSegment(key);
  if (!segment) {
    SIMFS_LOG_WARN("msg", "shm: cannot adopt segment '%s', keeping socket",
                   key.c_str());
    return nullptr;
  }
  return std::make_unique<ShmTransport>(std::move(socket), std::move(segment),
                                        /*isServer=*/true);
}

}  // namespace simfs::msg
