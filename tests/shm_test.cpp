// Tests for the same-host shared-memory data plane: the SPSC ring
// (exercised over plain heap memory, exactly as the header invites) and
// the kHello transport negotiation end to end over a real Unix socket.
#include "common/rng.hpp"
#include "msg/message.hpp"
#include "msg/shm_ring.hpp"
#include "msg/shm_transport.hpp"
#include "msg/transport.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace simfs::msg {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Ring unit tests: one header + data area on the heap, a producer-side and
// a consumer-side ShmRing over the same memory — the exact arrangement the
// two processes have, minus the mmap.
// ---------------------------------------------------------------------------

struct HeapRing {
  explicit HeapRing(std::size_t slots)
      : data(slots * kShmSlotBytes),
        producer(&hdr, data.data(), data.size(), &closed),
        consumer(&hdr, data.data(), data.size(), &closed) {
    ShmRing::initHeader(&hdr);
  }

  ShmRingHdr hdr{};
  std::atomic<std::uint32_t> closed{0};
  std::vector<char> data;
  ShmRing producer;
  ShmRing consumer;
};

void produceFrame(ShmRing& ring, std::string_view payload) {
  char* dst = ring.beginWrite(static_cast<std::uint32_t>(payload.size()), 1s);
  ASSERT_NE(dst, nullptr);
  std::memcpy(dst, payload.data(), payload.size());
  ring.commitWrite(static_cast<std::uint32_t>(payload.size()), kSlotMsg, 0);
}

std::string consumeFrame(ShmRing& ring) {
  std::string out;
  const auto poll =
      ring.consume(1s, [&](std::string_view p) { out.assign(p); });
  EXPECT_EQ(poll, ShmRing::Poll::kFrame);
  return out;
}

TEST(ShmRingTest, FifoSurvivesWrapAroundAndPadRecords) {
  // A small ring with varying frame sizes forces the producer through the
  // wrap point (and its pad records) many times over. Frame sizes are
  // bounded so the at most three outstanding frames (worst case
  // pad+extent < 2 * roundUp(8+600) = 1.5 KiB each) always fit: this
  // single thread has nobody to drain a full ring.
  HeapRing r(32);
  Rng rng(20260809);
  std::vector<std::string> sent;
  for (int i = 0; i < 400; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniformInt(0, 600));
    std::string payload(len, '\0');
    for (auto& c : payload) c = static_cast<char>(rng.uniformInt(0, 255));
    produceFrame(r.producer, payload);
    sent.push_back(std::move(payload));
    // Drain in bursts so occupancy (and therefore the wrap offset) varies.
    if (i % 3 == 0) {
      for (auto& expect : sent) EXPECT_EQ(consumeFrame(r.consumer), expect);
      sent.clear();
    }
  }
  for (auto& expect : sent) EXPECT_EQ(consumeFrame(r.consumer), expect);
  EXPECT_EQ(r.consumer.consume(1ms, [](std::string_view) {}),
            ShmRing::Poll::kIdle);
}

TEST(ShmRingTest, FullRingBlocksProducerUntilConsumerFrees) {
  HeapRing r(16);
  const std::string payload(kShmSlotBytes - sizeof(ShmSlotHdr), 'x');
  // Fill every slot, then confirm the next write times out rather than
  // overwriting unconsumed records.
  for (int i = 0; i < 16; ++i) produceFrame(r.producer, payload);
  EXPECT_EQ(r.producer.beginWrite(
                static_cast<std::uint32_t>(payload.size()), 20ms),
            nullptr);
  // Freeing exactly one extent unsticks exactly one write.
  EXPECT_EQ(consumeFrame(r.consumer), payload);
  produceFrame(r.producer, payload);
  EXPECT_EQ(r.producer.beginWrite(
                static_cast<std::uint32_t>(payload.size()), 20ms),
            nullptr);
}

TEST(ShmRingTest, CloseMaskAbortsBothWaiters) {
  HeapRing r(16);
  r.closed.store(1);
  EXPECT_EQ(r.consumer.consume(10s, [](std::string_view) {}),
            ShmRing::Poll::kClosed);
  const std::string payload(kShmSlotBytes - sizeof(ShmSlotHdr), 'x');
  for (int i = 0; i < 16; ++i) {
    char* dst = r.producer.beginWrite(
        static_cast<std::uint32_t>(payload.size()), 10s);
    if (dst == nullptr) break;  // closed mask may stop the fill early
    std::memcpy(dst, payload.data(), payload.size());
    r.producer.commitWrite(static_cast<std::uint32_t>(payload.size()),
                           kSlotMsg, 0);
  }
  // Whether or not the fill completed, a blocked producer must abort
  // promptly instead of waiting out the full timeout.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(r.producer.beginWrite(
                static_cast<std::uint32_t>(payload.size()), 10s),
            nullptr);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(ShmRingTest, ForgedKindPoisonsInsteadOfCrashing) {
  HeapRing r(16);
  ShmSlotHdr rec{16, /*kind=*/0xDEAD, 0};
  std::memcpy(r.data.data(), &rec, sizeof(rec));
  r.hdr.head.store(kShmSlotBytes, std::memory_order_release);
  EXPECT_EQ(r.consumer.consume(1s, [](std::string_view) {}),
            ShmRing::Poll::kPoisoned);
}

TEST(ShmRingTest, ForgedLengthBeyondPublishedBytesPoisons) {
  HeapRing r(16);
  // One slot published, but the header claims a payload spanning far more.
  ShmSlotHdr rec{static_cast<std::uint32_t>(8 * kShmSlotBytes), kSlotMsg, 0};
  std::memcpy(r.data.data(), &rec, sizeof(rec));
  r.hdr.head.store(kShmSlotBytes, std::memory_order_release);
  EXPECT_EQ(r.consumer.consume(1s, [](std::string_view) {}),
            ShmRing::Poll::kPoisoned);
}

TEST(ShmRingTest, ForgedLengthBeyondReassemblyBoundPoisons) {
  HeapRing r(16);
  ShmSlotHdr rec{~std::uint32_t{0}, kSlotMsg, 0};
  std::memcpy(r.data.data(), &rec, sizeof(rec));
  r.hdr.head.store(r.data.size(), std::memory_order_release);
  EXPECT_EQ(r.consumer.consume(1s, [](std::string_view) {}),
            ShmRing::Poll::kPoisoned);
}

TEST(ShmRingTest, SubHeaderHeadAdvancePoisons) {
  HeapRing r(16);
  // head moved by less than one record header: nothing can be valid.
  r.hdr.head.store(4, std::memory_order_release);
  EXPECT_EQ(r.consumer.consume(1s, [](std::string_view) {}),
            ShmRing::Poll::kPoisoned);
}

TEST(ShmRingTest, ForgedPadLongerThanPublishedPoisons) {
  HeapRing r(16);
  // A pad record always runs to the ring end; publishing only one slot of
  // it is inconsistent and must not make the consumer skip unpublished
  // bytes.
  ShmSlotHdr rec{0, kSlotPad, 0};
  std::memcpy(r.data.data(), &rec, sizeof(rec));
  r.hdr.head.store(kShmSlotBytes, std::memory_order_release);
  EXPECT_EQ(r.consumer.consume(1s, [](std::string_view) {}),
            ShmRing::Poll::kPoisoned);
}

TEST(ShmRingTest, ChunkedFramesReassembleInOrder) {
  HeapRing r(16);
  // Hand-built chunk stream: three pieces, last one flagged. The transport
  // produces exactly this shape for frames above maxExtentPayload().
  const std::string pieces[] = {std::string(300, 'a'), std::string(17, 'b'),
                                std::string(900, 'c')};
  for (std::size_t i = 0; i < 3; ++i) {
    char* dst = r.producer.beginWrite(
        static_cast<std::uint32_t>(pieces[i].size()), 1s);
    ASSERT_NE(dst, nullptr);
    std::memcpy(dst, pieces[i].data(), pieces[i].size());
    r.producer.commitWrite(static_cast<std::uint32_t>(pieces[i].size()),
                           kSlotChunk, i == 2 ? kChunkLast : 0);
  }
  std::string got;
  // Non-final chunks are consumed internally: ONE poll yields the frame.
  EXPECT_EQ(r.consumer.consume(1s, [&](std::string_view p) { got.assign(p); }),
            ShmRing::Poll::kFrame);
  EXPECT_EQ(got, pieces[0] + pieces[1] + pieces[2]);
  // The scratch resets between frames.
  produceFrame(r.producer, "next");
  EXPECT_EQ(consumeFrame(r.consumer), "next");
}

TEST(ShmRingTest, CrossThreadBackpressuredStream) {
  // Real two-thread traffic through a deliberately tiny ring: constant
  // wrap, constant backpressure, both futex park paths exercised.
  HeapRing r(16);
  constexpr int kFrames = 5000;
  std::thread producer([&] {
    Rng rng(7);
    for (int i = 0; i < kFrames; ++i) {
      std::string payload =
          std::to_string(i) + ":" +
          std::string(static_cast<std::size_t>(rng.uniformInt(0, 1500)), 'p');
      payload.resize(std::min<std::size_t>(
          payload.size(), r.producer.maxExtentPayload()));
      char* dst = r.producer.beginWrite(
          static_cast<std::uint32_t>(payload.size()), 10s);
      ASSERT_NE(dst, nullptr);
      std::memcpy(dst, payload.data(), payload.size());
      r.producer.commitWrite(static_cast<std::uint32_t>(payload.size()),
                             kSlotMsg, 0);
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    std::string got;
    ASSERT_EQ(r.consumer.consume(10s,
                                 [&](std::string_view p) { got.assign(p); }),
              ShmRing::Poll::kFrame)
        << "frame " << i;
    ASSERT_EQ(got.substr(0, got.find(':')), std::to_string(i));
  }
  producer.join();
}

// ---------------------------------------------------------------------------
// End-to-end negotiation over a real Unix socket: the client wrapper from
// unixSocketConnect against a server that adopts (new daemon), declines
// (policy), or ignores the offer entirely (old daemon).
// ---------------------------------------------------------------------------

Message helloMessage() {
  Message m;
  m.type = MsgType::kHello;
  m.requestId = 1;
  m.context = "cosmo-5min";
  m.text = "analysis";
  return m;
}

class ShmNegotiationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/simfs_shm_test_" + std::to_string(::getpid()) + ".sock";
  }
  std::string path_;
};

/// Server-side session holder: the negotiation may swap the transport
/// under the session (socket -> shm), mirroring the daemon's Session.
struct ServerSession {
  std::unique_ptr<Transport> transport;
};

TEST_F(ShmNegotiationTest, UpgradesToShmAndEchoesOverRing) {
  UnixSocketServer server(path_);
  std::mutex mu;
  std::vector<std::shared_ptr<ServerSession>> sessions;

  ASSERT_TRUE(
      server
          .start([&](std::unique_ptr<Transport> conn) {
            auto session = std::make_shared<ServerSession>();
            session->transport = std::move(conn);
            auto* raw = session->transport.get();
            // Mirror the daemon's hello dispatch: adopt the offered
            // segment on the delivery thread, ack THROUGH the swapped
            // transport (over the ring — that IS the accept signal),
            // then echo everything else.
            raw->setHandler([&, session](Message&& m) {
              if (m.type == MsgType::kHello) {
                if ((m.intArg2 & kHelloCapShm) != 0 && !m.text.empty()) {
                  auto shm = shmAdoptServer(m.text, session->transport);
                  if (shm) {
                    // Swap under `mu`: the test body reads this transport
                    // through `sessions` after the replies settle, and the
                    // in-process client/server segment mappings live at
                    // different addresses, so ring-mediated ordering is
                    // not something a sanitizer can see — use the lock.
                    std::lock_guard swapLock(mu);
                    session->transport = std::move(shm);
                    // Weak capture, like the daemon's installSessionHandlers:
                    // the handler lives inside session->transport, so an
                    // owning capture would be a shared_ptr cycle.
                    std::weak_ptr<ServerSession> weak = session;
                    session->transport->setHandler([weak](Message&& e) {
                      if (auto s = weak.lock()) {
                        e.type = MsgType::kOpenBatchAck;
                        (void)s->transport->send(e);
                      }
                    });
                  }
                }
                Message ack;
                ack.type = MsgType::kHelloAck;
                ack.requestId = m.requestId;
                ack.intArg = 42;
                if ((m.intArg2 & kHelloCapShm) != 0) {
                  ack.intArg2 = static_cast<std::int64_t>(
                      session->transport->kindName() == "shm"
                          ? TransportChoice::kShm
                          : TransportChoice::kSocket);
                }
                (void)session->transport->send(ack);
                return;
              }
              m.type = MsgType::kOpenBatchAck;
              (void)session->transport->send(m);
            });
            std::lock_guard lock(mu);
            sessions.push_back(std::move(session));
          })
          .isOk());

  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());

  std::mutex rmu;
  std::condition_variable rcv;
  std::vector<Message> replies;
  (*client)->setHandler([&](Message&& m) {
    std::lock_guard lock(rmu);
    replies.push_back(std::move(m));
    rcv.notify_all();
  });

  // Pipeline traffic right behind the hello: the wrapper must buffer it
  // until the handshake settles and deliver it in order afterwards.
  ASSERT_TRUE((*client)->send(helloMessage()).isOk());
  constexpr int kFollowUps = 100;
  for (int i = 0; i < kFollowUps; ++i) {
    Message m;
    m.type = MsgType::kOpenBatchReq;
    m.requestId = static_cast<std::uint64_t>(100 + i);
    m.text = std::string(static_cast<std::size_t>(i) * 11, 'q');
    ASSERT_TRUE((*client)->send(m).isOk());
  }

  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, 10s, [&] {
      return replies.size() == 1 + kFollowUps;
    }));
  }
  EXPECT_EQ(replies[0].type, MsgType::kHelloAck);
  EXPECT_EQ(replies[0].intArg2,
            static_cast<std::int64_t>(TransportChoice::kShm));
  EXPECT_EQ((*client)->kindName(), "shm");
  for (int i = 0; i < kFollowUps; ++i) {
    EXPECT_EQ(replies[1 + static_cast<std::size_t>(i)].requestId,
              static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(replies[1 + static_cast<std::size_t>(i)].text.size(),
              static_cast<std::size_t>(i) * 11);
  }
  {
    std::lock_guard lock(mu);
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_EQ(sessions[0]->transport->kindName(), "shm");
  }

  // Oversized frames ride the chunk path of the same ring.
  Message big;
  big.type = MsgType::kOpenBatchReq;
  big.requestId = 9000;
  big.text = std::string(3u << 20, 'Z');
  ASSERT_TRUE((*client)->send(big).isOk());
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, 10s, [&] {
      return replies.size() == 2 + kFollowUps;
    }));
  }
  EXPECT_EQ(replies.back().text, big.text);

  (*client)->close();
  server.stop();
}

TEST_F(ShmNegotiationTest, OldDaemonAnswerOnSocketSettlesDowngrade) {
  // A pre-negotiation daemon ignores the capability bit and the key, and
  // answers over the socket. The wrapper must settle to the socket and
  // flush pipelined sends in order.
  UnixSocketServer server(path_);
  std::mutex mu;
  std::vector<std::unique_ptr<Transport>> conns;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([raw](Message&& m) {
                      // Old daemon: echoes without touching intArg2.
                      m.type = m.type == MsgType::kHello
                                   ? MsgType::kHelloAck
                                   : MsgType::kOpenBatchAck;
                      m.intArg2 = 0;
                      (void)raw->send(m);
                    });
                    std::lock_guard lock(mu);
                    conns.push_back(std::move(conn));
                  })
                  .isOk());

  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  std::vector<Message> replies;
  (*client)->setHandler([&](Message&& m) {
    std::lock_guard lock(rmu);
    replies.push_back(std::move(m));
    rcv.notify_all();
  });
  ASSERT_TRUE((*client)->send(helloMessage()).isOk());
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.type = MsgType::kOpenBatchReq;
    m.requestId = static_cast<std::uint64_t>(200 + i);
    ASSERT_TRUE((*client)->send(m).isOk());
  }
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(
        rcv.wait_for(lock, 10s, [&] { return replies.size() == 11u; }));
  }
  EXPECT_EQ(replies[0].type, MsgType::kHelloAck);
  EXPECT_EQ(replies[0].intArg2,
            static_cast<std::int64_t>(TransportChoice::kLegacy));
  EXPECT_EQ((*client)->kindName(), "socket");
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replies[1 + static_cast<std::size_t>(i)].requestId,
              static_cast<std::uint64_t>(200 + i));
  }
  (*client)->close();
  server.stop();
}

TEST_F(ShmNegotiationTest, EnvKnobSuppressesTheOfferEntirely) {
  // SIMFS_SHM=0 must put byte-identical legacy hellos on the wire: no
  // capability bit, text untouched.
  ::setenv("SIMFS_SHM", "0", 1);
  UnixSocketServer server(path_);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> heard;
  std::vector<std::unique_ptr<Transport>> conns;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    auto* raw = conn.get();
                    raw->setHandler([&, raw](Message&& m) {
                      Message ack;
                      ack.type = MsgType::kHelloAck;
                      ack.requestId = m.requestId;
                      std::lock_guard lock(mu);
                      heard.push_back(std::move(m));
                      (void)raw->send(ack);
                      cv.notify_all();
                    });
                    std::lock_guard lock(mu);
                    conns.push_back(std::move(conn));
                  })
                  .isOk());

  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  bool acked = false;
  (*client)->setHandler([&](Message&&) {
    std::lock_guard lock(rmu);
    acked = true;
    rcv.notify_all();
  });
  const auto hello = helloMessage();
  ASSERT_TRUE((*client)->send(hello).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return !heard.empty(); }));
  }
  // The wire bytes are pinned via the deterministic codec: identical
  // fields encode identically, so PR 6 daemons see PR 6 hellos.
  EXPECT_EQ(encode(heard[0]), encode(hello));
  EXPECT_EQ(heard[0].intArg2 & kHelloCapShm, 0);
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, 5s, [&] { return acked; }));
  }
  EXPECT_EQ((*client)->kindName(), "socket");
  (*client)->close();
  server.stop();
  ::unsetenv("SIMFS_SHM");
}

TEST_F(ShmNegotiationTest, AdoptRejectsMissingAndForgedSegments) {
  auto [serverEnd, clientEnd] = makeInProcPair();

  // Missing name.
  EXPECT_EQ(shmAdoptServer("/simfs-test-no-such-segment", serverEnd),
            nullptr);
  EXPECT_NE(serverEnd, nullptr);  // declined: socket untouched

  // Name that is not even a shm key.
  EXPECT_EQ(shmAdoptServer("not-absolute", serverEnd), nullptr);
  EXPECT_EQ(shmAdoptServer("", serverEnd), nullptr);
  EXPECT_EQ(shmAdoptServer(std::string(300, 'k'), serverEnd), nullptr);

  // A real segment with a forged header: wrong magic, hostile ringBytes.
  const std::string key =
      "/simfs-test-forged-" + std::to_string(::getpid());
  const int fd = ::shm_open(key.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 1 << 16), 0);
  void* base = ::mmap(nullptr, 1 << 16, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  ::close(fd);
  auto* h = new (base) ShmSegmentHdr();
  std::memcpy(h->magic, "SIMFSHM1", 8);
  h->version = kShmVersion;
  h->slotBytes = kShmSlotBytes;
  h->ringBytes = ~std::uint64_t{0};  // would overflow every bounds check
  EXPECT_EQ(shmAdoptServer(key, serverEnd), nullptr);
  std::memcpy(h->magic, "BADMAGIC", 8);
  h->ringBytes = 64 * kShmSlotBytes;
  EXPECT_EQ(shmAdoptServer(key, serverEnd), nullptr);
  ::munmap(base, 1 << 16);
  ::shm_unlink(key.c_str());

  EXPECT_NE(serverEnd, nullptr);
  serverEnd->close();
  clientEnd->close();
}

TEST_F(ShmNegotiationTest, SocketLossAfterUpgradeFiresCloseHandler) {
  // On shm the socket carries no traffic, but it stays the liveness
  // signal: the server dropping it must tear the shm session down like
  // any socket loss.
  UnixSocketServer server(path_);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::shared_ptr<ServerSession>> sessions;
  ASSERT_TRUE(
      server
          .start([&](std::unique_ptr<Transport> conn) {
            auto session = std::make_shared<ServerSession>();
            session->transport = std::move(conn);
            auto* raw = session->transport.get();
            raw->setHandler([&, session](Message&& m) {
              if (m.type != MsgType::kHello) return;
              if ((m.intArg2 & kHelloCapShm) != 0 && !m.text.empty()) {
                auto shm = shmAdoptServer(m.text, session->transport);
                if (shm) session->transport = std::move(shm);
              }
              Message ack;
              ack.type = MsgType::kHelloAck;
              ack.requestId = m.requestId;
              ack.intArg2 = static_cast<std::int64_t>(
                  session->transport->kindName() == "shm"
                      ? TransportChoice::kShm
                      : TransportChoice::kSocket);
              (void)session->transport->send(ack);
            });
            std::lock_guard lock(mu);
            sessions.push_back(std::move(session));
            cv.notify_all();
          })
          .isOk());

  auto client = unixSocketConnect(path_);
  ASSERT_TRUE(client.isOk());
  std::mutex rmu;
  std::condition_variable rcv;
  bool acked = false;
  bool closed = false;
  (*client)->setHandler([&](Message&&) {
    std::lock_guard lock(rmu);
    acked = true;
    rcv.notify_all();
  });
  (*client)->setCloseHandler([&] {
    std::lock_guard lock(rmu);
    closed = true;
    rcv.notify_all();
  });
  ASSERT_TRUE((*client)->send(helloMessage()).isOk());
  {
    std::unique_lock lock(rmu);
    ASSERT_TRUE(rcv.wait_for(lock, 10s, [&] { return acked; }));
  }
  ASSERT_EQ((*client)->kindName(), "shm");

  // Server side drops the whole session (shm transport owns the socket;
  // destroying it closes the fd = the crash signal, minus the SIGKILL).
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return !sessions.empty(); }));
    sessions.clear();
  }
  {
    std::unique_lock lock(rmu);
    EXPECT_TRUE(rcv.wait_for(lock, 10s, [&] { return closed; }));
  }
  EXPECT_FALSE((*client)->isOpen());
  server.stop();
}

}  // namespace
}  // namespace simfs::msg
