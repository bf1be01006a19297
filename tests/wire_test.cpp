// Zero-copy wire pipeline tests: golden bytes pinning the PR 4 format,
// MessageView in-place decoding (including hostile input), the pooled
// WireBuffer send path, arena-backed message copies, and the transports'
// view-handler delivery contract.
#include "common/rng.hpp"
#include "msg/message.hpp"
#include "msg/shm_transport.hpp"
#include "msg/transport.hpp"
#include "msg/wire.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

namespace simfs::msg {
namespace {

// --- golden bytes ------------------------------------------------------------
//
// Byte dumps recorded from the PR 4 encoder BEFORE the zero-copy rewrite.
// encode() (now a wrapper over encodeInto) and encodeInto's frame payload
// must reproduce them exactly: the wire format is pinned across the
// refactor, so mixed-version deployments keep interoperating.

// kHello, requestId=7, context="cosmo-5min", intArg=0 (58 bytes)
constexpr unsigned char kGoldenHello[] = {
    0x01,0x00,0x07,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,
    0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,
    0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x0a,0x00,0x00,0x00,
    0x63,0x6f,0x73,0x6d,0x6f,0x2d,0x35,0x6d,0x69,0x6e,0x00,0x00,
    0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00};

// kOpenBatchAck, requestId=55, 2 files, ints={1,0,0,1500}, intArg=1,
// intArg2=1500, hops=1, text="ok" (126 bytes)
constexpr unsigned char kGoldenBatchAck[] = {
    0x1a,0x00,0x37,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,
    0x00,0x00,0x01,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0xdc,0x05,
    0x00,0x00,0x00,0x00,0x00,0x00,0x01,0x00,0x00,0x00,0x00,0x00,
    0x02,0x00,0x00,0x00,0x6f,0x6b,0x02,0x00,0x00,0x00,0x12,0x00,
    0x00,0x00,0x6f,0x75,0x74,0x5f,0x30,0x30,0x30,0x30,0x30,0x30,
    0x30,0x30,0x30,0x31,0x2e,0x73,0x6e,0x63,0x12,0x00,0x00,0x00,
    0x6f,0x75,0x74,0x5f,0x30,0x30,0x30,0x30,0x30,0x30,0x30,0x30,
    0x30,0x32,0x2e,0x73,0x6e,0x63,0x04,0x00,0x00,0x00,0x01,0x00,
    0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,
    0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0xdc,0x05,
    0x00,0x00,0x00,0x00,0x00,0x00};

// kRedirect, requestId=41, context="ctx", text="dv2", 1 ring entry,
// intArg=9 (75 bytes)
constexpr unsigned char kGoldenRedirect[] = {
    0x16,0x00,0x29,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,
    0x00,0x00,0x09,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,
    0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x00,0x03,0x00,0x00,0x00,
    0x63,0x74,0x78,0x03,0x00,0x00,0x00,0x64,0x76,0x32,0x01,0x00,
    0x00,0x00,0x11,0x00,0x00,0x00,0x64,0x76,0x30,0x3d,0x2f,0x74,
    0x6d,0x70,0x2f,0x64,0x76,0x30,0x2e,0x73,0x6f,0x63,0x6b,0x00,
    0x00,0x00,0x00};

template <std::size_t N>
std::string goldenString(const unsigned char (&bytes)[N]) {
  return std::string(reinterpret_cast<const char*>(bytes), N);
}

Message goldenHello() {
  Message m;
  m.type = MsgType::kHello;
  m.requestId = 7;
  m.context = "cosmo-5min";
  m.intArg = 0;
  return m;
}

Message goldenBatchAck() {
  Message m;
  m.type = MsgType::kOpenBatchAck;
  m.requestId = 55;
  m.files = {"out_0000000001.snc", "out_0000000002.snc"};
  m.ints = {1, 0, 0, 1500};
  m.code = 0;
  m.intArg = 1;
  m.intArg2 = 1500;
  m.hops = 1;
  m.text = "ok";
  return m;
}

Message goldenRedirect() {
  Message m;
  m.type = MsgType::kRedirect;
  m.requestId = 41;
  m.context = "ctx";
  m.text = "dv2";
  m.files = {"dv0=/tmp/dv0.sock"};
  m.intArg = 9;
  m.code = 0;
  return m;
}

TEST(GoldenBytesTest, EncodeReproducesPr4Bytes) {
  EXPECT_EQ(encode(goldenHello()), goldenString(kGoldenHello));
  EXPECT_EQ(encode(goldenBatchAck()), goldenString(kGoldenBatchAck));
  EXPECT_EQ(encode(goldenRedirect()), goldenString(kGoldenRedirect));
}

TEST(GoldenBytesTest, EncodeIntoPayloadMatchesEncodeByteForByte) {
  for (const Message& m :
       {goldenHello(), goldenBatchAck(), goldenRedirect()}) {
    WireBuffer buf;
    encodeInto(RefOf(m).ref(), buf);
    EXPECT_EQ(std::string(buf.payload()), encode(m));
  }
}

TEST(GoldenBytesTest, EncodeIntoFrameHeaderIsLengthPrefix) {
  WireBuffer buf;
  encodeInto(RefOf(goldenBatchAck()).ref(), buf);
  // The frame layout must equal frame(encode(m)) — the old two-copy path.
  EXPECT_EQ(std::string(buf.view()), frame(encode(goldenBatchAck())));
  ASSERT_GE(buf.size(), WireBuffer::kFrameHeaderBytes);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(buf.data()[i]))
           << (8 * i);
  }
  EXPECT_EQ(len, buf.size() - WireBuffer::kFrameHeaderBytes);
}

TEST(GoldenBytesTest, MessageRefEncodesIdenticallyToMessage) {
  const Message m = goldenBatchAck();
  const std::vector<std::string_view> files(m.files.begin(), m.files.end());
  MessageRef ref;
  ref.type = m.type;
  ref.requestId = m.requestId;
  ref.context = m.context;
  ref.files = files;
  ref.ints = m.ints;
  ref.code = m.code;
  ref.intArg = m.intArg;
  ref.intArg2 = m.intArg2;
  ref.hops = m.hops;
  ref.text = m.text;
  WireBuffer fromRef;
  encodeInto(ref, fromRef);
  EXPECT_EQ(std::string(fromRef.payload()), encode(m));
  EXPECT_EQ(*decode(fromRef.payload()), m);
}

TEST(GoldenBytesTest, RefOfCarriesFileListsPastItsInlineCapacity) {
  Message m = goldenRedirect();
  for (int i = 0; i < 20; ++i) m.files.push_back("dv" + std::to_string(i));
  EXPECT_EQ(*decode(encode(m)), m);
}

// --- MessageView -------------------------------------------------------------

TEST(MessageViewTest, DecodesScalarsAndStringsInPlace) {
  const Message m = goldenBatchAck();
  const std::string wire = encode(m);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  EXPECT_EQ(view->type(), m.type);
  EXPECT_EQ(view->requestId(), m.requestId);
  EXPECT_EQ(view->code(), m.code);
  EXPECT_EQ(view->intArg(), m.intArg);
  EXPECT_EQ(view->intArg2(), m.intArg2);
  EXPECT_EQ(view->hops(), m.hops);
  EXPECT_EQ(view->context(), m.context);
  EXPECT_EQ(view->text(), m.text);
  // In place: the views must point into the wire buffer, not a copy.
  EXPECT_GE(view->text().data(), wire.data());
  EXPECT_LT(view->text().data(), wire.data() + wire.size());
}

TEST(MessageViewTest, LazyIteratorsDecodeListsInPlace) {
  const Message m = goldenBatchAck();
  const std::string wire = encode(m);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.isOk());
  ASSERT_EQ(view->fileCount(), m.files.size());
  std::size_t i = 0;
  for (auto it = view->filesBegin(); it != view->filesEnd(); ++it, ++i) {
    EXPECT_EQ(*it, m.files[i]);
    EXPECT_GE((*it).data(), wire.data());  // zero-copy
    EXPECT_LT((*it).data(), wire.data() + wire.size());
  }
  EXPECT_EQ(i, m.files.size());
  ASSERT_EQ(view->intCount(), m.ints.size());
  i = 0;
  for (auto it = view->intsBegin(); it != view->intsEnd(); ++it, ++i) {
    EXPECT_EQ(*it, m.ints[i]);
  }
  EXPECT_EQ(view->file0(), m.files[0]);
}

TEST(MessageViewTest, ToMessageMatchesDecode) {
  for (const Message& m :
       {goldenHello(), goldenBatchAck(), goldenRedirect()}) {
    const std::string wire = encode(m);
    const auto view = MessageView::parse(wire);
    ASSERT_TRUE(view.isOk());
    EXPECT_EQ(view->toMessage(), m);
    const auto legacy = decode(wire);
    ASSERT_TRUE(legacy.isOk());
    EXPECT_EQ(view->toMessage(), *legacy);
  }
}

// The ints region has no alignment guarantee: an odd-length context shifts
// it onto arbitrary byte offsets, and the iterator must byte-decode.
TEST(MessageViewTest, MisalignedIntsDecodeCorrectly) {
  for (int pad = 0; pad < 8; ++pad) {
    Message m;
    m.type = MsgType::kOpenBatchAck;
    m.context = std::string(static_cast<std::size_t>(pad), 'x');
    m.ints = {std::int64_t{0x0123456789abcdef}, -1,
              std::numeric_limits<std::int64_t>::min()};
    const std::string wire = encode(m);
    const auto view = MessageView::parse(wire);
    ASSERT_TRUE(view.isOk()) << "pad=" << pad;
    std::vector<std::int64_t> got;
    for (auto it = view->intsBegin(); it != view->intsEnd(); ++it) {
      got.push_back(*it);
    }
    EXPECT_EQ(got, m.ints) << "pad=" << pad;
  }
}

TEST(MessageViewTest, TruncatedFramesFailCleanly) {
  const std::string full = encode(goldenBatchAck());
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(MessageView::parse(full.substr(0, len)).isOk())
        << "len=" << len;
  }
}

TEST(MessageViewTest, TrailingBytesRejected) {
  std::string wire = encode(goldenHello());
  wire.push_back('\0');
  EXPECT_FALSE(MessageView::parse(wire).isOk());
}

TEST(MessageViewTest, ForgedFileCountFailsCleanly) {
  auto wire = encode(goldenRedirect());
  // The file-count u32 sits after the fixed header and the two
  // length-prefixed strings.
  const std::size_t header = 2 + 8 + 4 + 8 + 8 + 2;
  const std::size_t countAt =
      header + (4 + goldenRedirect().context.size()) +
      (4 + goldenRedirect().text.size());
  for (int i = 0; i < 4; ++i) wire[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(MessageView::parse(wire).isOk());
}

TEST(MessageViewTest, ForgedIntCountFailsCleanly) {
  const Message m = goldenBatchAck();
  auto wire = encode(m);
  const std::size_t countAt = wire.size() - (4 + 8 * m.ints.size());
  for (int i = 0; i < 4; ++i) wire[countAt + i] = static_cast<char>(0xFF);
  EXPECT_FALSE(MessageView::parse(wire).isOk());
}

// Fuzz parity with the owned decoder: every buffer either fails in BOTH
// paths or parses in both with identical materialization.
TEST(MessageViewTest, FuzzedBuffersMatchDecode) {
  simfs::Rng rng(0xF024);
  for (int i = 0; i < 2000; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniformInt(0, 256));
    std::string buf(len, '\0');
    for (auto& c : buf) c = static_cast<char>(rng.uniformInt(0, 255));
    const auto view = MessageView::parse(buf);
    const auto owned = decode(buf);
    ASSERT_EQ(view.isOk(), owned.isOk());
    if (view.isOk()) {
      EXPECT_EQ(view->toMessage(), *owned);
      EXPECT_EQ(encode(view->toMessage()), buf);
    }
  }
}

// --- WireBuffer / BufferPool -------------------------------------------------

TEST(WireBufferTest, SmallFramesStayInline) {
  WireBuffer buf;
  encodeInto(RefOf(goldenHello()).ref(), buf);
  EXPECT_LE(buf.size(), WireBuffer::kInlineCapacity);
  EXPECT_EQ(buf.capacity(), WireBuffer::kInlineCapacity);  // no heap spill
}

TEST(WireBufferTest, LargePayloadsSpillAndSurviveMove) {
  Message m;
  m.type = MsgType::kSimFileClosed;
  m.files = {std::string(4096, 'a')};
  WireBuffer buf;
  encodeInto(RefOf(m).ref(), buf);
  EXPECT_GT(buf.capacity(), WireBuffer::kInlineCapacity);
  const std::string before(buf.view());
  WireBuffer moved = std::move(buf);
  EXPECT_EQ(std::string(moved.view()), before);
  // Inline contents must be copied by moves too.
  WireBuffer small;
  encodeInto(RefOf(goldenHello()).ref(), small);
  const std::string smallBytes(small.view());
  WireBuffer movedSmall = std::move(small);
  EXPECT_EQ(std::string(movedSmall.view()), smallBytes);
}

TEST(WireBufferTest, AppendingAnEmptyViewChangesNothing) {
  WireBuffer buf;
  encodeInto(RefOf(goldenHello()).ref(), buf);
  const std::string before(buf.view());
  const std::string_view empty;  // data() is nullptr
  buf.append(empty.data(), empty.size());
  EXPECT_EQ(buf.size(), before.size());
  EXPECT_EQ(std::string(buf.view()), before);
}

TEST(WireBufferTest, ShrinkDropsOversizedHeap) {
  Message m;
  m.type = MsgType::kSimFileClosed;
  m.files = {std::string(1 << 20, 'a')};
  WireBuffer buf;
  encodeInto(RefOf(m).ref(), buf);
  EXPECT_GT(buf.capacity(), 64u * 1024);
  buf.shrink(64 * 1024);
  EXPECT_EQ(buf.capacity(), WireBuffer::kInlineCapacity);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(BufferPoolTest, ReusesReleasedBuffers) {
  BufferPool pool(4, 64 * 1024);
  WireBuffer a = pool.acquire();
  encodeInto(RefOf(goldenBatchAck()).ref(), a);
  pool.release(std::move(a));
  EXPECT_EQ(pool.retained(), 1u);
  WireBuffer b = pool.acquire();
  EXPECT_EQ(pool.retained(), 0u);
  EXPECT_EQ(b.size(), 0u);  // released buffers come back cleared
}

TEST(BufferPoolTest, CapsRetainedBuffers) {
  BufferPool pool(2, 64 * 1024);
  for (int i = 0; i < 5; ++i) pool.release(WireBuffer());
  EXPECT_EQ(pool.retained(), 2u);
}

/// Pool reuse/lifetime under concurrency (runs in the TSan CI job):
/// many threads acquire, fill, and release buffers; contents must never
/// tear and the pool must stay bounded.
TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BufferPool pool(8, 64 * 1024);
  std::atomic<bool> fail{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, &fail, t] {
      Message m;
      m.type = MsgType::kOpenBatchReq;
      m.files = {"out_0000000001.snc"};
      m.intArg = t;
      for (int i = 0; i < 2000; ++i) {
        WireBuffer buf = pool.acquire();
        encodeInto(RefOf(m).ref(), buf);
        const auto view = MessageView::parse(buf.payload());
        if (!view.isOk() || view->intArg() != t) fail.store(true);
        pool.release(std::move(buf));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(fail.load());
  EXPECT_LE(pool.retained(), 8u);
}

// --- Arena -------------------------------------------------------------------

TEST(ArenaTest, CopiesViewsIntoStableStorage) {
  const Message m = goldenBatchAck();
  const std::string wire = encode(m);
  Arena arena(256);  // tiny blocks: force multi-block operation
  MessageRef copy;
  {
    // The source buffer dies before the copy is read — the arena copy
    // must be self-contained.
    std::string ephemeral = wire;
    const auto view = MessageView::parse(ephemeral);
    ASSERT_TRUE(view.isOk());
    copy = copyToArena(*view, arena);
    std::fill(ephemeral.begin(), ephemeral.end(), '\0');
  }
  WireBuffer reencoded;
  encodeInto(copy, reencoded);
  EXPECT_EQ(*decode(reencoded.payload()), m);
}

TEST(ArenaTest, ResetRecyclesBlocksWithoutFreeing) {
  Arena arena(128);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 32; ++i) {
      (void)arena.copyString("some moderately long payload string");
    }
    const std::size_t blocksAfterFirstRound = arena.blockCount();
    arena.reset();
    EXPECT_EQ(arena.blockCount(), blocksAfterFirstRound);  // blocks kept
  }
}

TEST(ArenaTest, ResetDropsBlocksBeyondRetainBudget) {
  // Burst hygiene: a flood of oversized copies must not pin its peak
  // footprint forever — reset() frees blocks past the retain budget.
  Arena arena(/*blockBytes=*/128, /*maxRetainBytes=*/256);
  (void)arena.copyString(std::string(100, 'a'));   // block 0 (128)
  (void)arena.copyString(std::string(100, 'b'));   // block 1 (128)
  (void)arena.copyString(std::string(1000, 'c'));  // oversize block
  EXPECT_EQ(arena.blockCount(), 3u);
  arena.reset();
  EXPECT_EQ(arena.blockCount(), 2u);  // 128 + 128 <= 256; oversize freed
  // The retained blocks still serve post-reset traffic.
  EXPECT_EQ(arena.copyString("warm"), "warm");
}

TEST(ArenaTest, OversizeAllocationsGetDedicatedBlocks) {
  Arena arena(64);
  const auto big = arena.copyString(std::string(1000, 'x'));
  EXPECT_EQ(big.size(), 1000u);
  const auto small = arena.copyString("tail");
  EXPECT_EQ(small, "tail");
}

TEST(ArenaTest, SpansAreAligned) {
  Arena arena(256);
  (void)arena.copyString("x");  // misalign the bump cursor
  const auto ints = arena.allocSpan<std::int64_t>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ints.data()) % alignof(std::int64_t),
            0u);
}

// --- transport view delivery -------------------------------------------------

TEST(ViewHandlerTest, InProcDeliversViewsBothWays) {
  auto [a, b] = makeInProcPair();
  std::vector<Message> atB;
  b->setViewHandler([&](const MessageView& v) { atB.push_back(v.toMessage()); });
  const Message m = goldenBatchAck();
  ASSERT_TRUE(a->send(m).isOk());
  ASSERT_EQ(atB.size(), 1u);
  EXPECT_EQ(atB[0], m);
  // MessageRef sends land identically.
  MessageRef ref;
  ref.type = MsgType::kReleaseAck;
  ref.requestId = 9;
  ASSERT_TRUE(a->send(ref).isOk());
  ASSERT_EQ(atB.size(), 2u);
  EXPECT_EQ(atB[1].type, MsgType::kReleaseAck);
  EXPECT_EQ(atB[1].requestId, 9u);
}

/// The receiving end of one transport kind, and the end that feeds it.
struct Endpoints {
  std::unique_ptr<UnixSocketServer> server;
  std::unique_ptr<Transport> sender;
  std::unique_ptr<Transport> receiver;
};

/// in-proc: a plain pair. socket: the server end of a fresh connection.
/// shm: the server end of a session that upgraded to the ring pair (the
/// daemon's side, whose consumer runs before any handler exists).
Endpoints connectKind(const std::string& kind, const std::string& path) {
  Endpoints e;
  if (kind == "inproc") {
    std::tie(e.sender, e.receiver) = makeInProcPair();
    return e;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::unique_ptr<Transport> accepted;
  e.server = std::make_unique<UnixSocketServer>(path);
  EXPECT_TRUE(e.server
                  ->start([&](std::unique_ptr<Transport> conn) {
                    std::lock_guard lock(mu);
                    accepted = std::move(conn);
                    cv.notify_all();
                  })
                  .isOk());
  auto client = unixSocketConnect(path);
  EXPECT_TRUE(client.isOk());
  e.sender = std::move(*client);
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return accepted != nullptr; }));
  if (kind == "socket") {
    e.receiver = std::move(accepted);
    return e;
  }
  // shm: adopt the client's offer and ack over the ring, as the daemon
  // does, but install no handler on the upgraded end.
  std::unique_ptr<Transport> shm;
  bool acked = false;
  accepted->setHandler([&](Message&& hello) {
    std::lock_guard inner(mu);
    shm = shmAdoptServer(hello.text, accepted);
    Message ack;
    ack.type = MsgType::kHelloAck;
    ack.intArg2 = static_cast<std::int64_t>(TransportChoice::kShm);
    if (shm) (void)shm->send(ack);
  });
  e.sender->setHandler([&](Message&&) {
    std::lock_guard inner(mu);
    acked = true;
    cv.notify_all();
  });
  lock.unlock();
  EXPECT_TRUE(e.sender->send(goldenHello()).isOk());
  lock.lock();
  EXPECT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return acked; }));
  EXPECT_EQ(e.sender->kindName(), "shm");
  e.sender->setViewHandler(nullptr);  // it captures this frame's locals
  e.receiver = std::move(shm);
  return e;
}

/// Messages sent before the receiver has a handler are kept as encoded
/// frames and replayed, in order, on the thread that installs one — for
/// a view handler and for an owned-message (setHandler) edge consumer.
class PreHandlerBacklogTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(PreHandlerBacklogTest, ReplaysInOrder) {
  const auto& [kind, owned] = GetParam();
  // Declared before the endpoints, so an early return tears the
  // transports down before the state their handlers write.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> got;
  std::size_t replayed = 0;  // delivered on this thread, inside the install
  const std::string path =
      "/tmp/simfs_wire_backlog_" + std::to_string(::getpid()) + ".sock";
  Endpoints e = connectKind(kind, path);
  ASSERT_NE(e.receiver, nullptr);
  constexpr std::uint64_t kBacklog = 20;
  for (std::uint64_t i = 0; i < kBacklog; ++i) {
    Message m = i % 2 == 0 ? goldenBatchAck() : goldenRedirect();
    m.requestId = 1000 + i;
    ASSERT_TRUE(e.sender->send(m).isOk());
  }
  // Give the socket and ring deliveries time to land in the backlog.
  if (kind != "inproc") {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  const auto installer = std::this_thread::get_id();
  auto record = [&](Message m) {
    std::lock_guard lock(mu);
    if (std::this_thread::get_id() == installer) ++replayed;
    got.push_back(std::move(m));
    cv.notify_all();
  };
  if (owned) {
    e.receiver->setHandler([&](Message&& m) { record(std::move(m)); });
  } else {
    e.receiver->setViewHandler(
        [&](const MessageView& v) { record(v.toMessage()); });
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return got.size() == kBacklog; }));
  EXPECT_GT(replayed, 0u);
  for (std::uint64_t i = 0; i < kBacklog; ++i) {
    Message want = i % 2 == 0 ? goldenBatchAck() : goldenRedirect();
    want.requestId = 1000 + i;
    EXPECT_EQ(got[i], want) << "message " << i;
  }
  lock.unlock();
  e.sender->close();
  e.receiver.reset();
  if (e.server) e.server->stop();
}

INSTANTIATE_TEST_SUITE_P(
    Transports, PreHandlerBacklogTest,
    ::testing::Combine(::testing::Values("inproc", "socket", "shm"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_owned" : "_view");
    });

/// A handler that replies inline over a second in-proc pair exercises the
/// nested scratch-buffer delivery (outer view must stay intact).
TEST(ViewHandlerTest, NestedInlineDeliveryKeepsOuterViewValid) {
  auto [a, b] = makeInProcPair();
  auto [c, d] = makeInProcPair();
  std::vector<Message> atD;
  d->setViewHandler([&](const MessageView& v) { atD.push_back(v.toMessage()); });
  std::vector<Message> atB;
  b->setViewHandler([&](const MessageView& v) {
    // Nested send BEFORE reading the outer view: if deliveries shared one
    // scratch buffer this would corrupt `v`.
    MessageRef nested;
    nested.type = MsgType::kCancelAck;
    nested.requestId = v.requestId() + 1;
    ASSERT_TRUE(c->send(nested).isOk());
    atB.push_back(v.toMessage());
  });
  const Message m = goldenBatchAck();
  ASSERT_TRUE(a->send(m).isOk());
  ASSERT_EQ(atB.size(), 1u);
  EXPECT_EQ(atB[0], m);
  ASSERT_EQ(atD.size(), 1u);
  EXPECT_EQ(atD[0].requestId, m.requestId + 1);
}

TEST(ViewHandlerTest, SocketDeliversViewsOverReceiveBuffer) {
  const std::string path =
      "/tmp/simfs_wire_test_" + std::to_string(::getpid()) + ".sock";
  UnixSocketServer server(path);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Transport>> serverConns;
  std::vector<Message> received;
  ASSERT_TRUE(server
                  .start([&](std::unique_ptr<Transport> conn) {
                    conn->setViewHandler([&](const MessageView& v) {
                      std::lock_guard lock(mu);
                      received.push_back(v.toMessage());
                      cv.notify_all();
                    });
                    std::lock_guard lock(mu);
                    serverConns.push_back(std::move(conn));
                  })
                  .isOk());
  auto client = unixSocketConnect(path);
  ASSERT_TRUE(client.isOk());
  const Message m = goldenBatchAck();
  ASSERT_TRUE((*client)->send(m).isOk());
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return !received.empty(); }));
    EXPECT_EQ(received[0], m);
  }
  (*client)->close();
  server.stop();
}

}  // namespace
}  // namespace simfs::msg
