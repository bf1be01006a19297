// POSIX frontend tests: path classification, geometry wire hardening,
// the TTL cache, the PosixVfs batch/attach/cancel lifecycle over a live
// daemon, and the preload shim's fd table.
#include "dv/daemon.hpp"
#include "dvlib/iolib.hpp"
#include "dvlib/simfs_client.hpp"
#include "msg/message.hpp"
#include "msg/transport.hpp"
#include "posix/geometry.hpp"
#include "posix/path.hpp"
#include "posix/shim.hpp"
#include "posix/vfs_core.hpp"
#include "simulator/threaded_fleet.hpp"
#include "vfs/file_store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace simfs::posix {
namespace {

using simmodel::ContextConfig;
using simmodel::PerfModel;
using simmodel::StepGeometry;

// ------------------------------------------------------------------- path

TEST(PosixPathTest, ClassifiesTheThreeLevels) {
  EXPECT_EQ(parsePosixPath("").kind, PathKind::kRoot);
  EXPECT_EQ(parsePosixPath("/").kind, PathKind::kRoot);
  EXPECT_EQ(parsePosixPath("///").kind, PathKind::kRoot);

  const auto ctx = parsePosixPath("/cosmo");
  EXPECT_EQ(ctx.kind, PathKind::kContext);
  EXPECT_EQ(ctx.context, "cosmo");
  EXPECT_EQ(parsePosixPath("cosmo/").kind, PathKind::kContext);

  const auto file = parsePosixPath("/cosmo/out_0000000003.snc");
  EXPECT_EQ(file.kind, PathKind::kFile);
  EXPECT_EQ(file.context, "cosmo");
  EXPECT_EQ(file.file, "out_0000000003.snc");
  EXPECT_EQ(parsePosixPath("//cosmo///out_0000000003.snc").kind,
            PathKind::kFile);
}

TEST(PosixPathTest, RejectsWhatTheNamespaceCannotContain) {
  // Dotfiles and traversal: shells probe these constantly; they must
  // fail before any RPC.
  EXPECT_EQ(parsePosixPath("/.git").kind, PathKind::kInvalid);
  EXPECT_EQ(parsePosixPath("/cosmo/.hidden").kind, PathKind::kInvalid);
  EXPECT_EQ(parsePosixPath("/..").kind, PathKind::kInvalid);
  EXPECT_EQ(parsePosixPath("/cosmo/..").kind, PathKind::kInvalid);
  EXPECT_EQ(parsePosixPath(".").kind, PathKind::kInvalid);
  // Too deep.
  EXPECT_EQ(parsePosixPath("/a/b/c").kind, PathKind::kInvalid);
  // Trailing slash on a file.
  EXPECT_EQ(parsePosixPath("/cosmo/out_0000000003.snc/").kind,
            PathKind::kInvalid);
}

TEST(PosixPathTest, ValidComponent) {
  EXPECT_TRUE(validComponent("cosmo"));
  EXPECT_TRUE(validComponent("out_0000000003.snc"));
  EXPECT_FALSE(validComponent(""));
  EXPECT_FALSE(validComponent(".hidden"));
  EXPECT_FALSE(validComponent(".."));
  EXPECT_FALSE(validComponent("a/b"));
}

TEST(PosixPathTest, ClassifierIsOnePrefixCheck) {
  const PathClassifier c("/simfs/");
  std::string_view rest;
  EXPECT_TRUE(c.match("/simfs", &rest));
  EXPECT_EQ(rest, "");
  EXPECT_TRUE(c.match("/simfs/ctx0/x", &rest));
  EXPECT_EQ(rest, "/ctx0/x");
  EXPECT_FALSE(c.match("/simfsy/ctx0"));
  EXPECT_FALSE(c.match("/simf"));
  EXPECT_FALSE(c.match(nullptr));
  EXPECT_FALSE(PathClassifier("").match("/anything"));
}

// --------------------------------------------------------- geometry wire

msg::Message goodAck() {
  msg::Message m;
  m.type = msg::MsgType::kGeometryAck;
  m.requestId = 1;
  m.context = "cosmo";
  m.ints = {1, 4, 128, 64, 10};
  m.files = {"out_", ".snc"};
  m.intArg = 128;
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  m.text = "dv0";
  return m;
}

TEST(GeometryWireTest, ParsesTheContextForm) {
  const auto g = parseGeometryAck(goodAck());
  ASSERT_TRUE(g.isOk()) << g.status().toString();
  EXPECT_EQ(g->context, "cosmo");
  EXPECT_EQ(g->numOutputSteps, 128);
  EXPECT_EQ(g->outputStepBytes, 64u);
  EXPECT_EQ(g->fileAt(3), "out_0000000003.snc");
  StepIndex step = -1;
  EXPECT_TRUE(g->stepOf("out_0000000042.snc", &step));
  EXPECT_EQ(step, 42);
  EXPECT_FALSE(g->stepOf("restart_0000000001.rst", &step));
}

TEST(GeometryWireTest, RejectsHostileAcks) {
  {
    auto m = goodAck();
    m.type = msg::MsgType::kStatusAck;  // wrong type
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.code = static_cast<std::int32_t>(StatusCode::kNotFound);
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.ints.pop_back();  // truncated scalar list
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.ints.push_back(7);  // trailing garbage scalar
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.files = {"out_"};  // missing suffix
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.ints[0] = 0;  // deltaD < 1
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.ints[4] = 25;  // absurd pad width
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.files[0] = "evil/";  // path separator in an affix
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.intArg = 999;  // forged step count disagreeing with the geometry
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
  {
    auto m = goodAck();
    m.intArg = -1;
    EXPECT_FALSE(parseGeometryAck(m).isOk());
  }
}

TEST(GeometryWireTest, RejectsHostileEnumerations) {
  msg::Message m;
  m.type = msg::MsgType::kGeometryAck;
  m.files = {"ctx0", "ctx1"};
  m.intArg = 2;
  m.code = static_cast<std::int32_t>(StatusCode::kOk);
  ASSERT_TRUE(parseContextListAck(m).isOk());

  auto forged = m;
  forged.intArg = 3;  // count disagrees with the list
  EXPECT_FALSE(parseContextListAck(forged).isOk());

  auto dotted = m;
  dotted.files[1] = ".hidden";  // not a namespace component
  EXPECT_FALSE(parseContextListAck(dotted).isOk());
}

TEST(GeometryClientTest, TtlCachesAndInvalidates) {
  GeometryClient::Options opts;
  opts.ttl = std::chrono::milliseconds(60000);
  GeometryClient client(
      [](const msg::Message& req) -> Result<msg::Message> {
        auto ack = goodAck();
        ack.requestId = req.requestId;
        ack.context = req.context;
        return ack;
      },
      opts);
  ASSERT_TRUE(client.context("cosmo").isOk());
  ASSERT_TRUE(client.context("cosmo").isOk());
  EXPECT_EQ(client.fetches(), 1u);  // second lookup came from cache
  client.invalidate();
  ASSERT_TRUE(client.context("cosmo").isOk());
  EXPECT_EQ(client.fetches(), 2u);
}

TEST(GeometryClientTest, ZeroTtlRefetchesEveryLookup) {
  GeometryClient::Options opts;
  opts.ttl = std::chrono::milliseconds(0);
  GeometryClient client(
      [](const msg::Message& req) -> Result<msg::Message> {
        auto ack = goodAck();
        ack.requestId = req.requestId;
        ack.context = req.context;
        return ack;
      },
      opts);
  ASSERT_TRUE(client.context("cosmo").isOk());
  ASSERT_TRUE(client.context("cosmo").isOk());
  EXPECT_EQ(client.fetches(), 2u);
}

// ------------------------------------------------------------- live vfs

/// Pass-through transport wrapper counting outbound messages by type —
/// pins the one-kOpenBatchReq contract of the listing prefetch.
class CountingTransport final : public msg::Transport {
 public:
  struct Counters {
    std::mutex mu;
    std::map<msg::MsgType, int> sent;
    int of(msg::MsgType t) {
      std::lock_guard lock(mu);
      const auto it = sent.find(t);
      return it == sent.end() ? 0 : it->second;
    }
  };

  CountingTransport(std::unique_ptr<msg::Transport> inner,
                    std::shared_ptr<Counters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  Status send(const msg::MessageRef& m) override {
    {
      std::lock_guard lock(counters_->mu);
      ++counters_->sent[m.type];
    }
    return inner_->send(m);
  }
  void setViewHandler(ViewHandler handler) override {
    inner_->setViewHandler(std::move(handler));
  }
  void setCloseHandler(std::function<void()> handler) override {
    inner_->setCloseHandler(std::move(handler));
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool isOpen() const override { return inner_->isOpen(); }

 private:
  std::unique_ptr<msg::Transport> inner_;
  std::shared_ptr<Counters> counters_;
};

/// One kGeometryReq round trip over a fresh in-proc transport — the same
/// dispatch path a socket client exercises.
Result<msg::Message> inprocGeometryCall(dv::Daemon& daemon,
                                        const msg::Message& req) {
  auto transport = daemon.connectInProc();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<msg::Message> got;
  transport->setHandler([&](msg::Message&& m) {
    std::lock_guard lock(mu);
    got.push_back(std::move(m));
    cv.notify_all();
  });
  if (const auto st = transport->send(req); !st.isOk()) return st;
  std::unique_lock lock(mu);
  if (!cv.wait_for(lock, std::chrono::seconds(5),
                   [&] { return !got.empty(); })) {
    return errTimedOut("no geometry reply");
  }
  return std::move(got.front());
}

class PosixVfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.name = "posix";
    cfg_.geometry = StepGeometry(1, 4, 64);
    cfg_.outputStepBytes = 64;
    cfg_.cacheQuotaBytes = 0;
    cfg_.sMax = 8;
    cfg_.prefetchEnabled = false;
    cfg_.perf = PerfModel(2, 1 * vtime::kMillisecond,
                          2 * vtime::kMillisecond);
    daemon_ = std::make_unique<dv::Daemon>();
    fleet_ = std::make_unique<simulator::ThreadedSimulatorFleet>(
        *daemon_, store_, /*timeScale=*/0.001);
    ASSERT_TRUE(daemon_
                    ->registerContext(
                        std::make_unique<simmodel::SyntheticDriver>(cfg_))
                    .isOk());
    fleet_->registerContext(cfg_);
    daemon_->setLauncher(fleet_.get());
    counters_ = std::make_shared<CountingTransport::Counters>();
  }

  void TearDown() override {
    vfs_.reset();  // cancels handles + finalizes sessions first
    dvlib::IoDispatch::instance().reset();
    fleet_.reset();
    daemon_.reset();
  }

  void makeVfs(std::size_t batchMax = 64) {
    PosixVfs::Options opts;
    opts.geometryCall = [this](const msg::Message& req) {
      return inprocGeometryCall(*daemon_, req);
    };
    opts.connect = [this](const std::string&)
        -> Result<std::unique_ptr<msg::Transport>> {
      std::unique_ptr<msg::Transport> t = std::make_unique<CountingTransport>(
          daemon_->connectInProc(), counters_);
      return t;
    };
    opts.readdirBatchMax = batchMax;
    vfs_ = std::make_unique<PosixVfs>(std::move(opts));
  }

  ContextConfig cfg_;
  vfs::MemFileStore store_;
  std::unique_ptr<dv::Daemon> daemon_;
  std::unique_ptr<simulator::ThreadedSimulatorFleet> fleet_;
  std::shared_ptr<CountingTransport::Counters> counters_;
  std::unique_ptr<PosixVfs> vfs_;
};

TEST_F(PosixVfsTest, SynthesizesAttrsAndListings) {
  makeVfs();
  const auto roots = vfs_->listContexts();
  ASSERT_TRUE(roots.isOk());
  ASSERT_EQ(roots->size(), 1u);
  EXPECT_EQ((*roots)[0], "posix");

  auto attr = vfs_->getattr(parsePosixPath("/posix"));
  ASSERT_TRUE(attr.isOk());
  EXPECT_TRUE(attr->dir);
  EXPECT_EQ(attr->entries, 64);

  attr = vfs_->getattr(parsePosixPath("/posix/" + cfg_.codec.outputFile(7)));
  ASSERT_TRUE(attr.isOk());
  EXPECT_FALSE(attr->dir);
  EXPECT_EQ(attr->size, 64u);

  EXPECT_FALSE(vfs_->getattr(parsePosixPath("/nope")).isOk());
  // Step 64 parses but is off the timeline.
  EXPECT_FALSE(
      vfs_->getattr(parsePosixPath("/posix/" + cfg_.codec.outputFile(64)))
          .isOk());

  // Pagination: ascending step order, `more` set exactly until the end.
  const auto p0 = vfs_->readdir("posix", 0, 10);
  ASSERT_TRUE(p0.isOk());
  ASSERT_EQ(p0->names.size(), 10u);
  EXPECT_TRUE(p0->more);
  EXPECT_EQ(p0->names[0], cfg_.codec.outputFile(0));
  EXPECT_EQ(p0->names[9], cfg_.codec.outputFile(9));
  const auto p1 = vfs_->readdir("posix", 60, 10);
  ASSERT_TRUE(p1.isOk());
  ASSERT_EQ(p1->names.size(), 4u);
  EXPECT_FALSE(p1->more);
  const auto past = vfs_->readdir("posix", 64, 10);
  ASSERT_TRUE(past.isOk());
  EXPECT_TRUE(past->names.empty());
  EXPECT_FALSE(vfs_->readdir("posix", -1, 10).isOk());

  // One enumerate + one context fetch + one (failed, uncached) fetch for
  // the unknown context — every warm lookup above was a cache hit.
  EXPECT_EQ(vfs_->geometry().fetches(), 3u);
}

TEST_F(PosixVfsTest, ListingPlusEveryReadIsOneBatchRequest) {
  makeVfs();
  // `ls`: page the whole listing.
  std::vector<std::string> names;
  std::int64_t off = 0;
  for (;;) {
    const auto page = vfs_->readdir("posix", off, 16);
    ASSERT_TRUE(page.isOk());
    off += static_cast<std::int64_t>(page->names.size());
    names.insert(names.end(), page->names.begin(), page->names.end());
    if (!page->more) break;
  }
  ASSERT_EQ(names.size(), 64u);

  // Read everything: each open attaches to the listing's prefetch batch,
  // each waitReady blocks until the (cold) step was re-simulated.
  std::vector<std::int64_t> ids;
  for (const auto& name : names) {
    const auto opened = vfs_->open("posix", name);
    ASSERT_TRUE(opened.isOk()) << name << ": " << opened.status().toString();
    ids.push_back(opened->id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(vfs_->waitReady(ids[i]).isOk()) << names[i];
    const auto bytes = store_.read(names[i]);
    ASSERT_TRUE(bytes.isOk()) << names[i];
    EXPECT_FALSE(bytes->empty()) << names[i];
  }
  for (const auto id : ids) vfs_->close(id);

  // THE tentpole pin: 64 filenames listed and read cost ONE vectored
  // open request on the wire.
  EXPECT_EQ(counters_->of(msg::MsgType::kOpenBatchReq), 1);
}

TEST_F(PosixVfsTest, ColdOpenMatchesFacadeBytes) {
  makeVfs();
  const std::string name = cfg_.codec.outputFile(42);

  // POSIX path: open without a covering listing -> batch of one; the
  // ready-wait rides out the re-simulation.
  const auto opened = vfs_->open("posix", name);
  ASSERT_TRUE(opened.isOk());
  EXPECT_EQ(opened->size, 64u);
  EXPECT_EQ(opened->storeName, name);
  ASSERT_TRUE(vfs_->waitReady(opened->id).isOk());
  const auto posixBytes = store_.read(name);
  ASSERT_TRUE(posixBytes.isOk());
  vfs_->close(opened->id);

  // Facade oracle: the intercepted-I/O path must deliver the same bytes.
  auto client = dvlib::SimFSClient::connect(daemon_->connectInProc(), "posix");
  ASSERT_TRUE(client.isOk());
  auto& io = dvlib::IoDispatch::instance();
  io.installAnalysis(client->get(), &store_);
  const auto handle = io.openForRead(name);
  ASSERT_TRUE(handle.isOk());
  const auto oracle = io.readAll(*handle);
  ASSERT_TRUE(oracle.isOk());
  ASSERT_TRUE(io.close(*handle).isOk());
  io.reset();

  EXPECT_EQ(*posixBytes, *oracle);
}

TEST_F(PosixVfsTest, OpenRejectsWhatIsNotInTheNamespace) {
  makeVfs();
  EXPECT_FALSE(vfs_->open("posix", "garbage.txt").isOk());
  EXPECT_FALSE(vfs_->open("posix", cfg_.codec.outputFile(64)).isOk());
  EXPECT_FALSE(vfs_->open("nope", cfg_.codec.outputFile(0)).isOk());
  EXPECT_FALSE(vfs_->waitReady(999).isOk());  // unknown handle
}

TEST_F(PosixVfsTest, CloseOfUnreadOpenCancelsCleanly) {
  makeVfs();
  const std::string name = cfg_.codec.outputFile(3);
  const auto opened = vfs_->open("posix", name);
  ASSERT_TRUE(opened.isOk());
  vfs_->close(opened->id);  // never waited: must cancel, not leak

  // The registration is gone; a fresh open + wait still works.
  const auto again = vfs_->open("posix", name);
  ASSERT_TRUE(again.isOk());
  ASSERT_TRUE(vfs_->waitReady(again->id).isOk());
  vfs_->close(again->id);
}

TEST_F(PosixVfsTest, HostileGeometryFailsCleanly) {
  PosixVfs::Options opts;
  opts.geometryCall = [](const msg::Message&) -> Result<msg::Message> {
    auto ack = goodAck();
    ack.ints.pop_back();  // truncated scalar list
    return ack;
  };
  opts.connect = [this](const std::string&)
      -> Result<std::unique_ptr<msg::Transport>> {
    return daemon_->connectInProc();
  };
  vfs_ = std::make_unique<PosixVfs>(std::move(opts));
  EXPECT_FALSE(vfs_->getattr(parsePosixPath("/posix")).isOk());
  EXPECT_FALSE(vfs_->readdir("posix", 0, 10).isOk());
  EXPECT_FALSE(vfs_->open("posix", "out_0000000001.snc").isOk());
}

// -------------------------------------------------------------- fd table

TEST(FdTableTest, LookupIsBoundsCheckedAndReuseRecycles) {
  FdTable table;
  EXPECT_EQ(table.get(-1), nullptr);
  EXPECT_EQ(table.get(FdTable::kCapacity), nullptr);
  EXPECT_EQ(table.take(1 << 20), nullptr);

  FdEntry* a = table.acquireEntry();
  a->vfsOpenId = 7;
  a->size = 64;
  table.install(5, a);
  EXPECT_EQ(table.get(5), a);
  EXPECT_EQ(table.get(6), nullptr);

  FdEntry* taken = table.take(5);
  EXPECT_EQ(taken, a);
  EXPECT_EQ(table.get(5), nullptr);   // detached
  EXPECT_EQ(table.take(5), nullptr);  // idempotent
  table.recycle(taken);

  // Steady-state churn reuses the pooled entry, fully reset.
  FdEntry* b = table.acquireEntry();
  EXPECT_EQ(b, a);
  EXPECT_EQ(b->vfsOpenId, 0);
  EXPECT_EQ(b->size, 0u);
  EXPECT_FALSE(b->isDir);
  EXPECT_EQ(b->state.load(), FdEntry::kPending);
  table.install(5, b);
  table.recycle(table.take(5));
}

}  // namespace
}  // namespace simfs::posix
