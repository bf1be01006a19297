// Unit tests for the cluster layer: consistent-hash ring construction,
// placement determinism, distribution, membership-change stability, and
// the wire/spec encodings.
#include "cluster/ring.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

namespace simfs::cluster {
namespace {

std::vector<NodeInfo> threeNodes() {
  return {{"dv0", "/tmp/dv0.sock"},
          {"dv1", "/tmp/dv1.sock"},
          {"dv2", "/tmp/dv2.sock"}};
}

TEST(RingTest, RejectsBadMembership) {
  EXPECT_FALSE(Ring::make({}).isOk());
  EXPECT_FALSE(Ring::make({{"", "/a"}}).isOk());
  EXPECT_FALSE(Ring::make({{"a", ""}}).isOk());
  EXPECT_FALSE(Ring::make({{"a=b", "/a"}}).isOk());
  EXPECT_FALSE(Ring::make({{"a,b", "/a"}}).isOk());
  EXPECT_FALSE(Ring::make({{"a", "/a"}, {"a", "/b"}}).isOk());
  EXPECT_FALSE(Ring::make(threeNodes(), 1, 0).isOk());
}

TEST(RingTest, ParseAndEncodeRoundTrip) {
  auto ring = Ring::parse("dv0=/tmp/dv0.sock,dv1=/tmp/dv1.sock", 7);
  ASSERT_TRUE(ring.isOk());
  EXPECT_EQ(ring->size(), 2u);
  EXPECT_EQ(ring->version(), 7u);
  const auto entries = ring->encodeEntries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "dv0=/tmp/dv0.sock");
  auto again = Ring::fromEntries(entries, 8);
  ASSERT_TRUE(again.isOk());
  EXPECT_TRUE(ring->sameMembership(*again));
  EXPECT_EQ(again->version(), 8u);
}

TEST(RingTest, ParseRejectsMalformedEntries) {
  EXPECT_FALSE(Ring::parse("").isOk());
  EXPECT_FALSE(Ring::parse("noequals").isOk());
  EXPECT_FALSE(Ring::parse("=endpoint").isOk());
  EXPECT_FALSE(Ring::parse("id=").isOk());
}

TEST(RingTest, FromEntriesRejectsSmuggledSeparators) {
  // A forged wire entry must not mint extra members.
  EXPECT_FALSE(Ring::fromEntries({"dv0=/s0", "x=/a,y=/b"}, 1).isOk());
  EXPECT_FALSE(Ring::fromEntries({"noequals"}, 1).isOk());
  EXPECT_FALSE(Ring::fromEntries({}, 1).isOk());
}

TEST(RingTest, PlacementIsDeterministicAcrossInstances) {
  auto a = Ring::make(threeNodes()).value();
  auto b = Ring::make(threeNodes()).value();
  for (int i = 0; i < 200; ++i) {
    const std::string ctx = "context-" + std::to_string(i);
    EXPECT_EQ(a.ownerOf(ctx).id, b.ownerOf(ctx).id) << ctx;
  }
}

TEST(RingTest, SingleNodeOwnsEverything) {
  auto ring = Ring::make({{"solo", "/tmp/solo.sock"}}).value();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ring.ownerOf("ctx" + std::to_string(i)).id, "solo");
  }
}

TEST(RingTest, VirtualNodesSpreadContexts) {
  auto ring = Ring::make(threeNodes()).value();
  std::map<std::string, int> owned;
  constexpr int kContexts = 300;
  for (int i = 0; i < kContexts; ++i) {
    owned[ring.ownerOf("ctx" + std::to_string(i)).id]++;
  }
  ASSERT_EQ(owned.size(), 3u) << "some node owns nothing";
  for (const auto& [id, n] : owned) {
    // With 64 virtual nodes the shares are ~100 +- a few dozen; anything
    // owning < 1/10th of the fair share means the hash is clustering.
    EXPECT_GT(n, kContexts / 30) << id;
  }
}

TEST(RingTest, RemovingANodeOnlyMovesItsContexts) {
  auto full = Ring::make(threeNodes()).value();
  auto reduced =
      Ring::make({{"dv0", "/tmp/dv0.sock"}, {"dv1", "/tmp/dv1.sock"}}).value();
  int moved = 0;
  int kept = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string ctx = "ctx" + std::to_string(i);
    const std::string before = full.ownerOf(ctx).id;
    const std::string after = reduced.ownerOf(ctx).id;
    if (before == "dv2") {
      ++moved;  // must move somewhere
      EXPECT_NE(after, "dv2");
    } else {
      ++kept;
      // The consistent-hashing contract: surviving nodes keep theirs.
      EXPECT_EQ(after, before) << ctx;
    }
  }
  EXPECT_GT(moved, 0);
  EXPECT_GT(kept, 0);
}

TEST(RingTest, FindLooksUpMembers) {
  auto ring = Ring::make(threeNodes()).value();
  ASSERT_NE(ring.find("dv1"), nullptr);
  EXPECT_EQ(ring.find("dv1")->endpoint, "/tmp/dv1.sock");
  EXPECT_EQ(ring.find("nope"), nullptr);
}

TEST(RingTest, EmptyRingIsInert) {
  Ring ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.encodeEntries().empty());
}

// --- elastic membership ops -------------------------------------------------

TEST(RingTest, WithNodeAddsAMemberAtTheNewVersion) {
  auto ring = Ring::make(threeNodes(), 3).value();
  auto grown = ring.withNode({"dv3", "/tmp/dv3.sock"}, 4);
  ASSERT_TRUE(grown.isOk());
  EXPECT_EQ(grown->size(), 4u);
  EXPECT_EQ(grown->version(), 4u);
  ASSERT_NE(grown->find("dv3"), nullptr);
  EXPECT_EQ(grown->find("dv3")->endpoint, "/tmp/dv3.sock");
  // The source ring is untouched (immutability is the fencing story:
  // every version is a distinct table).
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.version(), 3u);
  // Duplicate id / invalid member fail Ring::make's validation.
  EXPECT_FALSE(ring.withNode({"dv1", "/elsewhere"}, 4).isOk());
  EXPECT_FALSE(ring.withNode({"", "/x"}, 4).isOk());
}

TEST(RingTest, WithoutNodeRemovesAMemberButNeverTheLast) {
  auto ring = Ring::make(threeNodes(), 3).value();
  auto shrunk = ring.withoutNode("dv2", 4);
  ASSERT_TRUE(shrunk.isOk());
  EXPECT_EQ(shrunk->size(), 2u);
  EXPECT_EQ(shrunk->version(), 4u);
  EXPECT_EQ(shrunk->find("dv2"), nullptr);
  EXPECT_FALSE(ring.withoutNode("nope", 4).isOk());
  auto solo = Ring::make({{"solo", "/tmp/solo.sock"}}).value();
  EXPECT_FALSE(solo.withoutNode("solo", 2).isOk());
}

TEST(RingTest, MovedContextsIsExactlyTheOwnershipDelta) {
  auto from = Ring::make(threeNodes(), 1).value();
  auto to = from.withNode({"dv3", "/tmp/dv3.sock"}, 2).value();
  std::vector<std::string> contexts;
  for (int i = 0; i < 200; ++i) contexts.push_back("ctx" + std::to_string(i));
  const auto moved = Ring::movedContexts(from, to, contexts);
  EXPECT_FALSE(moved.empty()) << "a 4th node must attract some contexts";
  std::set<std::string> movedSet(moved.begin(), moved.end());
  for (const auto& ctx : contexts) {
    const bool differs = from.ownerOf(ctx).id != to.ownerOf(ctx).id;
    EXPECT_EQ(movedSet.count(ctx) != 0, differs) << ctx;
    // Consistent hashing: whatever moved, moved TO the joiner.
    if (differs) EXPECT_EQ(to.ownerOf(ctx).id, "dv3") << ctx;
  }
  // Identical membership at a bumped version moves nothing, by
  // construction — the pinned contract behind the client-side
  // fast-forward (adoptRing returns "no change" on a pure bump).
  const auto bumped = Ring::fromEntries(from.encodeEntries(), 9).value();
  EXPECT_TRUE(from.sameMembership(bumped));
  EXPECT_TRUE(Ring::movedContexts(from, bumped, contexts).empty());
  // Empty rings place nothing, so nothing can move.
  EXPECT_TRUE(Ring::movedContexts(Ring(), to, contexts).empty());
  EXPECT_TRUE(Ring::movedContexts(from, Ring(), contexts).empty());
}

}  // namespace
}  // namespace simfs::cluster
