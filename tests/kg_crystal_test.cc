#include <set>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/crystal/hash_ring.h"
#include "src/crystal/object_store.h"
#include "src/kg/graph.h"

namespace rock {
namespace {

// ---------- Knowledge graph ----------

TEST(KnowledgeGraphTest, VerticesAndEdges) {
  kg::KnowledgeGraph g;
  auto a = g.AddVertex("A");
  auto b = g.AddVertex("B");
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_TRUE(g.HasVertex(a));
  EXPECT_FALSE(g.HasVertex(99));
  ASSERT_TRUE(g.AddEdge(a, "rel", b).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Neighbors(a, "rel"), std::vector<kg::VertexId>{b});
  EXPECT_TRUE(g.Neighbors(a, "other").empty());
  EXPECT_EQ(g.AddEdge(a, "rel", 99).code(), StatusCode::kOutOfRange);
}

TEST(KnowledgeGraphTest, PathMatchingMultiHop) {
  kg::KnowledgeGraph g;
  auto store = g.AddVertex("Store");
  auto city = g.AddVertex("Beijing");
  auto country = g.AddVertex("China");
  ASSERT_TRUE(g.AddEdge(store, "LocationAt", city).ok());
  ASSERT_TRUE(g.AddEdge(city, "InCountry", country).ok());
  EXPECT_TRUE(g.HasPath(store, {"LocationAt"}));
  EXPECT_TRUE(g.HasPath(store, {"LocationAt", "InCountry"}));
  EXPECT_FALSE(g.HasPath(store, {"InCountry"}));
  auto terminals = g.MatchPath(store, {"LocationAt", "InCountry"});
  ASSERT_EQ(terminals.size(), 1u);
  EXPECT_EQ(g.Label(terminals[0]), "China");
}

TEST(KnowledgeGraphTest, ValueAtPathDeterministicOnBranching) {
  kg::KnowledgeGraph g;
  auto root = g.AddVertex("root");
  auto z = g.AddVertex("zeta");
  auto a = g.AddVertex("alpha");
  ASSERT_TRUE(g.AddEdge(root, "p", z).ok());
  ASSERT_TRUE(g.AddEdge(root, "p", a).ok());
  // Lexicographically-least terminal keeps the chase deterministic.
  auto value = g.ValueAtPath(root, {"p"});
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "alpha");
  EXPECT_EQ(g.ValueAtPath(root, {"nope"}).status().code(),
            StatusCode::kNotFound);
}

TEST(KnowledgeGraphTest, EmptyPathMatchesSelf) {
  kg::KnowledgeGraph g;
  auto v = g.AddVertex("self");
  auto terminals = g.MatchPath(v, {});
  ASSERT_EQ(terminals.size(), 1u);
  EXPECT_EQ(terminals[0], v);
}

TEST(KnowledgeGraphTest, LabelIndex) {
  kg::KnowledgeGraph g;
  auto a = g.AddVertex("dup");
  auto b = g.AddVertex("dup");
  g.AddVertex("other");
  auto found = g.FindByLabel("dup");
  EXPECT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0], a);
  EXPECT_EQ(found[1], b);
  EXPECT_TRUE(g.FindByLabel("missing").empty());
}

// ---------- Consistent-hash ring ----------

TEST(HashRingTest, EmptyRingFails) {
  crystal::HashRing ring;
  EXPECT_EQ(ring.Locate("key").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(HashRingTest, AddRemoveNodes) {
  crystal::HashRing ring;
  ASSERT_TRUE(ring.AddNode("10.0.0.1").ok());
  EXPECT_EQ(ring.AddNode("10.0.0.1").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(ring.AddNode("10.0.0.2").ok());
  EXPECT_EQ(ring.num_nodes(), 2u);
  ASSERT_TRUE(ring.RemoveNode("10.0.0.1").ok());
  EXPECT_EQ(ring.RemoveNode("10.0.0.1").code(), StatusCode::kNotFound);
  EXPECT_EQ(ring.num_nodes(), 1u);
}

TEST(HashRingTest, LookupsAreDeterministic) {
  crystal::HashRing ring;
  ASSERT_TRUE(ring.AddNode("a").ok());
  ASSERT_TRUE(ring.AddNode("b").ok());
  ASSERT_TRUE(ring.AddNode("c").ok());
  for (int i = 0; i < 50; ++i) {
    std::string key = "key-" + std::to_string(i);
    auto first = ring.Locate(key);
    auto second = ring.Locate(key);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, *second);
  }
}

TEST(HashRingTest, LoadRoughlyBalanced) {
  crystal::HashRing ring(/*virtual_nodes=*/128);
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(ring.AddNode("node-" + std::to_string(n)).ok());
  }
  std::map<std::string, int> counts;
  const int kKeys = 4000;
  for (int i = 0; i < kKeys; ++i) {
    auto owner = ring.Locate("key-" + std::to_string(i));
    ASSERT_TRUE(owner.ok());
    counts[*owner]++;
  }
  for (const auto& [node, count] : counts) {
    // Within a generous band around the fair share of 1000.
    EXPECT_GT(count, 500) << node;
    EXPECT_LT(count, 1700) << node;
  }
}

TEST(HashRingTest, MinimalRemappingOnMembershipChange) {
  crystal::HashRing ring(128);
  ASSERT_TRUE(ring.AddNode("a").ok());
  ASSERT_TRUE(ring.AddNode("b").ok());
  ASSERT_TRUE(ring.AddNode("c").ok());
  const int kKeys = 3000;
  std::vector<std::string> before(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    before[i] = *ring.Locate("key-" + std::to_string(i));
  }
  ASSERT_TRUE(ring.AddNode("d").ok());
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (*ring.Locate("key-" + std::to_string(i)) != before[i]) ++moved;
  }
  // Expected ~ K/n = 750; consistent hashing keeps it near that, far from
  // the ~2/3 a mod-hash would remap.
  EXPECT_LT(moved, kKeys / 2);
  EXPECT_GT(moved, kKeys / 10);
}

// ---------- Object store ----------

TEST(ObjectStoreTest, PutGetRoundTrip) {
  crystal::ObjectStore store(64, /*block_size=*/8);
  ASSERT_TRUE(store.AddNode("n1").ok());
  ASSERT_TRUE(store.AddNode("n2").ok());
  std::string payload = "The quick brown fox jumps over the lazy dog";
  ASSERT_TRUE(store.Put("doc", payload).ok());
  auto loaded = store.Get("doc");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(store.num_objects(), 1u);
}

TEST(ObjectStoreTest, BlocksSpreadAcrossNodes) {
  crystal::ObjectStore store(64, /*block_size=*/4);
  ASSERT_TRUE(store.AddNode("n1").ok());
  ASSERT_TRUE(store.AddNode("n2").ok());
  ASSERT_TRUE(store.AddNode("n3").ok());
  ASSERT_TRUE(store.Put("big", std::string(400, 'x')).ok());  // 100 blocks
  size_t total = store.BlocksOnNode("n1") + store.BlocksOnNode("n2") +
                 store.BlocksOnNode("n3");
  EXPECT_EQ(total, 100u);
  EXPECT_GT(store.BlocksOnNode("n1"), 0u);
  EXPECT_GT(store.BlocksOnNode("n2"), 0u);
  EXPECT_GT(store.BlocksOnNode("n3"), 0u);
}

TEST(ObjectStoreTest, GetAfterNodeRemovalStillWorks) {
  crystal::ObjectStore store(64, 16);
  ASSERT_TRUE(store.AddNode("n1").ok());
  ASSERT_TRUE(store.AddNode("n2").ok());
  std::string payload(300, 'y');
  ASSERT_TRUE(store.Put("doc", payload).ok());
  auto stats = store.RemoveNode("n2");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->remapped_blocks, 0u);
  auto loaded = store.Get("doc");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(store.BlocksOnNode("n2"), 0u);
}

TEST(ObjectStoreTest, RebalanceMovesMinority) {
  crystal::ObjectStore store(128, 16);
  ASSERT_TRUE(store.AddNode("n1").ok());
  ASSERT_TRUE(store.AddNode("n2").ok());
  ASSERT_TRUE(store.AddNode("n3").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Put(StrFormat("o%d", i),
                          std::string(64, 'z')).ok());
  }
  auto stats = store.AddNodeWithRebalance("n4");
  ASSERT_TRUE(stats.ok());
  // Roughly 1/4 of blocks move to the new node.
  EXPECT_LT(stats->remap_ratio(), 0.5);
  EXPECT_GT(stats->remap_ratio(), 0.05);
  // Everything still readable.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(store.Get(StrFormat("o%d", i)).ok());
  }
}

TEST(ObjectStoreTest, DeleteAndOverwrite) {
  crystal::ObjectStore store(64, 8);
  ASSERT_TRUE(store.AddNode("n1").ok());
  ASSERT_TRUE(store.Put("doc", "version-1").ok());
  ASSERT_TRUE(store.Put("doc", "v2").ok());  // replace
  auto loaded = store.Get("doc");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "v2");
  ASSERT_TRUE(store.Delete("doc").ok());
  EXPECT_EQ(store.Get("doc").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete("doc").code(), StatusCode::kNotFound);
}

TEST(MetadataDirectoryTest, RegisterLookupUnregister) {
  crystal::MetadataDirectory directory;
  directory.Register("obj", 0, "n1");
  directory.Register("obj", 1, "n2");
  directory.Register("other", 0, "n3");
  auto node = directory.Lookup("obj", 1);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, "n2");
  auto placements = directory.Placements("obj");
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0].second, "n1");
  directory.Unregister("obj");
  EXPECT_FALSE(directory.Lookup("obj", 0).ok());
  EXPECT_TRUE(directory.Lookup("other", 0).ok());
}

}  // namespace
}  // namespace rock
