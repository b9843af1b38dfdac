// Tests for the shared ego-network materialization layer (Alg. 6-7):
//   * staging/peeling/compile primitives (phantom semantics included);
//   * bit-identical parity between EgoBuilder::BuildEgo and a reference
//     reimplementation of the seed's hash-map-based materialization path
//     (LocalGraphBuilder + QCApp::BuildEgoGraph), across generated graphs,
//     roots, and masked/unmasked vertex sources;
//   * scratch reuse across tasks changes nothing;
//   * serial and parallel miners, both driving the shared builder, agree
//     on the maximal result set.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"

namespace qcm {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the seed's hash-map LocalGraphBuilder and the
// seed's QCApp::BuildEgoGraph wired over an EgoVertexSource. Kept verbatim
// (modulo the source indirection) as the parity oracle for the flat-array
// EgoBuilder that replaced it.
// ---------------------------------------------------------------------------

class RefBuilder {
 public:
  void Stage(VertexId v, std::vector<VertexId> adj) {
    Entry& e = entries_[v];
    e.adj = std::move(adj);
    e.alive = true;
  }

  bool IsStaged(VertexId v) const {
    auto it = entries_.find(v);
    return it != entries_.end() && it->second.alive;
  }

  std::vector<VertexId> PhantomTargets() const {
    std::vector<VertexId> out;
    for (const auto& [vid, e] : entries_) {
      if (!e.alive) continue;
      for (VertexId w : e.adj) {
        auto it = entries_.find(w);
        if (it == entries_.end() || !it->second.alive) out.push_back(w);
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  void PeelToKCore(uint32_t k) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [vid, e] : entries_) {
        if (!e.alive) continue;
        auto dead = [this](VertexId w) {
          auto it = entries_.find(w);
          return it != entries_.end() && !it->second.alive;
        };
        e.adj.erase(std::remove_if(e.adj.begin(), e.adj.end(), dead),
                    e.adj.end());
        if (e.adj.size() < k) {
          e.alive = false;
          changed = true;
        }
      }
    }
  }

  std::vector<VertexId> AliveVids() const {
    std::vector<VertexId> vids;
    for (const auto& [vid, e] : entries_) {
      if (e.alive) vids.push_back(vid);
    }
    std::sort(vids.begin(), vids.end());
    return vids;
  }

  std::vector<std::pair<VertexId, VertexId>> AliveEdges() const {
    // Global-id edge list: kept iff either endpoint listed it, both alive.
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (const auto& [vid, e] : entries_) {
      if (!e.alive) continue;
      for (VertexId w : e.adj) {
        if (w == vid || !IsStaged(w)) continue;
        edges.emplace_back(std::min(vid, w), std::max(vid, w));
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
  }

 private:
  struct Entry {
    std::vector<VertexId> adj;
    bool alive = true;
  };
  std::unordered_map<VertexId, Entry> entries_;
};

struct RefEgo {
  bool alive = false;  // task survived
  std::vector<VertexId> vids;
  std::vector<std::pair<VertexId, VertexId>> edges;
};

RefEgo ReferenceBuildEgo(EgoVertexSource& src, VertexId root, uint32_t k,
                         uint32_t min_size) {
  RefEgo out;
  std::vector<VertexId> v1;
  std::unordered_set<VertexId> v2;
  std::unordered_set<VertexId> one_hop;
  one_hop.insert(root);
  {
    auto adj = src.Adjacency(root);
    for (VertexId u : adj) {
      if (u <= root) continue;
      one_hop.insert(u);
      if (src.Degree(u) >= k) {
        v1.push_back(u);
      } else {
        v2.insert(u);
      }
    }
  }
  if (v1.empty()) return out;

  RefBuilder builder;
  builder.Stage(root, v1);
  std::vector<VertexId> adj;
  for (VertexId u : v1) {
    adj.clear();
    for (VertexId w : src.Adjacency(u)) {
      if (w >= root && v2.count(w) == 0) adj.push_back(w);
    }
    builder.Stage(u, adj);
  }
  builder.PeelToKCore(k);
  if (!builder.IsStaged(root)) return out;

  std::vector<VertexId> second_hop;
  for (VertexId w : builder.PhantomTargets()) {
    if (one_hop.count(w) == 0) second_hop.push_back(w);
  }
  std::unordered_set<VertexId> b(one_hop.begin(), one_hop.end());
  for (VertexId w : second_hop) b.insert(w);
  for (VertexId w : second_hop) {
    if (src.Degree(w) < k) continue;
    adj.clear();
    for (VertexId x : src.Adjacency(w)) {
      if (x >= root && b.count(x) != 0) adj.push_back(x);
    }
    builder.Stage(w, adj);
  }
  builder.PeelToKCore(k);
  if (!builder.IsStaged(root)) return out;

  out.vids = builder.AliveVids();
  if (out.vids.size() < min_size) return RefEgo();
  out.edges = builder.AliveEdges();
  out.alive = true;
  return out;
}

/// The new builder's LocalGraph, decompiled to global-id form for
/// comparison against the reference.
RefEgo Decompile(const LocalGraph& g) {
  RefEgo out;
  out.alive = g.n() > 0;
  out.vids = g.GlobalIds();
  for (LocalId u = 0; u < g.n(); ++u) {
    for (LocalId v : g.Neighbors(u)) {
      if (u < v) out.edges.emplace_back(g.GlobalId(u), g.GlobalId(v));
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

// ---------------------------------------------------------------------------
// Staging primitives (moved from local_graph_test when LocalGraphBuilder
// was replaced).
// ---------------------------------------------------------------------------

TEST(EgoBuilderPrimitives, EdgeSymmetrizedFromOneSide) {
  // Only vertex 1 lists the edge 1-2; Build must still create it.
  EgoBuilder builder;
  builder.Stage(1, {2});
  builder.Stage(2, {});
  LocalGraph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(EgoBuilderPrimitives, PhantomEntriesDroppedAtBuild) {
  EgoBuilder builder;
  builder.Stage(1, {2, 99});  // 99 never staged
  builder.Stage(2, {1});
  LocalGraph g = builder.Build();
  EXPECT_EQ(g.n(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(EgoBuilderPrimitives, PhantomsCountTowardPeelDegree) {
  // Vertex 1 has adjacency {90, 91} (both phantoms): with k=2 it must
  // survive peeling even though no staged neighbor exists.
  EgoBuilder builder;
  builder.Stage(1, {90, 91});
  builder.PeelToKCore(2);
  EXPECT_TRUE(builder.IsStaged(1));
  // With k=3 it is peeled.
  builder.PeelToKCore(3);
  EXPECT_FALSE(builder.IsStaged(1));
}

TEST(EgoBuilderPrimitives, PeelCascades) {
  // Triangle 1,2,3 plus chain 3-4-5: PeelToKCore(2) keeps the triangle.
  EgoBuilder builder;
  builder.Stage(1, {2, 3});
  builder.Stage(2, {1, 3});
  builder.Stage(3, {1, 2, 4});
  builder.Stage(4, {3, 5});
  builder.Stage(5, {4});
  builder.PeelToKCore(2);
  EXPECT_TRUE(builder.IsStaged(1));
  EXPECT_TRUE(builder.IsStaged(2));
  EXPECT_TRUE(builder.IsStaged(3));
  EXPECT_FALSE(builder.IsStaged(4));
  EXPECT_FALSE(builder.IsStaged(5));
  LocalGraph g = builder.Build();
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(EgoBuilderPrimitives, RestageOverwrites) {
  EgoBuilder builder;
  builder.Stage(1, {2, 3, 4});
  EXPECT_EQ(builder.AdjLength(1), 3u);
  builder.Stage(1, {2});
  EXPECT_EQ(builder.AdjLength(1), 1u);
  EXPECT_EQ(builder.StagedCount(), 1u);
  builder.Stage(2, {1});
  LocalGraph g = builder.Build();
  EXPECT_EQ(g.n(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(EgoBuilderPrimitives, PhantomTargetsSortedDistinct) {
  EgoBuilder builder;
  builder.Stage(5, {9, 7, 12});
  builder.Stage(7, {5, 9});
  EXPECT_EQ(builder.PhantomTargets(), (std::vector<VertexId>{9, 12}));
}

TEST(EgoBuilderPrimitives, ResetDiscardsState) {
  EgoBuilder builder;
  builder.Stage(1, {2});
  builder.Stage(2, {1});
  builder.Reset();
  EXPECT_FALSE(builder.IsStaged(1));
  EXPECT_EQ(builder.StagedCount(), 0u);
  LocalGraph g = builder.Build();
  EXPECT_EQ(g.n(), 0u);
}

// ---------------------------------------------------------------------------
// Parity: the flat-array BuildEgo emits exactly what the seed's hash-map
// path emitted, for every root of several generated graphs.
// ---------------------------------------------------------------------------

void ExpectParityOnAllRoots(const Graph& g, uint32_t k, uint32_t min_size,
                            const std::vector<uint8_t>* mask) {
  GraphVertexSource ref_source(&g, mask);
  GraphVertexSource new_source(&g, mask);
  EgoScratch scratch;
  scratch.Reset(g.NumVertices());
  EgoBuilder builder(&scratch);
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    if (mask != nullptr && !(*mask)[root]) continue;
    RefEgo expected = ReferenceBuildEgo(ref_source, root, k, min_size);
    LocalGraph ego = builder.BuildEgo(new_source, root, k, min_size);
    RefEgo actual = Decompile(ego);
    ASSERT_EQ(actual.alive, expected.alive) << "root=" << root;
    if (!expected.alive) continue;
    ASSERT_EQ(actual.vids, expected.vids) << "root=" << root;
    ASSERT_EQ(actual.edges, expected.edges) << "root=" << root;
  }
}

TEST(EgoBuildParity, ErdosRenyiAllRoots) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto g = std::move(GenErdosRenyi(60, 240, seed)).value();
    ExpectParityOnAllRoots(g, 3, 4, nullptr);
    ExpectParityOnAllRoots(g, 5, 6, nullptr);
  }
}

TEST(EgoBuildParity, BarabasiAlbertAllRoots) {
  auto g = std::move(GenBarabasiAlbert(200, 4, 11)).value();
  ExpectParityOnAllRoots(g, 4, 5, nullptr);
}

TEST(EgoBuildParity, PlantedCommunitiesAllRoots) {
  auto g = std::move(GenPlantedCommunities({.num_vertices = 150,
                                            .num_communities = 4,
                                            .community_min = 8,
                                            .community_max = 12,
                                            .intra_density = 0.9,
                                            .seed = 21}))
               .value();
  ExpectParityOnAllRoots(g, 6, 8, nullptr);
}

TEST(EgoBuildParity, MaskedSourceAllRoots) {
  // The serial miner's configuration: vertices outside the global k-core
  // report degree 0 and never enter any ego network.
  auto g = std::move(GenErdosRenyi(80, 320, 9)).value();
  const uint32_t k = 4;
  std::vector<uint8_t> mask = KCoreMask(g, k);
  ExpectParityOnAllRoots(g, k, 5, &mask);
}

TEST(EgoBuildParity, ScratchReuseMatchesFreshBuilder) {
  // Reusing one scratch across many roots must give exactly what a fresh
  // builder gives per root (epoch marking fully isolates tasks).
  auto g = std::move(GenErdosRenyi(50, 200, 4)).value();
  GraphVertexSource source(&g);
  EgoScratch scratch;
  scratch.Reset(g.NumVertices());
  EgoBuilder reused(&scratch);
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    EgoBuilder fresh;
    GraphVertexSource fresh_source(&g);
    LocalGraph a = reused.BuildEgo(source, root, 3, 4);
    LocalGraph b = fresh.BuildEgo(fresh_source, root, 3, 4);
    EXPECT_EQ(a, b) << "root=" << root;
  }
}

// ---------------------------------------------------------------------------
// Alg. 6-7 semantics
// ---------------------------------------------------------------------------

TEST(EgoBuildSemantics, RootWithoutLargerNeighborsDies) {
  // Triangle 0-1-2: root 2 has no neighbor with a larger id.
  auto g = std::move(Graph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}})).value();
  GraphVertexSource source(&g);
  EgoBuilder builder;
  EXPECT_EQ(builder.BuildEgo(source, 2, 2, 2).n(), 0u);
  // Root 0 sees the whole triangle.
  LocalGraph ego = builder.BuildEgo(source, 0, 2, 3);
  EXPECT_EQ(ego.n(), 3u);
  EXPECT_EQ(ego.NumEdges(), 3u);
}

TEST(EgoBuildSemantics, MinSizeKillsSmallEgos) {
  auto g = std::move(Graph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}})).value();
  GraphVertexSource source(&g);
  EgoBuilder builder;
  EXPECT_EQ(builder.BuildEgo(source, 0, 2, 4).n(), 0u);
}

TEST(EgoBuildSemantics, ContainsTwoHopNeighborhood) {
  // Path 0-1-2-3: ego of 0 with k=1 holds {0,1,2} (3 is three hops away).
  auto g = std::move(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}})).value();
  GraphVertexSource source(&g);
  EgoBuilder builder;
  LocalGraph ego = builder.BuildEgo(source, 0, 1, 2);
  EXPECT_EQ(ego.GlobalIds(), (std::vector<VertexId>{0, 1, 2}));
}

TEST(EgoBuildSemantics, SetEnumerationDisciplineExcludesSmallerIds) {
  // 5-clique: ego of root r only contains ids >= r.
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  auto g = std::move(Graph::FromEdges(5, std::move(edges))).value();
  GraphVertexSource source(&g);
  EgoBuilder builder;
  for (VertexId root = 0; root < 3; ++root) {
    LocalGraph ego = builder.BuildEgo(source, root, 2, 2);
    ASSERT_GT(ego.n(), 0u);
    EXPECT_EQ(ego.GlobalId(0), root);
    for (LocalId v = 0; v < ego.n(); ++v) {
      EXPECT_GE(ego.GlobalId(v), root);
    }
  }
}

// ---------------------------------------------------------------------------
// End to end: serial and parallel miners share the builder and agree.
// ---------------------------------------------------------------------------

TEST(SharedBuilderEndToEnd, SerialAndParallelMaximalParity) {
  auto g = std::move(GenPlantedCommunities({.num_vertices = 220,
                                            .background_edges = 400,
                                            .background =
                                                BackgroundModel::kErdosRenyi,
                                            .num_communities = 5,
                                            .community_min = 8,
                                            .community_max = 11,
                                            .intra_density = 0.95,
                                            .seed = 17}))
               .value();
  MiningOptions opts;
  opts.gamma = 0.85;
  opts.min_size = 6;

  VectorSink sink;
  SerialMiner serial(opts);
  ASSERT_TRUE(serial.Run(g, &sink).ok());
  auto serial_maximal = FilterMaximal(sink.results());
  ASSERT_FALSE(serial_maximal.empty());

  EngineConfig config;
  config.mining = opts;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.tau_split = 16;
  config.tau_time = 0.001;
  ParallelMiner parallel(config);
  auto result = parallel.Run(g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->maximal, serial_maximal);
}

}  // namespace
}  // namespace qcm
