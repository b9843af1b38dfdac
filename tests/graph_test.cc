// Unit tests for graph/: CSR construction, k-core peeling, edge I/O, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/kcore.h"
#include "graph/stats.h"

namespace qcm {
namespace {

Graph MakePath(uint32_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return std::move(Graph::FromEdges(n, std::move(edges))).value();
}

Graph MakeClique(uint32_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  }
  return std::move(Graph::FromEdges(n, std::move(edges))).value();
}

TEST(GraphTest, EmptyGraph) {
  auto g = Graph::FromEdges(0, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 0u);
  EXPECT_EQ(g->NumEdges(), 0u);
  EXPECT_EQ(g->MaxDegree(), 0u);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  auto g = Graph::FromEdges(3, {{0, 3}});
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, DropsSelfLoopsAndDuplicates) {
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 0}, {2, 2}, {0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2u);
  EXPECT_EQ(g->Degree(0), 1u);
  EXPECT_EQ(g->Degree(1), 2u);
  EXPECT_EQ(g->Degree(2), 1u);
  EXPECT_EQ(g->Degree(3), 0u);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  auto g = Graph::FromEdges(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}, {1, 4}});
  ASSERT_TRUE(g.ok());
  auto nbrs = g->Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
  for (VertexId u = 0; u < g->NumVertices(); ++u) {
    for (VertexId v : g->Neighbors(u)) {
      EXPECT_TRUE(g->HasEdge(v, u)) << u << "-" << v;
    }
  }
}

TEST(GraphTest, HasEdge) {
  Graph g = MakePath(4);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(GraphTest, CliqueDegrees) {
  Graph g = MakeClique(6);
  EXPECT_EQ(g.NumEdges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
  EXPECT_EQ(g.MaxDegree(), 5u);
}

TEST(KCoreTest, PathCoreNumbers) {
  Graph g = MakePath(5);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 1u) << v;
}

TEST(KCoreTest, CliqueCoreNumbers) {
  Graph g = MakeClique(5);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 4u);
}

TEST(KCoreTest, CliqueWithPendant) {
  // Clique 0-3 plus pendant 4 attached to 0.
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(0, 4);
  auto g = std::move(Graph::FromEdges(5, std::move(edges))).value();
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core[4], 1u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(core[v], 3u);
  auto mask = KCoreMask(g, 3);
  EXPECT_EQ(KCoreSize(g, 3), 4u);
  EXPECT_FALSE(mask[4]);
}

TEST(KCoreTest, PeelingCascades) {
  // A "tail" 0-1-2 hanging off a triangle 2,3,4: 2-core is the triangle.
  auto g = std::move(Graph::FromEdges(
                         5, {{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}))
               .value();
  EXPECT_EQ(KCoreSize(g, 2), 3u);
  auto mask = KCoreMask(g, 2);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[2]);
  EXPECT_TRUE(mask[3]);
  EXPECT_TRUE(mask[4]);
}

TEST(KCoreTest, MatchesBruteForceOnRandomGraphs) {
  // Property: the k-core mask equals iterated naive peeling.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::move(GenErdosRenyi(60, 150, seed)).value();
    for (uint32_t k = 1; k <= 5; ++k) {
      auto mask = KCoreMask(g, k);
      // Naive peeling.
      std::vector<uint8_t> alive(g.NumVertices(), 1);
      bool changed = true;
      while (changed) {
        changed = false;
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          if (!alive[v]) continue;
          uint32_t d = 0;
          for (VertexId u : g.Neighbors(v)) d += alive[u];
          if (d < k) {
            alive[v] = 0;
            changed = true;
          }
        }
      }
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(mask[v] != 0, alive[v] != 0)
            << "seed=" << seed << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST(KCoreTest, CoreMonotoneInK) {
  auto g = std::move(GenBarabasiAlbert(200, 3, 5)).value();
  uint64_t prev = g.NumVertices();
  for (uint32_t k = 1; k <= 8; ++k) {
    uint64_t size = KCoreSize(g, k);
    EXPECT_LE(size, prev);
    prev = size;
  }
}

TEST(KCoreTest, PackedMaskRoundTrips) {
  for (uint32_t n : {0u, 1u, 7u, 8u, 9u, 300u}) {
    std::vector<uint8_t> mask(n);
    for (uint32_t v = 0; v < n; ++v) mask[v] = (v * 7 + n) % 3 == 0;
    const std::string bits = PackVertexMask(mask);
    EXPECT_EQ(bits.size(), (n + 7) / 8) << n;
    std::vector<uint8_t> back;
    ASSERT_TRUE(UnpackVertexMask(bits, n, &back).ok()) << n;
    EXPECT_EQ(back, mask) << n;
  }
}

TEST(KCoreTest, UnpackRejectsWrongLengthAndPadBits) {
  const std::string bits = PackVertexMask(std::vector<uint8_t>(20, 1));
  ASSERT_EQ(bits.size(), 3u);
  std::vector<uint8_t> mask;
  EXPECT_EQ(UnpackVertexMask(bits, 16, &mask).code(),
            StatusCode::kInvalidArgument);  // needs 2 bytes
  EXPECT_EQ(UnpackVertexMask(bits, 25, &mask).code(),
            StatusCode::kInvalidArgument);  // needs 4 bytes
  EXPECT_EQ(UnpackVertexMask("", 20, &mask).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(UnpackVertexMask(bits, 20, &mask).ok());
  // 20 vertices leave 4 pad bits in the last byte; bit 20 is one of them.
  EXPECT_EQ(UnpackVertexMask(bits, 19, &mask).code(),
            StatusCode::kCorruption);
}

TEST(EdgeIoTest, RoundTrip) {
  auto g = std::move(GenErdosRenyi(50, 100, 42)).value();
  const std::string path = testing::TempDir() + "/qcm_edgeio_test.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  const Graph& h = loaded->graph;
  // Isolated vertices are not representable in edge lists; compare edges.
  ASSERT_EQ(h.NumEdges(), g.NumEdges());
  for (VertexId u = 0; u < h.NumVertices(); ++u) {
    for (VertexId v : h.Neighbors(u)) {
      VertexId gu = static_cast<VertexId>(loaded->original_ids[u]);
      VertexId gv = static_cast<VertexId>(loaded->original_ids[v]);
      EXPECT_TRUE(g.HasEdge(gu, gv));
    }
  }
  std::remove(path.c_str());
}

TEST(EdgeIoTest, ParsesCommentsAndCompactsIds) {
  const std::string path = testing::TempDir() + "/qcm_edgeio_comments.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# SNAP header\n% konect header\n1000 7\n7 42\n\n42 1000\n", f);
  fclose(f);
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 3u);
  EXPECT_EQ(loaded->graph.NumEdges(), 3u);
  EXPECT_EQ(loaded->original_ids, (std::vector<uint64_t>{7, 42, 1000}));
  std::remove(path.c_str());
}

TEST(EdgeIoTest, MissingFileIsIOError) {
  auto loaded = LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(EdgeIoTest, MalformedLineIsCorruption) {
  const std::string path = testing::TempDir() + "/qcm_edgeio_bad.txt";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("1 2\nnot an edge\n", f);
  fclose(f);
  auto loaded = LoadEdgeList(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StatsTest, CliqueStats) {
  Graph g = MakeClique(10);
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_vertices, 10u);
  EXPECT_EQ(s.num_edges, 45u);
  EXPECT_EQ(s.min_degree, 9u);
  EXPECT_EQ(s.max_degree, 9u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 9.0);
  EXPECT_DOUBLE_EQ(s.density, 1.0);
}

TEST(StatsTest, EmptyGraphStats) {
  auto g = std::move(Graph::FromEdges(0, {})).value();
  GraphStats s = ComputeGraphStats(g);
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_edges, 0u);
}

}  // namespace
}  // namespace qcm
