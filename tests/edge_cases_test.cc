// Edge-case and failure-mode coverage across the stack: degenerate graphs,
// boundary parameters, empty k-cores, engines with nothing to do, and
// pathological result shapes.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/kcore.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/naive_enum.h"
#include "quick/serial_miner.h"

namespace qcm {
namespace {

Graph Star(uint32_t leaves) {
  std::vector<Edge> edges;
  for (uint32_t i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  return std::move(Graph::FromEdges(leaves + 1, std::move(edges))).value();
}

TEST(EdgeCaseTest, AccessorsSafeOnEmptyGraph) {
  // Degree/Neighbors index offsets_[v+1]; on an empty graph offsets_ is
  // empty and the accessors must degrade to 0 / empty instead of reading
  // out of bounds.
  auto g = std::move(Graph::FromEdges(0, {})).value();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.Degree(0), 0u);
  EXPECT_TRUE(g.Neighbors(0).empty());
  EXPECT_EQ(g.MaxDegree(), 0u);

  LocalGraph lg;
  EXPECT_EQ(lg.Degree(0), 0u);
  EXPECT_TRUE(lg.Neighbors(0).empty());
}

TEST(EdgeCaseTest, AccessorsSafeOutOfRange) {
  auto g = std::move(Graph::FromEdges(2, {{0, 1}})).value();
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 0u);    // one past the last vertex
  EXPECT_EQ(g.Degree(999), 0u);  // far out of range
  EXPECT_TRUE(g.Neighbors(2).empty());
  EXPECT_TRUE(g.Neighbors(999).empty());
}

TEST(EdgeCaseTest, EmptyGraphMinesNothing) {
  auto g = std::move(Graph::FromEdges(0, {})).value();
  MiningOptions opts;
  opts.gamma = 0.9;
  opts.min_size = 2;
  VectorSink sink;
  SerialMiner miner(opts);
  auto report = miner.Run(g, &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(sink.results().empty());
  EXPECT_EQ(report->roots_processed, 0u);
}

TEST(EdgeCaseTest, EdgelessGraphMinesNothing) {
  auto g = std::move(Graph::FromEdges(10, {})).value();
  MiningOptions opts;
  opts.gamma = 0.5;
  opts.min_size = 2;
  VectorSink sink;
  SerialMiner miner(opts);
  ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
  EXPECT_TRUE(sink.results().empty());
}

TEST(EdgeCaseTest, SingleEdgeAtMinSizeTwo) {
  auto g = std::move(Graph::FromEdges(2, {{0, 1}})).value();
  MiningOptions opts;
  opts.gamma = 1.0;
  opts.min_size = 2;
  VectorSink sink;
  ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
  auto maximal = FilterMaximal(sink.results());
  EXPECT_EQ(maximal, (std::vector<VertexSet>{{0, 1}}));
}

TEST(EdgeCaseTest, StarHasNoLargeQuasiCliques) {
  // gamma = 0.9: any set with >= 3 vertices includes two leaves that are
  // non-adjacent and each connected only to the hub.
  Graph g = Star(10);
  MiningOptions opts;
  opts.gamma = 0.9;
  opts.min_size = 3;
  VectorSink sink;
  ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
  EXPECT_TRUE(FilterMaximal(sink.results()).empty());
}

TEST(EdgeCaseTest, StarAtGammaHalf) {
  // gamma = 0.5, min_size = 3: {hub, leaf_i, leaf_j} needs each leaf to
  // have ceil(0.5*2) = 1 neighbor -- satisfied via the hub. Matches oracle.
  Graph g = Star(4);
  MiningOptions opts;
  opts.gamma = 0.5;
  opts.min_size = 3;
  VectorSink sink;
  ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
  auto mined = FilterMaximal(sink.results());
  auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.5, 3)).value();
  EXPECT_EQ(mined, oracle);
  EXPECT_FALSE(mined.empty());
}

TEST(EdgeCaseTest, MinSizeLargerThanGraph) {
  auto g = std::move(GenErdosRenyi(10, 30, 1)).value();
  MiningOptions opts;
  opts.gamma = 0.6;
  opts.min_size = 50;
  VectorSink sink;
  ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
  EXPECT_TRUE(sink.results().empty());
}

TEST(EdgeCaseTest, DisconnectedComponentsMinedIndependently) {
  // Two disjoint 4-cliques.
  std::vector<Edge> edges;
  for (uint32_t base : {0u, 4u}) {
    for (uint32_t i = 0; i < 4; ++i) {
      for (uint32_t j = i + 1; j < 4; ++j) {
        edges.emplace_back(base + i, base + j);
      }
    }
  }
  auto g = std::move(Graph::FromEdges(8, std::move(edges))).value();
  MiningOptions opts;
  opts.gamma = 1.0;
  opts.min_size = 3;
  VectorSink sink;
  ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
  auto maximal = FilterMaximal(sink.results());
  EXPECT_EQ(maximal,
            (std::vector<VertexSet>{{0, 1, 2, 3}, {4, 5, 6, 7}}));
}

TEST(EdgeCaseTest, EngineWithNothingToSpawnTerminates) {
  // Every vertex has degree < k: Spawn returns null everywhere and the
  // engine must still terminate cleanly with zero results.
  Graph g = Star(20);
  EngineConfig config;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.mining.gamma = 0.9;
  config.mining.min_size = 10;  // k = 9 > any leaf degree; hub spawns...
  ParallelMiner miner(config);
  auto result = miner.Run(g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->maximal.empty());
}

TEST(EdgeCaseTest, EngineOnEmptyGraphTerminates) {
  auto g = std::move(Graph::FromEdges(0, {})).value();
  EngineConfig config;
  config.mining.gamma = 0.9;
  config.mining.min_size = 2;
  ParallelMiner miner(config);
  auto result = miner.Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->maximal.empty());
  EXPECT_EQ(result->report.counters.tasks_completed, 0u);
}

TEST(EdgeCaseTest, GammaOneMeansMaximalCliques) {
  // At gamma = 1 the miner is a maximal-clique finder; verify against the
  // oracle on a few random graphs.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto g = std::move(GenErdosRenyi(12, 40, seed)).value();
    MiningOptions opts;
    opts.gamma = 1.0;
    opts.min_size = 3;
    VectorSink sink;
    ASSERT_TRUE(SerialMiner(opts).Run(g, &sink).ok());
    EXPECT_EQ(FilterMaximal(sink.results()),
              std::move(NaiveMaximalQuasiCliques(g, 1.0, 3)).value())
        << "seed=" << seed;
  }
}

TEST(EdgeCaseTest, KCoreEmptyWhenThresholdExceedsMaxDegree) {
  auto g = std::move(GenBarabasiAlbert(100, 2, 3)).value();
  EXPECT_EQ(KCoreSize(g, g.MaxDegree() + 1), 0u);
}

TEST(EdgeCaseTest, FilterMaximalChainOfSupersets) {
  std::vector<VertexSet> sets;
  VertexSet s;
  for (VertexId v = 0; v < 20; ++v) {
    s.push_back(v);
    sets.push_back(s);  // {0}, {0,1}, ..., {0..19}
  }
  auto out = FilterMaximal(sets);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 20u);
}

TEST(EdgeCaseTest, FilterMaximalManyDisjointSets) {
  std::vector<VertexSet> sets;
  for (VertexId base = 0; base < 500; base += 5) {
    sets.push_back({base, base + 1, base + 2});
  }
  auto out = FilterMaximal(sets);
  EXPECT_EQ(out.size(), 100u);
}

TEST(EdgeCaseTest, ParamsAtDomainBoundaries) {
  auto g = std::move(GenErdosRenyi(10, 25, 2)).value();
  MiningOptions opts;
  opts.gamma = 0.5;  // lowest allowed
  opts.min_size = 2;  // lowest allowed
  VectorSink sink;
  auto report = SerialMiner(opts).Run(g, &sink);
  ASSERT_TRUE(report.ok());
  auto mined = FilterMaximal(sink.results());
  EXPECT_EQ(mined, std::move(NaiveMaximalQuasiCliques(g, 0.5, 2)).value());
}

}  // namespace
}  // namespace qcm
