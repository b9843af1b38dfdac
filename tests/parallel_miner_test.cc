// End-to-end correctness of the parallel pipeline:
// for any machine/thread count, decomposition mode, tau_split/tau_time and
// queue capacities, the maximal result set must equal the serial miner's
// (and, on tiny graphs, the exhaustive oracle's), whether the engine is
// handed a Graph or a mapped snapshot.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/naive_enum.h"
#include "quick/serial_miner.h"

namespace qcm {
namespace {

std::vector<VertexSet> SerialMaximal(const Graph& g,
                                     const MiningOptions& opts) {
  VectorSink sink;
  SerialMiner miner(opts);
  auto report = miner.Run(g, &sink);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return FilterMaximal(sink.results());
}

ParallelMineResult ParallelRun(const Graph& g, EngineConfig config) {
  ParallelMiner miner(std::move(config));
  auto result = miner.Run(g);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

EngineConfig SmallConfig(double gamma, uint32_t min_size) {
  EngineConfig config;
  config.mining.gamma = gamma;
  config.mining.min_size = min_size;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.tau_split = 20;
  config.tau_time = 0.001;
  config.steal_period_sec = 0.005;
  return config;
}

TEST(ParallelMinerTest, PaperFigure4MatchesOracle) {
  Graph g = PaperFigure4Graph();
  auto result = ParallelRun(g, SmallConfig(0.6, 4));
  auto oracle = std::move(NaiveMaximalQuasiCliques(g, 0.6, 4)).value();
  EXPECT_EQ(result.maximal, oracle);
}

size_t OpenFds() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                       std::filesystem::directory_iterator());
}

// Both engine entries -- Run(graph) and Run(snapshot) over
// CsrSnapshot::FromGraph -- equal the oracle and the serial reference,
// and the in-memory snapshot serves exactly the graph, relabelled by its
// order section, and leaves nothing behind once released.
TEST(ParallelMinerTest, MatchesOracleOnRandomTinyGraphs) {
  const std::pair<double, uint32_t> grid[] = {
      {0.6, 3}, {0.7, 3}, {0.8, 4}, {1.0, 3}};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto g = std::move(GenErdosRenyi(14, 50, seed)).value();
    const size_t fds_before = OpenFds();
    {
      auto snapshot = CsrSnapshot::FromGraph(g);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      const CsrSnapshot& snap = **snapshot;
      ASSERT_EQ(snap.NumVertices(), g.NumVertices());
      EXPECT_EQ(snap.NumEdges(), g.NumEdges());
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        const VertexId c = snap.CallerId(v);
        EXPECT_EQ(snap.Degree(v), g.Degree(c));
        std::vector<VertexId> got;
        for (VertexId u : snap.Neighbors(v)) got.push_back(snap.CallerId(u));
        std::sort(got.begin(), got.end());
        auto want = g.Neighbors(c);
        EXPECT_TRUE(
            std::equal(want.begin(), want.end(), got.begin(), got.end()))
            << "seed=" << seed << " v=" << v;
      }
      EXPECT_EQ(snap.path().rfind("memfd:", 0), 0u) << snap.path();
      EXPECT_FALSE(std::filesystem::exists(snap.path())) << snap.path();

      for (const auto& [gamma, min_size] : grid) {
        const std::string at = "seed=" + std::to_string(seed) +
                               " gamma=" + std::to_string(gamma) +
                               " min_size=" + std::to_string(min_size);
        auto oracle =
            std::move(NaiveMaximalQuasiCliques(g, gamma, min_size)).value();
        EXPECT_EQ(SerialMaximal(g, SmallConfig(gamma, min_size).mining),
                  oracle)
            << at;
        EXPECT_EQ(ParallelRun(g, SmallConfig(gamma, min_size)).maximal,
                  oracle)
            << at;
        auto mapped =
            ParallelMiner(SmallConfig(gamma, min_size)).Run(*snapshot);
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        EXPECT_EQ(mapped->maximal, oracle) << at;
      }
    }
    EXPECT_EQ(OpenFds(), fds_before) << "seed=" << seed;
  }
}

// The vertex order is not an input: the same graph under a seeded random
// relabelling mines to the same maximal sets once mapped back. Run(graph)
// and Run(permuted) each pack in their own degeneracy order; SerialMiner
// mines the graph's own order.
TEST(ParallelMinerTest, MatchesOracleUnderRandomRelabelling) {
  const std::pair<double, uint32_t> grid[] = {{0.6, 3}, {0.8, 4}, {1.0, 3}};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = std::move(GenErdosRenyi(16, 60, seed)).value();
    std::vector<VertexId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed));
    std::vector<Edge> edges;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (VertexId u : g.Neighbors(v)) {
        if (v < u) edges.emplace_back(perm[v], perm[u]);
      }
    }
    const Graph permuted =
        std::move(Graph::FromEdges(g.NumVertices(), edges)).value();
    std::vector<VertexId> unperm(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) unperm[perm[v]] = v;

    for (const auto& [gamma, min_size] : grid) {
      const std::string at = "seed=" + std::to_string(seed) +
                             " gamma=" + std::to_string(gamma) +
                             " min_size=" + std::to_string(min_size);
      const EngineConfig config = SmallConfig(gamma, min_size);
      auto oracle =
          std::move(NaiveMaximalQuasiCliques(g, gamma, min_size)).value();
      EXPECT_EQ(SerialMaximal(g, config.mining), oracle) << at;
      EXPECT_EQ(ParallelRun(g, config).maximal, oracle) << at;
      std::vector<VertexSet> back = ParallelRun(permuted, config).maximal;
      for (VertexSet& set : back) {
        for (VertexId& v : set) v = unperm[v];
        std::sort(set.begin(), set.end());
      }
      CanonicalizeResults(&back);
      EXPECT_EQ(back, oracle) << at;
    }
  }
}

// ---- Parallel == serial across engine configurations ----

struct ConfigParam {
  int machines;
  int threads;
  DecomposeMode mode;
  uint32_t tau_split;
  double tau_time;
  size_t local_capacity;
  bool stealing;
};

class ParallelConfigSweep : public testing::TestWithParam<ConfigParam> {};

TEST_P(ParallelConfigSweep, MatchesSerial) {
  const ConfigParam& p = GetParam();
  // A planted-community graph big enough to decompose but small enough to
  // mine quickly.
  auto g = std::move(GenPlantedCommunities({.num_vertices = 250,
                                            .background_edges = 500,
                                            .background =
                                                BackgroundModel::kErdosRenyi,
                                            .num_communities = 6,
                                            .community_min = 8,
                                            .community_max = 12,
                                            .intra_density = 0.92,
                                            .overlap_fraction = 0.3,
                                            .seed = 99}))
               .value();
  MiningOptions opts;
  opts.gamma = 0.85;
  opts.min_size = 6;
  auto expected = SerialMaximal(g, opts);
  ASSERT_FALSE(expected.empty());  // the sweep must exercise real results

  EngineConfig config;
  config.mining = opts;
  config.num_machines = p.machines;
  config.threads_per_machine = p.threads;
  config.mode = p.mode;
  config.tau_split = p.tau_split;
  config.tau_time = p.tau_time;
  config.local_queue_capacity = p.local_capacity;
  config.global_queue_capacity = std::max<size_t>(p.local_capacity, 16);
  config.batch_size = 8;
  config.enable_stealing = p.stealing;
  config.steal_period_sec = 0.002;

  auto result = ParallelRun(g, config);
  EXPECT_EQ(result.maximal, expected)
      << "machines=" << p.machines << " threads=" << p.threads
      << " mode=" << DecomposeModeName(p.mode) << " split=" << p.tau_split
      << " time=" << p.tau_time;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelConfigSweep,
    testing::Values(
        // One thread, no decomposition: the pure task-per-root pipeline.
        ConfigParam{1, 1, DecomposeMode::kNone, 100, 0, 256, false},
        // Multi-thread, no decomposition.
        ConfigParam{1, 4, DecomposeMode::kNone, 100, 0, 256, false},
        // Size-threshold decomposition, aggressive split.
        ConfigParam{1, 2, DecomposeMode::kSizeThreshold, 8, 0, 256, false},
        ConfigParam{2, 2, DecomposeMode::kSizeThreshold, 4, 0, 256, true},
        // Time-delayed decomposition at several timeouts (0 = immediate).
        ConfigParam{1, 2, DecomposeMode::kTimeDelayed, 16, 0.0, 256, false},
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 16, 0.0005, 256,
                    true},
        ConfigParam{4, 1, DecomposeMode::kTimeDelayed, 8, 0.002, 256, true},
        // Tiny queues: spilling everywhere.
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 4, 0.0, 8, true},
        // Everything big (tau_split=0): global-queue-only scheduling.
        ConfigParam{2, 2, DecomposeMode::kTimeDelayed, 0, 0.0005, 256,
                    true}));

TEST(ParallelMinerTest, QuickCompatSubsetHoldsInParallel) {
  auto g = std::move(GenErdosRenyi(200, 1200, 5)).value();
  EngineConfig config = SmallConfig(0.8, 5);
  auto full = ParallelRun(g, config);
  config.mining.quick_compat = true;
  auto compat = ParallelRun(g, config);
  for (const auto& s : compat.maximal) {
    EXPECT_TRUE(std::binary_search(full.maximal.begin(), full.maximal.end(),
                                   s));
  }
}

TEST(ParallelMinerTest, RawCandidatesGrowWithDecomposition) {
  // Smaller tau_time => more subtasks => more unpruned non-maximal
  // candidates (the paper's Table 3 observation). The *maximal* set is
  // invariant.
  auto g = std::move(GenPlantedCommunities({.num_vertices = 200,
                                            .num_communities = 5,
                                            .community_min = 9,
                                            .community_max = 12,
                                            .intra_density = 0.95,
                                            .seed = 7}))
               .value();
  EngineConfig fast = SmallConfig(0.85, 6);
  fast.mode = DecomposeMode::kTimeDelayed;
  fast.tau_time = 10.0;  // effectively never decompose
  EngineConfig eager = fast;
  eager.tau_time = 0.0;  // decompose everything
  auto lazy_result = ParallelRun(g, fast);
  auto eager_result = ParallelRun(g, eager);
  EXPECT_EQ(lazy_result.maximal, eager_result.maximal);
  EXPECT_GE(eager_result.raw_candidates, lazy_result.raw_candidates);
  EXPECT_GT(eager_result.report.counters.tasks_completed,
            lazy_result.report.counters.tasks_completed);
}

TEST(ParallelMinerTest, TaskLogRecordsRoots) {
  auto g = std::move(GenPlantedCommunities({.num_vertices = 150,
                                            .num_communities = 3,
                                            .community_min = 8,
                                            .community_max = 10,
                                            .intra_density = 1.0,
                                            .seed = 3}))
               .value();
  EngineConfig config = SmallConfig(0.9, 6);
  config.record_task_log = true;
  auto result = ParallelRun(g, config);
  ASSERT_FALSE(result.report.root_tasks.empty());
  for (const auto& agg : result.report.root_tasks) {
    EXPECT_GT(agg.tasks, 0u);
    EXPECT_GE(agg.mining_seconds, 0.0);
  }
}

TEST(ParallelMinerTest, MiningTimeDominatesMaterialization) {
  // Table 6's qualitative claim: subgraph materialization is a small
  // fraction of mining time even with aggressive decomposition.
  auto g = std::move(GenPlantedCommunities({.num_vertices = 300,
                                            .num_communities = 6,
                                            .community_min = 10,
                                            .community_max = 14,
                                            .intra_density = 0.9,
                                            .seed = 13}))
               .value();
  EngineConfig config = SmallConfig(0.8, 7);
  config.mode = DecomposeMode::kTimeDelayed;
  config.tau_time = 0.0;
  auto result = ParallelRun(g, config);
  EXPECT_GT(result.report.total_mining_seconds, 0.0);
  // Materialization happens (subtasks were created) ...
  EXPECT_GT(result.report.counters.tasks_completed, 0u);
  // ... but never dwarfs mining.
  EXPECT_LT(result.report.total_materialize_seconds,
            result.report.total_mining_seconds +
                result.report.total_build_seconds + 0.5);
}

// Paper §4 T1 on the engine path: a planted graph on a sparse ER
// background has a k-core far smaller than the graph, ParallelMiner
// spawns only core vertices, and the result is still the serial miner's.
TEST(ParallelMinerTest, GlobalKCoreBoundsSpawnsAndKeepsResults) {
  auto g = std::move(GenPlantedCommunities(
                         {.num_vertices = 3000,
                          .background_edges = 3000,
                          .background = BackgroundModel::kErdosRenyi,
                          .num_communities = 6,
                          .community_min = 10,
                          .community_max = 14,
                          .intra_density = 0.95,
                          .seed = 21}))
               .value();
  EngineConfig base = SmallConfig(0.85, 8);
  const uint32_t k = base.mining.MinDegreeK();
  const uint64_t core = KCoreSize(g, k);
  ASSERT_GT(core, 0u);
  ASSERT_LT(core, g.NumVertices() / 10) << "background is not sparse";
  uint64_t above_k = 0;  // what an unpruned degree-threshold spawn sees
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    above_k += g.Degree(v) >= k;
  }
  ASSERT_GT(above_k, core);

  const std::vector<VertexSet> serial = SerialMaximal(g, base.mining);
  ASSERT_FALSE(serial.empty());
  for (int machines : {1, 3}) {
    EngineConfig config = base;
    config.num_machines = machines;
    auto result = ParallelRun(g, config);
    EXPECT_EQ(result.kcore_vertices, core) << machines;
    EXPECT_GE(result.kcore_seconds, 0.0);
    EXPECT_GT(result.report.counters.tasks_spawned, 0u) << machines;
    EXPECT_LE(result.report.counters.tasks_spawned, core) << machines;
    EXPECT_EQ(ResultSetDigest(result.maximal), ResultSetDigest(serial))
        << machines;
    EXPECT_EQ(result.maximal, serial) << machines;
  }
}

}  // namespace
}  // namespace qcm
