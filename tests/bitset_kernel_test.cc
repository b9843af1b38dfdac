// Dense/sparse kernel parity suite (ISSUE 8): the word-parallel bitset
// kernels must be bit-identical to their scalar CSR twins -- same emitted
// sets, same pruning statistics, same digests -- across gamma/tau grids,
// random subgraphs, and the dense-threshold boundary. Also covers the
// LocalGraph bitmap-row representation and the pooled MiningScratch
// reuse contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/local_graph.h"
#include "quick/cover_vertex.h"
#include "quick/maximality_filter.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "quick/serial_miner.h"
#include "util/rng.h"
#include "util/serde.h"

namespace qcm {
namespace {

LocalGraph FullLocalGraph(const Graph& src) {
  EgoBuilder builder;
  for (VertexId v = 0; v < src.NumVertices(); ++v) {
    std::vector<VertexId> adj(src.Neighbors(v).begin(),
                              src.Neighbors(v).end());
    builder.Stage(v, adj);
  }
  return builder.Build();
}

MiningOptions Options(double gamma, uint32_t min_size, bool dense) {
  MiningOptions opts;
  opts.gamma = gamma;
  opts.min_size = min_size;
  opts.dense_threshold = dense ? (int64_t{1} << 20) : 0;
  return opts;
}

bool RowBit(const LocalGraph& g, LocalId v, LocalId w) {
  return (g.DenseRow(v)[w >> 6] >> (w & 63)) & 1;
}

// ---- LocalGraph bitmap rows ----

TEST(LocalGraphDenseTest, RowsMatchAdjacency) {
  auto src = std::move(GenErdosRenyi(130, 900, 3)).value();
  LocalGraph g = FullLocalGraph(src);
  ASSERT_FALSE(g.has_dense());
  g.BuildDenseRows();
  ASSERT_TRUE(g.has_dense());
  EXPECT_EQ(g.DenseWords(), (g.n() + 63) / 64);
  for (LocalId v = 0; v < g.n(); ++v) {
    std::vector<bool> adj(g.n(), false);
    for (LocalId w : g.Neighbors(v)) adj[w] = true;
    for (LocalId w = 0; w < g.n(); ++w) {
      EXPECT_EQ(RowBit(g, v, w), adj[w]) << "v=" << v << " w=" << w;
    }
  }
}

TEST(LocalGraphDenseTest, InducePropagatesRows) {
  auto src = std::move(GenErdosRenyi(80, 600, 5)).value();
  LocalGraph g = FullLocalGraph(src);

  std::vector<LocalId> keep;
  for (LocalId v = 0; v < g.n(); v += 3) keep.push_back(v);
  // Sparse in, sparse out.
  EXPECT_FALSE(g.Induce(keep).has_dense());

  g.BuildDenseRows();
  LocalGraph sub = g.Induce(keep);
  ASSERT_TRUE(sub.has_dense());
  for (LocalId v = 0; v < sub.n(); ++v) {
    std::vector<bool> adj(sub.n(), false);
    for (LocalId w : sub.Neighbors(v)) adj[w] = true;
    for (LocalId w = 0; w < sub.n(); ++w) {
      EXPECT_EQ(RowBit(sub, v, w), adj[w]);
    }
  }
}

TEST(LocalGraphDenseTest, RowsAreNeverSerializedAndIgnoredByEquality) {
  auto src = std::move(GenErdosRenyi(50, 300, 7)).value();
  LocalGraph g = FullLocalGraph(src);
  g.BuildDenseRows();

  Encoder enc;
  g.Encode(&enc);
  Decoder dec(enc.buffer());
  LocalGraph decoded = std::move(LocalGraph::Decode(&dec)).value();
  EXPECT_FALSE(decoded.has_dense());  // rows are a derived cache
  EXPECT_TRUE(decoded == g);          // CSR identity is what equality means
  EXPECT_LT(decoded.MemoryBytes(), g.MemoryBytes());
}

TEST(LocalGraphDenseTest, EgoBuilderHonorsThreshold) {
  auto src = std::move(GenErdosRenyi(40, 200, 9)).value();
  for (int64_t threshold : {0ll, 39ll, 40ll, 41ll}) {
    EgoBuilder builder;
    builder.set_dense_threshold(threshold);
    for (VertexId v = 0; v < src.NumVertices(); ++v) {
      std::vector<VertexId> adj(src.Neighbors(v).begin(),
                                src.Neighbors(v).end());
      builder.Stage(v, adj);
    }
    LocalGraph g = builder.Build();
    EXPECT_EQ(g.has_dense(), threshold >= 40) << "threshold=" << threshold;
  }
}

// ---- Threshold boundary at the MiningContext level ----

TEST(DenseThresholdTest, ContextSwitchesExactlyAtThreshold) {
  auto src = std::move(GenErdosRenyi(64, 500, 11)).value();
  LocalGraph g = FullLocalGraph(src);  // n == 64, no prebuilt rows
  CountingSink sink;
  for (int64_t threshold : {0ll, 63ll, 64ll, 65ll}) {
    MiningOptions opts = Options(0.9, 5, true);
    opts.dense_threshold = threshold;
    MiningContext ctx(&g, opts, &sink);
    const bool want_dense = threshold >= 64;
    EXPECT_EQ(ctx.dense(), want_dense) << "threshold=" << threshold;
    EXPECT_EQ(ctx.stats.dense_tasks, want_dense ? 1u : 0u);
    EXPECT_EQ(ctx.stats.sparse_tasks, want_dense ? 0u : 1u);
    if (want_dense) {
      // Rows were built into scratch (the decoded-task path); they must
      // still match the CSR exactly.
      for (LocalId v = 0; v < g.n(); ++v) {
        uint64_t popcnt = 0;
        for (uint32_t w = 0; w < ctx.words(); ++w) {
          popcnt += static_cast<uint64_t>(std::popcount(ctx.Row(v)[w]));
        }
        EXPECT_EQ(popcnt, g.Degree(v));
      }
    }
  }
}

// ---- Direct kernel parity on random subgraphs ----

struct KernelPair {
  LocalGraph graph;
  CountingSink sink;
  MiningOptions sparse_opts, dense_opts;
  std::unique_ptr<MiningContext> sparse, dense;

  KernelPair(const Graph& src, double gamma) {
    graph = FullLocalGraph(src);
    sparse_opts = Options(gamma, 3, false);
    dense_opts = Options(gamma, 3, true);
    sparse = std::make_unique<MiningContext>(&graph, sparse_opts, &sink);
    dense = std::make_unique<MiningContext>(&graph, dense_opts, &sink);
  }
};

TEST(KernelParityTest, ComputeDegrees) {
  Rng rng(101);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto src = std::move(GenErdosRenyi(90, 1200, seed)).value();
    KernelPair kp(src, 0.85);
    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < kp.graph.n(); ++v) {
      const uint64_t r = rng.Uniform(3);
      if (r == 0) s.push_back(v);
      else if (r == 1) ext.push_back(v);
    }
    if (s.empty()) s.push_back(0);
    for (MiningContext* ctx : {kp.sparse.get(), kp.dense.get()}) {
      for (LocalId v : s) ctx->SetVState(v, VState::kInS);
      for (LocalId u : ext) ctx->SetVState(u, VState::kInExt);
      ComputeDegrees(*ctx, s, ext);
    }
    for (LocalId v : s) {
      EXPECT_EQ(kp.sparse->ds()[v], kp.dense->ds()[v]) << "seed=" << seed;
    }
    for (LocalId u : ext) {
      EXPECT_EQ(kp.sparse->ds()[u], kp.dense->ds()[u]) << "seed=" << seed;
      EXPECT_EQ(kp.sparse->dext()[u], kp.dense->dext()[u])
          << "seed=" << seed;
    }
  }
}

TEST(KernelParityTest, TwoHopFilter) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // Sparse graphs so 2-hop reach is a strict subset.
    auto src = std::move(GenErdosRenyi(120, 300, seed)).value();
    KernelPair kp(src, 0.85);
    std::vector<LocalId> candidates;
    for (LocalId u = 1; u < kp.graph.n(); ++u) candidates.push_back(u);
    std::vector<LocalId> kept_sparse, kept_dense;
    TwoHopFilter(*kp.sparse, candidates, 0, &kept_sparse);
    TwoHopFilter(*kp.dense, candidates, 0, &kept_dense);
    // Both kernels preserve candidate order, so exact equality.
    EXPECT_EQ(kept_sparse, kept_dense) << "seed=" << seed;
    EXPECT_LT(kept_sparse.size(), candidates.size()) << "filter was a no-op";
    EXPECT_EQ(kp.sparse->stats.diameter_filtered,
              kp.dense->stats.diameter_filtered);
  }
}

TEST(KernelParityTest, CoverVertexSet) {
  Rng rng(202);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto src = std::move(GenErdosRenyi(70, 1100, seed)).value();
    KernelPair kp(src, 0.6);
    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < kp.graph.n(); ++v) {
      if (rng.Uniform(10) < 1) s.push_back(v);
      else ext.push_back(v);
    }
    if (s.empty()) s.push_back(ext.back()), ext.pop_back();
    std::vector<LocalId> cover_sparse, cover_dense;
    for (MiningContext* ctx : {kp.sparse.get(), kp.dense.get()}) {
      ComputeDegreesFromScratch(*ctx, s, ext);
    }
    FindBestCoverSet(*kp.sparse, s, ext, &cover_sparse);
    FindBestCoverSet(*kp.dense, s, ext, &cover_dense);
    // The winning cover SET is mode-independent; element order is not.
    std::sort(cover_sparse.begin(), cover_sparse.end());
    std::sort(cover_dense.begin(), cover_dense.end());
    EXPECT_EQ(cover_sparse, cover_dense) << "seed=" << seed;
  }
}

// The recursive miner never recounts a child's degrees: it seeds them
// from the parent's frame (sdeg/udeg, one adjacency test per member, and
// a correction for the vertices F the two-hop filter dropped). Replays a
// node's branches 0..i the way RecursiveMine does and checks the seeded
// ds/dext of S' ∪ ext' and the retired udeg against a recount.
TEST(KernelParityTest, SeededChildDegreesMatchRecompute) {
  Rng rng(505);
  int small_f = 0, large_f = 0;  // 0 < |F| <= |S' ∪ ext'|, and |F| larger
  for (int trial = 0; trial < 120; ++trial) {
    const uint32_t n = 20 + static_cast<uint32_t>(rng.Uniform(130));
    // Odd trials: average degree 2-4, so the two-hop filter drops most of
    // ext. Even trials: up to ~n/2, so it keeps nearly everything.
    const uint64_t max_m = uint64_t{n} * (n - 1) / 2;
    const uint64_t m =
        trial % 2 == 1
            ? n + rng.Uniform(n)
            : std::min<uint64_t>(max_m, n * (1 + rng.Uniform(n / 4 + 1)));
    auto src = std::move(GenErdosRenyi(n, m, 2000 + trial)).value();
    KernelPair kp(src, 0.5 + 0.1 * static_cast<double>(rng.Uniform(5)));

    std::vector<LocalId> s, ext;
    const uint64_t s_odds = 2 + rng.Uniform(8);
    for (LocalId x = 0; x < n; ++x) {
      const uint64_t r = rng.Uniform(s_odds);
      if (r == 0) s.push_back(x);
      else if (r <= 2) ext.push_back(x);
    }
    if (s.empty() || ext.empty()) continue;
    for (size_t k = ext.size(); k > 1; --k) {
      std::swap(ext[k - 1], ext[rng.Uniform(k)]);
    }
    const size_t i = rng.Uniform(ext.size());

    for (MiningContext* ctx : {kp.sparse.get(), kp.dense.get()}) {
      SCOPED_TRACE(testing::Message() << "trial=" << trial << " n=" << n
                                      << " i=" << i << " dense="
                                      << ctx->dense());
      MineFrame frame;
      ComputeDegreesFromScratch(*ctx, s, ext);
      LoadNodeDegrees(*ctx, s, ext, frame);
      for (size_t j = 0; j <= i; ++j) {
        TwoHopFilter(*ctx, std::span(ext).subspan(j + 1), ext[j],
                     &frame.ext_child);
        SeedChildDegrees(*ctx, s, ext, j, frame);
      }
      const std::vector<LocalId>& ext_child = frame.ext_child;
      std::vector<LocalId> s_child(s);
      s_child.push_back(ext[i]);
      const std::vector<uint32_t> ds(ctx->ds()), dext(ctx->dext());

      // udeg after branch i counts S ∪ ext[i+1..).
      std::vector<LocalId> live(s);
      live.insert(live.end(), ext.begin() + static_cast<int64_t>(i) + 1,
                  ext.end());
      ComputeDegreesFromScratch(*ctx, live, {});
      for (size_t p = 0; p < s.size(); ++p) {
        EXPECT_EQ(frame.udeg[p], ctx->ds()[s[p]]) << "S member " << s[p];
      }
      for (size_t j = i + 1; j < ext.size(); ++j) {
        EXPECT_EQ(frame.udeg[s.size() + j], ctx->ds()[ext[j]])
            << "ext member " << ext[j];
      }
      if (ext_child.empty()) continue;  // nothing seeded

      ComputeDegreesFromScratch(*ctx, s_child, ext_child);
      for (LocalId x : s_child) {
        EXPECT_EQ(ds[x], ctx->ds()[x]) << "S' member " << x;
        EXPECT_EQ(dext[x], ctx->dext()[x]) << "S' member " << x;
      }
      for (LocalId x : ext_child) {
        EXPECT_EQ(ds[x], ctx->ds()[x]) << "ext' member " << x;
        EXPECT_EQ(dext[x], ctx->dext()[x]) << "ext' member " << x;
      }
      const size_t dropped = ext.size() - i - 1 - ext_child.size();
      if (dropped == 0) continue;
      if (dropped <= s_child.size() + ext_child.size()) {
        ++small_f;
      } else {
        ++large_f;
      }
    }
  }
  // Filters that drop a few vertices and ones that drop most of ext.
  EXPECT_GT(small_f, 10);
  EXPECT_GT(large_f, 10);
}

TEST(KernelParityTest, IsQuasiClique) {
  Rng rng(303);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto src = std::move(GenErdosRenyi(60, 1000, seed)).value();
    for (double gamma : {0.5, 0.7, 0.9}) {
      KernelPair kp(src, gamma);
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<LocalId> s;
        for (LocalId v = 0; v < kp.graph.n(); ++v) {
          if (rng.Uniform(4) < 2) s.push_back(v);
        }
        EXPECT_EQ(kp.sparse->IsQuasiClique(s), kp.dense->IsQuasiClique(s))
            << "seed=" << seed << " gamma=" << gamma << " trial=" << trial;
      }
    }
  }
}

// ---- End-to-end parity across a gamma/tau grid ----

// Every MiningStats field except the three dense-instrumentation counters
// (dense_tasks / sparse_tasks / bitset_words_touched, which SHOULD differ
// across modes) must match exactly: the dense kernels take the same
// branches, prune the same subtrees, and emit the same sets.
void ExpectStatsParity(const MiningStats& a, const MiningStats& b) {
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.bounding_iterations, b.bounding_iterations);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.type1_degree_pruned, b.type1_degree_pruned);
  EXPECT_EQ(a.type1_upper_pruned, b.type1_upper_pruned);
  EXPECT_EQ(a.type1_lower_pruned, b.type1_lower_pruned);
  EXPECT_EQ(a.type2_prunes, b.type2_prunes);
  EXPECT_EQ(a.bound_fail_prunes, b.bound_fail_prunes);
  EXPECT_EQ(a.critical_moves, b.critical_moves);
  EXPECT_EQ(a.cover_skipped, b.cover_skipped);
  EXPECT_EQ(a.lookahead_hits, b.lookahead_hits);
  EXPECT_EQ(a.diameter_filtered, b.diameter_filtered);
  EXPECT_EQ(a.size_prunes, b.size_prunes);
  EXPECT_EQ(a.subtasks_spawned, b.subtasks_spawned);
}

// Mines every root of `g` (ext = its 2-hop neighbors with larger ids)
// with an already-expired timeout, so every branch that survives bounding
// is wrapped as a subtask (Alg. 10); wrapped <S', ext'> pairs are mined
// the same way until none is left, all through one pooled scratch.
// Returns the stats summed over every context.
MiningStats MineWithExpiredTimeout(const LocalGraph& g,
                                   const MiningOptions& opts,
                                   VectorSink* sink) {
  MiningScratch scratch;
  MiningStats total;
  std::deque<std::pair<std::vector<LocalId>, std::vector<LocalId>>> queue;
  for (LocalId root = 0; root < g.n(); ++root) {
    std::vector<LocalId> later, ext;
    for (LocalId u = root + 1; u < g.n(); ++u) later.push_back(u);
    {
      MiningContext ctx(&g, opts, sink, &scratch);
      TwoHopFilter(ctx, later, root, &ext);
    }
    queue.emplace_back(std::vector<LocalId>{root}, std::move(ext));
    while (!queue.empty()) {
      auto [s, ext_q] = std::move(queue.front());
      queue.pop_front();
      MiningContext ctx(&g, opts, sink, &scratch);
      ctx.ArmTimeout(0.0, [&](const std::vector<LocalId>& s_child,
                              const std::vector<LocalId>& ext_child) {
        queue.emplace_back(s_child, ext_child);
      });
      while (!ctx.TimedOut()) {
      }  // expired before the first branch: the wrapping is deterministic
      RecursiveMine(ctx, std::move(s), std::move(ext_q));
      total.Add(ctx.stats);
    }
  }
  return total;
}

TEST(EndToEndParityTest, SerialMinerAcrossGammaTauGrid) {
  auto src = std::move(GenPlantedCommunities({.num_vertices = 800,
                                              .num_communities = 5,
                                              .community_min = 10,
                                              .community_max = 14,
                                              .intra_density = 0.9,
                                              .overlap_fraction = 0.2,
                                              .seed = 13}))
                 .value();
  for (double gamma : {0.8, 0.9}) {
    for (uint32_t min_size : {6u, 8u}) {
      SerialMineReport reports[2];
      uint64_t digests[2];
      for (int mode = 0; mode < 2; ++mode) {
        VectorSink sink;
        SerialMiner miner(Options(gamma, min_size, mode == 1));
        auto report = miner.Run(src, &sink);
        ASSERT_TRUE(report.ok());
        reports[mode] = report.value();
        auto maximal = FilterMaximal(sink.results());
        digests[mode] = ResultSetDigest(maximal);
      }
      EXPECT_EQ(digests[0], digests[1])
          << "gamma=" << gamma << " min_size=" << min_size;
      ExpectStatsParity(reports[0].stats, reports[1].stats);
      // The instrumentation counters prove each mode ran its own path.
      EXPECT_EQ(reports[0].stats.dense_tasks, 0u);
      EXPECT_EQ(reports[0].stats.bitset_words_touched, 0u);
      EXPECT_GT(reports[1].stats.dense_tasks, 0u);
      EXPECT_GT(reports[1].stats.bitset_words_touched, 0u);
      EXPECT_EQ(reports[1].stats.sparse_tasks, 0u);
      EXPECT_EQ(reports[0].stats.sparse_tasks,
                reports[1].stats.dense_tasks);

      // Armed 0 s timeout: subtasks start from freshly counted degrees,
      // their branches from seeded ones; same maximal sets either way.
      const LocalGraph local = FullLocalGraph(src);
      MiningStats armed[2];
      for (int mode = 0; mode < 2; ++mode) {
        VectorSink sink;
        armed[mode] =
            MineWithExpiredTimeout(local, Options(gamma, min_size, mode == 1),
                                   &sink);
        EXPECT_EQ(ResultSetDigest(FilterMaximal(sink.results())), digests[0])
            << "armed, gamma=" << gamma << " min_size=" << min_size
            << " dense=" << mode;
      }
      ExpectStatsParity(armed[0], armed[1]);
      EXPECT_GT(armed[0].subtasks_spawned, 0u);
    }
  }
}

// ---- Pooled scratch reuse ----

TEST(MiningScratchTest, ReuseAcrossMixedTasksMatchesFreshContexts) {
  MiningScratch pooled;
  Rng rng(404);
  uint64_t last_bytes = 0;
  for (int task = 0; task < 24; ++task) {
    const uint32_t n = 16 + static_cast<uint32_t>(rng.Uniform(120));
    const uint64_t m = std::min<uint64_t>(n * (2 + rng.Uniform(8)),
                                          uint64_t{n} * (n - 1) / 2);
    auto src = std::move(GenErdosRenyi(n, m, 1000 + task)).value();
    LocalGraph g = FullLocalGraph(src);
    // Alternate dense and sparse tasks through the same arena.
    MiningOptions opts = Options(0.8, 3, task % 2 == 0);
    CountingSink sink;
    MiningContext pooled_ctx(&g, opts, &sink, &pooled);
    MiningContext fresh_ctx(&g, opts, &sink);

    std::vector<LocalId> s, ext;
    for (LocalId v = 0; v < g.n(); ++v) {
      const uint64_t r = rng.Uniform(3);
      if (r == 0) s.push_back(v);
      else if (r == 1) ext.push_back(v);
    }
    if (s.empty()) s.push_back(0);
    for (MiningContext* ctx : {&pooled_ctx, &fresh_ctx}) {
      for (LocalId v : s) ctx->SetVState(v, VState::kInS);
      for (LocalId u : ext) ctx->SetVState(u, VState::kInExt);
      ComputeDegrees(*ctx, s, ext);
    }
    for (LocalId v : s) {
      ASSERT_EQ(pooled_ctx.ds()[v], fresh_ctx.ds()[v]) << "task=" << task;
    }
    for (LocalId u : ext) {
      ASSERT_EQ(pooled_ctx.ds()[u], fresh_ctx.ds()[u]) << "task=" << task;
      ASSERT_EQ(pooled_ctx.dext()[u], fresh_ctx.dext()[u])
          << "task=" << task;
    }
    std::vector<LocalId> cover_pooled, cover_fresh;
    FindBestCoverSet(pooled_ctx, s, ext, &cover_pooled);
    FindBestCoverSet(fresh_ctx, s, ext, &cover_fresh);
    std::sort(cover_pooled.begin(), cover_pooled.end());
    std::sort(cover_fresh.begin(), cover_fresh.end());
    ASSERT_EQ(cover_pooled, cover_fresh) << "task=" << task;
    EXPECT_EQ(pooled_ctx.IsQuasiClique(s), fresh_ctx.IsQuasiClique(s));

    // The arena grows monotonically to the largest task seen.
    EXPECT_GE(pooled.MemoryBytes(), last_bytes);
    last_bytes = pooled.MemoryBytes();
  }
}

TEST(MiningScratchTest, FullMinesShareOneScratchAndStayIdentical) {
  // RecursiveMine over several roots' ego nets, all through one pooled
  // scratch, against per-task fresh scratch: identical emissions.
  auto src = std::move(GenPlantedCommunities({.num_vertices = 300,
                                              .num_communities = 3,
                                              .community_min = 9,
                                              .community_max = 12,
                                              .intra_density = 0.92,
                                              .overlap_fraction = 0.3,
                                              .seed = 21}))
                 .value();
  LocalGraph g = FullLocalGraph(src);
  MiningOptions opts = Options(0.85, 6, true);

  MiningScratch pooled;
  for (LocalId root = 0; root < 12; ++root) {
    std::vector<LocalId> ext;
    for (LocalId u : g.Neighbors(root)) {
      if (u > root) ext.push_back(u);
    }
    VectorSink pooled_sink, fresh_sink;
    MiningContext pooled_ctx(&g, opts, &pooled_sink, &pooled);
    MiningContext fresh_ctx(&g, opts, &fresh_sink);
    RecursiveMine(pooled_ctx, {root}, ext);
    RecursiveMine(fresh_ctx, {root}, std::move(ext));
    EXPECT_EQ(pooled_sink.results(), fresh_sink.results())
        << "root=" << root;
    ExpectStatsParity(pooled_ctx.stats, fresh_ctx.stats);
  }

  // A second identical pass reuses every frame and buffer as they are.
  const size_t frames = pooled.num_frames();
  const uint64_t bytes = pooled.MemoryBytes();
  EXPECT_GT(frames, 1u) << "the mines never recursed";
  for (LocalId root = 0; root < 12; ++root) {
    std::vector<LocalId> ext;
    for (LocalId u : g.Neighbors(root)) {
      if (u > root) ext.push_back(u);
    }
    VectorSink sink;
    MiningContext ctx(&g, opts, &sink, &pooled);
    RecursiveMine(ctx, {root}, std::move(ext));
  }
  EXPECT_EQ(pooled.num_frames(), frames);
  EXPECT_EQ(pooled.MemoryBytes(), bytes);
}

}  // namespace
}  // namespace qcm
