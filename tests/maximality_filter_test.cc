// FilterMaximal against an O(n^2) brute-force reference on seeded random
// set families: exact duplicates, empty sets, nested superset chains,
// equal-size distinct sets, sets whose members all share one signature
// bit, and ids near UINT32_MAX. Also pins the contract around it: the
// input vector is untouched, the output is lexicographically sorted, and
// the duplicate count is exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "util/rng.h"

namespace qcm {
namespace {

/// The definition, spelled out: drop exact duplicates (counting them) and
/// empty sets, then keep a set iff no other distinct set strictly
/// contains it; lexicographic order.
std::vector<VertexSet> BruteForceMaximal(std::vector<VertexSet> sets,
                                         size_t* duplicates) {
  std::sort(sets.begin(), sets.end());
  const size_t before = sets.size();
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  *duplicates = before - sets.size();
  std::vector<VertexSet> out;
  for (const VertexSet& s : sets) {
    if (s.empty()) continue;
    bool subsumed = false;
    for (const VertexSet& t : sets) {
      if (t.size() > s.size() &&
          std::includes(t.begin(), t.end(), s.begin(), s.end())) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) out.push_back(s);
  }
  return out;
}

VertexSet Canonical(VertexSet s) {
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

/// `count` ids whose SetSignature is one and the same bit, so the
/// signature pre-check can never tell sets over them apart.
std::vector<VertexId> SameBitIds(size_t count) {
  const uint64_t bit = SetSignature({0});
  std::vector<VertexId> ids;
  for (VertexId v = 0; ids.size() < count; ++v) {
    if (SetSignature({v}) == bit) ids.push_back(v);
  }
  return ids;
}

/// A random family drawn from `universe`: random subsets, their exact
/// duplicates, random sub- and supersets of earlier sets (nested chains),
/// and a few empty sets, in random order.
std::vector<VertexSet> RandomFamily(const std::vector<VertexId>& universe,
                                    size_t n, Rng* rng) {
  std::vector<VertexSet> sets;
  while (sets.size() < n) {
    const uint64_t kind = sets.empty() ? 0 : rng->Uniform(10);
    if (kind <= 3) {  // fresh random subset
      VertexSet s;
      const uint64_t size = 1 + rng->Uniform(8);
      for (uint64_t i = 0; i < size; ++i) {
        s.push_back(universe[rng->Uniform(universe.size())]);
      }
      sets.push_back(Canonical(std::move(s)));
    } else if (kind <= 5) {  // exact duplicate
      sets.push_back(sets[rng->Uniform(sets.size())]);
    } else if (kind <= 7) {  // strict superset of an earlier set
      VertexSet s = sets[rng->Uniform(sets.size())];
      const uint64_t extra = 1 + rng->Uniform(3);
      for (uint64_t i = 0; i < extra; ++i) {
        s.push_back(universe[rng->Uniform(universe.size())]);
      }
      sets.push_back(Canonical(std::move(s)));
    } else if (kind == 8) {  // subset of an earlier set
      VertexSet s;
      for (VertexId v : sets[rng->Uniform(sets.size())]) {
        if (rng->Uniform(3) != 0) s.push_back(v);
      }
      sets.push_back(std::move(s));
    } else {
      sets.push_back({});
    }
  }
  return sets;
}

void ExpectMatchesBruteForce(const std::vector<VertexSet>& sets,
                             const std::string& label) {
  const std::vector<VertexSet> before = sets;
  size_t duplicates = SIZE_MAX;
  const std::vector<VertexSet> out = FilterMaximal(sets, &duplicates);
  EXPECT_EQ(sets, before) << label << ": input modified";
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << label;
  size_t expected_duplicates = 0;
  EXPECT_EQ(out, BruteForceMaximal(sets, &expected_duplicates)) << label;
  EXPECT_EQ(duplicates, expected_duplicates) << label;
}

TEST(FilterMaximalPropertyTest, SmallUniverseFamilies) {
  // 12 ids: dense overlap, many equal-size distinct sets.
  std::vector<VertexId> universe;
  for (VertexId v = 0; v < 12; ++v) universe.push_back(v);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    ExpectMatchesBruteForce(RandomFamily(universe, 20 + seed * 5, &rng),
                            "small seed " + std::to_string(seed));
  }
}

TEST(FilterMaximalPropertyTest, SignatureCollisions) {
  // Every member of every set hashes to the same signature bit: the
  // pre-check passes everything and std::includes alone decides.
  const std::vector<VertexId> universe = SameBitIds(16);
  ASSERT_EQ(SetSignature(universe), SetSignature({universe[0]}));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ExpectMatchesBruteForce(RandomFamily(universe, 150, &rng),
                            "same-bit seed " + std::to_string(seed));
  }
}

TEST(FilterMaximalPropertyTest, IdsNearUint32Max) {
  std::vector<VertexId> universe;
  for (VertexId v = UINT32_MAX - 20; v != 0; ++v) universe.push_back(v);
  ASSERT_EQ(universe.back(), UINT32_MAX);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ExpectMatchesBruteForce(RandomFamily(universe, 150, &rng),
                            "high-id seed " + std::to_string(seed));
  }
}

TEST(FilterMaximalPropertyTest, CommunityShapedFamilies) {
  // Overlapping communities over a wide id range, like the engine's raw
  // stream: many sizeable near-duplicates per community.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    std::vector<VertexSet> sets;
    for (int c = 0; c < 6; ++c) {
      std::vector<VertexId> community;
      const VertexId base = static_cast<VertexId>(rng.Uniform(1u << 30));
      for (int i = 0; i < 14; ++i) {
        community.push_back(base + static_cast<VertexId>(rng.Uniform(40)));
      }
      for (VertexSet& s : RandomFamily(community, 60, &rng)) {
        sets.push_back(std::move(s));
      }
    }
    for (size_t i = sets.size(); i > 1; --i) {
      std::swap(sets[i - 1], sets[rng.Uniform(i)]);
    }
    ExpectMatchesBruteForce(sets, "community seed " + std::to_string(seed));
  }
}

TEST(FilterMaximalPropertyTest, DegenerateInputs) {
  ExpectMatchesBruteForce({}, "empty input");
  ExpectMatchesBruteForce({{}, {}, {}}, "only empty sets");
  ExpectMatchesBruteForce({{7}, {7}, {7}}, "one set thrice");
  ExpectMatchesBruteForce({{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {1, 2, 3}},
                          "nested chain");
  ExpectMatchesBruteForce({{1, 2}, {1, 3}, {2, 3}, {1, 2}},
                          "equal-size distinct");
}

TEST(FilterMaximalPropertyTest, ParallelMinerKeepsRawResults) {
  auto g = std::move(GenPlantedCommunities({.num_vertices = 200,
                                            .num_communities = 5,
                                            .community_min = 9,
                                            .community_max = 12,
                                            .intra_density = 0.95,
                                            .overlap_fraction = 0.3,
                                            .seed = 7}))
               .value();
  EngineConfig config;
  config.mining.gamma = 0.85;
  config.mining.min_size = 6;
  config.num_machines = 2;
  config.threads_per_machine = 2;
  config.mode = DecomposeMode::kTimeDelayed;
  config.tau_split = 8;
  config.tau_time = 0.0;  // decompose everything: many raw candidates
  auto result = ParallelMiner(config).Run(g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EngineReport& report = result->report;
  EXPECT_EQ(report.results.size(), result->raw_candidates);
  ASSERT_GT(result->raw_candidates, result->maximal.size());
  size_t duplicates = 0;
  EXPECT_EQ(result->maximal, FilterMaximal(report.results, &duplicates));
  EXPECT_EQ(result->duplicates, duplicates);
  EXPECT_GE(result->filter_seconds, 0.0);
}

}  // namespace
}  // namespace qcm
