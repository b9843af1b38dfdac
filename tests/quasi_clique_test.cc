// Unit tests for problem definitions: validity checking, options
// validation, sinks, the maximality filter, and the naive oracle itself.

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "quick/maximality_filter.h"
#include "quick/naive_enum.h"
#include "quick/quasi_clique.h"

namespace qcm {
namespace {

TEST(MiningOptionsTest, ValidatesDomains) {
  MiningOptions opts;
  opts.gamma = 0.9;
  opts.min_size = 5;
  EXPECT_TRUE(opts.Validate().ok());
  opts.gamma = 0.4;  // below the diameter-2 regime
  EXPECT_FALSE(opts.Validate().ok());
  opts.gamma = 1.1;
  EXPECT_FALSE(opts.Validate().ok());
  opts.gamma = 0.9;
  opts.min_size = 1;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(MiningOptionsTest, MinDegreeK) {
  MiningOptions opts;
  opts.gamma = 0.9;
  opts.min_size = 18;  // the paper's YouTube setting
  EXPECT_EQ(opts.MinDegreeK(), 16u);  // ceil(0.9 * 17) = 16
  opts.min_size = 20;
  EXPECT_EQ(opts.MinDegreeK(), 18u);  // ceil(0.9 * 19) = 18
  opts.gamma = 0.5;
  opts.min_size = 2;
  EXPECT_EQ(opts.MinDegreeK(), 1u);
}

TEST(IsQuasiCliqueGlobalTest, PaperExample) {
  Graph g = PaperFigure4Graph();
  auto gamma = std::move(Gamma::Create(0.6)).value();
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {0, 1, 2, 3}, gamma));
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {0, 1, 2, 3, 4}, gamma));
  // {a, b, d} : d is not adjacent to b -> d has 1 neighbor of 2, 1/2 < 0.6.
  EXPECT_FALSE(IsQuasiCliqueGlobal(g, {0, 1, 3}, gamma));
}

TEST(IsQuasiCliqueGlobalTest, SingletonAndEdge) {
  Graph g = PaperFigure4Graph();
  auto gamma = std::move(Gamma::Create(0.9)).value();
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {0}, gamma));
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {0, 1}, gamma));   // edge a-b
  EXPECT_FALSE(IsQuasiCliqueGlobal(g, {0, 6}, gamma));  // a-g not an edge
}

TEST(IsQuasiCliqueGlobalTest, RejectsDisconnected) {
  // Two disjoint edges: degree condition passes with gamma=0.5 at size 4?
  // Each vertex has 1 neighbor, needs ceil(0.5*3)=2 -> degree check fails
  // anyway; build a case where only connectivity fails: gamma=0.3 (allowed
  // in the oracle), two triangles.
  auto g = std::move(Graph::FromEdges(
                         6, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}}))
               .value();
  auto gamma = std::move(Gamma::Create(0.3)).value();
  // Degrees: each vertex has 2 neighbors among the 5 others; need
  // ceil(0.3*5)=2. Degree passes, connectivity must reject.
  EXPECT_FALSE(IsQuasiCliqueGlobal(g, {0, 1, 2, 3, 4, 5}, gamma));
  EXPECT_TRUE(IsQuasiCliqueGlobal(g, {0, 1, 2}, gamma));
}

TEST(IsQuasiCliqueGlobalTest, RejectsMalformedSets) {
  Graph g = PaperFigure4Graph();
  auto gamma = std::move(Gamma::Create(0.6)).value();
  EXPECT_FALSE(IsQuasiCliqueGlobal(g, {}, gamma));
  EXPECT_FALSE(IsQuasiCliqueGlobal(g, {0, 0, 1}, gamma));   // duplicate
  EXPECT_FALSE(IsQuasiCliqueGlobal(g, {0, 1, 99}, gamma));  // out of range
}

TEST(SinksTest, VectorAndCountingSinks) {
  VectorSink vs;
  CountingSink cs;
  vs.Emit({1, 2, 3});
  vs.Emit({4, 5});
  cs.Emit({1, 2, 3});
  cs.Emit({4, 5});
  cs.Emit({6});
  EXPECT_EQ(vs.results().size(), 2u);
  EXPECT_EQ(vs.results()[0], (VertexSet{1, 2, 3}));
  EXPECT_EQ(cs.count(), 3u);
}

TEST(MaximalityFilterTest, RemovesSubsetsAndDuplicates) {
  std::vector<VertexSet> sets = {
      {1, 2, 3}, {1, 2}, {1, 2, 3}, {2, 3}, {4, 5}, {1, 2, 3, 4},
  };
  auto out = FilterMaximal(sets);
  // {1,2,3} is subsumed by {1,2,3,4}; {1,2} and {2,3} by {1,2,3,4} too.
  EXPECT_EQ(out, (std::vector<VertexSet>{{1, 2, 3, 4}, {4, 5}}));
}

TEST(MaximalityFilterTest, KeepsIncomparableSets) {
  std::vector<VertexSet> sets = {{1, 2, 3}, {2, 3, 4}, {3, 4, 5}};
  auto out = FilterMaximal(sets);
  EXPECT_EQ(out.size(), 3u);
}

TEST(MaximalityFilterTest, EmptyInput) {
  EXPECT_TRUE(FilterMaximal({}).empty());
}

TEST(MaximalityFilterTest, EqualSizeNonSubsetsSurvive) {
  std::vector<VertexSet> sets = {{1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(FilterMaximal(sets).size(), 3u);
}

TEST(NaiveEnumTest, TriangleCliques) {
  auto g = std::move(Graph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}})).value();
  auto result = NaiveMaximalQuasiCliques(g, 1.0, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, (std::vector<VertexSet>{{0, 1, 2}}));
}

TEST(NaiveEnumTest, PaperExampleGamma06MinSize4) {
  Graph g = PaperFigure4Graph();
  auto result = NaiveMaximalQuasiCliques(g, 0.6, 4);
  ASSERT_TRUE(result.ok());
  // {a,b,c,d,e} must be among the maximal results, and {a,b,c,d} must not
  // (it is contained in the former).
  bool has_s2 = false, has_s1 = false;
  for (const auto& s : *result) {
    if (s == VertexSet{0, 1, 2, 3, 4}) has_s2 = true;
    if (s == VertexSet{0, 1, 2, 3}) has_s1 = true;
  }
  EXPECT_TRUE(has_s2);
  EXPECT_FALSE(has_s1);
}

TEST(NaiveEnumTest, RespectsMinSize) {
  Graph g = PaperFigure4Graph();
  auto with4 = NaiveMaximalQuasiCliques(g, 0.6, 4);
  auto with6 = NaiveMaximalQuasiCliques(g, 0.6, 6);
  ASSERT_TRUE(with4.ok());
  ASSERT_TRUE(with6.ok());
  EXPECT_GE(with4->size(), with6->size());
  for (const auto& s : *with6) EXPECT_GE(s.size(), 6u);
}

TEST(NaiveEnumTest, RejectsLargeGraph) {
  auto g = std::move(GenErdosRenyi(30, 60, 1)).value();
  EXPECT_FALSE(NaiveMaximalQuasiCliques(g, 0.8, 3).ok());
}

TEST(NaiveEnumTest, ResultsAreValidAndMutuallyNonContained) {
  auto g = std::move(GenErdosRenyi(12, 30, 5)).value();
  auto result = NaiveMaximalQuasiCliques(g, 0.6, 3);
  ASSERT_TRUE(result.ok());
  auto gamma = std::move(Gamma::Create(0.6)).value();
  for (const auto& s : *result) {
    EXPECT_TRUE(IsQuasiCliqueGlobal(g, s, gamma));
  }
  auto filtered = FilterMaximal(*result);
  EXPECT_EQ(filtered, *result);
}

}  // namespace
}  // namespace qcm
