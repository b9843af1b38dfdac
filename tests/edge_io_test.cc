// Regression tests for SNAP edge-list I/O: round-trip fidelity, comment
// and blank-line tolerance, and -- the hardening contract -- a descriptive
// file:line Corruption status for every malformed-input shape instead of
// silently skipping or misreading lines.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_io.h"

namespace qcm {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

TEST(EdgeIoTest, LoadsEdgesWithCommentsAndBlankLines) {
  const std::string path = WriteTempFile("edges_ok.txt",
                                         "# a SNAP-style comment\n"
                                         "% a matrix-market comment\n"
                                         "\n"
                                         "10 20\n"
                                         "  20\t30\n"
                                         "10 30   \n");
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 3u);
  EXPECT_EQ(loaded->graph.NumEdges(), 3u);
  // External ids compacted by sorted rank.
  EXPECT_EQ(loaded->original_ids,
            (std::vector<uint64_t>{10, 20, 30}));
}

TEST(EdgeIoTest, SaveLoadRoundTrip) {
  const std::string in = WriteTempFile("edges_rt.txt", "0 1\n1 2\n0 2\n");
  auto loaded = LoadEdgeList(in);
  ASSERT_TRUE(loaded.ok());
  const std::string out = testing::TempDir() + "/edges_rt_out.txt";
  ASSERT_TRUE(SaveEdgeList(loaded->graph, out).ok());
  auto reloaded = LoadEdgeList(out);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->graph.NumVertices(), loaded->graph.NumVertices());
  EXPECT_EQ(reloaded->graph.NumEdges(), loaded->graph.NumEdges());
  for (VertexId v = 0; v < loaded->graph.NumVertices(); ++v) {
    auto a = loaded->graph.Neighbors(v);
    auto b = reloaded->graph.Neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "v=" << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "v=" << v;
  }
}

// The same 24-vertex graph under three increasing id maps: dense ids
// and ids with gaps compact through the presence table, sparse ids near
// 2^63 through the sort. Each must give the sorted ranks, so the loaded
// graphs are identical.
TEST(EdgeIoTest, DenseGappedAndSparseIdsGiveIdenticalRanks) {
  std::vector<std::pair<uint64_t, uint64_t>> base;
  for (uint64_t v = 0; v < 24; ++v) {
    base.emplace_back(v, (v + 1) % 24);
    base.emplace_back(v, (v * 7 + 5) % 24);
  }
  struct IdMap {
    const char* name;
    uint64_t (*id)(uint64_t);
  };
  const IdMap maps[] = {
      {"dense", [](uint64_t v) { return v; }},
      {"gaps", [](uint64_t v) { return 5 * v + 3; }},
      {"sparse", [](uint64_t v) { return (uint64_t{1} << 63) + 1000 * v; }},
  };
  Graph first;
  for (const IdMap& map : maps) {
    std::string text = "# ids: " + std::string(map.name) + "\n";
    // Reversed, so the file order is not the rank order.
    for (auto it = base.rbegin(); it != base.rend(); ++it) {
      text += std::to_string(map.id(it->second)) + " " +
              std::to_string(map.id(it->first)) + "\n";
    }
    auto loaded =
        LoadEdgeList(WriteTempFile(std::string("ids_") + map.name, text));
    ASSERT_TRUE(loaded.ok()) << map.name << ": "
                             << loaded.status().ToString();
    ASSERT_EQ(loaded->graph.NumVertices(), 24u) << map.name;
    for (uint64_t v = 0; v < 24; ++v) {
      EXPECT_EQ(loaded->original_ids[v], map.id(v)) << map.name;
    }
    for (const auto& [u, v] : base) {
      if (u != v) {
        EXPECT_TRUE(loaded->graph.HasEdge(static_cast<VertexId>(u),
                                          static_cast<VertexId>(v)))
            << map.name << " " << u << "-" << v;
      }
    }
    if (first.NumVertices() == 0) {
      first = std::move(loaded->graph);
      continue;
    }
    ASSERT_EQ(loaded->graph.NumEdges(), first.NumEdges()) << map.name;
    for (VertexId v = 0; v < 24; ++v) {
      auto a = first.Neighbors(v);
      auto b = loaded->graph.Neighbors(v);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << map.name << " v=" << v;
    }
  }
}

TEST(EdgeIoTest, MissingFileIsIOError) {
  auto loaded = LoadEdgeList(testing::TempDir() + "/no_such_edges.txt");
  EXPECT_FALSE(loaded.ok());
}

TEST(EdgeIoTest, EmptyFileIsAnEmptyGraph) {
  const std::string path = WriteTempFile("edges_empty.txt", "# nothing\n");
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumVertices(), 0u);
  EXPECT_EQ(loaded->graph.NumEdges(), 0u);
}

struct CorruptCase {
  const char* name;
  const char* content;
  const char* expected_location;  // "file:line" suffix the status must name
};

class EdgeIoCorruptInput : public testing::TestWithParam<CorruptCase> {};

TEST_P(EdgeIoCorruptInput, FailsWithFileAndLine) {
  const CorruptCase& c = GetParam();
  const std::string path =
      WriteTempFile(std::string("edges_") + c.name + ".txt", c.content);
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok()) << c.name << ": corrupt input was accepted";
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path + ":" + c.expected_location),
            std::string::npos)
      << c.name << ": status lacks file:line -- " << message;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EdgeIoCorruptInput,
    testing::Values(
        CorruptCase{"letters", "1 2\nfoo bar\n", "2"},
        CorruptCase{"single_field", "1 2\n3\n1 4\n", "2"},
        CorruptCase{"negative_id", "1 2\n-3 4\n", "2"},
        CorruptCase{"trailing_garbage", "1 2\n3 4 extra\n", "2"},
        CorruptCase{"float_id", "1 2\n3.5 4\n", "2"},
        CorruptCase{"overflow", "1 2\n99999999999999999999 4\n", "2"},
        CorruptCase{"first_line", "oops\n1 2\n", "1"}),
    [](const testing::TestParamInfo<CorruptCase>& info) {
      return info.param.name;
    });

TEST(EdgeIoTest, OverlongLineIsRejected) {
  std::string long_line(2000, '1');  // one huge digit run, no newline room
  long_line += " 2\n";
  const std::string path =
      WriteTempFile("edges_long.txt", "1 2\n" + long_line);
  auto loaded = LoadEdgeList(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find(":2:"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace qcm
