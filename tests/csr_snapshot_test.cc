// .qcsr snapshot format + paged adjacency store tests: byte-pinned header
// layout, round-trip fidelity, the degeneracy order of the packed ids,
// corrupt-header / old-version / torn-tail / checksum-mismatch / bad-order
// rejection with file:offset errors, and parity of snapshot-mmap and
// budget-constrained paged tables with the resident Graph (including a
// budget tight enough to force eviction churn).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "graph/paged_adjacency.h"
#include "gthinker/engine_config.h"
#include "gthinker/vertex_table.h"
#include "util/serde.h"

namespace qcm {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Graph MakePlanted(uint32_t n, uint64_t seed) {
  auto spec = ParsePlantedSpec(
      "n=" + std::to_string(n) + ",communities=6,size=10..14,density=0.95",
      seed);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto g = GenPlantedCommunities(spec.value());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
}

template <typename T>
T ReadAt(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

/// `g` relabelled by the snapshot's order section: vertex v of the result
/// is snapshot vertex v. Built from `g`'s rows, not the snapshot's.
Graph InSnapshotIds(const CsrSnapshot& snap, const Graph& g) {
  std::vector<VertexId> rank(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) rank[snap.CallerId(v)] = v;
  std::vector<Edge> edges;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) {
      if (v < u) edges.emplace_back(rank[v], rank[u]);
    }
  }
  return std::move(Graph::FromEdges(g.NumVertices(), edges)).value();
}

void ExpectSameGraph(const Graph& want, const Graph& got,
                     const std::string& what) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices()) << what;
  ASSERT_EQ(got.NumEdges(), want.NumEdges()) << what;
  for (VertexId v = 0; v < want.NumVertices(); ++v) {
    auto a = want.Neighbors(v);
    auto b = got.Neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << what << " vertex " << v;
  }
}

TEST(CsrSnapshotTest, HeaderLayoutIsBytePinned) {
  const Graph g = MakePlanted(64, 3);
  const std::string path = TempPath("pinned.qcsr");
  CsrWriteOptions opts;
  opts.page_size = 4096;
  opts.build_seed = 3;
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, opts).ok());

  const std::string bytes = ReadAll(path);
  // Fixed field offsets: any change here is a format break that must come
  // with a version bump.
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), kCsrMagic);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 0), 0x52534351u);  // "QCSR"
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 4), kCsrVersion);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 4), 2u);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 8), 4096u);
  EXPECT_EQ(ReadAt<uint32_t>(bytes, 12), g.NumVertices());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 16), g.NumEdges());
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 24), 3u);  // build seed
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 32), bytes.size());
  // Section table: 4 x {offset, bytes, checksum} from byte 40; the order
  // section (u32 per vertex) first, page-aligned right after the header
  // page.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 40), 4096u);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 48),
            uint64_t{g.NumVertices()} * sizeof(uint32_t));
  // Header checksum over bytes [0, 136).
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 136),
            Fingerprint(bytes.data(), 136));
  // Tail sentinel closes the file.
  EXPECT_EQ(ReadAt<uint64_t>(bytes, bytes.size() - 8), kCsrTailMagic);
  // Every section starts on a page boundary.
  for (int i = 0; i < kCsrNumSections; ++i) {
    EXPECT_EQ(ReadAt<uint64_t>(bytes, 40 + 24 * i) % 4096, 0u)
        << CsrSectionName(i);
  }
}

TEST(CsrSnapshotTest, RoundTripPreservesGraphAndOriginalIds) {
  const Graph g = MakePlanted(200, 7);
  std::vector<uint64_t> ids(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) ids[v] = 1000 + 3 * v;

  const std::string path = TempPath("roundtrip.qcsr");
  CsrWriteOptions opts;
  opts.page_size = 4096;
  ASSERT_TRUE(WriteCsrSnapshot(g, ids, path, opts).ok());

  CsrSnapshot::OpenOptions open_opts;
  open_opts.verify_sections = true;
  open_opts.verify_adjacency = true;
  auto snap = CsrSnapshot::Open(path, open_opts);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  ASSERT_EQ((*snap)->NumVertices(), g.NumVertices());
  ASSERT_EQ((*snap)->NumEdges(), g.NumEdges());
  const Graph relabelled = InSnapshotIds(**snap, g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ((*snap)->Degree(v), g.Degree((*snap)->CallerId(v)));
    EXPECT_EQ((*snap)->OriginalId(v), ids[(*snap)->CallerId(v)]);
    auto want = relabelled.Neighbors(v);
    auto got = (*snap)->Neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
        << "vertex " << v;
  }

  // Resident materialization reproduces the identical CSR, in caller ids.
  auto back = (*snap)->ToGraph();
  ASSERT_TRUE(back.ok());
  ExpectSameGraph(g, *back, "ToGraph");
}

// Both packers -- a file and the anonymous in-memory one -- hand back
// exactly the packed Graph, and mined sets map back to its ids.
TEST(CsrSnapshotTest, ToGraphReturnsThePackedGraphExactly) {
  const std::string path = TempPath("to_graph.qcsr");
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph graphs[] = {MakePlanted(300, seed),
                            std::move(GenErdosRenyi(200, 500, seed)).value(),
                            std::move(GenBarabasiAlbert(200, 3, seed)).value()};
    for (const Graph& g : graphs) {
      const std::string at = "seed " + std::to_string(seed) + ", " +
                             std::to_string(g.NumVertices()) + " vertices";
      ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
      auto file = CsrSnapshot::Open(path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      auto memfd = CsrSnapshot::FromGraph(g);
      ASSERT_TRUE(memfd.ok()) << memfd.status().ToString();
      for (const CsrSnapshot* snap : {file->get(), memfd->get()}) {
        auto back = snap->ToGraph();
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        ExpectSameGraph(g, *back, at + " " + snap->path());
        // Without an original-id map, the external id is the caller id.
        std::vector<std::vector<VertexId>> sets = {{}};
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          EXPECT_EQ(snap->OriginalId(v), snap->CallerId(v)) << at;
          sets[0].push_back(g.NumVertices() - 1 - v);
        }
        ASSERT_TRUE(snap->ToCallerIds(&sets).ok());
        std::vector<VertexId> all(g.NumVertices());
        std::iota(all.begin(), all.end(), 0);
        EXPECT_EQ(sets[0], all) << at;
        sets = {{g.NumVertices()}};
        EXPECT_EQ(snap->ToCallerIds(&sets).code(),
                  StatusCode::kInvalidArgument);
      }
    }
  }
}

// Snapshot ids follow the min-degree peel: every vertex has at most its
// core number of neighbors with a larger id, so a root's set-enumeration
// extends into at most that many of its neighbors.
TEST(CsrSnapshotTest, SnapshotIdsAreADegeneracyOrder) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph graphs[] = {MakePlanted(400, seed),
                            std::move(GenErdosRenyi(300, 900, seed)).value(),
                            std::move(GenBarabasiAlbert(300, 4, seed)).value()};
    for (const Graph& g : graphs) {
      const std::vector<uint32_t> core = CoreDecomposition(g);
      auto snap = CsrSnapshot::FromGraph(g);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      uint32_t max_core = 0;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        const auto row = (*snap)->Neighbors(v);
        const auto later = row.end() - std::upper_bound(row.begin(),
                                                        row.end(), v);
        const uint32_t c = core[(*snap)->CallerId(v)];
        EXPECT_LE(static_cast<uint32_t>(later), c)
            << "seed " << seed << " snapshot vertex " << v;
        max_core = std::max(max_core, c);
      }
      // The densest core ends the order.
      EXPECT_EQ(core[(*snap)->CallerId(g.NumVertices() - 1)], max_core);
    }
  }
}

// A version-1 file (degrees section, rows in caller order) has a valid
// header checksum but must be refused, naming the version, not misread.
TEST(CsrSnapshotTest, RejectsVersionOneNamingTheVersion) {
  const Graph g = MakePlanted(64, 2);
  const std::string path = TempPath("v1.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  std::string bytes = ReadAll(path);
  const uint32_t v1 = 1;
  std::memcpy(&bytes[4], &v1, sizeof(v1));
  const uint64_t fp = Fingerprint(bytes.data(), 136);
  std::memcpy(&bytes[136], &fp, sizeof(fp));
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find(path + ":4:"), std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find("version 1"), std::string::npos)
      << snap.status().ToString();
}

// An order section that is not a permutation is refused even when the
// section checksums are not verified, so CallerId never reads past n.
TEST(CsrSnapshotTest, RejectsOrderSectionThatIsNotAPermutation) {
  const Graph g = MakePlanted(64, 4);
  const std::string path = TempPath("bad_order.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  const std::string pristine = ReadAll(path);
  const uint64_t order_at = ReadAt<uint64_t>(pristine, 40);
  CsrSnapshot::OpenOptions unverified;
  unverified.verify_sections = false;
  for (const uint32_t bad :
       {ReadAt<uint32_t>(pristine, order_at + 4), g.NumVertices()}) {
    std::string bytes = pristine;
    std::memcpy(&bytes[order_at], &bad, sizeof(bad));
    WriteAll(path, bytes);
    auto snap = CsrSnapshot::Open(path, unverified);
    ASSERT_FALSE(snap.ok()) << bad;
    EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
    EXPECT_NE(snap.status().ToString().find("order section"),
              std::string::npos)
        << snap.status().ToString();
  }
}

TEST(CsrSnapshotTest, RejectsBadMagicWithFileOffset) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("badmagic.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  std::string bytes = ReadAll(path);
  bytes[0] ^= 0xff;
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find(path + ":0:"),
            std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find("magic"), std::string::npos);
}

TEST(CsrSnapshotTest, RejectsHeaderFieldCorruption) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("badheader.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  std::string bytes = ReadAll(path);
  bytes[16] ^= 0x01;  // num_edges
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find("header checksum mismatch"),
            std::string::npos)
      << snap.status().ToString();
}

TEST(CsrSnapshotTest, RejectsTornTail) {
  const Graph g = MakePlanted(32, 1);
  const std::string path = TempPath("torntail.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes.substr(0, bytes.size() - 5));

  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snap.status().ToString().find("torn tail"), std::string::npos)
      << snap.status().ToString();

  // Right length, clobbered sentinel (e.g. a partial rewrite).
  std::string clobbered = bytes;
  clobbered[clobbered.size() - 3] ^= 0xff;
  WriteAll(path, clobbered);
  snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.status().ToString().find("torn tail"), std::string::npos);
}

TEST(CsrSnapshotTest, RejectsSectionChecksumMismatchNamingSection) {
  const Graph g = MakePlanted(64, 5);
  const std::string path = TempPath("badsection.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  const std::string pristine = ReadAll(path);

  // Order section (validated by default).
  std::string bytes = pristine;
  bytes[4096] ^= 0x01;
  WriteAll(path, bytes);
  auto snap = CsrSnapshot::Open(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  EXPECT_NE(
      snap.status().ToString().find("order section checksum mismatch"),
      std::string::npos)
      << snap.status().ToString();
  EXPECT_NE(snap.status().ToString().find(path + ":4096:"),
            std::string::npos);

  // Adjacency section: caught only when verify_adjacency is on.
  bytes = pristine;
  const uint64_t adj_off = ReadAt<uint64_t>(pristine, 40 + 24 * 3);
  bytes[adj_off] ^= 0x01;
  WriteAll(path, bytes);
  snap = CsrSnapshot::Open(path);  // metadata-only validation passes
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  CsrSnapshot::OpenOptions full;
  full.verify_adjacency = true;
  snap = CsrSnapshot::Open(path, full);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(
      snap.status()
          .ToString()
          .find("adjacency section checksum mismatch"),
      std::string::npos)
      << snap.status().ToString();
}

TEST(CsrSnapshotTest, PagedStoreMatchesResidentUnderEvictionChurn) {
  const Graph g = MakePlanted(600, 11);
  const std::string path = TempPath("paged_parity.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  const Graph want_graph = InSnapshotIds(**snap, g);

  const int kMachines = 3;
  for (int rank = 0; rank < kMachines; ++rank) {
    // Two pages of budget against a multi-page partition: every pass over
    // the owned vertices must evict and repin mid-scan.
    VertexTable paged(*snap, kMachines, rank, /*graph_memory_budget=*/8192);
    ASSERT_TRUE(paged.partitioned());

    // Randomized access order, several passes: churn the CLOCK ring.
    std::vector<VertexId> order = paged.OwnedVertices(rank);
    std::mt19937 rng(rank + 1);
    for (int pass = 0; pass < 3; ++pass) {
      std::shuffle(order.begin(), order.end(), rng);
      for (VertexId v : order) {
        ASSERT_EQ(paged.Degree(v), want_graph.Degree(v));
        auto want = want_graph.Neighbors(v);
        auto got = paged.Adjacency(v);
        ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()))
            << "vertex " << v;
      }
    }
    const PagedStoreStatsSnapshot stats = paged.paged_store()->stats();
    EXPECT_GT(stats.page_ins, 0u) << "rank " << rank;
    EXPECT_GT(stats.page_evictions, 0u)
        << "rank " << rank << ": budget never forced an eviction -- the "
        << "churn premise of this test is broken";
    EXPECT_GT(stats.page_pins, stats.page_ins) << "rank " << rank;
    EXPECT_LE(stats.resident_pages,
              stats.frame_capacity + 8u)  // transient overflow headroom
        << "rank " << rank;
  }
}

TEST(CsrSnapshotTest, UnboundedSnapshotTableServesAllVertices) {
  const Graph g = MakePlanted(300, 13);
  const std::string path = TempPath("serve_all.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  // local_rank -1 + budget 0: the single-process resident-equivalent
  // table; every adjacency is a direct mmap span.
  VertexTable table(*snap, /*num_machines=*/2, /*local_rank=*/-1,
                    /*graph_memory_budget=*/0);
  EXPECT_FALSE(table.partitioned());
  EXPECT_EQ(table.NumVertices(), g.NumVertices());
  const Graph want_graph = InSnapshotIds(**snap, g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto want = want_graph.Neighbors(v);
    auto got = table.Adjacency(v);
    ASSERT_TRUE(
        std::equal(want.begin(), want.end(), got.begin(), got.end()));
  }
  const PagedStoreStatsSnapshot stats = table.paged_store()->stats();
  EXPECT_EQ(stats.page_ins, 0u);  // paging disabled entirely
  EXPECT_EQ(stats.page_evictions, 0u);
}

// The launcher peels the snapshot it maps; the in-process miners peel the
// Graph they hold. Both must give the same k-core.
void ExpectKCoreParity(const Graph& g, const std::string& what) {
  const std::string path = TempPath("kcore_parity.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const Graph relabelled = InSnapshotIds(**snap, g);
  for (uint32_t k : {0u, 1u, 3u, 5u, 6u, 9u, 100u}) {
    auto mapped = KCoreMask(**snap, k);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(*mapped, KCoreMask(relabelled, k)) << what << " k=" << k;
    // The same core, read in the caller's ids.
    const std::vector<uint8_t> resident = KCoreMask(g, k);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ((*mapped)[v], resident[(*snap)->CallerId(v)])
          << what << " k=" << k << " v=" << v;
    }
  }
}

TEST(CsrSnapshotTest, KCoreMaskMatchesResidentGraph) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ExpectKCoreParity(std::move(GenErdosRenyi(400, 1200, seed)).value(),
                      "er seed=" + std::to_string(seed));
    ExpectKCoreParity(MakePlanted(500, seed),
                      "planted seed=" + std::to_string(seed));
  }
}

// A neighbor id past the vertex range (adjacency not checksum-verified)
// is a Corruption from the peel, never an out-of-bounds index.
TEST(CsrSnapshotTest, KCoreMaskRejectsOutOfRangeNeighbor) {
  const Graph g = MakePlanted(64, 5);
  const std::string path = TempPath("kcore_bad_neighbor.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  const std::string pristine = ReadAll(path);
  std::string bytes = pristine;
  const uint64_t adj_off = ReadAt<uint64_t>(bytes, 40 + 24 * 3);
  const uint32_t bad = g.NumVertices() + 7;
  std::memcpy(&bytes[adj_off], &bad, sizeof(bad));
  WriteAll(path, bytes);

  auto snap = CsrSnapshot::Open(path);  // metadata-only validation
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // Every row is checked, peeled (k above every degree) or not (k = 0),
  // for range and for order.
  for (uint32_t k : {g.MaxDegree() + 1, 0u}) {
    auto mask = KCoreMask(**snap, k);
    ASSERT_FALSE(mask.ok()) << k;
    EXPECT_EQ(mask.status().code(), StatusCode::kCorruption);
    EXPECT_NE(mask.status().ToString().find("adjacency section"),
              std::string::npos)
        << mask.status().ToString();
  }
  snap->reset();

  // The pristine file's last row (the core end of the order, degree
  // >= 2) with its first two ids swapped: in range, out of order.
  WriteAll(path, pristine);
  snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const VertexId last = g.NumVertices() - 1;
  const auto row = (*snap)->Neighbors(last);
  ASSERT_GE(row.size(), 2u);
  const std::vector<VertexId> swapped = {row[1], row[0]};
  const uint64_t row_at =
      adj_off + (*snap)->AdjOffset(last) * sizeof(VertexId);
  snap->reset();
  bytes = pristine;
  std::memcpy(&bytes[row_at], swapped.data(), 2 * sizeof(VertexId));
  WriteAll(path, bytes);
  snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto unordered = KCoreMask(**snap, 0);
  ASSERT_FALSE(unordered.ok());
  EXPECT_EQ(unordered.status().code(), StatusCode::kCorruption);
}

// Partitioned and unpartitioned tables serve the alive mask the same way:
// peeled vertices report degree 0, core vertices their degree, adjacency
// is untouched.
TEST(CsrSnapshotTest, AliveMaskZeroesOnlyPeeledDegrees) {
  const Graph g = MakePlanted(300, 17);
  const std::string path = TempPath("alive_mask.qcsr");
  ASSERT_TRUE(WriteCsrSnapshot(g, {}, path, {4096, 0}).ok());
  auto snap = CsrSnapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  const Graph want_graph = InSnapshotIds(**snap, g);
  const std::vector<uint8_t> alive = KCoreMask(want_graph, 6);
  ASSERT_GT(CountAlive(alive), 0u);
  ASSERT_LT(CountAlive(alive), g.NumVertices());

  VertexTable simulated(*snap, 2, /*local_rank=*/-1,
                        /*graph_memory_budget=*/0);
  VertexTable partitioned(*snap, 2, /*local_rank=*/0,
                          /*graph_memory_budget=*/0);
  for (VertexTable* table : {&simulated, &partitioned}) {
    table->SetAliveMask(alive);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(table->Degree(v), alive[v] ? want_graph.Degree(v) : 0u)
          << v;
      if (table->Owner(v) != 0) continue;
      auto want = want_graph.Neighbors(v);
      auto got = table->Adjacency(v);
      EXPECT_TRUE(
          std::equal(want.begin(), want.end(), got.begin(), got.end()))
          << v;
    }
  }
}

TEST(CsrSnapshotTest, ValidateRejectsBadGraphStorageKnobs) {
  EngineConfig config;
  ASSERT_TRUE(config.Validate().ok());

  config.graph_page_size = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = -4096;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = 12345;  // not a power of two
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = 2048;  // < kCsrMinPageSize
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_page_size = 65536;
  ASSERT_TRUE(config.Validate().ok());

  config.graph_memory_budget = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  // Budget without a snapshot is a contradiction...
  config.graph_memory_budget = 1 << 20;
  Status s = config.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("engine_config.cc:"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("contradictory"), std::string::npos);
  // ...resolved by naming one.
  config.graph_snapshot = "/tmp/whatever.qcsr";
  EXPECT_TRUE(config.Validate().ok());

  // Budget smaller than one page cannot hold a single frame.
  config.graph_memory_budget = 4096;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.graph_memory_budget = 65536;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace qcm
