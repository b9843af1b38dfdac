// End-to-end multi-process test (the PR's acceptance criterion): fork a
// real 3-process `qcm_cluster` run on an example graph and assert its
// maximal quasi-clique set is bit-identical -- same canonical result
// file, same digest -- to single-process simulated `qcm_mine`. This
// drives the actual shipped binaries (launcher, workers, TCP mesh,
// distributed termination, report merging), not a test harness replica.
//
// The binaries are located via QCM_BIN_DIR (compiled in by CMake as the
// build directory); ctest runs from there, so a fresh build always tests
// its own artifacts.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "gthinker/engine_config.h"
#include "quick/quasi_clique.h"

namespace {

#ifndef QCM_BIN_DIR
#define QCM_BIN_DIR "."
#endif

std::string BinDir() { return QCM_BIN_DIR; }

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extracts the "result-digest: <hex>" line both tools print.
std::string Digest(const std::string& output) {
  const std::string needle = "result-digest: ";
  const size_t pos = output.find(needle);
  if (pos == std::string::npos) return "";
  return output.substr(pos + needle.size(), 16);
}

/// The launcher-made log dir, from its "(logs in <dir>, ..." line.
std::string LogDir(const std::string& output) {
  const std::string needle = "logs in ";
  const size_t pos = output.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  return output.substr(start, output.find_first_of(",\n", start) - start);
}

constexpr char kGraphSpec[] =
    "n=1500,communities=5,size=9..13,density=0.95";
constexpr char kMiningFlags[] = "--gamma 0.85 --min-size 8 --seed 3";

TEST(ClusterE2ETest, ThreeProcessClusterBitIdenticalToSimulatedMode) {
  const std::string single_out = ::testing::TempDir() + "/qcm_single.txt";
  const std::string cluster_out = ::testing::TempDir() + "/qcm_cluster.txt";

  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 3 --threads 2 --output " + single_out);
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 2 --output " + cluster_out);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;

  // Same digest on stderr...
  const std::string single_digest = Digest(single.output);
  const std::string cluster_digest = Digest(cluster.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, cluster_digest)
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;

  // ...and byte-identical canonical result files with real content.
  const std::string single_results = ReadFile(single_out);
  const std::string cluster_results = ReadFile(cluster_out);
  ASSERT_FALSE(single_results.empty()) << single.output;
  EXPECT_EQ(single_results, cluster_results);

  std::remove(single_out.c_str());
  std::remove(cluster_out.c_str());
}

/// Pulls the integer after `"key": ` out of a stats-json blob (first
/// occurrence -- pass a search start to skip to the "merged" object).
long long JsonCounter(const std::string& json, const std::string& key,
                      size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
}

/// Each task is classified big or small once, when created, so the
/// whole-job counters of a crash-free run add up to the completed tasks
/// (a task stolen by another rank is created on one and completed on the
/// other, hence the merged counters).
void ExpectTaskCountersAddUp(const std::string& json, size_t merged_at) {
  const long long big = JsonCounter(json, "big_tasks", merged_at);
  const long long small = JsonCounter(json, "small_tasks", merged_at);
  const long long done = JsonCounter(json, "tasks_completed", merged_at);
  ASSERT_GE(big, 0) << json;
  ASSERT_GE(small, 0) << json;
  EXPECT_GT(done, 0) << json;
  EXPECT_EQ(big + small, done) << json;
}

// Out-of-core acceptance: pack once with qcm_pack, hand the snapshot to a
// 3-process cluster whose per-rank adjacency budget (one 4 KiB frame) is
// smaller than the pages the k-core's rows span -- in degeneracy order
// they share the last few pages of the file -- and require the digest to stay
// bit-identical to resident qcm_mine while the pager demonstrably churns
// (evictions > 0 in the merged report).
TEST(ClusterE2ETest, BudgetedSnapshotClusterBitIdenticalUnderEviction) {
  const std::string snap_path = ::testing::TempDir() + "/qcm_e2e.qcsr";
  const std::string json_path = ::testing::TempDir() + "/qcm_oocsr.json";
  const std::string log_dir = ::testing::TempDir() + "/qcm_oocsr_logs";

  const RunResult packed = RunCommand(
      BinDir() + "/qcm_pack --gen-planted " + kGraphSpec +
      " --seed 3 --page-size 4096 --verify --output " + snap_path);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;

  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 3 --threads 2");
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 2 --snapshot " + snap_path +
      " --graph-page-size 4096 --graph-memory-budget 4096 --log-dir " +
      log_dir + " --stats-json " + json_path);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;

  const std::string single_digest = Digest(single.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, Digest(cluster.output))
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;

  // The merged report must show real paging activity under the budget.
  const std::string json = ReadFile(json_path);
  const size_t merged_at = json.find("\"merged\"");
  ASSERT_NE(merged_at, std::string::npos) << json;
  EXPECT_GT(JsonCounter(json, "graph_page_ins", merged_at), 0) << json;
  EXPECT_GT(JsonCounter(json, "graph_page_evictions", merged_at), 0)
      << json;
  ExpectTaskCountersAddUp(json, merged_at);

  // Workers mapped the snapshot instead of materializing the graph.
  const std::string worker_log = ReadFile(log_dir + "/worker0.log");
  EXPECT_NE(worker_log.find("snapshot"), std::string::npos) << worker_log;
  EXPECT_NE(worker_log.find("mapped"), std::string::npos) << worker_log;

  std::remove(snap_path.c_str());
  std::remove(json_path.c_str());
}

// Same budgeted snapshot machinery, single-worker topology: the pager
// must not depend on partitioning to stay bit-identical.
TEST(ClusterE2ETest, SingleWorkerBudgetedClusterMatchesResident) {
  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 1 --threads 2");
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 1 --threads 2 --graph-page-size 4096 "
      "--graph-memory-budget 8192 --stats");
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  // The launcher packed the graph itself (no --snapshot given).
  EXPECT_NE(cluster.output.find("packed"), std::string::npos)
      << cluster.output;

  const std::string single_digest = Digest(single.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, Digest(cluster.output))
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;
}

/// Size of the global k-core the ranks may spawn from: the test's own
/// in-process peel of the graph every tool builds from kGraphSpec.
uint64_t ExpectedKCoreSize() {
  auto spec = qcm::ParsePlantedSpec(kGraphSpec, /*seed=*/3);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto g = qcm::GenPlantedCommunities(spec.value());
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  qcm::MiningOptions mining;
  mining.gamma = 0.85;
  mining.min_size = 8;
  return qcm::KCoreSize(g.value(), mining.MinDegreeK());
}

// Paper §4 T1 across processes: the launcher peels the snapshot, ships
// the mask, and every rank spawns only global k-core vertices.
TEST(ClusterE2ETest, RanksSpawnOnlyGlobalKCoreVertices) {
  const uint64_t core = ExpectedKCoreSize();
  ASSERT_GT(core, 0u);
  const std::string json_path = ::testing::TempDir() + "/qcm_kcore.json";
  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 2 --stats --stats-json " +
      json_path);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  const std::string json = ReadFile(json_path);
  const size_t merged_at = json.find("\"merged\"");
  ASSERT_NE(merged_at, std::string::npos) << json;
  const long long spawned = JsonCounter(json, "tasks_spawned", merged_at);
  EXPECT_GT(spawned, 0) << json;
  EXPECT_LE(spawned, static_cast<long long>(core)) << json;
  EXPECT_NE(cluster.output.find("k-core: " + std::to_string(core) +
                                " of 1500 vertices (k=6)"),
            std::string::npos)
      << cluster.output;
  std::remove(json_path.c_str());
}

// The launcher verifies the whole snapshot, adjacency included, before
// forking anyone: one flipped adjacency byte fails the run up front.
TEST(ClusterE2ETest, CorruptSnapshotFailsInLauncherBeforeAnyFork) {
  const std::string snap_path = ::testing::TempDir() + "/qcm_corrupt.qcsr";
  const std::string log_dir = ::testing::TempDir() + "/qcm_corrupt_logs";
  std::filesystem::remove_all(log_dir);
  const RunResult packed = RunCommand(
      BinDir() + "/qcm_pack --gen-planted " + kGraphSpec +
      " --seed 3 --page-size 4096 --output " + snap_path);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;

  std::string bytes = ReadFile(snap_path);
  ASSERT_GT(bytes.size(), 4096u);
  uint64_t adj_off = 0;  // section table entry 3 (adjacency), file offset
  std::memcpy(&adj_off, bytes.data() + 40 + 24 * 3, sizeof(adj_off));
  ASSERT_LT(adj_off, bytes.size());
  bytes[adj_off] ^= 0x01;
  {
    std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 1 --snapshot " + snap_path +
      " --log-dir " + log_dir);
  EXPECT_NE(cluster.exit_code, 0) << cluster.output;
  EXPECT_NE(cluster.output.find("adjacency section"), std::string::npos)
      << cluster.output;
  EXPECT_EQ(cluster.output.find("spawning"), std::string::npos)
      << cluster.output;
  ASSERT_TRUE(std::filesystem::is_directory(log_dir));
  for (const auto& entry : std::filesystem::directory_iterator(log_dir)) {
    EXPECT_EQ(entry.path().filename().string().rfind("worker", 0),
              std::string::npos)
        << "a worker was forked: " << entry.path();
  }
  std::remove(snap_path.c_str());
}

TEST(ClusterE2ETest, StatsJsonIsEmittedAndMergesRanks) {
  const std::string json_path = ::testing::TempDir() + "/qcm_stats.json";
  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 1 --stats-json " + json_path);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
  EXPECT_NE(json.find("\"merged\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_completed\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_ratio\""), std::string::npos);
  const size_t merged_at = json.find("\"merged\"");
  ASSERT_NE(merged_at, std::string::npos) << json;
  ExpectTaskCountersAddUp(json, merged_at);
  std::remove(json_path.c_str());
}

// --snapshot alone is a complete source: the launcher never reads an
// --input or --gen-planted beside it. A successful run also removes the
// log dir the launcher made and printed.
TEST(ClusterE2ETest, SnapshotWithoutSourceMatchesQcmMine) {
  const std::string snap_path = ::testing::TempDir() + "/qcm_nosource.qcsr";
  const RunResult packed = RunCommand(
      BinDir() + "/qcm_pack --gen-planted " + kGraphSpec +
      " --seed 3 --output " + snap_path);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;

  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 3 --threads 2");
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --snapshot " + snap_path +
      " --gamma 0.85 --min-size 8 --workers 3 --threads 2");
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  EXPECT_EQ(cluster.output.find("packed"), std::string::npos)
      << cluster.output;

  const std::string single_digest = Digest(single.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, Digest(cluster.output))
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;

  const std::string log_dir = LogDir(cluster.output);
  ASSERT_EQ(log_dir.rfind("/tmp/qcm_cluster_", 0), 0u) << cluster.output;
  EXPECT_FALSE(std::filesystem::exists(log_dir)) << log_dir;
  std::remove(snap_path.c_str());
}

// A failed run keeps its launcher-made log dir and says where it is.
TEST(ClusterE2ETest, FailedRunKeepsItsDefaultLogDir) {
  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --snapshot " + ::testing::TempDir() +
      "/qcm_no_such_file.qcsr " + kMiningFlags + " --workers 2");
  EXPECT_EQ(cluster.exit_code, 1) << cluster.output;
  const std::string needle = "logs kept in ";
  const size_t pos = cluster.output.find(needle);
  ASSERT_NE(pos, std::string::npos) << cluster.output;
  const size_t start = pos + needle.size();
  const std::string log_dir =
      cluster.output.substr(start, cluster.output.find('\n', start) - start);
  EXPECT_TRUE(std::filesystem::is_directory(log_dir)) << log_dir;
  std::filesystem::remove_all(log_dir);
}

// A config error or a malformed planted spec is caught before the
// launcher packs anything or makes a log dir, default or given.
TEST(ClusterE2ETest, InvalidConfigFailsBeforePacking) {
  for (const std::string& source :
       {std::string("--gen-planted ") + kGraphSpec + " --threads 0",
        std::string("--gen-planted no_such_key=1")}) {
    const RunResult cluster =
        RunCommand(BinDir() + "/qcm_cluster " + source + " " +
                   kMiningFlags + " --workers 2");
    EXPECT_EQ(cluster.exit_code, 2) << source << "\n" << cluster.output;
    EXPECT_EQ(cluster.output.find("packed"), std::string::npos)
        << source << "\n" << cluster.output;
    EXPECT_EQ(cluster.output.find("logs kept in"), std::string::npos)
        << source << "\n" << cluster.output;
  }

  const std::string log_dir = ::testing::TempDir() + "/qcm_invalid_logs";
  std::filesystem::remove_all(log_dir);
  const RunResult given = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 2 --threads 0 --log-dir " + log_dir);
  EXPECT_EQ(given.exit_code, 2) << given.output;
  EXPECT_EQ(given.output.find("packed"), std::string::npos) << given.output;
  EXPECT_FALSE(std::filesystem::exists(log_dir)) << log_dir;
}

// The benchmark's command: qcm_mine maps a qcm_pack file and mines it on
// one and on the default two simulated machines; each digest equals the
// --input and --serial runs on the same graph.
TEST(ClusterE2ETest, QcmMineInputSnapshotMatchesInputAndSerial) {
  const std::string edges = ::testing::TempDir() + "/qcm_mapped.txt";
  const std::string snap = ::testing::TempDir() + "/qcm_mapped.qcsr";
  {
    auto spec = qcm::ParsePlantedSpec(kGraphSpec, 3);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto g = qcm::GenPlantedCommunities(*spec);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    std::ofstream out(edges);
    for (qcm::VertexId v = 0; v < g->NumVertices(); ++v) {
      for (qcm::VertexId u : g->Neighbors(v)) {
        if (v < u) out << v << " " << u << "\n";
      }
    }
  }
  const RunResult packed = RunCommand(BinDir() + "/qcm_pack --input " +
                                      edges + " --output " + snap);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;

  const std::string flags = " --gamma 0.85 --min-size 8 --threads 2";
  const RunResult serial =
      RunCommand(BinDir() + "/qcm_mine --input " + edges + flags +
                 " --serial");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  const std::string want = Digest(serial.output);
  ASSERT_EQ(want.size(), 16u) << serial.output;
  EXPECT_EQ(serial.output.find("\n0 maximal"), std::string::npos)
      << serial.output;

  for (const std::string& run :
       {"--input " + edges, "--input-snapshot " + snap + " --machines 1",
        "--input-snapshot " + snap,
        "--input-snapshot " + snap + " --serial"}) {
    const RunResult mined =
        RunCommand(BinDir() + "/qcm_mine " + run + flags);
    ASSERT_EQ(mined.exit_code, 0) << run << "\n" << mined.output;
    EXPECT_EQ(Digest(mined.output), want) << run << "\n" << mined.output;
  }

  // An out-of-range neighbor in a core vertex's row (one the peel keeps,
  // so only the every-row check sees it) fails the run instead of
  // reaching the engine. The metadata checksums still match.
  uint64_t patch_at = 0;
  uint32_t n = 0;
  {
    auto mapped = qcm::CsrSnapshot::Open(snap);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto core = qcm::KCoreMask(**mapped, 6);  // k of gamma 0.85, size 8
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    n = (*mapped)->NumVertices();
    qcm::VertexId v = 0;
    while (v < n && (*core)[v] == 0) ++v;
    ASSERT_LT(v, n);
    patch_at =
        (*mapped)->header().sections[qcm::kCsrAdjacency].file_offset +
        (*mapped)->AdjOffset(v) * sizeof(qcm::VertexId);
  }
  {
    std::fstream file(snap, std::ios::in | std::ios::out | std::ios::binary);
    const qcm::VertexId bad = n + 7;
    file.seekp(static_cast<std::streamoff>(patch_at));
    file.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  const RunResult corrupt =
      RunCommand(BinDir() + "/qcm_mine --input-snapshot " + snap + flags);
  EXPECT_EQ(corrupt.exit_code, 1) << corrupt.output;
  EXPECT_NE(corrupt.output.find("adjacency section"), std::string::npos)
      << corrupt.output;
  std::remove(edges.c_str());
  std::remove(snap.c_str());
}

// Strict flag values: each malformed value exits 2 with the usage line
// instead of running with a wrapped or truncated knob.
void ExpectRejected(const std::string& command,
                    const std::vector<std::string>& bad_flags) {
  for (const std::string& bad : bad_flags) {
    const RunResult run = RunCommand(command + " " + bad);
    EXPECT_EQ(run.exit_code, 2) << command << " " << bad << "\n"
                                << run.output;
    EXPECT_NE(run.output.find("usage: "), std::string::npos)
        << command << " " << bad << "\n" << run.output;
  }
}

const std::vector<std::string> kMalformedEngineFlags = {
    "--min-size -1",    "--tau-split -1", "--tau-split 99999999999",
    "--threads 2x",     "--gamma 0.85abc", "--cache-capacity -1",
    "--mode fast",      "--gamma"};

TEST(CliFlagsTest, QcmMineRejectsMalformedValues) {
  ExpectRejected(BinDir() + "/qcm_mine --gen-planted " + kGraphSpec,
                 kMalformedEngineFlags);
}

TEST(CliFlagsTest, QcmClusterRejectsMalformedValues) {
  ExpectRejected(BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec,
                 kMalformedEngineFlags);
  ExpectRejected(BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec,
                 {"--workers 0", "--net-linger-usec 1e3",
                  "--graph-memory-budget 64k"});
}

bool HaveTauSweep() {
  return std::filesystem::exists(BinDir() + "/tau_sweep");
}

TEST(CliFlagsTest, TauSweepRejectsMalformedValues) {
  if (!HaveTauSweep()) GTEST_SKIP() << "benches (and tau_sweep) not built";
  ExpectRejected(BinDir() + "/tau_sweep",
                 {"--threads 2x", "--net-latency-ticks -1",
                  "--net-latency 0.5abc", "--machines 99999999999",
                  "--per-decade 1.5", "--gamma 0.9", "--threads"});
}

// --help lists exactly the table's flags for each tool.
TEST(CliFlagsTest, HelpListsEveryKnobOfEachTool) {
  const std::pair<const char*, qcm::KnobTool> tools[] = {
      {"qcm_mine", qcm::kQcmMine},
      {"qcm_cluster", qcm::kQcmCluster},
      {"tau_sweep", qcm::kTauSweep}};
  for (const auto& [bin, tool] : tools) {
    if (tool == qcm::kTauSweep && !HaveTauSweep()) continue;
    const RunResult help = RunCommand(BinDir() + "/" + bin + " --help");
    EXPECT_EQ(help.exit_code, 0) << bin << "\n" << help.output;
    for (const qcm::EngineKnob& knob : qcm::EngineKnobs()) {
      if (knob.flag == nullptr) continue;
      const bool listed =
          help.output.find(std::string("  ") + knob.flag + " ") !=
          std::string::npos;
      EXPECT_EQ(listed, (knob.tools & tool) != 0)
          << bin << " " << knob.flag << "\n" << help.output;
    }
  }
}

}  // namespace
