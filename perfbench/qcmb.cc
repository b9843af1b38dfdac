// qcmb: the benchmark's helper binary (driven by perfbench/run.py).
//
//   qcmb gen WORKLOAD SEED OUT.txt
//       Writes the workload's graph as a SNAP edge list. Graphs come from
//       the in-repo generators (the paper stand-ins reuse the recipes of
//       bench/datasets.cc); SEED draws the background graph.
//
//   qcmb reference SNAPSHOT.qcsr GAMMA MIN_SIZE
//       Reference digest through the single-thread path
//       (SerialMiner + FilterMaximal). Prints "result-digest: <16 hex>" on
//       stderr, in the same form as qcm_mine and qcm_cluster.
//
//   qcmb trace --edges E.txt --snapshot S.qcsr --out T.json
//              [--mine --gamma F --min-size N --threads N --tau-split N
//               --tau-time F --spill-dir DIR [--serial]]
//       The traced run: drives the qcm_pack / qcm_mine pipeline in-process
//       through public calls (parse -> pack -> open -> materialize ->
//       ParallelMiner::Run -> FilterMaximal -> emit, optionally the serial
//       baseline) and writes one JSON artifact with a span per call, the
//       EngineReport and the top-5 straggler roots. Without --mine it only
//       parses and packs (the cluster workloads mine in qcm_cluster).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/datasets.h"
#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "gthinker/metrics.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"

namespace {

using namespace qcm;
using Clock = std::chrono::steady_clock;

int Fail(const std::string& what) {
  std::fprintf(stderr, "qcmb: %s\n", what.c_str());
  return 1;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------- gen --

// The planted communities keep the recipe's own seed and only the sparse
// background is drawn from the benchmark seed; background edges between
// community members are dropped, so the communities are identical for
// every seed. Mining cost and candidate volume are heavy-tailed in the
// community structure: redrawn per seed, gse-dense gave 15 to 102 maximal
// sets and 3-12 s of mining CPU across six seeds.
StatusOr<Graph> FixedCommunities(const PlantedConfig& recipe, uint64_t seed) {
  std::vector<std::vector<VertexId>> communities;
  auto planted = GenPlantedCommunities(recipe, &communities);
  if (!planted.ok()) return planted.status();
  auto background =
      recipe.background == BackgroundModel::kErdosRenyi
          ? GenErdosRenyi(recipe.num_vertices, recipe.background_edges, seed)
          : GenBarabasiAlbert(recipe.num_vertices, recipe.ba_attach, seed);
  if (!background.ok()) return background.status();

  std::vector<char> member(recipe.num_vertices, 0);
  for (const std::vector<VertexId>& c : communities) {
    for (VertexId v : c) member[v] = 1;
  }
  std::vector<Edge> edges;
  for (VertexId u = 0; u < background->NumVertices(); ++u) {
    for (VertexId v : background->Neighbors(u)) {
      if (u < v && !(member[u] && member[v])) edges.emplace_back(u, v);
    }
  }
  for (const std::vector<VertexId>& members : communities) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (planted->HasEdge(members[i], members[j])) {
          edges.emplace_back(members[i], members[j]);
        }
      }
    }
  }
  return Graph::FromEdges(recipe.num_vertices, std::move(edges));
}

StatusOr<Graph> Workload(const std::string& workload, uint64_t seed) {
  const char* dataset = workload == "gse-dense"        ? "CX_GSE1730-like"
                        : workload == "youtube-social" ? "YouTube-like"
                                                       : nullptr;
  if (dataset != nullptr) {
    const bench::DatasetSpec* spec = bench::FindDataset(dataset);
    if (spec == nullptr) {
      return Status::NotFound(std::string("dataset ") + dataset);
    }
    return FixedCommunities(spec->recipe, seed);
  }
  if (workload == "cluster-ooc") {
    // Large sparse ER background (average degree ~12) whose adjacency is
    // far above the rank budget, plus a few planted communities.
    return FixedCommunities({.num_vertices = 300000,
                             .background_edges = 1800000,
                             .background = BackgroundModel::kErdosRenyi,
                             .num_communities = 8,
                             .community_min = 18,
                             .community_max = 26,
                             .intra_density = 0.92,
                             .overlap_fraction = 0.3,
                             .seed = 1},
                            seed);
  }
  return Status::InvalidArgument("unknown workload " + workload);
}

int Gen(int argc, char** argv) {
  if (argc != 5) return Fail("usage: qcmb gen WORKLOAD SEED OUT.txt");
  auto graph = Workload(argv[2], std::strtoull(argv[3], nullptr, 10));
  if (!graph.ok()) return Fail(graph.status().ToString());
  Status saved = SaveEdgeList(*graph, argv[4]);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("%u %" PRIu64 "\n", graph->NumVertices(),
              static_cast<uint64_t>(graph->NumEdges()));
  return 0;
}

// ---------------------------------------------------------- reference --

StatusOr<Graph> LoadSnapshot(const std::string& path) {
  auto snap = CsrSnapshot::Open(path);
  if (!snap.ok()) return snap.status();
  return (*snap)->ToGraph();
}

int Reference(int argc, char** argv) {
  if (argc != 5) {
    return Fail("usage: qcmb reference SNAPSHOT GAMMA MIN_SIZE");
  }
  auto graph = LoadSnapshot(argv[2]);
  if (!graph.ok()) return Fail(graph.status().ToString());
  MiningOptions opts;
  opts.gamma = std::atof(argv[3]);
  opts.min_size = static_cast<uint32_t>(std::atoi(argv[4]));
  const auto start = Clock::now();
  VectorSink sink;
  auto report = SerialMiner(opts).Run(*graph, &sink);
  if (!report.ok()) return Fail(report.status().ToString());
  std::vector<VertexSet> maximal = FilterMaximal(std::move(sink.results()));
  CanonicalizeResults(&maximal);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::fprintf(stderr, "serial reference: %zu maximal in %.3f s\n",
               maximal.size(), seconds);
  std::fprintf(stderr, "result-digest: %s\n",
               Hex(ResultSetDigest(maximal)).c_str());
  return 0;
}

// -------------------------------------------------------------- trace --

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
};

/// In-memory span recorder; spans are written out once, at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name, int parent) {
    spans_.push_back({name, Now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end = Now(); }

  /// Runs `fn` inside a span named `name` under `parent`.
  template <typename Fn>
  auto Time(const std::string& name, int parent, Fn&& fn) {
    const int id = Begin(name, parent);
    auto out = fn();
    End(id);
    return out;
  }

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct TraceArgs {
  std::string edges;
  std::string snapshot;
  std::string out;
  std::string spill_dir;
  bool mine = false;
  bool serial = false;
  double gamma = 0.9;
  uint32_t min_size = 10;
  int threads = 4;
  uint32_t tau_split = 100;
  double tau_time = 0.01;
};

bool ParseTraceArgs(int argc, char** argv, TraceArgs* a) {
  for (int i = 2; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--mine") {
      a->mine = true;
      continue;
    }
    if (f == "--serial") {
      a->serial = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (f == "--edges") {
      a->edges = v;
    } else if (f == "--snapshot") {
      a->snapshot = v;
    } else if (f == "--out") {
      a->out = v;
    } else if (f == "--spill-dir") {
      a->spill_dir = v;
    } else if (f == "--gamma") {
      a->gamma = std::atof(v);
    } else if (f == "--min-size") {
      a->min_size = static_cast<uint32_t>(std::atoi(v));
    } else if (f == "--threads") {
      a->threads = std::atoi(v);
    } else if (f == "--tau-split") {
      a->tau_split = static_cast<uint32_t>(std::atoi(v));
    } else if (f == "--tau-time") {
      a->tau_time = std::atof(v);
    } else {
      return false;
    }
  }
  return !a->edges.empty() && !a->snapshot.empty() && !a->out.empty();
}

int Trace(int argc, char** argv) {
  TraceArgs args;
  if (!ParseTraceArgs(argc, argv, &args)) {
    return Fail(
        "usage: qcmb trace --edges E --snapshot S --out T [--mine "
        "--gamma F --min-size N --threads N --tau-split N --tau-time F "
        "--spill-dir D [--serial]]");
  }
  Tracer tr;
  const int root = tr.Begin("qcmb.trace", -1);

  // graph: the qcm_pack half (edge list -> .qcsr).
  auto loaded =
      tr.Time("graph.parse", root, [&] { return LoadEdgeList(args.edges); });
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  Status packed = tr.Time("graph.pack", root, [&] {
    return WriteCsrSnapshot(loaded->graph, loaded->original_ids,
                            args.snapshot, CsrWriteOptions{});
  });
  if (!packed.ok()) return Fail(packed.ToString());
  tr.Time("graph.drop_parsed", root, [&] {
    loaded = LoadedGraph{};
    return 0;
  });

  std::string body;
  if (args.mine) {
    // graph: the qcm_mine --input-snapshot load.
    auto snap = tr.Time("graph.open", root,
                        [&] { return CsrSnapshot::Open(args.snapshot); });
    if (!snap.ok()) return Fail(snap.status().ToString());
    auto graph =
        tr.Time("graph.to_graph", root, [&] { return (*snap)->ToGraph(); });
    if (!graph.ok()) return Fail(graph.status().ToString());

    EngineConfig config;
    config.mining.gamma = args.gamma;
    config.mining.min_size = args.min_size;
    config.num_machines = 1;
    config.threads_per_machine = args.threads;
    config.tau_split = args.tau_split;
    config.tau_time = args.tau_time;
    config.spill_dir = args.spill_dir;
    config.record_task_log = true;
    auto mined = tr.Time("mining.run", root,
                         [&] { return ParallelMiner(config).Run(*graph); });
    if (!mined.ok()) return Fail(mined.status().ToString());
    const EngineReport& report = mined->report;

    // quick: the filter qcm_mine applies to the raw candidates, then the
    // canonical emit (digest on stderr, no output file).
    auto maximal = tr.Time("quick.filter", root,
                           [&] { return FilterMaximal(report.results); });
    auto digest = tr.Time("quick.emit", root, [&] {
      return EmitCanonicalResults(&maximal, std::string());
    });
    if (!digest.ok()) return Fail(digest.status().ToString());

    std::string serial_json;
    if (args.serial) {
      const int s = tr.Begin("quick.serial", root);
      VectorSink sink;
      auto sr = SerialMiner(config.mining).Run(*graph, &sink);
      tr.End(s);
      if (!sr.ok()) return Fail(sr.status().ToString());
      std::vector<VertexSet> serial_max = tr.Time(
          "quick.serial_filter", root,
          [&] { return FilterMaximal(std::move(sink.results())); });
      CanonicalizeResults(&serial_max);
      serial_json = ",\n  \"serial_seconds\": " +
                    std::to_string(tr.spans()[s].end - tr.spans()[s].start) +
                    ",\n  \"serial_digest\": \"" +
                    Hex(ResultSetDigest(serial_max)) + "\"";
    }

    // Top-5 straggler roots by summed mining seconds.
    std::vector<RootTaskAgg> roots = report.root_tasks;
    double root_total = 0;
    for (const RootTaskAgg& r : roots) root_total += r.mining_seconds;
    const size_t top = std::min<size_t>(5, roots.size());
    std::partial_sort(roots.begin(), roots.begin() + top, roots.end(),
                      [](const RootTaskAgg& a, const RootTaskAgg& b) {
                        return a.mining_seconds > b.mining_seconds;
                      });
    std::string top_json;
    for (size_t i = 0; i < top; ++i) {
      top_json += std::string(i ? ", " : "") + "{\"root\": " +
                  std::to_string(roots[i].root) + ", \"ego_vertices\": " +
                  std::to_string(roots[i].subgraph_vertices) +
                  ", \"ego_edges\": " +
                  std::to_string(roots[i].subgraph_edges) +
                  ", \"tasks\": " + std::to_string(roots[i].tasks) +
                  ", \"mining_seconds\": " +
                  std::to_string(roots[i].mining_seconds) + "}";
    }
    body = ",\n  \"threads\": " + std::to_string(args.threads) +
           ",\n  \"raw_candidates\": " +
           std::to_string(mined->raw_candidates) +
           ",\n  \"maximal\": " + std::to_string(maximal.size()) +
           ",\n  \"digest\": \"" + Hex(*digest) + "\"" +
           ",\n  \"root_mining_seconds\": " + std::to_string(root_total) +
           ",\n  \"top_roots\": [" + top_json + "]" + serial_json +
           ",\n  \"report\": " + EngineReportJson(report);
  }
  tr.End(root);

  std::string json = "{\n  \"spans\": [";
  for (size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    json += std::string(i ? ",\n    " : "\n    ") + "{\"name\": \"" +
            s.name + "\", \"start\": " + std::to_string(s.start) +
            ", \"end\": " + std::to_string(s.end) +
            ", \"parent\": " + std::to_string(s.parent) + "}";
  }
  json += "\n  ]" + body + "\n}\n";
  FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) return Fail("cannot write " + args.out);
  std::fputs(json.c_str(), f);
  return std::fclose(f) == 0 ? 0 : Fail("cannot write " + args.out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen") return Gen(argc, argv);
  if (cmd == "reference") return Reference(argc, argv);
  if (cmd == "trace") return Trace(argc, argv);
  return Fail("usage: qcmb gen|reference|trace ...");
}
