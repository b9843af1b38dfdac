// qcm_mine: command-line maximal quasi-clique miner.
//
// Load a SNAP-format edge list, map a qcm_pack .qcsr snapshot, or
// generate a synthetic graph; mine all maximal gamma-quasi-cliques
// serially or on the simulated G-thinker cluster, and write results /
// statistics.
//
// `qcm_mine --help` lists every flag with its default. The engine flags
// come from the EngineConfig knob table (gthinker/engine_config.h), which
// qcm_cluster and tau_sweep share.
//
// The stderr summary always includes "result-digest: <16 hex>" -- the
// canonical-order FNV digest of the result set, comparable across serial,
// simulated and multi-process (qcm_cluster) runs.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace qcm;

struct Args {
  std::string input;
  std::string input_snapshot;
  std::string gen_planted;
  uint64_t seed = 1;
  bool serial = false;
  std::string output;
  bool no_filter = false;
  bool stats = false;
  std::string stats_json;
  std::string log_level;
  EngineConfig config;
};

constexpr char kSynopsis[] =
    "qcm_mine (--input PATH | --input-snapshot PATH | --gen-planted SPEC) "
    "[flags]";

std::vector<Flag> Flags(Args* args) {
  std::vector<Flag> flags = {
      {"--input", "PATH", "SNAP edge list ('#' comments, \"u v\" lines)",
       &args->input},
      {"--input-snapshot", "PATH", "qcm_pack .qcsr snapshot",
       &args->input_snapshot},
      {"--gen-planted", "SPEC",
       "planted communities: n=,communities=,size=LO..HI,density=,"
       "overlap=,edges=",
       &args->gen_planted},
      {"--seed", "N", "generator seed", &args->seed},
      {"--serial", nullptr, "single-thread reference miner", &args->serial},
      {"--output", "PATH", "write one result per line, in canonical order",
       &args->output},
      {"--no-filter", nullptr,
       "report the raw candidates, not the maximal sets", &args->no_filter},
      {"--stats", nullptr, "print engine and pruning statistics",
       &args->stats},
      {"--stats-json", "PATH", "write the EngineReport as JSON (- = stdout)",
       &args->stats_json},
      {"--log-level", "L", "debug|info|warning|error|off (or QCM_LOG_LEVEL)",
       &args->log_level},
  };
  const std::vector<Flag> engine = EngineFlags(kQcmMine, &args->config);
  flags.insert(flags.end(), engine.begin(), engine.end());
  return flags;
}

/// The --stats line of the global k-core peel (paper §4 T1); qcm_cluster
/// prints the same format.
void PrintKCore(uint64_t alive, uint32_t num_vertices, uint32_t k,
                double seconds) {
  std::fprintf(stderr, "k-core: %llu of %u vertices (k=%u), %.3f s\n",
               static_cast<unsigned long long>(alive), num_vertices, k,
               seconds);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.config.num_machines = 2;
  if (auto exit_code = ParseFlags(kSynopsis, Flags(&args), argc, argv)) {
    return *exit_code;
  }
  const int sources = (args.input.empty() ? 0 : 1) +
                      (args.input_snapshot.empty() ? 0 : 1) +
                      (args.gen_planted.empty() ? 0 : 1);
  if (sources != 1) {
    return UsageError(kSynopsis,
                      "exactly one of --input / --input-snapshot / "
                      "--gen-planted is required");
  }
  if (args.serial && !args.stats_json.empty()) {
    return UsageError(kSynopsis,
                      "--stats-json requires the engine (not --serial)");
  }
  if (Status valid = args.config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return 2;
  }
  if (!args.log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(args.log_level, &level)) {
      std::fprintf(stderr, "unknown --log-level %s\n",
                   args.log_level.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  const std::string& trace_out = args.config.trace_out;
  if (!trace_out.empty()) {
    trace::Start(static_cast<size_t>(args.config.trace_buffer_kb));
    trace::SetThreadName("main");
  }

  // ---- Load or generate the graph. ----
  // The engine serves a mapped .qcsr: the --input-snapshot file itself,
  // or an in-memory pack of the loaded or generated graph. Only --serial
  // mines a heap Graph.
  std::shared_ptr<CsrSnapshot> snapshot;
  Graph graph;
  if (!args.input.empty()) {
    auto loaded = LoadEdgeList(args.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded->graph);
  } else if (!args.input_snapshot.empty()) {
    auto snap = CsrSnapshot::Open(args.input_snapshot);
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    snapshot = std::move(snap).value();
    if (args.serial) {
      auto materialized = snapshot->ToGraph();
      if (!materialized.ok()) {
        std::fprintf(stderr, "snapshot load failed: %s\n",
                     materialized.status().ToString().c_str());
        return 1;
      }
      graph = std::move(materialized).value();
      snapshot.reset();
    }
  } else {
    auto spec = ParsePlantedSpec(args.gen_planted, args.seed);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    auto generated = GenPlantedCommunities(spec.value());
    if (!generated.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
  }
  if (!args.serial && snapshot == nullptr) {
    auto packed = CsrSnapshot::FromGraph(graph);
    if (!packed.ok()) {
      std::fprintf(stderr, "snapshot pack failed: %s\n",
                   packed.status().ToString().c_str());
      return 1;
    }
    snapshot = std::move(packed).value();
    graph = Graph();  // the engine holds no second, heap copy
  }
  const uint32_t num_vertices =
      snapshot != nullptr ? snapshot->NumVertices() : graph.NumVertices();
  const uint64_t num_edges =
      snapshot != nullptr ? snapshot->NumEdges() : graph.NumEdges();
  std::fprintf(stderr, "graph: %u vertices, %lu edges\n", num_vertices,
               static_cast<unsigned long>(num_edges));

  const MiningOptions& mining = args.config.mining;

  // The job's one maximality pass: FilterMaximal here for --serial,
  // inside ParallelMiner::Run otherwise. --no-filter keeps the raw
  // candidates.
  std::vector<VertexSet> results;
  size_t raw_candidates = 0;
  size_t duplicates = 0;
  double filter_seconds = 0;
  std::string stats_json;
  double seconds = 0;
  if (args.serial) {
    VectorSink sink;
    SerialMiner miner(mining);
    auto report = miner.Run(graph, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    raw_candidates = sink.results().size();
    if (args.no_filter) {
      results = std::move(sink.results());
    } else {
      WallTimer filter_timer;
      results = FilterMaximal(sink.results(), &duplicates);
      filter_seconds = filter_timer.Seconds();
    }
    seconds = report->total_seconds;
    if (args.stats) {
      PrintKCore(report->kcore_size, num_vertices,
                 mining.MinDegreeK(), report->kcore_seconds);
      std::fprintf(stderr,
                   "serial: %lu roots, %lu search nodes, %lu candidates, "
                   "build %.3f s, mine %.3f s\n",
                   static_cast<unsigned long>(report->roots_processed),
                   static_cast<unsigned long>(report->stats.nodes_explored),
                   static_cast<unsigned long>(report->stats.emitted),
                   report->build_seconds, report->mine_seconds);
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(report->stats.dense_tasks),
          static_cast<unsigned long>(report->stats.sparse_tasks),
          static_cast<unsigned long>(report->stats.bitset_words_touched));
    }
  } else {
    ParallelMiner miner(args.config);
    auto result = miner.Run(std::move(snapshot));
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    seconds = result->report.wall_seconds;
    if (!args.stats_json.empty()) {
      stats_json = EngineReportJson(result->report);
    }
    raw_candidates = result->raw_candidates;
    duplicates = result->duplicates;
    filter_seconds = result->filter_seconds;
    results = args.no_filter ? std::move(result->report.results)
                             : std::move(result->maximal);
    if (args.stats) {
      PrintKCore(result->kcore_vertices, num_vertices,
                 mining.MinDegreeK(), result->kcore_seconds);
      const EngineReport& r = result->report;
      std::fprintf(stderr,
                   "engine: %lu tasks (%lu big/%lu small), spill %lu "
                   "tasks/%s, steals %lu, cache %lu/%lu (%.1f%% hit), busy "
                   "imbalance %.2f, peak RSS %s\n",
                   static_cast<unsigned long>(r.counters.tasks_completed),
                   static_cast<unsigned long>(r.counters.big_tasks),
                   static_cast<unsigned long>(r.counters.small_tasks),
                   static_cast<unsigned long>(r.counters.spilled_tasks),
                   HumanBytes(r.counters.spill_bytes_written).c_str(),
                   static_cast<unsigned long>(r.counters.stolen_tasks),
                   static_cast<unsigned long>(r.counters.cache_hits),
                   static_cast<unsigned long>(r.counters.cache_misses),
                   100.0 * r.counters.CacheHitRatio(), r.BusyImbalance(),
                   HumanBytes(r.peak_rss_bytes).c_str());
      std::fprintf(stderr,
                   "pulls: %lu suspensions, %lu rounds, %lu batches, %lu "
                   "vertices/%s pulled, %lu pin hits, fallback %s\n",
                   static_cast<unsigned long>(r.counters.task_suspensions),
                   static_cast<unsigned long>(r.counters.pull_rounds),
                   static_cast<unsigned long>(r.counters.pull_batches),
                   static_cast<unsigned long>(r.counters.pulled_vertices),
                   HumanBytes(r.counters.pull_bytes).c_str(),
                   static_cast<unsigned long>(r.counters.pin_hits),
                   HumanBytes(r.counters.remote_bytes).c_str());
      std::fprintf(
          stderr,
          "prefetch: %lu tasks staged, %lu vertices issued, %lu pins at "
          "first schedule, %lu first-round pin hits\n",
          static_cast<unsigned long>(r.counters.prefetch_tasks),
          static_cast<unsigned long>(r.counters.prefetch_issued),
          static_cast<unsigned long>(r.counters.first_schedule_pins),
          static_cast<unsigned long>(r.counters.prefetch_hits));
      const int req = static_cast<int>(MessageType::kPullRequest);
      const int resp = static_cast<int>(MessageType::kPullResponse);
      const int steal = static_cast<int>(MessageType::kStealBatch);
      std::fprintf(
          stderr,
          "comm: %lu msgs (%lu req/%lu resp/%lu steal), %s sent, "
          "mean delivery %.3f ms, overlap %.1f%%, peak in-flight %s, "
          "peak depth %lu, steal master %.3f s idle/%.3f s active\n",
          static_cast<unsigned long>(r.counters.MessagesSent()),
          static_cast<unsigned long>(r.counters.msg_sent[req]),
          static_cast<unsigned long>(r.counters.msg_sent[resp]),
          static_cast<unsigned long>(r.counters.msg_sent[steal]),
          HumanBytes(r.counters.MessageBytes()).c_str(),
          1e3 * r.counters.MeanDeliveryLatencySeconds(),
          100.0 * r.counters.MessageOverlapRatio(),
          HumanBytes(r.counters.msg_inflight_bytes_peak).c_str(),
          static_cast<unsigned long>(r.counters.msg_queue_depth_peak),
          1e-6 * static_cast<double>(r.counters.steal_idle_usec),
          1e-6 * static_cast<double>(r.counters.steal_active_usec));
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(r.mining.dense_tasks),
          static_cast<unsigned long>(r.mining.sparse_tasks),
          static_cast<unsigned long>(r.mining.bitset_words_touched));
    }
  }

  std::fprintf(stderr, "%zu %s quasi-cliques in %.3f s\n", results.size(),
               args.no_filter ? "candidate" : "maximal", seconds);
  // Canonical order + digest + output file, shared with qcm_cluster so
  // the two tools' bytes are comparable by construction.
  CanonicalizeStats canon;
  auto digest = EmitCanonicalResults(&results, args.output, &canon);
  if (!digest.ok()) {
    std::fprintf(stderr, "%s\n", digest.status().ToString().c_str());
    return 1;
  }
  if (args.stats) {
    if (!args.no_filter) {
      std::fprintf(stderr,
                   "filter: %zu raw -> %zu maximal, %zu duplicates, %.3f s\n",
                   raw_candidates, results.size(), duplicates,
                   filter_seconds);
    }
    std::fprintf(stderr,
                 "canonicalize: %lu sets already sorted, %lu re-sorted, "
                 "vector sort %s\n",
                 static_cast<unsigned long>(canon.sets_already_sorted),
                 static_cast<unsigned long>(canon.sets_resorted),
                 canon.vector_sort_skipped ? "skipped" : "needed");
  }

  if (!args.stats_json.empty()) {
    FILE* f = args.stats_json == "-" ? stdout
                                     : std::fopen(args.stats_json.c_str(),
                                                  "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   args.stats_json.c_str());
      return 1;
    }
    std::fputs(stats_json.c_str(), f);
    if (f != stdout) std::fclose(f);
  }

  // Single-process run: the whole timeline is local, so merge straight
  // from the in-memory rings (no fragment files).
  if (!trace_out.empty()) {
    std::vector<std::string> events;
    const std::string drained = trace::DrainJsonLines(/*pid=*/0);
    size_t start = 0;
    while (start < drained.size()) {
      size_t end = drained.find('\n', start);
      if (end == std::string::npos) end = drained.size();
      if (end > start) events.push_back(drained.substr(start, end - start));
      start = end + 1;
    }
    Status ts = trace::MergeFragments({}, events, trace_out);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   ts.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu events, %lu dropped)\n",
                 trace_out.c_str(), events.size(),
                 static_cast<unsigned long>(trace::DroppedRecords()));
  }
  return 0;
}
