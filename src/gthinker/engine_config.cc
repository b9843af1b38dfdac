#include "gthinker/engine_config.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "graph/csr_snapshot.h"
#include "net/wire.h"
#include "util/serde.h"

namespace qcm {

const char* DecomposeModeName(DecomposeMode mode) {
  switch (mode) {
    case DecomposeMode::kNone:
      return "none";
    case DecomposeMode::kSizeThreshold:
      return "size-threshold";
    case DecomposeMode::kTimeDelayed:
      return "time-delayed";
  }
  return "?";
}

// Every config rejection names the exact check that fired: a bad flag
// should cost one glance at engine_config.cc, not a bisection of
// defaults that silently papered over it.
#define QCM_CONFIG_ERROR(msg)                                         \
  Status::InvalidArgument(std::string("engine_config.cc:") +          \
                          std::to_string(__LINE__) + ": " + (msg))

Status EngineConfig::Validate() const {
  if (num_machines < 1) {
    return QCM_CONFIG_ERROR("num_machines must be >= 1");
  }
  if (threads_per_machine < 1) {
    return QCM_CONFIG_ERROR("threads_per_machine must be >= 1");
  }
  if (batch_size < 1) {
    return QCM_CONFIG_ERROR("batch_size must be >= 1");
  }
  if (local_queue_capacity < batch_size) {
    return QCM_CONFIG_ERROR("local_queue_capacity must be >= batch_size");
  }
  if (global_queue_capacity < batch_size) {
    return QCM_CONFIG_ERROR("global_queue_capacity must be >= batch_size");
  }
  if (mode == DecomposeMode::kTimeDelayed && tau_time < 0) {
    return QCM_CONFIG_ERROR("tau_time must be >= 0");
  }
  if (steal_period_sec <= 0) {
    return QCM_CONFIG_ERROR("steal_period_sec must be > 0");
  }
  if (max_pull_batch < 1) {
    return QCM_CONFIG_ERROR("max_pull_batch must be >= 1");
  }
  if (net_latency_sec < 0) {
    return QCM_CONFIG_ERROR("net_latency_sec must be >= 0 (negative "
                            "latency is not a thing)");
  }
  if (net_coalesce_bytes < 0) {
    return QCM_CONFIG_ERROR("net_coalesce_bytes must be >= 0");
  }
  if (net_linger_usec < 0) {
    return QCM_CONFIG_ERROR("net_linger_usec must be >= 0 (a negative "
                            "linger is not a thing)");
  }
  if (net_coalesce_bytes >
      static_cast<int64_t>(kMaxFramePayload)) {
    return QCM_CONFIG_ERROR(
        "net_coalesce_bytes exceeds the wire frame cap (" +
        std::to_string(kMaxFramePayload) +
        "); no single buffer may out-size the largest legal frame");
  }
  if (net_linger_usec > 0 && net_coalesce_bytes == 0) {
    return QCM_CONFIG_ERROR(
        "contradictory: net_linger_usec is set but net_coalesce_bytes is "
        "0 (a linger bound without a coalescing buffer bounds nothing; "
        "set both or neither)");
  }
  if (net_coalesce_bytes > 0 && net_linger_usec == 0) {
    return QCM_CONFIG_ERROR(
        "contradictory: net_coalesce_bytes is set but net_linger_usec is "
        "0 (an unbounded linger would park a lone frame forever; set "
        "both or neither)");
  }
  if (spawn_prefetch && prefetch_limit == 0) {
    return QCM_CONFIG_ERROR(
        "contradictory: spawn_prefetch is on but prefetch_limit is 0 (a "
        "zero-depth prefetch pipeline admits nothing; raise the limit or "
        "disable prefetch)");
  }
  if (steal_rtt_reference_sec <= 0) {
    return QCM_CONFIG_ERROR("steal_rtt_reference_sec must be > 0");
  }
  if (steal_max_batch_factor < 1) {
    return QCM_CONFIG_ERROR(
        "contradictory: steal_max_batch_factor 0 would cap every steal "
        "batch at nothing; use 1 to disable latency scaling");
  }
  if (!checkpoint_dir.empty() && checkpoint_interval_sec <= 0) {
    return QCM_CONFIG_ERROR(
        "contradictory: checkpoint_dir is set but checkpoint_interval_sec "
        "is not > 0 (a checkpoint that never flushes recovers nothing)");
  }
  if (heartbeat_usec < 0) {
    return QCM_CONFIG_ERROR("heartbeat_usec must be >= 0");
  }
  if (mining.dense_threshold < 0) {
    return QCM_CONFIG_ERROR(
        "mining.dense_threshold must be >= 0 (0 disables the dense bitset "
        "kernels; a positive value is the max subgraph size that gets "
        "bitmap rows)");
  }
  if (trace_buffer_kb < 1) {
    return QCM_CONFIG_ERROR(
        "trace_buffer_kb must be >= 1 (a zero-capacity trace ring would "
        "drop every record; disable tracing by clearing trace_out "
        "instead)");
  }
  if (stats_interval_ms < 0) {
    return QCM_CONFIG_ERROR(
        "stats_interval_ms must be >= 0 (0 disables the telemetry "
        "sampler)");
  }
  if (graph_page_size <= 0) {
    return QCM_CONFIG_ERROR("graph_page_size must be > 0");
  }
  if (graph_page_size < static_cast<int64_t>(kCsrMinPageSize) ||
      (graph_page_size & (graph_page_size - 1)) != 0) {
    return QCM_CONFIG_ERROR(
        "graph_page_size must be a power of two >= " +
        std::to_string(kCsrMinPageSize) + ", got " +
        std::to_string(graph_page_size));
  }
  if (graph_memory_budget < 0) {
    return QCM_CONFIG_ERROR("graph_memory_budget must be >= 0 (0 = "
                            "unbounded resident adjacency)");
  }
  if (graph_memory_budget > 0 && graph_memory_budget < graph_page_size) {
    return QCM_CONFIG_ERROR(
        "graph_memory_budget " + std::to_string(graph_memory_budget) +
        " is smaller than one " + std::to_string(graph_page_size) +
        "-byte page (the paged store cannot hold even a single frame)");
  }
  if (graph_memory_budget > 0 && graph_snapshot.empty()) {
    return QCM_CONFIG_ERROR(
        "contradictory: graph_memory_budget is set but graph_snapshot is "
        "empty (a resident-adjacency budget only applies to a mmap'd "
        ".qcsr snapshot; pack one with qcm_pack or drop the budget)");
  }
  return mining.Validate();
}

#undef QCM_CONFIG_ERROR

static_assert(std::is_same_v<size_t, uint64_t>,
              "size_t knobs are shipped and parsed as uint64_t");

constexpr unsigned kMineAndCluster = kQcmMine | kQcmCluster;

// One row per field: its path, flag, value placeholder, tools and help.
#define QCM_KNOB(field, flag, metavar, tools, help)                    \
  EngineKnob {                                                         \
    #field, flag, metavar, tools, help,                                \
        [](EngineConfig* c) -> OptionRef { return &c->field; }         \
  }

const std::vector<EngineKnob>& EngineKnobs() {
  static const std::vector<EngineKnob> kKnobs = {
      QCM_KNOB(num_machines, "--machines", "N", kQcmMine | kTauSweep,
               "simulated machines"),
      QCM_KNOB(threads_per_machine, "--threads", "N",
               kMineAndCluster | kTauSweep, "mining threads per machine"),
      QCM_KNOB(tau_split, "--tau-split", "N", kMineAndCluster,
               "tau_split: |ext(S)| above which a task is big"),
      QCM_KNOB(tau_time, "--tau-time", "F", kMineAndCluster,
               "tau_time: seconds of mining before time-delayed splitting"),
      QCM_KNOB(mode, "--mode", "none|size|time", kMineAndCluster,
               "task decomposition: none, size threshold or time-delayed"),
      QCM_KNOB(local_queue_capacity, nullptr, nullptr, 0,
               "tasks held in memory per thread-local queue"),
      QCM_KNOB(global_queue_capacity, nullptr, nullptr, 0,
               "tasks held in memory per machine's global queue"),
      QCM_KNOB(batch_size, nullptr, nullptr, 0,
               "batch size C for spilling, refilling, spawning, stealing"),
      QCM_KNOB(spill_dir, nullptr, nullptr, 0,
               "spill file directory; empty = a removed temp dir"),
      QCM_KNOB(steal_period_sec, nullptr, nullptr, 0,
               "load-balancing period in seconds"),
      QCM_KNOB(enable_stealing, nullptr, nullptr, 0,
               "balance big tasks across machines"),
      QCM_KNOB(vertex_cache_capacity, "--cache-capacity", "N",
               kMineAndCluster,
               "per-machine vertex-cache entries; 0 disables the cache"),
      QCM_KNOB(max_pull_batch, "--pull-batch", "N", kMineAndCluster,
               "max vertex ids per batched pull message"),
      QCM_KNOB(net_latency_ticks, "--net-latency-ticks", "N",
               kMineAndCluster | kTauSweep,
               "delivery delay of every message, in service ticks"),
      QCM_KNOB(net_latency_sec, "--net-latency", "F",
               kMineAndCluster | kTauSweep,
               "modeled delivery delay of every message, in seconds"),
      QCM_KNOB(net_coalesce_bytes, "--net-coalesce-bytes", "N", kQcmCluster,
               "per-peer send buffer bytes; needs --net-linger-usec"),
      QCM_KNOB(net_linger_usec, "--net-linger-usec", "N", kQcmCluster,
               "max wait of a parked frame; needs --net-coalesce-bytes"),
      QCM_KNOB(spawn_prefetch, "--prefetch", nullptr, kMineAndCluster,
               "pull a spawned task's first-round vertices early"),
      QCM_KNOB(prefetch_limit, "--prefetch-limit", "N", kMineAndCluster,
               "max tasks in the prefetch stage per machine"),
      QCM_KNOB(steal_rtt_reference_sec, "--steal-rtt-ref", "F",
               kMineAndCluster,
               "link RTT in seconds worth one extra steal batch per move"),
      QCM_KNOB(steal_max_batch_factor, "--steal-batch-factor", "N",
               kMineAndCluster,
               "a steal move carries at most batch size C x N tasks"),
      QCM_KNOB(record_task_log, nullptr, nullptr, 0,
               "record per-root task aggregates for the figure benches"),
      QCM_KNOB(checkpoint_dir, "--checkpoint-dir", "DIR", kQcmCluster,
               "root of the per-rank progress logs (default: <log-dir>/ckpt)"),
      QCM_KNOB(checkpoint_interval_sec, "--checkpoint-interval", "F",
               kQcmCluster, "seconds between progress-log flushes"),
      QCM_KNOB(heartbeat_usec, "--heartbeat-usec", "N", kQcmCluster,
               "worker liveness beacon period in us; 0 = none"),
      QCM_KNOB(mining.gamma, "--gamma", "F", kMineAndCluster,
               "minimum degree ratio gamma, in [0.5, 1]"),
      QCM_KNOB(mining.min_size, "--min-size", "N", kMineAndCluster,
               "minimum result size tau_size"),
      QCM_KNOB(mining.use_cover_vertex, nullptr, nullptr, 0,
               "(P7) cover-vertex pruning"),
      QCM_KNOB(mining.use_critical_vertex, nullptr, nullptr, 0,
               "(P6) critical-vertex expansion"),
      QCM_KNOB(mining.use_upper_bound, nullptr, nullptr, 0,
               "(P4) upper-bound rules"),
      QCM_KNOB(mining.use_lower_bound, nullptr, nullptr, 0,
               "(P5) lower-bound rules"),
      QCM_KNOB(mining.use_degree_pruning, nullptr, nullptr, 0,
               "(P3) degree-based rules"),
      QCM_KNOB(mining.use_lookahead, nullptr, nullptr, 0,
               "lookahead: emit S + ext(S) when it qualifies"),
      QCM_KNOB(mining.quick_compat, nullptr, nullptr, 0,
               "reproduce the original Quick's missed checks"),
      QCM_KNOB(mining.dense_threshold, "--dense-threshold", "N",
               kMineAndCluster,
               "subgraphs of <= N vertices use bitset kernels; 0 = never"),
      QCM_KNOB(trace_out, "--trace-out", "PATH", kMineAndCluster,
               "write a Chrome trace-event timeline of the run"),
      QCM_KNOB(trace_buffer_kb, "--trace-buffer-kb", "N", kMineAndCluster,
               "per-thread trace ring size in KiB"),
      QCM_KNOB(stats_interval_ms, "--stats-interval-ms", "N",
               kMineAndCluster, "telemetry sampling period in ms; 0 = off"),
      QCM_KNOB(graph_snapshot, "--snapshot", "PATH", kQcmCluster,
               "ship this qcm_pack .qcsr instead of packing a source"),
      QCM_KNOB(graph_page_size, "--graph-page-size", "BYTES", kQcmCluster,
               "page size of the packed snapshot; power of two >= 4096"),
      QCM_KNOB(graph_memory_budget, "--graph-memory-budget", "BYTES",
               kQcmCluster, "per-rank resident adjacency bytes; 0 = all"),
  };
  return kKnobs;
}

#undef QCM_KNOB

namespace {

void Put(bool v, Encoder* enc) { enc->PutU8(v ? 1 : 0); }
void Put(int v, Encoder* enc) { enc->PutU32(static_cast<uint32_t>(v)); }
void Put(uint32_t v, Encoder* enc) { enc->PutU32(v); }
void Put(uint64_t v, Encoder* enc) { enc->PutU64(v); }
void Put(int64_t v, Encoder* enc) { enc->PutI64(v); }
void Put(double v, Encoder* enc) { enc->PutDouble(v); }
void Put(const std::string& v, Encoder* enc) { enc->PutString(v); }
void Put(DecomposeMode v, Encoder* enc) {
  enc->PutU8(static_cast<uint8_t>(v));
}

Status Get(Decoder* dec, bool* v) {
  uint8_t u8 = 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  *v = u8 != 0;
  return Status::OK();
}
Status Get(Decoder* dec, int* v) {
  uint32_t u32 = 0;
  QCM_RETURN_IF_ERROR(dec->GetU32(&u32));
  *v = static_cast<int>(u32);
  return Status::OK();
}
Status Get(Decoder* dec, uint32_t* v) { return dec->GetU32(v); }
Status Get(Decoder* dec, uint64_t* v) { return dec->GetU64(v); }
Status Get(Decoder* dec, int64_t* v) { return dec->GetI64(v); }
Status Get(Decoder* dec, double* v) { return dec->GetDouble(v); }
Status Get(Decoder* dec, std::string* v) { return dec->GetString(v); }
Status Get(Decoder* dec, DecomposeMode* v) {
  uint8_t u8 = 0;
  QCM_RETURN_IF_ERROR(dec->GetU8(&u8));
  if (u8 > static_cast<uint8_t>(DecomposeMode::kTimeDelayed)) {
    return Status::Corruption("bad decompose mode tag");
  }
  *v = static_cast<DecomposeMode>(u8);
  return Status::OK();
}

// The --mode spellings, indexed by DecomposeMode.
constexpr const char* kModeNames[] = {"none", "size", "time"};

template <typename T>
Status ParseNumber(const std::string& text, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    std::string expected;
    if constexpr (std::is_floating_point_v<T>) {
      expected = "a finite number";
    } else {
      expected = std::string("an integer in [") +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "]";
    }
    return Status::InvalidArgument("'" + text + "' is not " + expected);
  }
  *out = v;
  return Status::OK();
}

}  // namespace

void EncodeEngineConfig(const EngineConfig& config, Encoder* enc) {
  // The accessors only form pointers; nothing here writes through them.
  EngineConfig* fields = const_cast<EngineConfig*>(&config);
  for (const EngineKnob& knob : EngineKnobs()) {
    std::visit([enc](auto* v) { Put(*v, enc); }, knob.field(fields));
  }
}

Status DecodeEngineConfig(Decoder* dec, EngineConfig* config) {
  for (const EngineKnob& knob : EngineKnobs()) {
    QCM_RETURN_IF_ERROR(std::visit([dec](auto* v) { return Get(dec, v); },
                                   knob.field(config)));
  }
  return Status::OK();
}

std::vector<Flag> EngineFlags(KnobTool tool, EngineConfig* config) {
  std::vector<Flag> flags;
  for (const EngineKnob& knob : EngineKnobs()) {
    if ((knob.tools & tool) != 0) {
      flags.push_back({knob.flag, knob.metavar, knob.help, knob.field(config)});
    }
  }
  return flags;
}

Status ParseOptionValue(const std::string& text, OptionRef value) {
  return std::visit(
      [&text](auto* v) -> Status {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          return Status::InvalidArgument("a switch takes no value");
        } else if constexpr (std::is_same_v<T, std::string>) {
          *v = text;
          return Status::OK();
        } else if constexpr (std::is_same_v<T, DecomposeMode>) {
          for (size_t m = 0; m < std::size(kModeNames); ++m) {
            if (text == kModeNames[m]) {
              *v = static_cast<DecomposeMode>(m);
              return Status::OK();
            }
          }
          return Status::InvalidArgument("'" + text +
                                         "' is not one of none, size, time");
        } else {
          return ParseNumber(text, v);
        }
      },
      value);
}

std::string FormatOptionValue(OptionRef value) {
  return std::visit(
      [](auto* v) -> std::string {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *v;
        } else if constexpr (std::is_same_v<T, DecomposeMode>) {
          return kModeNames[static_cast<int>(*v)];
        } else if constexpr (std::is_same_v<T, bool>) {
          return *v ? "on" : "off";
        } else {
          char buf[64];
          const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), *v);
          return std::string(buf, end);
        }
      },
      value);
}

std::string FlagHelp(const char* synopsis, const std::vector<Flag>& flags) {
  std::string out = std::string("usage: ") + synopsis + "\n\nflags:\n";
  for (const Flag& flag : flags) {
    std::string head = std::string("  ") + flag.name;
    if (flag.metavar != nullptr) head += std::string(" ") + flag.metavar;
    if (head.size() < 30) head.resize(30, ' ');
    out += head + " " + flag.help;
    const std::string current = FormatOptionValue(flag.value);
    if (flag.metavar != nullptr && !current.empty()) {
      out += " (default " + current + ")";
    }
    out += "\n";
  }
  return out;
}

int UsageError(const char* synopsis, const std::string& message) {
  std::fprintf(stderr, "%s\nusage: %s\n(--help lists every flag)\n",
               message.c_str(), synopsis);
  return 2;
}

std::optional<int> ParseFlags(const char* synopsis,
                              const std::vector<Flag>& flags, int argc,
                              char** argv) {
  // Rendered before parsing, so --help shows the tool's defaults.
  const std::string help = FlagHelp(synopsis, flags);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help.c_str(), stdout);
      return 0;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (arg == f.name) flag = &f;
    }
    if (flag == nullptr) return UsageError(synopsis, "unknown flag: " + arg);
    if (flag->metavar == nullptr) {
      *std::get<bool*>(flag->value) = true;
      continue;
    }
    if (i + 1 >= argc) {
      return UsageError(synopsis, arg + " requires a value");
    }
    if (Status s = ParseOptionValue(argv[++i], flag->value); !s.ok()) {
      return UsageError(synopsis, "bad " + arg + ": " + s.message());
    }
  }
  return std::nullopt;
}

}  // namespace qcm
