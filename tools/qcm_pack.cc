// qcm_pack: converts a SNAP-format edge list or a planted-community spec
// into a page-aligned, checksummed .qcsr snapshot (graph/csr_snapshot.h)
// that qcm_mine / qcm_worker mmap instead of text-parsing. Pack once,
// mine many times: qcm_cluster runs this conversion in-process and ships
// only the snapshot path to its workers.
//
// Usage (`qcm_pack --help` lists every flag with its default):
//   qcm_pack --input graph.txt --output graph.qcsr [--page-size N]
//   qcm_pack --gen-planted n=5000,communities=10,size=16..20,density=0.95
//            --seed 7 --output planted.qcsr --verify

#include <cstdio>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "gthinker/engine_config.h"
#include "util/mem.h"
#include "util/timer.h"

namespace {

using namespace qcm;

struct Args {
  std::string input;
  std::string gen_planted;
  std::string output;
  uint32_t page_size = kCsrDefaultPageSize;
  uint64_t seed = 1;
  bool verify = false;
  bool quiet = false;
};

constexpr char kSynopsis[] =
    "qcm_pack (--input PATH | --gen-planted SPEC) --output FILE.qcsr "
    "[flags]";

std::vector<Flag> Flags(Args* args) {
  return {
      {"--input", "PATH", "SNAP edge list ('#' comments, \"u v\" lines)",
       &args->input},
      {"--gen-planted", "SPEC", "planted-community graph (see qcm_mine)",
       &args->gen_planted},
      {"--output", "PATH", "snapshot file to write (required)",
       &args->output},
      {"--page-size", "N",
       "section alignment and paging granularity; power of two >= 4096",
       &args->page_size},
      {"--seed", "N", "generator seed", &args->seed},
      {"--verify", nullptr, "re-open the file and verify every checksum",
       &args->verify},
      {"--quiet", nullptr, "suppress the layout report", &args->quiet},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (auto exit_code = ParseFlags(kSynopsis, Flags(&args), argc, argv)) {
    return *exit_code;
  }
  if (args.input.empty() == args.gen_planted.empty()) {
    return UsageError(kSynopsis,
                      "exactly one of --input / --gen-planted is required");
  }
  if (args.output.empty()) {
    return UsageError(kSynopsis, "--output is required");
  }
  if (args.page_size < kCsrMinPageSize ||
      (args.page_size & (args.page_size - 1)) != 0) {
    return UsageError(kSynopsis, "--page-size must be a power of two >= " +
                                     std::to_string(kCsrMinPageSize));
  }

  WallTimer load_timer;
  Graph graph;
  std::vector<uint64_t> original_ids;
  if (!args.input.empty()) {
    auto loaded = LoadEdgeList(args.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded->graph);
    original_ids = std::move(loaded->original_ids);
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
  const double load_seconds = load_timer.Seconds();

  CsrWriteOptions opts;
  opts.page_size = args.page_size;
  opts.build_seed = args.gen_planted.empty() ? 0 : args.seed;
  WallTimer pack_timer;
  if (Status s = WriteCsrSnapshot(graph, original_ids, args.output, opts);
      !s.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double pack_seconds = pack_timer.Seconds();

  CsrSnapshot::OpenOptions open_opts;
  open_opts.verify_sections = args.verify;
  open_opts.verify_adjacency = args.verify;
  WallTimer verify_timer;
  auto snap = CsrSnapshot::Open(args.output, open_opts);
  if (!snap.ok()) {
    std::fprintf(stderr, "re-open of packed snapshot failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }
  const double verify_seconds = verify_timer.Seconds();

  if (!args.quiet) {
    const CsrHeader& h = (*snap)->header();
    std::fprintf(stderr,
                 "packed %s: %u vertices, %llu edges, %s (page size %s)\n",
                 args.output.c_str(), h.num_vertices,
                 static_cast<unsigned long long>(h.num_edges),
                 HumanBytes(h.file_bytes).c_str(),
                 HumanBytes(h.page_size).c_str());
    for (int i = 0; i < kCsrNumSections; ++i) {
      const CsrSectionDesc& s = h.sections[i];
      std::fprintf(stderr,
                   "  section %-12s offset %-10llu %-12s checksum "
                   "%016llx\n",
                   CsrSectionName(i),
                   static_cast<unsigned long long>(s.file_offset),
                   HumanBytes(s.bytes).c_str(),
                   static_cast<unsigned long long>(s.checksum));
    }
    std::fprintf(stderr,
                 "pack: load %.3f s, pack %.3f s, %s %.3f s\n",
                 load_seconds, pack_seconds,
                 args.verify ? "verify" : "re-open", verify_seconds);
  }
  return 0;
}
