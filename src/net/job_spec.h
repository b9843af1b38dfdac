// ClusterJobSpec: everything a worker process needs to run its share of a
// distributed mining job, shipped as the opaque config blob of the rank-
// assignment handshake (wire.h kAssign). The graph itself is NOT shipped:
// workers map the launcher-packed snapshot named in the config, or rebuild
// the graph deterministically from the spec (an edge-list path readable by
// every process, or a seeded synthetic-generator spec), and then keep only
// their own partition. Only the global k-core mask travels with the spec.

#ifndef QCM_NET_JOB_SPEC_H_
#define QCM_NET_JOB_SPEC_H_

#include <string>

#include "gthinker/engine_config.h"
#include "util/status.h"

namespace qcm {

struct ClusterJobSpec {
  /// Exactly one of these is non-empty (same contract as qcm_mine).
  std::string input;        // SNAP edge-list path
  std::string gen_planted;  // planted-community generator spec
  uint64_t seed = 1;        // generator seed (ignored for --input)

  /// Full engine configuration; num_machines must equal the cluster's
  /// world size.
  EngineConfig config;

  /// Global k-core membership (paper §4 T1) in PackVertexMask format,
  /// ceil(n/8) bytes: peeled by the launcher from the snapshot it maps
  /// when config.graph_snapshot is set; empty otherwise, and a rebuilding
  /// worker peels its own graph.
  std::string kcore_mask;
};

std::string EncodeJobSpec(const ClusterJobSpec& spec);
Status DecodeJobSpec(const std::string& blob, ClusterJobSpec* spec);

}  // namespace qcm

#endif  // QCM_NET_JOB_SPEC_H_
