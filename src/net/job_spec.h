// ClusterJobSpec: everything a worker process needs to run its share of a
// distributed mining job, shipped as the opaque config blob of the rank-
// assignment handshake (wire.h kAssign). The graph itself is NOT shipped:
// every worker mmaps the launcher-packed .qcsr snapshot named in
// config.graph_snapshot and serves only its own partition from it. The
// global k-core mask the launcher peeled from that snapshot travels with
// the spec.

#ifndef QCM_NET_JOB_SPEC_H_
#define QCM_NET_JOB_SPEC_H_

#include <string>

#include "gthinker/engine_config.h"
#include "util/status.h"

namespace qcm {

struct ClusterJobSpec {
  /// Full engine configuration; num_machines must equal the cluster's
  /// world size and graph_snapshot must name the packed graph.
  EngineConfig config;

  /// Global k-core membership (paper §4 T1) in PackVertexMask format,
  /// ceil(n/8) bytes, peeled by the launcher from the snapshot it maps.
  std::string kcore_mask;
};

std::string EncodeJobSpec(const ClusterJobSpec& spec);
Status DecodeJobSpec(const std::string& blob, ClusterJobSpec* spec);

}  // namespace qcm

#endif  // QCM_NET_JOB_SPEC_H_
