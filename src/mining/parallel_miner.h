// High-level facade: run the full parallel maximal quasi-clique pipeline
// (spawn -> build -> mine -> decompose -> postprocess) on a mapped .qcsr
// snapshot and return both the exact maximal result set and the engine's
// run report.

#ifndef QCM_MINING_PARALLEL_MINER_H_
#define QCM_MINING_PARALLEL_MINER_H_

#include <memory>
#include <vector>

#include "gthinker/engine.h"
#include "gthinker/engine_config.h"
#include "graph/csr_snapshot.h"
#include "graph/graph.h"
#include "quick/quasi_clique.h"
#include "util/status.h"

namespace qcm {

/// Output of ParallelMiner::Run.
struct ParallelMineResult {
  /// Exactly the maximal quasi-cliques: the job's one FilterMaximal pass
  /// over report.results.
  std::vector<VertexSet> maximal;
  /// Raw candidate count before postprocessing (the paper's tables report
  /// this as "Result #": its GitHub release "do[es] not include a
  /// processing step to remove non-maximal results").
  uint64_t raw_candidates = 0;
  /// Exact-duplicate candidates FilterMaximal removed.
  size_t duplicates = 0;
  /// Wall seconds of the one FilterMaximal pass (not in
  /// report.wall_seconds, which ends with the engine).
  double filter_seconds = 0;
  /// Vertices of the global k-core the engine mined (paper §4 T1;
  /// mirrors SerialMineReport::kcore_size) and the peel's wall seconds
  /// (not in report.wall_seconds, which starts with the engine).
  uint64_t kcore_vertices = 0;
  double kcore_seconds = 0;
  /// Full engine metrics and per-thread/per-root accounting. Its
  /// `results` keep the raw candidates, unfiltered.
  EngineReport report;
};

class ParallelMiner {
 public:
  explicit ParallelMiner(EngineConfig config) : config_(std::move(config)) {}

  /// Mines the mapped `snapshot` to completion: peels it to the global
  /// k-core with k = config.mining.MinDegreeK() (the cluster launcher's
  /// peel), then spawns only core vertices. The engine mines snapshot
  /// ids; `maximal`, `report.results` and `report.root_tasks` come back
  /// in caller ids (CsrSnapshot::ToCallerIds).
  StatusOr<ParallelMineResult> Run(std::shared_ptr<CsrSnapshot> snapshot);

  /// Run() over CsrSnapshot::FromGraph(graph).
  StatusOr<ParallelMineResult> Run(const Graph& graph);

 private:
  EngineConfig config_;
};

}  // namespace qcm

#endif  // QCM_MINING_PARALLEL_MINER_H_
