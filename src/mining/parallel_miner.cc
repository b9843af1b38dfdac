#include "mining/parallel_miner.h"

#include "graph/kcore.h"
#include "mining/qc_app.h"
#include "quick/maximality_filter.h"
#include "util/timer.h"

namespace qcm {

StatusOr<ParallelMineResult> ParallelMiner::Run(const Graph& graph) {
  QCM_RETURN_IF_ERROR(config_.Validate());
  ParallelMineResult result;
  // (T1) size-threshold pruning: the engine sees only the global k-core.
  WallTimer kcore_timer;
  std::vector<uint8_t> alive = KCoreMask(graph, config_.mining.MinDegreeK());
  result.kcore_seconds = kcore_timer.Seconds();
  result.kcore_vertices = CountAlive(alive);

  QCApp app(config_);
  Engine engine(&graph, config_, &app, std::move(alive));
  auto report = engine.Run();
  QCM_RETURN_IF_ERROR(report.status());

  result.report = std::move(report).value();
  result.raw_candidates = result.report.results.size();
  WallTimer filter_timer;
  result.maximal =
      FilterMaximal(result.report.results, &result.duplicates);
  result.filter_seconds = filter_timer.Seconds();
  return result;
}

}  // namespace qcm
