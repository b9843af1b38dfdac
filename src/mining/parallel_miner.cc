#include "mining/parallel_miner.h"

#include "mining/qc_app.h"
#include "quick/maximality_filter.h"
#include "util/timer.h"

namespace qcm {

StatusOr<ParallelMineResult> ParallelMiner::Run(const Graph& graph) {
  QCM_RETURN_IF_ERROR(config_.Validate());
  QCApp app(config_);
  Engine engine(&graph, config_, &app);
  auto report = engine.Run();
  QCM_RETURN_IF_ERROR(report.status());

  ParallelMineResult result;
  result.report = std::move(report).value();
  result.raw_candidates = result.report.results.size();
  WallTimer filter_timer;
  result.maximal =
      FilterMaximal(result.report.results, &result.duplicates);
  result.filter_seconds = filter_timer.Seconds();
  return result;
}

}  // namespace qcm
