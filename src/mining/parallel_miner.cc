#include "mining/parallel_miner.h"

#include "graph/kcore.h"
#include "mining/qc_app.h"
#include "quick/maximality_filter.h"
#include "util/timer.h"

namespace qcm {

StatusOr<ParallelMineResult> ParallelMiner::Run(const Graph& graph) {
  auto snapshot = CsrSnapshot::FromGraph(graph);
  QCM_RETURN_IF_ERROR(snapshot.status());
  return Run(std::move(snapshot).value());
}

StatusOr<ParallelMineResult> ParallelMiner::Run(
    std::shared_ptr<CsrSnapshot> snapshot) {
  QCM_RETURN_IF_ERROR(config_.Validate());
  ParallelMineResult result;
  // (T1) size-threshold pruning: the engine sees only the global k-core.
  WallTimer kcore_timer;
  auto alive = KCoreMask(*snapshot, config_.mining.MinDegreeK());
  QCM_RETURN_IF_ERROR(alive.status());
  result.kcore_seconds = kcore_timer.Seconds();
  result.kcore_vertices = CountAlive(*alive);

  auto table = std::make_unique<VertexTable>(
      snapshot, config_.num_machines, /*local_rank=*/-1,
      /*graph_memory_budget=*/0);
  table->SetAliveMask(std::move(alive).value());
  QCApp app(config_);
  Engine engine(std::move(table), config_, &app);
  auto report = engine.Run();
  QCM_RETURN_IF_ERROR(report.status());

  result.report = std::move(report).value();
  // The engine mined snapshot ids; the caller sees its own.
  QCM_RETURN_IF_ERROR(snapshot->ToCallerIds(&result.report.results));
  for (RootTaskAgg& agg : result.report.root_tasks) {
    agg.root = snapshot->CallerId(agg.root);
  }
  result.raw_candidates = result.report.results.size();
  WallTimer filter_timer;
  result.maximal =
      FilterMaximal(result.report.results, &result.duplicates);
  result.filter_seconds = filter_timer.Seconds();
  return result;
}

}  // namespace qcm
