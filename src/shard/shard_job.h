// One logical sharded reconstruction job (DESIGN.md §13).
//
// reconstructSharded() is mbir::reconstruct() with a different engine: it
// plugs a ShardedGpuIcd spanning `devices` simulated devices into
// reconstruct()'s Engine slot, so setup (warm start, `recon.setup`), the
// per-iteration protocol (fault seam, cancellation, RMSE curve, spans,
// flight events, stop rule) and finish (metrics, report/trace export) are
// the unsharded run's own code. The service dispatcher runs gang jobs
// through it; the result serializes as a `gpumbir.shard_report/1`.
#pragma once

#include <string>

#include "recon/reconstructor.h"
#include "shard/plan.h"
#include "shard/sharded_icd.h"

namespace mbir::shard {

struct ShardConfig {
  ShardPlan plan;
  /// Simulated devices the slabs are mapped onto (modeled time only —
  /// never bits; see ShardPlan's determinism contract).
  int devices = 1;
  gsim::LinkSpec link = gsim::pcie3Link();
  /// Convergence protocol + engine options + observability, exactly as for
  /// reconstruct(). base.algorithm is ignored (always GPU-ICD); base.gpu is
  /// the per-slab engine template.
  RunConfig base;
};

struct ShardRunResult {
  /// Filled like reconstruct()'s result: image, converged/cancelled,
  /// curve, equits, modeled_seconds (= the synchronized shard clock),
  /// host_seconds, work, simd_path.
  RunResult run;
  ShardRunStats shard;
  ShardPlan plan;
  int devices = 1;
  std::string link_name;
};

/// Run one sharded reconstruction to the configured convergence criterion.
ShardRunResult reconstructSharded(const OwnedProblem& problem,
                                  const Image2D& golden, ShardConfig config);

/// Machine-readable summary, schema `gpumbir.shard_report/1`.
std::string shardReportJson(const ShardRunResult& result);

}  // namespace mbir::shard
