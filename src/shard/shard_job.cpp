#include "shard/shard_job.h"

#include <utility>

#include "obs/json.h"

namespace mbir::shard {

ShardRunResult reconstructSharded(const OwnedProblem& problem,
                                  const Image2D& golden, ShardConfig config) {
  ShardRunResult out;
  out.plan = config.plan;
  out.devices = config.devices;
  out.link_name = config.link.name;
  // Only the engine differs from an unsharded run: setup, the per-iteration
  // protocol and finish are reconstruct()'s own. Each step joins its device
  // tasks before returning, so `track` runs on this thread like any
  // engine's.
  out.run = reconstruct(
      problem, golden, config.base,
      [&](const gsim::RunContext& ctx, Sinogram& e,
          const IterationTrack& track, RunResult& result) {
        ShardedOptions opt;
        opt.engine = gpuEngineOptions(problem, config.base);
        opt.devices = config.devices;
        opt.link = config.link;
        ShardedGpuIcd icd(problem.view(), config.plan, std::move(opt),
                          result.image, e, ctx);
        const ShardRunStats& stats = icd.runStats();
        while (icd.stepIteration(result.image, e) &&
               track(result.image, stats.equits, stats.modeled_seconds)) {
        }
        out.shard = icd.finish();
        result.equits = out.shard.equits;
        result.work = out.shard.work;
        result.modeled_seconds = out.shard.modeled_seconds;
      });
  return out;
}

std::string shardReportJson(const ShardRunResult& r) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "gpumbir.shard_report/1");
  w.kv("algorithm", "GPU-ICD (sharded)");
  w.key("plan").raw(r.plan.toJson());
  w.kv("devices", r.devices);
  w.kv("link", r.link_name);
  w.kv("converged", r.run.converged);
  w.kv("cancelled", r.run.cancelled);
  w.kv("final_rmse_hu", r.run.final_rmse_hu);
  w.kv("equits", r.run.equits);
  w.kv("iterations", r.shard.iterations);
  w.kv("exchanges", r.shard.exchanges);
  w.kv("modeled_seconds", r.shard.modeled_seconds);
  w.kv("compute_seconds", r.shard.compute_seconds);
  w.kv("comm_seconds", r.shard.comm_seconds);
  w.kv("exchange_seconds", r.shard.exchange_seconds);
  w.kv("comm_overhead",
       r.shard.modeled_seconds > 0.0
           ? r.shard.comm_seconds / r.shard.modeled_seconds
           : 0.0);
  w.kv("comm_bytes", std::uint64_t(r.shard.comm_bytes));
  w.kv("comm_transfers", std::uint64_t(r.shard.comm_transfers));
  w.kv("voxel_updates", std::uint64_t(r.shard.work.voxel_updates));
  w.kv("kernels_launched", r.shard.kernels_launched);
  w.kv("host_seconds", r.run.host_seconds);
  w.kv("simd_path", r.run.simd_path);
  w.key("race_check").beginObject();
  w.kv("enabled", r.shard.race_check_enabled);
  w.kv("launches_checked", r.shard.race_launches_checked);
  w.kv("ranges_checked", r.shard.race_ranges_checked);
  w.kv("races_found", r.shard.race_reports);
  w.endObject();
  w.endObject();
  return w.str();
}

}  // namespace mbir::shard
