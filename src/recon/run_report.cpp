#include "recon/run_report.h"

#include <cstdint>
#include <fstream>

#include "core/error.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "recon/reconstructor.h"

namespace mbir {
namespace {

using obs::JsonWriter;

void writeKernelStats(JsonWriter& w, const gsim::KernelStats& s) {
  w.beginObject();
  w.kv("svb_access_bytes", s.svb_access_bytes);
  w.kv("svb_access_time_bytes", s.svb_access_time_bytes);
  w.kv("svb_unique_bytes", s.svb_unique_bytes);
  w.kv("amatrix_access_bytes", s.amatrix_access_bytes);
  w.kv("amatrix_unique_bytes", s.amatrix_unique_bytes);
  w.kv("amatrix_via_texture", s.amatrix_via_texture);
  w.kv("desc_bytes", s.desc_bytes);
  w.kv("smem_bytes", s.smem_bytes);
  w.kv("flops", s.flops);
  w.kv("atomic_ops", s.atomic_ops);
  w.kv("atomic_ops_weighted", s.atomic_ops_weighted);
  w.kv("l2_working_set_bytes", s.l2_working_set_bytes);
  w.kv("imbalance_factor", s.imbalance_factor);
  w.kv("grid_blocks", s.grid_blocks);
  w.kv("launches", s.launches);
  w.endObject();
}

void writeWorkCounters(JsonWriter& w, const WorkCounters& c) {
  w.beginObject();
  w.kv("voxel_updates", std::uint64_t(c.voxel_updates));
  w.kv("voxels_visited", std::uint64_t(c.voxels_visited));
  w.kv("theta_elements", std::uint64_t(c.theta_elements));
  w.kv("error_update_elements", std::uint64_t(c.error_update_elements));
  w.kv("svb_gather_elements", std::uint64_t(c.svb_gather_elements));
  w.kv("svb_writeback_elements", std::uint64_t(c.svb_writeback_elements));
  w.kv("lock_acquisitions", std::uint64_t(c.lock_acquisitions));
  w.kv("svs_processed", std::uint64_t(c.svs_processed));
  w.endObject();
}

void writeRaceCheck(JsonWriter& w, bool enabled, std::uint64_t launches,
                    std::uint64_t ranges, std::uint64_t races) {
  w.beginObject();
  w.kv("enabled", enabled);
  w.kv("launches_checked", launches);
  w.kv("ranges_checked", ranges);
  w.kv("races_found", races);
  w.endObject();
}

}  // namespace

std::string runReportJson(const RunResult& result, const RunConfig& config) {
  JsonWriter w;
  w.beginObject();
  w.kv("schema", "gpumbir.run_report/1");
  w.kv("algorithm", algorithmName(config.algorithm));

  w.key("config").beginObject();
  w.kv("stop_rmse_hu", config.stop_rmse_hu);
  w.kv("max_equits", config.max_equits);
  w.kv("simd", result.simd_path);
  w.endObject();

  w.kv("converged", result.converged);
  w.kv("cancelled", result.cancelled);
  w.kv("warm_started", result.warm_started);
  w.kv("equits", result.equits);
  w.kv("final_rmse_hu", result.final_rmse_hu);
  w.kv("modeled_seconds", result.modeled_seconds);
  w.kv("host_seconds", result.host_seconds);

  w.key("work");
  writeWorkCounters(w, result.work);

  w.key("curve").beginArray();
  for (const ConvergencePoint& p : result.curve) {
    w.beginObject();
    w.kv("equits", p.equits);
    w.kv("modeled_seconds", p.modeled_seconds);
    w.kv("rmse_hu", p.rmse_hu);
    w.endObject();
  }
  w.endArray();

  if (result.gpu_stats) {
    const GpuRunStats& g = *result.gpu_stats;
    w.key("gpu").beginObject();
    w.kv("iterations", g.iterations);
    w.kv("kernels_launched", g.kernels_launched);
    w.kv("batches_skipped_by_threshold", g.batches_skipped_by_threshold);
    w.kv("modeled_seconds", g.modeled_seconds);
    w.key("chunk_cache").beginObject();
    w.kv("hits", std::uint64_t(g.chunk_cache_hits));
    w.kv("misses", std::uint64_t(g.chunk_cache_misses));
    w.endObject();
    w.key("race_check");
    writeRaceCheck(w, g.race_check_enabled, g.race_launches_checked,
                   g.race_ranges_checked, g.race_reports);
    w.key("kernel_stats");
    writeKernelStats(w, g.kernel_stats);
    w.key("per_kernel").beginObject();
    for (const auto& [name, totals] : g.per_kernel) {
      w.key(name).beginObject();
      w.kv("seconds", totals.seconds);
      w.kv("launches", totals.launches);
      w.key("stats");
      writeKernelStats(w, totals.stats);
      w.endObject();
    }
    w.endObject();
    w.endObject();
  }

  if (result.psv_stats) {
    const PsvRunStats& p = *result.psv_stats;
    w.key("psv").beginObject();
    w.kv("iterations", p.iterations);
    w.key("race_check");
    writeRaceCheck(w, p.race_check_enabled, p.race_launches_checked,
                   p.race_ranges_checked, p.race_reports);
    w.endObject();
  }

  if (result.seq_stats) {
    const IcdRunStats& s = *result.seq_stats;
    w.key("seq").beginObject();
    w.kv("sweeps", s.sweeps);
    w.key("race_check");
    writeRaceCheck(w, s.race_check_enabled, s.race_launches_checked,
                   s.race_ranges_checked, s.race_reports);
    w.endObject();
  }

  const obs::Recorder* rec = result.recorder.get();
  if (rec && rec->metricsOn()) {
    w.key("metrics");
    rec->metrics().writeJson(w);
  }
  if (rec && rec->traceOn()) {
    w.key("trace").beginObject();
    w.kv("events", std::uint64_t(rec->trace().size()));
    w.kv("path", rec->config().trace_path);
    w.endObject();
  }

  w.endObject();
  return w.str();
}

void writeRunReport(const std::string& path, const RunResult& result,
                    const RunConfig& config) {
  std::ofstream out(path, std::ios::binary);
  MBIR_CHECK_MSG(out.good(), "cannot open run report file: " + path);
  out << runReportJson(result, config) << '\n';
  MBIR_CHECK_MSG(out.good(), "failed writing run report: " + path);
}

}  // namespace mbir
