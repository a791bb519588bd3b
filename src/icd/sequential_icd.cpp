#include "icd/sequential_icd.h"

#include "icd/voxel_update.h"
#include "obs/obs.h"

namespace mbir {

SequentialIcd::SequentialIcd(const Problem& problem, SequentialIcdOptions options,
                             const gsim::RunContext& ctx)
    : problem_(problem),
      options_(options),
      ctx_(ctx),
      rng_(options.seed),
      race_(options.race_check) {
  problem_.validate();
  const std::size_t num_voxels = problem_.A.numVoxels();
  order_.resize(num_voxels);
  for (std::size_t i = 0; i < num_voxels; ++i) order_[i] = int(i);
  nnz_.assign(num_voxels, 0);
  for (std::size_t voxel = 0; voxel < num_voxels; ++voxel) {
    std::uint32_t acc = 0;
    for (int v = 0; v < problem_.A.numViews(); ++v)
      acc += problem_.A.run(voxel, v).count;
    nnz_[voxel] = acc;
  }
  obs::Recorder* rec = ctx_.recorder;
  if (rec && rec->metricsOn()) {
    m_sweeps_ = &rec->metrics().counter("seq.sweep.count");
    m_updates_ = &rec->metrics().counter("seq.voxel.updates");
  }
  stats_.race_check_enabled = race_.config().enabled;
  if (stats_.race_check_enabled) {
    rb_image_ = race_.bufferId("image");
    rb_sino_e_ = race_.bufferId("sino.e");
  }
}

bool SequentialIcd::stepIteration(Image2D& x, Sinogram& e) {
  const std::size_t num_voxels = problem_.A.numVoxels();
  MBIR_CHECK(std::size_t(x.size()) * std::size_t(x.size()) == num_voxels);
  if (stalled_) return false;
  const int n = x.size();
  obs::Recorder* rec = ctx_.recorder;
  const bool tracing = rec && rec->traceOn();
  IcdRunStats& stats = stats_;

  const double sweep_host_us = tracing ? rec->trace().nowHostUs() : 0.0;
  const std::size_t sweep_updates0 = stats.work.voxel_updates;
  if (options_.randomize_order) rng_.shuffle(order_);
  for (int voxel : order_) {
    const int row = voxel / n;
    const int col = voxel % n;
    const VoxelUpdateResult r =
        updateVoxelGlobal(problem_, x, e, row, col, options_.zero_skip);
    ++stats.work.voxels_visited;
    if (r.updated) {
      ++stats.work.voxel_updates;
      stats.work.theta_elements += nnz_[std::size_t(voxel)];
      stats.work.error_update_elements += nnz_[std::size_t(voxel)];
    }
  }
  if (stats.race_check_enabled) {
    std::vector<gsim::BlockAccessLog> logs(1);
    logs[0].read(rb_image_, 0, std::int64_t(num_voxels));
    logs[0].write(rb_image_, 0, std::int64_t(num_voxels));
    logs[0].write(rb_sino_e_, 0,
                  std::int64_t(problem_.A.numViews()) *
                      std::int64_t(problem_.A.numChannels()));
    race_.checkLaunch("seq_sweep", logs);
  }
  const std::size_t sweep_updates = stats.work.voxel_updates - sweep_updates0;
  stalled_ = sweep_updates == 0;
  ++stats.sweeps;
  stats.voxel_updates = stats.work.voxel_updates;
  stats.equits = double(stats.voxel_updates) / double(num_voxels);
  const gsim::RaceCheckTotals race_totals = race_.totals();
  stats.race_launches_checked = race_totals.launches_checked;
  stats.race_ranges_checked = race_totals.ranges_checked;
  stats.race_reports = race_totals.races_found;
  if (m_sweeps_) {
    m_sweeps_->add();
    m_updates_->add(std::uint64_t(sweep_updates));
  }
  if (tracing) {
    obs::TraceEvent ev;
    ev.name = "seq.sweep";
    ev.cat = "seq";
    ev.clock = obs::Clock::kHost;
    ev.ts_us = sweep_host_us;
    ev.dur_us = rec->trace().nowHostUs() - sweep_host_us;
    ev.num_args = {{"sweep", double(stats.sweeps)},
                   {"equits", stats.equits},
                   {"voxel_updates", double(sweep_updates)}};
    ctx_.record(std::move(ev));
  }
  return true;
}

}  // namespace mbir
