#include "icd/sequential_icd.h"

#include <algorithm>

#include "core/rng.h"
#include "icd/voxel_update.h"
#include "obs/obs.h"

namespace mbir {

SequentialIcd::SequentialIcd(const Problem& problem, SequentialIcdOptions options)
    : problem_(problem), options_(options) {
  problem_.validate();
  MBIR_CHECK(options_.max_equits > 0.0);
}

IcdRunStats SequentialIcd::run(Image2D& x, Sinogram& e, const SweepCallback& on_sweep) {
  MBIR_CHECK(std::size_t(x.size()) * std::size_t(x.size()) == problem_.A.numVoxels());
  Rng rng(options_.seed);
  const int n = x.size();
  const std::size_t num_voxels = x.numVoxels();

  IcdRunStats stats;
  EquitCounter equits(num_voxels);

  std::vector<int> order(num_voxels);
  for (std::size_t i = 0; i < num_voxels; ++i) order[i] = int(i);

  // Per-voxel nonzero counts, for the work counters the CPU timing model
  // consumes.
  std::vector<std::uint32_t> nnz(num_voxels, 0);
  for (std::size_t voxel = 0; voxel < num_voxels; ++voxel) {
    std::uint32_t acc = 0;
    for (int v = 0; v < problem_.A.numViews(); ++v)
      acc += problem_.A.run(voxel, v).count;
    nnz[voxel] = acc;
  }

  obs::Recorder* rec = options_.recorder;
  const bool tracing = rec && rec->traceOn();
  obs::Counter* m_sweeps = nullptr;
  obs::Counter* m_updates = nullptr;
  if (rec && rec->metricsOn()) {
    m_sweeps = &rec->metrics().counter("seq.sweep.count");
    m_updates = &rec->metrics().counter("seq.voxel.updates");
  }

  // Single-threaded baseline: each sweep is one "block" touching the whole
  // image and error sinogram — trivially race-free, but declared so all
  // three engines exercise the same checking channel.
  gsim::RaceDetector race(options_.race_check);
  const bool race_on = race.config().enabled;
  int rb_image = -1, rb_sino_e = -1;
  if (race_on) {
    rb_image = race.bufferId("image");
    rb_sino_e = race.bufferId("sino.e");
  }

  while (equits.equits() < options_.max_equits) {
    const double sweep_host_us = tracing ? rec->trace().nowHostUs() : 0.0;
    const std::size_t sweep_updates0 = stats.work.voxel_updates;
    if (options_.randomize_order) rng.shuffle(order);
    for (int voxel : order) {
      const int row = voxel / n;
      const int col = voxel % n;
      const VoxelUpdateResult r =
          updateVoxelGlobal(problem_, x, e, row, col, options_.zero_skip);
      ++stats.work.voxels_visited;
      if (r.updated) {
        equits.addUpdates(1);
        ++stats.work.voxel_updates;
        stats.work.theta_elements += nnz[std::size_t(voxel)];
        stats.work.error_update_elements += nnz[std::size_t(voxel)];
      }
    }
    if (race_on) {
      std::vector<gsim::BlockAccessLog> logs(1);
      logs[0].read(rb_image, 0, std::int64_t(num_voxels));
      logs[0].write(rb_image, 0, std::int64_t(num_voxels));
      logs[0].write(rb_sino_e, 0,
                    std::int64_t(problem_.A.numViews()) *
                        std::int64_t(problem_.A.numChannels()));
      race.checkLaunch("seq_sweep", logs);
    }
    ++stats.sweeps;
    stats.equits = equits.equits();
    stats.voxel_updates = equits.updates();
    if (m_sweeps) {
      m_sweeps->add();
      m_updates->add(
          std::uint64_t(stats.work.voxel_updates - sweep_updates0));
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
                     {"voxel_updates",
                      double(stats.work.voxel_updates - sweep_updates0)}};
      rec->trace().record(std::move(ev));
    }
    if (on_sweep && !on_sweep(x, stats)) break;
    // Degenerate all-zero start: every voxel zero-skipped forever.
    if (equits.updates() == 0) break;
  }
  stats.equits = equits.equits();
  stats.voxel_updates = equits.updates();
  stats.race_check_enabled = race_on;
  const gsim::RaceCheckTotals race_totals = race.totals();
  stats.race_launches_checked = race_totals.launches_checked;
  stats.race_ranges_checked = race_totals.ranges_checked;
  stats.race_reports = race_totals.races_found;
  return stats;
}

}  // namespace mbir
