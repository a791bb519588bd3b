#include "gsim/executor.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "gsim/fault.h"
#include "obs/obs.h"

namespace mbir::gsim {

namespace {

/// Host wall-time of one simulated block, for optional per-block spans.
struct BlockSpan {
  double t0_us = 0.0;
  double t1_us = 0.0;
  int tid = 0;  ///< hashed host worker thread id
};

int hostThreadTid() {
  return int(std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fff);
}

/// KernelStats + time breakdown as span args (same set on both clocks).
void fillLaunchArgs(obs::TraceEvent& ev, const LaunchReport& report) {
  const KernelStats& s = report.stats;
  ev.num_args = {{"blocks", double(s.grid_blocks)},
                 {"occupancy", report.occupancy.fraction},
                 {"svb_access_bytes", s.svb_access_bytes},
                 {"svb_unique_bytes", s.svb_unique_bytes},
                 {"amatrix_access_bytes", s.amatrix_access_bytes},
                 {"amatrix_unique_bytes", s.amatrix_unique_bytes},
                 {"desc_bytes", s.desc_bytes},
                 {"smem_bytes", s.smem_bytes},
                 {"flops", s.flops},
                 {"atomic_ops", s.atomic_ops},
                 {"atomic_ops_weighted", s.atomic_ops_weighted},
                 {"l2_working_set_bytes", s.l2_working_set_bytes},
                 {"imbalance_factor", s.imbalance_factor},
                 {"modeled_seconds", report.time.total},
                 {"t_tex", report.time.tex},
                 {"t_l2", report.time.l2},
                 {"t_dram", report.time.dram},
                 {"t_smem", report.time.smem},
                 {"t_compute", report.time.compute},
                 {"t_atomic", report.time.atomic}};
  ev.str_args = {{"bottleneck", report.time.bottleneck},
                 {"amatrix_path", s.amatrix_via_texture ? "texture" : "global"},
                 {"occupancy_limiter", report.occupancy.limiter}};
}

}  // namespace

GpuSimulator::GpuSimulator(DeviceSpec spec, RunContext ctx)
    : dev_(std::move(spec)),
      race_(RaceCheckConfig::fromEnv()),
      ctx_(ctx) {
  ctx_.simd = &ctx.simdTable();
  obs::Recorder* rec = ctx_.recorder;
  if (rec && rec->metricsOn()) {
    obs::MetricsRegistry& m = rec->metrics();
    inst_.launches = &m.counter("gsim.launch.count");
    inst_.blocks = &m.counter("gsim.launch.blocks");
    inst_.svb_access_bytes = &m.counter("gsim.launch.svb_access_bytes");
    inst_.svb_unique_bytes = &m.counter("gsim.launch.svb_unique_bytes");
    inst_.amatrix_access_bytes = &m.counter("gsim.launch.amatrix_access_bytes");
    inst_.flops = &m.counter("gsim.launch.flops");
    inst_.atomic_ops = &m.counter("gsim.launch.atomic_ops");
    inst_.occupancy = &m.gauge("gsim.launch.occupancy");
    inst_.modeled_seconds = &m.histogram("gsim.launch.modeled_seconds");
    inst_.race_launches_checked = &m.counter("gsim.race.launches_checked");
    inst_.race_ranges_checked = &m.counter("gsim.race.ranges_checked");
    inst_.race_races_found = &m.counter("gsim.race.races_found");
  }
}

LaunchReport GpuSimulator::launch(const LaunchConfig& cfg,
                                  const std::function<void(BlockCtx&)>& kernel) {
  MBIR_CHECK(cfg.num_blocks >= 1);
  // Fault seam: fires before any block is scheduled or time is accounted,
  // so a thrown LaunchFault leaves the simulator's totals untouched. The
  // sequence number advances even when the hook throws — "the 4th launch"
  // means the 4th attempted launch on every replay.
  if (ctx_.fault_hook != nullptr) {
    const std::uint64_t seq = launch_seq_++;
    ctx_.fault_hook->onEvent(("launch:" + cfg.name).c_str(), seq);
  }
  LaunchReport report;
  report.occupancy = computeOccupancy(dev_, cfg.resources);

  obs::Recorder* rec = ctx_.recorder;
  const bool tracing = ctx_.tracing();
  const bool block_spans = rec && rec->blockSpansOn();
  const double host_t0_us = tracing ? rec->trace().nowHostUs() : 0.0;
  const double modeled_t0_s = total_seconds_;
  std::vector<BlockSpan> bspans;
  if (block_spans) bspans.resize(std::size_t(cfg.num_blocks));

  // Per-block span capture writes only the block's own slot, so it is as
  // race-free as the profiler array and adds nothing when disabled.
  const auto run_block = [&](BlockCtx& ctx) {
    if (block_spans) {
      BlockSpan& bs = bspans[std::size_t(ctx.block_idx)];
      bs.tid = hostThreadTid();
      bs.t0_us = rec->trace().nowHostUs();
      kernel(ctx);
      bs.t1_us = rec->trace().nowHostUs();
    } else {
      kernel(ctx);
    }
  };

  // When race checking is on, every block logs its declared accesses into
  // its own slot (same isolation argument as the profiler array); the
  // whole launch is intersected after the blocks join.
  const bool race_on = race_.config().enabled;
  std::vector<BlockAccessLog> race_logs;
  if (race_on) race_logs.resize(std::size_t(cfg.num_blocks));

  // Every block gets a private profiler, so blocks can run on any host
  // thread; merging the per-block stats in block-index order keeps the
  // report bit-identical for any task split and pool size.
  std::vector<KernelProfiler> profs;
  profs.reserve(std::size_t(cfg.num_blocks));
  for (int b = 0; b < cfg.num_blocks; ++b) {
    profs.emplace_back(dev_);
    if (race_on) profs.back().setRaceLog(&race_logs[std::size_t(b)]);
  }
  const WarpCtx warp{*ctx_.simd, kSimdLanes};
  const auto run_range = [&](int b0, int b1) {
    for (int b = b0; b < b1; ++b) {
      BlockCtx ctx{b, cfg.num_blocks, profs[std::size_t(b)], warp};
      run_block(ctx);
    }
  };
  const int tasks = std::clamp(cfg.host_tasks, 1, cfg.num_blocks);
  if (tasks == 1) {
    run_range(0, cfg.num_blocks);
  } else {
    // Task t owns the contiguous block range [N*t/T, N*(t+1)/T) and runs
    // it in block order on one host thread.
    const std::int64_t n = cfg.num_blocks;
    ThreadPool& pool = host_pool_ ? *host_pool_ : globalThreadPool();
    pool.parallelFor(0, tasks, [&](int t) {
      run_range(int(n * t / tasks), int(n * (t + 1) / tasks));
    });
  }
  for (const KernelProfiler& p : profs) report.stats += p.stats();
  report.stats.launches = 1;
  report.stats.grid_blocks = cfg.num_blocks;
  report.time = modelKernelTime(dev_, report.stats, report.occupancy);

  int races_found = 0;
  std::size_t race_ranges = 0;
  if (race_on) {
    for (const BlockAccessLog& log : race_logs) race_ranges += log.size();
    races_found = race_.checkLaunch(cfg.name, race_logs);
  }

  total_stats_ += report.stats;
  total_seconds_ += report.time.total;
  NamedTotals& nt = per_kernel_[cfg.name];
  nt.stats += report.stats;
  nt.seconds += report.time.total;
  nt.launches += 1;

  if (inst_.launches) {
    inst_.launches->add();
    inst_.blocks->add(std::uint64_t(cfg.num_blocks));
    inst_.svb_access_bytes->add(std::uint64_t(report.stats.svb_access_bytes));
    inst_.svb_unique_bytes->add(std::uint64_t(report.stats.svb_unique_bytes));
    inst_.amatrix_access_bytes->add(
        std::uint64_t(report.stats.amatrix_access_bytes));
    inst_.flops->add(std::uint64_t(report.stats.flops));
    inst_.atomic_ops->add(std::uint64_t(report.stats.atomic_ops));
    inst_.occupancy->set(report.occupancy.fraction);
    inst_.modeled_seconds->observe(report.time.total);
    if (race_on) {
      inst_.race_launches_checked->add();
      inst_.race_ranges_checked->add(std::uint64_t(race_ranges));
      inst_.race_races_found->add(std::uint64_t(races_found));
    }
  }
  if (tracing) {
    const std::string span_name = "gsim.launch." + cfg.name;
    obs::TraceEvent host_ev;
    host_ev.name = span_name;
    host_ev.cat = "gsim";
    host_ev.clock = obs::Clock::kHost;
    host_ev.ts_us = host_t0_us;
    host_ev.dur_us = rec->trace().nowHostUs() - host_t0_us;
    fillLaunchArgs(host_ev, report);
    // How the blocks ran on the host, which only the host clock sees.
    host_ev.num_args.emplace_back("host_tasks", double(tasks));
    obs::TraceEvent dev_ev;
    dev_ev.name = span_name;
    dev_ev.cat = "gsim";
    dev_ev.clock = obs::Clock::kModeled;
    dev_ev.ts_us = modeled_t0_s * 1e6;
    dev_ev.dur_us = report.time.total * 1e6;
    fillLaunchArgs(dev_ev, report);
    ctx_.record(std::move(host_ev));
    ctx_.record(std::move(dev_ev));
    for (std::size_t b = 0; b < bspans.size(); ++b) {
      obs::TraceEvent bev;
      bev.name = "gsim.block." + cfg.name;
      bev.cat = "gsim.block";
      bev.clock = obs::Clock::kHost;
      bev.ts_us = bspans[b].t0_us;
      bev.dur_us = bspans[b].t1_us - bspans[b].t0_us;
      bev.tid = bspans[b].tid;
      bev.num_args = {{"block_idx", double(b)}};
      rec->trace().record(std::move(bev));
    }
  }
  // Diagnose after totals/metrics/trace so the launch stays observable even
  // when the diagnosis is fatal; the report (all diagnoses so far) remains
  // readable via raceDetector() from a catch block.
  if (races_found > 0 && race_.config().throw_on_race) {
    const std::vector<RaceReport>& races = race_.races();
    MBIR_CHECK_MSG(false, races.empty()
                              ? "race detected in kernel '" + cfg.name + "'"
                              : RaceDetector::describe(races.back()));
  }
  return report;
}

void GpuSimulator::resetTotals() {
  total_stats_ = KernelStats{};
  total_seconds_ = 0.0;
  per_kernel_.clear();
  // Race diagnoses are per-run state too; buffer registrations survive.
  race_.reset();
}

}  // namespace mbir::gsim
