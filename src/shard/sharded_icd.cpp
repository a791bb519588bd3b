#include "shard/sharded_icd.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/thread_pool.h"
#include "obs/obs.h"

namespace mbir::shard {

namespace {
/// View stripes of the error all-reduce kernel (single-writer per view).
constexpr int kReduceStripes = 8;
}  // namespace

struct ShardedGpuIcd::Impl {
  const Problem problem;  // by value: Problem is a non-owning view struct
  const ShardPlan plan;
  const ShardedOptions opt;
  const gsim::RunContext run_ctx;
  gsim::GpuSimulator exchange_sim;
  std::vector<std::unique_ptr<GpuIcd>> engines;
  // Steps each device's slabs, one task per simulated device. Slab
  // engines' kernel blocks run on the (distinct) host pool, so parallelFor
  // never nests on one pool.
  ThreadPool driver;

  // Per-slab private state: full image + error copies, refreshed by the
  // exchange. `snap` is the pre-iteration error baseline the reduce folds
  // deltas over.
  std::vector<Image2D> xs;
  std::vector<Sinogram> es;
  Sinogram snap;
  const std::size_t img_bytes, img_row_bytes, sino_bytes;

  // Modeled clocks, per device, and each slab engine's modeled time at the
  // last step.
  std::vector<double> device_clock, device_compute, prev_modeled;
  ShardRunStats stats;

  // Exchange-simulator race buffers (-1 = checking off). "shard.image" /
  // "shard.sino.e" are the shared assembly buffers; the per-slab entries
  // are each slab's private copies.
  int rb_image = -1, rb_sino = -1, rb_snap = -1;
  std::vector<int> rb_x, rb_e;

  // shard.* instruments (null = metrics off).
  obs::Counter* m_exchanges = nullptr;
  obs::Counter* m_comm_bytes = nullptr;
  obs::Counter* m_comm_transfers = nullptr;
  obs::Gauge* m_comm_seconds = nullptr;

  Impl(const Problem& p, ShardPlan pl, ShardedOptions o, const Image2D& x,
       const Sinogram& e, const gsim::RunContext& c)
      : problem(p),
        plan(std::move(pl)),
        opt(std::move(o)),
        run_ctx(c),
        exchange_sim(opt.engine.device, run_ctx),
        driver(unsigned(std::max(1, opt.devices))),  // checked below
        xs(std::size_t(plan.numSlabs()), x),
        es(std::size_t(plan.numSlabs()), e),
        snap(e),
        img_bytes(x.numVoxels() * sizeof(float)),
        img_row_bytes(std::size_t(x.size()) * sizeof(float)),
        sino_bytes(e.size() * sizeof(float)) {
    plan.validate();
    MBIR_CHECK_MSG(plan.image_size == p.A.geometry().image_size,
                   "plan image_size " << plan.image_size << " != problem "
                                      << p.A.geometry().image_size);
    MBIR_CHECK(x.size() == plan.image_size);
    MBIR_CHECK_MSG(opt.devices >= 1 && opt.devices <= plan.numSlabs(),
                   "devices=" << opt.devices << " for " << plan.numSlabs()
                              << " slabs");

    exchange_sim.setHostPool(opt.engine.host_pool);
    exchange_sim.setRaceCheck(opt.engine.race_check);
    if (exchange_sim.raceCheckOn()) {
      gsim::RaceDetector& rd = exchange_sim.raceDetector();
      rb_image = rd.bufferId("shard.image");
      rb_sino = rd.bufferId("shard.sino.e");
      rb_snap = rd.bufferId("shard.sino.snap");
      for (int s = 0; s < plan.numSlabs(); ++s) {
        const std::string tag = std::to_string(s);
        rb_x.push_back(rd.bufferId("shard.image/" + tag));
        rb_e.push_back(rd.bufferId("shard.sino.e/" + tag));
      }
    }
    if (run_ctx.recorder && run_ctx.recorder->metricsOn()) {
      obs::MetricsRegistry& m = run_ctx.recorder->metrics();
      m_exchanges = &m.counter("shard.exchange.count");
      m_comm_bytes = &m.counter("shard.comm.bytes");
      m_comm_transfers = &m.counter("shard.comm.transfers");
      m_comm_seconds = &m.gauge("shard.comm.seconds");
    }

    engines.reserve(std::size_t(plan.numSlabs()));
    for (int s = 0; s < plan.numSlabs(); ++s) {
      GpuIcdOptions eo = opt.engine;
      eo.seed = plan.seed;  // the seed is part of the plan contract
      eo.slab = SlabWindow{plan.slabs[std::size_t(s)].row0,
                           plan.slabs[std::size_t(s)].row1, plan.halo};
      // Fault events must form one deterministic, single-threaded sequence
      // for replay-by-index; only device 0's slabs (plus the exchange
      // simulator, above) carry the hook. Device 0's task steps its slabs
      // in order, and the exchange runs only after every task has joined.
      gsim::RunContext slab_ctx = run_ctx;
      if (s % opt.devices != 0) slab_ctx.fault_hook = nullptr;
      engines.push_back(
          std::make_unique<GpuIcd>(problem, std::move(eo), slab_ctx));
    }

    // Device count > 1 pays an initial broadcast of the image + error +
    // weights sinograms to every non-leader device (links in parallel, so
    // one transfer on the critical path).
    const int D = opt.devices;
    device_clock.assign(std::size_t(D), 0.0);
    device_compute.assign(std::size_t(D), 0.0);
    prev_modeled.assign(std::size_t(plan.numSlabs()), 0.0);
    if (D > 1) {
      const double bcast =
          gsim::transferSeconds(opt.link, img_bytes + 2 * sino_bytes);
      std::fill(device_clock.begin(), device_clock.end(), bcast);
      stats.comm_seconds += bcast;
      stats.comm_bytes += std::size_t(D - 1) * (img_bytes + 2 * sino_bytes);
      stats.comm_transfers += std::size_t(D - 1);
    }
  }

  /// Halo + error-all-reduce interconnect time for one exchange. Pure
  /// function of plan, device count and buffer sizes — host timing never
  /// leaks into the modeled clock. Adjacent cross-device slab pairs swap
  /// their halo rows concurrently (one link each, critical path = one
  /// pair; halo 0 sends nothing); the error sinogram is merged with a ring
  /// all-reduce.
  double iterationCommSeconds(std::size_t& bytes,
                              std::size_t& transfers) const {
    const int D = opt.devices;
    if (D == 1) return 0.0;
    double t = 0.0;
    const std::size_t halo_pair_bytes =
        2 * std::size_t(plan.halo) * img_row_bytes;
    bool any_cross = false;
    for (int s = 0; plan.halo > 0 && s + 1 < plan.numSlabs(); ++s) {
      if (s % D == (s + 1) % D) continue;  // same device: no link traffic
      any_cross = true;
      bytes += halo_pair_bytes;
      transfers += 2;
    }
    if (any_cross) t += gsim::transferSeconds(opt.link, halo_pair_bytes);
    // Ring all-reduce of the error sinogram: 2(D-1) steps of sino/D each;
    // total fabric traffic 2(D-1) * sino_bytes.
    t += 2.0 * double(D - 1) *
         gsim::transferSeconds(opt.link, sino_bytes / std::size_t(D));
    bytes += 2 * std::size_t(D - 1) * sino_bytes;
    transfers += 2 * std::size_t(D - 1);
    return t;
  }

  /// The halo exchange: three launches on the exchange simulator, each
  /// with per-launch disjoint declared accesses (blocks run concurrently on
  /// the device, so phases inside one launch would be unsafe). The copies
  /// run inline; the fold, a views x channels x S pass, runs one host task
  /// per stripe.
  /// Kernel 1 packs owned rows into the assembly image; kernel 2 folds the
  /// per-slab error deltas over the pre-iteration snapshot in slab order
  /// (view-striped, single writer per view); kernel 3 refreshes each
  /// slab's halo rows and hands every slab the merged sinogram.
  void runExchange(Image2D& x, Sinogram& e) {
    const int S = plan.numSlabs();
    const int n = x.size();
    const int views = e.views();
    const int channels = e.channels();

    gsim::LaunchConfig pack_cfg;
    pack_cfg.name = "shard.halo_pack";
    pack_cfg.num_blocks = S;
    pack_cfg.resources = {.threads_per_block = 256, .regs_per_thread = 16,
                          .smem_per_block_bytes = 0};
    exchange_sim.launch(pack_cfg, [&](gsim::BlockCtx& ctx) {
      const int s = ctx.block_idx;
      const SlabSpec& slab = plan.slabs[std::size_t(s)];
      const std::size_t lo = std::size_t(slab.row0) * std::size_t(n);
      const std::size_t hi = std::size_t(slab.row1) * std::size_t(n);
      std::memcpy(x.flat().data() + lo, xs[std::size_t(s)].flat().data() + lo,
                  (hi - lo) * sizeof(float));
      for (int r = slab.row0; r < slab.row1; ++r) {
        ctx.prof.svbAccess(n, 4, true, true);  // read slab copy
        ctx.prof.svbAccess(n, 4, true, true);  // write assembly
      }
      if (ctx.prof.raceCheckOn()) {
        ctx.prof.raceRead(rb_x[std::size_t(s)], std::int64_t(lo),
                          std::int64_t(hi));
        ctx.prof.raceWrite(rb_image, std::int64_t(lo), std::int64_t(hi));
        if (opt.plant_undeclared_halo_write && s == 0 && S > 1) {
          // Sabotage (test-only): model a kernel writing into the halo it
          // does not own. The trespass overlaps slab 1's declared owned
          // rows, so the detector must report a write-write conflict on
          // "shard.image" between blocks 0 and 1 of this kernel.
          const std::int64_t bad_hi = std::min<std::int64_t>(
              std::int64_t(n) * n,
              std::int64_t(slab.row1 + std::max(1, plan.halo)) * n);
          ctx.prof.raceWrite(rb_image, std::int64_t(hi), bad_hi);
        }
      }
    });

    gsim::LaunchConfig red_cfg;
    red_cfg.name = "shard.reduce_e";
    red_cfg.num_blocks = std::min(kReduceStripes, views);
    red_cfg.host_tasks = red_cfg.num_blocks;
    red_cfg.resources = {.threads_per_block = 256, .regs_per_thread = 16,
                         .smem_per_block_bytes = 0};
    exchange_sim.launch(red_cfg, [&](gsim::BlockCtx& ctx) {
      for (int v = ctx.block_idx; v < views; v += ctx.num_blocks) {
        float* out = e.row(v).data();
        const float* sn = snap.row(v).data();
        if (S == 1) {
          // One slab owns every voxel, so its error copy IS the merged
          // state. A straight copy (not the fold below) keeps this
          // bit-identical to the unsharded engine: float addition is not
          // associative, and snap + (e0 - snap) would perturb the bits.
          std::memcpy(out, es[0].row(v).data(),
                      std::size_t(channels) * sizeof(float));
        } else {
          // Fixed slab order makes the fold deterministic and
          // device-count-invariant. Exact in expectation because voxel
          // ownership is disjoint: each slab's delta is -A * (its own
          // voxel updates).
          for (int c = 0; c < channels; ++c) {
            float acc = sn[c];
            for (int s = 0; s < S; ++s)
              acc += es[std::size_t(s)].row(v)[c] - sn[c];
            out[c] = acc;
          }
        }
        for (int s = 0; s < S + 2; ++s)
          ctx.prof.svbAccess(channels, 4, true, true);
        ctx.prof.addFlops(2.0 * double(S) * channels);
        if (ctx.prof.raceCheckOn()) {
          const std::int64_t vlo = std::int64_t(v) * channels;
          const std::int64_t vhi = vlo + channels;
          ctx.prof.raceWrite(rb_sino, vlo, vhi);
          ctx.prof.raceRead(rb_snap, vlo, vhi);
          for (int s = 0; s < S; ++s)
            ctx.prof.raceRead(rb_e[std::size_t(s)], vlo, vhi);
        }
      }
    });

    gsim::LaunchConfig unpack_cfg;
    unpack_cfg.name = "shard.halo_unpack";
    unpack_cfg.num_blocks = S;
    unpack_cfg.resources = {.threads_per_block = 256, .regs_per_thread = 16,
                            .smem_per_block_bytes = 0};
    exchange_sim.launch(unpack_cfg, [&](gsim::BlockCtx& ctx) {
      const int s = ctx.block_idx;
      const SlabSpec& slab = plan.slabs[std::size_t(s)];
      Image2D& xl = xs[std::size_t(s)];
      const int h = plan.halo;
      const int lo_r0 = std::max(0, slab.row0 - h);
      const int hi_r1 = std::min(n, slab.row1 + h);
      const auto copy_rows = [&](int r0, int r1) {
        if (r0 >= r1) return;
        const std::size_t lo = std::size_t(r0) * std::size_t(n);
        const std::size_t cnt = std::size_t(r1 - r0) * std::size_t(n);
        std::memcpy(xl.flat().data() + lo, x.flat().data() + lo,
                    cnt * sizeof(float));
        for (int r = r0; r < r1; ++r) {
          ctx.prof.svbAccess(n, 4, true, true);
          ctx.prof.svbAccess(n, 4, true, true);
        }
        if (ctx.prof.raceCheckOn()) {
          ctx.prof.raceRead(rb_image, std::int64_t(lo),
                            std::int64_t(lo + cnt));
          ctx.prof.raceWrite(rb_x[std::size_t(s)], std::int64_t(lo),
                             std::int64_t(lo + cnt));
        }
      };
      copy_rows(lo_r0, slab.row0);   // halo rows below
      copy_rows(slab.row1, hi_r1);   // halo rows above
      Sinogram& el = es[std::size_t(s)];
      std::memcpy(el.flat().data(), e.flat().data(),
                  el.flat().size() * sizeof(float));
      for (int v = 0; v < views; ++v) {
        ctx.prof.svbAccess(channels, 4, true, true);
        ctx.prof.svbAccess(channels, 4, true, true);
      }
      if (ctx.prof.raceCheckOn()) {
        const std::int64_t sino_n = std::int64_t(views) * channels;
        ctx.prof.raceRead(rb_sino, 0, sino_n);
        ctx.prof.raceWrite(rb_e[std::size_t(s)], 0, sino_n);
      }
    });

    // Next iteration's delta baseline (host bookkeeping, no modeled time:
    // a real deployment keeps the snapshot on-device as a side effect of
    // the all-reduce).
    snap = e;
  }
};

ShardedGpuIcd::ShardedGpuIcd(const Problem& problem, ShardPlan plan,
                             ShardedOptions opt, const Image2D& x,
                             const Sinogram& e, const gsim::RunContext& ctx)
    : impl_(std::make_unique<Impl>(problem, std::move(plan), std::move(opt),
                                   x, e, ctx)) {}

ShardedGpuIcd::~ShardedGpuIcd() = default;

const ShardPlan& ShardedGpuIcd::plan() const { return impl_->plan; }
gsim::GpuSimulator& ShardedGpuIcd::exchangeSimulator() {
  return impl_->exchange_sim;
}
const gsim::RaceDetector& ShardedGpuIcd::slabRaceDetector(int s) const {
  return impl_->engines[std::size_t(s)]->raceDetector();
}
const ShardRunStats& ShardedGpuIcd::runStats() const { return impl_->stats; }

bool ShardedGpuIcd::stepIteration(Image2D& x, Sinogram& e) {
  Impl& im = *impl_;
  MBIR_CHECK(x.size() == im.plan.image_size);
  const int S = im.plan.numSlabs();
  const int D = im.opt.devices;
  ShardRunStats& stats = im.stats;

  // Fork: each device steps its slabs (slab s -> device s % D) in slab
  // order. Join before anything below reads the slab state.
  std::vector<double> compute_delta(std::size_t(D), 0.0);
  im.driver.parallelFor(0, D, [&](int d) {
    for (int s = d; s < S; s += D) {
      GpuIcd& eng = *im.engines[std::size_t(s)];
      eng.stepIteration(im.xs[std::size_t(s)], im.es[std::size_t(s)]);
      const double m = eng.runStats().modeled_seconds;
      compute_delta[std::size_t(d)] += m - im.prev_modeled[std::size_t(s)];
      im.prev_modeled[std::size_t(s)] = m;
    }
  });

  ++stats.iterations;
  for (int d = 0; d < D; ++d) {
    im.device_clock[std::size_t(d)] += compute_delta[std::size_t(d)];
    im.device_compute[std::size_t(d)] += compute_delta[std::size_t(d)];
  }
  const double sync =
      *std::max_element(im.device_clock.begin(), im.device_clock.end());

  const double ex0 = im.exchange_sim.totalModeledSeconds();
  im.runExchange(x, e);
  const double ex_delta = im.exchange_sim.totalModeledSeconds() - ex0;

  std::size_t bytes = 0, transfers = 0;
  const double comm = im.iterationCommSeconds(bytes, transfers);
  const double after = sync + ex_delta + comm;
  std::fill(im.device_clock.begin(), im.device_clock.end(), after);

  ++stats.exchanges;
  stats.comm_seconds += comm;
  stats.comm_bytes += bytes;
  stats.comm_transfers += transfers;
  stats.modeled_seconds = after;
  if (im.m_exchanges) {
    im.m_exchanges->add();
    im.m_comm_bytes->add(bytes);
    im.m_comm_transfers->add(transfers);
    im.m_comm_seconds->set(stats.comm_seconds);
  }
  if (im.run_ctx.tracing() && comm > 0.0) {
    obs::TraceEvent ev;
    ev.name = "shard.transfer";
    ev.cat = "shard";
    ev.clock = obs::Clock::kModeled;
    ev.ts_us = (sync + ex_delta) * 1e6;
    ev.dur_us = comm * 1e6;
    ev.num_args = {{"iteration", double(stats.iterations)},
                   {"bytes", double(bytes)},
                   {"transfers", double(transfers)},
                   {"devices", double(D)}};
    ev.str_args = {{"link", im.opt.link.name}};
    im.run_ctx.record(std::move(ev));
  }

  std::size_t updates = 0;
  for (const auto& eng : im.engines)
    updates += eng->runStats().work.voxel_updates;
  stats.equits = double(updates) / double(x.numVoxels());
  return true;
}

const ShardRunStats& ShardedGpuIcd::finish() {
  Impl& im = *impl_;
  ShardRunStats& stats = im.stats;

  // Final device-to-host gather of the assembled image.
  double final_clock =
      *std::max_element(im.device_clock.begin(), im.device_clock.end());
  if (im.opt.devices > 1) {
    const double gather = gsim::transferSeconds(im.opt.link, im.img_bytes);
    final_clock += gather;
    stats.comm_seconds += gather;
    stats.comm_bytes += im.img_bytes;
    stats.comm_transfers += 1;
  }
  stats.modeled_seconds = final_clock;
  stats.compute_seconds =
      *std::max_element(im.device_compute.begin(), im.device_compute.end());
  stats.exchange_seconds = im.exchange_sim.totalModeledSeconds();

  stats.kernels_launched = 3 * stats.exchanges;
  for (const auto& eng : im.engines) {
    stats.work += eng->runStats().work;
    stats.kernels_launched += eng->runStats().kernels_launched;
  }

  const auto add_race = [&](const gsim::RaceDetector& rd) {
    stats.race_check_enabled = stats.race_check_enabled || rd.config().enabled;
    const gsim::RaceCheckTotals t = rd.totals();
    stats.race_launches_checked += t.launches_checked;
    stats.race_ranges_checked += t.ranges_checked;
    stats.race_reports += t.races_found;
  };
  add_race(im.exchange_sim.raceDetector());
  for (const auto& eng : im.engines) add_race(eng->raceDetector());
  return stats;
}

}  // namespace mbir::shard
