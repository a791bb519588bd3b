#include "psv/psv_icd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "icd/update_order.h"
#include "obs/obs.h"
#include "icd/voxel_update.h"
#include "prior/neighborhood.h"
#include "sv/svb.h"

namespace mbir {

namespace {

// Adjacent SVs share boundary voxels. The SVs one wave updates at once come
// from one checkerboard group, so none of them writes a voxel another one
// touches while sv_side > 2 * boundary_overlap; below that, a prior ring
// can reach into a concurrent SV. Image accesses on the parallel path go
// through relaxed atomics so that case stays well-defined.
float loadX(Image2D& x, int row, int col) {
  return std::atomic_ref<float>(x(row, col)).load(std::memory_order_relaxed);
}
void addX(Image2D& x, int row, int col, float delta) {
  std::atomic_ref<float> ref(x(row, col));
  ref.store(ref.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

bool zeroSkipRelaxed(Image2D& x, int row, int col) {
  if (loadX(x, row, col) != 0.0f) return false;
  const int n = x.size();
  for (const NeighborOffset& nb : neighborhood8()) {
    const int r = row + nb.dr, c = col + nb.dc;
    if (r < 0 || r >= n || c < 0 || c >= n) continue;
    if (loadX(x, r, c) != 0.0f) return false;
  }
  return true;
}

/// solveDelta (icd/voxel_update.h) with relaxed image loads.
float solveDeltaRelaxed(const Prior& prior, Image2D& x, int row, int col,
                        const ThetaPair& theta) {
  const float xv = loadX(x, row, col);
  double num = theta.theta1;
  double den = theta.theta2;
  const int n = x.size();
  for (const NeighborOffset& nb : neighborhood8()) {
    const int r = row + nb.dr, c = col + nb.dc;
    if (r < 0 || r >= n || c < 0 || c >= n) continue;
    const double u = double(xv) - double(loadX(x, r, c));
    num += nb.b * prior.influence(u);
    den += 2.0 * nb.b * prior.surrogateCoeff(u);
  }
  if (den <= 0.0) return 0.0f;
  return float(std::max(-num / den, -double(xv)));
}

/// theta1/theta2 against packed SVBs (Alg. 1 lines 3-6, SVB-local). Rows
/// execute as lane groups: per-lane accumulators carried across views,
/// reduced in fixed lane order at the end (core/simd.h canonical
/// semantics) — identical bits on the scalar and AVX2 paths.
ThetaPair computeThetaSvb(const SystemMatrix& A, const Svb& e_svb,
                          const Svb& w_svb, std::size_t voxel,
                          std::size_t& elements, const SimdOps& ops) {
  ThetaLanes lanes;
  lanes.reset();
  const SvbPlan& plan = e_svb.plan();
  for (int v = 0; v < A.numViews(); ++v) {
    const SystemMatrix::Run& r = A.run(voxel, v);
    if (r.count == 0) continue;
    const auto aw = A.weights(voxel, v);
    const int start = int(r.first_channel) - plan.lo(v);
    ops.theta_row_f(aw.data(), e_svb.rowData(v) + start,
                    w_svb.rowData(v) + start, int(aw.size()), lanes);
    elements += aw.size();
  }
  ThetaPair t;
  t.theta1 = reduceLanes(lanes.t1);
  t.theta2 = reduceLanes(lanes.t2);
  return t;
}

/// e_svb -= A[voxel] * delta (Alg. 1 lines 9-11, SVB-local).
void applyErrorUpdateSvb(const SystemMatrix& A, Svb& e_svb, std::size_t voxel,
                         float delta, std::size_t& elements,
                         const SimdOps& ops) {
  if (delta == 0.0f) return;
  const SvbPlan& plan = e_svb.plan();
  for (int v = 0; v < A.numViews(); ++v) {
    const SystemMatrix::Run& r = A.run(voxel, v);
    if (r.count == 0) continue;
    const auto aw = A.weights(voxel, v);
    float* erow = e_svb.rowData(v) + (int(r.first_channel) - plan.lo(v));
    ops.err_row_f(aw.data(), delta, erow, int(aw.size()));
    elements += aw.size();
  }
}

}  // namespace

struct PsvIcd::Impl {
  /// One in-flight SV of the current wave: its private SVBs stay alive
  /// until the wave's ordered writeback.
  struct SvSweep {
    std::optional<Svb> e_svb, e_orig;
    WorkCounters wc;
    double magnitude = 0.0;
  };

  const Problem problem;  // by value: Problem is a non-owning view struct
  const PsvIcdOptions opt;
  const gsim::RunContext run_ctx;
  const SvGrid grid;
  const SimdOps& simd_ops;
  /// One SVB plan per SV, reused across iterations (band depends only on
  /// geometry).
  std::vector<SvbPlan> plans;
  Rng rng;
  std::vector<double> magnitude;
  std::vector<SvSweep> wave;  ///< one slot per pool thread: the wave width
  /// Independent per-SV RNG streams, drawn up front each iteration (in
  /// selection order) for determinism under dynamic scheduling.
  std::vector<std::uint64_t> seeds;
  // Standalone race detector (PSV does not run through GpuSimulator): each
  // iteration's concurrent SV sweeps form one logical launch.
  gsim::RaceDetector race;
  int rb_image = -1, rb_sino_e = -1;
  obs::Counter* m_iterations = nullptr;
  obs::Counter* m_svs = nullptr;
  obs::Counter* m_locks = nullptr;
  PsvRunStats stats;
  // Last, so its workers are joined before the state they sweep goes.
  std::optional<ThreadPool> local_pool;
  ThreadPool* pool = nullptr;

  Impl(const Problem& p, PsvIcdOptions o, const gsim::RunContext& c)
      : problem(p),
        opt(o),
        run_ctx(c),
        grid(p.A.geometry().image_size, o.sv),
        simd_ops(c.simdTable()),
        rng(o.seed),
        magnitude(std::size_t(grid.count()), 0.0),
        seeds(std::size_t(grid.count())),
        race(o.race_check) {
    problem.validate();
    MBIR_CHECK(opt.sv_fraction > 0.0 && opt.sv_fraction <= 1.0);
    plans.reserve(std::size_t(grid.count()));
    for (int i = 0; i < grid.count(); ++i)
      plans.emplace_back(p.A.geometry(), grid.sv(i));
    if (opt.num_threads > 0) local_pool.emplace(opt.num_threads);
    pool = local_pool ? &*local_pool : &globalThreadPool();
    wave.resize(std::max<std::size_t>(1, pool->size()));
    obs::Recorder* rec = run_ctx.recorder;
    if (rec && rec->metricsOn()) {
      obs::MetricsRegistry& m = rec->metrics();
      m_iterations = &m.counter("psv.iteration.count");
      m_svs = &m.counter("psv.sv.processed");
      m_locks = &m.counter("psv.lock.acquisitions");
    }
    stats.race_check_enabled = race.config().enabled;
    if (stats.race_check_enabled) {
      rb_image = race.bufferId("image");
      rb_sino_e = race.bufferId("sino.e");
    }
  }

  // Alg. 2's per-SV body: gather the SVBs, sweep the SV's voxels serially
  // against them. The writeback happens once the whole wave is done.
  void sweepSv(int sv_id, SvSweep& sweep, Image2D& x, const Sinogram& e) {
    const SystemMatrix& A = problem.A;
    const int image_size = x.size();
    const SuperVoxel& sv = grid.sv(sv_id);
    const SvbPlan& plan = plans[std::size_t(sv_id)];
    WorkCounters& wc = sweep.wc;
    wc = WorkCounters{};

    Svb w_svb(plan, SvbLayout::kPacked);
    w_svb.gather(problem.weights);
    // No writer touches e until the wave's writeback; the counted lock
    // stands for Alg. 2's locked gather in the CPU timing model.
    Svb& e_svb = sweep.e_svb.emplace(plan, SvbLayout::kPacked);
    e_svb.gather(e);
    ++wc.lock_acquisitions;
    Svb& e_orig = sweep.e_orig.emplace(plan, SvbLayout::kPacked);
    std::memcpy(e_orig.raw().data(), e_svb.raw().data(),
                e_svb.raw().size() * sizeof(float));
    // weights gather + error gather + original-error copy
    wc.svb_gather_elements += 3 * e_svb.raw().size();

    Rng sv_rng(seeds[std::size_t(sv_id)]);
    std::vector<int> order(std::size_t(sv.numVoxels()));
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = int(k);
    if (opt.randomize_voxel_order) sv_rng.shuffle(order);

    double mag_acc = 0.0;
    for (int k : order) {
      const int row = sv.row0 + k / sv.numCols();
      const int col = sv.col0 + k % sv.numCols();
      ++wc.voxels_visited;
      if (opt.zero_skip && zeroSkipRelaxed(x, row, col)) continue;
      const std::size_t voxel =
          std::size_t(row) * std::size_t(image_size) + std::size_t(col);
      const ThetaPair theta = computeThetaSvb(A, e_svb, w_svb, voxel,
                                              wc.theta_elements, simd_ops);
      const float delta = solveDeltaRelaxed(problem.prior, x, row, col, theta);
      addX(x, row, col, delta);
      applyErrorUpdateSvb(A, e_svb, voxel, delta, wc.error_update_elements,
                          simd_ops);
      mag_acc += std::abs(double(delta));
      ++wc.voxel_updates;
    }
    sweep.magnitude = mag_acc;
  }

  void checkRaces(const std::vector<int>& selected, int image_size) {
    // Declarations derive from static geometry, so they are built
    // host-side after the sweep rather than inside the workers. Per SV
    // "block": image rect + clamped read ring, all atomic (every image
    // access above goes through std::atomic_ref — adjacent SVs of one
    // iteration share boundary voxels); the wave-ordered global-sinogram
    // gather/writeback as atomic over the SV's band; the private SVBs as
    // plain writes. A write/anything diagnosis therefore means an SVB
    // stopped being private or an image access bypassed the atomics.
    const int channels = problem.A.numChannels();
    std::vector<gsim::BlockAccessLog> logs(selected.size());
    for (std::size_t si = 0; si < selected.size(); ++si) {
      const int sv_id = selected[si];
      const SuperVoxel& sv = grid.sv(sv_id);
      const SvbPlan& plan = plans[std::size_t(sv_id)];
      const int rr0 = std::max(0, sv.row0 - 1);
      const int rr1 = std::min(image_size, sv.row1 + 1);
      const int rc0 = std::max(0, sv.col0 - 1);
      const int rc1 = std::min(image_size, sv.col1 + 1);
      for (int r = rr0; r < rr1; ++r)
        logs[si].atomic(rb_image, std::int64_t(r) * image_size + rc0,
                        std::int64_t(r) * image_size + rc1);
      for (int v = 0; v < plan.numViews(); ++v) {
        const int w = plan.width(v);
        if (w == 0) continue;
        const std::int64_t glo = std::int64_t(v) * channels + plan.lo(v);
        logs[si].atomic(rb_sino_e, glo, glo + w);
      }
      logs[si].write(race.bufferId("svb/" + std::to_string(sv_id)), 0,
                     plan.numViews());
    }
    const int found = race.checkLaunch("psv_sweep", logs);
    if (found > 0 && race.config().throw_on_race)
      MBIR_CHECK_MSG(false, gsim::RaceDetector::describe(race.races().back()));
  }
};

PsvIcd::PsvIcd(const Problem& problem, PsvIcdOptions options,
               const gsim::RunContext& ctx)
    : impl_(std::make_unique<Impl>(problem, std::move(options), ctx)) {}

PsvIcd::~PsvIcd() = default;

const PsvRunStats& PsvIcd::runStats() const { return impl_->stats; }

bool PsvIcd::stepIteration(Image2D& x, Sinogram& e) {
  Impl& im = *impl_;
  MBIR_CHECK(x.size() == im.problem.A.geometry().image_size);
  PsvRunStats& stats = im.stats;
  const int iter = stats.iterations + 1;
  obs::Recorder* rec = im.run_ctx.recorder;
  const bool tracing = rec && rec->traceOn();

  const double iter_host_us = tracing ? rec->trace().nowHostUs() : 0.0;
  const std::size_t iter_locks0 = stats.work.lock_acquisitions;
  const std::vector<int> selected =
      selectSuperVoxels(iter, std::size_t(im.grid.count()), im.magnitude,
                        im.opt.sv_fraction, im.rng);

  for (int sv_id : selected) im.seeds[std::size_t(sv_id)] = im.rng.next();

  // The selected SVs run in waves of up to one SV per thread. Every SV of
  // a wave gathers the error sinogram as the previous wave left it, and
  // the wave writes its SVB deltas back in order once all of its sweeps
  // are done; a wave's SVs come from one checkerboard group, so they
  // share no voxels. ICD diverges when adjacent, coupled SVs correct the
  // same residual from one stale snapshot, and without waves how many
  // did so would depend on how the OS happened to schedule the threads.
  // One thread keeps the selection order.
  const std::size_t wave_width = im.wave.size();
  std::vector<std::vector<int>> lanes;
  if (wave_width == 1) {
    lanes.push_back(selected);
  } else {
    for (std::vector<int>& group : im.grid.checkerboardGroups(selected))
      lanes.push_back(std::move(group));
  }
  for (const std::vector<int>& lane : lanes) {
    for (std::size_t w0 = 0; w0 < lane.size(); w0 += wave_width) {
      const std::size_t w1 = std::min(lane.size(), w0 + wave_width);
      im.pool->parallelFor(int(w0), int(w1), [&](int si) {
        im.sweepSv(lane[std::size_t(si)], im.wave[std::size_t(si) - w0], x, e);
      });
      // Alg. 2's locked writeback, applied in lane order so the global
      // error sinogram's rounding does not depend on thread timing.
      for (std::size_t si = w0; si < w1; ++si) {
        Impl::SvSweep& sweep = im.wave[si - w0];
        WorkCounters& wc = sweep.wc;
        sweep.e_svb->applyDeltaTo(e, *sweep.e_orig, &im.simd_ops);
        ++wc.lock_acquisitions;
        wc.svb_writeback_elements += sweep.e_svb->raw().size();
        ++wc.svs_processed;
        im.magnitude[std::size_t(lane[si])] = sweep.magnitude;
        stats.work += wc;
        sweep.e_svb.reset();
        sweep.e_orig.reset();
      }
    }
  }
  if (stats.race_check_enabled) im.checkRaces(selected, x.size());

  stats.iterations = iter;
  stats.equits = double(stats.work.voxel_updates) / double(x.numVoxels());
  const gsim::RaceCheckTotals race_totals = im.race.totals();
  stats.race_launches_checked = race_totals.launches_checked;
  stats.race_ranges_checked = race_totals.ranges_checked;
  stats.race_reports = race_totals.races_found;
  if (im.m_iterations) {
    im.m_iterations->add();
    im.m_svs->add(std::uint64_t(selected.size()));
    im.m_locks->add(
        std::uint64_t(stats.work.lock_acquisitions - iter_locks0));
  }
  if (tracing) {
    obs::TraceEvent ev;
    ev.name = "psv.iteration";
    ev.cat = "psv";
    ev.clock = obs::Clock::kHost;
    ev.ts_us = iter_host_us;
    ev.dur_us = rec->trace().nowHostUs() - iter_host_us;
    ev.num_args = {{"iteration", double(iter)},
                   {"selected_svs", double(selected.size())},
                   {"equits", stats.equits}};
    im.run_ctx.record(std::move(ev));
  }
  return true;
}

}  // namespace mbir
