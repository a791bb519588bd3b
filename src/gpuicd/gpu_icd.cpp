#include "gpuicd/gpu_icd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gpuicd/conflicts.h"
#include "obs/obs.h"
#include "gsim/occupancy.h"
#include "icd/update_order.h"
#include "icd/voxel_update.h"
#include "prior/neighborhood.h"
#include "sv/chunks.h"
#include "sv/svb.h"

namespace mbir {

namespace {

/// Everything one batch needs while its three kernels run.
struct BatchSv {
  int sv_id;
  const SvbPlan* plan;
  // Borrowed from the matrix's plan store for the batch's lifetime; null
  // for the naive layout.
  std::shared_ptr<const ChunkPlan> chunks;
  std::unique_ptr<Svb> e_svb;
  std::unique_ptr<Svb> e_orig;
  std::unique_ptr<Svb> w_svb;
  // Race-check buffer ids of this SV's private SVBs, resolved host-side in
  // runBatch (kernel code must not mutate the detector's registry
  // concurrently). -1 when checking is off. SVB buffers are declared at
  // view-row granularity: element v = the SVB's row for view v.
  int rb_e = -1, rb_eorig = -1, rb_w = -1;
};

/// Grid scale of the SVB-generation and writeback kernels (blocks per SV).
constexpr int kAuxBlocksPerSv = 8;

}  // namespace

struct GpuIcd::Impl {
  const Problem problem;  // by value: Problem is a non-owning view struct
  GpuIcdOptions opt;
  const gsim::RunContext run_ctx;
  SvGrid grid;
  gsim::GpuSimulator sim;
  std::vector<SvbPlan> plans;
  std::vector<double> magnitude;

  // gpuicd.* instruments (null = metrics off), resolved once at
  // construction so the batch path does no registry lookups.
  obs::Counter* m_cache_hits = nullptr;
  obs::Counter* m_cache_misses = nullptr;
  obs::Counter* m_batches = nullptr;
  obs::Counter* m_batches_skipped = nullptr;
  obs::Counter* m_iterations = nullptr;

  // Race-check buffer ids of the shared global buffers (-1 = checking off).
  // Image elements are flat row-major voxel indices; sinogram elements are
  // view * num_channels + channel.
  int rb_image = -1, rb_sino_e = -1, rb_sino_w = -1;

  // Slab window (multi-device sharding): only rows in [upd_row0, upd_row1)
  // are updated and only SVs intersecting that window are selectable. With
  // no slab the window is the whole image.
  int upd_row0 = 0, upd_row1 = 0;
  std::vector<int> owned_svs;

  // Run state: one engine object is one run.
  Rng run_rng;
  GpuRunStats run_stats;

  Impl(const Problem& p, GpuIcdOptions o, const gsim::RunContext& c)
      : problem(p),
        opt(std::move(o)),
        run_ctx(c),
        grid(p.A.geometry().image_size, opt.tunables.sv),
        sim(opt.device, run_ctx),
        run_rng(opt.seed) {
    problem.validate();
    opt.tunables.validate();
    sim.setHostPool(opt.host_pool);
    sim.setRaceCheck(opt.race_check);
    if (sim.raceCheckOn()) {
      gsim::RaceDetector& rd = sim.raceDetector();
      rb_image = rd.bufferId("image");
      rb_sino_e = rd.bufferId("sino.e");
      rb_sino_w = rd.bufferId("sino.w");
    }
    if (run_ctx.recorder && run_ctx.recorder->metricsOn()) {
      obs::MetricsRegistry& m = run_ctx.recorder->metrics();
      m_cache_hits = &m.counter("gpuicd.chunk_cache.hits");
      m_cache_misses = &m.counter("gpuicd.chunk_cache.misses");
      m_batches = &m.counter("gpuicd.batch.count");
      m_batches_skipped = &m.counter("gpuicd.batch.skipped_by_threshold");
      m_iterations = &m.counter("gpuicd.iteration.count");
    }
    plans.reserve(std::size_t(grid.count()));
    for (int i = 0; i < grid.count(); ++i)
      plans.emplace_back(p.A.geometry(), grid.sv(i));
    // Start every SV "hot" so SVs a threshold-skipped batch left behind
    // still rank top on magnitude-driven iterations.
    magnitude.assign(std::size_t(grid.count()), 1e30);

    const int n = p.A.geometry().image_size;
    upd_row1 = n;
    if (opt.slab.enabled()) {
      MBIR_CHECK(opt.slab.row0 >= 0 && opt.slab.row1 <= n);
      MBIR_CHECK(opt.slab.halo >= 0);
      // halo == 0 means no neighbour rows are ever refreshed, so updates
      // must keep one row clear of interior boundaries (a voxel update
      // reads a 1-voxel ring); halo >= 1 refreshes the ring each exchange
      // and every owned row is updatable.
      const int shrink = std::max(0, 1 - opt.slab.halo);
      upd_row0 = opt.slab.row0 == 0 ? 0 : opt.slab.row0 + shrink;
      upd_row1 = opt.slab.row1 == n ? n : opt.slab.row1 - shrink;
      upd_row1 = std::max(upd_row0, upd_row1);
    }
    // SVs intersecting the window, in index order: every SV when the
    // window is the whole image.
    for (int i = 0; i < grid.count(); ++i) {
      const SuperVoxel& sv = grid.sv(i);
      if (sv.row1 > upd_row0 && sv.row0 < upd_row1) owned_svs.push_back(i);
    }
  }

  bool rowUpdatable(int row) const {
    return row >= upd_row0 && row < upd_row1;
  }

  int effectiveTbPerSv() const {
    return opt.flags.exploit_intra_sv ? opt.tunables.threadblocks_per_sv : 1;
  }

  gsim::KernelResources updateKernelResources() const {
    const KernelFootprint fp = updateKernelFootprint(opt.flags);
    gsim::KernelResources res;
    res.threads_per_block = opt.tunables.threads_per_block;
    res.regs_per_thread = fp.regs_per_thread;
    res.smem_per_block_bytes =
        fp.smem_bytes_per_thread * std::size_t(opt.tunables.threads_per_block);
    return res;
  }

  /// SVs whose SVBs are resident concurrently, for the L2 capacity model.
  int concurrentSvs(int batch_svs) const {
    const gsim::Occupancy occ =
        computeOccupancy(opt.device, updateKernelResources());
    const int resident_blocks = opt.device.num_smm * occ.blocks_per_smm;
    const int svs = std::max(1, resident_blocks / effectiveTbPerSv());
    return std::min(svs, batch_svs);
  }

  // ---- Kernel 1: SVB generation (Alg. 3 line 28) ----
  void launchSvbGen(std::vector<BatchSv>& batch, const Sinogram& e) {
    gsim::LaunchConfig cfg;
    cfg.name = "svb_gen";
    cfg.num_blocks = int(batch.size()) * kAuxBlocksPerSv;
    cfg.resources = {.threads_per_block = 256, .regs_per_thread = 24,
                     .smem_per_block_bytes = 0};
    sim.launch(cfg, [&](gsim::BlockCtx& ctx) {
      // Block group [sv * kAuxBlocksPerSv, ...) serves batch SV `sv`; the
      // group's first block owns the allocation + gather (a per-SV private
      // buffer, so groups never conflict), and the group stripes the view
      // rows for accounting.
      BatchSv& b = batch[std::size_t(ctx.block_idx / kAuxBlocksPerSv)];
      const int sub = ctx.block_idx % kAuxBlocksPerSv;
      if (sub == 0) {
        const SvbLayout layout = opt.flags.transformed_layout
                                     ? SvbLayout::kPadded
                                     : SvbLayout::kPacked;
        b.e_svb = std::make_unique<Svb>(*b.plan, layout);
        b.e_svb->gather(e);
        b.e_orig = std::make_unique<Svb>(*b.plan, layout);
        std::memcpy(b.e_orig->raw().data(), b.e_svb->raw().data(),
                    b.e_svb->raw().size() * sizeof(float));
        b.w_svb = std::make_unique<Svb>(*b.plan, layout);
        b.w_svb->gather(problem.weights);
      }
      // Accounting: per view row — read global e, write e_svb + e_orig,
      // read global w, write w_svb (5 streams). Race declarations mirror
      // the device kernel's striping: block `sub` owns view rows
      // v ≡ sub (mod kAuxBlocksPerSv), so same-SV blocks write disjoint
      // SVB rows and only *read* the shared global sinogram.
      const int channels = problem.A.numChannels();
      for (int v = sub; v < b.plan->numViews(); v += kAuxBlocksPerSv) {
        const int w = b.plan->width(v);
        if (w == 0) continue;
        ctx.prof.svbAccess(w, 4, /*aligned=*/false, /*as_double=*/true);
        ctx.prof.svbAccess(w, 4, true, true);
        ctx.prof.svbAccess(w, 4, true, true);
        ctx.prof.svbAccess(w, 4, false, true);
        ctx.prof.svbAccess(w, 4, true, true);
        if (ctx.prof.raceCheckOn()) {
          const std::int64_t glo =
              std::int64_t(v) * channels + b.plan->lo(v);
          ctx.prof.raceRead(rb_sino_e, glo, glo + w);
          ctx.prof.raceRead(rb_sino_w, glo, glo + w);
          ctx.prof.raceWrite(b.rb_e, v, v + 1);
          ctx.prof.raceWrite(b.rb_eorig, v, v + 1);
          ctx.prof.raceWrite(b.rb_w, v, v + 1);
        }
      }
    });
  }

  // ---- Kernel 2: the MBIR update kernel (Alg. 3, MBIR_GPU_Kernel) ----
  void launchUpdateKernel(std::vector<BatchSv>& batch, int iter, Image2D& x,
                          GpuRunStats& stats) {
    const OptimFlags& fl = opt.flags;
    const int tb_per_sv = effectiveTbPerSv();

    gsim::LaunchConfig cfg;
    cfg.name = "mbir_update";
    cfg.num_blocks = int(batch.size()) * tb_per_sv;
    // One host task per SV: only the group's first block carries work.
    cfg.host_tasks = int(batch.size());
    cfg.resources = updateKernelResources();

    // L2 working set: SVBs (e + w) of concurrently resident SVs plus a
    // slice of chunk descriptors.
    double svb_bytes_mean = 0.0;
    for (const BatchSv& b : batch)
      svb_bytes_mean += 2.0 * double(b.plan->paddedSize()) * 4.0;
    svb_bytes_mean /= double(batch.size());
    const double working_set =
        svb_bytes_mean * double(concurrentSvs(int(batch.size())));

    // Per-SV outputs, merged in batch order after the launch so the totals
    // do not depend on block completion order.
    std::vector<WorkCounters> sv_work(batch.size());
    std::vector<double> sv_mag(batch.size(), 0.0);

    sim.launch(cfg, [&](gsim::BlockCtx& ctx) {
      // Block group [sv * tb_per_sv, ...) serves batch SV `sv` (Alg. 3's
      // consecutive-threadblock assignment). The group's first block
      // carries the SV's functional sweep; the other blocks' effect is
      // modeled through the intra-SV conflict multiplier and the imbalance
      // factor. Concurrent SVs belong to one checkerboard group and are
      // therefore non-adjacent: a voxel update writes only its own SV and
      // reads at most a 1-voxel ring around it, which can only reach into
      // *adjacent* SVs — never into another SV of the same group — so
      // concurrent sweeps share no mutable image state.
      if (ctx.block_idx % tb_per_sv != 0) return;
      const std::size_t bi = std::size_t(ctx.block_idx / tb_per_sv);
      BatchSv& b = batch[bi];
      ctx.prof.setAmatrixViaTexture(fl.amatrix_via_texture);
      ctx.prof.setL2WorkingSet(working_set);
      if (ctx.prof.raceCheckOn()) {
        // The checkerboard claim under check: an SV sweep writes only its
        // own rect and reads at most a 1-voxel ring around it, so blocks
        // of one launch (= one checkerboard group) must not overlap. The
        // SV's private SVBs see one declaring block per launch (the
        // group's other blocks share them through atomics the functional
        // sweep also models), so they cannot conflict here by design.
        const SuperVoxel& sv = grid.sv(b.sv_id);
        const int n = x.size();
        // Slab-clipped write rect: rows outside the updatable window are
        // skipped by the sweep, so they are read-only halo state here.
        // With the slab disabled the clip is the SV rect, unchanged.
        const int wr0 = std::max(sv.row0, upd_row0);
        const int wr1 = std::min(sv.row1, upd_row1);
        for (int r = wr0; r < wr1; ++r)
          ctx.prof.raceWrite(rb_image, std::int64_t(r) * n + sv.col0,
                             std::int64_t(r) * n + sv.col1);
        const int rr0 = std::max(0, wr0 - 1);
        const int rr1 = std::min(n, wr1 + 1);
        const int rc0 = std::max(0, sv.col0 - 1);
        const int rc1 = std::min(n, sv.col1 + 1);
        for (int r = rr0; r < rr1; ++r)
          ctx.prof.raceRead(rb_image, std::int64_t(r) * n + rc0,
                            std::int64_t(r) * n + rc1);
        ctx.prof.raceAtomic(b.rb_e, 0, b.plan->numViews());
        ctx.prof.raceRead(b.rb_w, 0, b.plan->numViews());
      }
      // Per-SV RNG stream: reproducible for any block schedule, unlike a
      // shared generator threaded through the batch.
      Rng sv_rng = Rng::forStream(opt.seed, std::uint64_t(iter),
                                  std::uint64_t(b.sv_id));
      if (fl.transformed_layout)
        processSvTransformed(b, x, sv_rng, ctx.prof, ctx.warp.ops,
                             sv_work[bi], sv_mag[bi]);
      else
        processSvNaive(b, x, sv_rng, ctx.prof, ctx.warp.ops, sv_work[bi],
                       sv_mag[bi]);
    });

    for (std::size_t i = 0; i < batch.size(); ++i) {
      stats.work += sv_work[i];
      magnitude[std::size_t(batch[i].sv_id)] = sv_mag[i];
    }
  }

  /// One SV's voxel sweep against the padded SVB + A-chunks. Runs inside
  /// one simulated block; everything it mutates (x inside the SV, the SV's
  /// SVBs, `work`, `mag`) is private to that block during the launch.
  /// Each pass walks whole chunks: one lane-group op over the chunk's rows
  /// (the band-covering slice of each row's window — the zero padding
  /// cannot perturb the lane accumulators, see core/simd.h) and one
  /// profiler charge standing for the chunk's per-row warp accesses;
  /// profiler and race declarations are untouched by the path choice.
  void processSvTransformed(BatchSv& b, Image2D& x, Rng& rng,
                            gsim::KernelProfiler& prof,
                            const gsim::SimdOps& ops, WorkCounters& work,
                            double& mag) {
    const GpuTunables& tn = opt.tunables;
    const OptimFlags& fl = opt.flags;
    const SuperVoxel& sv = grid.sv(b.sv_id);
    const SvbPlan& plan = *b.plan;
    const ChunkPlan& cp = *b.chunks;
    const int W = tn.chunk_width;
    const int warps = tn.threads_per_block / 32;
    const int abytes = cp.bytesPerElement();
    const bool quant = cp.quantized();
    const std::ptrdiff_t pitch = plan.paddedWidth();
    const int tb_per_sv = effectiveTbPerSv();
    const double conflict = intraSvConflictMultiplier(
        plan, problem.A, std::min(tb_per_sv, sv.numVoxels()));
    // Spilled thread-locals live in shared memory (§4.2); without the
    // spill they stay in registers and cost no traffic.
    const std::size_t smem_per_row =
        std::size_t(32) * (fl.spill_registers_to_smem ? 8 : 0);

    std::vector<int> order(std::size_t(sv.numVoxels()));
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = int(k);
    rng.shuffle(order);

    std::vector<int> work_rows;  // per scheduled voxel, for imbalance model
    work_rows.reserve(order.size());

    for (int k : order) {
      const int row = sv.row0 + k / sv.numCols();
      const int col = sv.col0 + k % sv.numCols();
      // Slab sharding: rows outside the updatable window belong to a peer
      // slab (or are frozen halo-0 boundary rows) and are never touched —
      // not visited, not profiled, no RNG consumed beyond the shuffle.
      if (!rowUpdatable(row)) continue;
      ++work.voxels_visited;
      // Dynamic voxel fetch from the SV's shared counter.
      prof.descRead(4);
      if (opt.zero_skip && allNeighborsZero(x, row, col)) {
        prof.descRead(9 * 4);  // x and neighbour loads
        work_rows.push_back(0);
        continue;
      }

      const float scale = cp.scaleOf(k);
      gsim::ThetaLanes lanes;
      lanes.reset();
      int rows_total = 0;
      std::size_t elems_total = 0;
      for (const ChunkDesc& d : cp.chunksOf(k)) {
        prof.descRead(kDeviceChunkDescBytes);
        // Warp-level traffic per row: e row + w row + A row. Rows whose
        // width is not a warp multiple leave lanes idle on the last pass —
        // the reason warp-multiple chunk widths win in Fig. 6.
        prof.thetaChunk(d.nrows, W, abytes, d.aligned, fl.read_svb_as_double,
                        smem_per_row);
        const std::span<const RowBand> bands = cp.bandsOf(d);
        const float* erow = b.e_svb->rowData(d.view0) + d.base;
        const float* wrow = b.w_svb->rowData(d.view0) + d.base;
        if (quant)
          ops.theta_chunk_q(cp.dataQuant(d).data(), scale, erow, wrow, pitch,
                            bands.data(), d.nrows, W, lanes);
        else
          ops.theta_chunk_f(cp.dataFloat(d).data(), erow, wrow, pitch,
                            bands.data(), d.nrows, W, lanes);
        for (const RowBand& rb : bands) elems_total += rb.n;
        rows_total += d.nrows;
      }
      work.theta_elements += elems_total;
      ThetaPair theta;
      theta.theta1 = gsim::reduceLanes(lanes.t1);
      theta.theta2 = gsim::reduceLanes(lanes.t2);
      // Idle lanes: rows not divisible by the block's warp count.
      const int pad_rows = (rows_total + warps - 1) / warps * warps - rows_total;
      if (pad_rows > 0) {
        prof.svbIdle(pad_rows * W, 4);
        prof.svbIdle(pad_rows * W, 4);
      }
      // Tree reduction of partial thetas through shared memory.
      prof.smemTraffic(std::size_t(tn.threads_per_block) * 8 * 2);
      prof.addFlops(double(tn.threads_per_block) * 2.0);

      const float delta = solveDelta(problem.prior, x, row, col, theta);
      prof.addFlops(60.0);  // prior solve, single thread
      x(row, col) += delta;

      // Error SVB update: e_svb -= A * delta, atomic per element of each
      // row's band (zero lanes are masked). Runs over the band-covering
      // groups like the theta pass; zero-padded A columns inside those
      // groups subtract an exact ±0.0, which preserves every error bit.
      if (delta != 0.0f) {
        for (const ChunkDesc& d : cp.chunksOf(k)) {
          const std::span<const RowBand> bands = cp.bandsOf(d);
          prof.errorChunk(bands.data(), d.nrows, W, abytes, d.aligned,
                          conflict);
          float* erow = b.e_svb->rowData(d.view0) + d.base;
          if (quant)
            ops.err_chunk_q(cp.dataQuant(d).data(), scale, delta, erow, pitch,
                            bands.data(), d.nrows, W);
          else
            ops.err_chunk_f(cp.dataFloat(d).data(), delta, erow, pitch,
                            bands.data(), d.nrows, W);
        }
        work.error_update_elements += elems_total;
      }
      mag += std::abs(double(delta));
      ++work.voxel_updates;
      work_rows.push_back(rows_total);
    }

    // First-touch of the A-chunk rows actually processed (streamed from
    // DRAM once; the theta and error passes re-read them from cache).
    std::size_t rows_processed = 0;
    for (int r : work_rows) rows_processed += std::size_t(r);
    prof.amatrixUnique(rows_processed * std::size_t(W) * std::size_t(abytes));

    if (!opt.flags.dynamic_voxel_distribution) {
      // Damped: per-SV static skew mostly averages out across the many
      // blocks resident per SMM; only the kernel tail pays the full
      // max/mean gap (calibrated near Table 3 row 4's 1.064x).
      const double imb = staticPartitionImbalance(work_rows, effectiveTbPerSv());
      prof.setImbalance(1.0 + (imb - 1.0) * 0.25);
    }
  }

  /// The naive (untransformed, Fig. 4a) kernel: packed SVB walked in
  /// sensor-channel-major order — uncoalesced, with per-view start lookups.
  void processSvNaive(BatchSv& b, Image2D& x, Rng& rng,
                      gsim::KernelProfiler& prof, const gsim::SimdOps& ops,
                      WorkCounters& work, double& mag) {
    const SystemMatrix& A = problem.A;
    const OptimFlags& fl = opt.flags;
    const SuperVoxel& sv = grid.sv(b.sv_id);
    const SvbPlan& plan = *b.plan;
    const int n = x.size();
    const int abytes = fl.quantize_amatrix ? 1 : 4;
    const double conflict = intraSvConflictMultiplier(
        plan, A, std::min(effectiveTbPerSv(), sv.numVoxels()));

    std::vector<int> order(std::size_t(sv.numVoxels()));
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = int(k);
    rng.shuffle(order);

    std::vector<int> work_rows;
    work_rows.reserve(order.size());

    for (int k : order) {
      const int row = sv.row0 + k / sv.numCols();
      const int col = sv.col0 + k % sv.numCols();
      if (!rowUpdatable(row)) continue;
      ++work.voxels_visited;
      prof.descRead(4);
      if (opt.zero_skip && allNeighborsZero(x, row, col)) {
        prof.descRead(9 * 4);
        work_rows.push_back(0);
        continue;
      }
      const std::size_t voxel = std::size_t(row) * std::size_t(n) + std::size_t(col);

      gsim::ThetaLanes lanes;
      lanes.reset();
      int rows_total = 0;
      int elems_total = 0;
      for (int v = 0; v < A.numViews(); ++v) {
        const SystemMatrix::Run& r = A.run(voxel, v);
        if (r.count == 0) continue;
        elems_total += int(r.count);
        prof.descRead(8);  // per-view start-location lookup (§4.1)
        prof.svbScalarAccess(int(r.count) * 2, 4);  // e + w, uncoalesced
        prof.amatrixScalarAccess(int(r.count), abytes);
        prof.addFlops(3.0 * r.count);
        const auto aw = A.weights(voxel, v);
        const int ws = int(r.first_channel) - plan.lo(v);
        ops.theta_row_f(aw.data(), b.e_svb->rowData(v) + ws,
                        b.w_svb->rowData(v) + ws, int(r.count), lanes);
        work.theta_elements += r.count;
        ++rows_total;
      }
      ThetaPair theta;
      theta.theta1 = gsim::reduceLanes(lanes.t1);
      theta.theta2 = gsim::reduceLanes(lanes.t2);
      prof.smemTraffic(std::size_t(opt.tunables.threads_per_block) * 8 * 2);
      prof.addFlops(double(opt.tunables.threads_per_block) * 2.0);

      const float delta = solveDelta(problem.prior, x, row, col, theta);
      prof.addFlops(60.0);
      x(row, col) += delta;

      if (delta != 0.0f) {
        for (int v = 0; v < A.numViews(); ++v) {
          const SystemMatrix::Run& r = A.run(voxel, v);
          if (r.count == 0) continue;
          prof.svbScalarAccess(int(r.count), 4);
          prof.amatrixScalarAccess(int(r.count), abytes);
          prof.svbAtomic(int(r.count), conflict);
          prof.addFlops(2.0 * r.count);
          const auto aw = A.weights(voxel, v);
          float* erow = b.e_svb->rowData(v) + (int(r.first_channel) - plan.lo(v));
          ops.err_row_f(aw.data(), delta, erow, int(r.count));
          work.error_update_elements += r.count;
        }
      }
      mag += std::abs(double(delta));
      ++work.voxel_updates;
      work_rows.push_back(rows_total);
      prof.amatrixUnique(std::size_t(elems_total) * std::size_t(abytes));
    }

    if (!opt.flags.dynamic_voxel_distribution) {
      const double imb = staticPartitionImbalance(work_rows, effectiveTbPerSv());
      prof.setImbalance(1.0 + (imb - 1.0) * 0.25);
    }
  }

  // ---- Kernel 3: global error writeback (Alg. 3 line 30) ----
  void launchWriteback(std::vector<BatchSv>& batch, Sinogram& e) {
    std::vector<const SvbPlan*> batch_plans;
    batch_plans.reserve(batch.size());
    for (const BatchSv& b : batch) batch_plans.push_back(b.plan);
    const double conflict =
        interSvConflictMultiplier(batch_plans, problem.A.numChannels());

    gsim::LaunchConfig cfg;
    cfg.name = "error_writeback";
    cfg.num_blocks = int(batch.size()) * kAuxBlocksPerSv;
    cfg.resources = {.threads_per_block = 256, .regs_per_thread = 24,
                     .smem_per_block_bytes = 0};
    const int stripes = cfg.num_blocks;
    sim.launch(cfg, [&](gsim::BlockCtx& ctx) {
      // SVBs of different SVs overlap in the global sinogram (the reason
      // the real kernel uses atomicAdd), so the functional writeback is
      // striped by view: block s owns views v ≡ s (mod grid) and applies
      // every batch SVB's delta to them in batch order. Each sinogram
      // element has exactly one writer and a fixed accumulation order —
      // concurrency-safe and bit-identical to the serial writeback.
      const int channels = problem.A.numChannels();
      for (BatchSv& b : batch) {
        b.e_svb->applyDeltaTo(e, *b.e_orig, ctx.block_idx, stripes,
                              &ctx.warp.ops);
        for (int v = ctx.block_idx; v < b.plan->numViews(); v += stripes) {
          const int w = b.plan->width(v);
          if (w == 0) continue;
          ctx.prof.svbAccess(w, 4, true, true);   // current SVB
          ctx.prof.svbAccess(w, 4, true, true);   // original SVB
          ctx.prof.globalAtomic(w, conflict);     // atomicAdd per element
          ctx.prof.addFlops(2.0 * w);
          if (ctx.prof.raceCheckOn()) {
            // Declared as plain writes, not atomics: the functional
            // writeback relies on the view striping making every sinogram
            // element single-writer (a stronger invariant than the real
            // kernel's atomicAdd), and that is exactly what the detector
            // verifies here.
            ctx.prof.raceRead(b.rb_e, v, v + 1);
            ctx.prof.raceRead(b.rb_eorig, v, v + 1);
            const std::int64_t glo =
                std::int64_t(v) * channels + b.plan->lo(v);
            ctx.prof.raceWrite(rb_sino_e, glo, glo + w);
          }
        }
      }
    });
  }

  void runBatch(const std::vector<int>& ids, int iter, Image2D& x, Sinogram& e,
                GpuRunStats& stats) {
    std::vector<BatchSv> batch;
    batch.reserve(ids.size());
    for (int id : ids) {
      BatchSv b;
      b.sv_id = id;
      SvbPlan& plan = plans[std::size_t(id)];
      if (opt.flags.transformed_layout) {
        // Host-side preparation; no modeled GPU time is charged (a real
        // deployment precomputes A-chunks once on the device). Plans are
        // geometry-static, so every engine on the matrix shares one store;
        // a miss means this lookup built the plan.
        SharedChunkPlan shared = sharedChunkPlan(
            problem.A, plan,
            ChunkPlanOptions{.chunk_width = opt.tunables.chunk_width,
                             .quantize = opt.flags.quantize_amatrix});
        if (shared.built) {
          ++stats.chunk_cache_misses;
          if (m_cache_misses) m_cache_misses->add();
        } else {
          ++stats.chunk_cache_hits;
          if (m_cache_hits) m_cache_hits->add();
        }
        // This engine's SVBs must be readable over every chunk window.
        plan.growPaddedWidth(shared.plan->requiredPaddedWidth());
        b.chunks = std::move(shared.plan);
      }
      if (sim.raceCheckOn()) {
        // Host-side: kernel blocks run concurrently and must not mutate
        // the detector's buffer registry.
        gsim::RaceDetector& rd = sim.raceDetector();
        const std::string tag = std::to_string(id);
        b.rb_e = rd.bufferId("svb.e/" + tag);
        b.rb_eorig = rd.bufferId("svb.eorig/" + tag);
        b.rb_w = rd.bufferId("svb.w/" + tag);
      }
      b.plan = &plan;
      batch.push_back(std::move(b));
    }
    launchSvbGen(batch, e);
    launchUpdateKernel(batch, iter, x, stats);
    launchWriteback(batch, e);
    if (m_batches) m_batches->add();
    stats.kernels_launched += 3;
    stats.work.svs_processed += ids.size();
    std::size_t gather = 0;
    for (const BatchSv& b : batch) gather += 3 * b.e_svb->raw().size();
    stats.work.svb_gather_elements += gather;
    for (const BatchSv& b : batch)
      stats.work.svb_writeback_elements += b.e_svb->raw().size();
  }
};

GpuIcd::GpuIcd(const Problem& problem, GpuIcdOptions options,
               const gsim::RunContext& ctx)
    : impl_(std::make_unique<Impl>(problem, std::move(options), ctx)) {}

GpuIcd::~GpuIcd() = default;

const gsim::RaceDetector& GpuIcd::raceDetector() const {
  return impl_->sim.raceDetector();
}

bool GpuIcd::stepIteration(Image2D& x, Sinogram& e) {
  Impl& im = *impl_;
  MBIR_CHECK(x.size() == im.problem.A.geometry().image_size);
  GpuRunStats& stats = im.run_stats;
  const int iter = stats.iterations + 1;
  Rng& rng = im.run_rng;
  const double voxels_per_equit = double(x.numVoxels());
  const GpuTunables& tn = im.opt.tunables;

  obs::Recorder* rec = im.run_ctx.recorder;
  const bool tracing = rec && rec->traceOn();

  const double iter_host_us = tracing ? rec->trace().nowHostUs() : 0.0;
  const double iter_modeled_s = im.sim.totalModeledSeconds();
  const std::size_t iter_updates0 = stats.work.voxel_updates;

  // Selection runs over the owned SVs through a dense local index space,
  // so the magnitude ranking and the random pick see the same shape they
  // would on a dedicated grid. The whole-image window maps by identity,
  // which is what makes an S=1 shard plan bit-identical to the unsharded
  // engine.
  std::vector<double> local_mag(im.owned_svs.size());
  for (std::size_t i = 0; i < im.owned_svs.size(); ++i)
    local_mag[i] = im.magnitude[std::size_t(im.owned_svs[i])];
  const std::vector<int> local = selectSuperVoxels(
      iter, im.owned_svs.size(), local_mag, tn.sv_fraction, rng);
  std::vector<int> selected;
  selected.reserve(local.size());
  for (int li : local) selected.push_back(im.owned_svs[std::size_t(li)]);
  const auto groups = im.grid.checkerboardGroups(selected);

  for (const auto& group : groups) {
    // Cross-check (race checking only): the analytical checkerboard
    // schedule and the race detector must agree on this group's
    // conflict count before any of its batches launch. Concurrency
    // within a launch never exceeds one batch, so a group clean as a
    // whole is clean for every batch split of it.
    if (im.sim.raceCheckOn() && group.size() > 1)
      scheduleImageConflicts(im.grid, group, &im.sim.raceDetector());
    for (std::size_t i = 0; i < group.size(); i += std::size_t(tn.svs_per_batch)) {
      const std::size_t end =
          std::min(group.size(), i + std::size_t(tn.svs_per_batch));
      std::vector<int> ids(group.begin() + std::ptrdiff_t(i),
                           group.begin() + std::ptrdiff_t(end));
      // Alg. 3 lines 26-27: don't launch an under-filled kernel; the
      // skipped SVs' magnitudes keep them eligible for later iterations.
      // The threshold is capped at a quarter of the group's full-grid
      // population: identical to the paper's BATCH_SIZE/4 at paper scale
      // (289 SVs), while reduced grids — whose checkerboard groups are
      // intrinsically small — are not starved by an absolute cutoff.
      const int group_universe = im.grid.count() / 4;
      const int threshold =
          std::min(std::max(1, tn.svs_per_batch / 4),
                   std::max(1, group_universe / 4));
      if (im.opt.flags.batch_threshold && int(ids.size()) < threshold) {
        ++stats.batches_skipped_by_threshold;
        if (im.m_batches_skipped) im.m_batches_skipped->add();
        continue;
      }
      im.runBatch(ids, iter, x, e, stats);
    }
  }

  stats.iterations = iter;
  stats.equits = double(stats.work.voxel_updates) / voxels_per_equit;
  stats.modeled_seconds = im.sim.totalModeledSeconds();
  if (im.m_iterations) im.m_iterations->add();
  if (tracing) {
    const std::vector<std::pair<std::string, double>> args = {
        {"iteration", double(iter)},
        {"selected_svs", double(selected.size())},
        {"voxel_updates", double(stats.work.voxel_updates - iter_updates0)},
        {"equits", stats.equits}};
    obs::TraceEvent host_ev;
    host_ev.name = "gpuicd.iteration";
    host_ev.cat = "gpuicd";
    host_ev.clock = obs::Clock::kHost;
    host_ev.ts_us = iter_host_us;
    host_ev.dur_us = rec->trace().nowHostUs() - iter_host_us;
    host_ev.num_args = args;
    obs::TraceEvent dev_ev;
    dev_ev.name = "gpuicd.iteration";
    dev_ev.cat = "gpuicd";
    dev_ev.clock = obs::Clock::kModeled;
    dev_ev.ts_us = iter_modeled_s * 1e6;
    dev_ev.dur_us = (stats.modeled_seconds - iter_modeled_s) * 1e6;
    dev_ev.num_args = args;
    im.run_ctx.record(std::move(host_ev));
    im.run_ctx.record(std::move(dev_ev));
  }

  // Keep the public stats fully synced after every step — callers read
  // them between iterations and after the last one.
  stats.kernel_stats = im.sim.totalStats();
  stats.per_kernel = im.sim.perKernel();
  stats.race_check_enabled = im.sim.raceCheckOn();
  const gsim::RaceCheckTotals race_totals = im.sim.raceDetector().totals();
  stats.race_launches_checked = race_totals.launches_checked;
  stats.race_ranges_checked = race_totals.ranges_checked;
  stats.race_reports = race_totals.races_found;
  return true;
}

const GpuRunStats& GpuIcd::runStats() const { return impl_->run_stats; }

}  // namespace mbir
