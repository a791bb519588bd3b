// Determinism of host-parallel simulated kernel execution: the gsim
// executor and GPU-ICD must produce bit-identical functional results,
// KernelStats, and modeled seconds for any host thread count and any split
// of a launch's blocks into host tasks, and the chunk-plan LRU cache must
// be a pure wall-clock optimization.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "gpuicd/gpu_icd.h"
#include "gsim/executor.h"
#include "obs/obs.h"
#include "sv/svb.h"
#include "test_support.h"

namespace mbir {
namespace {

using test::expectStatsBitIdentical;

// ---------- executor ----------

constexpr int kBlocks = 29;

gsim::LaunchReport launchWithPool(ThreadPool* pool, int host_tasks = kBlocks) {
  gsim::GpuSimulator sim;
  sim.setHostPool(pool);
  return sim.launch(
      {.name = "k", .num_blocks = kBlocks, .host_tasks = host_tasks,
       .resources = {256, 32, 0}},
      [](gsim::BlockCtx& ctx) {
        // Block-dependent accounting exercises the ordered per-block merge
        // (floating-point sums would differ under any reordering).
        ctx.prof.addFlops(1.0 / double(ctx.block_idx + 1));
        ctx.prof.svbAccess(7 + ctx.block_idx % 5, 4, ctx.block_idx % 2 == 0,
                           false);
        // Uneven per-block work: 1-4 float-width reads, whose time bytes
        // are not integers.
        for (int k = 0; k <= ctx.block_idx % 4; ++k)
          ctx.prof.svbAccess(3 + k, 4, false, false);
        ctx.prof.svbAtomic(ctx.block_idx, 1.0 + 0.1 * double(ctx.block_idx));
        if (ctx.block_idx == 17) ctx.prof.setImbalance(2.5);
        ctx.prof.setL2WorkingSet(double(ctx.block_idx) * 100.0);
      });
}

TEST(ExecutorDeterminism, ReportInvariantToHostThreadCount) {
  ThreadPool p1(1), p2(2), p4(4);
  const auto r1 = launchWithPool(&p1);
  const auto r2 = launchWithPool(&p2);
  const auto r4 = launchWithPool(&p4);
  expectStatsBitIdentical(r1.stats, r2.stats);
  expectStatsBitIdentical(r1.stats, r4.stats);
  EXPECT_EQ(r1.time.total, r2.time.total);
  EXPECT_EQ(r1.time.total, r4.time.total);
}

TEST(ExecutorDeterminism, RepeatedLaunchIsBitIdentical) {
  ThreadPool pool(4);
  const auto a = launchWithPool(&pool);
  const auto b = launchWithPool(&pool);
  expectStatsBitIdentical(a.stats, b.stats);
  EXPECT_EQ(a.time.total, b.time.total);
}

TEST(ExecutorDeterminism, HostTaskSplitDoesNotChangeReport) {
  ThreadPool p1(1), p4(4);
  const auto inline_ref = launchWithPool(&p1, 1);
  for (ThreadPool* pool : {&p1, &p4}) {
    for (int tasks : {1, 2, 3, kBlocks, kBlocks + 7}) {
      SCOPED_TRACE("pool=" + std::to_string(pool->size()) +
                   " host_tasks=" + std::to_string(tasks));
      const auto r = launchWithPool(pool, tasks);
      expectStatsBitIdentical(inline_ref.stats, r.stats);
      EXPECT_EQ(inline_ref.time.total, r.time.total);
    }
  }

  // A planted overlap is diagnosed whether the blocks run inline or split:
  // blocks 0/1 share a task under the 4-way split, blocks 3/4 do not.
  for (int tasks : {1, 4}) {
    SCOPED_TRACE("host_tasks=" + std::to_string(tasks));
    gsim::GpuSimulator sim;
    sim.setHostPool(&p4);
    sim.setRaceCheck({.enabled = true, .throw_on_race = false});
    const int buf = sim.raceDetector().bufferId("image");
    sim.launch({.name = "overlap", .num_blocks = 8, .host_tasks = tasks,
                .resources = {256, 32, 0}},
               [&](gsim::BlockCtx& ctx) {
                 const std::int64_t lo = std::int64_t(ctx.block_idx) * 16;
                 const bool spills = ctx.block_idx == 0 || ctx.block_idx == 3;
                 ctx.prof.raceWrite(buf, lo, lo + (spills ? 17 : 16));
               });
    const std::vector<gsim::RaceReport>& races = sim.raceDetector().races();
    ASSERT_EQ(races.size(), 2u);
    EXPECT_EQ(races[0].block_a, 0);
    EXPECT_EQ(races[0].block_b, 1);
    EXPECT_EQ(races[1].block_a, 3);
    EXPECT_EQ(races[1].block_b, 4);
  }
}

// ---------- Svb striped writeback ----------

TEST(SvbStriped, StripeUnionEqualsFullApply) {
  const auto g = test::tinyGeometry();
  const SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  const SvbPlan plan(g, grid.sv(6));

  Sinogram global(g);
  Rng rng(11);
  for (float& v : global.flat()) v = float(rng.uniform());

  Svb svb(plan, SvbLayout::kPadded);
  svb.gather(global);
  Svb orig(plan, SvbLayout::kPadded);
  std::memcpy(orig.raw().data(), svb.raw().data(),
              svb.raw().size() * sizeof(float));
  for (int v = 0; v < plan.numViews(); ++v)
    for (int c = 0; c < plan.width(v); ++c)
      svb.rowData(v)[c] += float(v) * 0.25f + float(c);

  Sinogram full = global;
  svb.applyDeltaTo(full, orig);

  const int stripes = 5;
  Sinogram striped = global;
  for (int s = 0; s < stripes; ++s) svb.applyDeltaTo(striped, orig, s, stripes);

  EXPECT_EQ(0, std::memcmp(full.flat().data(), striped.flat().data(),
                           full.flat().size() * sizeof(float)));
}

// ---------- GPU-ICD ----------

/// A GPU-ICD run on tinyProblem()'s inputs. `A` picks the matrix, and so
/// the plan store the run shares (nullptr = tinyProblem()'s own, which
/// earlier runs in the process may have warmed).
GpuRunStats runGpuWith(ThreadPool* pool, Image2D& x, int iterations = 3,
                       obs::Recorder* recorder = nullptr,
                       const SystemMatrix* A = nullptr) {
  const OwnedProblem& problem = test::tinyProblem();
  GpuIcdOptions opt = test::tinyGpuOptions();
  opt.host_pool = pool;
  x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  GpuIcd icd(test::tinyProblemOn(A ? *A : problem.matrix()), opt,
             {.recorder = recorder});
  return test::stepEngine(icd, x, e, iterations);
}

using test::expectGpuRunsBitIdentical;

TEST(GpuIcdDeterminism, BitIdenticalAcrossThreadCounts) {
  ThreadPool p1(1), p2(2), p4(4);
  Image2D x1, x2, x4;
  const auto s1 = runGpuWith(&p1, x1);
  const auto s2 = runGpuWith(&p2, x2);
  const auto s4 = runGpuWith(&p4, x4);
  ASSERT_GT(s1.work.voxel_updates, 0u);
  expectGpuRunsBitIdentical(s1, x1, s2, x2);
  expectGpuRunsBitIdentical(s1, x1, s4, x4);
}

TEST(GpuIcdDeterminism, SerialPoolMatchesGlobalPool) {
  ThreadPool p1(1);
  Image2D xs, xg;
  const auto ss = runGpuWith(&p1, xs);
  const auto sg = runGpuWith(nullptr, xg);  // process-wide pool
  expectGpuRunsBitIdentical(ss, xs, sg, xg);
}

TEST(GpuIcdDeterminism, ChunkCacheIsPureOptimization) {
  // Cold store, warm store (the same matrix again) and a store that
  // retains nothing: three different plan-build histories, one result.
  ThreadPool p2(2);
  const SystemMatrix shared = test::tinyProblem().matrix();  // empty store
  const SystemMatrix none =
      SystemMatrix::compute(test::tinyGeometry(), /*plan_budget_bytes=*/0);
  Image2D xc, xw, xn;
  const auto cold = runGpuWith(&p2, xc, 3, nullptr, &shared);
  const auto warm = runGpuWith(&p2, xw, 3, nullptr, &shared);
  const auto uncached = runGpuWith(&p2, xn, 3, nullptr, &none);
  expectGpuRunsBitIdentical(cold, xc, warm, xw);
  expectGpuRunsBitIdentical(cold, xc, uncached, xn);
  // Iteration 1 visits every SV, so by iteration 2 the top-fraction
  // selection must re-use stored plans; the second run builds nothing.
  EXPECT_GT(cold.chunk_cache_misses, 0u);
  EXPECT_GT(cold.chunk_cache_hits, 0u);
  EXPECT_GT(warm.chunk_cache_hits, 0u);
  EXPECT_EQ(warm.chunk_cache_misses, 0u);
  EXPECT_EQ(warm.chunk_cache_hits,
            cold.chunk_cache_hits + cold.chunk_cache_misses);
  // Nothing retained: every lookup builds.
  EXPECT_EQ(uncached.chunk_cache_hits, 0u);
  EXPECT_EQ(uncached.chunk_cache_misses,
            cold.chunk_cache_hits + cold.chunk_cache_misses);
  EXPECT_EQ(none.planStore().residentEntries(), 0u);
  EXPECT_EQ(shared.planStore().residentEntries(), cold.chunk_cache_misses);
}

TEST(GpuIcdDeterminism, TinyCacheCapacityStillCorrect) {
  // A budget of half the mean plan: most plans are evicted the moment they
  // are built, while the batch that asked for them still reads them (ASan
  // pins that a borrowed plan outlives its eviction). Results stay
  // identical.
  ThreadPool p2(2);
  const SystemMatrix reference = test::tinyProblem().matrix();
  Image2D xr;
  const auto ref = runGpuWith(&p2, xr, 3, nullptr, &reference);
  ASSERT_GT(reference.planStore().residentEntries(), 0u);
  const std::size_t budget = reference.planStore().residentBytes() /
                             reference.planStore().residentEntries() / 2;

  const SystemMatrix tiny = SystemMatrix::compute(test::tinyGeometry(), budget);
  Image2D xt;
  const auto t = runGpuWith(&p2, xt, 3, nullptr, &tiny);
  expectGpuRunsBitIdentical(ref, xr, t, xt);
  EXPECT_GT(tiny.planStore().evictions(), 0u);
  EXPECT_LE(tiny.planStore().residentBytes(), budget);
  EXPECT_GT(t.chunk_cache_misses, ref.chunk_cache_misses);
  EXPECT_EQ(t.chunk_cache_hits + t.chunk_cache_misses,
            ref.chunk_cache_hits + ref.chunk_cache_misses);
}

// ---------- observability is purely observational ----------

TEST(GpuIcdDeterminism, ObservabilityDoesNotPerturbResults) {
  // Full tracing + metrics (including per-block spans, the most invasive
  // option) must leave images, stats, and modeled seconds bit-identical to
  // an uninstrumented run, for any host thread count. Each run gets its
  // own matrix copy, so both start from an empty plan store.
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  ocfg.block_spans = true;

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const SystemMatrix a_plain = test::tinyProblem().matrix();
    const SystemMatrix a_obs = test::tinyProblem().matrix();
    Image2D x_plain, x_obs;
    const auto plain = runGpuWith(&pool, x_plain, 3, nullptr, &a_plain);
    obs::Recorder rec(ocfg);
    const auto observed = runGpuWith(&pool, x_obs, 3, &rec, &a_obs);
    expectGpuRunsBitIdentical(plain, x_plain, observed, x_obs);
    EXPECT_EQ(plain.chunk_cache_hits, observed.chunk_cache_hits);
    EXPECT_EQ(plain.chunk_cache_misses, observed.chunk_cache_misses);
    // ...and the recorder did actually observe the run.
    EXPECT_GT(rec.metrics().counterValue("gsim.launch.count"), 0u);
    EXPECT_GT(rec.metrics().counterValue("gpuicd.chunk_cache.hits"), 0u);
    EXPECT_GT(rec.metrics().counterValue("gpuicd.chunk_cache.misses"), 0u);
    EXPECT_GT(rec.trace().size(), 0u);
  }
}

TEST(GpuIcdDeterminism, RecorderSeesSameCountsForAnyThreadCount) {
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  Image2D x1, x4;
  ThreadPool p1(1), p4(4);
  obs::Recorder r1(ocfg), r4(ocfg);
  const SystemMatrix a1 = test::tinyProblem().matrix();
  const SystemMatrix a4 = test::tinyProblem().matrix();
  runGpuWith(&p1, x1, 3, &r1, &a1);
  runGpuWith(&p4, x4, 3, &r4, &a4);
  for (const char* name :
       {"gsim.launch.count", "gsim.launch.blocks", "gsim.launch.flops",
        "gsim.launch.svb_access_bytes", "gpuicd.chunk_cache.hits",
        "gpuicd.chunk_cache.misses", "gpuicd.batch.count",
        "gpuicd.iteration.count"}) {
    EXPECT_EQ(r1.metrics().counterValue(name), r4.metrics().counterValue(name))
        << name;
  }
}

TEST(GpuIcdHostTasks, LaunchSpansRecordTheSplit) {
  // A 128^2 problem in 33-voxel SVs, two SVs per batch: the update kernel
  // runs one host task per SV (the split path), SVB generation and the
  // writeback run inline. The host-clock launch span says which.
  SuiteConfig scfg;
  scfg.geometry = benchScaleGeometry();
  scfg.geometry.num_views = 45;
  const OwnedProblem problem = Suite(scfg).makeCase(0);
  GpuIcdOptions opt;
  opt.tunables.svs_per_batch = 2;
  opt.device = gsim::scaleCachesToProblem(
      opt.device, double(scfg.geometry.num_views) / 720.0);
  ThreadPool pool(4);
  opt.host_pool = &pool;
  obs::ObsConfig ocfg;
  ocfg.trace = true;
  obs::Recorder rec(ocfg);
  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  GpuIcd icd(problem.view(), opt, {.recorder = &rec});
  test::stepEngine(icd, x, e, 1);

  const auto hostTasks = [](const obs::TraceEvent& ev) {
    for (const auto& [k, v] : ev.num_args)
      if (k == "host_tasks") return v;
    return -1.0;
  };
  int update_split = 0, aux_spans = 0;
  for (const obs::TraceEvent& ev : rec.trace().snapshot()) {
    if (ev.clock != obs::Clock::kHost) continue;
    if (ev.name == "gsim.launch.mbir_update" && hostTasks(ev) == 2.0)
      ++update_split;
    if (ev.name == "gsim.launch.svb_gen" ||
        ev.name == "gsim.launch.error_writeback") {
      ++aux_spans;
      EXPECT_EQ(hostTasks(ev), 1.0) << ev.name;
    }
  }
  EXPECT_GT(update_split, 0);
  EXPECT_GT(aux_spans, 0);
}

}  // namespace
}  // namespace mbir
