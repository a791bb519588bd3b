// Tests for the GPU execution simulator: occupancy calculator, coalescing
// transactions, timing model monotonicity, and the CPU machine models.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "gsim/cpu_model.h"
#include "gsim/device.h"
#include "gsim/executor.h"
#include "gsim/occupancy.h"
#include "gsim/timing.h"

namespace mbir::gsim {
namespace {

// ---------- occupancy ----------

TEST(Occupancy, FullWith32Regs256Threads) {
  // §4.2: 32 regs/thread at 256 threads/block reaches 100% occupancy.
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(
      dev, {.threads_per_block = 256, .regs_per_thread = 32,
            .smem_per_block_bytes = 8192});
  EXPECT_EQ(occ.blocks_per_smm, 8);
  EXPECT_DOUBLE_EQ(occ.fraction, 1.0);
}

TEST(Occupancy, RegisterLimitedWith44Regs) {
  // §4.2: the naive kernel's 44 regs/thread limits occupancy.
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(
      dev, {.threads_per_block = 256, .regs_per_thread = 44,
            .smem_per_block_bytes = 2048});
  EXPECT_STREQ(occ.limiter, "registers");
  EXPECT_LT(occ.fraction, 0.7);
  EXPECT_GT(occ.fraction, 0.4);
}

TEST(Occupancy, SmemLimited) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(
      dev, {.threads_per_block = 128, .regs_per_thread = 16,
            .smem_per_block_bytes = 40 * 1024});
  EXPECT_STREQ(occ.limiter, "shared_memory");
  EXPECT_EQ(occ.blocks_per_smm, 2);
}

TEST(Occupancy, BlockCountLimitedForTinyBlocks) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(
      dev, {.threads_per_block = 32, .regs_per_thread = 16,
            .smem_per_block_bytes = 0});
  EXPECT_STREQ(occ.limiter, "blocks");
  EXPECT_EQ(occ.blocks_per_smm, dev.max_blocks_per_smm);
  EXPECT_DOUBLE_EQ(occ.fraction, 0.5);  // 32 blocks x 32 threads / 2048
}

TEST(Occupancy, ImpossibleConfigThrows) {
  const DeviceSpec dev = titanXMaxwell();
  const KernelResources too_many_threads{.threads_per_block = 2048,
                                         .regs_per_thread = 32,
                                         .smem_per_block_bytes = 0};
  EXPECT_THROW(computeOccupancy(dev, too_many_threads), mbir::Error);
  const KernelResources too_much_smem{.threads_per_block = 256,
                                      .regs_per_thread = 32,
                                      .smem_per_block_bytes = 100 * 1024};
  EXPECT_THROW(computeOccupancy(dev, too_much_smem), mbir::Error);
}

TEST(Occupancy, ThreadsPerBlockSweepMatchesPaperShape) {
  // Fig. 7c: 256 and 64 both reach full occupancy (the paper notes 64
  // threads/block has 100% occupancy yet still performs worse, via L2
  // conflicts); 384 is slightly lower (5 blocks x 384 = 1920 / 2048).
  const DeviceSpec dev = titanXMaxwell();
  auto frac = [&](int threads) {
    return computeOccupancy(dev, {.threads_per_block = threads,
                                  .regs_per_thread = 32,
                                  .smem_per_block_bytes = std::size_t(threads) * 32})
        .fraction;
  };
  EXPECT_DOUBLE_EQ(frac(256), 1.0);
  EXPECT_LT(frac(384), 1.0);
  EXPECT_DOUBLE_EQ(frac(64), 1.0);
}

// ---------- profiler / coalescing ----------

TEST(Profiler, CoalescedWarpReadIsOneTransaction) {
  const DeviceSpec dev = titanXMaxwell();
  KernelProfiler prof(dev);
  prof.svbAccess(32, 4, /*aligned=*/true, /*as_double=*/true);
  EXPECT_DOUBLE_EQ(prof.stats().svb_access_bytes, 128.0);
  EXPECT_DOUBLE_EQ(prof.stats().svb_access_time_bytes, 128.0);
}

TEST(Profiler, UnalignedCostsOneExtraTransaction) {
  const DeviceSpec dev = titanXMaxwell();
  KernelProfiler prof(dev);
  prof.svbAccess(32, 4, /*aligned=*/false, /*as_double=*/true);
  EXPECT_DOUBLE_EQ(prof.stats().svb_access_bytes, 256.0);
}

TEST(Profiler, FloatWidthPenaltyAppliesToTimeBytesOnly) {
  const DeviceSpec dev = titanXMaxwell();
  KernelProfiler prof(dev);
  prof.svbAccess(32, 4, true, /*as_double=*/false);
  EXPECT_DOUBLE_EQ(prof.stats().svb_access_bytes, 128.0);
  EXPECT_NEAR(prof.stats().svb_access_time_bytes, 128.0 / dev.l2_float_width_factor, 1e-9);
}

TEST(Profiler, ScalarAccessIsPerElementTransactions) {
  const DeviceSpec dev = titanXMaxwell();
  KernelProfiler prof(dev);
  prof.svbScalarAccess(10, 4);
  EXPECT_DOUBLE_EQ(prof.stats().svb_access_bytes, 10.0 * 128.0);
}

TEST(Profiler, QuantizedARowIsQuarterTraffic) {
  const DeviceSpec dev = titanXMaxwell();
  KernelProfiler f(dev), q(dev);
  f.amatrixAccess(128, 4, true);  // 512B -> 4 transactions
  q.amatrixAccess(128, 1, true);  // 128B -> 1 transaction
  EXPECT_DOUBLE_EQ(f.stats().amatrix_access_bytes,
                   4.0 * q.stats().amatrix_access_bytes);
}

TEST(Profiler, AtomicConflictWeighting) {
  const DeviceSpec dev = titanXMaxwell();
  KernelProfiler prof(dev);
  prof.svbAtomic(10, 2.5);
  EXPECT_DOUBLE_EQ(prof.stats().atomic_ops, 10.0);
  EXPECT_DOUBLE_EQ(prof.stats().atomic_ops_weighted, 25.0);
  EXPECT_THROW(prof.svbAtomic(1, 0.5), mbir::Error);
}

// The update kernel's transformed path makes one charge per chunk and pass
// (thetaChunk, errorChunk). Each must leave every KernelStats field
// bit-equal to the per-row warp calls it stands for. The profiler starts
// with non-integral time bytes (a width factor that does not divide the
// transaction size evenly), where re-associating the per-row adds of
// svb_access_time_bytes or atomic_ops_weighted would round differently.
TEST(Profiler, ChunkChargeEqualsPerRowCharges) {
  std::mt19937 rng(5);
  const double conflict = 1.37;
  const int nrows = 13;
  for (double width_factor : {0.8, 0.7}) {
    DeviceSpec dev = titanXMaxwell();
    dev.l2_float_width_factor = width_factor;
    for (int W : {24, 29, 32, 40}) {
      for (bool aligned : {true, false}) {
        for (bool as_double : {true, false}) {
          for (int abytes : {1, 4}) {
            for (std::size_t smem : {std::size_t(0), std::size_t(256)}) {
              SCOPED_TRACE(::testing::Message()
                           << "factor=" << width_factor << " W=" << W
                           << " aligned=" << aligned << " as_double="
                           << as_double << " abytes=" << abytes
                           << " smem=" << smem);
              std::vector<RowBand> bands(static_cast<std::size_t>(nrows));
              for (RowBand& b : bands) {
                using Dist = std::uniform_int_distribution<int>;
                const int i0 = Dist(0, W - 1)(rng);
                const int n = Dist(1, W - i0)(rng);
                b = RowBand{std::uint8_t(i0), std::uint8_t(n)};
              }
              KernelProfiler chunk(dev), rows(dev);
              for (KernelProfiler* p : {&chunk, &rows}) {
                p->svbScalarAccess(3, 4);
                p->svbAtomic(5, conflict);
                p->addFlops(17.0);
              }
              if (width_factor != 0.8) {
                const double t = rows.stats().svb_access_time_bytes;
                ASSERT_NE(t, std::floor(t));
              }

              chunk.thetaChunk(nrows, W, abytes, aligned, as_double, smem);
              chunk.errorChunk(bands.data(), nrows, W, abytes, aligned,
                               conflict);

              const int idle_lanes = (W + 31) / 32 * 32 - W;
              for (int r = 0; r < nrows; ++r) {
                rows.svbAccess(W, 4, aligned, as_double);
                rows.svbAccess(W, 4, aligned, as_double);
                rows.amatrixAccess(W, abytes, aligned);
                if (idle_lanes > 0) {
                  rows.svbIdle(idle_lanes, 4);
                  rows.svbIdle(idle_lanes, 4);
                }
                rows.smemTraffic(smem);
                rows.addFlops(3.0 * W);
              }
              for (const RowBand& b : bands) {
                rows.svbAccess(W, 4, aligned, false);
                rows.amatrixAccess(W, abytes, aligned);
                rows.svbAtomic(b.n, conflict);
                rows.addFlops(2.0 * W);
              }

              const KernelStats& c = chunk.stats();
              const KernelStats& r = rows.stats();
              EXPECT_EQ(c.svb_access_bytes, r.svb_access_bytes);
              EXPECT_EQ(c.svb_access_time_bytes, r.svb_access_time_bytes);
              EXPECT_EQ(c.svb_unique_bytes, r.svb_unique_bytes);
              EXPECT_EQ(c.amatrix_access_bytes, r.amatrix_access_bytes);
              EXPECT_EQ(c.amatrix_unique_bytes, r.amatrix_unique_bytes);
              EXPECT_EQ(c.amatrix_via_texture, r.amatrix_via_texture);
              EXPECT_EQ(c.desc_bytes, r.desc_bytes);
              EXPECT_EQ(c.smem_bytes, r.smem_bytes);
              EXPECT_EQ(c.flops, r.flops);
              EXPECT_EQ(c.atomic_ops_weighted, r.atomic_ops_weighted);
              EXPECT_EQ(c.atomic_ops, r.atomic_ops);
              EXPECT_EQ(c.l2_working_set_bytes, r.l2_working_set_bytes);
              EXPECT_EQ(c.imbalance_factor, r.imbalance_factor);
              EXPECT_EQ(c.grid_blocks, r.grid_blocks);
              EXPECT_EQ(c.launches, r.launches);
            }
          }
        }
      }
    }
  }
  KernelProfiler prof(titanXMaxwell());
  const RowBand one{0, 1};
  EXPECT_THROW(prof.errorChunk(&one, 1, 32, 1, true, 0.5), mbir::Error);
}

// ---------- timing model ----------

KernelStats baseStats() {
  KernelStats s;
  s.svb_access_bytes = 1e9;
  s.svb_access_time_bytes = 1e9;
  s.amatrix_access_bytes = 5e8;
  s.flops = 1e9;
  s.grid_blocks = 10000;  // fully fills the device
  return s;
}

TEST(Timing, MoreBytesNeverFaster) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(dev, {256, 32, 0});
  KernelStats a = baseStats();
  KernelStats b = baseStats();
  b.svb_access_time_bytes *= 2.0;
  EXPECT_GE(modelKernelTime(dev, b, occ).total,
            modelKernelTime(dev, a, occ).total);
}

TEST(Timing, LowerOccupancySlower) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy full = computeOccupancy(dev, {256, 32, 0});
  const Occupancy low = computeOccupancy(dev, {256, 44, 0});
  const KernelStats s = baseStats();
  EXPECT_GT(modelKernelTime(dev, s, low).total,
            modelKernelTime(dev, s, full).total);
}

TEST(Timing, RegisterSpillSpeedupNearPaper) {
  // Table 3 row 2: occupancy via register spill gives ~1.12x.
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy full = computeOccupancy(dev, {256, 32, 0});
  const Occupancy low = computeOccupancy(dev, {256, 44, 0});
  const KernelStats s = baseStats();
  const double ratio = modelKernelTime(dev, s, low).total /
                       modelKernelTime(dev, s, full).total;
  EXPECT_GT(ratio, 1.05);
  EXPECT_LT(ratio, 1.25);
}

TEST(Timing, SmallGridUnderfillsDevice) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(dev, {256, 32, 0});
  KernelStats s = baseStats();
  s.grid_blocks = dev.num_smm;  // 1 block per SMM out of 8 resident
  const double small = modelKernelTime(dev, s, occ).total;
  s.grid_blocks = dev.num_smm * occ.blocks_per_smm;
  const double full = modelKernelTime(dev, s, occ).total;
  EXPECT_GT(small, full * 3.0);
}

TEST(Timing, ImbalanceScalesTime) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(dev, {256, 32, 0});
  KernelStats s = baseStats();
  const double base = modelKernelTime(dev, s, occ).total;
  s.imbalance_factor = 2.0;
  EXPECT_NEAR(modelKernelTime(dev, s, occ).total,
              (base - dev.kernel_launch_us * 1e-6) * 2.0 + dev.kernel_launch_us * 1e-6,
              1e-9);
}

TEST(Timing, L2SpillRoutesToDram) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(dev, {256, 32, 0});
  KernelStats s = baseStats();
  s.l2_working_set_bytes = double(dev.l2_size_bytes) * 4.0;
  const auto t = modelKernelTime(dev, s, occ);
  EXPECT_GT(t.dram, 0.0);
  s.l2_working_set_bytes = double(dev.l2_size_bytes) / 2.0;
  EXPECT_EQ(modelKernelTime(dev, s, occ).dram, 0.0);
}

TEST(Timing, TextureVsGlobalPath) {
  const DeviceSpec dev = titanXMaxwell();
  const Occupancy occ = computeOccupancy(dev, {256, 32, 0});
  KernelStats tex = baseStats();
  tex.amatrix_via_texture = true;
  KernelStats glob = baseStats();
  glob.amatrix_via_texture = false;
  // Global path loads the shared L2 pipe, so it cannot be faster.
  EXPECT_LE(modelKernelTime(dev, tex, occ).total,
            modelKernelTime(dev, glob, occ).total);
}

TEST(Timing, BandwidthReportConsistent) {
  KernelStats s = baseStats();
  s.amatrix_unique_bytes = 1e8;
  const auto r = bandwidthReport(s, 0.01);
  EXPECT_NEAR(r.tex_gbs, 50.0, 1e-9);
  EXPECT_NEAR(r.tex_hit_rate, 1.0 - 1e8 / 5e8, 1e-12);
  EXPECT_GT(r.total_gbs, r.tex_gbs);
}

// ---------- executor ----------

TEST(Executor, RunsAllBlocksAndAggregates) {
  GpuSimulator sim;
  std::atomic<int> visited{0};  // blocks run concurrently on the host pool
  const auto report = sim.launch(
      {.name = "k", .num_blocks = 7, .resources = {256, 32, 0}},
      [&](BlockCtx& ctx) {
        ++visited;
        ctx.prof.addFlops(100.0);
      });
  EXPECT_EQ(visited.load(), 7);
  EXPECT_DOUBLE_EQ(report.stats.flops, 700.0);
  EXPECT_EQ(report.stats.grid_blocks, 7);
  EXPECT_GT(sim.totalModeledSeconds(), 0.0);
  EXPECT_EQ(sim.perKernel().at("k").launches, 1);
}

TEST(Executor, BlockCtxCarriesPerBlockProfiler) {
  // Each block reports through its own profiler; the merged report still
  // sees every block's traffic, keyed nowhere by thread identity.
  GpuSimulator sim;
  ThreadPool pool(3);
  sim.setHostPool(&pool);
  const auto report = sim.launch(
      {.name = "k", .num_blocks = 11, .resources = {256, 32, 0}},
      [&](BlockCtx& ctx) {
        ctx.prof.addFlops(double(ctx.block_idx));
        if (ctx.block_idx == 4) ctx.prof.setImbalance(3.0);
      });
  EXPECT_DOUBLE_EQ(report.stats.flops, 55.0);  // 0 + 1 + ... + 10
  EXPECT_DOUBLE_EQ(report.stats.imbalance_factor, 3.0);
}

TEST(Executor, ResetClearsTotals) {
  GpuSimulator sim;
  sim.launch({.name = "k", .num_blocks = 1, .resources = {256, 32, 0}},
             [](BlockCtx&) {});
  sim.resetTotals();
  EXPECT_DOUBLE_EQ(sim.totalModeledSeconds(), 0.0);
  EXPECT_TRUE(sim.perKernel().empty());
}

// ---------- device scaling ----------

TEST(DeviceScaling, ScalesL2AndSmm) {
  const DeviceSpec dev = titanXMaxwell();
  const DeviceSpec scaled = scaleCachesToProblem(dev, 0.25);
  EXPECT_EQ(scaled.l2_size_bytes, dev.l2_size_bytes / 4);
  EXPECT_EQ(scaled.num_smm, 6);
  EXPECT_DOUBLE_EQ(scaled.dram_bw_gbs, dev.dram_bw_gbs);
}

TEST(DeviceScaling, NeverScalesUpAndHasFloors) {
  const DeviceSpec dev = titanXMaxwell();
  EXPECT_EQ(scaleCachesToProblem(dev, 2.0).l2_size_bytes, dev.l2_size_bytes);
  EXPECT_GE(scaleCachesToProblem(dev, 1e-6).l2_size_bytes, 32u * 1024u);
  EXPECT_GE(scaleCachesToProblem(dev, 1e-6).num_smm, 2);
}

// ---------- CPU models ----------

TEST(CpuModel, WorkScalesLinearly) {
  WorkCounters w;
  w.theta_elements = 1000000;
  w.error_update_elements = 1000000;
  const CpuModel m = sequentialReference();
  const double t1 = modelSequentialCpuSeconds(w, m);
  w.theta_elements *= 2;
  w.error_update_elements *= 2;
  EXPECT_NEAR(modelSequentialCpuSeconds(w, m), 2.0 * t1, 1e-12);
}

TEST(CpuModel, CoresDivideParallelWork) {
  WorkCounters w;
  w.theta_elements = 10000000;
  w.error_update_elements = 10000000;
  CpuModel m = xeon16Core();
  m.cores = 16;
  const double t16 = modelPsvCpuSeconds(w, m);
  m.cores = 1;
  EXPECT_NEAR(modelPsvCpuSeconds(w, m), 16.0 * t16, 1e-12);
}

TEST(CpuModel, LockTimeIsSerial) {
  WorkCounters w;
  w.lock_acquisitions = 1000;
  CpuModel m = xeon16Core();
  const double t = modelPsvCpuSeconds(w, m);
  EXPECT_NEAR(t, 1000.0 * m.lock_us * 1e-6, 1e-12);
}

TEST(CpuModel, SequentialSlowerPerElementThanPsvCore) {
  // The whole point of SVBs (§2.2): cache-resident elements are much
  // cheaper than the sinusoidal DRAM walk.
  EXPECT_GT(sequentialReference().element_ns, 4.0 * xeon16Core().element_ns);
}

// KernelStats::operator+= merge semantics: traffic/work counters sum,
// whole-kernel properties AND- or max-merge (a launch is only on the
// texture path if every block is; the L2 working set and grid size are
// launch-wide maxima, not sums).
TEST(KernelStatsMerge, TrafficAndWorkCountersSum) {
  KernelStats a;
  a.svb_access_bytes = 10;
  a.svb_access_time_bytes = 11;
  a.svb_unique_bytes = 12;
  a.amatrix_access_bytes = 13;
  a.amatrix_unique_bytes = 14;
  a.desc_bytes = 15;
  a.smem_bytes = 16;
  a.flops = 17;
  a.atomic_ops = 18;
  a.atomic_ops_weighted = 19;
  a.launches = 2;
  KernelStats b;
  b.svb_access_bytes = 100;
  b.svb_access_time_bytes = 110;
  b.svb_unique_bytes = 120;
  b.amatrix_access_bytes = 130;
  b.amatrix_unique_bytes = 140;
  b.desc_bytes = 150;
  b.smem_bytes = 160;
  b.flops = 170;
  b.atomic_ops = 180;
  b.atomic_ops_weighted = 190;
  b.launches = 3;

  a += b;
  EXPECT_DOUBLE_EQ(a.svb_access_bytes, 110);
  EXPECT_DOUBLE_EQ(a.svb_access_time_bytes, 121);
  EXPECT_DOUBLE_EQ(a.svb_unique_bytes, 132);
  EXPECT_DOUBLE_EQ(a.amatrix_access_bytes, 143);
  EXPECT_DOUBLE_EQ(a.amatrix_unique_bytes, 154);
  EXPECT_DOUBLE_EQ(a.desc_bytes, 165);
  EXPECT_DOUBLE_EQ(a.smem_bytes, 176);
  EXPECT_DOUBLE_EQ(a.flops, 187);
  EXPECT_DOUBLE_EQ(a.atomic_ops, 198);
  EXPECT_DOUBLE_EQ(a.atomic_ops_weighted, 209);
  EXPECT_EQ(a.launches, 5);
}

TEST(KernelStatsMerge, TexturePathAndMerges) {
  KernelStats tex;  // defaults: amatrix_via_texture = true
  KernelStats glob;
  glob.amatrix_via_texture = false;

  KernelStats m1 = tex;
  m1 += tex;
  EXPECT_TRUE(m1.amatrix_via_texture);

  KernelStats m2 = tex;
  m2 += glob;  // any global-path block moves the launch off texture
  EXPECT_FALSE(m2.amatrix_via_texture);

  KernelStats m3 = glob;
  m3 += tex;  // ...regardless of merge order
  EXPECT_FALSE(m3.amatrix_via_texture);
}

TEST(KernelStatsMerge, LaunchWidePropertiesMaxMerge) {
  KernelStats a;
  a.l2_working_set_bytes = 1000;
  a.imbalance_factor = 1.5;
  a.grid_blocks = 40;
  KernelStats b;
  b.l2_working_set_bytes = 500;
  b.imbalance_factor = 2.5;
  b.grid_blocks = 80;

  KernelStats ab = a;
  ab += b;
  EXPECT_DOUBLE_EQ(ab.l2_working_set_bytes, 1000);
  EXPECT_DOUBLE_EQ(ab.imbalance_factor, 2.5);
  EXPECT_EQ(ab.grid_blocks, 80);

  KernelStats ba = b;  // max-merge is symmetric
  ba += a;
  EXPECT_DOUBLE_EQ(ba.l2_working_set_bytes, 1000);
  EXPECT_DOUBLE_EQ(ba.imbalance_factor, 2.5);
  EXPECT_EQ(ba.grid_blocks, 80);
}

TEST(KernelStatsMerge, MergeWithDefaultIsIdentityForCounters) {
  KernelStats a;
  a.svb_access_bytes = 7;
  a.flops = 9;
  a.imbalance_factor = 1.25;
  a.grid_blocks = 3;
  a.launches = 1;
  KernelStats merged = a;
  merged += KernelStats{};
  EXPECT_DOUBLE_EQ(merged.svb_access_bytes, 7);
  EXPECT_DOUBLE_EQ(merged.flops, 9);
  EXPECT_TRUE(merged.amatrix_via_texture);
  EXPECT_DOUBLE_EQ(merged.imbalance_factor, 1.25);
  EXPECT_EQ(merged.grid_blocks, 3);
  EXPECT_EQ(merged.launches, 1);
}

}  // namespace
}  // namespace mbir::gsim
