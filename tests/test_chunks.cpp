// Tests for the §4.1 chunk decomposition and §4.3.1 A-matrix quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <set>
#include <string>
#include <thread>

#include "gpuicd/gpu_icd.h"
#include "shard/shard_job.h"
#include "sv/chunks.h"
#include "sv/supervoxel.h"
#include "sv/svb.h"
#include "test_support.h"

namespace mbir {
namespace {

class ChunkFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test::tinyGeometry();
    A_ = test::cachedMatrix(g_);
    grid_ = std::make_unique<SvGrid>(
        g_.image_size, SvGridOptions{.sv_side = 8, .boundary_overlap = 1});
  }
  ChunkPlan makePlan(int sv_id, int width, bool quantize, SvbPlan& plan_out) {
    plan_out = SvbPlan(g_, grid_->sv(sv_id));
    return ChunkPlan(*A_, plan_out,
                     ChunkPlanOptions{.chunk_width = width, .quantize = quantize});
  }
  ParallelBeamGeometry g_;
  std::shared_ptr<const SystemMatrix> A_;
  std::unique_ptr<SvGrid> grid_;
};

TEST_F(ChunkFixture, ChunksCoverEveryRunExactlyOnce) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = false});
  const SuperVoxel& sv = grid_->sv(5);
  for (int k = 0; k < sv.numVoxels(); ++k) {
    const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
    std::vector<int> covered(std::size_t(g_.num_views), 0);
    for (const ChunkDesc& d : cp.chunksOf(k)) {
      EXPECT_EQ(d.local_voxel, k);
      for (int i = 0; i < d.nrows; ++i) {
        const int v = d.view0 + i;
        covered[std::size_t(v)]++;
        // The voxel's window fits inside the chunk's column range.
        const auto& r = A_->run(voxel, v);
        ASSERT_GT(int(r.count), 0);
        const int ws = int(r.first_channel) - plan.lo(v);
        EXPECT_GE(ws, d.base);
        EXPECT_LE(ws + int(r.count), d.base + cp.chunkWidth());
      }
    }
    for (int v = 0; v < g_.num_views; ++v) {
      const int expect = A_->run(voxel, v).count > 0 ? 1 : 0;
      EXPECT_EQ(covered[std::size_t(v)], expect) << "voxel " << voxel << " view " << v;
    }
  }
}

TEST_F(ChunkFixture, FloatChunksReproduceAExactly) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = false});
  const SuperVoxel& sv = grid_->sv(5);
  for (int k = 0; k < sv.numVoxels(); k += 3) {
    const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
    for (const ChunkDesc& d : cp.chunksOf(k)) {
      for (int i = 0; i < d.nrows; ++i) {
        const int v = d.view0 + i;
        const auto& r = A_->run(voxel, v);
        const auto aw = A_->weights(voxel, v);
        const int ws = int(r.first_channel) - plan.lo(v);
        for (int kk = 0; kk < int(r.count); ++kk)
          EXPECT_FLOAT_EQ(cp.aValue(d, i, ws + kk - d.base), aw[std::size_t(kk)]);
      }
    }
  }
}

TEST_F(ChunkFixture, PaddingIsZero) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = false});
  const SuperVoxel& sv = grid_->sv(5);
  for (int k = 0; k < sv.numVoxels(); k += 7) {
    const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
    for (const ChunkDesc& d : cp.chunksOf(k)) {
      for (int i = 0; i < d.nrows; ++i) {
        const auto& r = A_->run(voxel, d.view0 + i);
        const int ws = int(r.first_channel) - plan.lo(d.view0 + i);
        for (int c = 0; c < cp.chunkWidth(); ++c) {
          const int col = d.base + c;
          if (col < ws || col >= ws + int(r.count))
            EXPECT_EQ(cp.aValue(d, i, c), 0.0f);
        }
      }
    }
  }
}

TEST_F(ChunkFixture, QuantizationErrorBounded) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = true});
  const SuperVoxel& sv = grid_->sv(5);
  for (int k = 0; k < sv.numVoxels(); k += 5) {
    const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
    const float vmax = A_->voxelMax(voxel);
    const float bound = vmax / 255.0f * 0.5f + 1e-6f;  // half an LSB
    for (const ChunkDesc& d : cp.chunksOf(k)) {
      for (int i = 0; i < d.nrows; ++i) {
        const int v = d.view0 + i;
        const auto& r = A_->run(voxel, v);
        const auto aw = A_->weights(voxel, v);
        const int ws = int(r.first_channel) - plan.lo(v);
        for (int kk = 0; kk < int(r.count); ++kk) {
          const float err =
              std::abs(cp.aValue(d, i, ws + kk - d.base) - aw[std::size_t(kk)]);
          EXPECT_LE(err, bound);
        }
      }
    }
  }
}

TEST_F(ChunkFixture, QuantizedScaleIsVoxelMaxOver255) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = true});
  const SuperVoxel& sv = grid_->sv(5);
  for (int k = 0; k < sv.numVoxels(); k += 9) {
    const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
    EXPECT_FLOAT_EQ(cp.scaleOf(k), A_->voxelMax(voxel) / 255.0f);
  }
}

TEST_F(ChunkFixture, MaxEntryQuantizesTo255) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = true});
  // The voxel's largest A entry must dequantize to ~vmax (255 * scale).
  const SuperVoxel& sv = grid_->sv(5);
  const int k = sv.numVoxels() / 2;
  const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
  float best = 0.0f;
  for (const ChunkDesc& d : cp.chunksOf(k))
    for (int i = 0; i < d.nrows; ++i)
      for (int c = 0; c < cp.chunkWidth(); ++c)
        best = std::max(best, cp.aValue(d, i, c));
  EXPECT_NEAR(best, A_->voxelMax(voxel), A_->voxelMax(voxel) * 0.003f);
}

class ChunkWidthParam : public ::testing::TestWithParam<int> {};

TEST_P(ChunkWidthParam, PaddingRatioAtLeastOne) {
  const auto g = test::tinyGeometry();
  auto A = test::cachedMatrix(g);
  SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  SvbPlan plan(g, grid.sv(5));
  const ChunkPlan cp(*A, plan, {.chunk_width = GetParam(), .quantize = true});
  EXPECT_GE(cp.paddingRatio(), 1.0);
  EXPECT_GT(cp.numChunks(), 0u);
  EXPECT_EQ(cp.totalDataElements() % std::size_t(GetParam()), 0u);
  // The SVB must be readable across every chunk window once grown.
  EXPECT_GE(cp.requiredPaddedWidth(), GetParam());
  plan.growPaddedWidth(cp.requiredPaddedWidth());
  EXPECT_GE(plan.paddedWidth(), GetParam());
}

TEST_P(ChunkWidthParam, WiderChunksMeanFewerChunks) {
  const auto g = test::tinyGeometry();
  auto A = test::cachedMatrix(g);
  SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  SvbPlan p1(g, grid.sv(5)), p2(g, grid.sv(5));
  const ChunkPlan narrow(*A, p1, {.chunk_width = GetParam(), .quantize = true});
  const ChunkPlan wide(*A, p2, {.chunk_width = GetParam() * 2, .quantize = true});
  EXPECT_LE(wide.numChunks(), narrow.numChunks());
}

INSTANTIATE_TEST_SUITE_P(Widths, ChunkWidthParam, ::testing::Values(8, 16, 24, 32, 64));

TEST_F(ChunkFixture, TooNarrowWidthThrows) {
  SvbPlan plan(g_, grid_->sv(5));
  EXPECT_THROW(
      ChunkPlan(*A_, plan, {.chunk_width = 1, .quantize = false}), Error);
}

// The update kernel reads each row's band from the plan instead of the
// SystemMatrix, so the stored bands must be exactly the matrix runs.
TEST_F(ChunkFixture, RowBandsMatchSystemMatrixRuns) {
  for (int sv_id : {0, 5, grid_->count() - 1}) {
    for (int width : {16, 29, 32, 64}) {
      for (bool quantize : {false, true}) {
        SvbPlan plan(g_, grid_->sv(sv_id));
        const ChunkPlan cp(
            *A_, plan, {.chunk_width = width, .quantize = quantize});
        const SuperVoxel& sv = grid_->sv(sv_id);
        for (int k = 0; k < sv.numVoxels(); ++k) {
          const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
          for (const ChunkDesc& d : cp.chunksOf(k)) {
            const std::span<const RowBand> bands = cp.bandsOf(d);
            ASSERT_EQ(bands.size(), std::size_t(d.nrows));
            for (int i = 0; i < d.nrows; ++i) {
              const int v = d.view0 + i;
              const auto& r = A_->run(voxel, v);
              const RowBand b = bands[std::size_t(i)];
              ASSERT_GT(int(b.n), 0) << "voxel " << voxel << " view " << v;
              EXPECT_EQ(int(b.i0), int(r.first_channel) - plan.lo(v) - d.base)
                  << "voxel " << voxel << " view " << v;
              EXPECT_EQ(int(b.n), int(r.count))
                  << "voxel " << voxel << " view " << v;
              EXPECT_LE(int(b.i0) + int(b.n), width);
            }
          }
        }
      }
    }
  }
  SvbPlan plan(g_, grid_->sv(5));
  EXPECT_NO_THROW(ChunkPlan(*A_, plan, {.chunk_width = 255, .quantize = true}));
  EXPECT_THROW(ChunkPlan(*A_, plan, {.chunk_width = 256, .quantize = true}),
               Error);
}

// The host stores each row band-compact (whole lane groups covering its
// band); the device layout it stands for is W wide and zero-padded. aValue
// must read the W-wide layout at every window column, the stored count must
// be the covered groups, and the compact plan must hold fewer heap bytes
// than the W-wide one once a window spans more than one group.
TEST_F(ChunkFixture, BandCompactRowsMatchFullWidthLayout) {
  for (int sv_id : {0, 5, grid_->count() - 1}) {
    for (int width : {8, 16, 29, 32, 64, 128}) {
      for (bool quantize : {false, true}) {
        SCOPED_TRACE("sv " + std::to_string(sv_id) + " W " +
                     std::to_string(width) + (quantize ? " q" : " f"));
        const SvbPlan plan(g_, grid_->sv(sv_id));
        const ChunkPlan cp(
            *A_, plan, {.chunk_width = width, .quantize = quantize});
        const SuperVoxel& sv = grid_->sv(sv_id);
        std::size_t rows = 0, covered_groups = 0;
        for (int k = 0; k < sv.numVoxels(); ++k) {
          const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
          const float vmax = A_->voxelMax(voxel);
          for (const ChunkDesc& d : cp.chunksOf(k)) {
            for (int i = 0; i < d.nrows; ++i) {
              const int v = d.view0 + i;
              const auto& r = A_->run(voxel, v);
              const auto aw = A_->weights(voxel, v);
              const int i0 = int(r.first_channel) - plan.lo(v) - d.base;
              // The W-wide row, rebuilt from the matrix.
              std::vector<float> full(std::size_t(width), 0.0f);
              for (int kk = 0; kk < int(r.count); ++kk) {
                const float a = aw[std::size_t(kk)];
                const float q = vmax > 0.0f ? a / vmax * 255.0f + 0.5f : 0.0f;
                full[std::size_t(i0 + kk)] =
                    quantize ? float(std::uint8_t(std::min(q, 255.0f))) *
                                   cp.scaleOf(k)
                             : a;
              }
              for (int c = 0; c < width; ++c)
                ASSERT_EQ(cp.aValue(d, i, c), full[std::size_t(c)])
                    << "voxel " << voxel << " view " << v << " col " << c;
              ++rows;
              covered_groups += std::size_t((i0 + int(r.count) + 7) / 8 - i0 / 8);
            }
          }
        }
        EXPECT_EQ(cp.storedElements(), 8 * covered_groups);
        EXPECT_EQ(cp.totalDataElements(), rows * std::size_t(width));
        // The same plan with every row W wide and the device descriptor.
        const std::size_t bpe = std::size_t(cp.bytesPerElement());
        const std::size_t full_width_bytes =
            cp.heapBytes() - sizeof(ChunkDesc) * cp.numChunks() -
            cp.storedElements() * bpe +
            kDeviceChunkDescBytes * cp.numChunks() +
            cp.totalDataElements() * bpe;
        if (width >= 16) EXPECT_LT(cp.heapBytes(), full_width_bytes);
      }
    }
  }
}

TEST_F(ChunkFixture, TrueNnzMatchesMatrix) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 16, .quantize = false});
  const SuperVoxel& sv = grid_->sv(5);
  std::size_t nnz = 0;
  for (int k = 0; k < sv.numVoxels(); ++k) {
    const std::size_t voxel = std::size_t(sv.voxelAt(k, g_.image_size));
    for (int v = 0; v < g_.num_views; ++v) nnz += A_->run(voxel, v).count;
  }
  EXPECT_EQ(cp.trueNnz(), nnz);
}

TEST_F(ChunkFixture, AlignedFractionHighForWarpWidth) {
  SvbPlan plan(g_, grid_->sv(5));
  const ChunkPlan cp(*A_, plan, {.chunk_width = 32, .quantize = true});
  EXPECT_GT(cp.alignedFraction(), 0.9);
}

// The engine grows its own SvbPlan with requiredPaddedWidth() where the
// constructor used to grow its argument: the resulting pitch must be what
// that growth gave (the largest chunk window end), and constructing a plan
// must leave the SvbPlan alone.
TEST_F(ChunkFixture, RequiredPaddedWidthMatchesGrownPlan) {
  for (int sv_id : {0, 5, grid_->count() - 1}) {
    for (int width : {16, 29, 32, 64}) {
      SvbPlan plan(g_, grid_->sv(sv_id));
      const int before = plan.paddedWidth();
      const ChunkPlan cp(*A_, plan, {.chunk_width = width, .quantize = true});
      EXPECT_EQ(plan.paddedWidth(), before);

      int max_window_end = 0;
      for (int k = 0; k < grid_->sv(sv_id).numVoxels(); ++k)
        for (const ChunkDesc& d : cp.chunksOf(k))
          max_window_end = std::max(max_window_end, d.base + width);
      SvbPlan old_growth(g_, grid_->sv(sv_id));
      old_growth.growPaddedWidth(max_window_end);

      EXPECT_EQ(cp.requiredPaddedWidth(), max_window_end);
      plan.growPaddedWidth(cp.requiredPaddedWidth());
      EXPECT_EQ(plan.paddedWidth(), old_growth.paddedWidth())
          << "sv " << sv_id << " W " << width;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared plans: the matrix's plan store
// ---------------------------------------------------------------------------

/// tinyProblem()'s case on a fresh copy of its matrix (empty plan store).
OwnedProblem freshTinyProblem() {
  const OwnedProblem& tiny = test::tinyProblem();
  return OwnedProblem(std::make_shared<const SystemMatrix>(tiny.matrix()),
                      tiny.scan(), SuiteConfig{}.prior);
}

struct EngineRun {
  Image2D x;
  GpuRunStats stats;
};

EngineRun runEngine(const OwnedProblem& problem, GpuIcdOptions opt,
                    int iterations = 3) {
  EngineRun r{problem.fbpInitialImage(), {}};
  Sinogram e = problem.initialError(r.x);
  GpuIcd icd(problem.view(), opt);
  r.stats = test::stepEngine(icd, r.x, e, iterations);
  return r;
}

GpuIcdOptions tinyEngineOptions(int sv_side = 8) {
  GpuIcdOptions opt = test::tinyGpuOptions();
  opt.tunables.sv.sv_side = sv_side;
  return opt;
}

TEST(PlanStore, FloatAndQuantizedNeverSharePlans) {
  const SystemMatrix A = test::tinyProblem().matrix();
  const ParallelBeamGeometry& g = A.geometry();
  const SvGrid grid(g.image_size, {.sv_side = 8, .boundary_overlap = 1});
  const SvbPlan plan(g, grid.sv(5));
  const SharedChunkPlan q = sharedChunkPlan(A, plan, {.chunk_width = 32, .quantize = true});
  const SharedChunkPlan f = sharedChunkPlan(A, plan, {.chunk_width = 32, .quantize = false});
  EXPECT_TRUE(q.built);
  EXPECT_TRUE(f.built);
  EXPECT_NE(q.plan, f.plan);
  EXPECT_TRUE(q.plan->quantized());
  EXPECT_FALSE(f.plan->quantized());
  // Same key again: the stored plan, not a rebuild.
  const SharedChunkPlan q2 = sharedChunkPlan(A, plan, {.chunk_width = 32, .quantize = true});
  EXPECT_FALSE(q2.built);
  EXPECT_EQ(q2.plan, q.plan);
  EXPECT_EQ(A.planStore().residentEntries(), 2u);
  EXPECT_EQ(A.planStore().residentBytes(),
            q.plan->heapBytes() + f.plan->heapBytes());
}

TEST(PlanStore, SvSidesNeverSharePlans) {
  // No SV rect of the side-8 grid equals one of the side-6 grid, so a
  // side-6 engine after a side-8 engine on one matrix must find none of
  // its plans stored: it builds exactly what it builds on a matrix of its
  // own, and computes the same bits.
  const int n = test::tinyGeometry().image_size;
  const SvGrid g8(n, {.sv_side = 8, .boundary_overlap = 1});
  const SvGrid g6(n, {.sv_side = 6, .boundary_overlap = 1});
  std::set<std::string> keys8;
  for (int i = 0; i < g8.count(); ++i)
    keys8.insert(chunkPlanKey(SvbPlan(test::tinyGeometry(), g8.sv(i)), {}));
  for (int i = 0; i < g6.count(); ++i)
    ASSERT_EQ(keys8.count(chunkPlanKey(SvbPlan(test::tinyGeometry(), g6.sv(i)), {})), 0u);

  const OwnedProblem shared = freshTinyProblem();
  const OwnedProblem alone = freshTinyProblem();
  const EngineRun r8 = runEngine(shared, tinyEngineOptions(8));
  const EngineRun r6 = runEngine(shared, tinyEngineOptions(6));
  const EngineRun r6_alone = runEngine(alone, tinyEngineOptions(6));
  EXPECT_GT(r8.stats.chunk_cache_misses, 0u);
  EXPECT_EQ(r6.stats.chunk_cache_misses, r6_alone.stats.chunk_cache_misses);
  EXPECT_EQ(r6.stats.chunk_cache_hits, r6_alone.stats.chunk_cache_hits);
  test::expectGpuRunsBitIdentical(r6.stats, r6.x, r6_alone.stats, r6_alone.x);
  EXPECT_EQ(shared.matrix().planStore().residentEntries(),
            r8.stats.chunk_cache_misses + r6.stats.chunk_cache_misses);
}

TEST(PlanStore, EngineGrowsSvbPitchBeforeFirstRead) {
  // W=64 overhangs the 32-aligned band pitch, so each SV's padded SVB must
  // grow to the plan's requiredPaddedWidth() before its first batch
  // gathers it: the gather counter of a one-iteration run (every SV once)
  // is 3 SVBs x views x grown pitch per SV.
  const OwnedProblem p = freshTinyProblem();
  GpuIcdOptions opt = tinyEngineOptions();
  opt.tunables.chunk_width = 64;
  const EngineRun r = runEngine(p, opt, /*iterations=*/1);
  const ParallelBeamGeometry& g = p.geometry();
  const SvGrid grid(g.image_size, opt.tunables.sv);
  ASSERT_EQ(r.stats.work.svs_processed, std::size_t(grid.count()));
  std::size_t expected = 0;
  int grown = 0;
  for (int i = 0; i < grid.count(); ++i) {
    SvbPlan plan(g, grid.sv(i));
    const int before = plan.paddedWidth();
    const SharedChunkPlan cp = sharedChunkPlan(
        p.matrix(), plan,
        {.chunk_width = 64, .quantize = opt.flags.quantize_amatrix});
    EXPECT_FALSE(cp.built);  // the run stored it
    plan.growPaddedWidth(cp.plan->requiredPaddedWidth());
    grown += plan.paddedWidth() > before ? 1 : 0;
    expected += 3 * plan.paddedSize();
  }
  EXPECT_GT(grown, 0);
  EXPECT_EQ(r.stats.work.svb_gather_elements, expected);
}

TEST(PlanStore, ConcurrentEnginesShareOneStore) {
  // Four engines on four threads plus a 2-slab sharded run, all on one
  // fresh matrix, so first lookups of the same keys overlap and a key may
  // be built more than once: every result is bit-identical to the same run
  // made alone, and every key ends up stored.
  const GpuIcdOptions opt = tinyEngineOptions();
  shard::ShardConfig sc;
  sc.plan = shard::makeShardPlan(test::tinyGeometry().image_size, 2,
                                 /*halo=*/1, opt.seed);
  sc.devices = 2;
  sc.base = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  sc.base.stop_rmse_hu = -1.0;

  // The same runs made one after another on a fresh matrix of their own.
  const OwnedProblem serial_problem = freshTinyProblem();
  const EngineRun serial = runEngine(serial_problem, opt);
  const shard::ShardRunResult serial_shard =
      shard::reconstructSharded(serial_problem, test::tinyGolden(), sc);

  const OwnedProblem shared = freshTinyProblem();
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  obs::Recorder shard_rec(ocfg);
  shard::ShardConfig shared_sc = sc;
  shared_sc.base.external_recorder = &shard_rec;

  std::vector<EngineRun> runs(4);
  shard::ShardRunResult shard_run;
  {
    // Released together, so first lookups of the same keys overlap.
    std::latch start(std::ptrdiff_t(runs.size()) + 1);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < runs.size(); ++i)
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        runs[i] = runEngine(shared, opt);
      });
    threads.emplace_back([&] {
      start.arrive_and_wait();
      shard_run = shard::reconstructSharded(shared, test::tinyGolden(), shared_sc);
    });
    for (std::thread& t : threads) t.join();
  }

  std::size_t misses = shard_rec.metrics().counterValue("gpuicd.chunk_cache.misses");
  EXPECT_GT(shard_rec.metrics().counterValue("gpuicd.chunk_cache.hits") + misses, 0u);
  for (const EngineRun& r : runs) {
    test::expectGpuRunsBitIdentical(serial.stats, serial.x, r.stats, r.x);
    EXPECT_EQ(r.stats.chunk_cache_hits + r.stats.chunk_cache_misses,
              serial.stats.chunk_cache_hits + serial.stats.chunk_cache_misses);
    misses += r.stats.chunk_cache_misses;
  }
  test::expectRunResultsBitIdentical(serial_shard.run, shard_run.run);
  EXPECT_EQ(serial_shard.shard.modeled_seconds, shard_run.shard.modeled_seconds);
  // Every key is resident (the default budget holds the tiny set) and was
  // built by at least one lookup across all engines and slabs.
  const std::size_t keys = shared.matrix().planStore().residentEntries();
  EXPECT_EQ(keys, serial_problem.matrix().planStore().residentEntries());
  EXPECT_GT(keys, 0u);
  EXPECT_GE(misses, keys);
}

}  // namespace
}  // namespace mbir
