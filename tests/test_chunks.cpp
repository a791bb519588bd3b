// Tests for the §4.1 chunk decomposition and §4.3.1 A-matrix quantization.
#include <gtest/gtest.h>

#include <cmath>

#include "sv/chunks.h"
#include "sv/supervoxel.h"
#include "sv/svb.h"
#include "test_util.h"

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
  // The SVB must be readable across every chunk window.
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

}  // namespace
}  // namespace mbir
