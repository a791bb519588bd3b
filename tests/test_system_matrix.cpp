// Tests for the sparse system matrix and projectors — the geometric
// substrate every algorithm relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/rng.h"
#include "core/simd.h"
#include "geom/footprint.h"
#include "geom/projector.h"
#include "geom/system_matrix.h"
#include "phantom/analytic_projection.h"
#include "phantom/ellipse.h"
#include "phantom/rasterize.h"
#include "test_util.h"

namespace mbir {
namespace {

class SystemMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = test::tinyGeometry();
    A_ = test::cachedMatrix(g_);
  }
  ParallelBeamGeometry g_;
  std::shared_ptr<const SystemMatrix> A_;
};

TEST_F(SystemMatrixTest, CopyHasSameEntriesAndAnEmptyPlanStore) {
  SystemMatrix original = SystemMatrix::compute(g_, /*plan_budget_bytes=*/1000);
  original.planStore().getOrBuild("k", [] {
    return PlanStore::Built{std::make_shared<const int>(1), 4};
  });
  const SystemMatrix copy = original;
  EXPECT_EQ(copy.nnz(), original.nnz());
  EXPECT_EQ(copy.maxFootprintWidth(), original.maxFootprintWidth());
  for (std::size_t j = 0; j < copy.numVoxels(); j += 17) {
    EXPECT_EQ(copy.voxelMax(j), original.voxelMax(j));
    const auto a = copy.columnWeights(j), b = original.columnWeights(j);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  EXPECT_NE(&copy.planStore(), &original.planStore());
  EXPECT_EQ(copy.planStore().residentEntries(), 0u);
  EXPECT_EQ(copy.planStore().budgetBytes(), 1000u);
  EXPECT_EQ(original.planStore().residentEntries(), 1u);
  // A move carries the store along.
  const PlanStore* store = &original.planStore();
  const SystemMatrix moved = std::move(original);
  EXPECT_EQ(&moved.planStore(), store);
}

TEST_F(SystemMatrixTest, RowSumEqualsPixelAreaOverSpacing) {
  // sum_j A[v][j] * spacing = integral of the footprint = pixel_area,
  // for any voxel whose footprint is not clipped by the detector edge.
  const int n = g_.image_size;
  const std::size_t voxel = std::size_t(n / 2) * std::size_t(n) + std::size_t(n / 2);
  const double expect = g_.pixel_size_mm * g_.pixel_size_mm / g_.channel_spacing_mm;
  for (int v = 0; v < g_.num_views; ++v) {
    double sum = 0.0;
    for (float w : A_->weights(voxel, v)) sum += double(w);
    EXPECT_NEAR(sum, expect, expect * 1e-4) << "view " << v;
  }
}

TEST_F(SystemMatrixTest, RunsWithinDetector) {
  for (std::size_t voxel = 0; voxel < A_->numVoxels(); voxel += 17) {
    for (int v = 0; v < g_.num_views; ++v) {
      const auto& r = A_->run(voxel, v);
      if (r.count == 0) continue;
      EXPECT_GE(int(r.first_channel), 0);
      EXPECT_LE(int(r.first_channel) + int(r.count), g_.num_channels);
    }
  }
}

TEST_F(SystemMatrixTest, WeightsPositiveAfterTrim) {
  // Trimming removes zero edge entries; first and last weight of every run
  // must be strictly positive.
  for (std::size_t voxel = 0; voxel < A_->numVoxels(); voxel += 13) {
    for (int v = 0; v < g_.num_views; ++v) {
      const auto w = A_->weights(voxel, v);
      if (w.empty()) continue;
      EXPECT_GT(w.front(), 0.0f);
      EXPECT_GT(w.back(), 0.0f);
    }
  }
}

TEST_F(SystemMatrixTest, VoxelMaxIsColumnMax) {
  for (std::size_t voxel = 0; voxel < A_->numVoxels(); voxel += 31) {
    float vmax = 0.0f;
    A_->forEachEntry(voxel, [&](int, int, float w) { vmax = std::max(vmax, w); });
    EXPECT_FLOAT_EQ(A_->voxelMax(voxel), vmax);
  }
}

TEST_F(SystemMatrixTest, MaxFootprintWidthCoversAllRuns) {
  int widest = 0;
  for (std::size_t voxel = 0; voxel < A_->numVoxels(); ++voxel)
    for (int v = 0; v < g_.num_views; ++v)
      widest = std::max(widest, int(A_->run(voxel, v).count));
  EXPECT_EQ(A_->maxFootprintWidth(), widest);
  // Geometric sanity: footprint <= pixel diagonal / spacing + 2.
  const double diag = g_.pixel_size_mm * std::sqrt(2.0);
  EXPECT_LE(widest, int(diag / g_.channel_spacing_mm) + 3);
}

TEST_F(SystemMatrixTest, ColumnSumSquaresMatchesManual) {
  const std::size_t voxel = 5 * 32 + 9;
  double manual = 0.0;
  A_->forEachEntry(voxel, [&](int, int, float w) { manual += double(w) * w; });
  EXPECT_NEAR(A_->columnSumSquares(voxel), manual, 1e-12);
}

TEST_F(SystemMatrixTest, AdjointnessOfProjectors) {
  // <A x, y> == <x, A^T y> for random x, y.
  Rng rng(3);
  Image2D x(g_.image_size);
  for (float& v : x.flat()) v = float(rng.uniform());
  Sinogram y(g_);
  for (float& v : y.flat()) v = float(rng.uniform());

  const Sinogram ax = forwardProject(*A_, x);
  const Image2D aty = backProject(*A_, y);

  const double lhs = innerProductSino(ax, y);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numVoxels(); ++i)
    rhs += double(x[i]) * double(aty[i]);
  EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-5);
}

TEST_F(SystemMatrixTest, ForwardProjectionMatchesAnalytic) {
  // Discrete projection of a rasterized disc should approximate the exact
  // line integrals away from the edge.
  EllipsePhantom phantom;
  phantom.ellipses.push_back({0.0, 0.0, 8.0, 8.0, 0.0, 0.02});
  const Image2D img = rasterize(phantom, g_, 4);
  const Sinogram discrete = forwardProject(*A_, img);
  const Sinogram exact = analyticProject(phantom, g_);

  double err = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < discrete.flat().size(); ++i) {
    err += std::abs(double(discrete.flat()[i]) - double(exact.flat()[i]));
    ref += std::abs(double(exact.flat()[i]));
  }
  EXPECT_LT(err / ref, 0.03);  // 3% relative L1
}

TEST_F(SystemMatrixTest, ErrorSinogramIsResidual) {
  Rng rng(5);
  Image2D x(g_.image_size);
  for (float& v : x.flat()) v = float(rng.uniform() * 0.01);
  EllipsePhantom phantom;
  phantom.ellipses.push_back({1.0, -2.0, 6.0, 5.0, 0.4, 0.02});
  const Sinogram y = analyticProject(phantom, g_);
  const Sinogram e = errorSinogram(*A_, y, x);
  const Sinogram ax = forwardProject(*A_, x);
  for (int v = 0; v < g_.num_views; v += 11)
    for (int c = 0; c < g_.num_channels; c += 7)
      EXPECT_NEAR(e(v, c), y(v, c) - ax(v, c), 1e-5);
}

// forwardProject as it was before it split views across the pool: one
// thread, every voxel over every view.
Sinogram serialForwardProject(const SystemMatrix& A, const Image2D& x) {
  const SimdOps& ops = resolveSimdOps(SimdMode::kDefault);
  Sinogram y(A.numViews(), A.numChannels());
  auto ys = y.flat();
  for (std::size_t voxel = 0; voxel < A.numVoxels(); ++voxel) {
    const float xv = x[voxel];
    if (xv == 0.0f) continue;
    for (int v = 0; v < A.numViews(); ++v) {
      const auto w = A.weights(voxel, v);
      float* dst = ys.data() + std::size_t(v) * std::size_t(A.numChannels()) +
                   A.run(voxel, v).first_channel;
      ops.axpy_row(w.data(), xv, dst, int(w.size()));
    }
  }
  return y;
}

TEST_F(SystemMatrixTest, ForwardProjectEqualsSerialReference) {
  ParallelBeamGeometry odd = g_;
  odd.num_views = 7;  // fewer views than some pools have threads
  for (const ParallelBeamGeometry& g : {g_, odd}) {
    const auto A = test::cachedMatrix(g);
    Rng rng(13);
    Image2D x(g.image_size);
    for (float& v : x.flat())
      v = rng.uniform() < 0.3 ? 0.0f : float(rng.uniform() * 0.02);
    const Sinogram got = forwardProject(*A, x);
    const Sinogram want = serialForwardProject(*A, x);
    ASSERT_EQ(got.flat().size(), want.flat().size());
    EXPECT_EQ(0, std::memcmp(got.flat().data(), want.flat().data(),
                             got.flat().size() * sizeof(float)))
        << "views " << g.num_views;
  }
}

TEST_F(SystemMatrixTest, ZeroImageForwardProjectsToZero) {
  Image2D x(g_.image_size);
  const Sinogram y = forwardProject(*A_, x);
  EXPECT_DOUBLE_EQ(y.sumSquares(), 0.0);
}

struct GeometryCase {
  int views, channels, size;
};

class MatrixGeometrySweep : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(MatrixGeometrySweep, BuildsConsistently) {
  const auto p = GetParam();
  ParallelBeamGeometry g = test::tinyGeometry();
  g.num_views = p.views;
  g.num_channels = p.channels;
  g.image_size = p.size;
  const SystemMatrix A = SystemMatrix::compute(g);
  EXPECT_EQ(A.numVoxels(), std::size_t(p.size) * std::size_t(p.size));
  EXPECT_GT(A.nnz(), 0u);
  EXPECT_GT(A.maxFootprintWidth(), 0);
  // Center voxel is never fully clipped.
  const std::size_t center =
      std::size_t(p.size / 2) * std::size_t(p.size) + std::size_t(p.size / 2);
  std::size_t nnz = 0;
  A.forEachEntry(center, [&](int, int, float) { ++nnz; });
  EXPECT_GE(nnz, std::size_t(p.views));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixGeometrySweep,
                         ::testing::Values(GeometryCase{16, 32, 16},
                                           GeometryCase{48, 64, 32},
                                           GeometryCase{36, 48, 24},
                                           GeometryCase{90, 128, 48}));

}  // namespace
}  // namespace mbir
