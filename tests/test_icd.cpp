// Tests for the ICD core: Algorithm 1 voxel updates, cost monotonicity,
// zero-skipping, update orders, convergence accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/hounsfield.h"
#include "core/rng.h"
#include "core/stats.h"
#include "geom/projector.h"
#include "icd/convergence.h"
#include "icd/cost.h"
#include "icd/sequential_icd.h"
#include "icd/update_order.h"
#include "icd/voxel_update.h"
#include "test_support.h"

namespace mbir {
namespace {

class IcdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    problem_ = &test::tinyProblem();
    x_ = problem_->fbpInitialImage();
    e_ = problem_->initialError(x_);
  }
  const OwnedProblem* problem_;
  Image2D x_;
  Sinogram e_;
};

TEST_F(IcdTest, ThetaMatchesBruteForce) {
  const Problem p = problem_->view();
  const std::size_t voxel = 17 * 32 + 12;
  const ThetaPair t = computeThetaGlobal(p.A, e_, p.weights, voxel);

  double t1 = 0.0, t2 = 0.0;
  p.A.forEachEntry(voxel, [&](int v, int c, float a) {
    t1 += -double(p.weights(v, c)) * double(a) * double(e_(v, c));
    t2 += double(p.weights(v, c)) * double(a) * double(a);
  });
  EXPECT_NEAR(t.theta1, t1, std::abs(t1) * 1e-12 + 1e-9);
  EXPECT_NEAR(t.theta2, t2, std::abs(t2) * 1e-12 + 1e-9);
}

TEST_F(IcdTest, Theta2NonNegative) {
  const Problem p = problem_->view();
  for (std::size_t voxel = 0; voxel < p.A.numVoxels(); voxel += 37) {
    EXPECT_GE(computeThetaGlobal(p.A, e_, p.weights, voxel).theta2, 0.0);
  }
}

TEST_F(IcdTest, UpdateMaintainsErrorSinogramInvariant) {
  // After any sequence of voxel updates, e must equal y - A x exactly
  // (within float accumulation error).
  const Problem p = problem_->view();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const int row = int(rng.below(32));
    const int col = int(rng.below(32));
    updateVoxelGlobal(p, x_, e_, row, col, false);
  }
  const Sinogram fresh = errorSinogram(p.A, p.y, x_);
  double worst = 0.0;
  for (std::size_t i = 0; i < fresh.flat().size(); ++i)
    worst = std::max(worst,
                     std::abs(double(fresh.flat()[i]) - double(e_.flat()[i])));
  EXPECT_LT(worst, 2e-3);
}

TEST_F(IcdTest, SingleUpdateDecreasesCost) {
  const Problem p = problem_->view();
  const CostBreakdown before = computeCost(p, x_, e_);
  // Update a voxel well inside the object.
  updateVoxelGlobal(p, x_, e_, 16, 16, false);
  const CostBreakdown after = computeCost(p, x_, e_);
  EXPECT_LE(after.total(), before.total() + 1e-6);
}

TEST_F(IcdTest, SweepDecreasesCostMonotonically) {
  const Problem p = problem_->view();
  SequentialIcd icd(p);
  double prev = computeCost(p, x_, e_).total();
  int violations = 0;
  for (int i = 0; i < test::kIterationBound && icd.runStats().equits < 4 &&
                  icd.stepIteration(x_, e_);
       ++i) {
    const double cost = computeCostFromScratch(p, x_).total();
    if (cost > prev * (1.0 + 1e-9)) ++violations;
    prev = cost;
  }
  EXPECT_GE(icd.runStats().equits, 4.0);
  EXPECT_EQ(violations, 0);
}

TEST_F(IcdTest, PositivityConstraintHolds) {
  const Problem p = problem_->view();
  SequentialIcd icd(p);
  test::stepEngine(icd, x_, e_, test::kIterationBound, 2);
  for (float v : x_.flat()) EXPECT_GE(v, 0.0f);
}

TEST_F(IcdTest, ZeroSkipSkipsIsolatedZeros) {
  const Problem p = problem_->view();
  Image2D x(32);  // all zero
  Sinogram e = problem_->initialError(x);
  const auto r = updateVoxelGlobal(p, x, e, 16, 16, true);
  EXPECT_FALSE(r.updated);
  EXPECT_EQ(x(16, 16), 0.0f);
  // Without zero-skip the same voxel does update.
  const auto r2 = updateVoxelGlobal(p, x, e, 16, 16, false);
  EXPECT_TRUE(r2.updated);
}

TEST_F(IcdTest, AllZeroStartTerminates) {
  const Problem p = problem_->view();
  Image2D x(32);
  Sinogram e = problem_->initialError(x);
  SequentialIcd icd(p);
  EXPECT_TRUE(icd.stepIteration(x, e));  // everything zero-skipped
  // The sweep updated no voxel, so the engine stops itself.
  EXPECT_FALSE(icd.stepIteration(x, e));
  const IcdRunStats& stats = icd.runStats();
  EXPECT_EQ(stats.voxel_updates, 0u);
  EXPECT_EQ(stats.sweeps, 1);
}

TEST_F(IcdTest, ConvergesToFixpoint) {
  const Problem p = problem_->view();
  SequentialIcd icd(p);
  test::stepEngine(icd, x_, e_, test::kIterationBound, 25);
  // At the fixpoint, further updates barely move any voxel. A handful of
  // high-contrast (metal-edge) voxels converge slowly under q-GGMRF's
  // halving surrogate steps, so bound the bulk (95th percentile) tightly
  // and the worst case loosely.
  std::vector<double> deltas;
  Image2D x2 = x_;
  Sinogram e2 = e_;
  for (int row = 0; row < 32; ++row)
    for (int col = 0; col < 32; ++col) {
      const auto r = updateVoxelGlobal(p, x2, e2, row, col, false);
      deltas.push_back(std::abs(double(r.delta)) * kHuPerMu);
    }
  EXPECT_LT(percentile(deltas, 95.0), 2.0);
  EXPECT_LT(percentile(deltas, 100.0), 60.0);
}

TEST_F(IcdTest, WorkCountersPopulated) {
  const Problem p = problem_->view();
  SequentialIcd icd(p);
  const IcdRunStats stats =
      test::stepEngine(icd, x_, e_, test::kIterationBound, 1);
  EXPECT_GT(stats.work.voxel_updates, 0u);
  EXPECT_GT(stats.work.theta_elements, stats.work.voxel_updates * 10);
  EXPECT_EQ(stats.work.theta_elements, stats.work.error_update_elements);
  EXPECT_GE(stats.work.voxels_visited, stats.work.voxel_updates);
}

TEST(EquitCounter, ConvertsUpdates) {
  EquitCounter c(100);
  c.addUpdates(250);
  EXPECT_DOUBLE_EQ(c.equits(), 2.5);
}

TEST(RmseHu, ScalesAttenuationDifference) {
  Image2D a(4), b(4);
  for (float& v : b.flat()) v = float(kMuWaterPerMm / 1000.0);  // 1 HU offset
  EXPECT_NEAR(rmseHu(a, b), 1.0, 1e-6);
}

// ---------- update order policies ----------

TEST(UpdateOrder, FirstIterationSelectsAll) {
  Rng rng(1);
  std::vector<double> mag(10, 0.0);
  const auto sel = selectSuperVoxels(1, 10, mag, 0.2, rng);
  EXPECT_EQ(sel.size(), 10u);
}

TEST(UpdateOrder, EvenIterationPicksTopMagnitude) {
  Rng rng(2);
  std::vector<double> mag{1, 9, 2, 8, 3, 7, 4, 6, 5, 0};
  const auto sel = selectSuperVoxels(2, 10, mag, 0.2, rng);
  ASSERT_EQ(sel.size(), 2u);
  std::set<int> s(sel.begin(), sel.end());
  EXPECT_TRUE(s.count(1));
  EXPECT_TRUE(s.count(3));
}

TEST(UpdateOrder, OddIterationIsRandomSubset) {
  Rng rng(3);
  std::vector<double> mag(20, 0.0);
  const auto sel = selectSuperVoxels(3, 20, mag, 0.25, rng);
  EXPECT_EQ(sel.size(), 5u);
  std::set<int> s(sel.begin(), sel.end());
  EXPECT_EQ(s.size(), 5u);  // distinct
  for (int i : sel) EXPECT_LT(i, 20);
}

TEST(UpdateOrder, FractionCeils) {
  std::vector<double> mag(7, 1.0);
  EXPECT_EQ(topFractionByMagnitude(mag, 0.25).size(), 2u);  // ceil(1.75)
}

TEST(UpdateOrder, RandomFractionDistinct) {
  Rng rng(4);
  const auto sel = randomFraction(50, 0.5, rng);
  std::set<int> s(sel.begin(), sel.end());
  EXPECT_EQ(s.size(), 25u);
}

// ---------- cost ----------

TEST_F(IcdTest, CostFromScratchMatchesMaintained) {
  const Problem p = problem_->view();
  const CostBreakdown a = computeCost(p, x_, e_);
  const CostBreakdown b = computeCostFromScratch(p, x_);
  EXPECT_NEAR(a.total(), b.total(), std::abs(b.total()) * 1e-4);
}

TEST_F(IcdTest, PriorEnergyZeroForFlatImage) {
  const Problem p = problem_->view();
  Image2D flat(32, 0.01f);
  const Sinogram e = problem_->initialError(flat);
  EXPECT_NEAR(computeCost(p, flat, e).prior, 0.0, 1e-12);
}

}  // namespace
}  // namespace mbir
