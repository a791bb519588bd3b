// Tests for the recon facade: suites, golden protocol, reconstruct(),
// cross-algorithm integration on a small problem, and the flat-region
// artifact metric.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/error.h"
#include "core/rng.h"
#include "icd/convergence.h"
#include "icd/cost.h"
#include "recon/metrics.h"
#include "recon/reconstructor.h"
#include "recon/suite.h"
#include "shard/shard_job.h"
#include "test_support.h"

namespace mbir {
namespace {

TEST(Suite, CasesAreDeterministic) {
  SuiteConfig cfg;
  cfg.geometry = test::tinyGeometry();
  Suite suite(cfg);
  const auto a = suite.makeCase(3);
  const auto b = suite.makeCase(3);
  EXPECT_EQ(a.scan().ground_truth.rmsDiff(b.scan().ground_truth), 0.0);
  double ydiff = 0.0;
  for (std::size_t i = 0; i < a.scan().y.flat().size(); ++i)
    ydiff += std::abs(double(a.scan().y.flat()[i]) - double(b.scan().y.flat()[i]));
  EXPECT_EQ(ydiff, 0.0);
}

TEST(Suite, CasesDiffer) {
  SuiteConfig cfg;
  cfg.geometry = test::tinyGeometry();
  Suite suite(cfg);
  const auto a = suite.makeCase(0);
  const auto b = suite.makeCase(1);
  EXPECT_GT(a.scan().ground_truth.rmsDiff(b.scan().ground_truth), 0.0);
}

TEST(Suite, MatrixSharedAcrossCases) {
  SuiteConfig cfg;
  cfg.geometry = test::tinyGeometry();
  Suite suite(cfg);
  const auto a = suite.makeCase(0);
  const auto b = suite.makeCase(1);
  EXPECT_EQ(&a.matrix(), &b.matrix());
}

TEST(Suite, BaggageFitsFov) {
  SuiteConfig cfg;
  cfg.geometry = test::tinyGeometry();
  Suite suite(cfg);
  EXPECT_LE(suite.config().baggage.field_radius_mm,
            cfg.geometry.fieldOfViewRadius());
  // Phantom content must be inside the grid: ground truth borders are air.
  const auto scan = suite.makeCase(2).scan();
  const int n = cfg.geometry.image_size;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(scan.ground_truth(0, i), 0.0f);
    EXPECT_EQ(scan.ground_truth(n - 1, i), 0.0f);
  }
}

TEST(Suite, SheppLoganCaseWorks) {
  SuiteConfig cfg;
  cfg.geometry = test::tinyGeometry();
  Suite suite(cfg);
  const auto c = suite.makeSheppLoganCase();
  EXPECT_GT(c.scan().y.sumSquares(), 0.0);
}

TEST(OwnedProblem, FbpInitNonZeroInsideObject) {
  const auto& p = test::tinyProblem();
  const Image2D x0 = p.fbpInitialImage();
  double mass = 0.0;
  for (float v : x0.flat()) mass += double(v);
  EXPECT_GT(mass, 0.0);
}

TEST(OwnedProblem, InitialErrorMatchesResidual) {
  const auto& p = test::tinyProblem();
  const Image2D x0 = p.fbpInitialImage();
  const Sinogram e = p.initialError(x0);
  // Energy of the residual is below the raw data energy (FBP explains most
  // of the sinogram).
  EXPECT_LT(e.sumSquares(), p.scan().y.sumSquares());
}

TEST(Golden, MoreEquitsLowerCost) {
  const auto& p = test::tinyProblem();
  const Image2D g5 = computeGolden(p, 5.0);
  const Image2D g20 = computeGolden(p, 20.0);
  const double c5 = computeCostFromScratch(p.view(), g5).total();
  const double c20 = computeCostFromScratch(p.view(), g20).total();
  EXPECT_LE(c20, c5);
}

class AlgorithmParam : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmParam, ReconstructConvergesUnderThreshold) {
  const auto& p = test::tinyProblem();
  const Image2D& golden = test::tinyGolden();
  const RunConfig cfg = test::tinyRunConfig(GetParam());
  const RunResult r = reconstruct(p, golden, cfg);
  EXPECT_TRUE(r.converged) << algorithmName(GetParam());
  EXPECT_LT(r.final_rmse_hu, kConvergedRmseHu);
  EXPECT_GT(r.equits, 0.0);
  EXPECT_GT(r.modeled_seconds, 0.0);
  EXPECT_FALSE(r.curve.empty());
  // Curve ends below where it starts.
  EXPECT_LT(r.curve.back().rmse_hu, r.curve.front().rmse_hu + 1e-9);
  // Image is physical.
  for (float v : r.image.flat()) EXPECT_GE(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(All, AlgorithmParam,
                         ::testing::Values(Algorithm::kSequentialIcd,
                                           Algorithm::kPsvIcd,
                                           Algorithm::kGpuIcd));

TEST(ReconIntegration, AlgorithmsAgreePairwise) {
  const auto& p = test::tinyProblem();
  const Image2D& golden = test::tinyGolden();
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd);
  const auto seq = reconstruct(p, golden, cfg);
  cfg.algorithm = Algorithm::kPsvIcd;
  const auto psv = reconstruct(p, golden, cfg);
  cfg.algorithm = Algorithm::kGpuIcd;
  const auto gpu = reconstruct(p, golden, cfg);

  EXPECT_LT(rmseHu(seq.image, psv.image), 15.0);
  EXPECT_LT(rmseHu(seq.image, gpu.image), 15.0);
  EXPECT_LT(rmseHu(psv.image, gpu.image), 15.0);

  // Modeled machine ordering: the parallel engines beat sequential. (At
  // this tiny 32^2 scale kernel-launch overhead can put GPU-ICD behind
  // PSV-ICD; the GPU advantage at realistic sizes is what bench/table1
  // demonstrates.)
  EXPECT_GT(seq.modeled_seconds, psv.modeled_seconds);
  EXPECT_GT(seq.modeled_seconds, gpu.modeled_seconds);
}

TEST(ReconIntegration, CurveTimesAreMonotone) {
  const auto& p = test::tinyProblem();
  const Image2D& golden = test::tinyGolden();
  const auto r = reconstruct(p, golden, test::tinyRunConfig(Algorithm::kGpuIcd));
  for (std::size_t i = 1; i < r.curve.size(); ++i) {
    EXPECT_GE(r.curve[i].equits, r.curve[i - 1].equits);
    EXPECT_GE(r.curve[i].modeled_seconds, r.curve[i - 1].modeled_seconds);
  }
}

TEST(ReconIntegration, StopRmseDisabledRunsToMaxEquits) {
  const auto& p = test::tinyProblem();
  const Image2D& golden = test::tinyGolden();
  RunConfig cfg;
  cfg.algorithm = Algorithm::kSequentialIcd;
  cfg.stop_rmse_hu = -1.0;
  cfg.max_equits = 3.0;
  const auto r = reconstruct(p, golden, cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.equits, 2.0);
}

TEST(ReconIntegration, GpuStatsExposed) {
  const auto& p = test::tinyProblem();
  const Image2D& golden = test::tinyGolden();
  const auto r = reconstruct(p, golden, test::tinyRunConfig(Algorithm::kGpuIcd));
  ASSERT_TRUE(r.gpu_stats.has_value());
  EXPECT_GT(r.gpu_stats->kernels_launched, 0);
  EXPECT_EQ(r.gpu_stats->per_kernel.count("mbir_update"), 1u);
  EXPECT_GT(r.gpu_stats->kernel_stats.svb_access_bytes, 0.0);
}

TEST(Reconstruct, AllZeroWarmStartTerminatesOnEveryEngine) {
  // An all-zero start zero-skips every voxel on every engine, so no run
  // ever does work and only the stops that are not the caller's end it:
  // the sequential engine's own stop after its first empty sweep, and
  // reconstruct()'s iteration cap (2000 curve points) for every other
  // engine, sharded included.
  const OwnedProblem& p = test::tinyProblem();
  const Image2D& golden = test::tinyGolden();
  const auto zero = std::make_shared<const Image2D>(p.geometry().image_size);
  const auto config = [&](Algorithm algorithm) {
    RunConfig cfg = test::tinyRunConfig(algorithm);
    cfg.stop_rmse_hu = -1.0;
    cfg.initial_image = zero;
    return cfg;
  };

  const RunResult seq = reconstruct(p, golden, config(Algorithm::kSequentialIcd));
  ASSERT_TRUE(seq.seq_stats.has_value());
  EXPECT_EQ(seq.seq_stats->sweeps, 1);
  EXPECT_EQ(seq.curve.size(), 1u);
  EXPECT_EQ(seq.equits, 0.0);

  const RunResult psv = reconstruct(p, golden, config(Algorithm::kPsvIcd));
  ASSERT_TRUE(psv.psv_stats.has_value());
  EXPECT_EQ(psv.psv_stats->iterations, 2000);
  EXPECT_EQ(psv.curve.size(), 2000u);
  EXPECT_EQ(psv.equits, 0.0);

  const RunResult gpu = reconstruct(p, golden, config(Algorithm::kGpuIcd));
  ASSERT_TRUE(gpu.gpu_stats.has_value());
  EXPECT_EQ(gpu.gpu_stats->iterations, 2000);
  EXPECT_EQ(gpu.curve.size(), 2000u);
  EXPECT_EQ(gpu.equits, 0.0);

  shard::ShardConfig sc;
  sc.plan = shard::makeShardPlan(p.geometry().image_size, /*num_slabs=*/2,
                                 /*halo=*/1);
  sc.devices = 2;
  sc.base = config(Algorithm::kGpuIcd);
  const shard::ShardRunResult sharded = shard::reconstructSharded(p, golden, sc);
  EXPECT_EQ(sharded.shard.iterations, 2000);
  EXPECT_EQ(sharded.run.curve.size(), 2000u);
  EXPECT_EQ(sharded.run.equits, 0.0);

  for (const RunResult* r : {&seq, &psv, &gpu, &sharded.run}) {
    EXPECT_FALSE(r->converged);
    EXPECT_FALSE(r->cancelled);
    EXPECT_TRUE(r->warm_started);
    EXPECT_EQ(r->work.voxel_updates, 0u);
  }
}

TEST(PriorConfig, BothKindsConstruct) {
  PriorConfig q;
  EXPECT_NE(makePrior(q), nullptr);
  PriorConfig quad;
  quad.kind = PriorConfig::Kind::kQuadratic;
  EXPECT_NE(makePrior(quad), nullptr);
}

// ---------- flat-region metric ----------

TEST(Metrics, FlatRegionExcludesEdges) {
  Image2D truth(16);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 8; ++c) truth(r, c) = 0.02f;  // half-plane edge
  Image2D img = truth;
  // Corrupt only the edge column: flat metric must ignore it.
  for (int r = 0; r < 16; ++r) img(r, 8) = 0.05f;
  EXPECT_NEAR(flatRegionRmseHu(img, truth), 0.0, 1e-9);
  EXPECT_GT(flatRegionFraction(truth), 0.3);
}

TEST(Metrics, FlatRegionSeesUniformNoise) {
  Image2D truth(16), img(16);
  Rng rng(4);
  for (float& v : img.flat()) v = float(rng.uniform() * 1e-3);
  EXPECT_GT(flatRegionRmseHu(img, truth), 1.0);
}

TEST(Metrics, AllEdgesThrows) {
  Image2D truth(8);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) truth(r, c) = float(r * 8 + c);  // no flat area
  Image2D img = truth;
  EXPECT_THROW(flatRegionRmseHu(img, truth), Error);
}

}  // namespace
}  // namespace mbir
