// Shared fixtures for the gpumbir test suite.
//
// System matrices are expensive to build, so tests share cached instances
// per geometry (computed once per process).
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "geom/system_matrix.h"
#include "recon/problem_setup.h"
#include "recon/reconstructor.h"
#include "recon/suite.h"

namespace mbir::test {

/// Tiny geometry for unit tests.
inline ParallelBeamGeometry tinyGeometry() {
  ParallelBeamGeometry g;
  g.num_views = 48;
  g.num_channels = 64;
  g.image_size = 32;
  g.pixel_size_mm = 0.8;
  g.channel_spacing_mm = 0.5;
  return g;
}

/// Slightly larger geometry for integration tests.
inline ParallelBeamGeometry smallGeometry() {
  ParallelBeamGeometry g;
  g.num_views = 72;
  g.num_channels = 96;
  g.image_size = 48;
  g.pixel_size_mm = 0.8;
  g.channel_spacing_mm = 0.5;
  return g;
}

/// Cached system matrix for a geometry (keyed by shape).
inline std::shared_ptr<const SystemMatrix> cachedMatrix(
    const ParallelBeamGeometry& g) {
  static std::mutex mu;
  static std::map<std::tuple<int, int, int>, std::shared_ptr<const SystemMatrix>>
      cache;
  std::lock_guard lock(mu);
  const auto key = std::make_tuple(g.num_views, g.num_channels, g.image_size);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto A = std::make_shared<const SystemMatrix>(SystemMatrix::compute(g));
  cache[key] = A;
  return A;
}

/// A cached, fully-set-up baggage problem on the tiny geometry.
inline const OwnedProblem& tinyProblem() {
  static const OwnedProblem problem = [] {
    SuiteConfig cfg;
    cfg.geometry = tinyGeometry();
    Suite suite(cfg);
    return suite.makeCase(0);
  }();
  return problem;
}

/// tinyProblem()'s case on its own matrix whose plan store retains
/// nothing (budget 0): every chunk-plan lookup builds its plan. Results
/// are bit-identical to tinyProblem()'s.
inline const OwnedProblem& tinyProblemNoPlanRetention() {
  static const OwnedProblem problem(
      std::make_shared<const SystemMatrix>(
          SystemMatrix::compute(tinyGeometry(), /*plan_budget_bytes=*/0)),
      tinyProblem().scan(), SuiteConfig{}.prior);
  return problem;
}

/// A cached golden image for tinyProblem().
inline const Image2D& tinyGolden() {
  static const Image2D golden = computeGolden(tinyProblem(), 30.0);
  return golden;
}

}  // namespace mbir::test
