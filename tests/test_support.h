// Shared problem builders and bit-identity assertion helpers for the test
// suite. Complements test_util.h (cached fixtures): everything here is the
// configuration / comparison boilerplate that used to be copied per test
// file. Include this instead of test_util.h when a test needs builders or
// bit-identity checks; it re-exports the fixtures.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "core/hash.h"
#include "gpuicd/gpu_icd.h"
#include "recon/reconstructor.h"
#include "test_util.h"

namespace mbir::test {

// Hashing lives in core/hash.h (shared with the service's image_hash and
// the bench determinism asserts); re-exported here for existing tests.
using mbir::fnv1a64;

/// Bit-level fingerprint of an image (hashes the float bit patterns, so any
/// single-ULP drift changes it).
inline std::uint64_t imageHash(const Image2D& x) { return fnv1a64(x.flat()); }

/// GPU-ICD options sized for the tiny 32^2 test problem: 8-pixel SVs and
/// simulated caches scaled to the 48-view sinogram (DESIGN.md §1).
inline GpuIcdOptions tinyGpuOptions(GpuIcdOptions opt = {}) {
  opt.tunables.sv.sv_side = 8;  // fits the 32^2 test image
  opt.device = gsim::scaleCachesToProblem(
      opt.device, double(tinyGeometry().num_views) / 720.0);
  return opt;
}

/// reconstruct() config sized for the tiny test problem (any engine).
/// reconstruct() always scales the simulated caches itself
/// (gpuEngineOptions).
inline RunConfig tinyRunConfig(Algorithm algorithm,
                               double max_equits = 25.0) {
  RunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.psv.sv.sv_side = 8;
  cfg.gpu.tunables.sv.sv_side = 8;
  cfg.max_equits = max_equits;
  return cfg;
}

/// tinyProblem()'s scan and prior on another matrix of the tiny geometry.
/// A copy of tinyProblem().matrix() has its own, empty plan store, so a run
/// on it starts cold whatever earlier tests built.
inline Problem tinyProblemOn(const SystemMatrix& A) {
  const OwnedProblem& p = tinyProblem();
  return Problem{A, p.scan().y, p.scan().weights, p.view().prior};
}

/// Bound on test loops that stop on equits or RMSE: far more iterations
/// than any of them needs on the tiny problem, so none runs unbounded.
inline constexpr int kIterationBound = 1000;

/// Step any engine (GpuIcd, PsvIcd, SequentialIcd, ShardedGpuIcd) on x and
/// e for `iterations` steps, fewer if its equits reach `max_equits` first
/// or the engine stops itself (reconstruct()'s loop with an iteration count
/// and only the equit cap); returns a copy of the final stats.
template <class Icd>
auto stepEngine(Icd& icd, Image2D& x, Sinogram& e, int iterations,
                double max_equits = std::numeric_limits<double>::infinity()) {
  for (int i = 0; i < iterations && icd.runStats().equits < max_equits &&
                  icd.stepIteration(x, e);
       ++i) {
  }
  return icd.runStats();
}

inline void expectImagesBitIdentical(const Image2D& a, const Image2D& b) {
  ASSERT_EQ(a.flat().size(), b.flat().size());
  EXPECT_EQ(0, std::memcmp(a.flat().data(), b.flat().data(),
                           a.flat().size() * sizeof(float)));
}

inline void expectStatsBitIdentical(const gsim::KernelStats& a,
                                    const gsim::KernelStats& b) {
  EXPECT_EQ(a.svb_access_bytes, b.svb_access_bytes);
  EXPECT_EQ(a.svb_access_time_bytes, b.svb_access_time_bytes);
  EXPECT_EQ(a.svb_unique_bytes, b.svb_unique_bytes);
  EXPECT_EQ(a.amatrix_access_bytes, b.amatrix_access_bytes);
  EXPECT_EQ(a.amatrix_unique_bytes, b.amatrix_unique_bytes);
  EXPECT_EQ(a.amatrix_via_texture, b.amatrix_via_texture);
  EXPECT_EQ(a.desc_bytes, b.desc_bytes);
  EXPECT_EQ(a.smem_bytes, b.smem_bytes);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops);
  EXPECT_EQ(a.atomic_ops_weighted, b.atomic_ops_weighted);
  EXPECT_EQ(a.l2_working_set_bytes, b.l2_working_set_bytes);
  EXPECT_EQ(a.imbalance_factor, b.imbalance_factor);
  EXPECT_EQ(a.grid_blocks, b.grid_blocks);
  EXPECT_EQ(a.launches, b.launches);
}

inline void expectGpuRunsBitIdentical(const GpuRunStats& sa, const Image2D& xa,
                                      const GpuRunStats& sb, const Image2D& xb) {
  expectImagesBitIdentical(xa, xb);
  EXPECT_EQ(sa.equits, sb.equits);
  EXPECT_EQ(sa.modeled_seconds, sb.modeled_seconds);
  EXPECT_EQ(sa.work.voxel_updates, sb.work.voxel_updates);
  EXPECT_EQ(sa.work.theta_elements, sb.work.theta_elements);
  EXPECT_EQ(sa.work.error_update_elements, sb.work.error_update_elements);
  // Padded SVB sizes: these move if a run read an SVB before growing it
  // over its chunk windows.
  EXPECT_EQ(sa.work.svb_gather_elements, sb.work.svb_gather_elements);
  EXPECT_EQ(sa.work.svb_writeback_elements, sb.work.svb_writeback_elements);
  expectStatsBitIdentical(sa.kernel_stats, sb.kernel_stats);
}

/// Full reconstruct() outcome comparison at the bit level: image, scalar
/// stats, and the whole convergence curve.
inline void expectRunResultsBitIdentical(const RunResult& a, const RunResult& b) {
  expectImagesBitIdentical(a.image, b.image);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.equits, b.equits);
  EXPECT_EQ(a.final_rmse_hu, b.final_rmse_hu);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
  EXPECT_EQ(a.work.voxel_updates, b.work.voxel_updates);
  EXPECT_EQ(a.work.theta_elements, b.work.theta_elements);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].equits, b.curve[i].equits);
    EXPECT_EQ(a.curve[i].modeled_seconds, b.curve[i].modeled_seconds);
    EXPECT_EQ(a.curve[i].rmse_hu, b.curve[i].rmse_hu);
  }
}

}  // namespace mbir::test
