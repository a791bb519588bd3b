// Sparse CT system matrix (the paper's "A-matrix").
//
// A has one column per voxel and one row per (view, channel) measurement.
// Because a parallel-beam voxel footprint covers only a few adjacent
// channels per view (the sinusoidal trace of Fig. 1b), each column is
// stored as, per view, a (first_channel, count) run plus its weights.
// Per the paper (§4.1), all of a voxel's A elements across all views are
// contiguous in memory ("placed in memory in a contiguous fashion, using a
// sparse matrix format").
//
// Shared by every algorithm in the repo: projectors, sequential ICD,
// PSV-ICD, and GPU-ICD (which additionally re-packs it into zero-padded
// chunks and a quantized uint8 form — see sv/). Those re-packed plans are
// geometry-static, so the matrix owns a store of them (planStore()) that
// every engine, device and shard slab on it shares.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/plan_store.h"
#include "geom/geometry.h"

namespace mbir {

class SystemMatrix {
 public:
  /// Location of one voxel-view run.
  struct Run {
    std::uint32_t offset;        ///< index of the first weight in weights()
    std::uint16_t first_channel; ///< detector channel of the first weight
    std::uint16_t count;         ///< number of channels covered (may be 0)
  };

  /// Compute the matrix for a geometry. Cost is O(numVoxels * numViews);
  /// parallelized over voxels on the global thread pool. The matrix's plan
  /// store retains up to `plan_budget_bytes`; a copy of the matrix starts
  /// with an empty store of the same budget.
  static SystemMatrix compute(
      const ParallelBeamGeometry& g,
      std::size_t plan_budget_bytes = PlanStore::kDefaultBudgetBytes);

  const ParallelBeamGeometry& geometry() const { return geom_; }
  int numViews() const { return geom_.num_views; }
  int numChannels() const { return geom_.num_channels; }
  std::size_t numVoxels() const { return geom_.numVoxels(); }

  const Run& run(std::size_t voxel, int view) const {
    return runs_[voxel * std::size_t(geom_.num_views) + std::size_t(view)];
  }

  std::span<const float> weights(std::size_t voxel, int view) const {
    const Run& r = run(voxel, view);
    return {weights_.data() + r.offset, std::size_t(r.count)};
  }

  /// All weights of a voxel's column, across views, contiguous.
  std::span<const float> columnWeights(std::size_t voxel) const;

  /// Largest A entry in the voxel's column (0 for an all-zero column).
  /// Used by the uint8 quantization (§4.3.1).
  float voxelMax(std::size_t voxel) const { return voxel_max_[voxel]; }

  /// Sum of squared entries of the voxel's column (unweighted).
  double columnSumSquares(std::size_t voxel) const;

  /// Total nonzero entries (after edge-trimming of runs).
  std::size_t nnz() const { return nnz_; }

  /// Maximum voxel footprint width (channels) over all voxels and views.
  int maxFootprintWidth() const { return max_footprint_width_; }

  /// Store of state derived from this matrix and shared by all its users
  /// (sv/chunks.h sharedChunkPlan). Thread-safe, so it is usable through a
  /// const matrix; it dies with the matrix.
  PlanStore& planStore() const { return plan_store_.get(); }

  /// Visit every nonzero of a voxel column: fn(view, channel, weight).
  template <typename Fn>
  void forEachEntry(std::size_t voxel, Fn&& fn) const {
    for (int v = 0; v < geom_.num_views; ++v) {
      const Run& r = run(voxel, v);
      const float* w = weights_.data() + r.offset;
      for (int k = 0; k < int(r.count); ++k)
        fn(v, int(r.first_channel) + k, w[k]);
    }
  }

 private:
  SystemMatrix() = default;

  ParallelBeamGeometry geom_;
  std::vector<Run> runs_;       // voxel-major, then view
  std::vector<float> weights_;  // voxel-major, then view, then channel
  std::vector<float> voxel_max_;
  std::size_t nnz_ = 0;
  int max_footprint_width_ = 0;
  OwnedPlanStore plan_store_;
};

}  // namespace mbir
