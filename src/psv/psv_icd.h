// PSV-ICD — Parallel SuperVoxel ICD (Wang et al., PPoPP 2016; paper Alg. 2).
//
// The state-of-the-art multicore CPU algorithm GPU-ICD is compared against:
//   * voxels grouped into SuperVoxels, each with private error/weight SVBs,
//   * SVs distributed across CPU cores (inter-SV parallelism only),
//   * voxels within an SV updated sequentially against the SVB,
//   * SVB deltas merged into the global error sinogram under a lock,
//   * concurrent SVs run as waves of one SV per thread, drawn from one
//     checkerboard group, each gathering the error the previous wave left
//     and writing back in a fixed order,
//   * per-iteration SV selection: all SVs (iter 1), top 20% by accumulated
//     update magnitude (even iters), random 20% (odd iters).
//
// This is a real std::thread implementation (functionally exact on any core
// count); the benches pair it with gsim's 16-core Xeon timing model for the
// Table 1 comparison. Waves bound each SV's staleness by the thread count
// rather than by OS scheduling: with sv_side > 2 * boundary_overlap the
// result is bit-identical across runs at a fixed thread count.
#pragma once

#include <cstdint>
#include <memory>

#include "geom/image.h"
#include "geom/sinogram.h"
#include "gsim/race_check.h"
#include "gsim/run_context.h"
#include "icd/problem.h"
#include "icd/work.h"
#include "sv/supervoxel.h"

namespace mbir {

struct PsvIcdOptions {
  SvGridOptions sv{.sv_side = 13, .boundary_overlap = 1};  // paper Table 1
  /// Fraction of SVs updated per iteration after the first (paper: 20%).
  double sv_fraction = 0.20;
  bool zero_skip = true;
  bool randomize_voxel_order = true;
  std::uint64_t seed = 11;
  /// 0 = use the global pool's size. Also the wave width, so the result
  /// depends on it.
  unsigned num_threads = 0;
  /// Device-semantics race checking: each iteration's concurrent SV sweeps
  /// are declared to a gsim::RaceDetector as one launch (one block per SV).
  /// Image and global-sinogram accesses are declared atomic — adjacent SVs
  /// of one iteration share boundary voxels and every SV gathers from and
  /// writes back to the one error sinogram — so the check guards the
  /// SVB-privacy claim and will flag any future scheme that drops the
  /// atomics. Defaults from GPUMBIR_RACE_CHECK.
  gsim::RaceCheckConfig race_check = gsim::RaceCheckConfig::fromEnv();
};

struct PsvRunStats {
  double equits = 0.0;
  int iterations = 0;
  WorkCounters work;
  /// Device-semantics race checking (zeros when disabled).
  bool race_check_enabled = false;
  std::uint64_t race_launches_checked = 0;
  std::uint64_t race_ranges_checked = 0;
  std::uint64_t race_reports = 0;
};

/// One engine object is one run, stepped by the caller's loop like every
/// engine (reconstruct() tests convergence between steps): stepIteration
/// performs one outer iteration (SV selection, the waves, the ordered
/// writebacks) on x and the matching error sinogram e in place and always
/// returns true; runStats() is kept in sync after every step. The SVB
/// plans, RNG streams, magnitudes, wave buffers, pool and race detector
/// live across steps, built once at construction.
///
/// From the run's context (gsim/run_context.h) the engine takes the
/// recorder (per-iteration host-clock spans on the job's lane and `psv.*`
/// counters) and the lane-group table its SVB row loops run on; neither
/// changes results.
class PsvIcd {
 public:
  PsvIcd(const Problem& problem, PsvIcdOptions options = {},
         const gsim::RunContext& ctx = {});
  ~PsvIcd();

  bool stepIteration(Image2D& x, Sinogram& e);
  const PsvRunStats& runStats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mbir
