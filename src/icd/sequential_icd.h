// Sequential ICD — the publicly-available single-core MBIR reference the
// paper's Table 1 speedups are measured against, and the generator of the
// 40-equit "golden" images used for convergence measurement.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "geom/image.h"
#include "geom/sinogram.h"
#include "gsim/race_check.h"
#include "gsim/run_context.h"
#include "icd/problem.h"
#include "icd/work.h"

namespace mbir::obs {
class Counter;
}  // namespace mbir::obs

namespace mbir {

struct SequentialIcdOptions {
  /// Randomize voxel visit order each sweep (faster convergence, §2.1).
  bool randomize_order = true;
  /// Apply the zero-skipping rule.
  bool zero_skip = true;
  std::uint64_t seed = 7;
  /// Device-semantics race checking. Sequential ICD is single-threaded, so
  /// each sweep is declared as a trivial one-block launch — always clean;
  /// wired so all three engines report through the same channel and the
  /// baseline exercises the disabled/enabled paths. Defaults from
  /// GPUMBIR_RACE_CHECK.
  gsim::RaceCheckConfig race_check = gsim::RaceCheckConfig::fromEnv();
};

struct IcdRunStats {
  double equits = 0.0;
  std::size_t voxel_updates = 0;
  int sweeps = 0;
  WorkCounters work;  ///< consumed by gsim's CPU timing models
  /// Device-semantics race checking (zeros when disabled).
  bool race_check_enabled = false;
  std::uint64_t race_launches_checked = 0;
  std::uint64_t race_ranges_checked = 0;
  std::uint64_t race_reports = 0;
};

/// One engine object is one run, stepped by the caller's loop like every
/// engine (reconstruct() tests convergence between steps): stepIteration
/// performs one full sweep over the image on x and the matching error
/// sinogram e = y - A x in place; runStats() is kept in sync after every
/// step. The engine's one stop of its own: once a sweep updated no voxel,
/// stepIteration returns false without sweeping. That sweep zero-skipped
/// every voxel, so the image is all zero and every later sweep would too.
/// The run's recorder (gsim/run_context.h) gets per-sweep host-clock spans
/// on the job's lane and `seq.*` counters; purely observational.
class SequentialIcd {
 public:
  SequentialIcd(const Problem& problem, SequentialIcdOptions options = {},
                const gsim::RunContext& ctx = {});

  bool stepIteration(Image2D& x, Sinogram& e);
  const IcdRunStats& runStats() const { return stats_; }

 private:
  const Problem problem_;  // by value: Problem is a non-owning view struct
  SequentialIcdOptions options_;
  gsim::RunContext ctx_;
  Rng rng_;
  std::vector<int> order_;
  /// Per-voxel nonzero counts, for the work counters the CPU timing model
  /// consumes.
  std::vector<std::uint32_t> nnz_;
  // Single-threaded baseline: each sweep is one "block" touching the whole
  // image and error sinogram — trivially race-free, but declared so all
  // three engines exercise the same checking channel.
  gsim::RaceDetector race_;
  int rb_image_ = -1, rb_sino_e_ = -1;
  obs::Counter* m_sweeps_ = nullptr;
  obs::Counter* m_updates_ = nullptr;
  IcdRunStats stats_;
  bool stalled_ = false;  ///< the last sweep updated no voxel
};

}  // namespace mbir
