// Sequential ICD — the publicly-available single-core MBIR reference the
// paper's Table 1 speedups are measured against, and the generator of the
// 40-equit "golden" images used for convergence measurement.
#pragma once

#include <cstdint>
#include <functional>

#include "geom/image.h"
#include "geom/sinogram.h"
#include "gsim/race_check.h"
#include "icd/convergence.h"
#include "icd/problem.h"
#include "icd/work.h"

namespace mbir::obs {
class Recorder;
}  // namespace mbir::obs

namespace mbir {

struct SequentialIcdOptions {
  /// Hard cap on work (equits).
  double max_equits = 40.0;
  /// Randomize voxel visit order each sweep (faster convergence, §2.1).
  bool randomize_order = true;
  /// Apply the zero-skipping rule.
  bool zero_skip = true;
  std::uint64_t seed = 7;
  /// Observability sink (nullptr = off): per-sweep host-clock spans and
  /// `seq.*` counters. Purely observational.
  obs::Recorder* recorder = nullptr;
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

/// Called after each full sweep with cumulative progress; return false to
/// stop.
using SweepCallback =
    std::function<bool(const Image2D& x, const IcdRunStats& progress)>;

class SequentialIcd {
 public:
  SequentialIcd(const Problem& problem, SequentialIcdOptions options = {});

  /// Run sweeps over the image until max_equits or the callback stops it.
  /// `x` is the starting image (updated in place); `e` must be the matching
  /// error sinogram y - A x (updated in place).
  IcdRunStats run(Image2D& x, Sinogram& e, const SweepCallback& on_sweep = {});

 private:
  const Problem problem_;  // by value: Problem is a non-owning view struct
  SequentialIcdOptions options_;
};

}  // namespace mbir
