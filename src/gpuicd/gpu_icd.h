// GPU-ICD — the paper's contribution (Algorithm 3).
//
// Exploits all three levels of MBIR parallelism on the (simulated) GPU:
//   * inter-SV:    SVs of one checkerboard group updated concurrently,
//                  up to BATCH_SIZE per kernel launch;
//   * intra-SV:    multiple consecutive threadblocks per SV, pulling voxels
//                  from a shared atomic queue (dynamic scheduling);
//   * intra-voxel: a threadblock's threads split a voxel's chunk rows,
//                  reduce theta1/theta2 through shared memory.
//
// Per batch, three kernels run (Alg. 3 lines 28-30): SVB generation, the
// MBIR update kernel, and the atomic global-error writeback — SVB creation
// and writeback are separate kernels to avoid polluting the update kernel's
// cache working set. Functional execution is exact (convergence behaviour,
// quantization error, batch-snapshot staleness are real); time is modeled
// per launch by gsim (DESIGN.md §1).
//
// A-chunk plans are not the engine's own: each batch borrows its SVs'
// plans from the system matrix's shared plan store (sv/chunks.h
// sharedChunkPlan), so every engine on one matrix — other jobs, devices
// and shard slabs included — reuses a plan once any of them has built it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "geom/image.h"
#include "geom/sinogram.h"
#include "gpuicd/tunables.h"
#include "gsim/executor.h"
#include "gsim/run_context.h"
#include "icd/problem.h"
#include "icd/work.h"
#include "sv/supervoxel.h"

namespace mbir {

class ThreadPool;

/// Row-slab ownership window for multi-device sharding (src/shard,
/// DESIGN.md §13). Disabled by default (row1 == row0): the engine's window
/// is the whole image [0, n). When enabled, the engine
/// updates only voxels inside its *updatable* window — the owned rows,
/// shrunk by one row at interior slab boundaries when halo == 0 so no
/// update ever reads an unowned, never-refreshed neighbour row. SV
/// selection is restricted to SVs intersecting that window; everything
/// outside is read-only halo state refreshed by the shard runner's
/// exchange between outer iterations.
struct SlabWindow {
  int row0 = 0;  ///< first owned image row (inclusive)
  int row1 = 0;  ///< one past the last owned image row
  int halo = 1;  ///< halo width in rows exchanged per outer iteration
  bool enabled() const { return row1 > row0; }
};

struct GpuIcdOptions {
  GpuTunables tunables;
  OptimFlags flags;
  bool zero_skip = true;
  std::uint64_t seed = 17;
  /// Simulated device; scale caches with gsim::scaleCachesToProblem when
  /// running reduced geometries.
  gsim::DeviceSpec device = gsim::titanXMaxwell();
  /// Host thread pool the update kernel's per-SV host tasks run on
  /// (nullptr = the process-wide pool). Results are bit-identical for any
  /// pool size; only host wall-clock changes.
  ThreadPool* host_pool = nullptr;
  /// Device-semantics race checking (gsim/race_check.h): every launch's
  /// per-block access declarations are intersected, independent of host
  /// interleaving. Defaults from GPUMBIR_RACE_CHECK; off costs one branch
  /// per declaration site and results are bit-identical either way.
  gsim::RaceCheckConfig race_check = gsim::RaceCheckConfig::fromEnv();
  /// Row-slab ownership window (disabled = whole image, the default).
  SlabWindow slab;
};

struct GpuRunStats {
  double equits = 0.0;
  int iterations = 0;
  double modeled_seconds = 0.0;
  int kernels_launched = 0;
  int batches_skipped_by_threshold = 0;
  /// Chunk-plan lookups in the matrix's shared plan store (sv/chunks.h
  /// sharedChunkPlan; host-side, no modeled GPU time). A miss is a lookup
  /// that built the plan; a hit found it built, by this run or any other
  /// job, device or slab on the same matrix.
  std::size_t chunk_cache_hits = 0;
  std::size_t chunk_cache_misses = 0;
  WorkCounters work;
  gsim::KernelStats kernel_stats;
  /// Per-kernel-name time/stats breakdown.
  std::map<std::string, gsim::NamedTotals> per_kernel;
  /// Device-semantics race checking (zeros when disabled). Diagnoses are
  /// readable via GpuIcd::raceDetector().
  bool race_check_enabled = false;
  std::uint64_t race_launches_checked = 0;
  std::uint64_t race_ranges_checked = 0;
  std::uint64_t race_reports = 0;
};

/// One engine object is one run. The caller owns the iteration loop and
/// its cap (reconstruct() tests convergence between steps; the shard runner
/// interleaves one step per slab with a halo exchange): stepIteration
/// performs one full outer iteration on x and e in place and always
/// returns true; runStats() is kept in sync after every step.
///
/// `ctx` is the run's plumbing (gsim/run_context.h), handed to the engine's
/// simulator as well: the recorder gets per-iteration spans on both clocks,
/// `gpuicd.*` metrics (chunk-cache hits/misses, batches) and per-launch
/// `gsim.launch.*` telemetry; the lane-group table runs the kernels' row
/// math; the fault hook fires before every launch. None of it changes
/// results.
class GpuIcd {
 public:
  GpuIcd(const Problem& problem, GpuIcdOptions options = {},
         const gsim::RunContext& ctx = {});
  ~GpuIcd();

  bool stepIteration(Image2D& x, Sinogram& e);
  const GpuRunStats& runStats() const;
  /// The race diagnoses of this engine's launches (gsim/race_check.h).
  const gsim::RaceDetector& raceDetector() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mbir
