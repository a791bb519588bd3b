// Reconstructor facade: run any of the three ICD engines against an
// OwnedProblem with the paper's convergence protocol (§5.2):
//   * golden image = 40-equit sequential ICD,
//   * convergence = RMSE vs golden < 10 HU,
//   * work measured in equits, time via the per-machine models.
//
// Also records the (equits, modeled seconds, RMSE) convergence curve —
// that's Fig. 5's data. Each run builds one gsim::RunContext from its
// RunConfig (recorder, job span, resolved SIMD table, fault hook) and hands
// it to the engine it builds; no engine option carries that plumbing.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/simd.h"
#include "gpuicd/gpu_icd.h"
#include "icd/sequential_icd.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "psv/psv_icd.h"
#include "recon/problem_setup.h"

namespace mbir {

enum class Algorithm { kSequentialIcd, kPsvIcd, kGpuIcd };

const char* algorithmName(Algorithm a);

struct RunConfig {
  Algorithm algorithm = Algorithm::kGpuIcd;
  /// Stop when RMSE vs golden falls below this (HU); <= 0 disables.
  double stop_rmse_hu = 10.0;
  /// Cap on work; must be > 0. Every engine also stops after
  /// reconstruct()'s fixed cap of 2000 iterations.
  double max_equits = 60.0;
  SequentialIcdOptions seq;
  PsvIcdOptions psv;
  GpuIcdOptions gpu;
  /// Observability: when enabled, reconstruct() creates an obs::Recorder,
  /// hands it to the selected engine (and the GPU simulator) in the run's
  /// gsim::RunContext, records reconstructor-phase and per-iteration spans
  /// on both clocks, and exports the trace / run report to the configured
  /// paths (DESIGN.md §observability). Disabled by default: outputs are
  /// bit-identical to a config without observability.
  obs::ObsConfig obs;
  /// Record into this caller-owned session instead of creating one
  /// (`obs` is then ignored and no files are exported — the owner decides
  /// when/where). Used by the service dispatcher so concurrent jobs share
  /// one trace/metrics session; registration is mutex-guarded, updates atomic.
  obs::Recorder* external_recorder = nullptr;
  /// Cooperative cancellation: checked at every iteration boundary; when
  /// the flag is set the run stops and RunResult::cancelled is true. The
  /// partial image/curve up to that iteration are still returned. nullptr
  /// (default) = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-job span context (nullptr = none, obs/span.h): every engine,
  /// launch and protocol span carries the job's id/tenant and lands on its
  /// lanes (host clock: span->host_tid; modeled clock: span->trace_pid, the
  /// device's trace process), and coarse per-iteration events feed the
  /// job's flight recorder. Borrowed; must outlive the run. Purely
  /// observational.
  const obs::JobSpanContext* span = nullptr;
  /// Lane-group execution path for engine row math (core/simd.h).
  /// reconstruct() resolves it once into the run context, so it applies to
  /// whichever engine runs; kDefault defers to the GPUMBIR_SIMD env knob.
  /// Scalar and AVX2 are bit-identical, so this only changes host
  /// wall-clock — never results. The resolved path lands in
  /// RunResult::simd_path and every report that embeds a config.
  SimdMode simd = SimdMode::kDefault;
  /// Fault-injection hook (nullptr = none, gsim/fault.h): called at every
  /// iteration boundary for all three engines (the chaos watchdog's
  /// heartbeat) and, for the GPU engine, additionally before every
  /// simulated launch. May throw or block; reconstruct() lets thrown
  /// faults unwind to the dispatch layer. Borrowed; scoped to the run.
  gsim::FaultHook* fault_hook = nullptr;
  /// Warm start (src/store result cache): start the solve from this image
  /// instead of the FBP initialization. Must match the problem's
  /// image_size. Zero-skipping stays sound — a cached reconstruction has
  /// air at ~zero just like FBP. Changes WHERE iteration starts, so a
  /// warm-started run reaches the same stop tolerance in fewer equits but
  /// with different final bits than a cold run; the service therefore
  /// never warm-starts deterministic-lane jobs. shared_ptr: the cache
  /// retains the entry while queued jobs reference it.
  std::shared_ptr<const Image2D> initial_image;
};

struct ConvergencePoint {
  double equits;
  double modeled_seconds;
  double rmse_hu;
};

struct RunResult {
  Image2D image;
  bool converged = false;
  /// Stopped early because RunConfig::cancel was set.
  bool cancelled = false;
  /// Started from RunConfig::initial_image rather than FBP.
  bool warm_started = false;
  double equits = 0.0;
  double final_rmse_hu = 0.0;
  /// Modeled wall-clock on the paper's machine for this algorithm
  /// (16-core Xeon for PSV, single core for sequential, Titan X for GPU).
  double modeled_seconds = 0.0;
  /// Real host wall-clock of the run (functional execution + modeling),
  /// for tracking actual speedups of the simulator itself across PRs.
  double host_seconds = 0.0;
  WorkCounters work;
  /// Lane-group path the run actually executed on ("scalar" or "avx2").
  const char* simd_path = "";
  std::vector<ConvergencePoint> curve;
  std::optional<GpuRunStats> gpu_stats;
  std::optional<PsvRunStats> psv_stats;
  std::optional<IcdRunStats> seq_stats;
  /// The run's observability session (null unless RunConfig::obs enabled):
  /// metrics registry + trace, inspectable after the run regardless of
  /// whether files were exported.
  std::shared_ptr<obs::Recorder> recorder;
};

/// Compute the golden reference: sequential ICD from the FBP start, swept
/// until it has done `equits` (> 0) of work.
Image2D computeGolden(const OwnedProblem& problem, double equits = 40.0);

/// Run one reconstruction to the configured convergence criterion with the
/// in-tree engine config.algorithm names.
RunResult reconstruct(const OwnedProblem& problem, const Image2D& golden,
                      const RunConfig& config);

/// The protocol's per-iteration step as an engine sees it: report the image,
/// cumulative equits and cumulative modeled seconds at an iteration
/// boundary; false = stop.
using IterationTrack = std::function<bool(const Image2D& x, double equits,
                                          double modeled_seconds)>;

/// An engine plugged into reconstruct()'s protocol. It builds a stepper
/// engine with the run's context `ctx` (recorder, span, lane-group table
/// and fault hook, built once from RunConfig), steps it in place on
/// result.image and `e` (already set up: FBP or warm start, e = y - Ax) in
/// the one loop shape,
/// `while (icd.stepIteration(x, e) && track(x, equits, modeled)) {}`, and
/// then fills the engine-owned fields of `result`: equits, work,
/// modeled_seconds and its stats.
using Engine = std::function<void(const gsim::RunContext& ctx, Sinogram& e,
                                  const IterationTrack& track,
                                  RunResult& result)>;

/// The protocol itself, the only implementation of it: setup (warm start or
/// FBP, initial error, `recon.setup` span), the per-iteration step (fault
/// seam, cancel, RMSE curve, `recon.iteration` spans, flight events, stop
/// rule and the only iteration cap), and finish (metrics, report/trace
/// export). shard::reconstructSharded() plugs its multi-device engine in
/// here.
RunResult reconstruct(const OwnedProblem& problem, const Image2D& golden,
                      const RunConfig& config, const Engine& engine);

/// GPU-ICD engine options for one run under `config`: config.gpu with the
/// simulated caches scaled to this problem's sinogram size (DESIGN.md §1).
/// Shared by the in-tree GPU engine and the sharded per-slab template.
GpuIcdOptions gpuEngineOptions(const OwnedProblem& problem,
                               const RunConfig& config);

}  // namespace mbir
