// Functional GPU kernel executor + per-launch profiler.
//
// Kernels are written as C++ callables over a BlockCtx. Each launch says
// how many host tasks its threadblocks split into (LaunchConfig::host_tasks):
// one task runs every block inline on the calling thread; more tasks each
// run one contiguous block range, in block order, on the host thread pool.
// A launcher asks for as many tasks as its blocks have real work (the
// update kernel: one per SV). Every block reports to its own
// KernelProfiler and the per-block stats are merged in block-index order,
// so the LaunchReport — counters and modeled time — is bit-identical for
// any task split and any host thread count. Kernels must therefore be
// written like real CUDA blocks: no unsynchronized writes to state shared
// across blocks (DESIGN.md §gsim host execution model). Alongside the
// functional work, kernels report their memory behaviour at *warp*
// granularity to the KernelProfiler; the launch() call converts the
// counters to modeled time (gsim/timing.h).
//
// This is the substitution for CUDA hardware: same algorithm, same parallel
// semantics, modeled performance (DESIGN.md §1).
#pragma once

#include <functional>
#include <map>
#include <string>

#include "core/error.h"
#include "gsim/device.h"
#include "gsim/kernel_stats.h"
#include "gsim/occupancy.h"
#include "gsim/race_check.h"
#include "gsim/run_context.h"
#include "gsim/simd.h"
#include "gsim/timing.h"

namespace mbir {
class ThreadPool;
}

namespace mbir::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace mbir::obs

namespace mbir::gsim {

/// Accounting interface kernels report through.
///
/// Kernels report at warp granularity: one call per warp-contiguous access,
/// flop batch or atomic run. The transformed update kernel's hot loop
/// instead makes one chunk charge per pass (thetaChunk, errorChunk), which
/// stands for its per-row calls over all of the chunk's rows and leaves
/// every accumulator bit-identical to them. Counters whose addends are all
/// integers (transaction bytes, smem bytes, flops, atomic counts) are
/// charged once as rows x value, which is exact while the sum stays below
/// 2^53. The two whose addends are not integers keep one add per row in
/// the original order, because floating-point addition is not associative:
/// svb_access_time_bytes (float-width reads add bytes /
/// l2_float_width_factor) and atomic_ops_weighted (count x conflict).
/// Everything is inline, so the calls melt into the kernels' loops.
class KernelProfiler {
 public:
  explicit KernelProfiler(const DeviceSpec& dev) : dev_(dev) {}

  /// Post-coalescing transaction count for one warp-contiguous access.
  int transactions(int elements, int elem_bytes, bool aligned) const {
    if (elements <= 0) return 0;
    const int span = elements * elem_bytes;
    int n = (span + dev_.transaction_bytes - 1) / dev_.transaction_bytes;
    if (!aligned) ++n;  // straddles one extra line
    return n;
  }

  /// One warp reads/writes `elements` contiguous SVB elements of
  /// `elem_bytes`. `aligned` = starts on a transaction boundary;
  /// `as_double` = issued as 8-byte loads (§4.3.2 width trick).
  void svbAccess(int elements, int elem_bytes, bool aligned, bool as_double) {
    const double bytes = double(transactions(elements, elem_bytes, aligned)) *
                         dev_.transaction_bytes;
    stats_.svb_access_bytes += bytes;
    stats_.svb_access_time_bytes +=
        as_double ? bytes : bytes / dev_.l2_float_width_factor;
  }

  /// Uncoalesced SVB access: each element is its own transaction (the naive
  /// layout's sensor-channel-major walk, Fig. 4a).
  void svbScalarAccess(int elements, int elem_bytes) {
    // One transaction per element; width penalty applies (narrow loads).
    const double bytes = double(elements) * dev_.transaction_bytes;
    (void)elem_bytes;
    stats_.svb_access_bytes += bytes;
    stats_.svb_access_time_bytes += bytes / dev_.l2_float_width_factor;
  }

  /// Idle-lane time: warps occupying the L2 path without useful traffic
  /// (e.g. chunk rows not divisible by the block's warp count). Counts
  /// toward time but not toward achieved-bandwidth reports.
  void svbIdle(int elements, int elem_bytes) {
    const double bytes = double(transactions(elements, elem_bytes, true)) *
                         dev_.transaction_bytes;
    stats_.svb_access_time_bytes += bytes;
  }

  /// Declare load imbalance (completion-time multiplier; max is kept).
  void setImbalance(double factor) {
    MBIR_CHECK(factor >= 1.0);
    if (factor > stats_.imbalance_factor) stats_.imbalance_factor = factor;
  }

  /// Compulsory SVB footprint (counted once per SVB per kernel).
  void svbUnique(std::size_t bytes) { stats_.svb_unique_bytes += double(bytes); }

  /// One warp reads `elements` contiguous A-matrix elements.
  void amatrixAccess(int elements, int elem_bytes, bool aligned) {
    stats_.amatrix_access_bytes +=
        double(transactions(elements, elem_bytes, aligned)) *
        dev_.transaction_bytes;
  }
  void amatrixScalarAccess(int elements, int elem_bytes) {
    (void)elem_bytes;
    stats_.amatrix_access_bytes += double(elements) * dev_.transaction_bytes;
  }
  void amatrixUnique(std::size_t bytes) {
    stats_.amatrix_unique_bytes += double(bytes);
  }
  void setAmatrixViaTexture(bool via_texture) {
    stats_.amatrix_via_texture = via_texture;
  }

  /// Chunk-descriptor / per-view index lookups.
  void descRead(std::size_t bytes) { stats_.desc_bytes += double(bytes); }

  void smemTraffic(std::size_t bytes) { stats_.smem_bytes += double(bytes); }
  void addFlops(double n) { stats_.flops += n; }

  /// `conflict_mult` >= 1: expected serialization (same-address replays).
  void svbAtomic(int ops, double conflict_mult) {
    MBIR_CHECK(conflict_mult >= 1.0);
    stats_.atomic_ops += ops;
    stats_.atomic_ops_weighted += double(ops) * conflict_mult;
  }
  void globalAtomic(int ops, double conflict_mult) {
    svbAtomic(ops, conflict_mult);
  }

  void setL2WorkingSet(double bytes) { stats_.l2_working_set_bytes = bytes; }

  /// Theta pass of the transformed update kernel over one chunk of `rows`
  /// rows, W wide. Per row: the e and w SVB rows (svbAccess twice), the A
  /// row (amatrixAccess), the lanes past W in the row's last warp pass
  /// (svbIdle twice, when W is not a warp multiple), `smem_per_row` spill
  /// bytes and 3W flops.
  void thetaChunk(int rows, int W, int a_bytes, bool aligned, bool as_double,
                  std::size_t smem_per_row) {
    const double tx = dev_.transaction_bytes;
    const double svb = double(transactions(W, 4, aligned)) * tx;
    const double svb_time = as_double ? svb : svb / dev_.l2_float_width_factor;
    const int warp = dev_.warp_size;
    const int idle_lanes = (W + warp - 1) / warp * warp - W;
    const double idle = double(transactions(idle_lanes, 4, true)) * tx;
    double time_bytes = stats_.svb_access_time_bytes;
    for (int r = 0; r < rows; ++r) {
      time_bytes += svb_time;
      time_bytes += svb_time;
      if (idle_lanes > 0) {
        time_bytes += idle;
        time_bytes += idle;
      }
    }
    stats_.svb_access_time_bytes = time_bytes;
    const double n = rows;
    stats_.svb_access_bytes += n * (2.0 * svb);
    stats_.amatrix_access_bytes +=
        n * (double(transactions(W, a_bytes, aligned)) * tx);
    stats_.smem_bytes += n * double(smem_per_row);
    stats_.flops += n * (3.0 * W);
  }

  /// Error pass of the transformed update kernel over one chunk. Per row:
  /// one 4-byte SVB row access (atomics are 4-byte), the A row, an atomic
  /// per element of the row's band (svbAtomic(band.n, conflict)) and 2W
  /// flops.
  void errorChunk(const RowBand* bands, int rows, int W, int a_bytes,
                  bool aligned, double conflict) {
    MBIR_CHECK(conflict >= 1.0);
    const double tx = dev_.transaction_bytes;
    const double svb = double(transactions(W, 4, aligned)) * tx;
    const double svb_time = svb / dev_.l2_float_width_factor;
    double time_bytes = stats_.svb_access_time_bytes;
    double weighted = stats_.atomic_ops_weighted;
    int ops = 0;
    for (int r = 0; r < rows; ++r) {
      time_bytes += svb_time;
      weighted += double(bands[r].n) * conflict;
      ops += bands[r].n;
    }
    stats_.svb_access_time_bytes = time_bytes;
    stats_.atomic_ops_weighted = weighted;
    const double n = rows;
    stats_.svb_access_bytes += n * svb;
    stats_.amatrix_access_bytes +=
        n * (double(transactions(W, a_bytes, aligned)) * tx);
    stats_.atomic_ops += ops;
    stats_.flops += n * (2.0 * W);
  }

  // Race-check declarations (no-ops — one branch — unless the executor
  // attached a BlockAccessLog for this launch). Buffer ids come from
  // GpuSimulator::raceDetector()->bufferId(), resolved host-side before the
  // launch; [lo, hi) are half-open element ranges of that buffer.
  void raceRead(int buffer, std::int64_t lo, std::int64_t hi) {
    if (race_log_) race_log_->read(buffer, lo, hi);
  }
  void raceWrite(int buffer, std::int64_t lo, std::int64_t hi) {
    if (race_log_) race_log_->write(buffer, lo, hi);
  }
  void raceAtomic(int buffer, std::int64_t lo, std::int64_t hi) {
    if (race_log_) race_log_->atomic(buffer, lo, hi);
  }
  /// Grid-wide phase boundary (cooperative grid sync): accesses in
  /// different phases never conflict. Every block must declare the same
  /// phase sequence, like every block reaching the same barrier.
  void racePhase(int phase) {
    if (race_log_) race_log_->setPhase(phase);
  }
  bool raceCheckOn() const { return race_log_ != nullptr; }
  void setRaceLog(BlockAccessLog* log) { race_log_ = log; }

  const KernelStats& stats() const { return stats_; }

 private:
  const DeviceSpec& dev_;
  KernelStats stats_;
  BlockAccessLog* race_log_ = nullptr;
};

/// Lane-group execution context: how this launch's warps execute their
/// functional math. `ops` is the lane-group table of the owning
/// GpuSimulator's run context (scalar or AVX2 — bit-identical either way, see
/// gsim/simd.h); kernels route their hot row loops through it, processing
/// `lanes` simulated warp lanes per step. Profiler and race declarations
/// stay at warp granularity and do not depend on which path runs.
struct WarpCtx {
  const SimdOps& ops;
  int lanes = kSimdLanes;
};

/// Context passed to kernel code for one threadblock.
struct BlockCtx {
  int block_idx;
  int num_blocks;
  KernelProfiler& prof;
  WarpCtx warp;
};

struct LaunchConfig {
  std::string name;
  int num_blocks = 1;
  /// Host tasks the blocks split into: task t of T runs blocks
  /// [N*t/T, N*(t+1)/T) in order on one pool thread. 1 (or less) runs every
  /// block inline on the calling thread; more than num_blocks acts as
  /// num_blocks. A host wall-clock knob only: the report does not change.
  int host_tasks = 1;
  KernelResources resources;
};

struct LaunchReport {
  Occupancy occupancy;
  KernelStats stats;
  KernelTime time;
};

/// Aggregated per-kernel-name totals.
struct NamedTotals {
  KernelStats stats;
  double seconds = 0.0;
  int launches = 0;
};

class GpuSimulator {
 public:
  /// `ctx` is the run's plumbing (gsim/run_context.h), borrowed for the
  /// simulator's lifetime:
  ///   - recorder: every launch records one span per clock (host wall time
  ///     + modeled device time) with its KernelStats and time breakdown as
  ///     args, on the job's lanes via ctx.record(); optional per-block
  ///     host-clock spans; and `gsim.launch.*` metrics. Observational only.
  ///   - simd: the lane-group table launches hand to kernels through
  ///     BlockCtx::warp. Scalar and AVX2 are bit-identical.
  ///   - fault_hook: called at the top of every launch with
  ///     "launch:<kernel>" and this simulator's launch sequence number,
  ///     *before* any block runs. It may throw (LaunchFault — the launch is
  ///     accounted as never having happened) or block (a stalled device).
  ///     See gsim/fault.h.
  /// Race checking auto-enables from GPUMBIR_RACE_CHECK=1 so any existing
  /// binary can be run checked without a code change; setRaceCheck()
  /// overrides either way.
  explicit GpuSimulator(DeviceSpec spec = titanXMaxwell(), RunContext ctx = {});

  const DeviceSpec& device() const { return dev_; }

  /// Reconfigure device-semantics race checking (gsim/race_check.h). Resets
  /// the detector; off by default and one branch per declaration when off.
  void setRaceCheck(const RaceCheckConfig& cfg) { race_.reconfigure(cfg); }
  bool raceCheckOn() const { return race_.config().enabled; }
  /// The per-simulator detector — buffer registration for kernels and
  /// report/totals readout for callers. Valid whether or not checking is
  /// enabled (everything is cheap and empty when off).
  RaceDetector& raceDetector() { return race_; }
  const RaceDetector& raceDetector() const { return race_; }

  /// Host thread pool split launches run on (nullptr = process-wide pool).
  /// Purely a wall-clock knob: results are identical for any pool.
  void setHostPool(ThreadPool* pool) { host_pool_ = pool; }

  /// Run every block of the kernel functionally, as cfg.host_tasks
  /// contiguous block ranges (inline on the calling thread when that is 1,
  /// else one pool task per range); model and accumulate time. The report
  /// is invariant to the task split and the host thread count: each block
  /// profiles into its own KernelProfiler and the per-block stats are
  /// merged in block-index order.
  LaunchReport launch(const LaunchConfig& cfg,
                      const std::function<void(BlockCtx&)>& kernel);

  /// Account host<->device or kernel-free modeled time (e.g. a memcpy).
  void addModeledSeconds(double s) { total_seconds_ += s; }

  double totalModeledSeconds() const { return total_seconds_; }
  const KernelStats& totalStats() const { return total_stats_; }
  const std::map<std::string, NamedTotals>& perKernel() const { return per_kernel_; }
  void resetTotals();

 private:
  /// gsim.launch.* instruments, resolved once at construction so the
  /// launch path never does registry lookups.
  struct Instruments {
    obs::Counter* launches = nullptr;
    obs::Counter* blocks = nullptr;
    obs::Counter* svb_access_bytes = nullptr;
    obs::Counter* svb_unique_bytes = nullptr;
    obs::Counter* amatrix_access_bytes = nullptr;
    obs::Counter* flops = nullptr;
    obs::Counter* atomic_ops = nullptr;
    obs::Gauge* occupancy = nullptr;
    obs::Histogram* modeled_seconds = nullptr;
    obs::Counter* race_launches_checked = nullptr;
    obs::Counter* race_ranges_checked = nullptr;
    obs::Counter* race_races_found = nullptr;
  };

  DeviceSpec dev_;
  RaceDetector race_;
  ThreadPool* host_pool_ = nullptr;
  RunContext ctx_;  ///< ctx_.simd always set
  std::uint64_t launch_seq_ = 0;
  Instruments inst_;
  KernelStats total_stats_;
  double total_seconds_ = 0.0;
  std::map<std::string, NamedTotals> per_kernel_;
};

}  // namespace mbir::gsim
