// Multi-device slab-sharded GPU-ICD engine (DESIGN.md §13).
//
// Splits one reconstruction across the slabs of a ShardPlan: every slab
// gets its own GpuIcd engine on its own simulated device state (a full
// private image + error-sinogram copy), restricted to its slab window.
// Execution is bulk-synchronous and, like GpuIcd, stepped one outer
// iteration at a time by the caller's loop. Each step is a fork-join: one
// task per simulated device steps that device's slabs, and after the join
// the calling thread runs a halo exchange — three kernels on a dedicated
// exchange simulator, every access race-declared — that merges the
// per-slab error deltas in slab order, assembles the authoritative image
// from owned rows, and refreshes each slab's halo rows. Interconnect cost
// (halo rows + error all-reduce over a modeled PCIe/NVLink link) is added
// to the synchronized device clocks.
//
// Determinism contract: the image/error bits are a pure function of the
// problem and the ShardPlan. The device count D only maps slabs onto
// devices (slab s -> device s % D) and therefore only changes *modeled
// time* — D=1, 2, 4 produce bit-identical images for one plan, and an
// S=1 plan is bit-identical to the unsharded GpuIcd.
#pragma once

#include <cstdint>
#include <memory>

#include "geom/image.h"
#include "geom/sinogram.h"
#include "gpuicd/gpu_icd.h"
#include "gsim/timing.h"
#include "icd/problem.h"
#include "shard/plan.h"

namespace mbir::shard {

struct ShardedOptions {
  /// Per-slab engine template. The slab window and the run seed (taken
  /// from the plan) are overridden per slab; everything else — tunables,
  /// flags, device spec, host pool, race checking — applies to every slab
  /// engine and the exchange simulator.
  GpuIcdOptions engine;
  /// Simulated devices the slabs run on, slab s -> device s % devices.
  /// Must be in [1, numSlabs]. Changes modeled time only, never bits.
  int devices = 1;
  /// Interconnect the halo rows and error all-reduce travel over.
  gsim::LinkSpec link = gsim::pcie3Link();
  /// Test-only sabotage (tests/test_shard.cpp): the halo-pack kernel's
  /// first block declares — without performing — a write reaching past its
  /// slab boundary, modeling a kernel that touches an unowned halo without
  /// a declared exchange. The race detector must attribute the resulting
  /// write-write conflict exactly.
  bool plant_undeclared_halo_write = false;
};

struct ShardRunStats {
  int iterations = 0;
  double equits = 0.0;
  /// Synchronized multi-device modeled time: per-device compute, synced
  /// at each exchange, plus exchange kernels and interconnect transfers.
  double modeled_seconds = 0.0;
  /// Critical-path compute: max over devices of summed slab kernel time.
  double compute_seconds = 0.0;
  /// Interconnect time on the critical path (halo + all-reduce + initial
  /// broadcast + final gather). Zero when devices == 1.
  double comm_seconds = 0.0;
  /// Exchange-kernel time on the dedicated exchange simulator.
  double exchange_seconds = 0.0;
  std::size_t comm_bytes = 0;
  std::size_t comm_transfers = 0;
  int exchanges = 0;
  WorkCounters work;  ///< summed over slab engines
  int kernels_launched = 0;
  /// Race-check totals summed over every slab simulator + the exchange
  /// simulator (zeros when checking is off).
  bool race_check_enabled = false;
  std::uint64_t race_launches_checked = 0;
  std::uint64_t race_ranges_checked = 0;
  std::uint64_t race_reports = 0;
};

/// One engine object is one run, stepped by the caller exactly like GpuIcd:
/// `while (icd.stepIteration(x, e) && ...) {}` and then finish().
class ShardedGpuIcd {
 public:
  /// Validates the plan against the problem's image size and `opt.devices`
  /// against the slab count (throws mbir::Error on mismatch), seeds every
  /// slab's private copies of x and e, and charges the initial broadcast.
  /// `ctx` (gsim/run_context.h) goes to the exchange simulator and, as a
  /// per-slab copy, to every slab engine; only slab engines on device 0
  /// keep its fault hook (the copies of the others clear it), so with the
  /// exchange simulator the fault-event sequence stays single-threaded and
  /// replayable.
  ShardedGpuIcd(const Problem& problem, ShardPlan plan, ShardedOptions opt,
                const Image2D& x, const Sinogram& e,
                const gsim::RunContext& ctx = {});
  ~ShardedGpuIcd();

  /// One BSP outer iteration: every device steps its slabs, then the
  /// exchange assembles x and e in place. Always returns true; the caller's
  /// loop owns the cap. A slab engine's exception rethrows here after every
  /// device has joined.
  bool stepIteration(Image2D& x, Sinogram& e);
  /// Kept in sync after every step; modeled_seconds is the synchronized
  /// clock after the last exchange.
  const ShardRunStats& runStats() const;
  /// End of run, called once after the last step: charges the final
  /// device-to-host gather and fills the compute and exchange seconds, the
  /// work and kernel sums, and the race-check totals.
  const ShardRunStats& finish();

  const ShardPlan& plan() const;
  /// The exchange simulator — tests read its race detector to prove the
  /// halo exchange is fully declared (and that planted trespasses trip).
  gsim::GpuSimulator& exchangeSimulator();
  /// Slab engine `s`'s race diagnoses (the slab-local update kernels).
  const gsim::RaceDetector& slabRaceDetector(int s) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mbir::shard
