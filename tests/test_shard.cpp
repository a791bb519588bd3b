// The shard test wall (DESIGN.md §13): slab-plan properties, the
// device-count determinism contract, halo-width edge cases, race-cleanliness
// of the halo exchange (plus exact attribution of a planted undeclared halo
// write), interconnect accounting, and cancellation and slab faults in a
// multi-device gang.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/error.h"
#include "gsim/fault.h"
#include "obs/json.h"
#include "shard/plan.h"
#include "shard/shard_job.h"
#include "shard/sharded_icd.h"
#include "test_support.h"

namespace mbir::shard {
namespace {

using test::expectImagesBitIdentical;
using test::imageHash;
using test::tinyGolden;
using test::tinyGpuOptions;
using test::tinyProblem;

std::uint64_t sinoHash(const Sinogram& e) { return fnv1a64(e.flat()); }

// ---------------------------------------------------------------------------
// Slab plans
// ---------------------------------------------------------------------------

TEST(ShardPlan, EvenSplitPropertiesFuzzed) {
  // Every (size, slabs) combination must tile [0, size) exactly: start at
  // row 0, end at the last row, stay contiguous with no overlap, keep every
  // height positive, and spread the remainder one row at a time.
  for (int size : {1, 2, 3, 5, 7, 8, 16, 31, 32, 33, 48, 97, 128}) {
    for (int num_slabs = 1; num_slabs <= std::min(8, size); ++num_slabs) {
      const ShardPlan plan = makeShardPlan(size, num_slabs, 0);
      ASSERT_EQ(plan.numSlabs(), num_slabs);
      EXPECT_EQ(plan.image_size, size);
      EXPECT_EQ(plan.slabs.front().row0, 0);
      EXPECT_EQ(plan.slabs.back().row1, size);
      std::vector<bool> covered(std::size_t(size), false);
      int min_h = size, max_h = 0;
      for (int s = 0; s < num_slabs; ++s) {
        const SlabSpec& slab = plan.slabs[std::size_t(s)];
        ASSERT_GE(slab.height(), 1) << "size=" << size << " slabs=" << num_slabs;
        if (s > 0) EXPECT_EQ(slab.row0, plan.slabs[std::size_t(s - 1)].row1);
        for (int r = slab.row0; r < slab.row1; ++r) {
          ASSERT_FALSE(covered[std::size_t(r)]) << "row " << r << " overlaps";
          covered[std::size_t(r)] = true;
        }
        min_h = std::min(min_h, slab.height());
        max_h = std::max(max_h, slab.height());
      }
      for (int r = 0; r < size; ++r)
        ASSERT_TRUE(covered[std::size_t(r)]) << "row " << r << " uncovered";
      EXPECT_LE(max_h - min_h, 1) << "size=" << size << " slabs=" << num_slabs;
      EXPECT_NO_THROW(plan.validate());
    }
  }
}

TEST(ShardPlan, HaloEdgeWidths) {
  // 0 (freeze boundaries) and 1 are both legal, as is a halo equal to the
  // shortest slab; one past that reaches *through* a slab and is rejected.
  EXPECT_NO_THROW(makeShardPlan(32, 4, 0));
  EXPECT_NO_THROW(makeShardPlan(32, 4, 1));
  EXPECT_NO_THROW(makeShardPlan(32, 4, 8));   // halo == slab height
  EXPECT_THROW(makeShardPlan(32, 4, 9), Error);
  EXPECT_THROW(makeShardPlan(33, 4, 9), Error);  // shortest slab is 8
}

TEST(ShardPlan, RejectsMalformedPlans) {
  EXPECT_THROW(makeShardPlan(32, 0, 1), Error);
  EXPECT_THROW(makeShardPlan(32, 33, 1), Error);  // more slabs than rows
  EXPECT_THROW(makeShardPlan(0, 1, 0), Error);

  ShardPlan plan = makeShardPlan(32, 2, 1);
  plan.halo = -1;
  EXPECT_THROW(plan.validate(), Error);

  plan = makeShardPlan(32, 2, 1);
  plan.slabs[1].row0 = 17;  // gap
  EXPECT_THROW(plan.validate(), Error);

  plan = makeShardPlan(32, 2, 1);
  plan.slabs[1].row0 = 15;  // overlap
  EXPECT_THROW(plan.validate(), Error);

  plan = makeShardPlan(32, 2, 1);
  plan.slabs[1].row1 = 31;  // does not reach the last row
  EXPECT_THROW(plan.validate(), Error);
}

TEST(ShardPlan, ToJsonRoundTripsThroughParser) {
  const ShardPlan plan = makeShardPlan(32, 4, 2, /*seed=*/99);
  const obs::JsonValue doc = obs::parseJson(plan.toJson());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("image_size")->num_v, 32.0);
  EXPECT_EQ(doc.find("halo")->num_v, 2.0);
  EXPECT_EQ(doc.find("seed")->num_v, 99.0);
  EXPECT_EQ(doc.find("slabs")->array_v.size(), 4u);
}

// ---------------------------------------------------------------------------
// The sharded runner
// ---------------------------------------------------------------------------

struct ShardRun {
  Image2D x;
  Sinogram e;
  ShardRunStats stats;
};

ShardRun runSharded(const ShardPlan& plan, ShardedOptions opt,
                    int iterations = 4) {
  const OwnedProblem& problem = tinyProblem();
  ShardRun out{problem.fbpInitialImage(), Sinogram(), {}};
  out.e = problem.initialError(out.x);
  ShardedGpuIcd runner(problem.view(), plan, std::move(opt), out.x, out.e);
  test::stepEngine(runner, out.x, out.e, iterations);
  out.stats = runner.finish();
  return out;
}

ShardedOptions tinyShardOptions(int devices) {
  ShardedOptions opt;
  opt.engine = tinyGpuOptions();
  opt.devices = devices;
  return opt;
}

TEST(ShardedGpuIcd, BitIdenticalAcrossDeviceCounts) {
  // The determinism contract: one plan -> one image, for ANY device count.
  // Devices only remap slabs onto simulated devices, which must change the
  // modeled clock and nothing else.
  const ShardPlan plan = makeShardPlan(tinyProblem().geometry().image_size,
                                       /*num_slabs=*/4, /*halo=*/1);
  const ShardRun d1 = runSharded(plan, tinyShardOptions(1));
  const ShardRun d2 = runSharded(plan, tinyShardOptions(2));
  const ShardRun d4 = runSharded(plan, tinyShardOptions(4));

  expectImagesBitIdentical(d1.x, d2.x);
  expectImagesBitIdentical(d1.x, d4.x);
  EXPECT_EQ(sinoHash(d1.e), sinoHash(d2.e));
  EXPECT_EQ(sinoHash(d1.e), sinoHash(d4.e));
  EXPECT_EQ(d1.stats.iterations, d4.stats.iterations);
  EXPECT_EQ(d1.stats.equits, d4.stats.equits);
  EXPECT_EQ(d1.stats.work.voxel_updates, d4.stats.work.voxel_updates);

  // The time model must respond to the device count: compute spreads out
  // (less critical-path compute), communication appears (none at D=1).
  EXPECT_EQ(d1.stats.comm_seconds, 0.0);
  EXPECT_GT(d2.stats.comm_seconds, 0.0);
  EXPECT_GT(d4.stats.comm_seconds, 0.0);
  EXPECT_LT(d4.stats.compute_seconds, d1.stats.compute_seconds);
  EXPECT_LT(d4.stats.modeled_seconds, d1.stats.modeled_seconds);
}

TEST(ShardedGpuIcd, SingleSlabPlanMatchesUnshardedEngine) {
  // An S=1 plan is the degenerate case: no halo, exchange reduces to a
  // copy. It must be bit-identical to the plain GpuIcd — stats included —
  // so sharding sits on top of the engine without perturbing it.
  const OwnedProblem& problem = tinyProblem();
  const ShardPlan plan = makeShardPlan(problem.geometry().image_size, 1, 1);
  const ShardRun sharded = runSharded(plan, tinyShardOptions(1));

  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  GpuIcd engine(problem.view(), tinyGpuOptions());
  const GpuRunStats stats = test::stepEngine(engine, x, e, 4);

  expectImagesBitIdentical(sharded.x, x);
  EXPECT_EQ(sinoHash(sharded.e), sinoHash(e));
  EXPECT_EQ(sharded.stats.iterations, stats.iterations);
  EXPECT_EQ(sharded.stats.equits, stats.equits);
  EXPECT_EQ(sharded.stats.work.voxel_updates, stats.work.voxel_updates);
}

TEST(ShardedGpuIcd, ValidatesDevicesAndImageSize) {
  const OwnedProblem& problem = tinyProblem();
  const int n = problem.geometry().image_size;
  const Image2D x = problem.fbpInitialImage();
  const Sinogram e = problem.initialError(x);
  EXPECT_THROW(ShardedGpuIcd(problem.view(), makeShardPlan(n, 4, 1),
                             tinyShardOptions(0), x, e),
               Error);
  EXPECT_THROW(ShardedGpuIcd(problem.view(), makeShardPlan(n, 4, 1),
                             tinyShardOptions(5), x, e),  // devices > slabs
               Error);
  EXPECT_THROW(ShardedGpuIcd(problem.view(), makeShardPlan(n / 2, 2, 1),
                             tinyShardOptions(1), x, e),  // wrong image size
               Error);
}

TEST(ShardedGpuIcd, HaloExchangeIsRaceClean) {
  // Race checking on: the three exchange kernels (pack / reduce / unpack)
  // declare every access, and their per-launch block access ranges are
  // disjoint — the detector must check them and find nothing, on the
  // exchange simulator AND on every slab engine's simulator.
  const ShardPlan plan = makeShardPlan(tinyProblem().geometry().image_size,
                                       /*num_slabs=*/4, /*halo=*/1);
  ShardedOptions opt = tinyShardOptions(2);
  opt.engine.race_check = {.enabled = true, .throw_on_race = true};

  const OwnedProblem& problem = tinyProblem();
  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  ShardedGpuIcd runner(problem.view(), plan, opt, x, e);
  test::stepEngine(runner, x, e, 3);  // throw_on_race: any race dies
  const ShardRunStats stats = runner.finish();

  EXPECT_TRUE(runner.exchangeSimulator().raceDetector().races().empty());
  const gsim::RaceCheckTotals ex = runner.exchangeSimulator().raceDetector().totals();
  EXPECT_GE(ex.launches_checked, std::uint64_t(3 * stats.exchanges));
  EXPECT_EQ(ex.races_found, 0u);
  for (int s = 0; s < plan.numSlabs(); ++s)
    EXPECT_TRUE(runner.slabRaceDetector(s).races().empty())
        << "slab " << s;
  EXPECT_TRUE(stats.race_check_enabled);
  EXPECT_GT(stats.race_launches_checked, 0u);
  EXPECT_GT(stats.race_ranges_checked, 0u);
  EXPECT_EQ(stats.race_reports, 0u);
  EXPECT_EQ(stats.exchanges, 3);
}

TEST(ShardedGpuIcd, PlantedUndeclaredHaloWriteIsAttributedExactly) {
  // Sabotage: the halo-pack kernel's first block declares a write reaching
  // one halo past its slab boundary — modeling a kernel that touches an
  // unowned halo row without a declared exchange. The detector must name
  // the kernel, the buffer, both blocks, the write-write kind pair, and
  // the exact overlapping element range.
  const int n = tinyProblem().geometry().image_size;
  const ShardPlan plan = makeShardPlan(n, /*num_slabs=*/2, /*halo=*/1);
  ShardedOptions opt = tinyShardOptions(2);
  opt.engine.race_check = {.enabled = true, .throw_on_race = false};
  opt.plant_undeclared_halo_write = true;

  const OwnedProblem& problem = tinyProblem();
  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  ShardedGpuIcd runner(problem.view(), plan, opt, x, e);
  ASSERT_TRUE(runner.stepIteration(x, e));
  const ShardRunStats stats = runner.finish();

  const auto& races = runner.exchangeSimulator().raceDetector().races();
  ASSERT_FALSE(races.empty());
  const gsim::RaceReport& r = races.front();
  EXPECT_EQ(r.kernel, "shard.halo_pack");
  EXPECT_EQ(r.buffer, "shard.image");
  EXPECT_EQ(std::min(r.block_a, r.block_b), 0);
  EXPECT_EQ(std::max(r.block_a, r.block_b), 1);
  EXPECT_EQ(r.kind_a, gsim::AccessKind::kWrite);
  EXPECT_EQ(r.kind_b, gsim::AccessKind::kWrite);
  // The trespass is exactly the first halo row of slab 1.
  EXPECT_EQ(r.lo, std::int64_t(plan.slabs[0].row1) * n);
  EXPECT_EQ(r.hi, std::int64_t(plan.slabs[0].row1 + 1) * n);
  EXPECT_GE(stats.race_reports, 1u);
}

TEST(ShardedGpuIcd, HaloZeroPlansCountNoHaloTransfers) {
  // Each exchange, every cross-device slab pair swaps its halo rows as two
  // transfers; a halo-0 plan sends none. One exchange on 2 slabs x 2
  // devices: broadcast 1 + halo 2 + all-reduce 2 + final gather 1.
  const int n = tinyProblem().geometry().image_size;
  for (const int halo : {0, 1}) {
    const ShardRun r = runSharded(makeShardPlan(n, 2, halo),
                                  tinyShardOptions(2), /*iterations=*/1);
    EXPECT_EQ(r.stats.exchanges, 1);
    EXPECT_EQ(r.stats.comm_transfers, halo == 0 ? 4u : 6u) << "halo=" << halo;
  }
}

TEST(ShardedGpuIcd, CancelBetweenExchangesKeepsConsistentSnapshot) {
  // A 2-device gang cancelled mid-run stops at the iteration boundary,
  // like every unsharded engine, and returns the assembly of the last
  // completed exchange: bit-identical to the gang stepped exactly that many
  // times, never a torn mix of iterations. The cancel flag is set from the
  // fault seam at the second iteration boundary (event 1), i.e. after the
  // second exchange.
  struct CancelAtSecondBoundary : gsim::FaultHook {
    std::atomic<bool> cancel{false};
    void onEvent(const char* what, std::uint64_t index) override {
      if (std::strcmp(what, "iteration") == 0 && index == 1) cancel.store(true);
    }
  } hook;
  const OwnedProblem& problem = tinyProblem();
  ShardConfig cfg;
  cfg.plan = makeShardPlan(problem.geometry().image_size, /*num_slabs=*/4,
                           /*halo=*/1);
  cfg.devices = 2;
  cfg.base = test::tinyRunConfig(Algorithm::kGpuIcd);
  cfg.base.stop_rmse_hu = -1.0;  // only the cancel stops the run
  cfg.base.fault_hook = &hook;
  cfg.base.cancel = &hook.cancel;
  const ShardRunResult cancelled = reconstructSharded(problem, tinyGolden(), cfg);

  ShardedOptions opt;
  opt.engine = gpuEngineOptions(problem, cfg.base);
  opt.devices = 2;
  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  ShardedGpuIcd twice(problem.view(), cfg.plan, std::move(opt), x, e);
  ASSERT_TRUE(twice.stepIteration(x, e));
  ASSERT_TRUE(twice.stepIteration(x, e));
  const ShardRunStats& ref = twice.finish();

  EXPECT_TRUE(cancelled.run.cancelled);
  EXPECT_FALSE(cancelled.run.converged);
  EXPECT_EQ(cancelled.run.curve.size(), 1u);
  EXPECT_EQ(cancelled.shard.iterations, 2);
  EXPECT_EQ(cancelled.shard.exchanges, 2);
  expectImagesBitIdentical(cancelled.run.image, x);
  // reconstructSharded keeps its error sinogram internal; the exchange's
  // bookkeeping pins the same two-exchange state from the other side.
  EXPECT_EQ(cancelled.shard.equits, ref.equits);
  EXPECT_EQ(cancelled.shard.work.voxel_updates, ref.work.voxel_updates);
  EXPECT_EQ(cancelled.shard.modeled_seconds, ref.modeled_seconds);
  EXPECT_EQ(cancelled.shard.comm_bytes, ref.comm_bytes);
}

TEST(ShardedGpuIcd, SlabFaultSurfacesFromStepWithoutHanging) {
  // A launch fault inside device 0's slab step must rethrow from
  // stepIteration once the step's device tasks have joined, and the engine
  // must then destruct promptly: a fork-join step leaves no peer parked on
  // a rendezvous the failed device will never reach.
  struct FailFirstUpdate : gsim::FaultHook {
    void onEvent(const char* what, std::uint64_t index) override {
      if (std::strcmp(what, "launch:mbir_update") == 0)
        throw gsim::LaunchFault("mbir_update", index, 0);
    }
  } hook;
  const OwnedProblem& problem = tinyProblem();
  const ShardPlan plan = makeShardPlan(problem.geometry().image_size,
                                       /*num_slabs=*/4, /*halo=*/1);
  Image2D x = problem.fbpInitialImage();
  Sinogram e = problem.initialError(x);
  {
    ShardedGpuIcd gang(problem.view(), plan, tinyShardOptions(2), x, e,
                       {.fault_hook = &hook});
    EXPECT_THROW(gang.stepIteration(x, e), gsim::LaunchFault);
    EXPECT_EQ(gang.runStats().exchanges, 0);
  }  // destructs here; a parked peer would hang the test
}

// ---------------------------------------------------------------------------
// The job wrapper + report
// ---------------------------------------------------------------------------

TEST(ShardJob, ReconstructShardedReportsShardReportSchema) {
  const OwnedProblem& problem = tinyProblem();
  ShardConfig cfg;
  cfg.plan = makeShardPlan(problem.geometry().image_size, 2, 1);
  cfg.devices = 2;
  cfg.base = test::tinyRunConfig(Algorithm::kGpuIcd, /*max_equits=*/10.0);
  const ShardRunResult r = reconstructSharded(problem, tinyGolden(), cfg);

  EXPECT_GT(r.run.equits, 0.0);
  EXPECT_GT(r.shard.exchanges, 0);
  EXPECT_GT(r.shard.comm_bytes, 0u);
  EXPECT_EQ(r.devices, 2);

  const obs::JsonValue doc = obs::parseJson(shardReportJson(r));
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->str_v, "gpumbir.shard_report/1");
  EXPECT_EQ(doc.find("devices")->num_v, 2.0);
  ASSERT_NE(doc.find("plan"), nullptr);
  EXPECT_EQ(doc.find("plan")->find("image_size")->num_v,
            double(problem.geometry().image_size));
  EXPECT_NE(doc.find("comm_seconds"), nullptr);
  EXPECT_NE(doc.find("comm_overhead"), nullptr);
  EXPECT_NE(doc.find("exchanges"), nullptr);
}

TEST(ShardJob, SingleSlabRunFollowsReconstructProtocol) {
  // Protocol parity: a 1-slab, 1-device sharded job is reconstruct() with a
  // different engine. From the same warm start it must produce the same
  // image, equits and convergence curve, and its trace must carry the same
  // protocol spans: one recon.setup, one host recon.iteration per point.
  const OwnedProblem& problem = tinyProblem();
  RunConfig base = test::tinyRunConfig(Algorithm::kGpuIcd, /*max_equits=*/4.0);
  base.stop_rmse_hu = -1.0;
  RunConfig rough = base;
  rough.max_equits = 1.0;
  base.initial_image = std::make_shared<const Image2D>(
      reconstruct(problem, tinyGolden(), rough).image);
  base.obs.trace = true;

  const RunResult plain = reconstruct(problem, tinyGolden(), base);
  ShardConfig cfg;
  cfg.plan = makeShardPlan(problem.geometry().image_size, 1, 1,
                           base.gpu.seed);
  cfg.devices = 1;
  cfg.base = base;
  const ShardRunResult sharded = reconstructSharded(problem, tinyGolden(), cfg);

  EXPECT_TRUE(sharded.run.warm_started);
  expectImagesBitIdentical(plain.image, sharded.run.image);
  EXPECT_EQ(plain.equits, sharded.run.equits);
  EXPECT_EQ(plain.final_rmse_hu, sharded.run.final_rmse_hu);
  ASSERT_EQ(plain.curve.size(), sharded.run.curve.size());
  ASSERT_FALSE(plain.curve.empty());
  for (std::size_t i = 0; i < plain.curve.size(); ++i) {
    EXPECT_EQ(plain.curve[i].equits, sharded.run.curve[i].equits);
    EXPECT_EQ(plain.curve[i].rmse_hu, sharded.run.curve[i].rmse_hu);
  }

  for (const RunResult* r : {&plain, &sharded.run}) {
    ASSERT_TRUE(r->recorder);
    std::size_t setups = 0, iterations = 0;
    for (const obs::TraceEvent& ev : r->recorder->trace().snapshot()) {
      if (ev.clock != obs::Clock::kHost) continue;
      if (ev.name == "recon.setup") ++setups;
      if (ev.name == "recon.iteration") ++iterations;
    }
    EXPECT_EQ(1u, setups);
    EXPECT_EQ(r->curve.size(), iterations);
  }
}

TEST(ShardJob, ShardedRunMatchesPlanAcrossDeviceCountsEndToEnd) {
  // End-to-end determinism through the job wrapper (the path the service
  // dispatches): same plan, different device counts, same image bits and
  // convergence curve.
  const OwnedProblem& problem = tinyProblem();
  ShardConfig cfg;
  cfg.plan = makeShardPlan(problem.geometry().image_size, 4, 1);
  cfg.base = test::tinyRunConfig(Algorithm::kGpuIcd, /*max_equits=*/6.0);

  cfg.devices = 1;
  const ShardRunResult d1 = reconstructSharded(problem, tinyGolden(), cfg);
  cfg.devices = 4;
  const ShardRunResult d4 = reconstructSharded(problem, tinyGolden(), cfg);

  expectImagesBitIdentical(d1.run.image, d4.run.image);
  EXPECT_EQ(d1.run.final_rmse_hu, d4.run.final_rmse_hu);
  EXPECT_EQ(d1.run.equits, d4.run.equits);
  ASSERT_EQ(d1.run.curve.size(), d4.run.curve.size());
  for (std::size_t i = 0; i < d1.run.curve.size(); ++i)
    EXPECT_EQ(d1.run.curve[i].rmse_hu, d4.run.curve[i].rmse_hu);
  EXPECT_NE(d1.run.modeled_seconds, d4.run.modeled_seconds);
}

}  // namespace
}  // namespace mbir::shard
