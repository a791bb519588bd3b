// Conformance tests for the device-semantics race detector (gsim/race_check):
// planted races through real simulated launches must be diagnosed with the
// right (kernel, block pair, buffer, element range) attribution, race-free
// controls must stay silent, and the shipped GPU-ICD kernels must come out
// clean with bit-identical results whether or not checking is on. Also
// cross-checks the analytic checkerboard-schedule argument in
// gpuicd/conflicts.h against the detector (DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/error.h"
#include "gpuicd/conflicts.h"
#include "gpuicd/gpu_icd.h"
#include "gsim/executor.h"
#include "gsim/race_check.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "sv/supervoxel.h"
#include "test_support.h"

namespace mbir {
namespace {

using gsim::AccessKind;
using gsim::BlockAccessLog;
using gsim::BlockCtx;
using gsim::GpuSimulator;
using gsim::RaceCheckConfig;
using gsim::RaceDetector;
using gsim::RaceReport;

/// Checking on, diagnoses recorded instead of thrown — the planted-race
/// tests inspect the report. Explicit so the tests behave identically with
/// or without GPUMBIR_RACE_CHECK in the environment (the CI race job sets
/// it).
RaceCheckConfig recordOnly() {
  return {.enabled = true, .throw_on_race = false, .max_reports = 64};
}

// ---------- detector core: conflict matrix and sweep ----------

TEST(RaceDetector, WriteWriteOverlapDiagnosed) {
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("image");
  std::vector<BlockAccessLog> logs(2);
  logs[0].write(buf, 0, 10);
  logs[1].write(buf, 5, 15);
  EXPECT_EQ(det.checkLaunch("planted_ww", logs), 1);

  ASSERT_EQ(det.races().size(), 1u);
  const RaceReport& r = det.races()[0];
  EXPECT_EQ(r.kernel, "planted_ww");
  EXPECT_EQ(r.buffer, "image");
  EXPECT_EQ(r.block_a, 0);
  EXPECT_EQ(r.block_b, 1);
  EXPECT_EQ(r.kind_a, AccessKind::kWrite);
  EXPECT_EQ(r.kind_b, AccessKind::kWrite);
  EXPECT_EQ(r.lo, 5);  // the overlapping sub-range, not either full range
  EXPECT_EQ(r.hi, 10);
  EXPECT_EQ(r.phase, 0);
}

TEST(RaceDetector, ReadWriteOverlapDiagnosed) {
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("sino.e");
  std::vector<BlockAccessLog> logs(3);
  logs[0].read(buf, 100, 200);
  logs[2].write(buf, 150, 160);
  EXPECT_EQ(det.checkLaunch("planted_rw", logs), 1);
  ASSERT_EQ(det.races().size(), 1u);
  const RaceReport& r = det.races()[0];
  EXPECT_EQ(r.block_a, 0);
  EXPECT_EQ(r.block_b, 2);
  EXPECT_EQ(r.kind_a, AccessKind::kRead);
  EXPECT_EQ(r.kind_b, AccessKind::kWrite);
  EXPECT_EQ(r.lo, 150);
  EXPECT_EQ(r.hi, 160);
}

TEST(RaceDetector, AtomicVsPlainWriteDiagnosed) {
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("svb.e/0");
  std::vector<BlockAccessLog> logs(2);
  logs[0].atomic(buf, 0, 48);
  logs[1].write(buf, 10, 11);
  EXPECT_EQ(det.checkLaunch("planted_aw", logs), 1);
  ASSERT_EQ(det.races().size(), 1u);
  EXPECT_EQ(det.races()[0].kind_a, AccessKind::kAtomic);
  EXPECT_EQ(det.races()[0].kind_b, AccessKind::kWrite);
}

TEST(RaceDetector, AtomicVsReadDiagnosed) {
  // A plain load concurrent with an atomic RMW has undefined ordering at
  // device semantics — the conflict matrix only exempts R/R and A/A.
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("sino.e");
  std::vector<BlockAccessLog> logs(2);
  logs[0].atomic(buf, 0, 8);
  logs[1].read(buf, 4, 6);
  EXPECT_EQ(det.checkLaunch("planted_ar", logs), 1);
}

TEST(RaceDetector, ReadReadAndAtomicAtomicAreClean) {
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("image");
  std::vector<BlockAccessLog> logs(4);
  // Disjoint regions: all blocks share reads of [0, 512) and atomics of
  // [512, 1024). R/R and A/A are the two exempt kind pairs; the regions
  // must not overlap each other or read-vs-atomic would (correctly) fire.
  for (auto& log : logs) {
    log.read(buf, 0, 512);
    log.atomic(buf, 512, 1024);
  }
  EXPECT_EQ(det.checkLaunch("all_shared", logs), 0);
  EXPECT_TRUE(det.races().empty());
  EXPECT_EQ(det.totals().races_found, 0u);
}

TEST(RaceDetector, AdjacentRangesAreNotARace) {
  // False-sharing control: the blocks partition one buffer into touching
  // but non-overlapping half-open stripes — element-granularity checking
  // must stay silent (a byte/cacheline checker would not).
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("image");
  std::vector<BlockAccessLog> logs(8);
  for (int b = 0; b < 8; ++b) logs[b].write(buf, b * 16, (b + 1) * 16);
  EXPECT_EQ(det.checkLaunch("striped", logs), 0);
  EXPECT_TRUE(det.races().empty());
  const gsim::RaceCheckTotals t = det.totals();
  EXPECT_EQ(t.launches_checked, 1u);
  EXPECT_EQ(t.blocks_checked, 8u);
  EXPECT_EQ(t.ranges_checked, 8u);
}

TEST(RaceDetector, DistinctBuffersNeverConflict) {
  RaceDetector det(recordOnly());
  std::vector<BlockAccessLog> logs(2);
  logs[0].write(det.bufferId("svb.e/0"), 0, 100);
  logs[1].write(det.bufferId("svb.e/1"), 0, 100);
  EXPECT_EQ(det.checkLaunch("private_buffers", logs), 0);
}

TEST(RaceDetector, PhaseBoundarySeparatesConflictingAccesses) {
  // Same block pair, same range: a write in phase 0 against a read in
  // phase 1 models barrier-separated passes and must not be diagnosed...
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("image");
  {
    std::vector<BlockAccessLog> logs(2);
    logs[0].write(buf, 0, 64);
    logs[1].setPhase(1);
    logs[1].read(buf, 0, 64);
    EXPECT_EQ(det.checkLaunch("phased", logs), 0);
  }
  // ...while the identical accesses without the phase bump are a race.
  {
    std::vector<BlockAccessLog> logs(2);
    logs[0].write(buf, 0, 64);
    logs[1].read(buf, 0, 64);
    EXPECT_EQ(det.checkLaunch("unphased", logs), 1);
  }
}

TEST(RaceDetector, PhasesMustBeMonotonicPerBlock) {
  BlockAccessLog log;
  log.setPhase(2);
  EXPECT_THROW(log.setPhase(1), Error);
}

TEST(RaceDetector, DuplicateDiagnosesAreDeduplicated) {
  // Many overlapping row ranges between one block pair are one logical
  // race per kind pair, not one per row.
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("image");
  std::vector<BlockAccessLog> logs(2);
  for (int row = 0; row < 10; row += 2) {  // gaps defeat coalescing
    logs[0].write(buf, row * 100, row * 100 + 50);
    logs[1].write(buf, row * 100, row * 100 + 50);
  }
  EXPECT_EQ(det.checkLaunch("rows", logs), 1);
  EXPECT_EQ(det.races().size(), 1u);
}

TEST(RaceDetector, MaxReportsCapsStorageNotCounting) {
  RaceDetector det({.enabled = true, .throw_on_race = false, .max_reports = 2});
  const int buf = det.bufferId("image");
  std::vector<BlockAccessLog> logs(5);
  for (auto& log : logs) log.write(buf, 0, 10);  // every pair races
  EXPECT_EQ(det.checkLaunch("noisy", logs), 10);
  EXPECT_EQ(det.races().size(), 2u);  // storage capped...
  EXPECT_EQ(det.totals().races_found, 10u);  // ...the count is not
}

TEST(RaceDetector, EmptyRangesCarryNoAccesses) {
  RaceDetector det(recordOnly());
  const int buf = det.bufferId("image");
  std::vector<BlockAccessLog> logs(2);
  logs[0].write(buf, 5, 5);
  logs[1].write(buf, 0, 10);
  EXPECT_TRUE(logs[0].empty());
  EXPECT_EQ(det.checkLaunch("empty", logs), 0);
}

// ---------- config plumbing ----------

/// Set/unset an environment variable for one scope, restoring the prior
/// value on exit so tests compose with the CI job's GPUMBIR_RACE_CHECK=1.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_old_)
      ::setenv(name_.c_str(), old_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }

 private:
  std::string name_, old_;
  bool had_old_ = false;
};

TEST(RaceCheckConfigTest, FromEnvDefaultsOff) {
  ScopedEnv e1("GPUMBIR_RACE_CHECK", nullptr);
  ScopedEnv e2("GPUMBIR_RACE_CHECK_THROW", nullptr);
  const RaceCheckConfig cfg = RaceCheckConfig::fromEnv();
  EXPECT_FALSE(cfg.enabled);
  EXPECT_FALSE(cfg.throw_on_race);
}

TEST(RaceCheckConfigTest, FromEnvEnableImpliesThrow) {
  ScopedEnv e1("GPUMBIR_RACE_CHECK", "1");
  ScopedEnv e2("GPUMBIR_RACE_CHECK_THROW", nullptr);
  const RaceCheckConfig cfg = RaceCheckConfig::fromEnv();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_TRUE(cfg.throw_on_race);
}

TEST(RaceCheckConfigTest, FromEnvThrowOverride) {
  ScopedEnv e1("GPUMBIR_RACE_CHECK", "1");
  ScopedEnv e2("GPUMBIR_RACE_CHECK_THROW", "0");
  const RaceCheckConfig cfg = RaceCheckConfig::fromEnv();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_FALSE(cfg.throw_on_race);
}

TEST(RaceCheckConfigTest, FromEnvZeroDisables) {
  ScopedEnv e1("GPUMBIR_RACE_CHECK", "0");
  const RaceCheckConfig cfg = RaceCheckConfig::fromEnv();
  EXPECT_FALSE(cfg.enabled);
}

// ---------- planted races through real simulated launches ----------

TEST(RaceLaunch, PlantedWriteWriteDiagnosedWithAttribution) {
  GpuSimulator sim;
  sim.setRaceCheck(recordOnly());
  const int buf = sim.raceDetector().bufferId("image");

  sim.launch({.name = "planted_ww", .num_blocks = 4, .resources = {256, 32, 0}},
             [&](BlockCtx& ctx) {
               // Every block writes the same range — racy on purpose.
               ctx.prof.raceWrite(buf, 0, 128);
             });

  const gsim::RaceCheckTotals t = sim.raceDetector().totals();
  EXPECT_EQ(t.launches_checked, 1u);
  EXPECT_EQ(t.blocks_checked, 4u);
  EXPECT_EQ(t.races_found, 6u);  // all C(4,2) block pairs
  ASSERT_FALSE(sim.raceDetector().races().empty());
  for (const RaceReport& r : sim.raceDetector().races()) {
    EXPECT_EQ(r.kernel, "planted_ww");
    EXPECT_EQ(r.buffer, "image");
    EXPECT_LT(r.block_a, r.block_b);
    EXPECT_EQ(r.lo, 0);
    EXPECT_EQ(r.hi, 128);
  }
}

TEST(RaceLaunch, PerBlockStripesAreClean) {
  // Owner-computes partitioning: every block reads and writes only its own
  // stripe. This is the shape the writeback kernel relies on.
  GpuSimulator sim;
  sim.setRaceCheck(recordOnly());
  const int buf = sim.raceDetector().bufferId("image");
  sim.launch({.name = "striped", .num_blocks = 16, .resources = {256, 32, 0}},
             [&](BlockCtx& ctx) {
               const std::int64_t lo = std::int64_t(ctx.block_idx) * 64;
               ctx.prof.raceWrite(buf, lo, lo + 64);
               ctx.prof.raceRead(buf, lo, lo + 64);
             });
  EXPECT_EQ(sim.raceDetector().totals().races_found, 0u);
  EXPECT_EQ(sim.raceDetector().totals().blocks_checked, 16u);

  // The broken variant — every block also reads the whole buffer, crossing
  // other blocks' written stripes — must be diagnosed.
  sim.setRaceCheck(recordOnly());
  const int buf2 = sim.raceDetector().bufferId("image");
  sim.launch({.name = "cross_read", .num_blocks = 16, .resources = {256, 32, 0}},
             [&](BlockCtx& ctx) {
               const std::int64_t lo = std::int64_t(ctx.block_idx) * 64;
               ctx.prof.raceWrite(buf2, lo, lo + 64);
               ctx.prof.raceRead(buf2, 0, 16 * 64);
             });
  EXPECT_GT(sim.raceDetector().totals().races_found, 0u);
}

TEST(RaceLaunch, PhaseSeparatedReadAfterWriteIsClean) {
  // Grid-sync idiom: phase 0 writes private stripes, phase 1 reads the
  // whole buffer. Without the racePhase calls the cross-stripe reads race.
  GpuSimulator sim;
  sim.setRaceCheck(recordOnly());
  const int buf = sim.raceDetector().bufferId("scratch");

  const auto kernel = [&](bool phased) {
    return [&, phased](BlockCtx& ctx) {
      const std::int64_t lo = std::int64_t(ctx.block_idx) * 32;
      ctx.prof.raceWrite(buf, lo, lo + 32);
      if (phased) ctx.prof.racePhase(1);
      ctx.prof.raceRead(buf, 0, 8 * 32);
    };
  };
  sim.launch({.name = "grid_sync", .num_blocks = 8, .resources = {256, 32, 0}},
             kernel(true));
  EXPECT_EQ(sim.raceDetector().totals().races_found, 0u);

  sim.launch({.name = "no_sync", .num_blocks = 8, .resources = {256, 32, 0}},
             kernel(false));
  EXPECT_GT(sim.raceDetector().totals().races_found, 0u);
  for (const RaceReport& r : sim.raceDetector().races())
    EXPECT_EQ(r.kernel, "no_sync");
}

TEST(RaceLaunch, ThrowOnRaceFailsTheLaunchButKeepsTheReport) {
  GpuSimulator sim;
  sim.setRaceCheck({.enabled = true, .throw_on_race = true, .max_reports = 64});
  const int buf = sim.raceDetector().bufferId("image");

  EXPECT_THROW(
      sim.launch({.name = "fatal", .num_blocks = 2, .resources = {256, 32, 0}},
                 [&](BlockCtx& ctx) { ctx.prof.raceWrite(buf, 0, 8); }),
      Error);
  // The diagnosis was recorded before the throw, so a catch site can still
  // read and export the report.
  EXPECT_EQ(sim.raceDetector().totals().races_found, 1u);
  EXPECT_EQ(sim.raceDetector().races()[0].kernel, "fatal");
}

TEST(RaceLaunch, DisabledCheckRecordsNothing) {
  GpuSimulator sim;
  sim.setRaceCheck({});  // explicit off, independent of the environment
  EXPECT_FALSE(sim.raceCheckOn());
  const int buf = sim.raceDetector().bufferId("image");
  sim.launch({.name = "off", .num_blocks = 4, .resources = {256, 32, 0}},
             [&](BlockCtx& ctx) {
               EXPECT_FALSE(ctx.prof.raceCheckOn());
               ctx.prof.raceWrite(buf, 0, 8);  // dropped: no log attached
             });
  EXPECT_EQ(sim.raceDetector().totals().launches_checked, 0u);
  EXPECT_TRUE(sim.raceDetector().races().empty());
}

TEST(RaceLaunch, KernelExceptionPropagatesFromConcurrentBlocks) {
  // A split launch runs its host tasks via ThreadPool::parallelFor; a
  // throwing kernel must surface as an exception from launch(), not
  // std::terminate (regression for the pool's exception propagation).
  GpuSimulator sim;
  EXPECT_THROW(
      sim.launch({.name = "boom", .num_blocks = 32, .host_tasks = 8,
                  .resources = {256, 32, 0}},
                 [&](BlockCtx& ctx) {
                   if (ctx.block_idx == 17) throw Error("planted failure");
                 }),
      Error);
  // The simulator stays usable afterwards.
  sim.launch({.name = "ok", .num_blocks = 4, .resources = {256, 32, 0}},
             [](BlockCtx&) {});
}

// ---------- report artifact and metrics ----------

TEST(RaceReportJson, SchemaAndDiagnosisFields) {
  GpuSimulator sim;
  sim.setRaceCheck(recordOnly());
  const int buf = sim.raceDetector().bufferId("sino.e");
  sim.launch({.name = "planted", .num_blocks = 2, .resources = {256, 32, 0}},
             [&](BlockCtx& ctx) {
               if (ctx.block_idx == 0)
                 ctx.prof.raceWrite(buf, 40, 60);
               else
                 ctx.prof.raceRead(buf, 50, 70);
             });

  const obs::JsonValue doc =
      obs::parseJson(sim.raceDetector().reportJson());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->asString(), "gpumbir.race_report/1");
  EXPECT_EQ(doc.find("totals")->find("launches_checked")->asNumber(), 1.0);
  EXPECT_EQ(doc.find("totals")->find("races_found")->asNumber(), 1.0);
  EXPECT_EQ(doc.find("races_reported")->asNumber(), 1.0);

  const obs::JsonValue* arr = doc.find("races");
  ASSERT_TRUE(arr && arr->isArray());
  ASSERT_EQ(arr->array_v.size(), 1u);
  const obs::JsonValue& r = arr->array_v[0];
  EXPECT_EQ(r.find("kernel")->asString(), "planted");
  EXPECT_EQ(r.find("buffer")->asString(), "sino.e");
  EXPECT_EQ(r.find("block_a")->asNumber(), 0.0);
  EXPECT_EQ(r.find("block_b")->asNumber(), 1.0);
  EXPECT_EQ(r.find("kind_a")->asString(), "write");
  EXPECT_EQ(r.find("kind_b")->asString(), "read");
  EXPECT_EQ(r.find("lo")->asNumber(), 50.0);
  EXPECT_EQ(r.find("hi")->asNumber(), 60.0);
}

TEST(RaceMetrics, GsimRaceCountersRecorded) {
  obs::Recorder rec({.metrics = true});
  GpuSimulator sim(gsim::titanXMaxwell(), {.recorder = &rec});
  sim.setRaceCheck(recordOnly());
  const int buf = sim.raceDetector().bufferId("image");
  sim.launch({.name = "planted", .num_blocks = 3, .resources = {256, 32, 0}},
             [&](BlockCtx& ctx) { ctx.prof.raceWrite(buf, 0, 16); });

  EXPECT_EQ(rec.metrics().counterValue("gsim.race.launches_checked"), 1u);
  EXPECT_EQ(rec.metrics().counterValue("gsim.race.ranges_checked"), 3u);
  EXPECT_EQ(rec.metrics().counterValue("gsim.race.races_found"), 3u);
}

// ---------- checkerboard schedule cross-check ----------

TEST(ScheduleCrossCheck, CheckerboardGroupsAreConflictFree) {
  // The paper's §4.2 claim, re-derived by the detector: same-group SVs'
  // written rects and read rings never intersect while
  // boundary_overlap <= (sv_side - 1) / 2.
  for (const int overlap : {0, 1, 2, 3}) {
    const SvGrid grid(64, {.sv_side = 8, .boundary_overlap = overlap});
    std::vector<int> all(std::size_t(grid.count()));
    for (int i = 0; i < grid.count(); ++i) all[std::size_t(i)] = i;
    for (const std::vector<int>& group : grid.checkerboardGroups(all)) {
      if (group.size() < 2) continue;
      EXPECT_EQ(scheduleImageConflicts(grid, group, nullptr), 0)
          << "overlap=" << overlap;
    }
  }
}

TEST(ScheduleCrossCheck, AdjacentSvsConflictPositiveControl) {
  // Two horizontally adjacent SVs with overlap share boundary voxels; both
  // the analytic count and the detector must flag the pair (and agree —
  // disagreement would throw inside scheduleImageConflicts).
  const SvGrid grid(64, {.sv_side = 8, .boundary_overlap = 2});
  ASSERT_GE(grid.gridCols(), 2);
  RaceDetector det(recordOnly());
  const int conflicts = scheduleImageConflicts(grid, {0, 1}, &det);
  EXPECT_EQ(conflicts, 1);
  EXPECT_GT(det.totals().races_found, 0u);
  ASSERT_FALSE(det.races().empty());
  EXPECT_EQ(det.races()[0].kernel, "schedule_check");
  EXPECT_EQ(det.races()[0].buffer, "image");
}

TEST(ScheduleCrossCheck, ZeroOverlapAdjacentSvsStillRingConflict) {
  // Even with no shared voxels, the prior's 1-voxel read ring crosses the
  // tile edge, so adjacent SVs conflict (write/read) — which is exactly why
  // the schedule skips a full tile, not just the overlap.
  const SvGrid grid(64, {.sv_side = 8, .boundary_overlap = 0});
  EXPECT_GT(scheduleImageConflicts(grid, {0, 1}, nullptr), 0);
}

// ---------- shipped engine kernels are race-clean ----------

class RaceEngineFixture : public ::testing::Test {
 protected:
  GpuRunStats runGpu(GpuIcdOptions opt, double max_equits, Image2D& x_out) {
    const OwnedProblem& problem = test::tinyProblem();
    x_out = problem.fbpInitialImage();
    Sinogram e = problem.initialError(x_out);
    GpuIcd icd(problem.view(), test::tinyGpuOptions(std::move(opt)));
    return test::stepEngine(icd, x_out, e, test::kIterationBound, max_equits);
  }
};

TEST_F(RaceEngineFixture, GpuIcdKernelsCleanUnderRaceCheck) {
  GpuIcdOptions opt;
  opt.race_check = {.enabled = true, .throw_on_race = true, .max_reports = 64};
  Image2D x;
  const GpuRunStats stats = runGpu(std::move(opt), 6.0, x);
  EXPECT_TRUE(stats.race_check_enabled);
  EXPECT_GT(stats.race_launches_checked, 0u);
  EXPECT_GT(stats.race_ranges_checked, 0u);
  EXPECT_EQ(stats.race_reports, 0u);
}

TEST_F(RaceEngineFixture, ResultsBitIdenticalWithAndWithoutChecking) {
  GpuIcdOptions checked;
  checked.race_check = {.enabled = true, .throw_on_race = true};
  GpuIcdOptions unchecked;
  unchecked.race_check = {};
  Image2D xa, xb;
  const GpuRunStats sa = runGpu(std::move(checked), 4.0, xa);
  const GpuRunStats sb = runGpu(std::move(unchecked), 4.0, xb);
  EXPECT_TRUE(sa.race_check_enabled);
  EXPECT_FALSE(sb.race_check_enabled);
  test::expectGpuRunsBitIdentical(sa, xa, sb, xb);
}

}  // namespace
}  // namespace mbir
