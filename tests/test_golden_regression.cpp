// Golden regression fixtures: every engine's reconstruction of the tiny
// suite case is pinned to a committed fingerprint (FNV-1a-64 of the image's
// float bit patterns) plus its RMSE / equits / modeled seconds. Any change
// to numerics — intended or not — trips this test; intended changes
// regenerate the fixture:
//
//   GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression
//
// The fixture (tests/fixtures/golden_regression.json) is reviewed like
// code: a diff there is a statement that the numbers moved on purpose.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/fault.h"
#include "obs/json.h"
#include "shard/shard_job.h"
#include "svc/dispatcher.h"
#include "svc_test_support.h"

namespace mbir {
namespace {

constexpr const char* kFixturePath =
    GPUMBIR_FIXTURE_DIR "/golden_regression.json";

struct EngineRecord {
  std::string key;
  std::uint64_t image_hash = 0;
  double rmse_hu = 0.0;
  double equits = 0.0;
  double modeled_seconds = 0.0;
};

std::string hashHex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Fixed-budget runs (no RMSE stop) so the pinned numbers do not depend on
// the convergence threshold; PSV runs single-threaded, the only
// deterministic PSV mode.
std::vector<EngineRecord> computeCurrent() {
  std::vector<EngineRecord> records;
  const auto run = [&](const std::string& key, RunConfig cfg) {
    cfg.stop_rmse_hu = -1.0;
    const RunResult r =
        reconstruct(test::tinyProblem(), test::tinyGolden(), cfg);
    records.push_back({key, test::imageHash(r.image), r.final_rmse_hu,
                       r.equits, r.modeled_seconds});
  };
  run("seq", test::tinyRunConfig(Algorithm::kSequentialIcd, 4.0));
  RunConfig psv = test::tinyRunConfig(Algorithm::kPsvIcd, 4.0);
  psv.psv.num_threads = 1;
  run("psv_1t", psv);
  run("gpu", test::tinyRunConfig(Algorithm::kGpuIcd, 4.0));
  RunConfig gpu_exact = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_exact.gpu.flags.quantize_amatrix = false;
  run("gpu_exact_amatrix", gpu_exact);
  // Accounting branches the default flags leave dark: float-width SVB
  // reads, a non-warp-multiple chunk width (idle lanes, unaligned chunks,
  // lane groups cut by the window end) and registers kept out of smem.
  RunConfig gpu_float_svb = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_float_svb.gpu.flags.read_svb_as_double = false;
  run("gpu_float_svb_reads", gpu_float_svb);
  RunConfig gpu_w29 = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_w29.gpu.tunables.chunk_width = 29;
  run("gpu_chunk_width_29", gpu_w29);
  RunConfig gpu_no_spill = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_no_spill.gpu.flags.spill_registers_to_smem = false;
  run("gpu_no_smem_spill", gpu_no_spill);
  // Chunk layouts whose rows a lane group can cut anywhere: W = 29 on
  // float A (the window's partial last group on the float path), and
  // W = 128, where a row's band can sit in any of 16 groups.
  RunConfig gpu_w29_exact = gpu_w29;
  gpu_w29_exact.gpu.flags.quantize_amatrix = false;
  run("gpu_chunk_width_29_exact_amatrix", gpu_w29_exact);
  RunConfig gpu_w128 = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_w128.gpu.tunables.chunk_width = 128;
  run("gpu_chunk_width_128", gpu_w128);
  return records;
}

void writeFixture(const std::vector<EngineRecord>& records) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "gpumbir.golden_regression/1");
  w.key("engines").beginObject();
  for (const EngineRecord& r : records) {
    w.key(r.key).beginObject();
    w.kv("image_hash", hashHex(r.image_hash));
    w.kv("rmse_hu", r.rmse_hu);
    w.kv("equits", r.equits);
    w.kv("modeled_seconds", r.modeled_seconds);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::ofstream out(kFixturePath, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << kFixturePath;
  out << w.str() << '\n';
}

TEST(GoldenRegression, EnginesMatchCommittedFixtures) {
  const std::vector<EngineRecord> current = computeCurrent();

  if (std::getenv("GPUMBIR_REGEN_GOLDEN")) {
    writeFixture(current);
    GTEST_SKIP() << "regenerated " << kFixturePath;
  }

  std::ifstream in(kFixturePath, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing fixture " << kFixturePath
      << " — regenerate with GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression";
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue doc = obs::parseJson(ss.str());
  ASSERT_EQ(doc.find("schema")->asString(), "gpumbir.golden_regression/1");
  const obs::JsonValue* engines = doc.find("engines");
  ASSERT_TRUE(engines && engines->isObject());
  ASSERT_EQ(engines->object_v.size(), current.size())
      << "fixture engine set diverged — regenerate";

  for (const EngineRecord& r : current) {
    SCOPED_TRACE(r.key);
    const obs::JsonValue* e = engines->find(r.key);
    ASSERT_NE(e, nullptr) << "engine missing from fixture";
    // The image fingerprint is the real regression tripwire: bit-exact.
    EXPECT_EQ(e->find("image_hash")->asString(), hashHex(r.image_hash))
        << "image bits changed; if intended, regenerate the fixture with\n"
        << "  GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression";
    // Scalars are written with full round-trip precision, so equality is
    // exact as well; failures here with a matching hash mean the stats
    // pipeline (not the image) drifted.
    EXPECT_EQ(e->find("rmse_hu")->asNumber(), r.rmse_hu);
    EXPECT_EQ(e->find("equits")->asNumber(), r.equits);
    EXPECT_EQ(e->find("modeled_seconds")->asNumber(), r.modeled_seconds);
  }
}

// ---------------------------------------------------------------------------
// Chaos-lane fixture: a faulted offline batch is itself pinned
// ---------------------------------------------------------------------------

constexpr const char* kChaosFixturePath =
    GPUMBIR_FIXTURE_DIR "/chaos_faulted_run.json";

struct FaultedJobRecord {
  int job_id = 0;
  bool faulted = false;          // launch-faulted by the plan's schedule
  std::uint64_t image_hash = 0;  // 0 for faulted jobs (no image)
};

/// One seeded batch on the dispatcher's deterministic lane with launch
/// faults armed: which jobs fault is part of the contract (the schedule is
/// a pure function of seed and job id), and every surviving job's image is
/// pinned.
std::vector<FaultedJobRecord> computeFaultedRun() {
  const int kJobs = 12;
  svc::DispatcherOptions opt;
  opt.num_devices = 2;
  opt.queue_capacity = kJobs;
  opt.fault_plan.seed = 0xC4A05;
  opt.fault_plan.launch_fault_rate = 0.35;
  svc::Dispatcher dispatcher(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < kJobs; ++i) {
    const svc::JobSpec spec = test::tinyJob(
        cfg, "faulted" + std::to_string(i), /*deterministic=*/true);
    EXPECT_TRUE(dispatcher.submit(spec).accepted);
  }
  dispatcher.drain();

  std::vector<FaultedJobRecord> records;
  for (int id = 0; id < kJobs; ++id) {
    const svc::JobResult& r = dispatcher.result(id);
    records.push_back({id, r.failed,
                       r.failed ? 0u : test::imageHash(r.run.image)});
  }
  return records;
}

void writeChaosFixture(const std::vector<FaultedJobRecord>& records) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "gpumbir.chaos_faulted_run/1");
  w.key("jobs").beginArray();
  for (const FaultedJobRecord& r : records) {
    w.beginObject();
    w.kv("job_id", r.job_id);
    w.kv("faulted", r.faulted);
    if (!r.faulted) w.kv("image_hash", hashHex(r.image_hash));
    w.endObject();
  }
  w.endArray();
  w.endObject();
  std::ofstream out(kChaosFixturePath, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << kChaosFixturePath;
  out << w.str() << '\n';
}

TEST(GoldenRegression, FaultedRunMatchesCommittedFixture) {
  const std::vector<FaultedJobRecord> current = computeFaultedRun();

  // Unaffected jobs are bit-identical to a fault-free reconstruction —
  // checked in-process, independent of the fixture.
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  cfg.stop_rmse_hu = -1.0;
  const std::uint64_t clean_hash = test::imageHash(
      reconstruct(test::tinyProblem(), test::tinyGolden(), cfg).image);
  int faulted = 0;
  for (const FaultedJobRecord& r : current) {
    if (r.faulted) {
      ++faulted;
    } else {
      EXPECT_EQ(clean_hash, r.image_hash) << "job " << r.job_id;
    }
  }
  EXPECT_GT(faulted, 0);                  // the plan really fired
  EXPECT_LT(faulted, int(current.size()));  // and spared survivors

  if (std::getenv("GPUMBIR_REGEN_GOLDEN")) {
    writeChaosFixture(current);
    GTEST_SKIP() << "regenerated " << kChaosFixturePath;
  }

  std::ifstream in(kChaosFixturePath, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing fixture " << kChaosFixturePath
      << " — regenerate with GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression";
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue doc = obs::parseJson(ss.str());
  ASSERT_EQ(doc.find("schema")->asString(), "gpumbir.chaos_faulted_run/1");
  const obs::JsonValue* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->isArray());
  ASSERT_EQ(jobs->array_v.size(), current.size())
      << "fixture job set diverged — regenerate";

  for (std::size_t i = 0; i < current.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const obs::JsonValue& j = jobs->array_v[i];
    EXPECT_EQ(int(j.find("job_id")->asNumber()), current[i].job_id);
    // A flip here means the fault schedule itself moved for this seed —
    // that breaks replay-by-seed and must be deliberate.
    ASSERT_EQ(j.find("faulted")->bool_v, current[i].faulted);
    if (!current[i].faulted)
      EXPECT_EQ(j.find("image_hash")->asString(),
                hashHex(current[i].image_hash))
          << "image bits changed; if intended, regenerate the fixture with\n"
          << "  GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression";
  }
}

// ---------------------------------------------------------------------------
// Sharded-run fixtures: the multi-device determinism contract is pinned
// ---------------------------------------------------------------------------

struct ShardRecord {
  int devices = 0;
  std::uint64_t image_hash = 0;
  double rmse_hu = 0.0;
  double equits = 0.0;
  double modeled_seconds = 0.0;
  int exchanges = 0;
};

std::string shardFixturePath(int devices) {
  return std::string(GPUMBIR_FIXTURE_DIR "/shard_d") + std::to_string(devices) +
         ".json";
}

/// Fixed-budget sharded run of the tiny case on a 4-slab halo-1 plan.
ShardRecord computeShardRecord(int devices) {
  shard::ShardConfig cfg;
  cfg.plan = shard::makeShardPlan(
      test::tinyProblem().geometry().image_size, /*num_slabs=*/4, /*halo=*/1);
  cfg.devices = devices;
  cfg.base = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  cfg.base.stop_rmse_hu = -1.0;
  const shard::ShardRunResult r =
      reconstructSharded(test::tinyProblem(), test::tinyGolden(), cfg);
  return {devices, test::imageHash(r.run.image), r.run.final_rmse_hu,
          r.run.equits, r.run.modeled_seconds, r.shard.exchanges};
}

void writeShardFixture(const ShardRecord& r) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", "gpumbir.shard_regression/1");
  w.kv("devices", r.devices);
  w.kv("slabs", 4);
  w.kv("halo", 1);
  w.kv("image_hash", hashHex(r.image_hash));
  w.kv("rmse_hu", r.rmse_hu);
  w.kv("equits", r.equits);
  w.kv("modeled_seconds", r.modeled_seconds);
  w.kv("exchanges", r.exchanges);
  w.endObject();
  std::ofstream out(shardFixturePath(r.devices), std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << shardFixturePath(r.devices);
  out << w.str() << '\n';
}

TEST(GoldenRegression, ShardedRunsMatchCommittedFixtures) {
  const ShardRecord d2 = computeShardRecord(2);
  const ShardRecord d4 = computeShardRecord(4);

  // The contract itself, independent of the fixtures: the image is a pure
  // function of the plan — device count moves only the modeled clock.
  EXPECT_EQ(d2.image_hash, d4.image_hash);
  EXPECT_EQ(d2.rmse_hu, d4.rmse_hu);
  EXPECT_EQ(d2.equits, d4.equits);
  EXPECT_EQ(d2.exchanges, d4.exchanges);
  EXPECT_NE(d2.modeled_seconds, d4.modeled_seconds);

  if (std::getenv("GPUMBIR_REGEN_GOLDEN")) {
    writeShardFixture(d2);
    writeShardFixture(d4);
    GTEST_SKIP() << "regenerated " << shardFixturePath(2) << " and "
                 << shardFixturePath(4);
  }

  for (const ShardRecord& r : {d2, d4}) {
    SCOPED_TRACE("devices=" + std::to_string(r.devices));
    std::ifstream in(shardFixturePath(r.devices), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing fixture " << shardFixturePath(r.devices)
        << " — regenerate with GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression";
    std::stringstream ss;
    ss << in.rdbuf();
    const obs::JsonValue doc = obs::parseJson(ss.str());
    ASSERT_EQ(doc.find("schema")->asString(), "gpumbir.shard_regression/1");
    EXPECT_EQ(int(doc.find("devices")->asNumber()), r.devices);
    EXPECT_EQ(doc.find("image_hash")->asString(), hashHex(r.image_hash))
        << "sharded image bits changed; if intended, regenerate with\n"
        << "  GPUMBIR_REGEN_GOLDEN=1 ./test_golden_regression";
    EXPECT_EQ(doc.find("rmse_hu")->asNumber(), r.rmse_hu);
    EXPECT_EQ(doc.find("equits")->asNumber(), r.equits);
    EXPECT_EQ(doc.find("modeled_seconds")->asNumber(), r.modeled_seconds);
    EXPECT_EQ(int(doc.find("exchanges")->asNumber()), r.exchanges);
  }
}

// ---------------------------------------------------------------------------
// The sharded chaos soak: gangs under fire never emit a torn image
// ---------------------------------------------------------------------------

TEST(ShardSoak, ShardedGangsSurviveChaosWithoutTornImages) {
  // Seeded mixed traffic — single jobs plus 2- and 4-shard gangs — through
  // the live dispatcher with stalls/deaths armed on devices {1,3} and two
  // forced mid-run stalls planted on gangs. A device lost mid-halo-exchange
  // must fail or migrate the WHOLE logical job: every job that completes
  // carries the exact fault-free image bits for its plan, cancelled or
  // migrated alike; a torn mix of iterations cannot hash-match.
  const std::uint64_t seed = 0x5A4DD;
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  cfg.stop_rmse_hu = -1.0;

  // Reference bits per shard count (devices never affect bits, so one
  // single-device reference run per plan suffices).
  const std::uint64_t ref1 = test::imageHash(
      reconstruct(test::tinyProblem(), test::tinyGolden(), cfg).image);
  const auto shard_ref = [&cfg](int shards) {
    shard::ShardConfig sc;
    sc.plan = shard::makeShardPlan(test::tinyProblem().geometry().image_size,
                                   shards, /*halo=*/1, cfg.gpu.seed);
    sc.devices = 1;
    sc.base = cfg;
    return test::imageHash(
        reconstructSharded(test::tinyProblem(), test::tinyGolden(), sc)
            .run.image);
  };
  const std::uint64_t ref2 = shard_ref(2);
  const std::uint64_t ref4 = shard_ref(4);

  chaos::FaultPlan plan;
  plan.seed = seed;
  plan.launch_fault_rate = 0.08;
  plan.stall_rate = 0.08;
  plan.death_rate = 0.04;
  plan.target_devices = {1, 3};  // two guaranteed survivors

  svc::DispatcherOptions opt;
  opt.num_devices = 4;
  opt.queue_capacity = 32;
  opt.fault_plan = plan;
  opt.watchdog_ms = 250.0;
  svc::Dispatcher dispatcher(opt);

  const int kJobs = 18;
  std::vector<int> accepted;
  std::vector<int> shards_of;
  for (int i = 0; i < kJobs; ++i) {
    svc::JobSpec spec = test::tinyJob(cfg, "shardsoak" + std::to_string(i),
                                      /*deterministic=*/false);
    spec.shards = (i % 3 == 0) ? 4 : (i % 3 == 1) ? 2 : 1;
    spec.priority = i % 3;
    // Two gangs are stalled mid-run by force: the watchdog must abandon the
    // gang leader's device and requeue the whole logical job.
    if (i == 3 || i == 4)
      spec.fault = chaos::parseFaultSpec("stall@10");
    const svc::SubmitOutcome out = dispatcher.submit(spec);
    ASSERT_TRUE(out.accepted) << out.reason;
    accepted.push_back(out.job_id);
    shards_of.push_back(spec.shards);
  }

  std::uint64_t done = 0, failed = 0, migrated = 0, sharded_done = 0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    const svc::JobStatus s = dispatcher.waitTerminal(accepted[i]);
    ASSERT_TRUE(svc::isTerminal(s.state)) << accepted[i];
    migrated += std::uint64_t(s.migrations);
    if (s.state == svc::JobState::kDone) {
      ++done;
      ASSERT_TRUE(s.has_image) << accepted[i];
      const std::uint64_t want =
          shards_of[i] == 4 ? ref4 : shards_of[i] == 2 ? ref2 : ref1;
      EXPECT_EQ(want, s.image_hash)
          << "job " << accepted[i] << " (shards=" << shards_of[i]
          << ", migrations=" << s.migrations << ") returned torn/wrong bits";
      if (shards_of[i] > 1) ++sharded_done;
    } else {
      ASSERT_EQ(s.state, svc::JobState::kFailed) << accepted[i];
      ++failed;
    }
  }
  EXPECT_EQ(done + failed, accepted.size());
  EXPECT_GT(sharded_done, 0u);  // gangs really completed under chaos

  // The forced gang stalls resolved by migrating the whole logical job.
  for (int id : {accepted[3], accepted[4]}) {
    const svc::JobStatus s = dispatcher.status(id);
    if (s.state == svc::JobState::kDone) EXPECT_GE(s.migrations, 1) << id;
  }

  const svc::SvcReport& rep = dispatcher.drain();
  EXPECT_EQ(rep.jobs_submitted, accepted.size());
  EXPECT_EQ(rep.jobs_done, done);
  EXPECT_EQ(rep.jobs_failed, failed);
  EXPECT_EQ(rep.jobs_migrated, migrated);
  EXPECT_GE(rep.jobs_migrated, 1u);  // the planted stalls really migrated
  // Plan-driven stalls/deaths respect target_devices {1,3}, but the two
  // FORCED gang stalls fire on whichever device led that gang — any device
  // can legitimately appear among the failed.
  EXPECT_GE(rep.devices_failed, 1u);
}

TEST(GoldenRegression, FingerprintIsRunToRunStable) {
  // Two fresh computations in one process must agree bit-for-bit — guards
  // the fixture protocol itself against hidden run-to-run nondeterminism.
  const auto a = computeCurrent();
  const auto b = computeCurrent();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_hash, b[i].image_hash) << a[i].key;
    EXPECT_EQ(a[i].modeled_seconds, b[i].modeled_seconds) << a[i].key;
  }
}

}  // namespace
}  // namespace mbir
