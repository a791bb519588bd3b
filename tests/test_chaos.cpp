// Chaos lane tests (DESIGN.md §12): the seed-driven fault injector, the
// dispatcher's device watchdog + job migration, launch-fault handling in an
// offline deterministic batch, the wire `chaos` verb, and the seeded
// reliability soak gate.
//
// The soak gate (ChaosSoak.SeededSoakGate) pushes a few hundred mixed jobs
// through a dispatcher with stall/death/launch faults armed and asserts the
// service-level invariants: no hangs, no lost jobs (every accepted job
// reaches exactly one terminal state), clean drain, and bit-identity of
// unaffected deterministic jobs to a fault-free run. Its seed and job count
// come from GPUMBIR_SOAK_SEED / GPUMBIR_SOAK_JOBS, and it prints the exact
// replay command to stderr, so any CI failure reproduces locally:
//
//   GPUMBIR_SOAK_SEED=<seed> GPUMBIR_SOAK_JOBS=<n> ./test_chaos \
//       --gtest_filter='ChaosSoak.*'
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault.h"
#include "core/error.h"
#include "core/rng.h"
#include "obs/json.h"
#include "svc/client.h"
#include "svc/dispatcher.h"
#include "svc/server.h"
#include "svc_test_support.h"

namespace mbir::test {
namespace {

using chaos::FaultKind;
using chaos::FaultPlan;
using chaos::JobFault;

/// Image fingerprint of a fault-free run of tinyBaseConfig() — the
/// bit-identity reference every migrated/unaffected job must match.
std::uint64_t faultFreeHash() {
  static const std::uint64_t hash = imageHash(
      reconstruct(tinyProblem(), tinyGolden(), tinyBaseConfig()).image);
  return hash;
}

svc::JobSpec chaosJob(const std::string& name, bool deterministic = true) {
  return tinyJob(tinyBaseConfig(), name, deterministic);
}

// ---------------------------------------------------------------------------
// Fault specs
// ---------------------------------------------------------------------------

TEST(ChaosSpec, ParseRoundTripsEveryKind) {
  EXPECT_EQ(FaultKind::kNone, chaos::parseFaultSpec("").kind);
  const JobFault launch = chaos::parseFaultSpec("launch@3");
  EXPECT_EQ(FaultKind::kLaunchFault, launch.kind);
  EXPECT_EQ(3u, launch.at_event);
  const JobFault stall = chaos::parseFaultSpec("stall@0");
  EXPECT_EQ(FaultKind::kStall, stall.kind);
  EXPECT_EQ(0u, stall.at_event);
  EXPECT_EQ(FaultKind::kDeath, chaos::parseFaultSpec("death").kind);
  // An omitted index defaults to event 0.
  EXPECT_EQ(0u, chaos::parseFaultSpec("launch").at_event);

  for (const char* spec : {"", "launch@3", "launch@0", "stall@7", "death"})
    EXPECT_EQ(spec, chaos::faultSpecString(chaos::parseFaultSpec(spec)));
}

TEST(ChaosSpec, ParseRejectsGarbage) {
  for (const char* bad : {"boom", "launch@", "launch@x", "launch@-1",
                          "stall@1.5", "death@2", "@3", "LAUNCH@1"})
    EXPECT_THROW(chaos::parseFaultSpec(bad), Error) << bad;
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

TEST(ChaosPlan, ValidateBoundsTheRates) {
  FaultPlan p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_FALSE(p.enabled());
  p.launch_fault_rate = 0.2;
  EXPECT_TRUE(p.enabled());
  EXPECT_NO_THROW(p.validate());

  FaultPlan bad = p;
  bad.stall_rate = -0.1;
  EXPECT_THROW(bad.validate(), Error);
  bad = p;
  bad.death_rate = 1.5;
  EXPECT_THROW(bad.validate(), Error);
  bad = p;
  bad.launch_fault_rate = 0.6;
  bad.stall_rate = 0.6;  // sum > 1: the three draws share one uniform
  EXPECT_THROW(bad.validate(), Error);
}

TEST(ChaosPlan, TargetsAllDevicesUnlessRestricted) {
  FaultPlan p;
  EXPECT_TRUE(p.targetsDevice(0));
  EXPECT_TRUE(p.targetsDevice(7));
  p.target_devices = {1, 3};
  EXPECT_FALSE(p.targetsDevice(0));
  EXPECT_TRUE(p.targetsDevice(1));
  EXPECT_FALSE(p.targetsDevice(2));
  EXPECT_TRUE(p.targetsDevice(3));
}

TEST(ChaosPlan, JsonRoundTrips) {
  FaultPlan p;
  p.seed = 0xFEEDFACEu;
  p.launch_fault_rate = 0.25;
  p.stall_rate = 0.125;
  p.death_rate = 0.0625;
  p.target_devices = {0, 2, 5};
  const FaultPlan back = FaultPlan::fromJson(obs::parseJson(p.toJson()));
  EXPECT_EQ(p.seed, back.seed);
  EXPECT_EQ(p.launch_fault_rate, back.launch_fault_rate);
  EXPECT_EQ(p.stall_rate, back.stall_rate);
  EXPECT_EQ(p.death_rate, back.death_rate);
  EXPECT_EQ(p.target_devices, back.target_devices);
}

// ---------------------------------------------------------------------------
// The injector: a pure function of (seed, job id)
// ---------------------------------------------------------------------------

FaultPlan soakishPlan(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  p.launch_fault_rate = 0.3;
  p.stall_rate = 0.2;
  p.death_rate = 0.1;
  return p;
}

TEST(ChaosInjector, ScheduleDependsOnlyOnSeedAndJobId) {
  const chaos::FaultInjector a(soakishPlan(42));
  const chaos::FaultInjector b(soakishPlan(42));
  int faulted = 0;
  std::set<int> kinds_seen;
  for (int id = 0; id < 500; ++id) {
    const JobFault fa = a.jobFault(id);
    const JobFault fb = b.jobFault(id);
    EXPECT_EQ(int(fa.kind), int(fb.kind)) << id;
    EXPECT_EQ(fa.at_event, fb.at_event) << id;
    kinds_seen.insert(int(fa.kind));
    if (!fa.none()) {
      ++faulted;
      EXPECT_LT(fa.at_event, 4u) << id;  // fires within tiny-job reach
    }
  }
  // All three fault kinds (and the no-fault case) occur at these rates, and
  // roughly 60% of jobs fault (loose bounds: this is a sanity band, not a
  // statistical test).
  EXPECT_EQ(4u, kinds_seen.size());
  EXPECT_GT(faulted, 500 * 0.45);
  EXPECT_LT(faulted, 500 * 0.75);

  // Re-asking about an id after unrelated queries gives the same answer:
  // the schedule is keyed per job, not positional.
  const JobFault first = a.jobFault(123);
  EXPECT_EQ(int(first.kind), int(a.jobFault(123).kind));
  EXPECT_EQ(first.at_event, a.jobFault(123).at_event);

  // A different seed produces a different schedule somewhere.
  const chaos::FaultInjector c(soakishPlan(43));
  bool differs = false;
  for (int id = 0; id < 500 && !differs; ++id)
    differs = int(a.jobFault(id).kind) != int(c.jobFault(id).kind);
  EXPECT_TRUE(differs);
}

TEST(ChaosInjector, DisabledPlanInjectsNothing) {
  FaultPlan p;
  p.seed = 99;  // a seed alone does not enable chaos; rates do
  const chaos::FaultInjector inj(p);
  for (int id = 0; id < 100; ++id) EXPECT_TRUE(inj.jobFault(id).none());
}

// ---------------------------------------------------------------------------
// Offline batch (deterministic lane, watchdog disarmed): launch faults fail
// their jobs, stall/death decisions are dropped
// ---------------------------------------------------------------------------

TEST(ChaosOffline, DeterministicBatchFailsExactlyTheLaunchFaultedJobs) {
  const FaultPlan plan = soakishPlan(7);
  const chaos::FaultInjector injector(plan);

  const int kJobs = 16;
  svc::DispatcherOptions opt;
  opt.num_devices = 2;
  opt.queue_capacity = kJobs;
  opt.fault_plan = plan;
  svc::Dispatcher dispatcher(opt);
  for (int i = 0; i < kJobs; ++i)
    ASSERT_TRUE(dispatcher.submit(chaosJob("offline" + std::to_string(i)))
                    .accepted);
  const svc::SvcReport& report = dispatcher.drain();

  int launch_faulted = 0, device_faulted = 0;
  for (int id = 0; id < kJobs; ++id) {
    SCOPED_TRACE(id);
    const svc::JobResult& r = dispatcher.result(id);
    const JobFault f = injector.jobFault(id);
    if (f.kind == FaultKind::kLaunchFault) {
      ++launch_faulted;
      EXPECT_TRUE(r.failed);
      EXPECT_NE(std::string::npos, r.error.find("LaunchFault")) << r.error;
    } else {
      // Stall/death decisions are dropped with the watchdog disarmed —
      // nothing could ever resolve them.
      if (!f.none()) ++device_faulted;
      EXPECT_FALSE(r.failed) << r.error;
      EXPECT_EQ(faultFreeHash(), imageHash(r.run.image));
    }
  }
  // The chosen seed exercises both branches.
  EXPECT_GT(launch_faulted, 0);
  EXPECT_GT(device_faulted, 0);
  EXPECT_EQ(std::uint64_t(launch_faulted), report.jobs_failed);
  EXPECT_EQ(0u, report.devices_failed);
}

// ---------------------------------------------------------------------------
// Online dispatcher: forced faults, watchdog, migration
// ---------------------------------------------------------------------------

TEST(ChaosDispatcher, ForcedLaunchFaultFailsTheJobNotTheDevice) {
  svc::DispatcherOptions opt;
  opt.num_devices = 1;
  opt.queue_capacity = 8;
  svc::Dispatcher dispatcher(opt);

  svc::JobSpec faulty = chaosJob("faulty");
  faulty.fault = chaos::parseFaultSpec("launch@1");
  const int bad_id = dispatcher.submit(faulty).job_id;
  const int good_id = dispatcher.submit(chaosJob("good")).job_id;

  const svc::JobStatus bad = dispatcher.waitTerminal(bad_id);
  EXPECT_EQ(svc::JobState::kFailed, bad.state);
  EXPECT_NE(std::string::npos, bad.error.find("LaunchFault")) << bad.error;
  EXPECT_EQ(0, bad.migrations);

  // The device survives a corrupted launch; the next job runs clean.
  const svc::JobStatus good = dispatcher.waitTerminal(good_id);
  EXPECT_EQ(svc::JobState::kDone, good.state);
  EXPECT_EQ(faultFreeHash(), good.image_hash);

  const svc::SvcReport& rep = dispatcher.drain();
  EXPECT_EQ(1u, rep.jobs_failed);
  EXPECT_EQ(0u, rep.devices_failed);
  EXPECT_EQ(0u, rep.jobs_migrated);
}

TEST(ChaosDispatcher, StallMigratesRunningAndQueuedJobsToSurvivors) {
  svc::DispatcherOptions opt;
  opt.num_devices = 2;
  opt.queue_capacity = 16;
  opt.watchdog_ms = 150.0;
  svc::Dispatcher dispatcher(opt);

  // Deterministic lane: job 0 and 2 start on device 0, 1 and 3 on device 1.
  // Job 0 stalls device 0 mid-run; the watchdog must fail the device,
  // re-lane queued job 2, and migrate job 0 itself when the stall unwinds.
  svc::JobSpec stall = chaosJob("stall0");
  stall.fault = chaos::parseFaultSpec("stall@1");
  std::vector<int> ids;
  ids.push_back(dispatcher.submit(stall).job_id);
  for (int i = 1; i < 4; ++i)
    ids.push_back(dispatcher.submit(chaosJob("det" + std::to_string(i))).job_id);

  for (int id : ids) {
    const svc::JobStatus s = dispatcher.waitTerminal(id);
    SCOPED_TRACE(s.name);
    EXPECT_EQ(svc::JobState::kDone, s.state) << s.error;
    // Migration preserves bit-identity: a migrated job re-runs clean and
    // results are device-independent.
    EXPECT_EQ(faultFreeHash(), s.image_hash);
  }
  EXPECT_EQ(1, dispatcher.status(ids[0]).migrations);
  EXPECT_EQ(1, dispatcher.status(ids[2]).migrations);

  const svc::SvcReport& rep = dispatcher.drain();
  EXPECT_EQ(4u, rep.jobs_done);
  EXPECT_EQ(0u, rep.jobs_failed);
  EXPECT_EQ(1u, rep.devices_failed);
  ASSERT_EQ(1u, rep.failed_devices.size());
  EXPECT_EQ(0, rep.failed_devices[0]);
  EXPECT_EQ(2u, rep.jobs_migrated);  // the stalled run + the queued det job
}

TEST(ChaosDispatcher, DeathAtDispatchMigratesTheJob) {
  svc::DispatcherOptions opt;
  opt.num_devices = 2;
  opt.queue_capacity = 8;
  opt.watchdog_ms = 150.0;
  svc::Dispatcher dispatcher(opt);

  svc::JobSpec dying = chaosJob("dying");
  dying.fault = chaos::parseFaultSpec("death");
  const int id = dispatcher.submit(dying).job_id;

  const svc::JobStatus s = dispatcher.waitTerminal(id);
  EXPECT_EQ(svc::JobState::kDone, s.state) << s.error;
  EXPECT_EQ(1, s.migrations);
  EXPECT_EQ(1, s.device);  // re-ran on the survivor
  EXPECT_EQ(faultFreeHash(), s.image_hash);

  const svc::SvcReport& rep = dispatcher.drain();
  EXPECT_EQ(1u, rep.devices_failed);
  EXPECT_EQ(1u, rep.jobs_migrated);
}

TEST(ChaosDispatcher, StallWithDisarmedWatchdogIsDroppedNotHung) {
  // Nothing could ever resolve a stall when no watchdog watches: the
  // dispatcher must drop the fault at dispatch and run the job clean.
  svc::DispatcherOptions opt;
  opt.num_devices = 1;
  svc::Dispatcher dispatcher(opt);
  svc::JobSpec spec = chaosJob("ignored-stall");
  spec.fault = chaos::parseFaultSpec("stall@0");
  const svc::JobStatus s =
      dispatcher.waitTerminal(dispatcher.submit(spec).job_id);
  EXPECT_EQ(svc::JobState::kDone, s.state) << s.error;
  EXPECT_EQ(0, s.migrations);
  EXPECT_EQ(faultFreeHash(), s.image_hash);
  EXPECT_EQ(0u, dispatcher.drain().devices_failed);
}

TEST(ChaosDispatcher, LosingEveryDeviceFailsJobsAndRejectsSubmits) {
  svc::DispatcherOptions opt;
  opt.num_devices = 1;
  opt.queue_capacity = 8;
  opt.watchdog_ms = 120.0;
  svc::Dispatcher dispatcher(opt);

  svc::JobSpec stall = chaosJob("stall");
  stall.fault = chaos::parseFaultSpec("stall@0");
  std::vector<int> ids;
  ids.push_back(dispatcher.submit(stall).job_id);
  ids.push_back(dispatcher.submit(chaosJob("q1")).job_id);
  ids.push_back(dispatcher.submit(chaosJob("q2", /*deterministic=*/false)).job_id);

  // Every job dead-ends — exactly one terminal state each, no hang.
  for (int id : ids) {
    const svc::JobStatus s = dispatcher.waitTerminal(id);
    SCOPED_TRACE(s.name);
    EXPECT_EQ(svc::JobState::kFailed, s.state);
    EXPECT_NE(std::string::npos, s.error.find("no surviving devices"))
        << s.error;
  }

  const svc::SubmitOutcome out = dispatcher.submit(chaosJob("late"));
  EXPECT_FALSE(out.accepted);
  EXPECT_NE(std::string::npos, out.reason.find("no surviving devices"))
      << out.reason;

  const svc::SvcReport& rep = dispatcher.drain();  // returns: clean drain
  EXPECT_EQ(3u, rep.jobs_failed);
  EXPECT_EQ(1u, rep.devices_failed);
}

// ---------------------------------------------------------------------------
// Replay determinism: same plan, same jobs -> same outcomes and bits
// ---------------------------------------------------------------------------

struct ChaosRunOutcome {
  std::vector<int> states;
  std::vector<int> migrations;
  std::vector<std::uint64_t> hashes;  // 0 when the job has no image
  std::uint64_t devices_failed = 0;
};

ChaosRunOutcome runPlannedChaosBatch(const FaultPlan& plan, int jobs) {
  svc::DispatcherOptions opt;
  opt.num_devices = 2;
  opt.queue_capacity = jobs;
  opt.fault_plan = plan;
  opt.watchdog_ms = 150.0;
  svc::Dispatcher dispatcher(opt);
  std::vector<int> ids;
  for (int i = 0; i < jobs; ++i)
    ids.push_back(dispatcher.submit(chaosJob("job" + std::to_string(i))).job_id);
  ChaosRunOutcome out;
  for (int id : ids) {
    const svc::JobStatus s = dispatcher.waitTerminal(id);
    out.states.push_back(int(s.state));
    out.migrations.push_back(s.migrations);
    out.hashes.push_back(s.has_image ? s.image_hash : 0u);
  }
  out.devices_failed = dispatcher.drain().devices_failed;
  return out;
}

TEST(ChaosDispatcher, SameSeedReplaysTheSameFaultsMigrationsAndBits) {
  // Stall/death restricted to device 1 so a survivor always exists and the
  // run is replay-deterministic end to end.
  FaultPlan plan;
  plan.seed = 20260808;
  plan.launch_fault_rate = 0.2;
  plan.stall_rate = 0.15;
  plan.death_rate = 0.1;
  plan.target_devices = {1};

  const int kJobs = 12;
  const ChaosRunOutcome a = runPlannedChaosBatch(plan, kJobs);
  const ChaosRunOutcome b = runPlannedChaosBatch(plan, kJobs);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_EQ(a.devices_failed, b.devices_failed);

  // And every job that produced an image — unaffected or migrated — is
  // bit-identical to the fault-free reference.
  int done = 0, failed = 0;
  for (int i = 0; i < kJobs; ++i) {
    if (a.states[i] == int(svc::JobState::kDone)) {
      ++done;
      EXPECT_EQ(faultFreeHash(), a.hashes[i]) << i;
    } else {
      ++failed;
      EXPECT_EQ(int(svc::JobState::kFailed), a.states[i]) << i;
    }
  }
  EXPECT_GT(done, 0);
  EXPECT_GT(failed, 0);  // the seed really injected launch faults
}

// ---------------------------------------------------------------------------
// The wire `chaos` verb and the submit `fault` field
// ---------------------------------------------------------------------------

struct ChaosService {
  explicit ChaosService(int devices, double watchdog_ms = 0.0) {
    svc::ServerOptions opt;
    opt.dispatch.num_devices = devices;
    opt.dispatch.queue_capacity = 16;
    opt.dispatch.watchdog_ms = watchdog_ms;
    opt.base_config = tinyBaseConfig();
    server = std::make_unique<svc::Server>(opt, source);
  }
  svc::Client connect() { return svc::Client(server->port()); }

  TinySource source;
  std::unique_ptr<svc::Server> server;
};

TEST(ChaosWire, ChaosVerbInstallsReportsAndDisablesPlans) {
  ChaosService service(/*devices=*/2);
  svc::Client client = service.connect();

  // Read-only chaos on a plain server: disabled, watchdog disarmed.
  obs::JsonValue resp = client.chaos();
  EXPECT_FALSE(resp.find("enabled")->bool_v);
  EXPECT_EQ(0.0, resp.find("watchdog_ms")->num_v);

  // A forced stall is refused while the watchdog is disarmed — accepting it
  // would park a device nothing can recover.
  svc::SubmitParams stall;
  stall.fault = "stall@0";
  const svc::Client::SubmitResult refused = client.submit(stall);
  EXPECT_FALSE(refused.accepted);
  EXPECT_NE(std::string::npos, refused.error.find("watchdog"))
      << refused.error;

  // A malformed fault spec is rejected at the door, not at dispatch.
  svc::SubmitParams bad;
  bad.fault = "explode@now";
  EXPECT_FALSE(client.submit(bad).accepted);

  // Install a plan over the wire; the response and a later read-back agree.
  FaultPlan plan;
  plan.seed = 99;
  plan.launch_fault_rate = 1.0;  // every dispatched job launch-faults
  resp = client.chaos(plan, /*watchdog_ms=*/500.0);
  EXPECT_TRUE(resp.find("enabled")->bool_v);
  EXPECT_EQ(500.0, resp.find("watchdog_ms")->num_v);
  EXPECT_EQ(99.0, resp.find("plan")->find("seed")->num_v);

  const svc::Client::JobInfo doomed =
      client.result(client.submit(svc::SubmitParams{}).job_id);
  EXPECT_EQ("failed", doomed.state);
  EXPECT_NE(std::string::npos, doomed.error.find("LaunchFault"))
      << doomed.error;

  // The stats document carries the chaos section.
  const obs::JsonValue stats = client.stats();
  const obs::JsonValue* chaos_doc = stats.find("chaos");
  ASSERT_NE(nullptr, chaos_doc);
  EXPECT_TRUE(chaos_doc->find("enabled")->bool_v);
  EXPECT_EQ(99.0, chaos_doc->find("plan")->find("seed")->num_v);

  // An all-zero-rate plan turns chaos back off; jobs run clean again.
  resp = client.chaos(FaultPlan{}, 500.0);
  EXPECT_FALSE(resp.find("enabled")->bool_v);
  const svc::Client::JobInfo clean =
      client.result(client.submit(svc::SubmitParams{}).job_id);
  EXPECT_EQ("done", clean.state);
  client.drain();
}

TEST(ChaosWire, ForcedStallOverTheWireMigratesAndReportsIt) {
  ChaosService service(/*devices=*/2, /*watchdog_ms=*/150.0);
  svc::Client client = service.connect();

  svc::SubmitParams p;
  p.fault = "stall@1";
  p.deterministic = true;
  p.name = "wire-stall";
  const int id = client.submit(p).job_id;
  const svc::Client::JobInfo info = client.result(id);
  EXPECT_EQ("done", info.state) << info.error;

  const obs::JsonValue chaos_doc = client.chaos();
  EXPECT_EQ(1.0, chaos_doc.find("devices_failed")->num_v);
  EXPECT_GE(chaos_doc.find("jobs_migrated")->num_v, 1.0);

  const obs::JsonValue report = client.drain();
  EXPECT_EQ(1.0, report.find("devices_failed")->num_v);
  ASSERT_TRUE(report.find("failed_devices")->isArray());
  EXPECT_EQ(1u, report.find("failed_devices")->array_v.size());
  // The migrated job's report entry records its migration count.
  bool found = false;
  for (const obs::JsonValue& j : report.find("jobs")->array_v) {
    if (int(j.find("job_id")->num_v) != id) continue;
    found = true;
    ASSERT_NE(nullptr, j.find("migrations"));
    EXPECT_EQ(1.0, j.find("migrations")->num_v);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// The seeded reliability soak gate
// ---------------------------------------------------------------------------

std::uint64_t envU64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v && *v ? std::strtoull(v, nullptr, 10) : def;
}

TEST(ChaosSoak, SeededSoakGate) {
  const std::uint64_t seed = envU64("GPUMBIR_SOAK_SEED", 20260808);
  const int jobs = int(envU64("GPUMBIR_SOAK_JOBS", 300));
  std::fprintf(stderr,
               "chaos soak: seed=%llu jobs=%d — replay with\n"
               "  GPUMBIR_SOAK_SEED=%llu GPUMBIR_SOAK_JOBS=%d ./test_chaos "
               "--gtest_filter='ChaosSoak.*'\n",
               (unsigned long long)seed, jobs, (unsigned long long)seed, jobs);

  // Stall/death restricted to devices {1,3}: the worst case leaves two
  // survivors, so the soak can always finish. Launch faults hit any device.
  FaultPlan plan;
  plan.seed = seed;
  plan.launch_fault_rate = 0.05;
  plan.stall_rate = 0.03;
  plan.death_rate = 0.02;
  plan.target_devices = {1, 3};

  svc::DispatcherOptions opt;
  opt.num_devices = 4;
  opt.queue_capacity = 64;
  opt.fault_plan = plan;
  opt.watchdog_ms = 250.0;
  svc::Dispatcher dispatcher(opt);

  // Mixed traffic, all decisions drawn from the printed seed: roughly half
  // deterministic-lane jobs, half priority-lane with spread priorities, a
  // few with real (generous) deadlines, and ~5% cancelled right after
  // admission. Admission rejections (bounded queue) back off and retry so
  // the soak really pushes every job through the service.
  Rng traffic = Rng::forStream(seed, 0, 0x50AC);
  std::vector<int> accepted;
  std::vector<int> det_jobs;
  std::uint64_t rejected = 0;
  for (int i = 0; i < jobs; ++i) {
    svc::JobSpec spec = chaosJob("soak" + std::to_string(i),
                                 /*deterministic=*/traffic.below(2) == 0);
    if (!spec.deterministic) {
      spec.priority = int(traffic.below(5));
      if (traffic.below(8) == 0) spec.deadline_ms = 30000.0;
    }
    const bool cancel_it = traffic.below(20) == 0;
    svc::SubmitOutcome out = dispatcher.submit(spec);
    while (!out.accepted) {
      ++rejected;  // backpressure observed; retry after a beat
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      out = dispatcher.submit(spec);
    }
    accepted.push_back(out.job_id);
    if (spec.deterministic && !cancel_it) det_jobs.push_back(out.job_id);
    if (cancel_it) dispatcher.cancel(out.job_id);
  }

  // No lost jobs: every accepted job reaches exactly one terminal state.
  std::uint64_t done = 0, cancelled = 0, failed = 0, missed = 0, migrated = 0;
  for (int id : accepted) {
    const svc::JobStatus s = dispatcher.waitTerminal(id);
    ASSERT_TRUE(svc::isTerminal(s.state)) << id;
    migrated += std::uint64_t(s.migrations);
    switch (s.state) {
      case svc::JobState::kDone: ++done; break;
      case svc::JobState::kCancelled: ++cancelled; break;
      case svc::JobState::kFailed: ++failed; break;
      case svc::JobState::kDeadlineMissed: ++missed; break;
      default: FAIL() << "non-terminal state for job " << id;
    }
    // Unaffected and migrated jobs alike: every job that ran to completion
    // matches the fault-free reference bit for bit. (Cancelled jobs stop at
    // an iteration boundary, so their partial image legitimately differs.)
    if (s.state == svc::JobState::kDone && s.has_image)
      EXPECT_EQ(faultFreeHash(), s.image_hash) << id;
  }
  EXPECT_EQ(accepted.size(), done + cancelled + failed + missed);

  // Deterministic-lane jobs that ran are bit-identical to a fault-free run.
  for (int id : det_jobs) {
    const svc::JobStatus s = dispatcher.status(id);
    if (s.state != svc::JobState::kDone) continue;
    EXPECT_EQ(faultFreeHash(), s.image_hash) << id;
  }

  // Clean drain: returns (no hang), and its accounting matches what we saw
  // job by job.
  const svc::SvcReport& rep = dispatcher.drain();
  EXPECT_EQ(accepted.size(), rep.jobs_submitted);
  EXPECT_EQ(rejected, rep.admission_rejected);
  EXPECT_EQ(done, rep.jobs_done);
  EXPECT_EQ(cancelled, rep.jobs_cancelled);
  EXPECT_EQ(failed, rep.jobs_failed);
  EXPECT_EQ(missed, rep.jobs_deadline_missed);
  EXPECT_EQ(migrated, rep.jobs_migrated);
  EXPECT_LE(rep.devices_failed, 2u);  // only devices 1 and 3 are targeted
  for (int d : rep.failed_devices) EXPECT_TRUE(d == 1 || d == 3) << d;
  EXPECT_EQ(accepted.size(), rep.jobs.size());

  std::fprintf(stderr,
               "chaos soak: %zu accepted (%llu rejected) -> %llu done, %llu "
               "cancelled, %llu failed, %llu deadline-missed; %llu devices "
               "failed, %llu migrations\n",
               accepted.size(), (unsigned long long)rejected,
               (unsigned long long)done, (unsigned long long)cancelled,
               (unsigned long long)failed, (unsigned long long)missed,
               (unsigned long long)rep.devices_failed,
               (unsigned long long)rep.jobs_migrated);
}

}  // namespace
}  // namespace mbir::test
