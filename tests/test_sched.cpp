// Offline batches on the dispatcher's deterministic lane (src/svc): sharding
// heterogeneous jobs across simulated devices must be bit-identical to
// running the same jobs serially, for any device count and host thread
// count; plus terminal-only result access, cancellation, failure isolation,
// the aggregate report, and per-device trace processes.
#include <gtest/gtest.h>

#include <thread>

#include "core/error.h"
#include "core/thread_pool.h"
#include "obs/json.h"
#include "svc/view.h"
#include "svc_test_support.h"

namespace mbir {
namespace {

using svc::Dispatcher;
using svc::JobResult;
using svc::SvcReport;

/// One job of a batch: its config and the problem it runs on.
struct BatchJob {
  RunConfig cfg;
  const OwnedProblem* problem = &test::tinyProblem();
};

// Heterogeneous job mix: all three engines (PSV pinned to one thread — the
// only deterministic PSV mode, DESIGN.md §7), convergence and fixed-budget
// stops, and GPU variants that exercise different kernels and plan-store
// paths (one job runs on a matrix whose store retains nothing).
std::vector<BatchJob> heterogeneousJobs() {
  std::vector<BatchJob> jobs;

  RunConfig seq_budget = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  seq_budget.stop_rmse_hu = -1.0;  // run the fixed budget
  jobs.push_back({seq_budget});

  jobs.push_back({test::tinyRunConfig(Algorithm::kSequentialIcd, 20.0)});

  RunConfig gpu_budget = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_budget.stop_rmse_hu = -1.0;
  jobs.push_back({gpu_budget});

  jobs.push_back({test::tinyRunConfig(Algorithm::kGpuIcd, 16.0)});

  RunConfig gpu_exact = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_exact.stop_rmse_hu = -1.0;
  gpu_exact.gpu.flags.quantize_amatrix = false;
  jobs.push_back({gpu_exact});

  RunConfig gpu_nocache = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_nocache.stop_rmse_hu = -1.0;
  jobs.push_back({gpu_nocache, &test::tinyProblemNoPlanRetention()});

  RunConfig gpu_intra = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  gpu_intra.stop_rmse_hu = -1.0;
  gpu_intra.gpu.tunables.threadblocks_per_sv = 8;
  jobs.push_back({gpu_intra});

  RunConfig psv_budget = test::tinyRunConfig(Algorithm::kPsvIcd, 3.0);
  psv_budget.stop_rmse_hu = -1.0;
  psv_budget.psv.num_threads = 1;
  jobs.push_back({psv_budget});

  RunConfig psv_conv = test::tinyRunConfig(Algorithm::kPsvIcd, 16.0);
  psv_conv.psv.num_threads = 1;
  jobs.push_back({psv_conv});

  return jobs;
}

std::vector<RunResult> serialBaseline(const std::vector<BatchJob>& jobs) {
  std::vector<RunResult> out;
  out.reserve(jobs.size());
  for (const BatchJob& job : jobs)
    out.push_back(reconstruct(*job.problem, test::tinyGolden(), job.cfg));
  return out;
}

/// An offline batch's dispatcher: room in the queue for every job.
svc::DispatcherOptions batchOptions(int devices, int jobs) {
  svc::DispatcherOptions opt;
  opt.num_devices = devices;
  opt.queue_capacity = jobs;
  return opt;
}

/// Submit one job of the batch on the deterministic lane.
int submitDet(Dispatcher& d, const RunConfig& cfg, const std::string& name = {}) {
  const svc::SubmitOutcome out = d.submit(test::tinyJob(cfg, name, /*deterministic=*/true));
  EXPECT_TRUE(out.accepted) << out.reason;
  return out.job_id;
}

int submitDet(Dispatcher& d, const BatchJob& job) {
  svc::JobSpec spec = test::tinyJob(job.cfg, {}, /*deterministic=*/true);
  spec.problem = job.problem;
  const svc::SubmitOutcome out = d.submit(std::move(spec));
  EXPECT_TRUE(out.accepted) << out.reason;
  return out.job_id;
}

/// A job that runs until cancelled (RMSE stop off, huge budget).
RunConfig blockerConfig() {
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 1e6);
  cfg.stop_rmse_hu = -1.0;
  return cfg;
}

TEST(SchedDeterminism, BitIdenticalToSerialForAnyDeviceAndThreadCount) {
  const std::vector<BatchJob> jobs = heterogeneousJobs();
  ASSERT_GE(jobs.size(), 8u);
  const std::vector<RunResult> serial = serialBaseline(jobs);

  for (int devices : {1, 2, 4}) {
    for (unsigned threads : {1u, 2u}) {
      SCOPED_TRACE("devices=" + std::to_string(devices) +
                   " threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      Dispatcher d(batchOptions(devices, int(jobs.size())));
      for (BatchJob job : jobs) {
        job.cfg.gpu.host_pool = &pool;
        submitDet(d, job);
      }
      d.drain();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        const JobResult& r = d.result(int(i));
        EXPECT_FALSE(r.failed) << r.error;
        test::expectRunResultsBitIdentical(serial[i], r.run);
        if (jobs[i].problem == &test::tinyProblemNoPlanRetention()) {
          // Nothing retained: every chunk-plan lookup built its plan.
          ASSERT_TRUE(r.run.gpu_stats);
          EXPECT_EQ(r.run.gpu_stats->chunk_cache_hits, 0u);
          EXPECT_GT(r.run.gpu_stats->chunk_cache_misses, 0u);
        }
      }
    }
  }
}

TEST(Sched, RoundRobinDeviceAssignment) {
  const std::vector<BatchJob> jobs = heterogeneousJobs();
  Dispatcher d(batchOptions(4, int(jobs.size())));
  for (const BatchJob& job : jobs) submitDet(d, job);
  const SvcReport& rep = d.drain();
  for (int i = 0; i < int(jobs.size()); ++i) {
    EXPECT_EQ(d.result(i).device, i % 4);
    EXPECT_EQ(rep.jobs[std::size_t(i)].device, i % 4);
  }
}

TEST(Sched, WaitTerminalResolvesToResults) {
  // One device: "b" queues behind a blocker, so its result is not there
  // yet — the accessor refuses non-terminal jobs instead of racing the run.
  Dispatcher d(batchOptions(1, 2));
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  cfg.stop_rmse_hu = -1.0;
  const int a = submitDet(d, blockerConfig(), "a");
  const int b = submitDet(d, cfg, "b");
  EXPECT_THROW(d.result(b), Error);
  EXPECT_TRUE(d.cancel(a));
  EXPECT_EQ(d.waitTerminal(b).state, svc::JobState::kDone);
  EXPECT_EQ(d.waitTerminal(a).state, svc::JobState::kCancelled);
  EXPECT_EQ(d.result(a).name, "a");
  EXPECT_EQ(d.result(b).name, "b");
  EXPECT_TRUE(d.result(a).cancelled);
  EXPECT_GE(d.result(b).run.equits, 2.0);
  d.drain();
}

TEST(Sched, CancelBeforeRunStopsAtFirstIterationBoundary) {
  // A queued deterministic job keeps its lane slot when cancelled and runs
  // with the flag set: it stops at the first iteration boundary.
  Dispatcher d(batchOptions(1, 3));
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 30.0);
  cfg.stop_rmse_hu = -1.0;
  const int blocker = submitDet(d, blockerConfig());
  const int victim = submitDet(d, cfg);
  const int other = submitDet(d, cfg);
  EXPECT_TRUE(d.cancel(victim));  // still queued behind the blocker
  EXPECT_TRUE(d.cancel(blocker));
  const SvcReport& rep = d.drain();
  const JobResult& rv = d.result(victim);
  EXPECT_TRUE(rv.cancelled);
  EXPECT_TRUE(rv.run.cancelled);
  EXPECT_FALSE(rv.run.converged);
  EXPECT_TRUE(rv.run.curve.empty());  // stopped before the first sample
  EXPECT_LT(rv.run.equits, 2.0);      // far short of the 30-equit budget
  EXPECT_GE(rep.jobs[std::size_t(victim)].dispatch_seq, 0);  // kept its slot
  const JobResult& ro = d.result(other);
  EXPECT_FALSE(ro.cancelled);
  EXPECT_GE(ro.run.equits, 29.0);
  EXPECT_EQ(rep.jobs_cancelled, 2u);  // blocker + victim
}

TEST(Sched, CancelWhileInFlightTerminatesBatch) {
  // Cancel everything from outside while the batch runs; the batch must
  // drain promptly and every job must be either cancelled or finished.
  const int kJobs = 6;
  Dispatcher d(batchOptions(2, kJobs));
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 50.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < kJobs; ++i) submitDet(d, cfg);
  std::thread canceller([&] {
    d.waitTerminal(0);  // batch is definitely in flight once job 0 finished
    for (int i = 0; i < kJobs; ++i) d.cancel(i);
  });
  d.drain();
  canceller.join();
  for (int i = 0; i < kJobs; ++i) {
    const JobResult& r = d.result(i);
    EXPECT_FALSE(r.failed) << r.error;
    // Every job either ran its full budget or was cut short by the cancel.
    if (!r.cancelled) EXPECT_GE(r.run.equits, 49.0);
  }
}

TEST(Sched, FailedJobIsIsolated) {
  Dispatcher d(batchOptions(2, 3));
  RunConfig good = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  good.stop_rmse_hu = -1.0;
  RunConfig bad = test::tinyRunConfig(Algorithm::kGpuIcd, 2.0);
  bad.gpu.tunables.threads_per_block = 100;  // not a multiple of 32: throws
  submitDet(d, good, "good0");
  submitDet(d, bad, "bad");
  submitDet(d, good, "good1");
  const SvcReport& rep = d.drain();
  EXPECT_TRUE(d.result(1).failed);
  EXPECT_FALSE(d.result(1).error.empty());
  EXPECT_FALSE(d.result(0).failed);
  EXPECT_FALSE(d.result(2).failed);
  EXPECT_GT(d.result(0).run.equits, 0.0);
  EXPECT_GT(d.result(2).run.equits, 0.0);
  EXPECT_EQ(rep.jobs_failed, 1u);
}

TEST(Sched, ReportAggregatesAreConsistent) {
  const std::vector<BatchJob> jobs = heterogeneousJobs();
  Dispatcher d(batchOptions(2, int(jobs.size())));
  for (const BatchJob& job : jobs) submitDet(d, job);
  const SvcReport& rep = d.drain();

  EXPECT_EQ(rep.jobs_submitted, jobs.size());
  EXPECT_EQ(rep.jobs_done, jobs.size());
  EXPECT_EQ(rep.jobs_failed, 0u);
  EXPECT_GT(rep.host_seconds, 0.0);
  EXPECT_GT(rep.jobs_per_host_second, 0.0);
  ASSERT_EQ(rep.device_modeled_s.size(), 2u);

  // Per-device modeled clocks tile exactly: each device's jobs abut, the
  // first job waits zero, and the clocks sum to the batch total.
  double sum_jobs = 0.0, sum_devices = 0.0;
  std::vector<double> clock(2, 0.0);
  for (int i = 0; i < int(jobs.size()); ++i) {
    const JobResult& r = d.result(i);
    EXPECT_EQ(r.device_start_modeled_s, clock[std::size_t(r.device)]);
    EXPECT_EQ(r.device_end_modeled_s,
              r.device_start_modeled_s + r.run.modeled_seconds);
    clock[std::size_t(r.device)] = r.device_end_modeled_s;
    sum_jobs += r.run.modeled_seconds;
  }
  for (std::size_t dev = 0; dev < 2; ++dev) {
    EXPECT_EQ(rep.device_modeled_s[dev], clock[dev]);
    sum_devices += rep.device_modeled_s[dev];
  }
  EXPECT_DOUBLE_EQ(rep.modeled_device_seconds_total, sum_jobs);
  EXPECT_DOUBLE_EQ(sum_devices, sum_jobs);
  EXPECT_EQ(rep.makespan_modeled_s,
            std::max(rep.device_modeled_s[0], rep.device_modeled_s[1]));
}

TEST(Sched, BatchReportJsonParses) {
  Dispatcher d(batchOptions(2, 3));
  RunConfig cfg = test::tinyRunConfig(Algorithm::kSequentialIcd, 2.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < 3; ++i) submitDet(d, cfg);
  const obs::JsonValue doc =
      obs::parseJson(svc::reportJson(d.drain(), /*rec=*/nullptr));
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->asString(), "gpumbir.svc_report/1");
  EXPECT_EQ(doc.find("jobs_submitted")->asNumber(), 3.0);
  EXPECT_EQ(doc.find("num_devices")->asNumber(), 2.0);
  const obs::JsonValue* jobs = doc.find("jobs");
  ASSERT_TRUE(jobs && jobs->isArray());
  ASSERT_EQ(jobs->array_v.size(), 3u);
  for (const obs::JsonValue& j : jobs->array_v) {
    EXPECT_TRUE(j.find("name")->isString());
    EXPECT_TRUE(j.find("deterministic")->asBool());
    EXPECT_GE(j.find("modeled_seconds")->asNumber(), 0.0);
    EXPECT_GE(j.find("queue_wait_modeled_s")->asNumber(), 0.0);
  }
}

TEST(Sched, SharedRecorderSeesDevicesAndJobs) {
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  obs::Recorder rec(ocfg);
  svc::DispatcherOptions opt = batchOptions(2, 4);
  opt.recorder = &rec;
  Dispatcher d(opt);
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 3.0);
  cfg.stop_rmse_hu = -1.0;
  for (int i = 0; i < 4; ++i) submitDet(d, cfg);
  d.drain();

  EXPECT_EQ(rec.metrics().counterValue("svc.jobs.done"), 4u);
  EXPECT_EQ(rec.metrics().counterValue("svc.jobs.cancelled"), 0u);
  EXPECT_GT(rec.metrics().counterValue("gsim.launch.count"), 0u);

  // The trace declares one process per device and attributes modeled-clock
  // spans to the device pids.
  const obs::JsonValue doc = obs::parseJson(rec.trace().toJson());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->isArray());
  bool named_dev0 = false, named_dev1 = false;
  bool span_on_dev0 = false, span_on_dev1 = false;
  for (const obs::JsonValue& ev : events->array_v) {
    const obs::JsonValue* name = ev.find("name");
    const obs::JsonValue* pid = ev.find("pid");
    if (!name || !pid) continue;
    if (name->asString() == "process_name") {
      const obs::JsonValue* args = ev.find("args");
      if (args && args->find("name")) {
        if (args->find("name")->asString() == "svc device 0 (modeled)")
          named_dev0 = true;
        if (args->find("name")->asString() == "svc device 1 (modeled)")
          named_dev1 = true;
      }
    } else {
      if (pid->asNumber() == 10.0) span_on_dev0 = true;
      if (pid->asNumber() == 11.0) span_on_dev1 = true;
    }
  }
  EXPECT_TRUE(named_dev0);
  EXPECT_TRUE(named_dev1);
  EXPECT_TRUE(span_on_dev0);
  EXPECT_TRUE(span_on_dev1);
}

TEST(SchedDeterminism, ObservabilityDoesNotPerturbResults) {
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 3.0);
  cfg.stop_rmse_hu = -1.0;

  const auto run_batch = [&](obs::Recorder* rec) {
    svc::DispatcherOptions opt = batchOptions(2, 4);
    opt.recorder = rec;
    Dispatcher d(opt);
    for (int i = 0; i < 4; ++i) submitDet(d, cfg);
    d.drain();
    std::vector<std::uint64_t> hashes;
    for (int i = 0; i < 4; ++i)
      hashes.push_back(test::imageHash(d.result(i).run.image));
    return hashes;
  };

  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  obs::Recorder rec(ocfg);
  EXPECT_EQ(run_batch(nullptr), run_batch(&rec));
}

TEST(Sched, RaceCheckedBatchIsCleanAndBitIdentical) {
  // A 2-device batch with fatal race checking on every job: each device's
  // simulator carries its own detector, every launch on every device is
  // checked, all come out clean, and checking does not perturb results —
  // the batch stays bit-identical to the serial unchecked baseline.
  RunConfig checked = test::tinyRunConfig(Algorithm::kGpuIcd, 4.0);
  checked.stop_rmse_hu = -1.0;
  checked.gpu.race_check = {
      .enabled = true, .throw_on_race = true, .max_reports = 64};
  RunConfig unchecked = checked;
  unchecked.gpu.race_check = {};

  const std::vector<RunResult> serial =
      serialBaseline(std::vector<BatchJob>(4, BatchJob{unchecked}));

  Dispatcher d(batchOptions(2, 4));
  for (int i = 0; i < 4; ++i) submitDet(d, checked);
  d.drain();

  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const JobResult& r = d.result(i);
    ASSERT_FALSE(r.failed) << r.error;
    ASSERT_TRUE(r.run.gpu_stats);
    EXPECT_TRUE(r.run.gpu_stats->race_check_enabled);
    EXPECT_GT(r.run.gpu_stats->race_launches_checked, 0u);
    EXPECT_EQ(r.run.gpu_stats->race_reports, 0u);
    test::expectRunResultsBitIdentical(serial[std::size_t(i)], r.run);
  }
}

}  // namespace
}  // namespace mbir
