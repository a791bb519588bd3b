// svc_open_loop: an open loop against a live svc::Server with 4 simulated
// devices, no WAL and no cache, at 48^2 x 72 views x 96 channels.
//
// The whole arrival schedule is fixed before the run: a seeded Poisson
// process (exactly rate * seconds arrivals, uniform in the window), each
// arrival drawing a case from a pool built during set-up and a priority
// in 0..2. One connection submits at the due times; a small pool of
// collector connections waits on the outstanding jobs (and pings under
// load). A request's latency runs from its due time to the client's
// receipt of its result, so a generator or admission stall is charged to
// every request it delays, and so is the return path.
//
// The pool is 160 phantoms of a fixed family with seeded scan noise (see
// recon_single): a seed changes the noise, the arrival times and the case
// draw, not which objects the pool holds.
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kPoolCases = 160;   ///< case pool the arrivals draw from
constexpr int kRefCases = 8;      ///< pool cases also run by direct call
constexpr int kDevices = 4;
/// Connections waiting on results at once; well above the jobs in flight
/// at the offered load, so finished jobs are collected on arrival.
constexpr int kCollectors = 8;
constexpr double kGoldenEquits = 10.0;
constexpr std::uint64_t kFamilySeed = 2026;
/// Offered load (jobs/s), about 11% of the 4-device capacity at 48^2.
/// Concurrent jobs share the host's cores and its thread pool, so at
/// higher loads a slower host stretches every service time and the
/// overlap between jobs multiplies that: with one core taken by a busy
/// loop, the latency median rose 1.3-1.8x at 38 jobs/s, 1.2-1.35x at 20
/// and 1.0-1.4x at 14, and not at all at 10. A 40 s window holds 400
/// arrivals, whose tail (p95) has 20 beyond it.
constexpr double kRate = 10.0;

struct Arrival {
  double due_s = 0.0;  ///< offset from the start of the window
  int case_index = 0;
  int priority = 0;
};

std::vector<Arrival> buildSchedule(std::uint64_t seed, double seconds) {
  InputRng rng(seed, 1);
  const int n = std::max(1, int(kRate * seconds + 0.5));
  std::vector<Arrival> a(static_cast<std::size_t>(n));
  for (Arrival& x : a) {
    x.due_s = rng.uniform() * seconds;
    x.case_index = rng.below(kPoolCases);
    x.priority = rng.below(3);
  }
  std::sort(a.begin(), a.end(),
            [](const Arrival& l, const Arrival& r) { return l.due_s < r.due_s; });
  return a;
}

struct Setup {
  std::unique_ptr<CaseSet> cases;
  std::vector<RefRun> refs;  ///< direct calls of the first kRefCases cases
  std::unique_ptr<mbir::obs::Recorder> rec;  ///< traced half only
  std::unique_ptr<mbir::svc::Server> server;  // after rec: uses it
};

std::unique_ptr<mbir::svc::Server> startServer(CaseSet& cases,
                                               mbir::obs::Recorder* rec) {
  mbir::svc::ServerOptions opt;
  opt.dispatch.num_devices = kDevices;
  opt.dispatch.queue_capacity = 1024;
  opt.dispatch.recorder = rec;
  opt.base_config = baseRunConfig();
  return std::make_unique<mbir::svc::Server>(opt, cases);
}

std::unique_ptr<Setup> buildSetup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  std::vector<CaseSpec> specs;
  for (int i = 0; i < kPoolCases; ++i)
    specs.push_back({kFamilySeed, i, seed * 1000003ull + std::uint64_t(i)});
  s->cases = std::make_unique<CaseSet>(48, 72, 96, specs, kGoldenEquits);
  s->refs.resize(kRefCases);
  setupPool().parallelFor(0, kRefCases, [&](int i) {
    const CaseData& c = s->cases->at(i);
    s->refs[std::size_t(i)] =
        toRef(mbir::reconstruct(c.problem, c.golden, baseRunConfig()));
  });
  s->server = startServer(*s->cases, nullptr);
  return s;
}

struct Sent {
  double lag_s = 0.0;
  double acked_s = 0.0;  ///< ack time, from the window start
  double rtt_s = 0.0;
  int job_id = -1;
  bool accepted = false;
  std::string error;
};

/// What a collector saw of one accepted job.
struct Collected {
  mbir::svc::Client::JobInfo info;
  double ended_s = 0.0;  ///< result reply received, from the window start
  /// How long the job had already been terminal when a collector asked
  /// for it (a lower bound: the ack time plus the server's admitted ->
  /// terminal time bounds its end from above).
  double late_s = 0.0;
  double ping_s = 0.0;
};

/// Play the schedule against the server; returns one record per arrival.
/// Also checks every image: a case's repeats must carry the bits of its
/// first run, and the directly-run cases must equal their references.
std::vector<JobRecord> play(const Setup& s,
                            const std::vector<Arrival>& schedule,
                            Report& rep, std::vector<int>* device_jobs,
                            double* equits) {
  const std::size_t n = schedule.size();
  std::vector<Sent> sent(n);
  std::vector<Collected> got(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0, taken = 0;

  // Connect before the clock starts; the first arrival is due shortly
  // after every thread is ready.
  mbir::svc::Client submitter(s.server->port());
  std::vector<std::unique_ptr<mbir::svc::Client>> collectors;
  for (int k = 0; k < kCollectors; ++k)
    collectors.push_back(
        std::make_unique<mbir::svc::Client>(s.server->port()));
  WindowMeter meter;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

  std::thread submit_thread([&] {
    std::size_t i = 0;
    try {
      for (; i < n; ++i) {
        const Arrival& a = schedule[i];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(a.due_s));
        std::this_thread::sleep_until(due);
        mbir::svc::SubmitParams p;
        p.case_index = a.case_index;
        p.priority = a.priority;
        const Clock::time_point t0 = Clock::now();
        const mbir::svc::Client::SubmitResult r = submitter.submit(p);
        const Clock::time_point t1 = Clock::now();
        Sent& x = sent[i];
        x.lag_s = secondsBetween(due, t0);
        x.rtt_s = secondsBetween(t0, t1);
        x.acked_s = secondsBetween(start, t1);
        x.accepted = r.accepted;
        x.job_id = r.job_id;
        x.error = r.error;
        std::lock_guard lock(mu);
        published = i + 1;
        cv.notify_all();
      }
    } catch (const std::exception& e) {
      // Arrivals from i on stay unaccepted; release the collectors.
      for (; i < n; ++i) sent[i].error = e.what();
      std::lock_guard lock(mu);
      published = n;
      cv.notify_all();
    }
  });
  // Each collector takes the next published job, pings, and waits for its
  // result. A job's end is read on the client when the reply arrives, so
  // the terminal notification and the reply count in its latency. With
  // kCollectors waiting at once, a finished job goes uncollected only
  // while that many earlier jobs are still running; such lateness is
  // measured per job and counts as generator lag.
  auto collect = [&](mbir::svc::Client& client) {
    try {
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return taken < published || taken == n; });
          if (taken == n) return;
          i = taken++;
        }
        if (!sent[i].accepted) continue;
        Collected& c = got[i];
        const Clock::time_point p0 = Clock::now();
        client.ping();
        const Clock::time_point asked = Clock::now();
        c.ping_s = secondsBetween(p0, asked);
        c.info = client.result(sent[i].job_id);
        c.ended_s = secondsSince(start);
        c.late_s = std::max(0.0, secondsBetween(start, asked) -
                                     (sent[i].acked_s + c.info.e2e_host_s));
      }
    } catch (const std::exception& e) {
      rep.fail(std::string("open-loop collector: ") + e.what());
    }
  };
  std::vector<std::thread> collect_threads;
  for (auto& c : collectors)
    collect_threads.emplace_back([&, client = c.get()] { collect(*client); });
  submit_thread.join();
  for (std::thread& t : collect_threads) t.join();
  meter.stop(rep);

  std::map<int, RefRun> first;  // case -> bits of its first run
  for (int i = 0; i < kRefCases; ++i) first[i] = s.refs[std::size_t(i)];
  std::vector<JobRecord> out(n);
  double window = 0.0, modeled = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Sent& x = sent[i];
    JobRecord& j = out[i];
    static const char* const kPriorityKind[] = {"p0", "p1", "p2"};
    j.kind = kPriorityKind[schedule[i].priority];
    j.lag_s = x.lag_s;
    j.submit_rtt_s = x.rtt_s;
    if (!x.accepted) {
      rep.fail("arrival " + std::to_string(i) + " rejected: " + x.error);
      continue;
    }
    const Collected& c = got[i];
    const mbir::svc::Client::JobInfo& info = c.info;
    rep.ping_rtts.push_back(c.ping_s);
    j.lag_s = std::max(x.lag_s, c.late_s);
    j.latency_s = c.ended_s - schedule[i].due_s;
    j.queue_wait_s = info.queue_wait_host_s;
    j.service_s = info.service_host_s;
    window = std::max(window, c.ended_s);
    const int k = schedule[i].case_index;
    if (!first.count(k) && info.state == "done") {
      RefRun r;
      r.hash = std::strtoull(info.image_hash.c_str(), nullptr, 16);
      r.modeled_s = info.modeled_seconds;
      first[k] = r;
    }
    j.ok = checkServiceJob(info, first[k], "open-loop", rep);
    modeled += info.modeled_seconds;
    if (device_jobs) device_jobs->push_back(info.job_id);
    if (equits) *equits += info.equits;
  }
  rep.window_s = window;
  rep.modeled_device_s_per_job = modeled / double(n);
  return out;
}

}  // namespace

void runSvcOpenLoop(const Args& args, Report& rep) {
  std::unique_ptr<Setup> s =
      timedSetup<Setup>(rep, [&] { return buildSetup(args.seed); });

  if (!args.trace) {
    rep.jobs = play(*s, buildSchedule(args.seed, args.seconds), rep,
                    nullptr, nullptr);
    s->server->drainAndReport();
    return;
  }

  // Traced run: the same half-length schedule untraced, then traced.
  const std::vector<Arrival> schedule =
      buildSchedule(args.seed, args.seconds / 2);
  for (const JobRecord& j : play(*s, schedule, rep, nullptr, nullptr))
    rep.untraced_latencies.push_back(j.latency_s);
  rep.ping_rtts.clear();  // the traced half's pings are the ones reported
  rep.layer["core.host_cores_busy"] = rep.cpu_s / rep.window_s;
  rep.layer["core.busy_wall_s"] = rep.window_s;
  s->server->drainAndReport();
  s->server.reset();

  mbir::obs::ObsConfig oc;
  oc.trace = oc.metrics = true;
  s->rec = std::make_unique<mbir::obs::Recorder>(oc);
  const mbir::obs::Recorder& rec = *s->rec;
  s->server = startServer(*s->cases, s->rec.get());
  std::vector<int> ids;
  LedgerTotals ledger;
  rep.jobs = play(*s, schedule, rep, &ids, &ledger.equits);
  rep.svc_jobs = rep.jobs;
  const mbir::svc::SvcReport& report = s->server->drainAndReport();
  rep.layer["svc.admission_rejects"] = double(report.admission_rejected);
  rep.layer["svc.queue_depth_max"] = double(report.queue_depth_max);

  ledger.jobs = serviceLedgers(rec, {ids.begin(), ids.end()});
  ledger.addCounters(rec);
  addLedger(ledger, rep);
  double busy_ms = 0.0;
  for (int d = 0; d < kDevices; ++d)
    busy_ms += double(rec.metrics().counterValue(mbir::obs::labeledName(
        "sched.busy_ms", {{"device", std::to_string(d)}})));
  rep.layer["sched.device_s"] = kDevices * rep.window_s;
  rep.layer["sched.device_busy_frac"] =
      busy_ms * 1e-3 / (kDevices * rep.window_s);

  std::vector<const RefRun*> refs;
  for (const RefRun& r : s->refs) refs.push_back(&r);
  addKernelCounts(refs, rep);
  probeGeom(*s->cases, 3, 5, rep);
}

}  // namespace perfbench
