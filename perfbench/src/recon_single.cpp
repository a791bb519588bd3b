// recon_single: one caller in a closed loop of direct reconstruct() calls,
// GPU-ICD with the paper's tunables at 128^2 x 180 views x 256 channels,
// run to 10 HU against a 40-equit golden. Jobs rotate over three cases
// built during set-up, so cases repeat heavily and svc/store/shard stay
// idle.
//
// The three cases are a fixed phantom family (baggage phantoms 0..2 of a
// constant family seed); the run seed picks their scan noise and the
// rotation start. Per-case cost depends far more on the phantom than on
// the noise, so fixing the family keeps the seed-to-seed spread a
// measurement of the system rather than of the inputs.
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kCases = 3;
constexpr std::uint64_t kFamilySeed = 2026;

struct Setup {
  std::unique_ptr<CaseSet> cases;
  std::vector<RefRun> refs;  ///< the untimed warm-up run of each case
};

std::unique_ptr<Setup> buildSetup(std::uint64_t seed, Report& rep) {
  auto s = std::make_unique<Setup>();
  std::vector<CaseSpec> specs;
  for (int i = 0; i < kCases; ++i)
    specs.push_back({kFamilySeed, i, seed * 1000003ull + std::uint64_t(i)});
  s->cases = std::make_unique<CaseSet>(128, 180, 256, specs, 40.0);
  s->refs.resize(kCases);
  setupPool().parallelFor(0, kCases, [&](int i) {
    const CaseData& c = s->cases->at(i);
    s->refs[std::size_t(i)] =
        toRef(mbir::reconstruct(c.problem, c.golden, baseRunConfig()));
  });
  for (int i = 0; i < kCases; ++i)
    if (!s->refs[std::size_t(i)].converged)
      rep.fail("warm-up of case " + std::to_string(i) + " did not converge");
  return s;
}

/// Closed loop for `seconds`: each job is due when the previous returned.
/// With `ledger`, every job runs with its own trace recorder attached and
/// its spans are folded into the ledger.
void measure(const Setup& s, std::uint64_t seed, double seconds,
             Report& rep, std::vector<JobRecord>& out,
             LedgerTotals* ledger) {
  WindowMeter meter;
  const Clock::time_point start = Clock::now();
  Clock::time_point due = start;
  for (int i = 0; secondsSince(start) < seconds; ++i) {
    const int ci = int((seed + std::uint64_t(i)) % kCases);
    const CaseData& c = s.cases->at(ci);
    const RefRun& ref = s.refs[std::size_t(ci)];
    mbir::RunConfig cfg = baseRunConfig();
    std::unique_ptr<mbir::obs::Recorder> rec;
    if (ledger) {
      mbir::obs::ObsConfig oc;
      oc.trace = oc.metrics = true;
      rec = std::make_unique<mbir::obs::Recorder>(oc);
      cfg.external_recorder = rec.get();
    }
    const Clock::time_point t0 = Clock::now();
    const mbir::RunResult r = mbir::reconstruct(c.problem, c.golden, cfg);
    const Clock::time_point t1 = Clock::now();

    JobRecord j;
    j.kind = "case" + std::to_string(ci);
    j.latency_s = secondsBetween(t0, t1);
    j.lag_s = secondsBetween(due, t0);
    j.ok = r.converged && r.final_rmse_hu < 10.0 &&
           imageHash(r.image) == ref.hash && r.modeled_seconds == ref.modeled_s;
    if (!j.ok)
      rep.fail("recon_single job " + std::to_string(i) + " (case " +
               std::to_string(ci) + ") differs from its warm-up run");
    if (ledger) {
      ledger->jobs.push_back(
          ledgerFromSpans(rec->trace().snapshot(), j.latency_s));
      ledger->equits += r.equits;
      ledger->addCounters(*rec);
    }
    out.push_back(std::move(j));
    due = Clock::now();
  }
  rep.window_s = secondsSince(start);
  meter.stop(rep);
}

}  // namespace

void runReconSingle(const Args& args, Report& rep) {
  const std::unique_ptr<Setup> s =
      timedSetup<Setup>(rep, [&] { return buildSetup(args.seed, rep); });
  double modeled = 0.0;
  for (const RefRun& r : s->refs) modeled += r.modeled_s;
  rep.modeled_device_s_per_job = modeled / kCases;

  if (!args.trace) {
    measure(*s, args.seed, args.seconds, rep, rep.jobs, nullptr);
    return;
  }

  // Traced run: an untraced half (tracing-overhead base, core busy), then
  // a traced half whose spans give the ledger, then the geom probe and the
  // 1-thread repeat of every case. svc, sched, store and shard do not run.
  std::vector<JobRecord> untraced;
  measure(*s, args.seed, args.seconds / 2, rep, untraced, nullptr);
  for (const JobRecord& j : untraced) rep.untraced_latencies.push_back(j.latency_s);
  rep.layer["core.host_cores_busy"] = rep.cpu_s / rep.window_s;
  rep.layer["core.busy_wall_s"] = rep.window_s;

  LedgerTotals ledger;
  measure(*s, args.seed, args.seconds / 2, rep, rep.jobs, &ledger);
  addLedger(ledger, rep);

  std::vector<const RefRun*> refs;
  for (const RefRun& r : s->refs) refs.push_back(&r);
  addKernelCounts(refs, rep);
  probeGeom(*s->cases, kCases, 5, rep);
  probeParallel(*s->cases, s->refs, kCases, 1, rep);
}

}  // namespace perfbench
