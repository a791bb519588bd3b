// Online service throughput: open-loop job submission against a live
// svc::Server over loopback, swept across 1, 2, ... --max-devices simulated
// devices. Unlike throughput_batch (same jobs as an in-process offline
// batch on the deterministic lane), every job here crosses the wire
// protocol and the admission queue, so the measured numbers include the
// service's real control-plane costs: framing, admission, priority
// dispatch, status snapshots.
//
// Open loop: a submitter thread pushes jobs at the service as fast as
// admission allows (rejections back off briefly and retry — the queue bound
// is part of the system under test), with mixed priorities. Per device
// count the bench reports accepted jobs/host-second plus the p50/p99
// queue-wait and end-to-end latency distributions from the drain report,
// and p50/p95/p99 e2e latency from the service's own svc.job.e2e_host_s
// histogram (a fresh metrics recorder per sweep) — the same quantile path
// the live `stats` verb serves, so the bench exercises and gates it.
//
// Emits BENCH_throughput_service.json (schema gpumbir.bench/1).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/signal.h"
#include "core/timer.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "recon/case_library.h"
#include "svc/client.h"
#include "svc/server.h"

using namespace mbir;
using namespace mbir::bench;

namespace {

/// Process CPU seconds (user + system, all threads) so each sweep can
/// report utilization = cpu / wall; > 1.0 means the pool kept multiple
/// cores busy.
double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("max-devices", "largest simulated device count swept", "4");
  args.describe("jobs", "jobs submitted per device count", "12");
  args.describe("queue-cap", "admission queue bound", "4");
  auto ctx = BenchContext::fromCli(
      args, "Online service throughput across 1..D simulated devices.", 4);
  if (!ctx) return 0;
  const int max_devices = args.getInt("max-devices", 4);
  const int jobs_per_sweep = args.getInt("jobs", 12);
  const int queue_cap = args.getInt("queue-cap", 4);

  // Ctrl-C between sweeps exits cleanly with whatever was measured.
  ShutdownSignal& shutdown = ShutdownSignal::instance();

  CaseLibrary library(ctx->cfg, ctx->golden_equits);
  svc::CaseLibraryJobSource source(library);
  // Pre-build the cases so library construction cost stays out of the
  // measured window (the server would otherwise build lazily mid-sweep).
  for (int i = 0; i < ctx->num_cases; ++i) library.get(i);

  AsciiTable t({"devices", "jobs", "rejects", "host wall (s)", "jobs/host-s",
                "cpu util", "queue wait p50/p99 (s)", "e2e p50/p99 (s)",
                "modeled makespan (s)"});
  std::vector<std::pair<std::string, double>> numbers;

  WallTimer wall;
  for (int devices = 1; devices <= max_devices && !shutdown.requested();
       devices *= 2) {
    // Fresh per-sweep recorder: each device count gets its own histogram
    // state, so the quantiles below aren't polluted by earlier sweeps.
    obs::ObsConfig obs_cfg;
    obs_cfg.metrics = true;
    obs::Recorder recorder(obs_cfg);

    svc::ServerOptions opt;
    opt.dispatch.num_devices = devices;
    opt.dispatch.queue_capacity = queue_cap;
    opt.dispatch.recorder = &recorder;
    opt.base_config.algorithm = Algorithm::kGpuIcd;
    opt.base_config.gpu.tunables = paperTunables();
    opt.base_config.max_equits = 6.0;
    svc::Server server(opt, source);
    svc::Client client(server.port());

    // Open-loop submission: push until `jobs_per_sweep` jobs are admitted,
    // backing off briefly on admission rejects.
    std::uint64_t rejects = 0;
    std::vector<int> ids;
    const double sweep_cpu0 = processCpuSeconds();
    const WallTimer sweep_wall;
    for (int i = 0; int(ids.size()) < jobs_per_sweep; ++i) {
      svc::SubmitParams p;
      p.case_index = int(ids.size()) % ctx->num_cases;
      p.priority = i % 3;
      p.name = "bench" + std::to_string(i);
      const auto out = client.submit(p);
      if (out.accepted) {
        ids.push_back(out.job_id);
      } else {
        ++rejects;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    for (int id : ids) client.result(id);  // wait out the backlog
    const double host_s = sweep_wall.seconds();
    const double cpu_s = processCpuSeconds() - sweep_cpu0;
    const double cpu_util = host_s > 0.0 ? cpu_s / host_s : 0.0;

    const svc::SvcReport& rep = server.drainAndReport();
    server.stop();

    // The service's own latency histogram (what `reconctl stats` serves
    // live): estimated quantiles from the log-linear buckets, vs the exact
    // order statistics in the drain report above.
    const obs::Histogram::Snapshot e2e_hist =
        recorder.metrics().histogramSnapshot("svc.job.e2e_host_s");

    const double jobs_per_s = host_s > 0.0 ? jobs_per_sweep / host_s : 0.0;
    t.addRow({std::to_string(devices), std::to_string(jobs_per_sweep),
              std::to_string(rejects), AsciiTable::fmt(host_s, 2),
              AsciiTable::fmt(jobs_per_s, 2), AsciiTable::fmt(cpu_util, 2),
              AsciiTable::fmt(rep.queue_wait_host_s.p50, 4) + " / " +
                  AsciiTable::fmt(rep.queue_wait_host_s.p99, 4),
              AsciiTable::fmt(rep.e2e_host_s.p50, 4) + " / " +
                  AsciiTable::fmt(rep.e2e_host_s.p99, 4),
              AsciiTable::fmt(rep.makespan_modeled_s, 4)});
    const std::string prefix = "d" + std::to_string(devices) + "_";
    numbers.emplace_back(prefix + "jobs_per_host_second", jobs_per_s);
    numbers.emplace_back(prefix + "admission_rejects", double(rejects));
    numbers.emplace_back(prefix + "host_cpu_seconds", cpu_s);
    numbers.emplace_back(prefix + "host_cpu_utilization", cpu_util);
    numbers.emplace_back(prefix + "queue_wait_p50_s",
                         rep.queue_wait_host_s.p50);
    numbers.emplace_back(prefix + "queue_wait_p99_s",
                         rep.queue_wait_host_s.p99);
    numbers.emplace_back(prefix + "e2e_p50_s", rep.e2e_host_s.p50);
    numbers.emplace_back(prefix + "e2e_p95_s", rep.e2e_host_s.p95);
    numbers.emplace_back(prefix + "e2e_p99_s", rep.e2e_host_s.p99);
    numbers.emplace_back(prefix + "e2e_hist_p50_s", e2e_hist.quantile(0.50));
    numbers.emplace_back(prefix + "e2e_hist_p95_s", e2e_hist.quantile(0.95));
    numbers.emplace_back(prefix + "e2e_hist_p99_s", e2e_hist.quantile(0.99));
    numbers.emplace_back(prefix + "makespan_modeled_s",
                         rep.makespan_modeled_s);
    std::printf("[bench] %d device(s): %d jobs (%llu rejects), "
                "%.2f jobs/host-s, cpu util %.2f, e2e p99 %.4fs\n",
                devices, jobs_per_sweep, (unsigned long long)rejects,
                jobs_per_s, cpu_util, rep.e2e_host_s.p99);
  }

  emit(t, "throughput_service", wall.seconds(), ctx.get(), numbers);
  return 0;
}
