// Batch reconstruction throughput over the multi-device dispatcher.
//
// Reconstructs a suite of independent cases as one offline batch — every
// job on the svc::Dispatcher's deterministic lane, then drain() — at 1, 2,
// ... --max-devices simulated devices and reports, per device count:
// real host throughput (jobs/host-second), modeled device-seconds per job,
// modeled makespan (batch completion on the simulated hardware) and its
// speedup over one device, and the modeled queue-wait distribution. The
// container this repo is usually verified on has one core, so the *modeled*
// columns are the meaningful scaling signal; host numbers track simulator
// cost. Also asserts the lane's determinism contract: every device
// count must produce bit-identical images to the single-device run
// (exit code 1 otherwise).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/hash.h"
#include "core/timer.h"
#include "svc/dispatcher.h"

using namespace mbir;
using namespace mbir::bench;

namespace {

// FNV-1a over the raw float bits: equal hash <=> bit-identical image.
std::uint64_t imageHash(const Image2D& img) { return fnv1a64(img.flat()); }

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("max-devices", "largest simulated device count swept", "4");
  args.describe("race-check",
                "1 = device-semantics race checking on every launch "
                "(fatal on diagnosis); for overhead A/B runs", "0");
  auto ctx = BenchContext::fromCli(
      args, "Batch throughput: a job suite across 1..D simulated devices.", 8);
  if (!ctx) return 0;
  const int max_devices = args.getInt("max-devices", 4);
  const bool race_check = args.getInt("race-check", 0) != 0;

  // Build the job set once: one GPU-ICD reconstruction per suite case, at
  // the paper's Table-1 tunables. Problems/goldens are borrowed by every
  // batch, so keep them alive for the whole sweep.
  std::vector<OwnedProblem> problems;
  std::vector<Image2D> goldens;
  problems.reserve(std::size_t(ctx->num_cases));
  goldens.reserve(std::size_t(ctx->num_cases));
  for (int i = 0; i < ctx->num_cases; ++i) {
    problems.push_back(ctx->makeCase(i));
    goldens.push_back(computeGolden(problems.back(), ctx->golden_equits));
  }
  RunConfig job_cfg;
  job_cfg.algorithm = Algorithm::kGpuIcd;
  job_cfg.gpu.tunables = paperTunables();
  job_cfg.gpu.race_check = {.enabled = race_check, .throw_on_race = race_check};
  if (race_check) std::printf("[bench] race checking ON (fatal)\n");

  AsciiTable t({"devices", "jobs", "host wall (s)", "jobs/host-s",
                "modeled s/job", "modeled makespan (s)", "makespan speedup",
                "queue wait mean/max (s)"});
  std::vector<std::pair<std::string, double>> numbers;
  std::vector<std::uint64_t> baseline_hashes;
  double makespan_d1 = 0.0;
  bool deterministic = true;

  WallTimer wall;
  for (int devices = 1; devices <= max_devices; devices *= 2) {
    svc::DispatcherOptions opt;
    opt.num_devices = devices;
    opt.queue_capacity = ctx->num_cases;
    svc::Dispatcher dispatcher(opt);
    for (int i = 0; i < ctx->num_cases; ++i) {
      svc::JobSpec spec;
      spec.problem = &problems[std::size_t(i)];
      spec.golden = &goldens[std::size_t(i)];
      spec.config = job_cfg;
      spec.name = "case" + std::to_string(i);
      spec.deterministic = true;
      dispatcher.submit(spec);
    }
    const svc::SvcReport& rep = dispatcher.drain();
    const int jobs = int(rep.jobs_submitted);
    const double modeled_per_job =
        jobs > 0 ? rep.modeled_device_seconds_total / jobs : 0.0;
    double wait_mean = 0.0, wait_max = 0.0;
    for (int i = 0; i < jobs; ++i) {
      const svc::JobResult& r = dispatcher.result(i);
      wait_mean += r.queue_wait_modeled_s / jobs;
      wait_max = std::max(wait_max, r.queue_wait_modeled_s);
      const std::uint64_t h = imageHash(r.run.image);
      if (devices == 1) {
        baseline_hashes.push_back(h);
      } else if (h != baseline_hashes[std::size_t(i)]) {
        deterministic = false;
        std::printf("[bench] DETERMINISM VIOLATION: job %d differs at %d "
                    "devices\n", i, devices);
      }
    }
    if (devices == 1) makespan_d1 = rep.makespan_modeled_s;

    t.addRow({std::to_string(devices), std::to_string(jobs),
              AsciiTable::fmt(rep.host_seconds, 2),
              AsciiTable::fmt(rep.jobs_per_host_second, 2),
              AsciiTable::fmt(modeled_per_job, 4),
              AsciiTable::fmt(rep.makespan_modeled_s, 4),
              AsciiTable::fmt(makespan_d1 / rep.makespan_modeled_s, 2),
              AsciiTable::fmt(wait_mean, 4) + " / " +
                  AsciiTable::fmt(wait_max, 4)});
    const std::string prefix = "d" + std::to_string(devices) + "_";
    numbers.emplace_back(prefix + "jobs_per_host_second",
                         rep.jobs_per_host_second);
    numbers.emplace_back(prefix + "modeled_device_seconds_per_job",
                         modeled_per_job);
    numbers.emplace_back(prefix + "makespan_modeled_s", rep.makespan_modeled_s);
    numbers.emplace_back(prefix + "queue_wait_mean_s", wait_mean);
    std::printf("[bench] %d device(s): %d jobs, makespan %.4fs modeled, "
                "%.2f jobs/host-s\n",
                devices, jobs, rep.makespan_modeled_s,
                rep.jobs_per_host_second);
  }
  numbers.emplace_back("deterministic_across_device_counts",
                       deterministic ? 1.0 : 0.0);

  emit(t, "throughput_batch", wall.seconds(), ctx.get(), numbers);
  if (!deterministic) {
    std::printf("FAILED: results not bit-identical across device counts\n");
    return 1;
  }
  return 0;
}
