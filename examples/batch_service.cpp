// Online reconstruction service demo: an in-process svc::Server on a
// loopback port, driven through the real wire protocol by svc::Client —
// the same path recon_server/reconctl use, in one binary so the whole
// acceptance story is reproducible with no shell plumbing.
//
// The demo walks the service's load-bearing behaviors in order:
//   1. Mixed-priority online dispatch: concurrent submissions race in over
//      2 simulated devices and the priority lane orders the backlog.
//   2. Admission control: the queue bound fills and further submits are
//      rejected explicitly (backpressure, not unbounded queueing).
//   3. Deadlines: an expired queued job is failed fast, never run.
//   4. Deterministic lane: deterministic submissions over the wire
//      reproduce the same jobs run as an offline batch (a second
//      dispatcher's deterministic lane, then drain) bit-for-bit.
//   5. Graceful drain: the svc_report/1 summary + Perfetto trace land on
//      disk with every thread joined.
//
//   ./batch_service [--size 64] [--views 96] [--channels 128]
//                   [--jobs 8] [--devices 2] [--queue-cap 4]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.h"
#include "core/hash.h"
#include "obs/obs.h"
#include "recon/case_library.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/view.h"

using namespace mbir;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("size", "image size (pixels per side)", "64");
  args.describe("views", "number of view angles", "96");
  args.describe("channels", "detector channels", "128");
  args.describe("jobs", "concurrent mixed-priority submissions", "8");
  args.describe("devices", "simulated device count", "2");
  args.describe("queue-cap", "admission queue bound", "4");
  if (args.helpRequested(
          "Online reconstruction service demo (gpumbir.svc/1 over loopback)."))
    return 0;

  SuiteConfig cfg;
  cfg.geometry.image_size = args.getInt("size", 64);
  cfg.geometry.num_views = args.getInt("views", 96);
  cfg.geometry.num_channels = args.getInt("channels", 128);
  const int num_jobs = args.getInt("jobs", 8);
  const int num_devices = args.getInt("devices", 2);
  const int queue_cap = args.getInt("queue-cap", 4);

  std::printf("Preparing case library (%dx%d, %d views)...\n",
              cfg.geometry.image_size, cfg.geometry.image_size,
              cfg.geometry.num_views);
  CaseLibrary library(cfg, /*golden_equits=*/12.0);
  svc::CaseLibraryJobSource source(library);

  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs_cfg.trace = true;
  obs::Recorder recorder(obs_cfg);

  svc::ServerOptions opt;
  opt.dispatch.num_devices = num_devices;
  opt.dispatch.queue_capacity = queue_cap;
  opt.dispatch.recorder = &recorder;
  opt.base_config.algorithm = Algorithm::kGpuIcd;
  opt.base_config.max_equits = 6.0;
  svc::Server server(opt, source);
  std::printf("Service up on 127.0.0.1:%u (%d devices, queue cap %d)\n\n",
              unsigned(server.port()), num_devices, queue_cap);

  // --- 1. Concurrent mixed-priority submissions over the wire. -----------
  std::printf("Phase 1: %d concurrent mixed-priority submissions\n",
              num_jobs);
  std::vector<int> accepted_ids;
  {
    std::vector<std::thread> submitters;
    std::vector<svc::Client::SubmitResult> outcomes(
        static_cast<std::size_t>(num_jobs));
    for (int i = 0; i < num_jobs; ++i) {
      submitters.emplace_back([&, i] {
        svc::Client client(server.port());
        svc::SubmitParams p;
        p.case_index = i % 4;
        p.priority = i % 3;  // mixed priorities
        p.name = "wave" + std::to_string(i);
        outcomes[std::size_t(i)] = client.submit(p);
      });
    }
    for (std::thread& t : submitters) t.join();
    int rejected = 0;
    for (const auto& o : outcomes)
      if (o.accepted)
        accepted_ids.push_back(o.job_id);
      else
        ++rejected;
    std::printf("  accepted %zu, rejected %d (queue cap %d + %d devices "
                "absorb the burst)\n",
                accepted_ids.size(), rejected, queue_cap, num_devices);
  }

  svc::Client client(server.port());
  for (int id : accepted_ids) {
    const svc::Client::JobInfo info = client.result(id);
    std::printf("  job %d [%s] on device %d: RMSE %.1f HU, %.1f equits\n",
                info.job_id, info.state.c_str(), info.device,
                info.final_rmse_hu, info.equits);
  }

  // --- 2. Admission overflow: flood an idle-but-small queue. -------------
  std::printf("\nPhase 2: admission control at queue cap %d\n", queue_cap);
  {
    int accepted = 0, rejected = 0;
    std::vector<int> flood_ids;
    for (int i = 0; i < queue_cap + num_devices + 4; ++i) {
      svc::SubmitParams p;
      p.case_index = 0;
      p.name = "flood" + std::to_string(i);
      const auto o = client.submit(p);
      if (o.accepted) {
        ++accepted;
        flood_ids.push_back(o.job_id);
      } else {
        ++rejected;
        std::printf("  rejected: %s\n", o.error.c_str());
        break;  // one observed rejection is the point
      }
    }
    std::printf("  accepted %d before backpressure\n", accepted);
    for (int id : flood_ids) client.result(id);  // let the flood finish
  }

  // --- 3. Deadline fail-fast. --------------------------------------------
  std::printf("\nPhase 3: deadline expiry\n");
  {
    // A 0 ms deadline job behind a real one: expired at dispatch, never run.
    svc::SubmitParams blocker;
    blocker.case_index = 0;
    blocker.name = "blocker";
    std::vector<int> blocker_ids;
    for (int d = 0; d < num_devices; ++d)
      blocker_ids.push_back(client.submit(blocker).job_id);
    svc::SubmitParams late;
    late.case_index = 1;
    late.deadline_ms = 0.0;
    late.name = "late";
    const int late_id = client.submit(late).job_id;
    for (int id : blocker_ids) client.result(id);
    const svc::Client::JobInfo info = client.result(late_id);
    std::printf("  job '%s' -> %s (service time %.3f s)\n",
                info.name.c_str(), info.state.c_str(), info.service_host_s);
  }

  // --- 4. Deterministic lane online vs as an offline batch. -------------
  std::printf("\nPhase 4: online deterministic lane == offline batch\n");
  {
    const int det_jobs = 4;
    std::vector<int> det_ids;
    for (int i = 0; i < det_jobs; ++i) {
      svc::SubmitParams p;
      p.case_index = i;
      p.deterministic = true;
      p.name = "det" + std::to_string(i);
      det_ids.push_back(client.submit(p).job_id);
    }
    std::vector<std::string> svc_hashes;
    for (int id : det_ids)
      svc_hashes.push_back(client.result(id).image_hash);

    svc::DispatcherOptions doff;
    doff.num_devices = num_devices;
    doff.queue_capacity = det_jobs;
    svc::Dispatcher offline(doff);
    for (int i = 0; i < det_jobs; ++i) {
      const CaseLibrary::Case c = library.get(i);
      svc::SubmitParams p;
      p.case_index = i;
      svc::JobSpec spec;
      spec.problem = &c.problem;
      spec.golden = &c.golden;
      spec.config = svc::makeRunConfig(opt.base_config, p);
      spec.deterministic = true;
      offline.submit(spec);
    }
    offline.drain();
    bool all_match = true;
    for (int i = 0; i < det_jobs; ++i) {
      const std::string off_hash =
          hashToHex(fnv1a64(offline.result(i).run.image.flat()));
      const bool match = off_hash == svc_hashes[std::size_t(i)];
      all_match = all_match && match;
      std::printf("  det job %d: svc %s, offline %s%s\n", i,
                  svc_hashes[std::size_t(i)].c_str(), off_hash.c_str(),
                  match ? "" : "  <-- MISMATCH");
    }
    if (!all_match) {
      std::fprintf(stderr, "deterministic lane diverged from the batch\n");
      return 1;
    }
    std::printf("  bit-identical across the online/offline split\n");
  }

  // --- 5. Graceful drain + artifacts. ------------------------------------
  std::printf("\nPhase 5: drain\n");
  client.drain();
  const svc::SvcReport& rep = server.dispatcher().drain();  // cached report
  svc::writeReportJson("svc_report.json", rep, &recorder);
  recorder.trace().writeFile("svc_trace.json");
  server.stop();
  std::printf("  %llu submitted / %llu rejected; %llu done, %llu "
              "deadline-missed; makespan %.3f modeled s\n",
              (unsigned long long)rep.jobs_submitted,
              (unsigned long long)rep.admission_rejected,
              (unsigned long long)rep.jobs_done,
              (unsigned long long)rep.jobs_deadline_missed,
              rep.makespan_modeled_s);
  std::printf("\nWrote svc_report.json (schema gpumbir.svc_report/1) and "
              "svc_trace.json\n(open at ui.perfetto.dev — one process per "
              "device).\n");
  return rep.jobs_failed == 0 ? 0 : 1;
}
