// Online reconstruction server: hosts the gpumbir.svc/1 service on
// 127.0.0.1, dispatching submitted jobs across simulated devices until a
// client issues `drain` or the process receives SIGINT/SIGTERM. Either way
// it exits cleanly: stop admission, run the queue dry, write the
// gpumbir.svc_report/1 report (and optionally the Perfetto trace), join
// every thread, exit 0.
//
//   ./recon_server [--port 0] [--devices 2] [--queue-cap 16]
//                  [--size 64] [--views 96] [--channels 128]
//                  [--golden-equits 12] [--max-equits 10] [--sv-side 0]
//                  [--port-file PATH] [--report svc_report.json]
//                  [--trace PATH] [--flight-dir DIR]
//                  [--wal-dir DIR] [--cache-dir DIR] [--cache-capacity 64]
//                  [--tenant-weights alice=4,bob=1] [--default-weight 1]
//                  [--chaos-seed N --chaos-stall-rate 0.05 ...
//                   --chaos-devices 1,3] [--watchdog-ms 1000]
//
// --wal-dir enables the durable job log (DESIGN.md §14): submits are acked
// only once on disk, and a restart pointed at the same directory re-runs
// every admitted-but-unfinished job. --cache-dir enables the
// content-addressed result cache (exact hits served without dispatching,
// near-duplicates warm-started). --tenant-weights drives weighted-fair
// dispatch on the priority lane.
//
// The --chaos-* flags install a seed-driven fault plan (DESIGN.md §12) at
// startup; any --chaos-* flag arms the heartbeat watchdog (default 1000 ms,
// override with --watchdog-ms). The same plan can be installed or changed
// at runtime via `reconctl chaos`.
//
// With --flight-dir the always-on flight recorder writes a
// gpumbir.flight/1 dump there whenever a job fails, misses its deadline or
// is cancelled, and `kill -USR1 <pid>` dumps it on demand. Without
// --flight-dir nothing is written automatically, but the recorder stays
// reachable over the wire via `reconctl flight`.
//
// Drive it with ./reconctl (see --help there), e.g.
//   ./recon_server --port-file /tmp/port &
//   ./reconctl submit --port-file /tmp/port --case 0 --priority 5 --wait
//   ./reconctl drain --port-file /tmp/port
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "core/cli.h"
#include "core/signal.h"
#include "obs/obs.h"
#include "store/cache.h"
#include "store/wal.h"
#include "svc/server.h"
#include "svc/view.h"

using namespace mbir;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("port", "TCP port on 127.0.0.1 (0 = kernel-assigned)", "0");
  args.describe("devices", "simulated device count", "2");
  args.describe("queue-cap", "admission queue bound (jobs)", "16");
  args.describe("size", "image size of served cases (pixels per side)", "64");
  args.describe("views", "view angles of served cases", "96");
  args.describe("channels", "detector channels of served cases", "128");
  args.describe("golden-equits", "equits for cached golden references", "12");
  args.describe("max-equits", "default per-job equit budget", "10");
  args.describe("sv-side", "default SV side for gpu/psv jobs (0 = builtin)",
                "0");
  args.describe("port-file", "write the bound port number to this file", "");
  args.describe("report", "write gpumbir.svc_report/1 here on exit",
                "svc_report.json");
  args.describe("trace", "write a Perfetto trace here on exit", "");
  args.describe("flight-dir",
                "write gpumbir.flight/1 dumps here (job failures, SIGUSR1)",
                "");
  args.describe("wal-dir",
                "durable job log directory (empty = no WAL; restarts with "
                "the same dir recover unfinished jobs)",
                "");
  args.describe("cache-dir",
                "content-addressed result cache directory (empty = no cache)",
                "");
  args.describe("cache-capacity", "result cache bound (entries)", "64");
  args.describe("tenant-weights",
                "weighted-fair shares, e.g. alice=4,bob=1 ('default' names "
                "the no-tenant bucket)",
                "");
  args.describe("default-weight", "share for tenants not listed above", "1");
  args.describe("chaos-seed", "fault-plan seed (with any chaos rate)", "0");
  args.describe("chaos-launch-rate", "per-job corrupted-launch rate", "0");
  args.describe("chaos-stall-rate", "per-job device-stall rate", "0");
  args.describe("chaos-death-rate", "per-job device-death rate", "0");
  args.describe("chaos-devices",
                "devices stall/death may hit, comma-separated (empty = all)",
                "");
  args.describe("watchdog-ms",
                "heartbeat watchdog limit (0 = disarmed unless chaos flags "
                "are given)",
                "0");
  if (args.helpRequested("Online reconstruction service (gpumbir.svc/1)."))
    return 0;

  // The signal handlers must be installed before any worker thread exists
  // so every thread inherits the disposition.
  ShutdownSignal& shutdown = ShutdownSignal::instance();
  Usr1Signal& usr1 = Usr1Signal::instance();

  SuiteConfig suite_cfg;
  suite_cfg.geometry.image_size = args.getInt("size", 64);
  suite_cfg.geometry.num_views = args.getInt("views", 96);
  suite_cfg.geometry.num_channels = args.getInt("channels", 128);
  CaseLibrary library(suite_cfg, args.getDouble("golden-equits", 12.0));
  svc::CaseLibraryJobSource source(library);

  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs_cfg.trace = !args.getString("trace", "").empty();
  obs::Recorder recorder(obs_cfg);

  svc::ServerOptions opt;
  opt.port = std::uint16_t(args.getInt("port", 0));
  opt.dispatch.num_devices = args.getInt("devices", 2);
  opt.dispatch.queue_capacity = args.getInt("queue-cap", 16);
  opt.dispatch.recorder = &recorder;
  const std::string flight_dir = args.getString("flight-dir", "");
  opt.dispatch.flight_dir = flight_dir;
  chaos::FaultPlan plan;
  plan.seed = std::uint64_t(args.getInt("chaos-seed", 0));
  plan.launch_fault_rate = args.getDouble("chaos-launch-rate", 0.0);
  plan.stall_rate = args.getDouble("chaos-stall-rate", 0.0);
  plan.death_rate = args.getDouble("chaos-death-rate", 0.0);
  const std::string chaos_devices = args.getString("chaos-devices", "");
  for (std::size_t i = 0; i < chaos_devices.size();) {
    const std::size_t comma = chaos_devices.find(',', i);
    const std::string tok = chaos_devices.substr(
        i, comma == std::string::npos ? comma : comma - i);
    if (!tok.empty()) plan.target_devices.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    i = comma + 1;
  }
  opt.dispatch.fault_plan = plan;
  // Weighted-fair shares: "name=weight,name=weight" ("default" = the
  // no-tenant bucket).
  const std::string weights_arg = args.getString("tenant-weights", "");
  for (std::size_t i = 0; i < weights_arg.size();) {
    const std::size_t comma = weights_arg.find(',', i);
    const std::string tok = weights_arg.substr(
        i, comma == std::string::npos ? comma : comma - i);
    if (!tok.empty()) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "recon_server: bad --tenant-weights token '%s' "
                     "(want name=weight)\n", tok.c_str());
        return 2;
      }
      opt.dispatch.tenant_weights[tok.substr(0, eq)] =
          std::stod(tok.substr(eq + 1));
    }
    if (comma == std::string::npos) break;
    i = comma + 1;
  }
  opt.dispatch.default_tenant_weight = args.getDouble("default-weight", 1.0);
  // Any chaos flag arms the watchdog: a plan without one could park a
  // stalled device forever.
  double watchdog_ms = args.getDouble("watchdog-ms", 0.0);
  if (plan.enabled() && watchdog_ms <= 0.0) watchdog_ms = 1000.0;
  opt.dispatch.watchdog_ms = watchdog_ms;
  opt.base_config.algorithm = Algorithm::kGpuIcd;
  opt.base_config.max_equits = args.getDouble("max-equits", 10.0);
  const int sv_side = args.getInt("sv-side", 0);
  if (sv_side > 0) {
    opt.base_config.gpu.tunables.sv.sv_side = sv_side;
    opt.base_config.psv.sv.sv_side = sv_side;
  }

  obs::MetricsRegistry* metrics = obs_cfg.metrics ? &recorder.metrics() : nullptr;
  std::optional<store::JobLog> wal;
  const std::string wal_dir = args.getString("wal-dir", "");
  if (!wal_dir.empty()) {
    wal.emplace(wal_dir, metrics);
    opt.wal = &*wal;
  }
  std::optional<store::ResultCache> cache;
  const std::string cache_dir = args.getString("cache-dir", "");
  if (!cache_dir.empty()) {
    cache.emplace(cache_dir, std::size_t(args.getInt("cache-capacity", 64)),
                  metrics);
    opt.cache = &*cache;
  }

  svc::Server server(opt, source);
  std::printf("recon_server: listening on 127.0.0.1:%u (%d devices, queue "
              "cap %d)\n",
              unsigned(server.port()), opt.dispatch.num_devices,
              opt.dispatch.queue_capacity);
  if (wal)
    std::printf("recon_server: WAL %s: replayed %llu records, recovered %zu "
                "pending job(s)\n",
                wal->path().c_str(),
                (unsigned long long)wal->replayStats().records,
                wal->pending().size());
  if (cache)
    std::printf("recon_server: result cache %s: %zu entr%s loaded (cap %zu)\n",
                cache->dir().c_str(), cache->size(),
                cache->size() == 1 ? "y" : "ies", cache->capacity());
  if (plan.enabled())
    std::printf("recon_server: chaos armed, seed %llu (launch %.3f / stall "
                "%.3f / death %.3f), watchdog %.0f ms\n",
                (unsigned long long)plan.seed, plan.launch_fault_rate,
                plan.stall_rate, plan.death_rate, watchdog_ms);
  std::fflush(stdout);

  const std::string port_file = args.getString("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << '\n';
  }

  // Serve until a client drains us or the OS asks us to go. SIGUSR1 is an
  // operator's "dump the flight recorder" — consumed here, never fatal.
  std::uint64_t usr1_dumps = 0;
  while (!server.drainRequested() &&
         !shutdown.waitFor(std::chrono::milliseconds(200))) {
    while (usr1.consume()) {
      const std::string path =
          (flight_dir.empty() ? std::string(".") : flight_dir) +
          "/flight_sigusr1_" + std::to_string(++usr1_dumps) + ".json";
      server.dispatcher().flightRecorder().writeFile(path, "SIGUSR1");
      std::printf("recon_server: SIGUSR1, wrote %s\n", path.c_str());
      std::fflush(stdout);
    }
  }
  if (shutdown.requested() && !server.drainRequested())
    std::printf("recon_server: signal %d, draining...\n",
                shutdown.signalNumber());

  const svc::SvcReport& rep = server.drainAndReport();
  const std::string report_path = args.getString("report", "svc_report.json");
  if (!report_path.empty()) svc::writeReportJson(report_path, rep, &recorder);
  const std::string trace_path = args.getString("trace", "");
  if (!trace_path.empty()) recorder.trace().writeFile(trace_path);
  server.stop();

  std::printf("recon_server: drained. %llu submitted / %llu rejected; "
              "%llu done, %llu cancelled, %llu failed, %llu deadline-missed "
              "(%.2f jobs/s over %.1f s)\n",
              (unsigned long long)rep.jobs_submitted,
              (unsigned long long)rep.admission_rejected,
              (unsigned long long)rep.jobs_done,
              (unsigned long long)rep.jobs_cancelled,
              (unsigned long long)rep.jobs_failed,
              (unsigned long long)rep.jobs_deadline_missed,
              rep.jobs_per_host_second, rep.host_seconds);
  if (rep.devices_failed > 0 || rep.jobs_migrated > 0)
    std::printf("recon_server: chaos: %llu devices failed, %llu jobs "
                "migrated\n",
                (unsigned long long)rep.devices_failed,
                (unsigned long long)rep.jobs_migrated);
  if (rep.cache_hits > 0 || rep.warm_starts > 0 || rep.jobs_recovered > 0)
    std::printf("recon_server: store: %llu cache hit(s), %llu warm start(s), "
                "%llu recovered job(s)\n",
                (unsigned long long)rep.cache_hits,
                (unsigned long long)rep.warm_starts,
                (unsigned long long)rep.jobs_recovered);
  if (!report_path.empty())
    std::printf("recon_server: wrote %s\n", report_path.c_str());
  return rep.jobs_failed == 0 ? 0 : 1;
}
