#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/error.h"
#include "core/hash.h"
#include "core/simd.h"
#include "phantom/baggage.h"
#include "scan/scanner.h"
#include "store/wal.h"

namespace perfbench {

namespace {

double tvSeconds(const timeval& t) {
  return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
}

int hostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return int(std::thread::hardware_concurrency());
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void writeRecords(mbir::obs::JsonWriter& w, const char* key,
                  const std::vector<JobRecord>& jobs) {
  w.key(key).beginArray();
  for (const JobRecord& j : jobs) {
    w.beginObject();
    w.kv("kind", j.kind);
    w.kv("on_device", j.on_device);
    w.kv("ok", j.ok);
    w.kv("latency_s", j.latency_s);
    w.kv("lag_s", j.lag_s);
    if (j.submit_rtt_s >= 0) w.kv("submit_rtt_s", j.submit_rtt_s);
    if (j.queue_wait_s >= 0) w.kv("queue_wait_s", j.queue_wait_s);
    if (j.service_s >= 0) w.kv("service_s", j.service_s);
    if (!j.tenant.empty()) w.kv("tenant", j.tenant);
    w.endObject();
  }
  w.endArray();
}

void writeNumbers(mbir::obs::JsonWriter& w, const char* key,
                  const std::vector<double>& v) {
  w.key(key).beginArray();
  for (double x : v) w.value(x);
  w.endArray();
}

template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return secondsSince(t0);
}

}  // namespace

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tvSeconds(ru.ru_utime) + tvSeconds(ru.ru_stime);
}

namespace {

/// (steal, total) CPU ticks of the machine from /proc/stat; zeros when
/// unavailable.
std::pair<double, double> cpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

}  // namespace

WindowMeter::WindowMeter() : cpu0_(processCpuSeconds()) {
  std::tie(steal0_, total0_) = cpuTicks();
  sampler_ = std::thread([this] {
    while (!stop_.load()) {
      const struct mallinfo2 mi = ::mallinfo2();
      heap_mb_.push_back(double(mi.uordblks + mi.hblkhd) / (1 << 20));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

void WindowMeter::join() {
  stop_ = true;
  if (sampler_.joinable()) sampler_.join();
}

void WindowMeter::stop(Report& rep) {
  join();
  rep.cpu_s = processCpuSeconds() - cpu0_;
  rep.heap_mb = median(heap_mb_);
  const auto [steal, total] = cpuTicks();
  rep.steal_frac = total > total0_ ? (steal - steal0_) / (total - total0_) : -1.0;
}

mbir::ThreadPool& setupPool() {
  static mbir::ThreadPool pool{unsigned(hostCores())};
  return pool;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

mbir::RunConfig baseRunConfig() {
  mbir::RunConfig c;
  c.algorithm = mbir::Algorithm::kGpuIcd;
  mbir::GpuTunables& t = c.gpu.tunables;
  t.sv.sv_side = 33;
  t.chunk_width = 32;
  t.threadblocks_per_sv = 40;
  t.threads_per_block = 256;
  t.svs_per_batch = 32;
  t.sv_fraction = 0.25;
  c.stop_rmse_hu = 10.0;
  return c;
}

mbir::shard::ShardConfig gangConfig(int image_size,
                                    const mbir::RunConfig& base) {
  mbir::shard::ShardConfig sc;
  sc.plan = mbir::shard::makeShardPlan(image_size, /*num_slabs=*/2,
                                       /*halo=*/1, base.gpu.seed);
  sc.devices = 2;
  sc.base = base;
  return sc;
}

std::uint64_t imageHash(const mbir::Image2D& image) {
  return mbir::fnv1a64(image.flat());
}

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

CaseSet::CaseSet(int image_size, int views, int channels,
                 const std::vector<CaseSpec>& specs, double golden_equits) {
  mbir::SuiteConfig cfg;
  cfg.geometry.image_size = image_size;
  cfg.geometry.num_views = views;
  cfg.geometry.num_channels = channels;
  suite_ = std::make_unique<mbir::Suite>(cfg);
  const mbir::SuiteConfig& sc = suite_->config();  // baggage radius fitted
  cases_.resize(specs.size());
  setupPool().parallelFor(0, int(specs.size()), [&](int i) {
    const CaseSpec& s = specs[std::size_t(i)];
    const mbir::EllipsePhantom phantom =
        mbir::makeBaggagePhantom(s.phantom_seed, s.phantom_index, sc.baggage);
    mbir::OwnedProblem problem(
        suite_->matrixPtr(),
        mbir::simulateScan(phantom, sc.geometry, sc.noise, s.noise_seed),
        sc.prior);
    mbir::Image2D golden = mbir::computeGolden(problem, golden_equits);
    cases_[std::size_t(i)] =
        std::make_unique<CaseData>(CaseData{std::move(problem), std::move(golden)});
  });
}

mbir::svc::JobSource::Case CaseSet::get(int case_index) {
  if (case_index < 0 || case_index >= size())
    throw mbir::Error("no case " + std::to_string(case_index));
  const CaseData& c = at(case_index);
  return {c.problem, c.golden};
}

RefRun toRef(const mbir::RunResult& r) {
  RefRun ref;
  ref.hash = imageHash(r.image);
  ref.modeled_s = r.modeled_seconds;
  ref.equits = r.equits;
  ref.converged = r.converged;
  ref.image = std::make_shared<const mbir::Image2D>(r.image);
  if (r.gpu_stats) ref.per_kernel = r.gpu_stats->per_kernel;
  return ref;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::fail(const std::string& why) {
  std::lock_guard lock(mu_);
  std::fprintf(stderr, "mbirbench: FAILED CHECK: %s\n", why.c_str());
  failures_.push_back(why);
}

bool Report::correct() const {
  std::lock_guard lock(mu_);
  return failures_.empty();
}

std::string Report::json() const {
  mbir::obs::JsonWriter w;
  w.beginObject();
  w.kv("workload", args_.workload);
  w.kv("seed", args_.seed);
  w.kv("trace", args_.trace);
  w.key("host").beginObject();
  w.kv("nproc", hostCores());
  w.kv("cpu_model", cpuModel());
  w.kv("simd", mbir::resolveSimdOps(mbir::SimdMode::kDefault).name);
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("compiler", PERFBENCH_COMPILER);
  w.endObject();
  w.kv("correct", correct());
  w.key("failures").beginArray();
  for (const std::string& f : failures_) w.value(f);
  w.endArray();
  writeNumbers(w, "setup_s", setup_s);
  w.kv("window_s", window_s);
  w.kv("cpu_s", cpu_s);
  w.kv("heap_mb", heap_mb);
  w.kv("steal_frac", steal_frac);
  w.kv("modeled_device_s_per_job", modeled_device_s_per_job);
  writeRecords(w, "jobs", jobs);
  if (args_.trace) {
    writeRecords(w, "svc_jobs", svc_jobs);
    writeNumbers(w, "ping_rtts", ping_rtts);
    writeNumbers(w, "hit_rtts", hit_rtts);
    writeNumbers(w, "untraced_latencies", untraced_latencies);
    w.key("layer").beginObject();
    for (const auto& [k, v] : layer) w.kv(k, v);
    w.endObject();
  }
  w.endObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------------------

double JobLedger::launches() const {
  double s = 0.0;
  for (const auto& [k, v] : launch) s += v;
  return s;
}

JobLedger ledgerFromSpans(const std::vector<mbir::obs::TraceEvent>& events,
                          double total_s) {
  static const std::string kLaunch = "gsim.launch.";
  JobLedger j;
  j.total = total_s;
  double first_recon_us = -1.0, first_gpuicd_us = -1.0;
  for (const mbir::obs::TraceEvent& ev : events) {
    if (ev.clock != mbir::obs::Clock::kHost) continue;
    const double s = ev.dur_us * 1e-6;
    if (ev.name == "recon.setup") {
      j.setup += s;
    } else if (ev.name == "recon.iteration") {
      j.iterations += s;
      ++j.recon_iters;
      if (first_recon_us < 0 || ev.ts_us < first_recon_us)
        first_recon_us = ev.ts_us;
    } else if (ev.name == "gpuicd.iteration") {
      j.gpuicd_iter += s;
      ++j.gpuicd_iters;
      if (first_gpuicd_us < 0 || ev.ts_us < first_gpuicd_us)
        first_gpuicd_us = ev.ts_us;
    } else if (ev.name.compare(0, kLaunch.size(), kLaunch) == 0) {
      j.launch[ev.name.substr(kLaunch.size())] += s;
    }
  }
  if (first_recon_us >= 0 && first_gpuicd_us >= first_recon_us)
    j.engine_init = (first_gpuicd_us - first_recon_us) * 1e-6;
  return j;
}

std::vector<JobLedger> serviceLedgers(const mbir::obs::Recorder& rec,
                                      const std::set<int>& job_ids) {
  std::map<int, std::vector<mbir::obs::TraceEvent>> by_job;
  std::map<int, double> totals;
  for (mbir::obs::TraceEvent& ev : rec.trace().snapshot()) {
    int id = -1;
    for (const auto& [k, v] : ev.num_args)
      if (k == "job_id") id = int(v);
    if (!job_ids.count(id)) continue;
    if (ev.name == "svc.job" && ev.clock == mbir::obs::Clock::kHost)
      totals[id] = ev.dur_us * 1e-6;
    by_job[id].push_back(std::move(ev));
  }
  std::vector<JobLedger> out;
  for (const auto& [id, events] : by_job)
    if (totals.count(id)) out.push_back(ledgerFromSpans(events, totals[id]));
  return out;
}

void LedgerTotals::addCounters(const mbir::obs::Recorder& rec) {
  chunk_hits += rec.metrics().counterValue("gpuicd.chunk_cache.hits");
  chunk_misses += rec.metrics().counterValue("gpuicd.chunk_cache.misses");
}

void addLedger(const LedgerTotals& t, Report& rep) {
  const double n = double(std::max<std::size_t>(1, t.jobs.size()));
  JobLedger sum;
  for (const JobLedger& j : t.jobs) {
    sum.total += j.total;
    sum.setup += j.setup;
    sum.iterations += j.iterations;
    sum.engine_init += j.engine_init;
    sum.gpuicd_iter += j.gpuicd_iter;
    sum.gpuicd_iters += j.gpuicd_iters;
    sum.recon_iters += j.recon_iters;
    for (const auto& [k, v] : j.launch) sum.launch[k] += v;
    // The spans this ledger reads nest inside the job: a negative
    // remainder would mean a span outlived the call it belongs to.
    if (j.unattributed() < -1e-3 * j.total)
      rep.fail("ledger does not close: children exceed the job by " +
               std::to_string(-j.unattributed()) + " s");
  }
  auto& L = rep.layer;
  L["ledger.jobs"] = double(t.jobs.size());
  L["recon.job_s"] = sum.total / n;
  L["recon.setup_s_per_job"] = sum.setup / n;
  L["gpuicd.engine_init_s"] = sum.engine_init / n;
  for (const char* k : {"svb_gen", "mbir_update", "error_writeback"}) {
    const auto it = sum.launch.find(k);
    L[std::string("gsim.") + k + ".host_s_per_job"] =
        it == sum.launch.end() ? 0.0 : it->second / n;
  }
  L["gpuicd.iteration_host_s"] =
      sum.gpuicd_iters ? sum.gpuicd_iter / sum.gpuicd_iters : 0.0;
  L["gpuicd.iterations_per_job"] = double(sum.gpuicd_iters) / n;
  L["recon.bookkeeping_s_per_iter"] =
      sum.recon_iters ? sum.bookkeeping() / sum.recon_iters : 0.0;
  L["recon.unattributed_s_per_job"] = sum.unattributed() / n;
  L["recon.equits_per_job"] = t.equits / n;
  const double lookups = double(t.chunk_hits + t.chunk_misses);
  L["gpuicd.chunk_cache_lookups"] = lookups;
  L["gpuicd.chunk_cache_hit_ratio"] =
      lookups > 0 ? double(t.chunk_hits) / lookups : 0.0;
}

void addKernelCounts(const std::vector<const RefRun*>& runs, Report& rep) {
  const double n = double(std::max<std::size_t>(1, runs.size()));
  double launches = 0, flops = 0, amatrix = 0, svb = 0;
  std::map<std::string, double> modeled;
  for (const RefRun* r : runs) {
    for (const auto& [name, nt] : r->per_kernel) {
      launches += nt.launches;
      flops += nt.stats.flops;
      amatrix += nt.stats.amatrix_access_bytes;
      svb += nt.stats.svb_access_bytes;
      modeled[name] += nt.seconds;
    }
  }
  auto& L = rep.layer;
  for (const char* k : {"svb_gen", "mbir_update", "error_writeback"})
    L[std::string("gsim.") + k + ".modeled_s_per_job"] = modeled[k] / n;
  L["gsim.launches_per_job"] = launches / n;
  L["gsim.flops_per_job"] = flops / n;
  L["gsim.amatrix_bytes_per_job"] = amatrix / n;
  L["gsim.svb_bytes_per_job"] = svb / n;
  L["gsim.flops_per_byte"] = amatrix + svb > 0 ? flops / (amatrix + svb) : 0;
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

void probeGeom(const CaseSet& cases, int count, int reps, Report& rep) {
  double fbp = 0.0, err = 0.0;
  count = std::min(count, cases.size());
  for (int i = 0; i < count; ++i) {
    const mbir::OwnedProblem& p = cases.at(i).problem;
    std::vector<double> f, e;
    for (int r = 0; r < reps; ++r) {
      mbir::Image2D x;
      f.push_back(timed([&] { x = p.fbpInitialImage(); }));
      e.push_back(timed([&] { (void)p.initialError(x); }));
    }
    fbp += median(f);
    err += median(e);
  }
  rep.layer["geom.fbp_s"] = fbp / std::max(1, count);
  rep.layer["geom.initial_error_s"] = err / std::max(1, count);
}

void probeParallel(const CaseSet& cases, const std::vector<RefRun>& refs,
                   int count, int reps, Report& rep) {
  mbir::ThreadPool one(1);
  count = std::min(count, cases.size());
  double t_default = 0.0, t_one = 0.0;
  for (int i = 0; i < count; ++i) {
    const CaseData& c = cases.at(i);
    std::vector<double> d, o;
    for (int r = 0; r < reps; ++r) {
      for (mbir::ThreadPool* pool : {(mbir::ThreadPool*)nullptr, &one}) {
        mbir::RunConfig cfg = baseRunConfig();
        cfg.gpu.host_pool = pool;
        mbir::RunResult res;
        const double s =
            timed([&] { res = mbir::reconstruct(c.problem, c.golden, cfg); });
        (pool ? o : d).push_back(s);
        if (imageHash(res.image) != refs[std::size_t(i)].hash)
          rep.fail("case " + std::to_string(i) + (pool ? " on a 1-thread" :
                   " on the default") + " pool is not bit-identical");
      }
    }
    t_default += median(d);
    t_one += median(o);
  }
  rep.layer["core.parallel_speedup"] = t_default > 0 ? t_one / t_default : 0;
  rep.layer["core.speedup_cases"] = count;
}

std::vector<std::uint64_t> probeShard(const CaseSet& cases,
                                      const std::vector<int>& case_ids,
                                      Report& rep) {
  static const std::string kExchange = "gsim.launch.shard.";
  std::vector<std::uint64_t> hashes;
  double exchange_host = 0.0, comm_s = 0.0, comm_bytes = 0.0, exchanges = 0.0;
  for (int id : case_ids) {
    const CaseData& c = cases.at(id);
    mbir::obs::ObsConfig oc;
    oc.trace = true;
    mbir::obs::Recorder rec(oc);
    mbir::shard::ShardConfig sc = gangConfig(cases.imageSize(), baseRunConfig());
    sc.base.external_recorder = &rec;
    const mbir::shard::ShardRunResult r =
        mbir::shard::reconstructSharded(c.problem, c.golden, sc);
    if (!r.run.converged || r.run.final_rmse_hu >= 10.0)
      rep.fail("sharded case " + std::to_string(id) + " did not converge");
    hashes.push_back(imageHash(r.run.image));
    for (const mbir::obs::TraceEvent& ev : rec.trace().snapshot())
      if (ev.clock == mbir::obs::Clock::kHost &&
          ev.name.compare(0, kExchange.size(), kExchange) == 0)
        exchange_host += ev.dur_us * 1e-6;
    comm_s += r.shard.comm_seconds;
    comm_bytes += double(r.shard.comm_bytes);
    exchanges += r.shard.exchanges;
  }
  const double n = double(std::max<std::size_t>(1, case_ids.size()));
  rep.layer["shard.exchange_host_s_per_job"] = exchange_host / n;
  rep.layer["shard.comm_modeled_s_per_job"] = comm_s / n;
  rep.layer["shard.comm_bytes_per_job"] = comm_bytes / n;
  rep.layer["shard.exchanges_per_job"] = exchanges / n;
  rep.layer["shard.jobs"] = double(case_ids.size());
  return hashes;
}

void waitForCacheSize(const mbir::store::ResultCache& cache, std::size_t n,
                      Report& rep) {
  const Clock::time_point t0 = Clock::now();
  while (cache.size() < n) {
    if (secondsSince(t0) > 10.0) {
      rep.fail("result cache never reached " + std::to_string(n) + " entries");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<WalRecord> readWal(const std::string& path) {
  std::vector<WalRecord> out;
  for (const std::string& payload :
       mbir::store::JobLog::replayFile(path).payloads) {
    const mbir::obs::JsonValue doc = mbir::obs::parseJson(payload);
    WalRecord r;
    r.admit = doc.find("type")->asString() == "admit";
    r.wal_id = std::int64_t(doc.find("wal_id")->asNumber());
    if (r.admit) {
      r.recoveries = int(doc.find("recoveries")->asNumber());
      // JobLog writes the submit document verbatim as the last member;
      // replay it byte for byte.
      const std::size_t at = payload.find("\"params\":");
      MBIR_CHECK_MSG(at != std::string::npos, "admit record without params");
      const std::size_t from = at + 9;
      r.params_json = payload.substr(from, payload.size() - 1 - from);
    } else {
      r.state = doc.find("state")->asString();
      if (const mbir::obs::JsonValue* h = doc.find("image_hash"))
        r.image_hash = std::strtoull(h->asString().c_str(), nullptr, 16);
    }
    out.push_back(std::move(r));
  }
  return out;
}

void probeStore(const std::string& dir, const std::vector<WalRecord>& wal,
                const std::vector<CacheOp>& cache_ops, Report& rep) {
  double append = 0.0;
  {
    mbir::store::JobLog log(dir + "/wal");
    for (const WalRecord& r : wal) {
      append += timed([&] {
        if (r.admit)
          log.appendAdmit(r.wal_id, r.recoveries, r.params_json);
        else
          log.appendTerminal(r.wal_id, r.state, r.image_hash);
      });
    }
  }
  double find = 0.0, insert = 0.0;
  int finds = 0, inserts = 0;
  {
    mbir::store::ResultCache cache(dir + "/cache", cache_ops.size() + 1);
    for (const CacheOp& op : cache_ops) {
      if (op.insert) {
        insert += timed([&] { cache.insert(op.meta, *op.image); });
        ++inserts;
      } else {
        find += timed([&] {
          (void)cache.find(op.meta.input_hash, op.meta.config_key);
        });
        ++finds;
      }
    }
  }
  rep.layer["store.wal.append_s"] = wal.empty() ? 0.0 : append / wal.size();
  rep.layer["store.cache.find_s"] = finds ? find / finds : 0.0;
  rep.layer["store.cache.insert_s"] = inserts ? insert / inserts : 0.0;
}

bool checkServiceJob(const mbir::svc::Client::JobInfo& info,
                     const RefRun& ref, const std::string& label,
                     Report& rep) {
  std::string why;
  if (info.state != "done")
    why = "ended " + info.state + (info.error.empty() ? "" : ": " + info.error);
  else if (!info.converged || info.final_rmse_hu >= 10.0)
    why = "did not converge below 10 HU";
  else if (info.image_hash != mbir::hashToHex(ref.hash))
    why = "image " + info.image_hash + " != reference " +
          mbir::hashToHex(ref.hash);
  else if (info.modeled_seconds != ref.modeled_s)
    why = "modeled seconds differ from the reference";
  if (why.empty()) return true;
  rep.fail(label + " job " + std::to_string(info.job_id) + " " + why);
  return false;
}

TempDir::TempDir(const std::string& parent) {
  std::filesystem::create_directories(parent);
  std::string tmpl = parent + "/perfbench-XXXXXX";
  MBIR_CHECK_MSG(::mkdtemp(tmpl.data()) != nullptr,
                 "mkdtemp failed below " << parent);
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
