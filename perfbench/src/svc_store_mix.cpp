// svc_store_mix: a closed loop of 4 connections, 2 per tenant at tenant
// weights 4:1, against a 4-device svc::Server with the WAL and the result
// cache on (files in a scratch directory), at 64^2 x 96 views x 128
// channels.
//
// Each connection draws a seeded stream of four request kinds:
//   hit   30%  exact duplicate of a primed case: served from the cache
//   warm  15%  same case, different max_equits: warm start from the cache
//   cold  49%  bypass_cache: a cold run, a cache insert and WAL fsyncs
//   gang   6%  2-slab sharded job, gang-dispatched over 2 devices
// Cold runs are 70% of the jobs that run on a device, so the device-job
// latency median falls inside the cold mode. Gang jobs wait until every
// device is free and make the slowest mode; at ~9% of the device jobs the
// tail (p95) falls near the middle of that mode, not on its edge.
//
// Cases are a fixed phantom family whose scan noise comes from the seed
// (as in recon_single): six cache cases primed during set-up, and two
// gang cases that never share inputs with them, so every warm start reads
// the same cached cold image whatever the interleaving.
#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "obs/metrics.h"
#include "store/wal.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kCacheCases = 6;
constexpr int kGangCases = 2;
constexpr int kDevices = 4;
constexpr int kConnections = 4;
constexpr double kGoldenEquits = 10.0;
constexpr std::uint64_t kFamilySeed = 2026;
constexpr double kWarmEquits[2] = {30.0, 45.0};
/// Requests per connection whose reference cost defines the (exactly
/// repeating) modeled device seconds per request of this seed's mix.
constexpr int kModeledPrefix = 1024;

enum class Kind { kHit, kWarm, kCold, kGang };

const char* kindName(Kind k) {
  switch (k) {
    case Kind::kHit: return "hit";
    case Kind::kWarm: return "warm";
    case Kind::kCold: return "cold";
    case Kind::kGang: return "gang";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::kCold;
  int case_index = 0;
  int warm = 0;  ///< index into kWarmEquits

  mbir::svc::SubmitParams params() const {
    mbir::svc::SubmitParams p;
    p.case_index = case_index;
    if (kind == Kind::kWarm) p.max_equits = kWarmEquits[warm];
    if (kind == Kind::kCold || kind == Kind::kGang) p.bypass_cache = true;
    if (kind == Kind::kGang) p.shards = 2;
    return p;
  }
};

/// The seeded request stream of one connection.
class Stream {
 public:
  Stream(std::uint64_t seed, int connection) : rng_(seed, 100 + connection) {}
  Request next() {
    Request q;
    const double u = rng_.uniform();
    q.kind = u < 0.30 ? Kind::kHit
           : u < 0.45 ? Kind::kWarm
           : u < 0.94 ? Kind::kCold
                      : Kind::kGang;
    if (q.kind == Kind::kGang) {
      q.case_index = kCacheCases + rng_.below(kGangCases);
    } else {
      q.case_index = rng_.below(kCacheCases);
      q.warm = rng_.below(2);
    }
    return q;
  }

 private:
  InputRng rng_;
};

/// A server with its store, in its own scratch directory.
struct Service {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<mbir::obs::Recorder> rec;
  std::unique_ptr<mbir::store::JobLog> wal;
  std::unique_ptr<mbir::store::ResultCache> cache;
  std::unique_ptr<mbir::svc::Server> server;  // last: borrows the above
  std::uint64_t wal_records0 = 0, wal_bytes0 = 0;
  mbir::store::ResultCache::Counters cache0;
};

struct Setup {
  std::unique_ptr<CaseSet> cases;
  std::vector<RefRun> cold;  ///< per cache case, direct reconstruct()
  std::vector<RefRun> warm;  ///< [case * 2 + w], warm-started from cold
  std::vector<RefRun> gang;  ///< per gang case, direct reconstructSharded
  Service svc;

  const RefRun& ref(const Request& q) const {
    switch (q.kind) {
      case Kind::kWarm:
        return warm[std::size_t(q.case_index * 2 + q.warm)];
      case Kind::kGang:
        return gang[std::size_t(q.case_index - kCacheCases)];
      default:
        return cold[std::size_t(q.case_index)];
    }
  }
};

/// Start a server with a fresh WAL and cache and prime the cache with a
/// cold run of every cache case (through the service itself).
void startService(Setup& s, const std::string& tmpdir, bool traced,
                  Report& rep) {
  Service& v = s.svc;
  v.server.reset();
  v.dir = std::make_unique<TempDir>(tmpdir);
  if (traced) {
    mbir::obs::ObsConfig oc;
    oc.trace = oc.metrics = true;
    v.rec = std::make_unique<mbir::obs::Recorder>(oc);
  }
  v.wal = std::make_unique<mbir::store::JobLog>(v.dir->path() + "/wal");
  v.cache = std::make_unique<mbir::store::ResultCache>(
      v.dir->path() + "/cache", 64);
  mbir::svc::ServerOptions opt;
  opt.dispatch.num_devices = kDevices;
  opt.dispatch.queue_capacity = 64;
  opt.dispatch.recorder = v.rec.get();
  opt.dispatch.tenant_weights = {{"heavy", 4.0}, {"light", 1.0}};
  opt.base_config = baseRunConfig();
  opt.wal = v.wal.get();
  opt.cache = v.cache.get();
  v.server = std::make_unique<mbir::svc::Server>(opt, *s.cases);

  mbir::svc::Client client(v.server->port());
  for (int i = 0; i < kCacheCases; ++i) {
    mbir::svc::SubmitParams p;
    p.case_index = i;
    const mbir::svc::Client::SubmitResult sub = client.submit(p);
    if (!sub.accepted || sub.cache_hit) {
      rep.fail("priming case " + std::to_string(i) + " was not a cold run");
      continue;
    }
    checkServiceJob(client.result(sub.job_id), s.cold[std::size_t(i)],
                    "priming", rep);
  }
  waitForCacheSize(*v.cache, kCacheCases, rep);
  v.wal_records0 = v.wal->recordsAppended();
  v.wal_bytes0 = v.wal->bytesAppended();
  v.cache0 = v.cache->counters();
}

std::unique_ptr<Setup> buildSetup(const Args& args, Report& rep) {
  auto s = std::make_unique<Setup>();
  std::vector<CaseSpec> specs;
  for (int i = 0; i < kCacheCases + kGangCases; ++i)
    specs.push_back({kFamilySeed, i, args.seed * 1000003ull + std::uint64_t(i)});
  s->cases = std::make_unique<CaseSet>(64, 96, 128, specs, kGoldenEquits);
  s->cold.resize(kCacheCases);
  setupPool().parallelFor(0, kCacheCases, [&](int i) {
    const CaseData& c = s->cases->at(i);
    s->cold[std::size_t(i)] =
        toRef(mbir::reconstruct(c.problem, c.golden, baseRunConfig()));
  });
  s->warm.resize(2 * kCacheCases);
  s->gang.resize(kGangCases);
  setupPool().parallelFor(0, 2 * kCacheCases + kGangCases, [&](int t) {
    if (t < 2 * kCacheCases) {
      const CaseData& c = s->cases->at(t / 2);
      mbir::RunConfig cfg = baseRunConfig();
      cfg.max_equits = kWarmEquits[t % 2];
      cfg.initial_image = s->cold[std::size_t(t / 2)].image;
      s->warm[std::size_t(t)] = toRef(mbir::reconstruct(c.problem, c.golden, cfg));
    } else {
      const int g = t - 2 * kCacheCases;
      const CaseData& c = s->cases->at(kCacheCases + g);
      s->gang[std::size_t(g)] = toRef(
          mbir::shard::reconstructSharded(
              c.problem, c.golden,
              gangConfig(s->cases->imageSize(), baseRunConfig()))
              .run);
    }
  });
  startService(*s, args.tmpdir, false, rep);
  return s;
}

/// One finished request of a closed-loop run.
struct Done {
  JobRecord rec;
  Request q;
  int job_id = -1;  ///< -1 when the submit was not accepted
  double equits = 0.0;
};

struct LoopResult {
  std::vector<Done> done;
  std::vector<double> hit_rtts;
  std::vector<double> pings;
};

LoopResult play(const Setup& s, std::uint64_t seed, double seconds,
                Report& rep) {
  const std::uint16_t port = s.svc.server->port();
  std::vector<LoopResult> per(kConnections);
  std::vector<double> ends(kConnections, 0.0);
  std::atomic<bool> stop_pings{false};
  LoopResult all;
  WindowMeter meter;
  const Clock::time_point start = Clock::now();

  auto connection = [&](int c) {
    LoopResult& out = per[std::size_t(c)];
    mbir::svc::Client client(port);
    Stream stream(seed, c);
    const std::string tenant = c < kConnections / 2 ? "heavy" : "light";
    Clock::time_point due = Clock::now();
    while (secondsSince(start) < seconds) {
      Done d;
      d.q = stream.next();
      JobRecord& j = d.rec;
      const char* kind = kindName(d.q.kind);
      mbir::svc::SubmitParams p = d.q.params();
      p.tenant = tenant;
      const Clock::time_point t0 = Clock::now();
      const mbir::svc::Client::SubmitResult sub = client.submit(p);
      const Clock::time_point t1 = Clock::now();
      j.kind = kind;
      j.tenant = tenant;
      j.lag_s = secondsBetween(due, t0);
      j.submit_rtt_s = secondsBetween(t0, t1);
      if (sub.accepted) {
        // A hit is timed by its submit round trip; its result is fetched
        // (untimed) only to check the bits.
        const mbir::svc::Client::JobInfo info = client.result(sub.job_id);
        j.on_device = !sub.cache_hit;
        j.latency_s = secondsBetween(due, sub.cache_hit ? t1 : Clock::now());
        if (sub.cache_hit) {
          out.hit_rtts.push_back(j.submit_rtt_s);
        } else {
          j.queue_wait_s = info.queue_wait_host_s;
          j.service_s = info.service_host_s;
        }
        j.ok = checkServiceJob(info, s.ref(d.q), kind, rep);
        if (sub.cache_hit != (d.q.kind == Kind::kHit) ||
            info.warm_start != (d.q.kind == Kind::kWarm)) {
          rep.fail(std::string(kind) + " request served as " +
                   (sub.cache_hit ? "a cache hit"
                                  : info.warm_start ? "a warm start"
                                                    : "a cold run"));
          j.ok = false;
        }
        d.job_id = info.job_id;
        d.equits = info.equits;
      }
      out.done.push_back(std::move(d));
      due = Clock::now();
    }
    ends[std::size_t(c)] = secondsSince(start);
  };
  // Pings on a connection of their own while the load runs.
  auto pinger = [&] {
    mbir::svc::Client client(port);
    while (!stop_pings.load()) {
      const Clock::time_point p0 = Clock::now();
      client.ping();
      all.pings.push_back(secondsSince(p0));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  auto guarded = [&](auto fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      rep.fail(std::string("store-mix client: ") + e.what());
    }
  };

  std::vector<std::thread> workers;
  for (int c = 0; c < kConnections; ++c)
    workers.emplace_back([&, c] { guarded([&] { connection(c); }); });
  std::thread ping_thread([&] { guarded(pinger); });
  for (std::thread& w : workers) w.join();
  stop_pings = true;
  ping_thread.join();
  meter.stop(rep);
  rep.window_s = *std::max_element(ends.begin(), ends.end());

  for (LoopResult& r : per) {
    for (Done& d : r.done) all.done.push_back(std::move(d));
    all.hit_rtts.insert(all.hit_rtts.end(), r.hit_rtts.begin(),
                        r.hit_rtts.end());
  }
  return all;
}

std::vector<JobRecord> records(const LoopResult& run) {
  std::vector<JobRecord> out;
  for (const Done& d : run.done) out.push_back(d.rec);
  return out;
}

/// store.* and sched/svc counters of the traced half.
void addStoreLayer(const Setup& s, const LoopResult& run, Report& rep) {
  const Service& v = s.svc;
  auto& L = rep.layer;
  const double jobs = double(std::max<std::size_t>(1, run.done.size()));
  L["store.wal.records_per_job"] =
      double(v.wal->recordsAppended() - v.wal_records0) / jobs;
  L["store.wal.bytes_per_job"] =
      double(v.wal->bytesAppended() - v.wal_bytes0) / jobs;
  const mbir::store::ResultCache::Counters c = v.cache->counters();
  const double lookups =
      double(c.hits - v.cache0.hits + c.misses - v.cache0.misses);
  L["store.cache.lookups"] = lookups;
  L["store.cache.hit_ratio"] =
      lookups > 0 ? double(c.hits - v.cache0.hits) / lookups : 0.0;
  L["store.cache.inserts"] = double(c.inserts - v.cache0.inserts);
  L["store.cache.evictions"] = double(c.evictions - v.cache0.evictions);

  double warm_equits = 0.0, cold_equits = 0.0, warm_jobs = 0.0;
  std::map<std::string, double> done;
  for (const Done& d : run.done) {
    if (d.q.kind == Kind::kWarm && d.rec.ok) {
      warm_equits += d.equits;
      cold_equits += s.cold[std::size_t(d.q.case_index)].equits;
      ++warm_jobs;
    }
    if (d.rec.on_device && d.rec.ok) done[d.rec.tenant] += 1.0;
  }
  L["store.warm_jobs"] = warm_jobs;
  L["store.warm_equits_saved_frac"] =
      cold_equits > 0 ? 1.0 - warm_equits / cold_equits : 0.0;
  const double heavy = done["heavy"] / 4.0, light = done["light"] / 1.0;
  L["store.wfq.fairness_ratio"] =
      heavy > 0 && light > 0 ? std::max(heavy, light) / std::min(heavy, light)
                             : 0.0;
  L["store.wfq.tenants"] = 2.0;
}

}  // namespace

void runSvcStoreMix(const Args& args, Report& rep) {
  std::unique_ptr<Setup> s =
      timedSetup<Setup>(rep, [&] { return buildSetup(args, rep); });
  double modeled = 0.0;
  for (int c = 0; c < kConnections; ++c) {
    Stream stream(args.seed, c);
    for (int k = 0; k < kModeledPrefix; ++k) {
      const Request q = stream.next();
      if (q.kind != Kind::kHit) modeled += s->ref(q).modeled_s;
    }
  }
  rep.modeled_device_s_per_job = modeled / (kConnections * kModeledPrefix);

  if (!args.trace) {
    rep.jobs = records(play(*s, args.seed, args.seconds, rep));
    s->svc.server->drainAndReport();
    return;
  }

  // Traced run: an untraced half, then a traced half on a fresh server
  // and store, then the layer probes.
  for (const JobRecord& j : records(play(*s, args.seed, args.seconds / 2, rep)))
    if (j.on_device) rep.untraced_latencies.push_back(j.latency_s);
  rep.layer["core.host_cores_busy"] = rep.cpu_s / rep.window_s;
  rep.layer["core.busy_wall_s"] = rep.window_s;
  s->svc.server->drainAndReport();

  startService(*s, args.tmpdir, true, rep);
  const LoopResult run = play(*s, args.seed, args.seconds / 2, rep);
  rep.jobs = records(run);
  rep.svc_jobs = rep.jobs;
  rep.hit_rtts = run.hit_rtts;
  rep.ping_rtts = run.pings;
  const Service& v = s->svc;
  const mbir::svc::SvcReport& report = v.server->drainAndReport();
  rep.layer["svc.admission_rejects"] = double(report.admission_rejected);
  rep.layer["svc.queue_depth_max"] = double(report.queue_depth_max);
  addStoreLayer(*s, run, rep);

  // Ledger over the jobs that ran unsharded on one device.
  LedgerTotals ledger;
  std::set<int> ids;
  for (const Done& d : run.done) {
    if ((d.q.kind == Kind::kCold || d.q.kind == Kind::kWarm) && d.job_id >= 0) {
      ids.insert(d.job_id);
      ledger.equits += d.equits;
    }
  }
  ledger.jobs = serviceLedgers(*v.rec, ids);
  ledger.addCounters(*v.rec);
  addLedger(ledger, rep);
  double busy_ms = 0.0;
  for (int d = 0; d < kDevices; ++d)
    busy_ms += double(v.rec->metrics().counterValue(mbir::obs::labeledName(
        "sched.busy_ms", {{"device", std::to_string(d)}})));
  rep.layer["sched.device_s"] = kDevices * rep.window_s;
  rep.layer["sched.device_busy_frac"] =
      busy_ms * 1e-3 / (kDevices * rep.window_s);

  // store.*: replay this run's own WAL records and cache keys.
  std::vector<CacheOp> ops;
  const mbir::RunConfig base = baseRunConfig();
  std::vector<std::uint64_t> input_hash;
  for (int i = 0; i < s->cases->size(); ++i)
    input_hash.push_back(mbir::svc::hashCaseInputs(s->cases->at(i).problem,
                                                   s->cases->at(i).golden));
  auto op = [&](const Request& q, bool insert) {
    CacheOp o;
    o.insert = insert;
    o.meta.input_hash = input_hash[std::size_t(q.case_index)];
    o.meta.config_key = mbir::svc::cacheConfigKey(base, q.params());
    const RefRun& r = s->ref(q);
    o.meta.converged = r.converged;
    o.meta.equits = r.equits;
    o.meta.modeled_seconds = r.modeled_s;
    o.meta.image_hash = r.hash;
    o.image = r.image;
    ops.push_back(std::move(o));
  };
  for (int i = 0; i < kCacheCases; ++i) op(Request{Kind::kCold, i, 0}, true);
  for (const Done& d : run.done)
    op(d.q, d.q.kind == Kind::kCold || d.q.kind == Kind::kGang);
  const std::vector<WalRecord> wal = readWal(v.wal->path());
  v.server->stop();
  TempDir dir(args.tmpdir);
  probeStore(dir.path(), wal, ops, rep);

  std::vector<const RefRun*> refs;
  for (const RefRun& r : s->cold) refs.push_back(&r);
  addKernelCounts(refs, rep);
  probeGeom(*s->cases, 3, 5, rep);
  const std::vector<std::uint64_t> traced_gang =
      probeShard(*s->cases, {kCacheCases, kCacheCases + 1}, rep);
  for (int g = 0; g < kGangCases; ++g)
    if (traced_gang[std::size_t(g)] != s->gang[std::size_t(g)].hash)
      rep.fail("traced sharded run of gang case " + std::to_string(g) +
               " differs from the untraced one");
}

}  // namespace perfbench
