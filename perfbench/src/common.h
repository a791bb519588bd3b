// Shared pieces of the perfbench workload program: clocks, process
// counters, case building, reference runs, the span ledger, the layer
// probes and the raw report mbirbench hands to run.py. A workload reports
// only the layers it runs; run.py marks the others not applicable.
//
// Everything here drives the system through its public entry points
// (reconstruct, reconstructSharded, OwnedProblem/GpuIcd, svc::Server and
// svc::Client, store::JobLog and store::ResultCache) and times those calls
// from the outside. Spans are read from an attached obs::Recorder only;
// nothing here adds instrumentation to the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "obs/obs.h"
#include "recon/reconstructor.h"
#include "recon/suite.h"
#include "shard/shard_job.h"
#include "store/cache.h"
#include "svc/client.h"
#include "svc/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of the whole process (all threads).
double processCpuSeconds();
class Report;

/// Process counters of one measured window, from construction to stop():
/// CPU seconds, the live heap and the CPU time the hypervisor stole from
/// the machine. The heap is sampled every 50 ms as the bytes malloc has
/// handed out and not taken back (mmapped blocks included); unlike
/// resident size it does not depend on how much freed memory the
/// allocator happens to keep, so it moves only when the program holds
/// more or less data.
class WindowMeter {
 public:
  WindowMeter();
  ~WindowMeter() { join(); }
  WindowMeter(const WindowMeter&) = delete;
  WindowMeter& operator=(const WindowMeter&) = delete;

  /// Stop and write cpu_s, heap_mb and steal_frac into the report.
  void stop(Report& rep);

 private:
  void join();

  double cpu0_ = 0.0;
  double steal0_ = 0.0, total0_ = 0.0;
  std::atomic<bool> stop_{false};
  std::vector<double> heap_mb_;
  std::thread sampler_;  // last: starts after the members it uses
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL and cache files (inside the checkout).
  std::string tmpdir = ".";
};

/// Deterministic input generator: one stream per (seed, purpose).
class InputRng {
 public:
  InputRng(std::uint64_t seed, std::uint64_t stream)
      : gen_(seed * 0x9e3779b97f4a7c15ull ^ (stream + 0x632be59bd9b4e019ull)) {}
  /// Uniform in [0, 1), built from the raw 64-bit draw so it does not
  /// depend on the standard library's distribution implementation.
  double uniform() { return double(gen_() >> 11) * 0x1.0p-53; }
  int below(int n) { return int(uniform() * n); }

 private:
  std::mt19937_64 gen_;
};

/// A pool of one thread per host core for set-up work (case builds,
/// reference runs). It is not the global pool, which the jobs inside use.
mbir::ThreadPool& setupPool();

double median(std::vector<double> v);

/// GPU-ICD with the paper's Table-1 tunables, stopping at 10 HU against
/// the case's golden: the base config of every workload.
mbir::RunConfig baseRunConfig();

/// The service's plan for a 2-slab gang job on `base`.
mbir::shard::ShardConfig gangConfig(int image_size,
                                    const mbir::RunConfig& base);

std::uint64_t imageHash(const mbir::Image2D& image);

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

struct CaseSpec {
  std::uint64_t phantom_seed = 0;  ///< baggage phantom family
  int phantom_index = 0;
  std::uint64_t noise_seed = 0;    ///< scan noise realization
};

struct CaseData {
  mbir::OwnedProblem problem;
  mbir::Image2D golden;
};

/// One geometry and the cases built on it (scan + golden per case, built
/// in parallel). Serves the cases to an svc::Server by index; references
/// stay valid for the CaseSet's lifetime.
class CaseSet : public mbir::svc::JobSource {
 public:
  CaseSet(int image_size, int views, int channels,
          const std::vector<CaseSpec>& specs, double golden_equits);

  int size() const { return int(cases_.size()); }
  const CaseData& at(int i) const { return *cases_.at(std::size_t(i)); }
  int imageSize() const { return suite_->config().geometry.image_size; }

  JobSource::Case get(int case_index) override;

 private:
  std::unique_ptr<mbir::Suite> suite_;
  std::vector<std::unique_ptr<CaseData>> cases_;
};

/// What one run of a (case, config) produced; every repeat must match it.
struct RefRun {
  std::uint64_t hash = 0;
  double modeled_s = 0.0;
  double equits = 0.0;
  bool converged = false;
  std::shared_ptr<const mbir::Image2D> image;
  std::map<std::string, mbir::gsim::NamedTotals> per_kernel;
};

RefRun toRef(const mbir::RunResult& r);

// ---------------------------------------------------------------------------
// Raw report: what run.py turns into metrics
// ---------------------------------------------------------------------------

/// One request of a measured window.
struct JobRecord {
  std::string kind;          ///< workload-specific request kind
  bool on_device = true;     ///< false: served without running (cache hit)
  bool ok = false;           ///< done, converged, bits match the reference
  double latency_s = 0.0;    ///< from when the request was due
  double lag_s = 0.0;        ///< how late the generator sent it
  double submit_rtt_s = -1;  ///< client-timed submit round trip (svc only)
  double queue_wait_s = -1;  ///< server-reported (svc only)
  double service_s = -1;     ///< server-reported (svc only)
  std::string tenant;
};

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// Record a wrong or unconverged output (makes the run incorrect).
  /// Thread-safe.
  void fail(const std::string& why);
  bool correct() const;

  std::vector<double> setup_s;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double heap_mb = 0.0;  ///< median live heap of the window
  /// Share of the machine's CPU time stolen by the hypervisor during the
  /// window (-1 when unknown): a diagnostic for noisy-neighbour runs.
  double steal_frac = -1.0;
  /// Deterministic per seed: computed from reference values of a fixed
  /// request list, each checked against what the run reported.
  double modeled_device_s_per_job = 0.0;
  std::vector<JobRecord> jobs;
  /// Trace mode: the records the svc.* distributions come from, the pings
  /// sent under load, and the untraced half's latencies (the base of the
  /// tracing overhead).
  std::vector<JobRecord> svc_jobs;
  std::vector<double> ping_rtts;
  std::vector<double> hit_rtts;  ///< submit round trips of exact cache hits
  std::vector<double> untraced_latencies;
  /// Trace mode: scalar per-layer values (ledger, counters, probes).
  std::map<std::string, double> layer;

  std::string json() const;

 private:
  const Args& args_;
  mutable std::mutex mu_;  // fail() runs on load-generator threads
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------------------

/// Host seconds of one job split by the spans the program already emits.
/// Everything but recon.setup lies inside the recon.iteration spans, so
/// `unattributed = total - setup - iterations` closes the ledger exactly.
struct JobLedger {
  double total = 0.0;        ///< the job's latency, timed around the call
  double setup = 0.0;        ///< recon.setup: FBP + initial error
  double iterations = 0.0;   ///< sum of recon.iteration
  double engine_init = 0.0;  ///< first recon.iteration start -> first
                             ///< gpuicd.iteration start: GpuIcd build
  double gpuicd_iter = 0.0;  ///< sum of gpuicd.iteration
  int gpuicd_iters = 0;
  int recon_iters = 0;
  std::map<std::string, double> launch;  ///< gsim.launch.<kernel> host s

  double launches() const;
  /// Non-kernel time inside iterations, engine build excluded.
  double bookkeeping() const { return iterations - launches() - engine_init; }
  double unattributed() const { return total - setup - iterations; }
};

/// One job's ledger from its host-clock spans.
JobLedger ledgerFromSpans(const std::vector<mbir::obs::TraceEvent>& events,
                          double total_s);

/// Ledgers of the given service jobs, from the server's shared recorder
/// (spans carry a job_id arg; a job's total is its svc.job span).
std::vector<JobLedger> serviceLedgers(const mbir::obs::Recorder& rec,
                                      const std::set<int>& job_ids);

/// The ledgers of a set of jobs, with their equits and chunk-cache counters.
struct LedgerTotals {
  std::vector<JobLedger> jobs;
  double equits = 0.0;
  std::uint64_t chunk_hits = 0;
  std::uint64_t chunk_misses = 0;
  /// Add the gpuicd.chunk_cache.* counters a recorder holds.
  void addCounters(const mbir::obs::Recorder& rec);
};
/// Write per-job averages of the ledgers as per-layer values; fails the
/// run if any job's spans add up to more than the job.
void addLedger(const LedgerTotals& t, Report& rep);

/// gsim.* device-side counts per job from reference runs (exact).
void addKernelCounts(const std::vector<const RefRun*>& runs, Report& rep);

// ---------------------------------------------------------------------------
// Layer probes (trace mode): a layer measured on this workload's own data
// ---------------------------------------------------------------------------

/// geom.*: time OwnedProblem::fbpInitialImage and initialError on the
/// first `count` cases (median of `reps` each, averaged over cases).
void probeGeom(const CaseSet& cases, int count, int reps, Report& rep);

/// core.parallel_speedup: each of the first `count` cases on the default
/// pool and on a 1-thread pool via GpuIcdOptions::host_pool, alternating
/// `reps` times; both images must equal the reference bits.
void probeParallel(const CaseSet& cases, const std::vector<RefRun>& refs,
                   int count, int reps, Report& rep);

/// shard.*: direct 2-slab reconstructSharded runs of `case_ids` with a
/// recorder attached. Returns each run's image hash.
std::vector<std::uint64_t> probeShard(const CaseSet& cases,
                                      const std::vector<int>& case_ids,
                                      Report& rep);

/// Check a finished service job against its reference run; records a
/// failure and returns false on any mismatch.
bool checkServiceJob(const mbir::svc::Client::JobInfo& info,
                     const RefRun& ref, const std::string& label,
                     Report& rep);

/// Wait until a finished job's cache insert has landed. A `result` reply
/// can overtake the insert of the job it reports, so a duplicate submitted
/// right after it may miss; set-up waits here before relying on a hit.
void waitForCacheSize(const mbir::store::ResultCache& cache, std::size_t n,
                      Report& rep);

/// One WAL record as JobLog writes it.
struct WalRecord {
  bool admit = true;
  std::int64_t wal_id = 0;
  int recoveries = 0;
  std::string params_json;  ///< admit
  std::string state;        ///< terminal
  std::uint64_t image_hash = 0;
};
/// The records of a run's own jobs.wal, in file order.
std::vector<WalRecord> readWal(const std::string& path);

/// One cache operation of a run, replayed against a fresh cache.
struct CacheOp {
  bool insert = false;
  mbir::store::ResultCache::Meta meta;
  std::shared_ptr<const mbir::Image2D> image;  ///< inserts only
};

/// store.wal.append_s / store.cache.{find,insert}_s: replay the records
/// through a fresh JobLog and the ops through a fresh ResultCache in `dir`.
void probeStore(const std::string& dir, const std::vector<WalRecord>& wal,
                const std::vector<CacheOp>& cache_ops, Report& rep);

/// A unique directory below `parent`, removed with its contents.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
