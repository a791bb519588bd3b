// Dispatch over the multi-device simulated-GPU substrate — the one job
// scheduler in the repo, for online service traffic and offline batches
// alike. Jobs stream in through submit() while device threads run; drain()
// is the only barrier.
//
//  * Admission control. The queue of not-yet-running jobs is bounded
//    (queue_capacity); a submit that would exceed it is rejected
//    explicitly (SubmitOutcome::accepted == false, svc.admission.rejected
//    metric) — backpressure instead of unbounded growth.
//  * Deadline-aware priority dispatch. A free device pulls the
//    highest-priority queued job (ties in submission order), after failing
//    fast every queued job whose host-clock deadline already expired —
//    expired jobs transition to kDeadlineMissed without ever running, so a
//    late job cannot waste device time. These pick rules, the det lane's
//    and gang exclusivity live in svc/policy (pickNext, a pure function).
//  * A deterministic lane. Jobs submitted with deterministic == true bypass
//    priority/deadline logic entirely: they are assigned round-robin by
//    deterministic sequence number (det job s -> device s % D) and each
//    device runs its deterministic jobs in submission order. A
//    deterministic-only job stream is therefore bit-identical (images,
//    stats, modeled clocks) to the same jobs run serially, for any device
//    and host thread count (tests/test_sched.cpp asserts it). This lane is
//    the offline batch path: submit every job with deterministic = true
//    into a dispatcher whose queue_capacity is the job count, then drain().
//
// This class keeps mechanism only: threads, locks, queues and state
// transitions. svc/view renders every document from its snapshots, each
// taken in one lock acquisition (status(), liveStats(), drain()).
//
// Execution is one device-run step for single and gang jobs alike
// (runOnDevice): it applies the dispatcher's plumbing (cancel flag, shared
// obs::Recorder, span with device lanes and modeled origin, fault hook) to
// the job's RunConfig once, then runs reconstruct() or, for shards > 1,
// shard::reconstructSharded() — both the same per-iteration protocol.
//
// drain() stops admission, runs the queue dry, joins the device threads and
// builds the SvcReport. The destructor hard-stops instead: it cancels
// everything and joins without running out the queue.
//
// Chaos lane (DESIGN.md §12): with a FaultPlan installed, every dispatch is
// wrapped in a chaos::JobFaultHook that heartbeats its device and may fire
// an injected fault. A watchdog thread declares a device failed when a
// monitored run's heartbeat goes silent past watchdog_ms (stall or death);
// the failed device's queued jobs re-lane onto the survivors immediately
// and its running job is requeued when the stall unwinds — every affected
// job still reaches exactly one terminal state, and a migrated job re-runs
// clean (faults are one-shot per job). Launch faults fail only the job;
// the device survives. Results are device-assignment-independent, so
// migrated and unaffected jobs stay bit-identical to a fault-free run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/fault.h"
#include "core/timer.h"
#include "obs/flight.h"
#include "recon/reconstructor.h"
#include "store/cache.h"
#include "store/wfq.h"
#include "svc/policy.h"
#include "svc/protocol.h"

namespace mbir::svc {

enum class JobState {
  kQueued,
  kRunning,
  kDone,            ///< ran to its stop criterion (converged or budget)
  kCancelled,       ///< cancelled queued, or cooperatively stopped mid-run
  kFailed,          ///< reconstruct() threw
  kDeadlineMissed,  ///< expired while queued; failed fast, never ran
};
const char* jobStateName(JobState s);
bool isTerminal(JobState s);
/// Tenant label value ("" submits land under the default tenant).
std::string tenantLabel(const std::string& tenant);

/// Device d's modeled-clock trace process is kBaseTracePid + d.
inline constexpr int kBaseTracePid = 10;

/// Outcome of one dispatched run: the device-run step's record of a job.
struct JobResult {
  int job_id = -1;
  int device = -1;  ///< device that ran it (gang leader when sharded)
  std::string name;
  bool cancelled = false;  ///< stopped by cancel() at an iteration boundary
  bool failed = false;     ///< the run threw
  std::string error;       ///< exception message when failed
  /// The device's cumulative modeled clock when this job started: also
  /// the modeled seconds it waited behind earlier jobs on its device
  /// (JobStatus::queue_wait_modeled_s), and where its modeled span starts.
  double device_start_modeled_s = 0.0;
  double device_end_modeled_s = 0.0;
  /// Real host wall-clock of this job's run.
  double host_seconds = 0.0;
  RunResult run;
};

struct JobSpec {
  const OwnedProblem* problem = nullptr;  ///< borrowed; must outlive drain
  const Image2D* golden = nullptr;        ///< borrowed; must outlive drain
  RunConfig config;
  std::string name;
  std::string tenant;        ///< "" = default; labels svc.* per-tenant metrics
  int priority = 0;          ///< higher first (priority lane only)
  double deadline_ms = -1.0; ///< host ms from admission; < 0 = none
  bool deterministic = false;
  /// > 1 = single-job multi-device slab sharding (DESIGN.md §13): the image
  /// splits into `shards` row-slabs run as ONE logical job gang-dispatched
  /// over min(shards, surviving devices) devices. Sharded jobs ride the
  /// priority lane only (a sharded+deterministic submit is rejected: the
  /// deterministic lane is round-robin single-device by contract) and
  /// dispatch exclusively — the gang waits until no other job is running,
  /// then occupies every device until its exchange-synchronized run ends.
  int shards = 1;
  /// Halo rows exchanged per outer iteration between adjacent slabs.
  int shard_halo = 1;
  /// Forced per-job fault (chaos/fault.h; kind kNone = no forced fault).
  /// Fires on whatever device dispatches the job, regardless of the plan's
  /// target set; stall/death additionally require the watchdog to be armed
  /// (they are dropped otherwise — nothing could ever resolve them).
  chaos::JobFault fault;
  /// Times this job was already recovered from the WAL by a server restart
  /// (src/store). Counted separately from migrations: a recovered job that
  /// lands on a device that then dies migrates like any other. A recovery
  /// resubmit (> 0) also bypasses the queue-capacity check — the job was
  /// admitted (and acknowledged durable) by a previous incarnation, so
  /// dropping it now would break exactly-once completion.
  int recoveries = 0;
  /// The server attached a cached near-duplicate image as the run's
  /// starting point (RunConfig::initial_image); surfaced in status/report
  /// so equits-saved is measurable.
  bool warm_start = false;
};

struct SubmitOutcome {
  bool accepted = false;
  int job_id = -1;
  /// Admitted via submitCached(): already terminal, result is the cached
  /// image — the client can fetch it immediately.
  bool cache_hit = false;
  std::string reason;  ///< set when rejected
};

/// Point-in-time snapshot of one job (copied under the dispatcher lock;
/// run-outcome fields are meaningful only once the state is terminal).
struct JobStatus {
  int job_id = -1;
  JobState state = JobState::kQueued;
  std::string name;
  std::string tenant;
  int priority = 0;
  bool deterministic = false;
  double deadline_ms = -1.0;
  int shards = 1;         ///< > 1 = gang-dispatched sharded job
  int device = -1;        ///< -1 until dispatched (gang leader when sharded)
  int dispatch_seq = -1;  ///< global dispatch order; -1 = never dispatched
  double queue_wait_host_s = 0.0;
  double service_host_s = 0.0;
  double e2e_host_s = 0.0;
  /// Times this job was requeued off a failed device (queued or running).
  int migrations = 0;
  /// Times this job was recovered from the WAL by a restart (JobSpec).
  int recoveries = 0;
  /// Served straight from the result cache — never dispatched; the run-
  /// outcome fields below carry the cached values.
  bool cache_hit = false;
  /// Ran, but starting from a cached near-duplicate image.
  bool warm_start = false;
  // Terminal summary (from the run, when the job was dispatched):
  bool converged = false;
  double equits = 0.0;
  double final_rmse_hu = 0.0;
  double modeled_seconds = 0.0;
  double queue_wait_modeled_s = 0.0;
  std::string error;
  /// FNV-1a over the result image bits; set when the job produced an image.
  std::uint64_t image_hash = 0;
  bool has_image = false;
};

struct DispatcherOptions {
  int num_devices = 1;
  /// Maximum number of queued (admitted, not yet dispatched) jobs; a
  /// submit beyond it is rejected. Running jobs do not count.
  int queue_capacity = 16;
  obs::Recorder* recorder = nullptr;
  /// Directory automatic flight dumps are written to on deadline miss, job
  /// failure or cancel ("" = no files; dumps stay wire-accessible via the
  /// `flight` verb / flightJson()).
  std::string flight_dir;
  /// Seed-driven fault injection (chaos/fault.h); a disabled (all-zero-
  /// rate) plan means no chaos. Replaceable at runtime via setFaultPlan()
  /// (the wire `chaos` verb).
  chaos::FaultPlan fault_plan;
  /// Per-device watchdog period: a device running a chaos-monitored job
  /// whose heartbeat does not advance for longer than this is declared
  /// failed — its queued and running jobs migrate to the survivors.
  /// <= 0 disarms the watchdog (stall/death faults are then never
  /// injected, since nothing could resolve them). Only chaos-monitored
  /// runs are watched, so an armed watchdog never misfires on plain jobs.
  double watchdog_ms = 0.0;
  /// Weighted fair queuing across tenants (DESIGN.md §14): priority-lane
  /// dispatch picks the backlogged tenant with the lowest virtual time
  /// (store::FairQueue), then the highest priority within that tenant —
  /// so one heavy tenant gets its weight share of dispatch slots, never
  /// the whole machine. Tenants not listed get default_tenant_weight.
  /// With a single tenant (or equal weights) dispatch order is identical
  /// to plain priority scheduling.
  std::map<std::string, double> tenant_weights;
  double default_tenant_weight = 1.0;
  /// Called once per job (off the dispatcher lock) when it reaches a
  /// terminal state, with the terminal snapshot. The server uses it to
  /// append WAL terminal records and populate the result cache. May call
  /// back into the dispatcher (status()/image()); must not block for long
  /// — it runs on device threads between jobs.
  std::function<void(const JobStatus&)> on_terminal;
};

struct DistSummary {
  std::uint64_t count = 0;
  double mean = 0.0, max = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Drain-time summary (rendered as gpumbir.svc_report/1 by svc/view).
struct SvcReport {
  int num_devices = 0;
  int queue_capacity = 0;
  std::uint64_t jobs_submitted = 0;   ///< accepted
  std::uint64_t admission_rejected = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_converged = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_deadline_missed = 0;
  int queue_depth_max = 0;
  double host_seconds = 0.0;  ///< dispatcher construction -> drain complete
  double jobs_per_host_second = 0.0;  ///< done jobs / host_seconds
  DistSummary queue_wait_host_s;
  DistSummary service_host_s;
  DistSummary e2e_host_s;
  double modeled_device_seconds_total = 0.0;
  double makespan_modeled_s = 0.0;
  std::vector<double> device_modeled_s;
  // Chaos lane: plan and watchdog at drain; outcome (0 on fault-free runs):
  chaos::FaultPlan plan;
  double watchdog_ms = 0.0;
  std::uint64_t devices_failed = 0;
  std::uint64_t jobs_migrated = 0;  ///< total migration events
  std::vector<int> failed_devices;
  // Store lane (src/store; all zero without a cache/WAL):
  std::uint64_t cache_hits = 0;    ///< jobs served without dispatching
  std::uint64_t warm_starts = 0;   ///< jobs started from a cached image
  std::uint64_t jobs_recovered = 0;  ///< jobs resubmitted from the WAL
  /// Per-tenant drain summary (p99s per tenant — the WFQ acceptance
  /// surface). Sorted by tenant label; present whenever any job carried a
  /// tenant (the default tenant is labeled "default").
  struct TenantSummary {
    std::string tenant;
    double weight = 1.0;
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_done = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t warm_starts = 0;
    double goodput_jobs_per_s = 0.0;  ///< done / report host_seconds
    DistSummary queue_wait_host_s;
    DistSummary e2e_host_s;
  };
  std::vector<TenantSummary> tenants;
  std::vector<JobStatus> jobs;
};

class Dispatcher {
 public:
  explicit Dispatcher(DispatcherOptions options);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Admit a job (any thread, any time before drain). Rejected — never
  /// queued unboundedly — when the admission queue is full or the
  /// dispatcher is draining.
  SubmitOutcome submit(const JobSpec& spec);

  /// Admit a job that is already complete: an exact result-cache hit. The
  /// job is created directly in the kDone state with the cached image and
  /// outcome — it never occupies a queue slot or a device, so it cannot be
  /// rejected for capacity (only while draining). status/result/report
  /// treat it like any other done job, with cache_hit = true.
  SubmitOutcome submitCached(const JobSpec& spec,
                             const store::ResultCache::Entry& hit);

  /// Cooperative cancel. Queued priority-lane jobs are finalized
  /// immediately (freeing their queue slot); running jobs stop at the next
  /// iteration boundary; queued deterministic-lane jobs keep their slot in
  /// the schedule and run with the flag set (preserving the lane's
  /// per-device clocks). Returns false for unknown ids or already-terminal
  /// jobs.
  bool cancel(int job_id);

  bool knownJob(int job_id) const;
  JobStatus status(int job_id) const;

  /// Install/replace the chaos fault plan and watchdog period at runtime
  /// (the wire `chaos` verb). Takes effect for subsequent dispatches; a
  /// disabled plan turns injection off. Thread-safe.
  void setFaultPlan(const chaos::FaultPlan& plan, double watchdog_ms);
  double watchdogMs() const;

  /// One device's live state (from liveStats()).
  struct LiveDevice {
    int device = 0;
    bool failed = false;    ///< declared failed by the chaos watchdog
    int running_job = -1;   ///< -1 when idle
    double modeled_s = 0.0; ///< cumulative modeled clock at last job end
    int det_lane_depth = 0; ///< queued deterministic jobs bound to it
  };
  /// One in-flight (queued or running) job's snapshot and its age.
  struct LiveJob : JobStatus {
    double age_host_s = 0.0;  ///< host seconds since admission
  };
  /// Live snapshot of the whole dispatcher, taken under the dispatcher
  /// lock in O(jobs) without stopping the device threads — the lock is
  /// only ever held briefly by dispatch bookkeeping, never across a run,
  /// so a stats scrape cannot pause dispatch.
  struct LiveStats {
    bool accepting = true;
    bool draining = false;
    double uptime_host_s = 0.0;
    int num_devices = 0;
    int queue_capacity = 0;
    int queued = 0;
    int running = 0;
    std::uint64_t submitted = 0;  ///< accepted
    std::uint64_t rejected = 0;
    std::uint64_t finished = 0;   ///< any terminal state
    std::map<int, int> queue_depth_by_priority;  ///< priority lane only
    std::vector<LiveDevice> devices;
    std::vector<LiveJob> in_flight;
    std::uint64_t flight_events = 0;  ///< flight events ever recorded
    std::uint64_t flight_dumps = 0;   ///< automatic dumps triggered
    // Chaos lane (injection is on when plan.enabled()):
    chaos::FaultPlan plan;
    double watchdog_ms = 0.0;
    std::uint64_t devices_failed = 0;
    std::uint64_t jobs_migrated = 0;
    // Store lane:
    std::uint64_t cache_hits = 0;
    std::uint64_t warm_starts = 0;
    std::uint64_t jobs_recovered = 0;
    /// Per-tenant WFQ shares (weight, virtual time, dispatches).
    std::vector<store::FairQueue::Share> tenant_shares;
  };
  LiveStats liveStats() const;

  /// Always-on bounded ring of recent per-device span events, dumped
  /// automatically (to DispatcherOptions::flight_dir when set) whenever a
  /// job misses its deadline, fails, or is cancelled — exactly once per
  /// triggering job — and on demand via flightJson() (SIGUSR1, the wire
  /// `flight` verb).
  obs::FlightRecorder& flightRecorder() { return flight_; }
  std::string flightJson(std::string_view reason) const {
    return flight_.dumpJson(reason);
  }
  /// Block until the job reaches a terminal state; returns the snapshot.
  JobStatus waitTerminal(int job_id) const;

  /// Deliver queued terminal notifications (on_terminal) and flight dumps,
  /// then wait until every notification queued before the call has been
  /// delivered — including ones another thread took off the queue and is
  /// still delivering. A terminal transition queues its notification in the
  /// same critical section that publishes the state, so waitTerminal +
  /// flushNotifications guarantees the store side effects (cache insert,
  /// WAL terminal record) of an observed result have landed — the server
  /// calls this before answering the `result` verb, which makes "finish a
  /// job, then submit a duplicate" hit the cache deterministically.
  void flushNotifications();

  /// Copy of a finished job's image (nullopt when it has none). The one
  /// accessor that serves every finished job's image, cache hits included.
  std::optional<Image2D> image(int job_id) const;

  /// The full run record of a terminal job that ran (throws while it is
  /// queued or running, and for a cache hit, which never ran and has no run
  /// record: its image lives in the cache entry; use image() and
  /// snapshot()). The reference stays valid for the dispatcher's lifetime.
  const JobResult& result(int job_id) const;

  /// Stop admission, run every queued job to termination, join the device
  /// threads, build the report. Safe to call from any thread (including a
  /// server connection handler); concurrent/repeat callers all get the
  /// same report.
  const SvcReport& drain();

 private:
  struct Job {
    int id = -1;
    JobSpec spec;
    std::chrono::steady_clock::time_point admit_tp;
    JobState state = JobState::kQueued;
    std::atomic<bool> cancel{false};
    int det_seq = -1;
    int dispatch_seq = -1;
    int device = -1;  ///< set under the lock at dispatch (result.device is
                      ///< rewritten off-lock by the run; never read it live)
    double queue_wait_host_s = 0.0;
    double service_host_s = 0.0;
    double e2e_host_s = 0.0;
    std::uint64_t image_hash = 0;
    bool has_image = false;
    int migrations = 0;        ///< times requeued off a failed device
    bool cache_hit = false;    ///< created terminal from the result cache
    /// A cache hit's image: the cache entry's own, shared rather than
    /// copied, so a hit adds no image to the job table.
    std::shared_ptr<const Image2D> cached_image;
    bool fault_fired = false;  ///< one-shot: migrated jobs re-run clean
    bool hooked = false;       ///< current run heartbeats (watchdog applies)
    /// The job's identity for trace spans and flight events; filled at
    /// admission, completed (device/lane) at dispatch — both under the
    /// lock, before the device thread reads it.
    obs::JobSpanContext span;
    JobResult result;
  };

  /// Count a rejected submit and return its outcome.
  SubmitOutcome rejectLocked(std::string reason);
  /// Append an accepted job: identity, admission time, span context.
  Job& admitLocked(const JobSpec& spec, double submit_t0_us);
  /// The admission's control-lane flight event and svc.submit span.
  void recordAdmitLocked(const Job& job, const char* kind, double value);
  void deviceLoop(int device);
  /// The device-run step shared by single and gang jobs (see the file
  /// comment); runs off the lock, fills job.result, records the busy-time
  /// metric and svc.job spans, and returns the device clock after the job.
  double runOnDevice(Job& job, int device, double start_clock,
                     int gang_devices, gsim::FaultHook* hook);
  /// Select this device's next job with pickNext(), failing the expired
  /// entries it reports.
  Job* pickJobLocked(int device);
  /// Append the job to the queue: priority lane, or its det lane (device
  /// det_seq % D, re-keyed onto the survivors when that device is dead).
  void enqueueLocked(const Job& job);
  void unqueueLocked(int job_id);
  /// Take a queued job out of the queue straight into a terminal state.
  void finalizeQueuedLocked(Job& job, JobState state);
  void noteTerminalLocked(Job& job);
  /// Queue an automatic flight dump (a job that ended badly, a failed
  /// device). File I/O happens later in flushFlightDumps(), off the lock.
  void requestFlightDumpLocked(std::string stem, std::string reason);
  /// Flush deferred off-lock side effects: automatic flight-dump file I/O
  /// and on_terminal notifications (WAL/cache writes in the server). Called
  /// wherever terminal transitions may have queued work, after mu_ is
  /// released.
  void flushFlightDumps();
  JobStatus snapshotLocked(const Job& job) const;
  const Job& jobLocked(int job_id) const;  ///< throws for unknown ids
  int runningLocked() const;  ///< devices running a job (a gang counts once)
  /// The one warm-start definition: a dispatched job, terminal, whose run
  /// started from a cached image (run.warm_started is published by the
  /// terminal transition).
  static bool warmStarted(const Job& job);
  // Chaos lane:
  /// Samples per-device heartbeats; declares a device failed when a
  /// monitored run goes silent past watchdog_ms_. Sleeps while disarmed.
  void watchdogLoop();
  void stopWatchdog();  ///< idempotent; called under drain_mu_
  std::vector<int> survivorsLocked() const;  ///< non-failed device ids
  /// Mark the device failed, re-lane its queued deterministic jobs onto
  /// the survivors (in queue order), wake anything parked on its
  /// chaos channel. The *running* job, if any, is migrated later by the
  /// device thread itself when its run unwinds.
  void declareDeviceFailedLocked(int device, const std::string& reason);
  /// Record a migration event for `job` and requeue it on the survivors
  /// (or finalize it as failed when no device survives).
  void migrateLocked(Job& job, int from_device);

  DispatcherOptions opt_;
  WallTimer lifetime_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_work_;  ///< queue / shutdown changes
  mutable std::condition_variable cv_done_;  ///< job became terminal
  std::deque<Job> jobs_;  // deque: jobs hold atomics, must never relocate
  std::vector<QueueEntry> queue_;          ///< queued jobs, enqueue order
  std::vector<double> device_clock_;       ///< cumulative modeled clock
  std::vector<int> device_running_;        ///< running job id per device; -1 idle
  /// Automatic flight dumps waiting for file I/O: (file stem, reason).
  std::vector<std::pair<std::string, std::string>> pending_flight_;
  /// Terminal snapshots waiting for the on_terminal callback (off-lock).
  std::vector<JobStatus> pending_terminal_;
  /// Delivery watermark for flushNotifications(). Notifications are
  /// numbered in queue order: terminal_posted_ counts every one posted,
  /// terminal_taken_ those already swapped out of pending_terminal_, and
  /// terminal_delivering_ holds the first number of each batch still being
  /// delivered. Everything below the watermark (the lowest in-flight batch,
  /// else terminal_taken_) has been delivered.
  std::uint64_t terminal_posted_ = 0;
  std::uint64_t terminal_taken_ = 0;
  std::set<std::uint64_t> terminal_delivering_;
  mutable std::condition_variable cv_delivered_;
  /// Weighted fair queuing across tenants (guarded by mu_).
  store::FairQueue fq_;
  /// A sharded job is running: it owns every device, so no other pick may
  /// dispatch until it finishes (cleared by the gang leader's thread).
  bool gang_active_ = false;
  int det_count_ = 0;
  int dispatch_count_ = 0;
  int queue_depth_max_ = 0;
  std::uint64_t rejected_ = 0;
  bool accepting_ = true;
  bool draining_ = false;
  bool stop_ = false;

  // Chaos lane (guarded by mu_ except where noted). The injector is
  // shared_ptr so a runtime plan swap cannot free a plan a device thread
  // is still deciding with.
  std::shared_ptr<const chaos::FaultInjector> injector_;
  chaos::FaultPlan plan_;
  double watchdog_ms_ = 0.0;
  std::deque<chaos::DeviceChaos> chaos_dev_;  ///< stable addresses; one per device
  std::vector<char> device_failed_;
  mutable std::condition_variable cv_watchdog_;
  bool watchdog_exit_ = false;
  std::thread watchdog_;

  std::vector<std::thread> devices_;
  bool joined_ = false;  ///< device threads joined (guarded by drain_mu_)

  std::mutex drain_mu_;  ///< serializes drain() / destructor teardown
  SvcReport report_;

  // svc.* instruments, resolved once at construction (nullptr = metrics off).
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* done = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* service_time = nullptr;
    obs::Histogram* e2e = nullptr;
    obs::Counter* flight_dumps = nullptr;
    obs::Counter* device_failed = nullptr;  ///< sched.device.failed
    obs::Counter* migrated = nullptr;       ///< svc.jobs.migrated
  } inst_;

  obs::FlightRecorder flight_;  // after opt_: one lane per device
};

}  // namespace mbir::svc
