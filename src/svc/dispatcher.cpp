#include "svc/dispatcher.h"

#include <algorithm>

#include "core/error.h"
#include "core/hash.h"
#include "shard/shard_job.h"
#include "svc/view.h"

namespace mbir::svc {

namespace {

double secondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::string tenantLabel(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kDeadlineMissed: return "deadline_missed";
  }
  return "?";
}

bool isTerminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

Dispatcher::Dispatcher(DispatcherOptions options)
    : opt_(std::move(options)), flight_(opt_.num_devices) {
  MBIR_CHECK_MSG(opt_.num_devices >= 1, "dispatcher needs at least one device");
  MBIR_CHECK_MSG(opt_.queue_capacity >= 1, "queue capacity must be >= 1");
  opt_.fault_plan.validate();
  {
    // FairQueue keys are the normalized labels pickAndCharge sees, so a
    // weight configured for "" (the default tenant) must land on "default".
    std::map<std::string, double> weights;
    for (const auto& [tenant, w] : opt_.tenant_weights)
      weights[tenantLabel(tenant)] = w;
    fq_.configure(weights, opt_.default_tenant_weight);
  }
  device_clock_.assign(std::size_t(opt_.num_devices), 0.0);
  device_running_.assign(std::size_t(opt_.num_devices), -1);
  device_failed_.assign(std::size_t(opt_.num_devices), 0);
  chaos_dev_.resize(std::size_t(opt_.num_devices));
  plan_ = opt_.fault_plan;
  watchdog_ms_ = opt_.watchdog_ms;
  if (plan_.enabled())
    injector_ = std::make_shared<const chaos::FaultInjector>(plan_);

  obs::Recorder* rec = opt_.recorder;
  if (rec && rec->metricsOn()) {
    obs::MetricsRegistry& m = rec->metrics();
    inst_.submitted = &m.counter("svc.jobs.submitted");
    inst_.rejected = &m.counter("svc.admission.rejected");
    inst_.done = &m.counter("svc.jobs.done");
    inst_.cancelled = &m.counter("svc.jobs.cancelled");
    inst_.failed = &m.counter("svc.jobs.failed");
    inst_.deadline_missed = &m.counter("svc.jobs.deadline_missed");
    inst_.queue_depth = &m.gauge("svc.queue.depth");
    inst_.queue_wait = &m.histogram("svc.queue_wait_host_s");
    inst_.service_time = &m.histogram("svc.job.service_host_s");
    inst_.e2e = &m.histogram("svc.job.e2e_host_s");
    inst_.flight_dumps = &m.counter("svc.flight.dumps");
    inst_.device_failed = &m.counter("sched.device.failed");
    inst_.migrated = &m.counter("svc.jobs.migrated");
    m.gauge("svc.devices").set(double(opt_.num_devices));
    m.gauge("svc.queue.capacity").set(double(opt_.queue_capacity));
  }
  if (rec && rec->traceOn()) {
    // Host-clock lanes: tid 0 is the control plane (submits), tid d+1 one
    // lane per device so each device's queue/job/iteration/launch spans
    // nest in their own row next to the modeled per-device processes.
    rec->trace().nameThread(int(obs::Clock::kHost), 0, "svc control", 0);
    for (int d = 0; d < opt_.num_devices; ++d) {
      rec->trace().nameProcess(kBaseTracePid + d,
                               "svc device " + std::to_string(d) + " (modeled)",
                               /*sort_index=*/kBaseTracePid + d);
      rec->trace().nameThread(int(obs::Clock::kHost), d + 1,
                              "svc device " + std::to_string(d) + " (host)",
                              /*sort_index=*/d + 1);
    }
  }

  devices_.reserve(std::size_t(opt_.num_devices));
  for (int d = 0; d < opt_.num_devices; ++d)
    devices_.emplace_back([this, d] { deviceLoop(d); });
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

Dispatcher::~Dispatcher() {
  std::lock_guard drain_lock(drain_mu_);
  if (!joined_) {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
      // Hard stop: running jobs get the cooperative flag so the device
      // threads return at the next iteration boundary; queued jobs never run.
      for (Job& job : jobs_)
        if (!isTerminal(job.state)) job.cancel.store(true, std::memory_order_release);
      cv_work_.notify_all();
    }
    // Wake any run parked on a chaos channel (stalled or dead device) so
    // its device thread can unwind and exit; nothing dispatches again.
    for (chaos::DeviceChaos& ch : chaos_dev_) ch.abandon();
    for (std::thread& t : devices_) t.join();
    joined_ = true;
  }
  stopWatchdog();
}

void Dispatcher::stopWatchdog() {
  if (!watchdog_.joinable()) return;
  {
    std::lock_guard lock(mu_);
    watchdog_exit_ = true;
  }
  cv_watchdog_.notify_all();
  watchdog_.join();
}

void Dispatcher::setFaultPlan(const chaos::FaultPlan& plan, double watchdog_ms) {
  plan.validate();
  std::lock_guard lock(mu_);
  plan_ = plan;
  watchdog_ms_ = watchdog_ms;
  injector_ = plan_.enabled()
                  ? std::make_shared<const chaos::FaultInjector>(plan_)
                  : nullptr;
  cv_watchdog_.notify_all();
}

double Dispatcher::watchdogMs() const {
  std::lock_guard lock(mu_);
  return watchdog_ms_;
}

SubmitOutcome Dispatcher::rejectLocked(std::string reason) {
  ++rejected_;
  if (inst_.rejected) inst_.rejected->add();
  SubmitOutcome out;
  out.reason = std::move(reason);
  return out;
}

Dispatcher::Job& Dispatcher::admitLocked(const JobSpec& spec,
                                         double submit_t0_us) {
  const int id = int(jobs_.size());
  Job& job = jobs_.emplace_back();
  job.id = id;
  job.spec = spec;
  job.admit_tp = std::chrono::steady_clock::now();
  job.result.job_id = id;
  job.result.name =
      spec.name.empty() ? "job" + std::to_string(id) : spec.name;
  // The job's span context: identity now, device/lane at dispatch. The
  // flight sink is unconditional (the ring is always on); trace fields
  // only matter when a trace recorder exists.
  job.span.job_id = id;
  job.span.tenant = spec.tenant;
  job.span.job_name = job.result.name;
  job.span.submit_host_us = submit_t0_us;
  job.span.flight = &flight_;
  if (inst_.submitted) inst_.submitted->add();
  obs::Recorder* rec = opt_.recorder;
  if (spec.recoveries > 0 && rec && rec->metricsOn())
    rec->metrics().counter("svc.jobs.recovered").add();
  return job;
}

void Dispatcher::recordAdmitLocked(const Job& job, const char* kind,
                                   double value) {
  obs::FlightEvent fev;
  fev.job_id = job.id;
  fev.kind = kind;
  fev.detail = tenantLabel(job.spec.tenant) + ":" + job.result.name;
  fev.value = value;
  flight_.record(obs::FlightRecorder::kControlLane, std::move(fev));
  obs::Recorder* rec = opt_.recorder;
  if (!rec || !rec->traceOn()) return;
  obs::TraceEvent ev;
  ev.name = "svc.submit";
  ev.cat = "svc";
  ev.clock = obs::Clock::kHost;
  ev.ts_us = job.span.submit_host_us;
  ev.dur_us = rec->trace().nowHostUs() - job.span.submit_host_us;
  ev.tid = 0;  // control lane
  obs::tagSpan(ev, job.span);
  if (job.cache_hit)
    ev.num_args.emplace_back("cache_hit", 1.0);
  else
    ev.num_args.emplace_back("priority", double(job.spec.priority));
  rec->trace().record(std::move(ev));
}

SubmitOutcome Dispatcher::submit(const JobSpec& spec) {
  MBIR_CHECK_MSG(spec.problem && spec.golden, "job needs a problem and golden");
  std::string invalid;
  if (spec.shards < 1) {
    invalid = "shards must be >= 1";
  } else if (!(spec.deadline_ms <= kMaxDeadlineMs)) {
    invalid = "deadline_ms must be finite and <= 1e12";
  } else if (spec.shards > 1 && spec.deterministic) {
    invalid = "sharded jobs cannot use the deterministic lane "
              "(round-robin single-device by contract)";
  } else if (spec.shards > 1) {
    // Build-or-reject the slab plan at the door so a bad geometry fails
    // the submit, never the job: makeShardPlan validates slab heights and
    // the halo fit.
    try {
      shard::makeShardPlan(spec.problem->geometry().image_size, spec.shards,
                           spec.shard_halo, spec.config.gpu.seed);
    } catch (const std::exception& e) {
      invalid = e.what();
    }
  }
  obs::Recorder* rec = opt_.recorder;
  const double submit_t0_us =
      rec && rec->traceOn() ? rec->trace().nowHostUs() : 0.0;
  std::lock_guard lock(mu_);
  if (!invalid.empty()) return rejectLocked(std::move(invalid));
  if (!accepting_) return rejectLocked("service is draining");
  // A WAL-recovery resubmit (recoveries > 0) bypasses the capacity check:
  // the job was admitted and acknowledged durable by a previous server
  // incarnation, so rejecting it now would break exactly-once completion.
  if (spec.recoveries == 0 && int(queue_.size()) >= opt_.queue_capacity)
    return rejectLocked("admission queue full (" +
                        std::to_string(opt_.queue_capacity) + " queued)");
  if (survivorsLocked().empty())
    return rejectLocked("no surviving devices (all " +
                        std::to_string(opt_.num_devices) + " failed)");

  Job& job = admitLocked(spec, submit_t0_us);
  const int id = job.id;
  if (spec.deterministic) job.det_seq = det_count_++;
  enqueueLocked(job);
  recordAdmitLocked(job, "admit", double(spec.priority));

  SubmitOutcome out;
  out.accepted = true;
  out.job_id = id;
  return out;
}

SubmitOutcome Dispatcher::submitCached(const JobSpec& spec,
                                       const store::ResultCache::Entry& hit) {
  obs::Recorder* rec = opt_.recorder;
  const double submit_t0_us =
      rec && rec->traceOn() ? rec->trace().nowHostUs() : 0.0;
  SubmitOutcome out;
  {
    std::lock_guard lock(mu_);
    if (!accepting_) return rejectLocked("service is draining");
    Job& job = admitLocked(spec, submit_t0_us);
    // Born terminal: the cached image IS the result. No queue slot, no
    // dispatch (dispatch_seq stays -1), no device time — so a hit cannot
    // be rejected for capacity and never perturbs the WFQ shares.
    job.cache_hit = true;
    job.cached_image = hit.image;
    job.result.run.converged = hit.meta.converged;
    job.result.run.equits = hit.meta.equits;
    job.result.run.final_rmse_hu = hit.meta.final_rmse_hu;
    job.result.run.modeled_seconds = hit.meta.modeled_seconds;
    job.has_image = true;
    job.image_hash = hit.meta.image_hash;
    job.e2e_host_s = 0.0;
    job.state = JobState::kDone;
    // The flight value is the device work the hit saved.
    recordAdmitLocked(job, "cache_hit", hit.meta.equits);
    if (rec && rec->metricsOn())
      rec->metrics()
          .counter("svc.cache.hits", {{"tenant", tenantLabel(spec.tenant)}})
          .add();
    noteTerminalLocked(job);
    out.accepted = true;
    out.job_id = job.id;
    out.cache_hit = true;
  }
  // noteTerminalLocked may have queued an on_terminal notification.
  flushFlightDumps();
  return out;
}

bool Dispatcher::cancel(int job_id) {
  {
    std::lock_guard lock(mu_);
    if (job_id < 0 || job_id >= int(jobs_.size())) return false;
    Job& job = jobs_[std::size_t(job_id)];
    if (isTerminal(job.state)) return false;
    if (job.state == JobState::kQueued && !job.spec.deterministic) {
      // Drop it from the queue right now, freeing its admission slot.
      finalizeQueuedLocked(job, JobState::kCancelled);
    } else {
      // Running jobs stop cooperatively; queued deterministic-lane jobs
      // keep their schedule slot and run with the flag set (the lane's
      // per-device clocks stay those of the uncancelled schedule).
      job.cancel.store(true, std::memory_order_release);
    }
  }
  // A queued-cancel finalization may have requested a flight dump; write
  // it here, off the dispatcher lock.
  flushFlightDumps();
  return true;
}

bool Dispatcher::knownJob(int job_id) const {
  std::lock_guard lock(mu_);
  return job_id >= 0 && job_id < int(jobs_.size());
}

const Dispatcher::Job& Dispatcher::jobLocked(int job_id) const {
  MBIR_CHECK_MSG(job_id >= 0 && job_id < int(jobs_.size()),
                 "unknown job id " << job_id);
  return jobs_[std::size_t(job_id)];
}

JobStatus Dispatcher::status(int job_id) const {
  std::lock_guard lock(mu_);
  return snapshotLocked(jobLocked(job_id));
}

JobStatus Dispatcher::waitTerminal(int job_id) const {
  std::unique_lock lock(mu_);
  const Job& job = jobLocked(job_id);
  cv_done_.wait(lock, [&] { return isTerminal(job.state); });
  return snapshotLocked(job);
}

std::optional<Image2D> Dispatcher::image(int job_id) const {
  std::lock_guard lock(mu_);
  const Job& job = jobLocked(job_id);
  // The run writes job.result without the lock; only a terminal state
  // (published under the lock) guarantees those writes are visible here.
  if (!isTerminal(job.state) || !job.has_image) return std::nullopt;
  return job.cache_hit ? *job.cached_image : job.result.run.image;
}

const JobResult& Dispatcher::result(int job_id) const {
  std::lock_guard lock(mu_);
  const Job& job = jobLocked(job_id);
  // Same publication rule as image(): only a terminal state makes the
  // run's off-lock writes visible, and nothing writes them afterwards.
  MBIR_CHECK_MSG(isTerminal(job.state),
                 "job " << job_id << " is not terminal yet");
  MBIR_CHECK_MSG(!job.cache_hit, "job " << job_id
                                         << " was served from the result "
                                            "cache and has no run record");
  return job.result;
}

Dispatcher::Job* Dispatcher::pickJobLocked(int device) {
  const auto now = std::chrono::steady_clock::now();
  const Pick pick =
      pickNext(queue_, device, now, gang_active_, runningLocked() > 0, fq_);
  const int winner =
      pick.index >= 0 ? queue_[std::size_t(pick.index)].job_id : -1;
  std::vector<int> expired;
  for (std::size_t i : pick.expired) expired.push_back(queue_[i].job_id);
  for (int id : expired)
    finalizeQueuedLocked(jobs_[std::size_t(id)], JobState::kDeadlineMissed);
  if (winner < 0) return nullptr;
  unqueueLocked(winner);
  Job& job = jobs_[std::size_t(winner)];
  if (job.spec.shards > 1) gang_active_ = true;
  job.state = JobState::kRunning;
  job.dispatch_seq = dispatch_count_++;
  job.queue_wait_host_s = secondsBetween(job.admit_tp, now);
  job.device = device;
  // Complete the span context before the device thread (this thread)
  // reads it off-lock: which device, which trace lanes.
  job.span.device = device;
  job.span.trace_pid = kBaseTracePid + device;
  job.span.host_tid = device + 1;
  device_running_[std::size_t(device)] = job.id;
  {
    obs::FlightEvent fev;
    fev.job_id = job.id;
    fev.kind = "dispatch";
    fev.detail = tenantLabel(job.spec.tenant) + ":" + job.result.name;
    fev.value = job.queue_wait_host_s;
    flight_.record(obs::FlightRecorder::deviceLane(device), std::move(fev));
  }
  obs::Recorder* rec = opt_.recorder;
  if (rec && rec->traceOn()) {
    // The queue wait as an explicit span on the device's host lane,
    // recorded retroactively now that the device is known: it starts at
    // admission and ends here, so submit → queue → job read as one
    // nested chain per job in the trace.
    obs::TraceEvent ev;
    ev.name = "svc.queue";
    ev.cat = "svc";
    ev.clock = obs::Clock::kHost;
    ev.ts_us = job.span.submit_host_us;
    ev.dur_us = rec->trace().nowHostUs() - job.span.submit_host_us;
    ev.tid = job.span.host_tid;
    obs::tagSpan(ev, job.span);
    ev.num_args.emplace_back("queue_wait_host_s", job.queue_wait_host_s);
    ev.num_args.emplace_back("priority", double(job.spec.priority));
    rec->trace().record(std::move(ev));
  }
  return &job;
}

void Dispatcher::enqueueLocked(const Job& job) {
  QueueEntry e;
  e.job_id = job.id;
  if (job.spec.deterministic) {
    e.lane = job.det_seq % opt_.num_devices;
    if (device_failed_[std::size_t(e.lane)]) {
      // The natural lane is dead; re-key onto the survivors (non-empty:
      // callers check) by the det sequence number, so the same failure
      // sequence re-lanes the same way on every replay — and results never
      // depend on the device. Appending keeps each lane in submission order.
      const std::vector<int> survivors = survivorsLocked();
      e.lane = survivors[std::size_t(job.det_seq) % survivors.size()];
    }
  }
  e.tenant = tenantLabel(job.spec.tenant);
  e.priority = job.spec.priority;
  e.gang = job.spec.shards > 1;
  if (job.spec.deadline_ms >= 0.0)
    e.deadline =
        job.admit_tp +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(job.spec.deadline_ms));
  queue_.push_back(std::move(e));
  queue_depth_max_ = std::max(queue_depth_max_, int(queue_.size()));
  if (inst_.queue_depth) inst_.queue_depth->set(double(queue_.size()));
  cv_work_.notify_all();
}

void Dispatcher::unqueueLocked(int job_id) {
  queue_.erase(std::find_if(
      queue_.begin(), queue_.end(),
      [&](const QueueEntry& e) { return e.job_id == job_id; }));
  if (inst_.queue_depth) inst_.queue_depth->set(double(queue_.size()));
  // Peers idle in drain mode only exit once the queue is empty — tell them.
  if (draining_ && queue_.empty()) cv_work_.notify_all();
}

void Dispatcher::finalizeQueuedLocked(Job& job, JobState state) {
  unqueueLocked(job.id);
  job.state = state;
  const auto now = std::chrono::steady_clock::now();
  job.queue_wait_host_s = secondsBetween(job.admit_tp, now);
  job.e2e_host_s = job.queue_wait_host_s;
  noteTerminalLocked(job);
}

void Dispatcher::noteTerminalLocked(Job& job) {
  // device may be -1 for a once-dispatched job that was migrated off a
  // failed device and finalized from the queue.
  if (job.dispatch_seq >= 0 && job.device >= 0)
    device_running_[std::size_t(job.device)] = -1;
  switch (job.state) {
    case JobState::kDone:
      if (inst_.done) inst_.done->add();
      break;
    case JobState::kCancelled:
      if (inst_.cancelled) inst_.cancelled->add();
      break;
    case JobState::kFailed:
      if (inst_.failed) inst_.failed->add();
      break;
    case JobState::kDeadlineMissed:
      if (inst_.deadline_missed) inst_.deadline_missed->add();
      break;
    default:
      break;
  }
  if (job.state != JobState::kDone) {
    const std::string reason = jobStateName(job.state);
    requestFlightDumpLocked(reason + "_job" + std::to_string(job.id),
                            reason + " job " + std::to_string(job.id));
  }
  if (inst_.queue_wait) inst_.queue_wait->observe(job.queue_wait_host_s);
  if (inst_.e2e) inst_.e2e->observe(job.e2e_host_s);
  if (job.dispatch_seq >= 0 && inst_.service_time)
    inst_.service_time->observe(job.service_host_s);
  obs::Recorder* rec = opt_.recorder;
  if (rec && rec->metricsOn()) {
    // Per-tenant outcome + latency, labeled — the wire `stats` verb and
    // svc_report surface these next to the aggregate svc.* series.
    const std::string tenant = tenantLabel(job.spec.tenant);
    if (warmStarted(job))
      rec->metrics().counter("svc.cache.warm_starts", {{"tenant", tenant}}).add();
    if (job.state == JobState::kDone)
      rec->metrics().counter("svc.jobs.done", {{"tenant", tenant}}).add();
    rec->metrics()
        .histogram("svc.job.e2e_host_s", {{"tenant", tenant}})
        .observe(job.e2e_host_s);
  }
  {
    // Terminal flight event on the lane that owned the job (control lane
    // when it never dispatched).
    obs::FlightEvent fev;
    fev.job_id = job.id;
    fev.kind = jobStateName(job.state);
    fev.detail = job.result.error.empty() ? tenantLabel(job.spec.tenant)
                                          : job.result.error;
    fev.value = job.e2e_host_s;
    const int lane = job.dispatch_seq >= 0 && job.device >= 0
                         ? obs::FlightRecorder::deviceLane(job.device)
                         : obs::FlightRecorder::kControlLane;
    flight_.record(lane, std::move(fev));
  }
  // Hand the terminal snapshot to the server (WAL terminal record, cache
  // insert) — invoked later, off the lock, by flushFlightDumps().
  if (opt_.on_terminal) {
    pending_terminal_.push_back(snapshotLocked(job));
    ++terminal_posted_;
  }
  // In drain mode device threads only exit once everything is terminal
  // (a migration can put work back in the queue after it looked empty).
  if (draining_ && queue_.empty() && runningLocked() == 0) cv_work_.notify_all();
  cv_done_.notify_all();
}

void Dispatcher::requestFlightDumpLocked(std::string stem,
                                         std::string reason) {
  pending_flight_.emplace_back(std::move(stem), std::move(reason));
  if (inst_.flight_dumps) inst_.flight_dumps->add();
}

void Dispatcher::flushFlightDumps() {
  std::vector<std::pair<std::string, std::string>> pending;
  std::vector<JobStatus> terminal;
  std::uint64_t batch = 0;  // number of this batch's first notification
  {
    std::lock_guard lock(mu_);
    pending.swap(pending_flight_);
    terminal.swap(pending_terminal_);
    if (!terminal.empty()) {
      batch = terminal_taken_;
      terminal_delivering_.insert(batch);
      terminal_taken_ = terminal_posted_;
    }
  }
  if (!opt_.flight_dir.empty())
    for (const auto& [stem, reason] : pending)
      flight_.writeFile(opt_.flight_dir + "/flight_" + stem + ".json", reason);
  if (terminal.empty()) return;
  // Retire the batch even if a callback throws, or flushNotifications()
  // would wait on it forever.
  struct Retire {
    Dispatcher& d;
    std::uint64_t batch;
    ~Retire() {
      std::lock_guard lock(d.mu_);
      d.terminal_delivering_.erase(batch);
      d.cv_delivered_.notify_all();
    }
  } retire{*this, batch};
  for (const JobStatus& s : terminal) opt_.on_terminal(s);
}

void Dispatcher::flushNotifications() {
  std::uint64_t target;
  {
    std::lock_guard lock(mu_);
    target = terminal_posted_;
  }
  flushFlightDumps();
  std::unique_lock lock(mu_);
  cv_delivered_.wait(lock, [&] {
    const std::uint64_t delivered = terminal_delivering_.empty()
                                        ? terminal_taken_
                                        : *terminal_delivering_.begin();
    return delivered >= target;
  });
}

std::vector<int> Dispatcher::survivorsLocked() const {
  std::vector<int> alive;
  for (int d = 0; d < opt_.num_devices; ++d)
    if (!device_failed_[std::size_t(d)]) alive.push_back(d);
  return alive;
}

void Dispatcher::migrateLocked(Job& job, int from_device) {
  ++job.migrations;
  if (inst_.migrated) inst_.migrated->add();
  {
    obs::FlightEvent fev;
    fev.job_id = job.id;
    fev.kind = "migrate";
    fev.detail = "off failed device " + std::to_string(from_device);
    fev.value = double(job.migrations);
    flight_.record(obs::FlightRecorder::deviceLane(from_device),
                   std::move(fev));
  }
  job.device = -1;
  if (survivorsLocked().empty()) {
    // Nothing left to run it on: the migration dead-ends as a failure so
    // the job still reaches exactly one terminal state and drain() cannot
    // hang waiting for it.
    job.result.error = "no surviving devices";
    job.state = JobState::kFailed;
    job.e2e_host_s =
        secondsBetween(job.admit_tp, std::chrono::steady_clock::now());
    noteTerminalLocked(job);
    return;
  }
  job.state = JobState::kQueued;
  enqueueLocked(job);
}

void Dispatcher::declareDeviceFailedLocked(int device,
                                           const std::string& reason) {
  if (device_failed_[std::size_t(device)]) return;
  device_failed_[std::size_t(device)] = 1;
  if (inst_.device_failed) inst_.device_failed->add();
  {
    obs::FlightEvent fev;
    fev.job_id = device_running_[std::size_t(device)];  // -1 when idle
    fev.kind = "device_failed";
    fev.detail = reason;
    fev.value = double(device);
    flight_.record(obs::FlightRecorder::deviceLane(device), std::move(fev));
  }
  requestFlightDumpLocked("device_failed_dev" + std::to_string(device),
                          "device " + std::to_string(device) +
                              " failed: " + reason);

  // Re-lane the dead device's queued deterministic jobs onto the survivors
  // in submission order. Its running job (if any) is migrated by the device
  // thread itself once the abandoned run unwinds — the run owns job.result.
  std::vector<int> lane;
  for (const QueueEntry& e : queue_)
    if (e.lane == device) lane.push_back(e.job_id);
  for (int id : lane) {
    unqueueLocked(id);  // migrateLocked re-appends (or fails the job)
    migrateLocked(jobs_[std::size_t(id)], device);
  }
  if (survivorsLocked().empty()) {
    // Total outage: nothing queued can ever run. Fail the priority lane
    // out so every job still terminates and drain() returns.
    while (!queue_.empty()) {
      Job& job = jobs_[std::size_t(queue_.front().job_id)];
      job.result.error = "no surviving devices";
      finalizeQueuedLocked(job, JobState::kFailed);
    }
  }
  // Wake a run parked on this device (stall/death) and any device thread
  // waiting for work.
  chaos_dev_[std::size_t(device)].abandon();
  cv_work_.notify_all();
}

void Dispatcher::watchdogLoop() {
  std::unique_lock lock(mu_);
  const int D = opt_.num_devices;
  std::vector<std::uint64_t> last_beat(std::size_t(D), 0);
  std::vector<std::chrono::steady_clock::time_point> last_progress(
      std::size_t(D), std::chrono::steady_clock::now());
  while (!stop_ && !watchdog_exit_) {
    if (watchdog_ms_ <= 0.0) {
      // Disarmed: sleep until a plan install arms us (or teardown).
      cv_watchdog_.wait(lock);
      const auto now = std::chrono::steady_clock::now();
      for (auto& t : last_progress) t = now;
      continue;
    }
    cv_watchdog_.wait_for(
        lock, std::chrono::duration<double, std::milli>(
                  std::max(5.0, watchdog_ms_ / 4.0)));
    if (stop_ || watchdog_exit_) break;
    const auto now = std::chrono::steady_clock::now();
    for (int d = 0; d < D; ++d) {
      if (device_failed_[std::size_t(d)]) continue;
      const int running = device_running_[std::size_t(d)];
      const std::uint64_t beats = chaos_dev_[std::size_t(d)].beats();
      // Only a device running a chaos-monitored (heartbeating) job can go
      // silent; idle devices and unmonitored runs always count as live.
      if (running < 0 || !jobs_[std::size_t(running)].hooked ||
          beats != last_beat[std::size_t(d)]) {
        last_beat[std::size_t(d)] = beats;
        last_progress[std::size_t(d)] = now;
        continue;
      }
      const double silent_ms =
          std::chrono::duration<double, std::milli>(
              now - last_progress[std::size_t(d)])
              .count();
      if (silent_ms > watchdog_ms_)
        declareDeviceFailedLocked(
            d, "watchdog: no heartbeat for " +
                   std::to_string(int(silent_ms)) + " ms (limit " +
                   std::to_string(int(watchdog_ms_)) + " ms)");
    }
  }
}

double Dispatcher::runOnDevice(Job& job, int device, double start_clock,
                               int gang_devices, gsim::FaultHook* hook) {
  obs::Recorder* rec = opt_.recorder;
  const bool tracing = rec && rec->traceOn();
  const JobSpec& spec = job.spec;
  const bool gang = spec.shards > 1;
  JobResult& r = job.result;
  r.device = device;
  r.device_start_modeled_s = start_clock;
  const double host_t0_us = tracing ? rec->trace().nowHostUs() : 0.0;
  const WallTimer job_wall;

  RunConfig rc = spec.config;
  rc.cancel = &job.cancel;
  rc.external_recorder = rec;
  rc.span = &job.span;
  if (hook) rc.fault_hook = hook;
  try {
    if (gang) {
      // One logical job across the gang, led by this device. The plan was
      // validated at submit with these exact parameters, so this rebuild
      // cannot throw.
      shard::ShardConfig sc;
      sc.plan = shard::makeShardPlan(spec.problem->geometry().image_size,
                                     spec.shards, spec.shard_halo,
                                     spec.config.gpu.seed);
      sc.devices = gang_devices;
      sc.base = std::move(rc);
      r.run = shard::reconstructSharded(*spec.problem, *spec.golden,
                                        std::move(sc))
                  .run;
    } else {
      r.run = reconstruct(*spec.problem, *spec.golden, rc);
    }
    r.cancelled = r.run.cancelled;
  } catch (const std::exception& e) {
    r.failed = true;
    r.error = e.what();
  } catch (...) {
    r.failed = true;
    r.error = "unknown exception";
  }
  r.host_seconds = job_wall.seconds();
  r.device_end_modeled_s = start_clock + r.run.modeled_seconds;

  // Per-device busy time, labeled so the registry splits utilization by
  // device — the live stats verb and svc_report read it back directly.
  // One registry lookup per finished job, not per iteration.
  if (rec && rec->metricsOn())
    rec->metrics()
        .counter("sched.busy_ms", {{"device", std::to_string(device)}})
        .add(std::uint64_t(r.host_seconds * 1e3 + 0.5));

  if (tracing) {
    std::vector<std::pair<std::string, double>> num_args = {
        {"job_id", double(r.job_id)}, {"device", double(device)}};
    if (gang) {
      num_args.emplace_back("devices", double(gang_devices));
      num_args.emplace_back("slabs", double(spec.shards));
    }
    num_args.emplace_back("equits", r.run.equits);
    num_args.emplace_back("rmse_hu", r.run.final_rmse_hu);
    num_args.emplace_back("queue_wait_modeled_s", r.device_start_modeled_s);
    if (r.run.warm_started) num_args.emplace_back("warm_start", 1.0);
    std::vector<std::pair<std::string, std::string>> str_args = {
        {"job", r.name},
        {"algorithm",
         gang ? "GPU-ICD (sharded)" : algorithmName(spec.config.algorithm)}};
    if (!spec.tenant.empty()) str_args.emplace_back("tenant", spec.tenant);
    obs::TraceEvent host_ev;
    host_ev.cat = "svc";
    host_ev.num_args = std::move(num_args);
    host_ev.str_args = std::move(str_args);
    obs::TraceEvent dev_ev = host_ev;  // the job on its device's clock
    host_ev.name = "svc.job";
    host_ev.clock = obs::Clock::kHost;
    host_ev.ts_us = host_t0_us;
    host_ev.dur_us = rec->trace().nowHostUs() - host_t0_us;
    host_ev.tid = job.span.host_tid;
    dev_ev.name = "svc.job." + r.name;
    dev_ev.clock = obs::Clock::kModeled;
    dev_ev.pid = kBaseTracePid + device;
    dev_ev.ts_us = r.device_start_modeled_s * 1e6;
    dev_ev.dur_us = (r.device_end_modeled_s - r.device_start_modeled_s) * 1e6;
    rec->trace().record(std::move(host_ev));
    rec->trace().record(std::move(dev_ev));
  }
  return r.device_end_modeled_s;
}

void Dispatcher::deviceLoop(int device) {
  while (true) {
    Job* job = nullptr;
    chaos::JobFault fault;
    // Start clock and gang width are resolved under the lock at pick time
    // (a gang's clock is a property of every device, not just this one).
    double start_clock = 0.0;
    int gang_devices = 1;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [&] {
        if (stop_ || device_failed_[std::size_t(device)]) return true;
        job = pickJobLocked(device);
        if (job) return true;
        // A migration can put work back after the queue looked empty, so
        // drain-mode exit also requires that nothing is still running.
        return draining_ && queue_.empty() && runningLocked() == 0;
      });
      if (stop_ || device_failed_[std::size_t(device)] || !job) break;
      // Resolve this run's fault while the plan cannot change under us.
      // Forced per-job faults (spec.fault) fire anywhere; plan-decided
      // faults respect the plan's target-device set. One fault per job:
      // a migrated job's re-run is clean, so migration always converges.
      fault = job->spec.fault;
      if (fault.none() && injector_ != nullptr &&
          plan_.targetsDevice(device))
        fault = injector_->jobFault(job->id);
      if (job->fault_fired) fault = chaos::JobFault{};
      if ((fault.kind == chaos::FaultKind::kStall ||
           fault.kind == chaos::FaultKind::kDeath) &&
          watchdog_ms_ <= 0.0)
        fault = chaos::JobFault{};  // no watchdog to notice: would hang forever
      // The watchdog only monitors runs that carry a heartbeating hook.
      job->hooked = injector_ != nullptr || !job->spec.fault.none();
      if (job->spec.shards > 1) {
        // The gang occupies every surviving device: it starts when the
        // slowest of them is free and advances all of their clocks.
        const std::vector<int> alive = survivorsLocked();
        for (int d2 : alive)
          start_clock = std::max(start_clock, device_clock_[std::size_t(d2)]);
        gang_devices = std::min(job->spec.shards, int(alive.size()));
      } else {
        start_clock = device_clock_[std::size_t(device)];
      }
      job->span.modeled_origin_s = start_clock;
    }
    // Deadline-miss finalizations inside pickJobLocked may have requested
    // dumps; write them before the (long) run, off the lock.
    flushFlightDumps();

    if (fault.kind == chaos::FaultKind::kDeath) {
      // The device dies before the kernel ever starts: no heartbeats, so
      // the watchdog declares it failed and abandon() releases us; the job
      // migrates untouched to a survivor.
      chaos_dev_[std::size_t(device)].waitAbandoned();
      {
        std::lock_guard lock(mu_);
        job->fault_fired = true;
        if (job->spec.shards > 1) gang_active_ = false;
        device_running_[std::size_t(device)] = -1;
        migrateLocked(*job, device);
      }
      flushFlightDumps();
      break;  // this device is gone (or the dispatcher is tearing down)
    }

    const WallTimer service_wall;
    chaos::JobFaultHook hook(fault, device, job->id,
                             &chaos_dev_[std::size_t(device)]);
    const double clock_after = runOnDevice(*job, device, start_clock,
                                           gang_devices,
                                           job->hooked ? &hook : nullptr);

    bool device_gone = false;
    {
      std::lock_guard lock(mu_);
      if (hook.fired()) job->fault_fired = true;
      device_gone = device_failed_[std::size_t(device)] != 0;
      if (job->spec.shards > 1) {
        gang_active_ = false;
        cv_work_.notify_all();  // peers idled by the gang can pick again
      }
      if (device_gone && hook.stalled()) {
        // The run froze mid-kernel, the watchdog declared the device dead,
        // and abandon() unwound it via DeviceLost: the outcome is void.
        // Reset the result so the survivor's re-run starts clean. For a
        // sharded job the WHOLE logical job is requeued — a gang member
        // lost mid-halo-exchange can never leave a torn partial image.
        const std::string name = job->result.name;
        job->result = JobResult{};
        job->result.job_id = job->id;
        job->result.name = name;
        job->has_image = false;
        job->image_hash = 0;
        device_running_[std::size_t(device)] = -1;
        migrateLocked(*job, device);
      } else {
        if (job->spec.shards > 1) {
          // The gang ends synchronized: every surviving device's clock
          // advances to the same post-job time.
          for (int d2 : survivorsLocked())
            device_clock_[std::size_t(d2)] = clock_after;
        } else {
          device_clock_[std::size_t(device)] = clock_after;
        }
        job->service_host_s = service_wall.seconds();
        job->e2e_host_s = job->queue_wait_host_s + job->service_host_s;
        const JobResult& r = job->result;
        if (!r.failed && r.run.image.numVoxels() > 0) {
          job->has_image = true;
          job->image_hash = fnv1a64(r.run.image.flat());
        }
        job->state = r.failed      ? JobState::kFailed
                     : r.cancelled ? JobState::kCancelled
                                   : JobState::kDone;
        noteTerminalLocked(*job);
      }
    }
    flushFlightDumps();
    if (device_gone) break;
  }
  flushFlightDumps();
}

JobStatus Dispatcher::snapshotLocked(const Job& job) const {
  JobStatus s;
  s.job_id = job.id;
  s.state = job.state;
  s.name = job.result.name;
  s.tenant = job.spec.tenant;
  s.priority = job.spec.priority;
  s.deterministic = job.spec.deterministic;
  s.deadline_ms = job.spec.deadline_ms;
  s.shards = job.spec.shards;
  s.device = job.device;
  s.dispatch_seq = job.dispatch_seq;
  s.queue_wait_host_s = job.queue_wait_host_s;
  s.service_host_s = job.service_host_s;
  s.e2e_host_s = job.e2e_host_s;
  s.migrations = job.migrations;
  s.recoveries = job.spec.recoveries;
  s.cache_hit = job.cache_hit;
  s.warm_start = job.spec.warm_start;
  if (isTerminal(job.state)) {
    // The error is set under the lock even for jobs that never dispatched
    // (queue finalizations: deadline misses, dead-ended migrations).
    s.error = job.result.error;
  }
  if (isTerminal(job.state) && (job.dispatch_seq >= 0 || job.cache_hit)) {
    // Run-outcome fields are written off-lock during the run; they are
    // published by the terminal-state transition (which holds the lock).
    // Cache-hit jobs never ran, but carry the cached outcome in the same
    // fields (set under the lock in submitCached).
    s.converged = job.result.run.converged;
    s.equits = job.result.run.equits;
    s.final_rmse_hu = job.result.run.final_rmse_hu;
    s.modeled_seconds = job.result.run.modeled_seconds;
    s.queue_wait_modeled_s = job.result.device_start_modeled_s;
    s.image_hash = job.image_hash;
    s.has_image = job.has_image;
  }
  return s;
}

bool Dispatcher::warmStarted(const Job& job) {
  return isTerminal(job.state) && job.dispatch_seq >= 0 &&
         job.result.run.warm_started;
}

int Dispatcher::runningLocked() const {
  return int(std::count_if(device_running_.begin(), device_running_.end(),
                           [](int id) { return id >= 0; }));
}

Dispatcher::LiveStats Dispatcher::liveStats() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mu_);
  LiveStats s;
  s.accepting = accepting_;
  s.draining = draining_;
  s.uptime_host_s = lifetime_.seconds();
  s.num_devices = opt_.num_devices;
  s.queue_capacity = opt_.queue_capacity;
  s.queued = int(queue_.size());
  s.running = runningLocked();
  s.submitted = jobs_.size();
  s.rejected = rejected_;
  s.plan = plan_;
  s.watchdog_ms = watchdog_ms_;
  s.tenant_shares = fq_.snapshot();
  s.devices.reserve(std::size_t(opt_.num_devices));
  for (int d = 0; d < opt_.num_devices; ++d) {
    LiveDevice dev;
    dev.device = d;
    dev.running_job = device_running_[std::size_t(d)];
    dev.failed = device_failed_[std::size_t(d)] != 0;
    dev.modeled_s = device_clock_[std::size_t(d)];
    s.devices_failed += dev.failed;
    s.devices.push_back(std::move(dev));
  }
  for (const QueueEntry& e : queue_) {
    if (e.lane >= 0) ++s.devices[std::size_t(e.lane)].det_lane_depth;
    else ++s.queue_depth_by_priority[e.priority];
  }
  // One automatic flight dump per failed device and per badly ending job.
  s.flight_dumps = s.devices_failed;
  for (const Job& job : jobs_) {
    s.cache_hits += job.cache_hit;
    s.warm_starts += warmStarted(job);
    s.jobs_recovered += job.spec.recoveries > 0;
    s.jobs_migrated += std::uint64_t(job.migrations);
    if (isTerminal(job.state)) {
      ++s.finished;
      s.flight_dumps += job.state != JobState::kDone;
    } else {
      s.in_flight.push_back(
          LiveJob{snapshotLocked(job), secondsBetween(job.admit_tp, now)});
    }
  }
  s.flight_events = flight_.totalRecorded();
  return s;
}

const SvcReport& Dispatcher::drain() {
  std::lock_guard drain_lock(drain_mu_);
  if (joined_) return report_;  // idempotent: repeat callers share the report
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    cv_work_.notify_all();
  }
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return queue_.empty() && runningLocked() == 0; });
  }
  for (std::thread& t : devices_) t.join();
  joined_ = true;
  stopWatchdog();
  flushFlightDumps();  // anything the device threads did not get to

  // Threads are gone; every job is terminal and fully published. The lock
  // still guards against late (rejected) submits, stats scrapes and a
  // `chaos` verb swapping the plan.
  std::lock_guard lock(mu_);
  SvcReport& rep = report_;
  rep.num_devices = opt_.num_devices;
  rep.queue_capacity = opt_.queue_capacity;
  rep.admission_rejected = rejected_;
  rep.queue_depth_max = queue_depth_max_;
  rep.plan = plan_;
  rep.watchdog_ms = watchdog_ms_;
  for (int d = 0; d < opt_.num_devices; ++d)
    if (device_failed_[std::size_t(d)]) rep.failed_devices.push_back(d);
  rep.device_modeled_s = device_clock_;
  std::vector<bool> warm_started;
  for (const Job& job : jobs_) {
    rep.jobs.push_back(snapshotLocked(job));
    warm_started.push_back(warmStarted(job));
  }
  rep.host_seconds = lifetime_.seconds();
  aggregateReport(rep, warm_started, fq_);
  return report_;
}

}  // namespace mbir::svc
