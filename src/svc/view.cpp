#include "svc/view.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "core/error.h"
#include "core/hash.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace mbir::svc {

namespace {

DistSummary summarize(std::vector<double> v) {
  DistSummary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  double sum = 0.0;
  for (double x : v) sum += x;
  s.mean = sum / double(v.size());
  s.max = v.back();
  // Nearest-rank percentiles (exact order statistics, no interpolation).
  auto rank = [&](double p) {
    const std::size_t r = std::size_t(std::ceil(p * double(v.size())));
    return v[std::min(v.size() - 1, r == 0 ? 0 : r - 1)];
  };
  s.p50 = rank(0.50);
  s.p95 = rank(0.95);
  s.p99 = rank(0.99);
  return s;
}

void writeDistSummary(obs::JsonWriter& w, const char* key,
                      const DistSummary& s) {
  w.key(key).beginObject();
  w.kv("count", s.count);
  w.kv("mean", s.mean);
  w.kv("max", s.max);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("p99", s.p99);
  w.endObject();
}

/// The plan half of the chaos block, shared by the live documents and the
/// drain report.
void writeChaosPlan(obs::JsonWriter& w, const chaos::FaultPlan& plan,
                    double watchdog_ms) {
  w.kv("enabled", plan.enabled());
  w.kv("watchdog_ms", watchdog_ms);
  w.key("plan");
  plan.writeJson(w);
}

void writeMetrics(obs::JsonWriter& w, const obs::Recorder* rec) {
  if (!rec || !rec->metricsOn()) return;
  w.key("metrics");
  rec->metrics().writeJson(w);
}

}  // namespace

void writeJobStatus(obs::JsonWriter& w, const JobStatus& s) {
  w.kv("job_id", s.job_id);
  w.kv("name", s.name);
  if (!s.tenant.empty()) w.kv("tenant", s.tenant);
  w.kv("state", jobStateName(s.state));
  w.kv("priority", s.priority);
  w.kv("deterministic", s.deterministic);
  if (s.deadline_ms >= 0.0) w.kv("deadline_ms", s.deadline_ms);
  if (s.shards > 1) w.kv("shards", s.shards);
  w.kv("device", s.device);
  w.kv("dispatch_seq", s.dispatch_seq);
  w.kv("queue_wait_host_s", s.queue_wait_host_s);
  w.kv("service_host_s", s.service_host_s);
  w.kv("e2e_host_s", s.e2e_host_s);
  if (s.migrations > 0) w.kv("migrations", s.migrations);
  if (s.recoveries > 0) w.kv("recoveries", s.recoveries);
  w.kv("cache_hit", s.cache_hit);
  if (s.warm_start) w.kv("warm_start", true);
  if (isTerminal(s.state) && (s.dispatch_seq >= 0 || s.cache_hit)) {
    w.kv("converged", s.converged);
    w.kv("equits", s.equits);
    w.kv("final_rmse_hu", s.final_rmse_hu);
    w.kv("modeled_seconds", s.modeled_seconds);
    w.kv("queue_wait_modeled_s", s.queue_wait_modeled_s);
  }
  if (!s.error.empty()) w.kv("error", s.error);
  // uint64 hashes cross the wire as hex strings: a JSON number (double)
  // only carries 53 bits exactly.
  if (s.has_image) w.kv("image_hash", hashToHex(s.image_hash));
}

void writeServiceCounters(obs::JsonWriter& w, const Dispatcher::LiveStats& s) {
  w.kv("accepting", s.accepting);
  w.kv("queued", s.queued);
  w.kv("running", s.running);
  w.kv("submitted", s.submitted);
  w.kv("rejected", s.rejected);
  w.kv("finished", s.finished);
  w.kv("num_devices", s.num_devices);
  w.kv("queue_capacity", s.queue_capacity);
}

void writeChaos(obs::JsonWriter& w, const Dispatcher::LiveStats& s) {
  writeChaosPlan(w, s.plan, s.watchdog_ms);
  w.kv("devices_failed", s.devices_failed);
  w.kv("jobs_migrated", s.jobs_migrated);
}

std::string statsJson(const Dispatcher::LiveStats& s,
                      const obs::Recorder* rec) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", kStatsSchema);
  writeServiceCounters(w, s);
  w.kv("draining", s.draining);
  w.kv("uptime_host_s", s.uptime_host_s);
  w.key("queue_depth_by_priority").beginObject();
  for (const auto& [prio, n] : s.queue_depth_by_priority)
    w.kv(std::to_string(prio), n);
  w.endObject();
  w.key("devices").beginArray();
  for (const Dispatcher::LiveDevice& d : s.devices) {
    w.beginObject();
    w.kv("device", d.device);
    w.kv("busy", d.running_job >= 0);
    w.kv("failed", d.failed);
    w.kv("running_job", d.running_job);
    w.kv("modeled_s", d.modeled_s);
    w.kv("det_lane_depth", d.det_lane_depth);
    w.endObject();
  }
  w.endArray();
  w.key("in_flight").beginArray();
  for (const Dispatcher::LiveJob& j : s.in_flight) {
    w.beginObject();
    w.kv("job_id", j.job_id);
    w.kv("state", jobStateName(j.state));
    w.kv("name", j.name);
    if (!j.tenant.empty()) w.kv("tenant", j.tenant);
    w.kv("priority", j.priority);
    w.kv("deterministic", j.deterministic);
    w.kv("device", j.device);
    w.kv("age_host_s", j.age_host_s);
    // Negative once the deadline has passed.
    if (j.deadline_ms >= 0.0)
      w.kv("deadline_remaining_ms", j.deadline_ms - j.age_host_s * 1e3);
    w.endObject();
  }
  w.endArray();
  w.key("flight").beginObject();
  w.kv("events_recorded", s.flight_events);
  w.kv("dumps", s.flight_dumps);
  w.endObject();
  w.key("chaos").beginObject();
  writeChaos(w, s);
  w.endObject();
  w.key("store").beginObject();
  w.kv("cache_hits", s.cache_hits);
  w.kv("warm_starts", s.warm_starts);
  w.kv("jobs_recovered", s.jobs_recovered);
  w.key("tenants").beginArray();
  for (const store::FairQueue::Share& sh : s.tenant_shares) {
    w.beginObject();
    w.kv("tenant", sh.tenant);
    w.kv("weight", sh.weight);
    w.kv("vtime", sh.vtime);
    w.kv("served_cost", sh.served_cost);
    w.kv("picks", sh.picks);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  writeMetrics(w, rec);
  w.endObject();
  return w.str();
}

std::string reportJson(const SvcReport& rep, const obs::Recorder* rec) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", kReportSchema);
  w.kv("simd", resolveSimdOps(SimdMode::kDefault).name);
  w.kv("num_devices", rep.num_devices);
  w.kv("queue_capacity", rep.queue_capacity);
  w.kv("jobs_submitted", rep.jobs_submitted);
  w.kv("admission_rejected", rep.admission_rejected);
  w.kv("jobs_done", rep.jobs_done);
  w.kv("jobs_converged", rep.jobs_converged);
  w.kv("jobs_cancelled", rep.jobs_cancelled);
  w.kv("jobs_failed", rep.jobs_failed);
  w.kv("jobs_deadline_missed", rep.jobs_deadline_missed);
  w.kv("devices_failed", rep.devices_failed);
  w.kv("jobs_migrated", rep.jobs_migrated);
  w.kv("cache_hits", rep.cache_hits);
  w.kv("warm_starts", rep.warm_starts);
  w.kv("jobs_recovered", rep.jobs_recovered);
  w.key("failed_devices").beginArray();
  for (int d : rep.failed_devices) w.value(d);
  w.endArray();
  w.key("chaos").beginObject();
  writeChaosPlan(w, rep.plan, rep.watchdog_ms);
  w.endObject();
  w.kv("queue_depth_max", rep.queue_depth_max);
  w.kv("host_seconds", rep.host_seconds);
  w.kv("jobs_per_host_second", rep.jobs_per_host_second);
  writeDistSummary(w, "queue_wait_host_s", rep.queue_wait_host_s);
  writeDistSummary(w, "service_host_s", rep.service_host_s);
  writeDistSummary(w, "e2e_host_s", rep.e2e_host_s);
  w.kv("modeled_device_seconds_total", rep.modeled_device_seconds_total);
  w.kv("makespan_modeled_s", rep.makespan_modeled_s);
  w.key("device_modeled_s").beginArray();
  for (double s : rep.device_modeled_s) w.value(s);
  w.endArray();
  w.key("tenants").beginArray();
  for (const SvcReport::TenantSummary& t : rep.tenants) {
    w.beginObject();
    w.kv("tenant", t.tenant);
    w.kv("weight", t.weight);
    w.kv("jobs_submitted", t.jobs_submitted);
    w.kv("jobs_done", t.jobs_done);
    w.kv("cache_hits", t.cache_hits);
    w.kv("warm_starts", t.warm_starts);
    w.kv("goodput_jobs_per_s", t.goodput_jobs_per_s);
      writeDistSummary(w, "queue_wait_host_s", t.queue_wait_host_s);
      writeDistSummary(w, "e2e_host_s", t.e2e_host_s);
    w.endObject();
  }
  w.endArray();
  w.key("jobs").beginArray();
  for (const JobStatus& s : rep.jobs) {
    w.beginObject();
    writeJobStatus(w, s);
    w.endObject();
  }
  w.endArray();
  writeMetrics(w, rec);
  w.endObject();
  return w.str();
}

void writeReportJson(const std::string& path, const SvcReport& rep,
                     const obs::Recorder* rec) {
  std::ofstream out(path, std::ios::binary);
  MBIR_CHECK_MSG(out.good(), "cannot open svc report file: " + path);
  out << reportJson(rep, rec) << '\n';
  MBIR_CHECK_MSG(out.good(), "failed writing svc report: " + path);
}

void aggregateReport(SvcReport& rep, const std::vector<bool>& warm_started,
                     const store::FairQueue& fq) {
  MBIR_CHECK(warm_started.size() == rep.jobs.size());
  rep.jobs_submitted = rep.jobs.size();
  rep.devices_failed = rep.failed_devices.size();
  for (double t : rep.device_modeled_s)
    rep.makespan_modeled_s = std::max(rep.makespan_modeled_s, t);
  std::vector<double> queue_wait, service, e2e;
  struct TenantAgg {
    SvcReport::TenantSummary t;
    std::vector<double> queue_wait, e2e;
  };
  std::map<std::string, TenantAgg> by_tenant;
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    const JobStatus& s = rep.jobs[i];
    switch (s.state) {
      case JobState::kDone:
        ++rep.jobs_done;
        if (s.converged) ++rep.jobs_converged;
        break;
      case JobState::kCancelled: ++rep.jobs_cancelled; break;
      case JobState::kFailed: ++rep.jobs_failed; break;
      case JobState::kDeadlineMissed: ++rep.jobs_deadline_missed; break;
      default: break;
    }
    rep.jobs_migrated += std::uint64_t(s.migrations);
    rep.cache_hits += s.cache_hit;
    rep.warm_starts += warm_started[i];
    rep.jobs_recovered += s.recoveries > 0;
    queue_wait.push_back(s.queue_wait_host_s);
    e2e.push_back(s.e2e_host_s);
    if (s.dispatch_seq >= 0) {
      service.push_back(s.service_host_s);
      rep.modeled_device_seconds_total += s.modeled_seconds;
    }
    TenantAgg& agg = by_tenant[tenantLabel(s.tenant)];
    ++agg.t.jobs_submitted;
    agg.t.jobs_done += s.state == JobState::kDone;
    agg.t.cache_hits += s.cache_hit;
    agg.t.warm_starts += warm_started[i];
    agg.queue_wait.push_back(s.queue_wait_host_s);
    agg.e2e.push_back(s.e2e_host_s);
  }
  rep.queue_wait_host_s = summarize(std::move(queue_wait));
  rep.service_host_s = summarize(std::move(service));
  rep.e2e_host_s = summarize(std::move(e2e));
  rep.jobs_per_host_second =
      rep.host_seconds > 0.0 ? double(rep.jobs_done) / rep.host_seconds : 0.0;
  // Per-tenant summary (sorted by label via the map): the WFQ acceptance
  // surface — per-tenant p99s and goodput next to the configured weight.
  for (auto& [tenant, agg] : by_tenant) {
    agg.t.tenant = tenant;
    agg.t.weight = fq.weight(tenant);
    agg.t.goodput_jobs_per_s = rep.host_seconds > 0.0
                                   ? double(agg.t.jobs_done) / rep.host_seconds
                                   : 0.0;
    agg.t.queue_wait_host_s = summarize(std::move(agg.queue_wait));
    agg.t.e2e_host_s = summarize(std::move(agg.e2e));
    rep.tenants.push_back(std::move(agg.t));
  }
}

}  // namespace mbir::svc
