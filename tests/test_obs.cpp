// Observability subsystem tests: JSON writer/parser round-trips, metrics
// registry semantics (including thread-safety), trace recorder output, and
// schema validation of the artifacts a real instrumented reconstruction
// writes (Chrome trace + run report).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/error.h"
#include "gsim/run_context.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "recon/run_report.h"
#include "test_util.h"

using namespace mbir;
using namespace mbir::obs;

// ---------------------------------------------------------------- JSON

TEST(Json, WriterRoundTrip) {
  JsonWriter w;
  w.beginObject();
  w.kv("name", "gsim.launch");
  w.kv("count", std::uint64_t(42));
  w.kv("ratio", 0.25);
  w.kv("enabled", true);
  w.key("nested").beginObject().kv("x", -3).endObject();
  w.key("arr").beginArray().value(1).value(2.5).value("s").endArray();
  w.key("none").null();
  w.endObject();

  const JsonValue v = parseJson(w.str());
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("name")->asString(), "gsim.launch");
  EXPECT_EQ(v.find("count")->asNumber(), 42.0);
  EXPECT_EQ(v.find("ratio")->asNumber(), 0.25);
  EXPECT_TRUE(v.find("enabled")->asBool());
  EXPECT_EQ(v.find("nested")->find("x")->asNumber(), -3.0);
  const JsonValue& arr = *v.find("arr");
  ASSERT_TRUE(arr.isArray());
  ASSERT_EQ(arr.array_v.size(), 3u);
  EXPECT_EQ(arr.array_v[1].asNumber(), 2.5);
  EXPECT_EQ(arr.array_v[2].asString(), "s");
  EXPECT_TRUE(v.find("none")->isNull());
}

TEST(Json, EscapingRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  JsonWriter w;
  w.beginObject().kv("s", nasty).endObject();
  EXPECT_EQ(parseJson(w.str()).find("s")->asString(), nasty);
}

TEST(Json, IntegralDoublesPrintAsIntegers) {
  EXPECT_EQ(JsonWriter::formatNumber(42.0), "42");
  EXPECT_EQ(JsonWriter::formatNumber(-7.0), "-7");
  EXPECT_NE(JsonWriter::formatNumber(0.5).find('.'), std::string::npos);
}

TEST(Json, NonFiniteWritesNull) {
  JsonWriter w;
  w.beginObject()
      .kv("inf", std::numeric_limits<double>::infinity())
      .kv("nan", std::nan(""))
      .endObject();
  const JsonValue v = parseJson(w.str());
  EXPECT_TRUE(v.find("inf")->isNull());
  EXPECT_TRUE(v.find("nan")->isNull());
}

TEST(Json, ParserRejectsMalformed) {
  EXPECT_THROW(parseJson("{"), Error);
  EXPECT_THROW(parseJson("{\"a\":1,}"), Error);
  EXPECT_THROW(parseJson("[1 2]"), Error);
  EXPECT_THROW(parseJson("{\"a\":1} trailing"), Error);
  EXPECT_THROW(parseJson("\"unterminated"), Error);
  EXPECT_THROW(parseJson(""), Error);
}

TEST(Json, ParserUnicodeEscape) {
  EXPECT_EQ(parseJson("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesHistograms) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.b.count");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(reg.counterValue("a.b.count"), 10u);
  EXPECT_EQ(reg.counterValue("never.registered"), 0u);
  // Same name returns the same instrument.
  EXPECT_EQ(&reg.counter("a.b.count"), &c);

  reg.gauge("a.g").set(1.5);
  EXPECT_EQ(reg.gauge("a.g").value(), 1.5);

  Histogram& h = reg.histogram("a.h");
  h.observe(1e-3);
  h.observe(2.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 2.001);
  EXPECT_DOUBLE_EQ(s.min, 1e-3);
  EXPECT_DOUBLE_EQ(s.max, 2.0);
}

TEST(Metrics, NameKindCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), Error);
  EXPECT_THROW(reg.histogram("x"), Error);
}

TEST(Metrics, CountersAreThreadSafe) {
  MetricsRegistry reg;
  Counter& c = reg.counter("mt.count");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  for (auto& t : workers) t.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kAdds);
}

TEST(Metrics, WriteJsonParses) {
  MetricsRegistry reg;
  reg.counter("c.one").add(3);
  reg.gauge("g.one").set(0.5);
  reg.histogram("h.one").observe(2.0);
  JsonWriter w;
  reg.writeJson(w);
  const JsonValue v = parseJson(w.str());
  EXPECT_EQ(v.find("counters")->find("c.one")->asNumber(), 3.0);
  EXPECT_EQ(v.find("gauges")->find("g.one")->asNumber(), 0.5);
  const JsonValue& h = *v.find("histograms")->find("h.one");
  EXPECT_EQ(h.find("count")->asNumber(), 1.0);
  EXPECT_EQ(h.find("max")->asNumber(), 2.0);
}

TEST(Metrics, LabeledNamesAreCanonical) {
  // Keys sort, so label order at the call site never splits an instrument.
  EXPECT_EQ(labeledName("svc.jobs", {{"tenant", "acme"}, {"device", "2"}}),
            "svc.jobs{device=2,tenant=acme}");
  EXPECT_EQ(labeledName("svc.jobs", {}), "svc.jobs");
  EXPECT_THROW(labeledName("x", {{"bad,key", "v"}}), Error);
  EXPECT_THROW(labeledName("x", {{"k", "bad=value"}}), Error);
  EXPECT_THROW(labeledName("x", {{"k", "bad{value"}}), Error);

  MetricsRegistry reg;
  Counter& a = reg.counter("svc.jobs", {{"tenant", "acme"}, {"device", "2"}});
  Counter& b = reg.counter("svc.jobs", {{"device", "2"}, {"tenant", "acme"}});
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counterValue("svc.jobs{device=2,tenant=acme}"), 3u);
  // Different label values are different series.
  reg.counter("svc.jobs", {{"device", "3"}, {"tenant", "acme"}}).add();
  EXPECT_EQ(reg.counterValue("svc.jobs{device=3,tenant=acme}"), 1u);
}

TEST(Metrics, ReadAccessorsNeverRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counterValue("nope"), 0u);
  EXPECT_EQ(reg.gaugeValue("nope"), 0.0);
  EXPECT_EQ(reg.histogramSnapshot("nope").count, 0u);
  // The misses above must not have created instruments: the JSON dump of an
  // untouched registry is empty.
  JsonWriter w;
  reg.writeJson(w);
  const JsonValue v = parseJson(w.str());
  EXPECT_TRUE(v.find("counters")->object_v.empty());
  EXPECT_TRUE(v.find("gauges")->object_v.empty());
  EXPECT_TRUE(v.find("histograms")->object_v.empty());

  reg.gauge("g").set(2.5);
  EXPECT_EQ(reg.gaugeValue("g"), 2.5);
}

namespace {

/// Index of the bucket an observation of `v` must land in (the first bound
/// >= v), mirroring Histogram::observe's lower_bound on inclusive bounds.
int expectedBucket(double v) {
  for (int i = 0; i < Histogram::kBuckets - 1; ++i)
    if (v <= Histogram::bucketUpperBound(i)) return i;
  return Histogram::kBuckets - 1;  // overflow
}

}  // namespace

TEST(Metrics, HistogramBucketBoundsAreInclusiveLogLinear) {
  // The 1-2-5 ladder: bound values land in their own bucket (inclusive
  // upper bounds); one ulp above spills into the next.
  for (double bound : {1e-3, 2e-3, 5e-3, 1.0, 2.0, 5.0, 1e3}) {
    Histogram h;
    h.observe(bound);
    const Histogram::Snapshot s = h.snapshot();
    const int i = expectedBucket(bound);
    EXPECT_EQ(s.buckets[std::size_t(i)], 1u) << bound;
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(i), bound) << bound;

    Histogram h2;
    const double above = std::nextafter(bound, 1e300);
    h2.observe(above);
    EXPECT_EQ(h2.snapshot().buckets[std::size_t(i)], 0u) << bound;
    EXPECT_EQ(h2.snapshot().buckets[std::size_t(expectedBucket(above))], 1u)
        << bound;
  }
}

TEST(Metrics, HistogramEdgeObservationsGoSomewhereSane) {
  Histogram h;
  h.observe(0.0);                // below the smallest bound -> bucket 0
  h.observe(-1.0);               // negative -> bucket 0 (min still tracks it)
  h.observe(1e300);              // beyond the top bound -> overflow
  h.observe(std::nan(""));       // NaN -> overflow, never lost
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[Histogram::kBuckets - 1], 2u);
  EXPECT_EQ(s.min, -1.0);
  // The top finite bound is exactly 10^kMaxExponent; the overflow bucket's
  // bound is +inf.
  EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(Histogram::kBuckets - 2),
                   std::pow(10.0, Histogram::kMaxExponent));
  EXPECT_TRUE(std::isinf(Histogram::bucketUpperBound(Histogram::kBuckets - 1)));
}

TEST(Metrics, HistogramQuantiles) {
  EXPECT_EQ(Histogram().snapshot().quantile(0.5), 0.0);  // empty -> 0

  Histogram one;
  one.observe(0.42);
  // A single observation is every quantile (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.0), 0.42);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.5), 0.42);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(1.0), 0.42);

  // 100 observations of 1..100 ms: quantile estimates must stay within the
  // covering bucket of the exact order statistic.
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-3);
  const Histogram::Snapshot s = h.snapshot();
  const double p50 = s.quantile(0.50);
  const double p95 = s.quantile(0.95);
  const double p99 = s.quantile(0.99);
  EXPECT_GE(p50, 0.02);   // exact p50 = 0.050, bucket (0.02, 0.05]
  EXPECT_LE(p50, 0.05);
  EXPECT_GE(p95, 0.05);   // exact p95 = 0.095, bucket (0.05, 0.1]
  EXPECT_LE(p95, 0.1);
  EXPECT_GE(p99, 0.05);   // exact p99 = 0.099, same bucket
  EXPECT_LE(p99, 0.1);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Estimates never leave the observed range.
  EXPECT_GE(s.quantile(0.0), s.min);
  EXPECT_LE(s.quantile(1.0), s.max);
}

TEST(Metrics, HistogramJsonIsVersionedWithQuantilesAndSparseBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("svc.lat");
  h.observe(1e300);  // one overflow observation: its bound serializes null
  for (int i = 0; i < 9; ++i) h.observe(0.004);
  JsonWriter w;
  reg.writeJson(w);
  const JsonValue v = parseJson(w.str());
  const JsonValue& hj = *v.find("histograms")->find("svc.lat");
  EXPECT_EQ(hj.find("v")->asNumber(), double(Histogram::kSchemaVersion));
  EXPECT_EQ(hj.find("count")->asNumber(), 10.0);
  EXPECT_GT(hj.find("p50")->asNumber(), 0.0);
  EXPECT_GE(hj.find("p99")->asNumber(), hj.find("p95")->asNumber());
  const JsonValue& buckets = *hj.find("buckets");
  ASSERT_TRUE(buckets.isArray());
  ASSERT_EQ(buckets.array_v.size(), 2u);  // sparse: only non-zero buckets
  EXPECT_DOUBLE_EQ(buckets.array_v[0].array_v[0].asNumber(), 0.005);
  EXPECT_EQ(buckets.array_v[0].array_v[1].asNumber(), 9.0);
  EXPECT_TRUE(buckets.array_v[1].array_v[0].isNull());  // overflow bound
  EXPECT_EQ(buckets.array_v[1].array_v[1].asNumber(), 1.0);
}

// -------------------------------------------------------------- flight

TEST(Flight, RingOverwritesOldestAndDumpsOldestFirst) {
  FlightRecorder fr(/*num_devices=*/2, /*capacity_per_lane=*/3);
  for (int i = 0; i < 5; ++i) {
    FlightEvent ev;
    ev.job_id = i;
    ev.kind = "iteration";
    ev.value = double(i);
    fr.record(FlightRecorder::deviceLane(1), std::move(ev));
  }
  FlightEvent admit;
  admit.job_id = 7;
  admit.kind = "admit";
  fr.record(FlightRecorder::kControlLane, std::move(admit));
  FlightEvent stray;
  stray.kind = "stray";
  fr.record(/*lane=*/99, std::move(stray));  // out of range -> control lane

  EXPECT_EQ(fr.size(), 5u);           // 3 (wrapped) + 2 control
  EXPECT_EQ(fr.totalRecorded(), 7u);  // overwritten events still count

  const JsonValue doc = parseJson(fr.dumpJson("unit test"));
  EXPECT_EQ(doc.find("schema")->asString(), "gpumbir.flight/1");
  EXPECT_EQ(doc.find("reason")->asString(), "unit test");
  const JsonValue& lanes = *doc.find("lanes");
  ASSERT_EQ(lanes.array_v.size(), 3u);  // control + 2 devices

  const JsonValue& control = lanes.array_v[0];
  EXPECT_EQ(control.find("device")->asNumber(), -1.0);
  ASSERT_EQ(control.find("events")->array_v.size(), 2u);
  EXPECT_EQ(control.find("events")->array_v[1].find("kind")->asString(),
            "stray");

  // Device 1's ring wrapped: jobs 0 and 1 were overwritten, and the dump
  // is oldest-first with monotone timestamps.
  const JsonValue& lane = lanes.array_v[2];
  EXPECT_EQ(lane.find("device")->asNumber(), 1.0);
  EXPECT_EQ(lane.find("events_total")->asNumber(), 5.0);
  const auto& events = lane.find("events")->array_v;
  ASSERT_EQ(events.size(), 3u);
  double prev_us = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].find("job_id")->asNumber(), double(i + 2));
    const double us = events[i].find("host_us")->asNumber();
    EXPECT_GE(us, prev_us);
    prev_us = us;
  }
}

// --------------------------------------------------------------- trace

TEST(Trace, RecorderEmitsBothClockTracks) {
  TraceRecorder tr;
  TraceEvent host;
  host.name = "span.host";
  host.cat = "test";
  host.clock = Clock::kHost;
  host.ts_us = 1.0;
  host.dur_us = 2.0;
  host.num_args = {{"k", 7.0}};
  host.str_args = {{"s", "v"}};
  tr.record(host);
  TraceEvent dev = host;
  dev.name = "span.modeled";
  dev.clock = Clock::kModeled;
  tr.record(dev);
  EXPECT_EQ(tr.size(), 2u);

  const JsonValue doc = parseJson(tr.toJson());
  EXPECT_EQ(doc.find("displayTimeUnit")->asString(), "ms");
  const JsonValue& evs = *doc.find("traceEvents");
  ASSERT_TRUE(evs.isArray());

  bool saw_host_meta = false, saw_modeled_meta = false;
  bool saw_host_span = false, saw_modeled_span = false;
  for (const JsonValue& e : evs.array_v) {
    const std::string ph = e.find("ph")->asString();
    const int pid = int(e.find("pid")->asNumber());
    if (ph == "M" && e.find("name")->asString() == "process_name") {
      if (pid == 1) saw_host_meta = true;
      if (pid == 2) saw_modeled_meta = true;
    }
    if (ph == "X" && e.find("name")->asString() == "span.host" && pid == 1) {
      saw_host_span = true;
      EXPECT_EQ(e.find("args")->find("k")->asNumber(), 7.0);
      EXPECT_EQ(e.find("args")->find("s")->asString(), "v");
      EXPECT_EQ(e.find("dur")->asNumber(), 2.0);
    }
    if (ph == "X" && e.find("name")->asString() == "span.modeled" && pid == 2)
      saw_modeled_span = true;
  }
  EXPECT_TRUE(saw_host_meta);
  EXPECT_TRUE(saw_modeled_meta);
  EXPECT_TRUE(saw_host_span);
  EXPECT_TRUE(saw_modeled_span);
}

TEST(Trace, NamedThreadsEmitMetadataRecords) {
  TraceRecorder tr;
  tr.nameThread(int(Clock::kHost), 0, "svc control", 0);
  tr.nameThread(int(Clock::kHost), 2, "svc device 1 (host)", 2);
  TraceEvent ev;
  ev.name = "x";
  ev.cat = "test";
  ev.clock = Clock::kHost;
  ev.tid = 2;
  tr.record(ev);

  const JsonValue doc = parseJson(tr.toJson());
  bool named_control = false, named_device = false, sorted_device = false;
  for (const JsonValue& e : doc.find("traceEvents")->array_v) {
    if (e.find("ph")->asString() != "M") continue;
    const std::string name = e.find("name")->asString();
    const int pid = int(e.find("pid")->asNumber());
    const int tid = int(e.find("tid") ? e.find("tid")->asNumber() : -1);
    if (name == "thread_name" && pid == 1 && tid == 0 &&
        e.find("args")->find("name")->asString() == "svc control")
      named_control = true;
    if (name == "thread_name" && pid == 1 && tid == 2 &&
        e.find("args")->find("name")->asString() == "svc device 1 (host)")
      named_device = true;
    if (name == "thread_sort_index" && pid == 1 && tid == 2 &&
        e.find("args")->find("sort_index")->asNumber() == 2.0)
      sorted_device = true;
  }
  EXPECT_TRUE(named_control);
  EXPECT_TRUE(named_device);
  EXPECT_TRUE(sorted_device);
}

TEST(Trace, RunContextPlacesEventsOnTheJobsLanes) {
  // gsim::RunContext::record is the one rule for where an engine span
  // lands: a host event on the span's host_tid, a modeled event on its
  // trace_pid, both tagged with the job; tid/pid 0 and no tags without a
  // span; nothing recorded unless the recorder traces.
  ObsConfig cfg;
  cfg.trace = true;
  Recorder rec(cfg);
  JobSpanContext span;
  span.job_id = 7;
  span.tenant = "acme";
  span.job_name = "case3";
  span.trace_pid = 12;
  span.host_tid = 3;
  const auto event = [](Clock clock) {
    TraceEvent ev;
    ev.name = "unit.span";
    ev.clock = clock;
    if (clock == Clock::kHost)
      ev.tid = 99;  // overridden by the span's lane
    else
      ev.pid = 98;
    return ev;
  };
  gsim::RunContext ctx{.recorder = &rec, .span = &span};
  ctx.record(event(Clock::kHost));
  ctx.record(event(Clock::kModeled));
  ctx.span = nullptr;
  ctx.record(event(Clock::kHost));
  ctx.record(event(Clock::kModeled));
  gsim::RunContext{}.record(event(Clock::kHost));  // no recorder
  Recorder untraced;
  gsim::RunContext{.recorder = &untraced, .span = &span}.record(
      event(Clock::kHost));
  EXPECT_EQ(untraced.trace().size(), 0u);

  const std::vector<TraceEvent> evs = rec.trace().snapshot();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].tid, 3);
  EXPECT_EQ(evs[0].pid, 0);
  EXPECT_EQ(evs[1].pid, 12);
  EXPECT_EQ(evs[1].tid, 0);
  for (int i : {0, 1}) {
    ASSERT_EQ(evs[i].num_args.size(), 1u);
    EXPECT_EQ(evs[i].num_args[0].first, "job_id");
    EXPECT_EQ(evs[i].num_args[0].second, 7.0);
    ASSERT_EQ(evs[i].str_args.size(), 2u);
    EXPECT_EQ(evs[i].str_args[0].second, "acme");
    EXPECT_EQ(evs[i].str_args[1].second, "case3");
  }
  EXPECT_EQ(evs[2].tid, 0);
  EXPECT_EQ(evs[3].pid, 0);
  for (int i : {2, 3}) {
    EXPECT_TRUE(evs[i].num_args.empty());
    EXPECT_TRUE(evs[i].str_args.empty());
  }
}

// ------------------------------------------- end-to-end schema validation

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST(ObsSchema, InstrumentedReconstructionWritesValidArtifacts) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/gpumbir_obs_trace.json";
  const std::string report_path = dir + "/gpumbir_obs_report.json";

  RunConfig cfg;
  cfg.algorithm = Algorithm::kGpuIcd;
  cfg.gpu.tunables.sv.sv_side = 8;
  cfg.max_equits = 6.0;
  cfg.obs.metrics = true;
  cfg.obs.trace = true;
  cfg.obs.trace_path = trace_path;
  cfg.obs.report_path = report_path;
  const RunResult r =
      reconstruct(test::tinyProblem(), test::tinyGolden(), cfg);
  ASSERT_TRUE(r.recorder);

  // ---- run report ----
  const JsonValue report = parseJson(slurp(report_path));
  EXPECT_EQ(report.find("schema")->asString(), "gpumbir.run_report/1");
  EXPECT_EQ(report.find("algorithm")->asString(), "GPU-ICD");
  EXPECT_GT(report.find("equits")->asNumber(), 0.0);
  EXPECT_GE(report.find("final_rmse_hu")->asNumber(), 0.0);
  EXPECT_GT(report.find("modeled_seconds")->asNumber(), 0.0);
  EXPECT_GE(report.find("host_seconds")->asNumber(), 0.0);

  const JsonValue& work = *report.find("work");
  for (const auto& [k, v] : work.object_v)
    EXPECT_GE(v.asNumber(), 0.0) << "work." << k;
  EXPECT_GT(work.find("voxel_updates")->asNumber(), 0.0);

  const JsonValue& curve = *report.find("curve");
  ASSERT_TRUE(curve.isArray());
  ASSERT_FALSE(curve.array_v.empty());
  for (const JsonValue& p : curve.array_v) {
    EXPECT_GE(p.find("equits")->asNumber(), 0.0);
    EXPECT_GE(p.find("modeled_seconds")->asNumber(), 0.0);
    EXPECT_GE(p.find("rmse_hu")->asNumber(), 0.0);
  }

  const JsonValue& gpu = *report.find("gpu");
  EXPECT_GT(gpu.find("kernels_launched")->asNumber(), 0.0);
  const JsonValue& cache = *gpu.find("chunk_cache");
  EXPECT_GE(cache.find("hits")->asNumber(), 0.0);
  EXPECT_GE(cache.find("misses")->asNumber(), 0.0);
  EXPECT_GT(gpu.find("per_kernel")->object_v.count("mbir_update"), 0u);

  const JsonValue& counters = *report.find("metrics")->find("counters");
  EXPECT_GE(counters.find("gpuicd.iteration.count")->asNumber(), 1.0);
  EXPECT_GE(counters.find("gsim.launch.count")->asNumber(), 1.0);
  EXPECT_GE(counters.find("recon.iteration.count")->asNumber(), 1.0);
  for (const auto& [k, v] : counters.object_v)
    EXPECT_GE(v.asNumber(), 0.0) << "counter " << k;

  EXPECT_GT(report.find("trace")->find("events")->asNumber(), 0.0);

  // ---- trace file ----
  const JsonValue trace = parseJson(slurp(trace_path));
  EXPECT_EQ(trace.find("displayTimeUnit")->asString(), "ms");
  const JsonValue& evs = *trace.find("traceEvents");
  ASSERT_TRUE(evs.isArray());
  bool meta_pid1 = false, meta_pid2 = false;
  bool recon_iter_pid1 = false, recon_iter_pid2 = false;
  bool gsim_launch_span = false, gpuicd_iter_span = false;
  for (const JsonValue& e : evs.array_v) {
    const std::string ph = e.find("ph")->asString();
    const std::string name = e.find("name")->asString();
    const int pid = int(e.find("pid")->asNumber());
    if (ph == "M") {
      if (name == "process_name" && pid == 1) meta_pid1 = true;
      if (name == "process_name" && pid == 2) meta_pid2 = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_GE(e.find("ts")->asNumber(), 0.0) << name;
    EXPECT_GE(e.find("dur")->asNumber(), 0.0) << name;
    if (name == "recon.iteration" && pid == 1) recon_iter_pid1 = true;
    if (name == "recon.iteration" && pid == 2) recon_iter_pid2 = true;
    if (name.rfind("gsim.launch.", 0) == 0) gsim_launch_span = true;
    if (name == "gpuicd.iteration") gpuicd_iter_span = true;
  }
  EXPECT_TRUE(meta_pid1);
  EXPECT_TRUE(meta_pid2);
  EXPECT_TRUE(recon_iter_pid1);
  EXPECT_TRUE(recon_iter_pid2);
  EXPECT_TRUE(gsim_launch_span);
  EXPECT_TRUE(gpuicd_iter_span);

  // The in-memory report serialization matches what was written.
  EXPECT_EQ(runReportJson(r, cfg) + "\n", slurp(report_path));

  std::remove(trace_path.c_str());
  std::remove(report_path.c_str());
}
