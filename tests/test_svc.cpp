// Integration tests for the online reconstruction service (src/svc): wire
// framing, protocol parsing, the pure pick policy (svc/policy, no threads),
// admission control, deadline fail-fast, priority ordering, the
// deterministic lane's bit-identity to serial runs, cancellation, graceful
// drain, and malformed-frame fuzz over a real loopback connection.
//
// Flake resistance: anything that must observe a "busy" service first parks
// the device(s) on long blocker jobs (RMSE stop disabled, large equit cap)
// and polls status until they are actually running; blockers are then
// cancelled cooperatively to let the test finish fast. No sleeps are used
// as synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "core/error.h"
#include "core/hash.h"
#include "core/rng.h"
#include "obs/obs.h"
#include "store/wfq.h"
#include "svc/client.h"
#include "svc/policy.h"
#include "svc/server.h"
#include "svc/view.h"
#include "svc_test_support.h"

namespace mbir::test {
namespace {

using svc::Client;
using svc::SubmitParams;

struct TestService {
  explicit TestService(int devices, int queue_cap,
                       obs::Recorder* recorder = nullptr,
                       std::string flight_dir = "") {
    svc::ServerOptions opt;
    opt.dispatch.num_devices = devices;
    opt.dispatch.queue_capacity = queue_cap;
    opt.dispatch.recorder = recorder;
    opt.dispatch.flight_dir = std::move(flight_dir);
    opt.base_config = tinyBaseConfig();
    server = std::make_unique<svc::Server>(opt, source);
  }
  Client connect() { return Client(server->port()); }

  TinySource source;
  std::unique_ptr<svc::Server> server;
};

/// A job that runs until cancelled (RMSE stop off, huge budget).
SubmitParams blockerParams(const std::string& name) {
  SubmitParams p;
  p.max_equits = 10000.0;
  p.stop_rmse_hu = 0.0;
  p.name = name;
  return p;
}

/// Poll until the job reports `state` (the submit->dispatch handoff is
/// asynchronous); tight loop with a yield, bounded by the test timeout.
void awaitState(Client& client, int job_id, const std::string& state) {
  while (client.jobStatus(job_id).state != state)
    std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(SvcFraming, RoundTripsThroughAPipe) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  ASSERT_TRUE(svc::writeFrame(fds[1], R"({"x":1})"));
  ASSERT_TRUE(svc::writeFrame(fds[1], ""));  // empty payload is legal framing
  std::string payload;
  EXPECT_EQ(svc::FrameStatus::kOk, svc::readFrame(fds[0], payload));
  EXPECT_EQ(R"({"x":1})", payload);
  EXPECT_EQ(svc::FrameStatus::kOk, svc::readFrame(fds[0], payload));
  EXPECT_EQ("", payload);
  ::close(fds[1]);
  EXPECT_EQ(svc::FrameStatus::kClosed, svc::readFrame(fds[0], payload));
  ::close(fds[0]);
}

TEST(SvcFraming, TruncatedHeaderAndPayloadAreDistinguishedFromClose) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  // Two header bytes, then EOF: mid-header truncation.
  ASSERT_EQ(2, ::write(fds[1], "\x00\x00", 2));
  ::close(fds[1]);
  std::string payload;
  EXPECT_EQ(svc::FrameStatus::kTruncated, svc::readFrame(fds[0], payload));
  ::close(fds[0]);

  ASSERT_EQ(0, ::pipe(fds));
  // Header declares 8 bytes; only 3 arrive.
  ASSERT_EQ(4, ::write(fds[1], "\x00\x00\x00\x08", 4));
  ASSERT_EQ(3, ::write(fds[1], "abc", 3));
  ::close(fds[1]);
  EXPECT_EQ(svc::FrameStatus::kTruncated, svc::readFrame(fds[0], payload));
  ::close(fds[0]);
}

TEST(SvcFraming, OversizedDeclaredLengthIsRejectedWithoutReadingTheBody) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  const std::string frame = svc::encodeFrame("0123456789");
  ASSERT_EQ(ssize_t(frame.size()),
            ::write(fds[1], frame.data(), frame.size()));
  std::string payload;
  EXPECT_EQ(svc::FrameStatus::kOversized,
            svc::readFrame(fds[0], payload, /*max_bytes=*/4));
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(SvcProtocol, MakeRunConfigMapsAlgorithmsAndPinsPsvThreads) {
  RunConfig base = tinyBaseConfig();
  base.psv.num_threads = 8;  // a service must not inherit racy PSV

  SubmitParams p;
  p.algorithm = "psv";
  p.max_equits = 7.0;
  p.sv_side = 4;
  RunConfig cfg = svc::makeRunConfig(base, p);
  EXPECT_EQ(Algorithm::kPsvIcd, cfg.algorithm);
  EXPECT_EQ(1, cfg.psv.num_threads);
  EXPECT_DOUBLE_EQ(7.0, cfg.max_equits);
  EXPECT_EQ(4, cfg.psv.sv.sv_side);
  EXPECT_EQ(4, cfg.gpu.tunables.sv.sv_side);

  p.algorithm = "seq";
  EXPECT_EQ(Algorithm::kSequentialIcd,
            svc::makeRunConfig(base, p).algorithm);
  p.algorithm = "gpu";
  EXPECT_EQ(Algorithm::kGpuIcd, svc::makeRunConfig(base, p).algorithm);
  p.algorithm = "warp9";
  EXPECT_THROW(svc::makeRunConfig(base, p), Error);
}

TEST(SvcProtocol, RequestFieldAccessIsStrictlyTyped) {
  const svc::Request req = svc::parseRequest(
      R"({"schema":"gpumbir.svc/1","verb":"submit","case":2,)"
      R"("priority":"high"})");
  EXPECT_EQ("submit", req.verb);
  EXPECT_EQ(2, req.getInt("case", 0));
  EXPECT_EQ(5, req.getInt("absent", 5));
  EXPECT_THROW(req.getInt("priority", 0), Error);  // string, not number
  EXPECT_THROW(svc::parseRequest(R"({"verb":"submit"})"), Error);  // no schema
  EXPECT_THROW(svc::parseRequest(R"({"schema":"gpumbir.svc/2","verb":"x"})"),
               Error);
  EXPECT_THROW(svc::parseRequest("[1,2]"), Error);
  EXPECT_THROW(
      svc::parseRequest(
          R"({"schema":"gpumbir.svc/1","verb":"submit","case":2.5})")
          .getInt("case", 0),
      Error);  // non-integral int field
}

TEST(SvcProtocol, OutOfRangeIntegersAndDeadlinesAreRejectedNotNarrowed) {
  const auto params = [](const std::string& fields) {
    return svc::parseSubmitParams(svc::parseRequest(
        R"({"schema":"gpumbir.svc/1","verb":"submit",)" + fields + "}"));
  };
  // 2^32 narrows to 0 through int(): it must not become case 0.
  EXPECT_THROW(params(R"("case":4294967296)"), Error);
  EXPECT_THROW(params(R"("priority":-4294967296)"), Error);
  EXPECT_THROW(params(R"("sv_side":1e15)"), Error);
  EXPECT_THROW(params(R"("case":-1)"), Error);
  EXPECT_THROW(params(R"("shards":0)"), Error);
  EXPECT_THROW(params(R"("shard_halo":-1)"), Error);
  EXPECT_EQ(2147483647, params(R"("priority":2147483647)").priority);
  // 1e300 ms overflows the steady_clock deadline into one already passed.
  EXPECT_THROW(params(R"("deadline_ms":1e300)"), Error);
  EXPECT_EQ(svc::kMaxDeadlineMs,
            params(R"("deadline_ms":1e12)").deadline_ms);
}

// ---------------------------------------------------------------------------
// Pick policy (svc/policy): pure, so no threads or timing
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

svc::QueueEntry entry(int job_id, int priority = 0, int lane = -1,
                      const std::string& tenant = "default") {
  svc::QueueEntry e;
  e.job_id = job_id;
  e.priority = priority;
  e.lane = lane;
  e.tenant = tenant;
  return e;
}

std::uint64_t fairnessCharges(const store::FairQueue& fq) {
  std::uint64_t picks = 0;
  for (const store::FairQueue::Share& s : fq.snapshot()) picks += s.picks;
  return picks;
}

TEST(SvcPolicy, GangWaitsWhileAnythingRunsAndASingleMayPassIt) {
  const Clock::time_point now = Clock::now();
  std::vector<svc::QueueEntry> q = {entry(0, /*priority=*/5), entry(1)};
  q[0].gang = true;
  store::FairQueue fq;
  EXPECT_EQ(1, svc::pickNext(q, 0, now, false, /*any_running=*/true, fq).index);
  EXPECT_EQ(0, svc::pickNext(q, 0, now, false, /*any_running=*/false, fq).index);
  // A running gang owns every device: nothing is picked, nothing charged.
  EXPECT_EQ(-1, svc::pickNext(q, 0, now, /*gang_running=*/true, false, fq).index);
  EXPECT_EQ(2u, fairnessCharges(fq));
}

TEST(SvcPolicy, DeterministicEntryWinsWithNoExpiryScan) {
  const Clock::time_point now = Clock::now();
  std::vector<svc::QueueEntry> q = {entry(0, 9), entry(1, 0, /*lane=*/1),
                                    entry(2, 0, 0), entry(3, 0, 0)};
  q[0].deadline = now;  // expired
  store::FairQueue fq;
  const svc::Pick pick = svc::pickNext(q, 0, now, false, true, fq);
  EXPECT_EQ(2, pick.index);  // device 0's earliest det entry
  EXPECT_TRUE(pick.expired.empty());
  EXPECT_EQ(0u, fairnessCharges(fq));  // the det lane bypasses fairness
  // Device 2 has no det entry; other devices' entries are never taken.
  EXPECT_EQ(-1, svc::pickNext(q, 2, now, false, true, fq).index);
}

TEST(SvcPolicy, ExpiredEntriesAreReportedAndNeverPicked) {
  const Clock::time_point now = Clock::now();
  std::vector<svc::QueueEntry> q = {entry(0, 9), entry(1, 1), entry(2, 9)};
  q[0].deadline = now;  // a deadline equal to now has passed
  q[2].deadline = now - std::chrono::seconds(1);
  store::FairQueue fq;
  svc::Pick pick = svc::pickNext(q, 0, now, false, false, fq);
  EXPECT_EQ(1, pick.index);
  EXPECT_EQ((std::vector<std::size_t>{0, 2}), pick.expired);
  // Nothing eligible: still reported, and the fair queue is not charged.
  q.erase(q.begin() + 1);
  pick = svc::pickNext(q, 0, now, false, false, fq);
  EXPECT_EQ(-1, pick.index);
  EXPECT_EQ((std::vector<std::size_t>{0, 1}), pick.expired);
  EXPECT_EQ(1u, fairnessCharges(fq));
}

TEST(SvcPolicy, PriorityTiesGoToTheEarliestEntry) {
  const std::vector<svc::QueueEntry> q = {entry(0, 1), entry(1, 3),
                                          entry(2, 3), entry(3, 2)};
  store::FairQueue fq;
  EXPECT_EQ(1, svc::pickNext(q, 0, Clock::now(), false, false, fq).index);
}

TEST(SvcPolicy, SeededRandomQueuesKeepLaneInvariantsAndWfqShares) {
  const Clock::time_point now = Clock::now();
  const std::string tenants[] = {"gold", "bronze"};
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<svc::QueueEntry> q;
    for (int i = 0, n = int(rng.below(12)); i < n; ++i) {
      q.push_back(entry(i, int(rng.below(4)),
                        rng.below(3) == 0 ? int(rng.below(3)) : -1,
                        tenants[rng.below(2)]));
      q.back().gang = q.back().lane < 0 && rng.below(5) == 0;
      if (rng.below(4) == 0)  // 1 ms ago, now, or 1 ms ahead
        q.back().deadline = now + std::chrono::milliseconds(rng.below(3)) -
                            std::chrono::milliseconds(1);
    }
    const int device = int(rng.below(3));
    const bool any_running = rng.below(2) == 0;
    const bool gang_running = rng.below(6) == 0;
    // Oracle. A fresh FairQueue holds every tenant at virtual time 0, so
    // WFQ takes the tenant of the first eligible entry.
    int want = -1;
    std::vector<std::size_t> expired;
    for (std::size_t i = 0; i < q.size() && !gang_running; ++i) {
      if (q[i].lane == device) {
        want = int(i);
        expired.clear();
        break;
      }
      if (q[i].lane >= 0) continue;
      if (now >= q[i].deadline) {
        expired.push_back(i);
      } else if (!(q[i].gang && any_running) &&
                 (want < 0 || (q[i].tenant == q[std::size_t(want)].tenant &&
                               q[i].priority > q[std::size_t(want)].priority))) {
        want = int(i);
      }
    }
    store::FairQueue fq;
    const svc::Pick pick =
        svc::pickNext(q, device, now, gang_running, any_running, fq);
    EXPECT_EQ(want, pick.index);
    EXPECT_EQ(expired, pick.expired);
    const bool charged = want >= 0 && q[std::size_t(want)].lane < 0;
    EXPECT_EQ(charged ? 1u : 0u, fairnessCharges(fq));
  }

  // Shares: two always-backlogged tenants at 4:1 get picks at 4:1.
  store::FairQueue fq;
  fq.configure({{"gold", 4.0}, {"bronze", 1.0}});
  Rng rng(7);
  std::vector<svc::QueueEntry> q;
  for (int i = 0; i < 6; ++i)
    q.push_back(entry(i, int(rng.below(3)), -1, tenants[i % 2]));
  std::map<std::string, int> picks;
  for (int round = 0; round < 500; ++round) {
    const svc::Pick pick = svc::pickNext(q, 0, now, false, false, fq);
    ASSERT_GE(pick.index, 0);
    const std::string tenant = q[std::size_t(pick.index)].tenant;
    ++picks[tenant];
    q.erase(q.begin() + pick.index);
    q.push_back(entry(6 + round, int(rng.below(3)), -1, tenant));
  }
  EXPECT_EQ(400, picks["gold"]);
  EXPECT_EQ(100, picks["bronze"]);
}

// ---------------------------------------------------------------------------
// Views (svc/view): pure renderers over hand-built snapshots, no threads
// ---------------------------------------------------------------------------

obs::JsonValue jobDoc(const svc::JobStatus& s) {
  obs::JsonWriter w;
  w.beginObject();
  svc::writeJobStatus(w, s);
  w.endObject();
  return obs::parseJson(w.str());
}

TEST(SvcView, RunOutcomeOnlyForTerminalJobsThatRanOrHitTheCache) {
  const auto outcome_keys = [](const svc::JobStatus& s) {
    const obs::JsonValue doc = jobDoc(s);
    int n = 0;
    for (const char* k : {"converged", "equits", "final_rmse_hu",
                          "modeled_seconds", "queue_wait_modeled_s"})
      n += doc.find(k) != nullptr;
    return n;
  };
  svc::JobStatus s;
  s.equits = 2.5;
  EXPECT_EQ(0, outcome_keys(s));  // queued
  s.state = svc::JobState::kRunning;
  s.dispatch_seq = 0;
  EXPECT_EQ(0, outcome_keys(s));  // dispatched, not terminal yet
  s.state = svc::JobState::kDone;
  EXPECT_EQ(5, outcome_keys(s));
  EXPECT_EQ(2.5, jobDoc(s).find("equits")->num_v);
  s.state = svc::JobState::kDeadlineMissed;
  s.dispatch_seq = -1;
  EXPECT_EQ(0, outcome_keys(s));  // terminal, never ran
  s.state = svc::JobState::kDone;
  s.cache_hit = true;
  EXPECT_EQ(5, outcome_keys(s));  // never ran, but carries the cached run
}

TEST(SvcView, DefaultTenantIsOmitted) {
  svc::JobStatus s;
  EXPECT_EQ(nullptr, jobDoc(s).find("tenant"));
  s.tenant = "acme";
  EXPECT_EQ("acme", jobDoc(s).find("tenant")->str_v);
}

TEST(SvcView, ImageHashIsSixteenHexDigits) {
  svc::JobStatus s;
  s.state = svc::JobState::kDone;
  s.dispatch_seq = 0;
  s.image_hash = 0x00c0ffee12345678ull;
  EXPECT_EQ(nullptr, jobDoc(s).find("image_hash"));  // no image
  s.has_image = true;
  EXPECT_EQ("00c0ffee12345678", jobDoc(s).find("image_hash")->str_v);
}

TEST(SvcView, DeadlineRemainingIsDeadlineMinusAge) {
  svc::Dispatcher::LiveStats s;
  for (const auto& [deadline_ms, age_s] :
       {std::pair{500.0, 0.2}, {100.0, 0.25}, {-1.0, 3.0}}) {
    svc::Dispatcher::LiveJob j;
    j.job_id = int(s.in_flight.size());
    j.deadline_ms = deadline_ms;
    j.age_host_s = age_s;
    s.in_flight.push_back(j);
  }
  const obs::JsonValue doc = obs::parseJson(svc::statsJson(s, nullptr));
  const std::vector<obs::JsonValue>& jobs = doc.find("in_flight")->array_v;
  ASSERT_EQ(3u, jobs.size());
  EXPECT_DOUBLE_EQ(300.0, jobs[0].find("deadline_remaining_ms")->num_v);
  EXPECT_DOUBLE_EQ(-150.0, jobs[1].find("deadline_remaining_ms")->num_v);
  EXPECT_EQ(nullptr, jobs[2].find("deadline_remaining_ms"));  // no deadline
  EXPECT_EQ(3.0, jobs[2].find("age_host_s")->num_v);
}

TEST(SvcView, ChaosBlockIsTheSameInStatsAndTheChaosVerb) {
  svc::Dispatcher::LiveStats s;
  s.plan.seed = 42;
  s.plan.launch_fault_rate = 0.25;
  s.plan.target_devices = {1};
  s.watchdog_ms = 750.0;
  s.devices_failed = 1;
  s.jobs_migrated = 3;
  obs::JsonWriter w;
  w.beginObject();
  svc::writeChaos(w, s);
  w.endObject();
  const std::string block = w.str();
  EXPECT_NE(std::string::npos,
            svc::statsJson(s, nullptr).find("\"chaos\":" + block));
  const obs::JsonValue doc = obs::parseJson(block);
  EXPECT_TRUE(doc.find("enabled")->bool_v);
  EXPECT_EQ(750.0, doc.find("watchdog_ms")->num_v);
  EXPECT_EQ(1.0, doc.find("devices_failed")->num_v);
  EXPECT_EQ(3.0, doc.find("jobs_migrated")->num_v);
  EXPECT_EQ(42.0, doc.find("plan")->find("seed")->num_v);
}

// ---------------------------------------------------------------------------
// Round trip / status / result
// ---------------------------------------------------------------------------

TEST(SvcServer, SubmitStatusResultRoundTrip) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  ASSERT_TRUE(client.ping());

  SubmitParams p;
  p.name = "hello";
  const Client::SubmitResult out = client.submit(p);
  ASSERT_TRUE(out.accepted);
  EXPECT_GE(out.job_id, 0);

  const Client::JobInfo info = client.result(out.job_id);
  EXPECT_EQ("done", info.state);
  EXPECT_EQ("hello", info.name);
  EXPECT_EQ(0, info.device);
  EXPECT_NEAR(3.0, info.equits, 1.0);
  EXPECT_GT(info.modeled_seconds, 0.0);
  EXPECT_EQ(16u, info.image_hash.size());

  // status for an unknown job is an error, not a crash.
  EXPECT_THROW(client.jobStatus(12345), Error);
  // and the reported hash matches a local reconstruction bit for bit.
  const RunResult local =
      reconstruct(tinyProblem(), tinyGolden(), tinyBaseConfig());
  EXPECT_EQ(hashToHex(fnv1a64(local.image.flat())), info.image_hash);

  const Client::ServerStatus st = client.serverStatus();
  EXPECT_EQ(1, st.num_devices);
  EXPECT_EQ(1, st.submitted);
  EXPECT_EQ(1, st.finished);
}

TEST(SvcServer, ResultCanCarryTheImageExactly) {
  TestService service(1, 4);
  Client client = service.connect();
  const int id = client.submit(SubmitParams{}).job_id;
  const Client::JobInfo info = client.result(id, /*include_image=*/true);
  ASSERT_TRUE(info.image.has_value());
  // float -> JSON double -> float must be bit-exact.
  EXPECT_EQ(info.image_hash, hashToHex(fnv1a64(info.image->flat())));
}

TEST(SvcServer, BadCaseIndexAndUnknownVerbSurfaceAsErrors) {
  TestService service(1, 4);
  Client client = service.connect();
  SubmitParams p;
  p.case_index = 100;  // TinySource throws for this
  const Client::SubmitResult out = client.submit(p);
  EXPECT_FALSE(out.accepted);
  EXPECT_FALSE(out.rejected);  // an error, not admission backpressure
  EXPECT_NE(std::string::npos, out.error.find("out of range"));

  const obs::JsonValue resp =
      client.call(R"({"schema":"gpumbir.svc/1","verb":"transmogrify"})");
  EXPECT_FALSE(resp.find("ok")->bool_v);
  ASSERT_TRUE(client.ping());  // connection survives protocol errors
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(SvcServer, AdmissionQueueOverflowRejectsExplicitly) {
  const int kQueueCap = 2;
  TestService service(/*devices=*/1, kQueueCap);
  Client client = service.connect();

  // Park the device, then fill the queue exactly to the bound.
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");
  std::vector<int> queued;
  for (int i = 0; i < kQueueCap; ++i) {
    const auto out = client.submit(SubmitParams{});
    ASSERT_TRUE(out.accepted) << out.error;
    queued.push_back(out.job_id);
  }

  // The next submit must bounce, flagged as backpressure.
  const auto overflow = client.submit(SubmitParams{});
  EXPECT_FALSE(overflow.accepted);
  EXPECT_TRUE(overflow.rejected);
  EXPECT_NE(std::string::npos, overflow.error.find("queue full"));

  // Cancelling a queued job frees its slot immediately.
  EXPECT_TRUE(client.cancel(queued.back()));
  EXPECT_TRUE(client.submit(SubmitParams{}).accepted);

  EXPECT_TRUE(client.cancel(blocker));
  const obs::JsonValue report = client.drain();
  EXPECT_EQ(1.0, report.find("admission_rejected")->num_v);
  EXPECT_EQ(double(kQueueCap), report.find("queue_depth_max")->num_v);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(SvcServer, ExpiredDeadlineFailsFastWithoutRunning) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  ASSERT_EQ(0, blocker);
  awaitState(client, blocker, "running");

  // Wire integers are range-checked, not narrowed: job 2^32 is not job 0.
  EXPECT_FALSE(client.call(R"({"schema":"gpumbir.svc/1","verb":"cancel",)"
                           R"("job":4294967296})").find("ok")->bool_v);
  EXPECT_EQ("running", client.jobStatus(blocker).state);
  // A 1e300 ms deadline would overflow into an already-expired one: a bad
  // request at the wire and at the dispatcher.
  SubmitParams overflow;
  overflow.deadline_ms = 1e300;
  EXPECT_FALSE(client.submit(overflow).accepted);
  svc::JobSpec spec = tinyJob(tinyBaseConfig(), "overflow", false);
  spec.deadline_ms = 1e300;
  EXPECT_FALSE(service.server->dispatcher().submit(spec).accepted);

  SubmitParams late;
  late.deadline_ms = 0.0;  // already expired when the device frees up
  late.name = "late";
  const int late_id = client.submit(late).job_id;

  SubmitParams fine;
  fine.deadline_ms = 60000.0;  // comfortably alive
  fine.name = "fine";
  const int fine_id = client.submit(fine).job_id;

  EXPECT_TRUE(client.cancel(blocker));
  const Client::JobInfo late_info = client.result(late_id);
  EXPECT_EQ("deadline_missed", late_info.state);
  EXPECT_EQ(-1, late_info.device);          // never dispatched
  EXPECT_EQ(0.0, late_info.service_host_s); // never ran
  EXPECT_TRUE(late_info.image_hash.empty());

  const Client::JobInfo fine_info = client.result(fine_id);
  EXPECT_EQ("done", fine_info.state);

  const obs::JsonValue report = client.drain();
  EXPECT_EQ(1.0, report.find("jobs_deadline_missed")->num_v);
}

// ---------------------------------------------------------------------------
// Priority ordering
// ---------------------------------------------------------------------------

TEST(SvcServer, PriorityLaneDispatchesHighestFirstTiesInSubmitOrder) {
  TestService service(/*devices=*/1, /*queue_cap=*/8);
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  auto prio = [&](int priority, const std::string& name) {
    SubmitParams p;
    p.priority = priority;
    p.name = name;
    return client.submit(p).job_id;
  };
  const int low = prio(1, "low");
  const int high = prio(5, "high");
  const int mid = prio(3, "mid");
  const int high2 = prio(5, "high2");  // same priority, later submit

  EXPECT_TRUE(client.cancel(blocker));
  const int s_low = client.result(low).dispatch_seq;
  const int s_high = client.result(high).dispatch_seq;
  const int s_mid = client.result(mid).dispatch_seq;
  const int s_high2 = client.result(high2).dispatch_seq;
  EXPECT_LT(s_high, s_high2);  // tie broken by submission order
  EXPECT_LT(s_high2, s_mid);
  EXPECT_LT(s_mid, s_low);
  client.drain();
}

// ---------------------------------------------------------------------------
// Deterministic lane
// ---------------------------------------------------------------------------

TEST(SvcServer, DeterministicLaneIsBitIdenticalToSerialRuns) {
  const int kDevices = 2;
  const int kJobs = 4;
  TestService service(kDevices, /*queue_cap=*/8);
  Client client = service.connect();

  // Heterogeneous deterministic jobs: budgets and engines vary per job.
  std::vector<SubmitParams> specs;
  for (int i = 0; i < kJobs; ++i) {
    SubmitParams p;
    p.deterministic = true;
    p.algorithm = (i % 2 == 0) ? "gpu" : "seq";
    p.max_equits = 2.0 + i;
    p.name = "det" + std::to_string(i);
    specs.push_back(p);
  }
  std::vector<int> ids;
  for (const SubmitParams& p : specs) {
    const auto out = client.submit(p);
    ASSERT_TRUE(out.accepted) << out.error;
    ids.push_back(out.job_id);
  }
  std::vector<Client::JobInfo> online;
  for (int id : ids) online.push_back(client.result(id));

  // The same jobs run serially, laid out on the lane's schedule: det job s
  // runs on device s % D, after the earlier jobs of that device.
  std::vector<double> clock(kDevices, 0.0);
  for (int i = 0; i < kJobs; ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const RunResult serial =
        reconstruct(tinyProblem(), tinyGolden(),
                    svc::makeRunConfig(tinyBaseConfig(), specs[std::size_t(i)]));
    const Client::JobInfo& on = online[std::size_t(i)];
    EXPECT_EQ(i % kDevices, on.device);
    // Images are bit-identical (hash of float bits)...
    EXPECT_EQ(hashToHex(fnv1a64(serial.image.flat())), on.image_hash);
    // ...and so are the modeled clocks: same per-device schedule.
    EXPECT_EQ(serial.modeled_seconds, on.modeled_seconds);
    EXPECT_EQ(clock[std::size_t(i % kDevices)], on.queue_wait_modeled_s);
    clock[std::size_t(i % kDevices)] += serial.modeled_seconds;
  }
  client.drain();
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(SvcServer, CancelMidQueueNeverRunsAndCancelRunningStopsCooperatively) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  const int queued = client.submit(SubmitParams{}).job_id;
  EXPECT_TRUE(client.cancel(queued));
  const Client::JobInfo q = client.result(queued);
  EXPECT_EQ("cancelled", q.state);
  EXPECT_EQ(-1, q.dispatch_seq);  // finalized in the queue, never dispatched

  EXPECT_TRUE(client.cancel(blocker));
  const Client::JobInfo b = client.result(blocker);
  EXPECT_EQ("cancelled", b.state);
  EXPECT_GE(b.dispatch_seq, 0);       // it ran, then stopped cooperatively
  EXPECT_FALSE(b.image_hash.empty()); // partial image still published
  EXPECT_FALSE(client.cancel(blocker));  // already terminal

  const obs::JsonValue report = client.drain();
  EXPECT_EQ(2.0, report.find("jobs_cancelled")->num_v);
  EXPECT_EQ(0.0, report.find("jobs_failed")->num_v);
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

TEST(SvcServer, DrainIsGracefulValidatedAndTerminal) {
  const int kDevices = 2;
  TestService service(kDevices, /*queue_cap=*/8);
  Client client = service.connect();
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(client.submit(SubmitParams{}).job_id);

  const obs::JsonValue report = client.drain();  // waits out the backlog
  EXPECT_EQ("gpumbir.svc_report/1", report.find("schema")->str_v);
  EXPECT_EQ(3.0, report.find("jobs_submitted")->num_v);
  EXPECT_EQ(3.0, report.find("jobs_done")->num_v);
  ASSERT_TRUE(report.find("jobs")->isArray());
  EXPECT_EQ(3u, report.find("jobs")->array_v.size());
  ASSERT_TRUE(report.find("device_modeled_s")->isArray());
  EXPECT_EQ(std::size_t(kDevices),
            report.find("device_modeled_s")->array_v.size());
  // Histogrammed distributions come with exact order statistics.
  const obs::JsonValue* e2e = report.find("e2e_host_s");
  ASSERT_NE(nullptr, e2e);
  EXPECT_EQ(3.0, e2e->find("count")->num_v);
  EXPECT_GE(e2e->find("p99")->num_v, e2e->find("p50")->num_v);
  // svc.* metrics ride along when a recorder is attached — here there is
  // none, so the report omits them rather than fabricating zeros.
  EXPECT_EQ(nullptr, report.find("metrics"));

  // Post-drain the service refuses work but still answers.
  const auto out = client.submit(SubmitParams{});
  EXPECT_FALSE(out.accepted);
  EXPECT_TRUE(out.rejected);
  EXPECT_TRUE(service.server->drainRequested());
  // Results of drained jobs remain queryable.
  EXPECT_EQ("done", client.result(ids.front()).state);
  // Draining again returns the same (cached) report.
  EXPECT_EQ(3.0, client.drain().find("jobs_done")->num_v);
}

TEST(SvcServer, DrainReportKeepsTheDrainedChaosPlan) {
  TestService service(/*devices=*/1, /*queue_cap=*/4);
  Client client = service.connect();
  chaos::FaultPlan drained_plan;
  drained_plan.seed = 11;
  drained_plan.target_devices = {0};
  client.chaos(drained_plan, /*watchdog_ms=*/0.0);
  client.submit(SubmitParams{});
  const obs::JsonValue first = client.drain();

  // A plan installed after the drain governs nothing the report covers.
  chaos::FaultPlan later;
  later.seed = 99;
  later.launch_fault_rate = 0.5;
  client.chaos(later, /*watchdog_ms=*/250.0);
  EXPECT_EQ(99.0, client.chaos().find("plan")->find("seed")->num_v);
  for (const obs::JsonValue& report : {first, client.drain()}) {
    const obs::JsonValue* chaos = report.find("chaos");
    ASSERT_NE(nullptr, chaos);
    EXPECT_FALSE(chaos->find("enabled")->bool_v);
    EXPECT_EQ(0.0, chaos->find("watchdog_ms")->num_v);
    EXPECT_EQ(11.0, chaos->find("plan")->find("seed")->num_v);
  }
}

// ---------------------------------------------------------------------------
// Observability: stats verb, flight recorder, span tracing
// ---------------------------------------------------------------------------

TEST(SvcServer, StatsAnswersLiveWhileEveryDeviceIsBusy) {
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  TestService service(/*devices=*/2, /*queue_cap=*/8, &recorder);
  Client client = service.connect();

  // Park both devices, then queue a tenant-tagged job behind them. The
  // scrape below must answer while the blockers are mid-run — stats takes
  // the dispatcher lock only for a snapshot, never waiting on a device.
  const int b0 = client.submit(blockerParams("block0")).job_id;
  const int b1 = client.submit(blockerParams("block1")).job_id;
  awaitState(client, b0, "running");
  awaitState(client, b1, "running");
  SubmitParams waiting;
  waiting.priority = 3;
  waiting.tenant = "acme";
  waiting.name = "waiting";
  const int q0 = client.submit(waiting).job_id;

  // client.stats() round-trips the document through the strict parser.
  const obs::JsonValue stats = client.stats();
  EXPECT_EQ("gpumbir.svc_stats/1", stats.find("schema")->str_v);
  EXPECT_TRUE(stats.find("accepting")->bool_v);
  EXPECT_FALSE(stats.find("draining")->bool_v);
  EXPECT_GT(stats.find("uptime_host_s")->num_v, 0.0);
  EXPECT_EQ(2.0, stats.find("running")->num_v);
  EXPECT_EQ(1.0, stats.find("queued")->num_v);
  EXPECT_EQ(3.0, stats.find("submitted")->num_v);
  const obs::JsonValue* by_prio = stats.find("queue_depth_by_priority");
  ASSERT_NE(nullptr, by_prio);
  EXPECT_EQ(1.0, by_prio->find("3")->num_v);

  const obs::JsonValue* devices = stats.find("devices");
  ASSERT_TRUE(devices->isArray());
  ASSERT_EQ(2u, devices->array_v.size());
  for (const obs::JsonValue& d : devices->array_v) {
    EXPECT_TRUE(d.find("busy")->bool_v);
    EXPECT_GE(d.find("running_job")->num_v, 0.0);
    EXPECT_GE(d.find("modeled_s")->num_v, 0.0);
  }

  const obs::JsonValue* in_flight = stats.find("in_flight");
  ASSERT_TRUE(in_flight->isArray());
  ASSERT_EQ(3u, in_flight->array_v.size());
  int running_seen = 0;
  const obs::JsonValue* queued_entry = nullptr;
  for (const obs::JsonValue& j : in_flight->array_v) {
    if (j.find("state")->str_v == "running") ++running_seen;
    if (int(j.find("job_id")->num_v) == q0) queued_entry = &j;
  }
  EXPECT_EQ(2, running_seen);
  ASSERT_NE(nullptr, queued_entry);
  EXPECT_EQ("queued", queued_entry->find("state")->str_v);
  EXPECT_EQ("acme", queued_entry->find("tenant")->str_v);
  EXPECT_EQ(-1.0, queued_entry->find("device")->num_v);
  EXPECT_GE(queued_entry->find("age_host_s")->num_v, 0.0);

  // Flight counters and the metrics registry ride along in the same doc.
  const obs::JsonValue* flight = stats.find("flight");
  ASSERT_NE(nullptr, flight);
  EXPECT_GT(flight->find("events_recorded")->num_v, 0.0);
  ASSERT_NE(nullptr, stats.find("metrics"));
  EXPECT_GE(stats.find("metrics")
                ->find("counters")
                ->find("svc.jobs.submitted")
                ->num_v,
            3.0);

  // The scrape paused nothing: the service still dispatches and drains.
  EXPECT_TRUE(client.cancel(q0));
  EXPECT_TRUE(client.cancel(b0));
  EXPECT_TRUE(client.cancel(b1));
  client.drain();
}

TEST(SvcServer, FlightDumpsFireExactlyOncePerBadlyEndingJob) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gpumbir_flight_dumps";
  fs::remove_all(dir);
  fs::create_directories(dir);

  TestService service(/*devices=*/1, /*queue_cap=*/8, /*recorder=*/nullptr,
                      dir.string());
  Client client = service.connect();
  const int blocker = client.submit(blockerParams("blocker")).job_id;
  awaitState(client, blocker, "running");

  SubmitParams late;
  late.deadline_ms = 0.0;
  late.name = "late";
  const int late_id = client.submit(late).job_id;      // -> deadline_missed
  const int queued = client.submit(SubmitParams{}).job_id;
  const int good = client.submit(SubmitParams{}).job_id;
  EXPECT_TRUE(client.cancel(queued));                  // -> cancelled (queued)
  EXPECT_TRUE(client.cancel(blocker));                 // -> cancelled (ran)

  EXPECT_EQ("deadline_missed", client.result(late_id).state);
  EXPECT_EQ("cancelled", client.result(queued).state);
  EXPECT_EQ("cancelled", client.result(blocker).state);
  EXPECT_EQ("done", client.result(good).state);  // a good ending: no dump

  // The wire `flight` verb serves the same ring on demand (no file).
  const obs::JsonValue flight = client.flight("probe");
  EXPECT_EQ("gpumbir.flight/1", flight.find("schema")->str_v);
  EXPECT_EQ("probe", flight.find("reason")->str_v);
  ASSERT_TRUE(flight.find("lanes")->isArray());
  EXPECT_EQ(2u, flight.find("lanes")->array_v.size());  // control + device 0

  client.drain();  // flushes any dump the device thread did not get to

  // Exactly one automatic dump per badly-ending job, named after it.
  EXPECT_EQ(3u, service.server->dispatcher().liveStats().flight_dumps);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++files;
  EXPECT_EQ(3u, files);
  const std::vector<std::pair<int, std::string>> expected = {
      {late_id, "deadline_missed"},
      {queued, "cancelled"},
      {blocker, "cancelled"},
  };
  for (const auto& [id, reason] : expected) {
    const fs::path p = dir / ("flight_" + std::string(reason) + "_job" +
                              std::to_string(id) + ".json");
    ASSERT_TRUE(fs::exists(p)) << p;
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    const obs::JsonValue dump = obs::parseJson(buf.str());
    EXPECT_EQ("gpumbir.flight/1", dump.find("schema")->str_v);
    EXPECT_NE(std::string::npos,
              dump.find("reason")->str_v.find(std::to_string(id)));
  }
  fs::remove_all(dir);
}

TEST(SvcServer, TracingDoesNotPerturbDeterministicLaneResults) {
  // The same deterministic job stream with full tracing on and with no
  // recorder at all must produce bit-identical images: spans and flight
  // events are observational only.
  const auto run_once = [](obs::Recorder* rec) {
    TestService service(/*devices=*/2, /*queue_cap=*/8, rec);
    Client client = service.connect();
    std::vector<int> ids;
    for (int i = 0; i < 4; ++i) {
      SubmitParams p;
      p.deterministic = true;
      p.algorithm = (i % 2 == 0) ? "gpu" : "seq";
      p.max_equits = 2.0 + i;
      p.name = "det" + std::to_string(i);
      ids.push_back(client.submit(p).job_id);
    }
    std::vector<std::string> hashes;
    for (int id : ids) hashes.push_back(client.result(id).image_hash);
    client.drain();
    return hashes;
  };

  obs::ObsConfig obs_cfg;
  obs_cfg.trace = true;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  const std::vector<std::string> traced = run_once(&recorder);
  const std::vector<std::string> plain = run_once(nullptr);
  ASSERT_EQ(4u, traced.size());
  EXPECT_EQ(plain, traced);

  // And the traced run really did record the service span hierarchy:
  // submit on the control lane, queue waits on the device host lanes, the
  // job/iteration spans below them, with named host threads.
  const std::string trace = recorder.trace().toJson();
  EXPECT_NE(std::string::npos, trace.find("\"svc.submit\""));
  EXPECT_NE(std::string::npos, trace.find("\"svc.queue\""));
  EXPECT_NE(std::string::npos, trace.find("\"svc.job\""));
  EXPECT_NE(std::string::npos, trace.find("\"recon.iteration\""));
  EXPECT_NE(std::string::npos, trace.find("\"thread_name\""));
  EXPECT_NE(std::string::npos, trace.find("\"job_id\""));
}

TEST(SvcServer, EngineSpansLandOnTheJobsDeviceLane) {
  // DESIGN §11: every engine span of a service job is tagged with the job
  // and sits on its device's lanes — a host-clock event on tid device + 1,
  // a modeled-clock event on the device's trace process — whichever engine
  // ran it, and for a gang on its leader's lanes.
  obs::ObsConfig obs_cfg;
  obs_cfg.trace = true;
  obs::Recorder recorder(obs_cfg);
  std::map<int, int> device_of;  // job id -> device (a gang's leader)
  {
    TestService service(/*devices=*/2, /*queue_cap=*/8, &recorder);
    Client client = service.connect();
    std::vector<SubmitParams> specs;
    for (const char* algorithm : {"gpu", "psv", "seq"}) {
      SubmitParams p;
      p.deterministic = true;
      p.algorithm = algorithm;
      p.name = std::string("lane_") + algorithm;
      specs.push_back(p);
    }
    SubmitParams gang;
    gang.shards = 2;
    gang.name = "lane_gang";
    specs.push_back(gang);
    std::vector<int> ids;
    for (const SubmitParams& p : specs) {
      const auto out = client.submit(p);
      ASSERT_TRUE(out.accepted) << out.error;
      ids.push_back(out.job_id);
    }
    for (int id : ids) {
      const Client::JobInfo info = client.result(id);
      ASSERT_EQ("done", info.state) << "job " << id;
      device_of[id] = info.device;
    }
    client.drain();
  }

  const int base_pid = svc::kBaseTracePid;
  const int host_pid = int(obs::Clock::kHost);
  const std::vector<std::string> engine_spans = {
      "gpuicd.iteration", "psv.iteration",   "seq.sweep",
      "recon.setup",      "recon.iteration", "shard.transfer"};
  std::map<std::string, int> seen;
  const obs::JsonValue doc = obs::parseJson(recorder.trace().toJson());
  for (const obs::JsonValue& ev : doc.find("traceEvents")->array_v) {
    if (ev.find("ph")->asString() != "X") continue;
    const std::string& name = ev.find("name")->asString();
    const bool launch = name.rfind("gsim.launch.", 0) == 0;
    if (!launch && std::find(engine_spans.begin(), engine_spans.end(),
                             name) == engine_spans.end())
      continue;
    ++seen[launch ? "gsim.launch.*" : name];
    const int pid = int(ev.find("pid")->asNumber());
    const int tid = int(ev.find("tid")->asNumber());
    const obs::JsonValue* job = ev.find("args")->find("job_id");
    if (job == nullptr || device_of.count(int(job->asNumber())) == 0) {
      ADD_FAILURE() << name << " (pid " << pid << ", tid " << tid
                    << ") carries no submitted job_id";
      continue;
    }
    const int device = device_of[int(job->asNumber())];
    if (pid == host_pid)
      EXPECT_EQ(device + 1, tid) << name << " host event off its job's lane";
    else
      EXPECT_EQ(base_pid + device, pid)
          << name << " modeled event off its job's device process";
  }
  EXPECT_GT(seen["gsim.launch.*"], 0);
  for (const std::string& name : engine_spans)
    EXPECT_GT(seen[name], 0) << name << " never recorded";
}

TEST(SvcServer, ModeledEngineSpansNestInsideTheirJobOnTheDevice) {
  // Each engine stamps modeled events from its own clock, which starts at 0
  // for every job; on a device that ran several jobs they must still land
  // inside the job's svc.job.<name> span on the device's clock.
  obs::ObsConfig obs_cfg;
  obs_cfg.trace = true;
  obs::Recorder recorder(obs_cfg);
  std::vector<std::string> names;
  {
    TestService service(/*devices=*/1, /*queue_cap=*/4, &recorder);
    Client client = service.connect();
    std::vector<int> ids;
    for (int i = 0; i < 3; ++i) {
      SubmitParams p;
      p.name = "nest" + std::to_string(i);
      ids.push_back(client.submit(p).job_id);
      names.push_back(p.name);
    }
    for (int id : ids) ASSERT_EQ("done", client.result(id).state);
    client.drain();
  }

  struct Window {
    double t0 = 0.0, t1 = -1.0;
  };
  std::map<int, Window> job_span;  // job id -> its svc.job.<name> span
  std::vector<obs::TraceEvent> engine;
  const int host_pid = int(obs::Clock::kHost);
  for (obs::TraceEvent& ev : recorder.trace().snapshot()) {
    if (ev.clock != obs::Clock::kModeled || ev.pid == host_pid) continue;
    int id = -1;
    for (const auto& [k, v] : ev.num_args)
      if (k == "job_id") id = int(v);
    if (id < 0) continue;
    if (ev.name == "svc.job." + names[std::size_t(id)])
      job_span[id] = {ev.ts_us, ev.ts_us + ev.dur_us};
    else
      engine.push_back(std::move(ev));
  }
  ASSERT_EQ(3u, job_span.size());
  EXPECT_GT(job_span[2].t0, 0.0);  // the device ran two jobs before it
  std::map<int, int> seen;
  for (const obs::TraceEvent& ev : engine) {
    int id = -1;
    for (const auto& [k, v] : ev.num_args)
      if (k == "job_id") id = int(v);
    const Window& w = job_span[id];
    const double tol = 1e-6 * std::max(1.0, w.t1);
    ++seen[id];
    EXPECT_GE(ev.ts_us, w.t0 - tol) << ev.name << " of job " << id;
    EXPECT_LE(ev.ts_us + ev.dur_us, w.t1 + tol) << ev.name << " of job " << id;
  }
  for (int id = 0; id < 3; ++id) EXPECT_GT(seen[id], 0) << "job " << id;
}

TEST(SvcServer, TenantsFlowThroughReportAndLabeledMetrics) {
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  TestService service(/*devices=*/1, /*queue_cap=*/4, &recorder);
  Client client = service.connect();

  SubmitParams acme;
  acme.tenant = "acme";
  acme.name = "acme-job";
  const int acme_id = client.submit(acme).job_id;
  const int anon_id = client.submit(SubmitParams{}).job_id;
  EXPECT_EQ("done", client.result(acme_id).state);
  EXPECT_EQ("done", client.result(anon_id).state);

  // The drain report carries the tenant per job (omitted when default).
  const obs::JsonValue report = client.drain();
  const obs::JsonValue* jobs = report.find("jobs");
  ASSERT_TRUE(jobs->isArray());
  for (const obs::JsonValue& j : jobs->array_v) {
    const int id = int(j.find("job_id")->num_v);
    if (id == acme_id) {
      ASSERT_NE(nullptr, j.find("tenant"));
      EXPECT_EQ("acme", j.find("tenant")->str_v);
    } else {
      EXPECT_EQ(nullptr, j.find("tenant"));
    }
  }

  // Terminal accounting is labeled per tenant ("" -> "default").
  obs::MetricsRegistry& m = recorder.metrics();
  EXPECT_EQ(1u, m.counterValue("svc.jobs.done{tenant=acme}"));
  EXPECT_EQ(1u, m.counterValue("svc.jobs.done{tenant=default}"));
  EXPECT_EQ(1u, m.histogramSnapshot("svc.job.e2e_host_s{tenant=acme}").count);
  EXPECT_EQ(1u,
            m.histogramSnapshot("svc.job.e2e_host_s{tenant=default}").count);
  // The unlabeled aggregate still sees every job.
  EXPECT_EQ(2u, m.histogramSnapshot("svc.job.e2e_host_s").count);
}

/// Every key path under `v` into `out`: "a.b" for object members, "a[]"
/// for array elements (all elements fold into one path). The registry's
/// `metrics` subtree is its own schema, so only its key is listed.
void collectKeyPaths(const obs::JsonValue& v, const std::string& path,
                     std::set<std::string>& out) {
  if (v.isArray()) {
    for (const obs::JsonValue& e : v.array_v)
      collectKeyPaths(e, path + "[]", out);
    if (!v.array_v.empty() && !v.array_v.front().isObject())
      out.insert(path + "[]");
    return;
  }
  if (!v.isObject()) return;
  for (const auto& [k, child] : v.object_v) {
    const std::string p = path.empty() ? k : path + "." + k;
    out.insert(p);
    if (k != "metrics") collectKeyPaths(child, p, out);
  }
}

TEST(SvcServer, EveryDocumentKeepsItsKeyPaths) {
  // The wire contract reconctl, the CI smoke steps, perfbench and Client
  // parse: the full key-path set of each of the five svc documents, whole
  // response envelope included, from one fixed scenario that exercises
  // every optional field (tenant, deadline, run outcome, error, image hash,
  // a queued and a running job, a priority-lane backlog, a chaos plan).
  obs::ObsConfig obs_cfg;
  obs_cfg.metrics = true;
  obs::Recorder recorder(obs_cfg);
  TestService service(/*devices=*/1, /*queue_cap=*/8, &recorder);
  Client client = service.connect();
  const auto request = [&](const std::string& verb, int job = -1) {
    std::string payload =
        R"({"schema":"gpumbir.svc/1","verb":")" + verb + "\"";
    if (job >= 0) payload += ",\"job\":" + std::to_string(job);
    return client.call(payload + "}");
  };
  std::map<std::string, std::set<std::string>> paths;
  const auto keep = [&](const std::string& doc, const obs::JsonValue& v) {
    ASSERT_TRUE(v.find("ok")->bool_v) << doc;
    collectKeyPaths(v, "", paths[doc]);
  };

  SubmitParams block = blockerParams("block");
  block.tenant = "acme";
  const int blocker = client.submit(block).job_id;
  awaitState(client, blocker, "running");
  SubmitParams waiting;
  waiting.name = "waiting";
  waiting.tenant = "acme";
  waiting.priority = 3;
  waiting.deadline_ms = 1e7;
  const int queued = client.submit(waiting).job_id;
  keep("status(job)", request("status", queued));
  keep("stats", request("stats"));
  keep("status", request("status"));
  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.target_devices = {0};
  keep("chaos", client.chaos(plan, /*watchdog_ms=*/0.0));
  SubmitParams doomed;
  doomed.name = "doomed";
  doomed.fault = "launch@0";
  const int failed = client.submit(doomed).job_id;
  ASSERT_TRUE(client.cancel(blocker));
  EXPECT_EQ("failed", client.result(failed).state);
  keep("result", request("result", queued));
  keep("drain", request("drain"));

  const std::set<std::string> job_base = {
      "ok", "schema", "verb", "job_id", "name", "tenant", "state",
      "priority", "deterministic", "deadline_ms", "device", "dispatch_seq",
      "queue_wait_host_s", "service_host_s", "e2e_host_s", "cache_hit"};
  std::set<std::string> job_terminal = job_base;
  for (const char* k : {"converged", "equits", "final_rmse_hu",
                        "modeled_seconds", "queue_wait_modeled_s",
                        "image_hash"})
    job_terminal.insert(k);
  const std::set<std::string> plan_keys = {
      "seed", "launch_fault_rate", "stall_rate", "death_rate",
      "target_devices"};
  const auto with_plan = [&](std::set<std::string> keys,
                             const std::string& prefix, bool targeted) {
    for (const std::string& k : plan_keys) keys.insert(prefix + k);
    if (targeted) keys.insert(prefix + "target_devices[]");
    return keys;
  };

  std::set<std::string> stats = {
      "ok", "schema", "verb", "stats"};
  for (const char* k :
       {"schema", "accepting", "draining", "uptime_host_s", "num_devices",
        "queue_capacity", "queued", "running", "submitted", "rejected",
        "finished", "queue_depth_by_priority", "queue_depth_by_priority.3",
        "devices", "devices[].device", "devices[].busy", "devices[].failed",
        "devices[].running_job", "devices[].modeled_s",
        "devices[].det_lane_depth", "in_flight", "in_flight[].job_id",
        "in_flight[].state", "in_flight[].name", "in_flight[].tenant",
        "in_flight[].priority", "in_flight[].deterministic",
        "in_flight[].device", "in_flight[].age_host_s",
        "in_flight[].deadline_remaining_ms", "flight",
        "flight.events_recorded", "flight.dumps", "chaos", "chaos.enabled",
        "chaos.watchdog_ms", "chaos.devices_failed", "chaos.jobs_migrated",
        "chaos.plan", "store", "store.cache_hits", "store.warm_starts",
        "store.jobs_recovered", "store.tenants", "store.tenants[].tenant",
        "store.tenants[].weight", "store.tenants[].vtime",
        "store.tenants[].served_cost", "store.tenants[].picks", "metrics"})
    stats.insert(std::string("stats.") + k);
  stats = with_plan(stats, "stats.chaos.plan.", /*targeted=*/false);

  std::set<std::string> report = {"ok", "schema", "verb", "report"};
  for (const char* k :
       {"schema", "simd", "num_devices", "queue_capacity", "jobs_submitted",
        "admission_rejected", "jobs_done", "jobs_converged",
        "jobs_cancelled", "jobs_failed", "jobs_deadline_missed",
        "devices_failed", "jobs_migrated", "cache_hits", "warm_starts",
        "jobs_recovered", "failed_devices", "chaos", "chaos.enabled",
        "chaos.watchdog_ms", "chaos.plan", "queue_depth_max",
        "host_seconds", "jobs_per_host_second", "queue_wait_host_s",
        "service_host_s", "e2e_host_s", "modeled_device_seconds_total",
        "makespan_modeled_s", "device_modeled_s", "device_modeled_s[]",
        "tenants", "tenants[].tenant", "tenants[].weight",
        "tenants[].jobs_submitted", "tenants[].jobs_done",
        "tenants[].cache_hits", "tenants[].warm_starts",
        "tenants[].goodput_jobs_per_s", "tenants[].queue_wait_host_s",
        "tenants[].e2e_host_s", "jobs", "jobs[].error", "metrics"})
    report.insert(std::string("report.") + k);
  for (const char* dist : {"queue_wait_host_s", "service_host_s",
                           "e2e_host_s", "tenants[].queue_wait_host_s",
                           "tenants[].e2e_host_s"})
    for (const char* k : {"count", "mean", "max", "p50", "p95", "p99"})
      report.insert(std::string("report.") + dist + "." + k);
  for (const std::string& k : job_terminal)
    if (k != "ok" && k != "schema" && k != "verb")
      report.insert("report.jobs[]." + k);
  report = with_plan(report, "report.chaos.plan.", /*targeted=*/true);

  std::set<std::string> chaos_doc = {
      "ok", "schema", "verb", "enabled", "watchdog_ms", "devices_failed",
      "jobs_migrated", "plan"};
  chaos_doc = with_plan(chaos_doc, "plan.", /*targeted=*/true);

  const std::map<std::string, std::set<std::string>> expected = {
      {"status(job)", job_base},
      {"result", job_terminal},
      {"stats", stats},
      {"status",
       {"ok", "schema", "verb", "accepting", "queued", "running",
        "submitted", "rejected", "finished", "num_devices",
        "queue_capacity"}},
      {"chaos", chaos_doc},
      {"drain", report},
  };
  for (const auto& [doc, want] : expected) {
    const std::set<std::string>& got = paths[doc];
    for (const std::string& k : want)
      EXPECT_TRUE(got.count(k)) << doc << " lost key path " << k;
    for (const std::string& k : got)
      EXPECT_TRUE(want.count(k)) << doc << " gained key path " << k;
  }
}

// ---------------------------------------------------------------------------
// Malformed-frame fuzz
// ---------------------------------------------------------------------------

TEST(SvcServer, MalformedPayloadCorpusNeverKillsTheServer) {
  TestService service(1, 4);
  // Every payload is framed correctly but garbage inside; the server must
  // answer ok:false (or close the connection) and keep serving.
  const std::vector<std::string> corpus = {
      "",
      "not json",
      "{",
      "[1,2,3]",
      R"("just a string")",
      R"({"schema":"gpumbir.svc/1"})",                    // no verb
      R"({"schema":"nope","verb":"ping"})",               // wrong schema
      R"({"schema":"gpumbir.svc/1","verb":""})",          // empty verb
      R"({"schema":"gpumbir.svc/1","verb":"submit","case":-3})",
      R"({"schema":"gpumbir.svc/1","verb":"submit","case":1e999})",
      R"({"schema":"gpumbir.svc/1","verb":"submit","priority":1.5})",
      R"({"schema":"gpumbir.svc/1","verb":"status","job":true})",
      R"({"schema":"gpumbir.svc/1","verb":"cancel"})",
      R"({"schema":"gpumbir.svc/1","verb":"result","job":99})",
      R"({"a":1,"a":2,"schema":"gpumbir.svc/1","verb":"ping"})",  // dup key
      std::string("\x00\xff\xfe garbage \x01", 12),
  };
  for (const std::string& payload : corpus) {
    SCOPED_TRACE(payload);
    Client client = service.connect();
    try {
      const obs::JsonValue resp = client.call(payload);
      EXPECT_FALSE(resp.find("ok")->bool_v);
      EXPECT_NE(nullptr, resp.find("error"));
    } catch (const Error&) {
      // Connection-level rejection is acceptable; server survival is what
      // the post-iteration ping asserts.
    }
    Client probe = service.connect();
    EXPECT_TRUE(probe.ping());
  }
}

/// Count entries under a /proc/self/* directory (open fds, live threads).
std::size_t procCount(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir))
    ++n;
  return n;
}

TEST(SvcServer, MalformedFrameFloodDoesNotLeakFdsOrThreads) {
  // A client flooding the server with garbage frames at a steady rate must
  // not leak connection fds or handler threads on the server side, and
  // well-formed submissions must keep being admitted throughout. The
  // server lives in this process, so /proc/self counts cover it.
  ::signal(SIGPIPE, SIG_IGN);  // flood writes race server-side closes
  TestService service(1, 8);
  Client good = service.connect();
  ASSERT_TRUE(good.ping());
  // Run one job before taking the baselines: the first run lazily spawns
  // the process-wide host pool's workers, which must not count as leaks.
  ASSERT_EQ("done", good.result(good.submit(SubmitParams{}).job_id).state);

  const std::size_t fd_baseline = procCount("/proc/self/fd");
  const std::size_t thread_baseline = procCount("/proc/self/task");

  Rng rng = Rng::forStream(0xF100D, 0);
  int admitted = 0;
  for (int round = 0; round < 6; ++round) {
    {
      // A wave of concurrently open flooders, each sending garbage.
      std::vector<Client> flood;
      for (int i = 0; i < 8; ++i) flood.push_back(service.connect());
      for (Client& c : flood) {
        std::string junk;
        switch (rng.below(3)) {
          case 0:  // random bytes, framing and all
            for (int b = 0; b < 32; ++b) junk.push_back(char(rng.below(256)));
            break;
          case 1:  // oversized declared length
            junk = std::string("\xff\xff\xff\xff", 4);
            break;
          default:  // well-framed garbage payload
            junk = svc::encodeFrame("{\"schema\":\"gpumbir.svc/1\"");
            break;
        }
        (void)!::write(c.fd(), junk.data(), junk.size());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Admission keeps working mid-flood.
      const Client::SubmitResult out = good.submit(SubmitParams{});
      ASSERT_TRUE(out.accepted) << out.error;
      EXPECT_EQ("done", good.result(out.job_id).state);
      ++admitted;
    }  // wave closed: the server should reap each connection handler
  }
  EXPECT_EQ(6, admitted);

  // Fd and thread counts return to ~baseline once the flood stops. Dead
  // connections are reaped lazily at the next accept, so each poll round
  // opens (and closes) a probe connection to drive the reaper; the probe
  // itself accounts for the small slack in the bound.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t fds = 0, threads = 0;
  for (;;) {
    {
      Client reaper = service.connect();
      ASSERT_TRUE(reaper.ping());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fds = procCount("/proc/self/fd");
    threads = procCount("/proc/self/task");
    if ((fds <= fd_baseline + 2 && threads <= thread_baseline + 2) ||
        std::chrono::steady_clock::now() > deadline)
      break;
  }
  EXPECT_LE(fds, fd_baseline + 2);
  EXPECT_LE(threads, thread_baseline + 2);

  // And the service is still fully operational.
  Client probe = service.connect();
  ASSERT_TRUE(probe.ping());
  EXPECT_EQ("done", probe.result(probe.submit(SubmitParams{}).job_id).state);
  probe.drain();
}

TEST(SvcServer, BrokenFramesAreSurvivable) {
  TestService service(1, 4);
  {  // Truncated header: 2 bytes then close.
    Client client = service.connect();
    ASSERT_EQ(2, ::write(client.fd(), "\x00\x01", 2));
  }
  {  // Truncated payload: header says 100 bytes, send 5, close.
    Client client = service.connect();
    ASSERT_EQ(4, ::write(client.fd(), "\x00\x00\x00\x64", 4));
    ASSERT_EQ(5, ::write(client.fd(), "hello", 5));
  }
  {  // Oversized declared length: the server answers and closes.
    Client client = service.connect();
    ASSERT_EQ(4, ::write(client.fd(), "\xff\xff\xff\xff", 4));
    std::string payload;
    EXPECT_EQ(svc::FrameStatus::kOk, svc::readFrame(client.fd(), payload));
    const obs::JsonValue resp = obs::parseJson(payload);
    EXPECT_FALSE(resp.find("ok")->bool_v);
    EXPECT_NE(std::string::npos,
              resp.find("error")->str_v.find("byte limit"));
  }
  // After all of that, the service still works end to end.
  Client client = service.connect();
  ASSERT_TRUE(client.ping());
  EXPECT_EQ("done", client.result(client.submit(SubmitParams{}).job_id).state);
  client.drain();
}

}  // namespace
}  // namespace mbir::test
