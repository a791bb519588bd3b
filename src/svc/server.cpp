#include "svc/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <optional>
#include <sys/socket.h>
#include <unistd.h>

#include "core/error.h"
#include "core/hash.h"

namespace mbir::svc {

namespace {

/// The submit verb's answer: the job id and whether the result cache served
/// it — or the rejection, marked as admission backpressure.
std::string submitResponse(const SubmitOutcome& out) {
  if (!out.accepted) return errorResponse(out.reason, /*rejected=*/true);
  obs::JsonWriter w;
  beginResponse(w, true, "submit");
  w.kv("job_id", out.job_id);
  w.kv("cache_hit", out.cache_hit);
  w.endObject();
  return w.str();
}

}  // namespace

Server::Server(ServerOptions options, JobSource& source)
    : opt_(std::move(options)),
      source_(source),
      dispatcher_(makeDispatchOptions()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MBIR_CHECK_MSG(listen_fd_ >= 0, "socket(): " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opt_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("bind(127.0.0.1:" + std::to_string(opt_.port) + "): " + err);
  }
  MBIR_CHECK_MSG(::listen(listen_fd_, 64) == 0,
                 "listen(): " << std::strerror(errno));

  socklen_t len = sizeof addr;
  MBIR_CHECK_MSG(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname(): " << std::strerror(errno));
  port_ = ntohs(addr.sin_port);

  // Re-dispatch everything the WAL replayed as admitted-but-unfinished
  // before any client can connect, so recovered jobs keep their original
  // admission order relative to new traffic.
  recoverPendingJobs();

  acceptor_ = std::thread([this] { acceptLoop(); });
}

DispatcherOptions Server::makeDispatchOptions() {
  DispatcherOptions d = opt_.dispatch;
  if (opt_.wal || opt_.cache)
    d.on_terminal = [this](const JobStatus& s) { onJobTerminal(s); };
  return d;
}

JobSpec Server::makeJobSpec(const SubmitParams& p,
                            const JobSource::Case& c) const {
  JobSpec spec;
  spec.problem = &c.problem;
  spec.golden = &c.golden;
  spec.config = makeRunConfig(opt_.base_config, p);
  spec.name = p.name;
  spec.tenant = p.tenant;
  spec.priority = p.priority;
  spec.deadline_ms = p.deadline_ms;
  spec.deterministic = p.deterministic;
  spec.shards = p.shards;
  spec.shard_halo = p.shard_halo;
  spec.fault = chaos::parseFaultSpec(p.fault);
  return spec;
}

std::uint64_t Server::caseInputHash(int case_index, const JobSource::Case& c) {
  {
    std::lock_guard lock(store_mu_);
    if (auto it = case_input_hash_.find(case_index);
        it != case_input_hash_.end())
      return it->second;
  }
  // Hash outside the lock (O(sinogram) work); a racing duplicate computes
  // the same value, so the late emplace is a no-op.
  const std::uint64_t h = hashCaseInputs(c.problem, c.golden);
  std::lock_guard lock(store_mu_);
  case_input_hash_.emplace(case_index, h);
  return h;
}

void Server::registerStoreRec(int job_id, StoreRec rec) {
  std::optional<JobStatus> ready;
  {
    std::lock_guard lock(store_mu_);
    // The job may already be terminal: a fast run's on_terminal callback
    // fired before this thread got here and parked its snapshot.
    if (auto it = unclaimed_terminal_.find(job_id);
        it != unclaimed_terminal_.end()) {
      ready = std::move(it->second);
      unclaimed_terminal_.erase(it);
    } else {
      job_store_.emplace(job_id, std::move(rec));
      return;
    }
  }
  finishStoreRec(rec, *ready);
}

void Server::onJobTerminal(const JobStatus& s) {
  StoreRec rec;
  {
    std::lock_guard lock(store_mu_);
    auto it = job_store_.find(s.job_id);
    if (it == job_store_.end()) {
      // Either the submit thread has not registered its StoreRec yet (park
      // the snapshot for it) or this is a cache-hit job, which is never
      // store-tracked: its result was already durable when it was admitted.
      if (!s.cache_hit) unclaimed_terminal_.emplace(s.job_id, s);
      return;
    }
    rec = std::move(it->second);
    job_store_.erase(it);
  }
  finishStoreRec(rec, s);
}

void Server::finishStoreRec(const StoreRec& rec, const JobStatus& s) {
  try {
    // Cache insert BEFORE the WAL terminal: a crash between the two makes
    // the restart replay the job as pending and serve it from the cache —
    // the same bits, delivered exactly once. The opposite order could mark
    // a job finished whose result no incarnation can produce again without
    // a re-run. Only cold runs are inserted, so every cache entry is
    // bit-identical to a cold run of its key.
    if (opt_.cache && s.state == JobState::kDone && s.has_image &&
        !s.warm_start && !s.cache_hit) {
      if (const std::optional<Image2D> img = dispatcher_.image(s.job_id)) {
        store::ResultCache::Meta meta;
        meta.input_hash = rec.input_hash;
        meta.config_key = rec.config_key;
        meta.converged = s.converged;
        meta.equits = s.equits;
        meta.final_rmse_hu = s.final_rmse_hu;
        meta.modeled_seconds = s.modeled_seconds;
        meta.image_hash = s.image_hash;
        opt_.cache->insert(meta, *img);
      }
    }
    if (opt_.wal && rec.wal_id >= 0)
      opt_.wal->appendTerminal(rec.wal_id, jobStateName(s.state),
                               s.image_hash);
  } catch (const std::exception& e) {
    // Store I/O failure must not kill the device thread delivering the
    // callback; the job itself already completed.
    std::fprintf(stderr, "gpumbir: store update for job %d failed: %s\n",
                 s.job_id, e.what());
  }
}

void Server::recoverPendingJobs() {
  if (!opt_.wal) return;
  for (const store::PendingJob& pj : opt_.wal->pending()) {
    try {
      const Request req = parseRequest(pj.params_json);
      const SubmitParams p = parseSubmitParams(req);
      const JobSource::Case c = source_.get(p.case_index);

      JobSpec spec = makeJobSpec(p, c);
      // No fault replay: an injected fault belonged to the crashed
      // incarnation's chaos plan; the recovered job re-runs clean.
      spec.fault = chaos::JobFault{};
      spec.recoveries = pj.recoveries + 1;

      const std::uint64_t input_hash = caseInputHash(p.case_index, c);
      const std::string config_key = cacheConfigKey(opt_.base_config, p);

      // Exact cache hit: this incarnation (or an identical earlier job)
      // already produced the bits — serve them and close the WAL entry.
      // Recovered jobs never warm-start: recovery promises either a
      // bit-identical det-lane re-run or a fresh cold run.
      if (opt_.cache && !p.bypass_cache && !p.deterministic &&
          p.fault.empty()) {
        if (const auto hit = opt_.cache->find(input_hash, config_key)) {
          if (dispatcher_.submitCached(spec, *hit).accepted) {
            // Cache-hit jobs are not store-tracked, so write the terminal
            // record here: the pending entry is now satisfied.
            opt_.wal->appendTerminal(pj.wal_id, "done", hit->meta.image_hash);
            continue;
          }
        }
      }

      // Re-append the admit with the bumped recoveries count first, so a
      // second crash still knows how many times this job has come back.
      opt_.wal->appendAdmit(pj.wal_id, spec.recoveries, pj.params_json);
      const SubmitOutcome out = dispatcher_.submit(spec);
      if (!out.accepted) {
        std::fprintf(stderr,
                     "gpumbir: WAL recovery: wal_id=%lld rejected: %s\n",
                     static_cast<long long>(pj.wal_id), out.reason.c_str());
        continue;
      }
      StoreRec rec;
      rec.wal_id = pj.wal_id;
      rec.input_hash = input_hash;
      rec.config_key = config_key;
      registerStoreRec(out.job_id, std::move(rec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gpumbir: WAL recovery for wal_id=%lld failed: %s\n",
                   static_cast<long long>(pj.wal_id), e.what());
    }
  }
}

Server::~Server() { stop(); }

void Server::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down (or hard failure): acceptor exits
    }
    std::lock_guard lock(conn_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    reapConnectionsLocked();
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn] { handleConnection(conn); });
  }
}

void Server::reapConnectionsLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      ::close(it->fd);  // closed exactly once, after the thread is gone
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::handleConnection(Connection& conn) {
  std::string payload;
  while (true) {
    const FrameStatus st = readFrame(conn.fd, payload, opt_.max_frame_bytes);
    if (st == FrameStatus::kOversized) {
      // The body was never read, so the stream cannot be resynced: report
      // and drop the connection.
      writeFrame(conn.fd,
                 errorResponse("frame exceeds " +
                               std::to_string(opt_.max_frame_bytes) +
                               " byte limit"));
      break;
    }
    if (st != FrameStatus::kOk) break;  // closed / truncated / read error

    std::string response;
    try {
      const Request req = parseRequest(payload);
      response = handleRequest(req);
    } catch (const std::exception& e) {
      response = errorResponse(e.what());
    }
    if (!writeFrame(conn.fd, response)) break;
  }
  conn.done.store(true, std::memory_order_release);
}

std::string Server::handleRequest(const Request& req) {
  if (req.verb == "submit") return handleSubmit(req);
  if (req.verb == "status") return handleStatus(req);
  if (req.verb == "cancel") return handleCancel(req);
  if (req.verb == "result") return handleResult(req);
  if (req.verb == "stats") return handleStats();
  if (req.verb == "flight") return handleFlight(req);
  if (req.verb == "chaos") return handleChaos(req);
  if (req.verb == "drain") return handleDrain();
  if (req.verb == "ping") {
    obs::JsonWriter w;
    beginResponse(w, true, "ping");
    w.endObject();
    return w.str();
  }
  return errorResponse("unknown verb '" + req.verb + "'");
}

std::string Server::handleSubmit(const Request& req) {
  const SubmitParams p = parseSubmitParams(req);
  const JobSource::Case c = source_.get(p.case_index);

  JobSpec spec = makeJobSpec(p, c);
  // A forced stall/death on a server with no watchdog would park the device
  // forever with nothing to free it — refuse at the door.
  if ((spec.fault.kind == chaos::FaultKind::kStall ||
       spec.fault.kind == chaos::FaultKind::kDeath) &&
      dispatcher_.watchdogMs() <= 0.0)
    return errorResponse("fault '" + p.fault +
                         "' needs an armed watchdog (see the chaos verb)");

  const bool store_on = opt_.wal || opt_.cache;
  std::uint64_t input_hash = 0;
  std::string config_key;
  if (store_on) {
    input_hash = caseInputHash(p.case_index, c);
    config_key = cacheConfigKey(opt_.base_config, p);
  }

  // Result cache: deterministic-lane jobs never consult it (their contract
  // is the re-runnable lane schedule, not a served result — though their
  // cold results are still inserted for others), and a forced-fault submit
  // wants a run, not a lookup.
  if (opt_.cache && !p.bypass_cache && !p.deterministic && p.fault.empty()) {
    // Exact (input, config) hit: serve the finished image without
    // dispatching. No WAL records either — the result was durable before
    // the job existed, so there is nothing to recover.
    if (const auto hit = opt_.cache->find(input_hash, config_key))
      return submitResponse(dispatcher_.submitCached(spec, *hit));
    // Near-duplicate: same inputs under a different config — warm-start
    // from the most-converged cached image. Single-shard only: a sharded
    // job's slab subproblems cannot take a full-size initial image.
    if (p.shards == 1) {
      if (const auto warm =
              opt_.cache->findWarm(input_hash, c.golden.size())) {
        spec.config.initial_image = warm->image;
        spec.warm_start = true;
      }
    }
  }

  const SubmitOutcome out = dispatcher_.submit(spec);
  if (out.accepted && store_on) {
    StoreRec rec;
    rec.input_hash = input_hash;
    rec.config_key = config_key;
    if (opt_.wal) {
      // Durability point: the admit record is on disk before the client
      // sees the ack, so an acknowledged job survives any crash after this.
      rec.wal_id = opt_.wal->nextId();
      opt_.wal->appendAdmit(rec.wal_id, 0, encodeSubmit(p));
    }
    registerStoreRec(out.job_id, std::move(rec));
  }
  return submitResponse(out);
}

std::string Server::handleStatus(const Request& req) {
  obs::JsonWriter w;
  if (req.has("job")) {
    const int id = int(req.getInt("job", -1));
    if (!dispatcher_.knownJob(id))
      return errorResponse("unknown job id " + std::to_string(id));
    beginResponse(w, true, "status");
    writeJobStatus(w, dispatcher_.status(id));
    w.endObject();
    return w.str();
  }
  const Dispatcher::LiveStats s = dispatcher_.liveStats();
  beginResponse(w, true, "status");
  w.kv("accepting", s.accepting);
  w.kv("queued", s.queued);
  w.kv("running", s.running);
  w.kv("submitted", std::int64_t(s.submitted));
  w.kv("rejected", std::int64_t(s.rejected));
  w.kv("finished", std::int64_t(s.finished));
  w.kv("num_devices", dispatcher_.numDevices());
  w.kv("queue_capacity", dispatcher_.queueCapacity());
  w.endObject();
  return w.str();
}

std::string Server::handleCancel(const Request& req) {
  if (!req.has("job")) throw Error("cancel needs a 'job' field");
  const int id = int(req.getInt("job", -1));
  if (!dispatcher_.knownJob(id))
    return errorResponse("unknown job id " + std::to_string(id));
  const bool cancelled = dispatcher_.cancel(id);
  obs::JsonWriter w;
  beginResponse(w, true, "cancel");
  w.kv("job_id", id);
  w.kv("cancelled", cancelled);  // false = the job was already terminal
  w.endObject();
  return w.str();
}

std::string Server::handleResult(const Request& req) {
  if (!req.has("job")) throw Error("result needs a 'job' field");
  const int id = int(req.getInt("job", -1));
  if (!dispatcher_.knownJob(id))
    return errorResponse("unknown job id " + std::to_string(id));
  const bool include_image = req.getBool("include_image", false);

  // Blocks this connection (only) until the job is terminal. The flush
  // makes this a store sync point: once a client has seen a result, the
  // job's cache insert / WAL terminal record are on disk too.
  const JobStatus s = dispatcher_.waitTerminal(id);
  dispatcher_.flushNotifications();
  obs::JsonWriter w;
  beginResponse(w, true, "result");
  writeJobStatus(w, s);
  if (include_image && s.has_image) {
    const std::optional<Image2D> img = dispatcher_.image(id);
    MBIR_CHECK(img.has_value());
    w.key("image").beginObject();
    w.kv("size", img->size());
    // float -> double is exact and the writer prints doubles round-trip
    // (%.17g), so the client reassembles bit-identical pixels.
    w.key("pixels").beginArray();
    for (float v : img->flat()) w.value(double(v));
    w.endArray();
    w.endObject();
  }
  w.endObject();
  return w.str();
}

std::string Server::handleStats() {
  // The live snapshot is built under the dispatcher lock, which the device
  // threads only touch between jobs — a stats scrape never pauses a run.
  obs::JsonWriter w;
  beginResponse(w, true, "stats");
  w.key("stats");
  w.raw(dispatcher_.liveStatsJson());
  w.endObject();
  return w.str();
}

std::string Server::handleFlight(const Request& req) {
  const std::string reason = req.getString("reason", "flight verb");
  obs::JsonWriter w;
  beginResponse(w, true, "flight");
  w.key("flight");
  w.raw(dispatcher_.flightJson(reason));
  w.endObject();
  return w.str();
}

std::string Server::handleChaos(const Request& req) {
  // With a "seed" field this is an admin write: install a new fault plan
  // (and watchdog) for jobs dispatched from now on. Without one it is a
  // read-only report. Either way the response shows the active plan.
  if (req.has("seed")) {
    chaos::FaultPlan plan;
    plan.seed = std::uint64_t(req.getInt("seed", 0, -(1LL << 53), 1LL << 53));
    plan.launch_fault_rate = req.getDouble("launch_fault_rate", 0.0);
    plan.stall_rate = req.getDouble("stall_rate", 0.0);
    plan.death_rate = req.getDouble("death_rate", 0.0);
    if (const obs::JsonValue* devs = req.doc.find("target_devices")) {
      if (!devs->isArray())
        throw Error("'target_devices' must be an array of device ids");
      for (const obs::JsonValue& d : devs->array_v)
        plan.target_devices.push_back(int(checkedInt(
            d, "target_devices", 0, std::numeric_limits<int>::max())));
    }
    plan.validate();
    const double watchdog_ms = req.getDouble("watchdog_ms", 1000.0);
    dispatcher_.setFaultPlan(plan, watchdog_ms);
  }
  const Dispatcher::LiveStats s = dispatcher_.liveStats();
  obs::JsonWriter w;
  beginResponse(w, true, "chaos");
  w.kv("enabled", s.chaos_enabled);
  w.kv("watchdog_ms", s.watchdog_ms);
  w.kv("devices_failed", std::int64_t(s.devices_failed));
  w.kv("jobs_migrated", std::int64_t(s.jobs_migrated));
  w.key("plan").raw(dispatcher_.faultPlan().toJson());
  w.endObject();
  return w.str();
}

std::string Server::handleDrain() {
  drainAndReport();
  obs::JsonWriter w;
  beginResponse(w, true, "drain");
  w.key("report");
  w.raw(dispatcher_.reportJson());
  w.endObject();
  return w.str();
}

const SvcReport& Server::drainAndReport() {
  const SvcReport& rep = dispatcher_.drain();
  drain_requested_.store(true, std::memory_order_release);
  return rep;
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the acceptor out of accept() ...
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // ... then every connection out of readFrame(); join before closing so
  // an fd is never reused while its thread might still touch it.
  std::lock_guard lock(conn_mu_);
  for (Connection& conn : connections_) ::shutdown(conn.fd, SHUT_RDWR);
  for (Connection& conn : connections_) conn.thread.join();
  for (Connection& conn : connections_) ::close(conn.fd);
  connections_.clear();
}

}  // namespace mbir::svc
