#include "svc/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "chaos/fault.h"
#include "core/error.h"
#include "core/hash.h"

namespace mbir::svc {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string encodeFrame(std::string_view payload) {
  MBIR_CHECK_MSG(payload.size() <= 0xFFFFFFFFu, "frame payload too large");
  const auto n = std::uint32_t(payload.size());
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(char((n >> 24) & 0xFF));
  out.push_back(char((n >> 16) & 0xFF));
  out.push_back(char((n >> 8) & 0xFF));
  out.push_back(char(n & 0xFF));
  out.append(payload);
  return out;
}

const char* frameStatusName(FrameStatus s) {
  switch (s) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kError: return "error";
  }
  return "?";
}

namespace {

/// Read exactly n bytes; returns bytes read before EOF/error (< n), with
/// `err` set on a hard read error.
std::size_t readExact(int fd, void* buf, std::size_t n, bool& err) {
  err = false;
  auto* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += std::size_t(r);
    } else if (r == 0) {
      return got;  // EOF
    } else if (errno == EINTR) {
      continue;
    } else {
      err = true;
      return got;
    }
  }
  return got;
}

bool writeAll(int fd, const char* p, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as an
    // error return, not a process-killing SIGPIPE. Pipes (tests, local
    // tooling) reject send() with ENOTSOCK — fall back to write() there.
    ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0 && errno == ENOTSOCK) r = ::write(fd, p + sent, n - sent);
    if (r > 0) {
      sent += std::size_t(r);
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

FrameStatus readFrame(int fd, std::string& payload, std::size_t max_bytes) {
  unsigned char hdr[kFrameHeaderBytes];
  bool err = false;
  std::size_t got = readExact(fd, hdr, sizeof hdr, err);
  if (err) return FrameStatus::kError;
  if (got == 0) return FrameStatus::kClosed;
  if (got < sizeof hdr) return FrameStatus::kTruncated;
  const std::uint32_t n = (std::uint32_t(hdr[0]) << 24) |
                          (std::uint32_t(hdr[1]) << 16) |
                          (std::uint32_t(hdr[2]) << 8) | std::uint32_t(hdr[3]);
  if (n > max_bytes) return FrameStatus::kOversized;
  payload.resize(n);
  if (n == 0) return FrameStatus::kOk;
  got = readExact(fd, payload.data(), n, err);
  if (err) return FrameStatus::kError;
  if (got < n) return FrameStatus::kTruncated;
  return FrameStatus::kOk;
}

bool writeFrame(int fd, std::string_view payload) {
  const std::string frame = encodeFrame(payload);
  return writeAll(fd, frame.data(), frame.size());
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

namespace {
const obs::JsonValue* findTyped(const obs::JsonValue& doc,
                                const std::string& key,
                                obs::JsonValue::Type type,
                                const char* type_name) {
  const obs::JsonValue* v = doc.find(key);
  if (!v) return nullptr;
  if (v->type != type)
    throw Error("field '" + key + "' must be a " + type_name);
  return v;
}
}  // namespace

std::int64_t checkedInt(const obs::JsonValue& v, const std::string& key,
                        std::int64_t lo, std::int64_t hi) {
  if (!v.isNumber()) throw Error("field '" + key + "' must be a number");
  const double d = v.num_v;
  if (d != std::floor(d) || d < double(lo) || d > double(hi))
    throw Error("field '" + key + "' must be an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return std::int64_t(d);
}

std::int64_t Request::getInt(const std::string& key, std::int64_t def,
                             std::int64_t lo, std::int64_t hi) const {
  const obs::JsonValue* v = doc.find(key);
  return v ? checkedInt(*v, key, lo, hi) : def;
}

double Request::getDouble(const std::string& key, double def) const {
  const obs::JsonValue* v =
      findTyped(doc, key, obs::JsonValue::Type::kNumber, "number");
  return v ? v->num_v : def;
}

bool Request::getBool(const std::string& key, bool def) const {
  const obs::JsonValue* v =
      findTyped(doc, key, obs::JsonValue::Type::kBool, "bool");
  return v ? v->bool_v : def;
}

std::string Request::getString(const std::string& key,
                               const std::string& def) const {
  const obs::JsonValue* v =
      findTyped(doc, key, obs::JsonValue::Type::kString, "string");
  return v ? v->str_v : def;
}

Request parseRequest(std::string_view payload) {
  Request req;
  req.doc = obs::parseJson(payload);  // throws on malformed input
  if (!req.doc.isObject()) throw Error("request must be a JSON object");
  const obs::JsonValue* schema = req.doc.find("schema");
  if (!schema || !schema->isString() || schema->str_v != kProtocolSchema)
    throw Error("request schema must be \"" + std::string(kProtocolSchema) +
                "\"");
  const obs::JsonValue* verb = req.doc.find("verb");
  if (!verb || !verb->isString() || verb->str_v.empty())
    throw Error("request needs a string 'verb'");
  req.verb = verb->str_v;
  return req;
}

// ---------------------------------------------------------------------------
// Submit parameters
// ---------------------------------------------------------------------------

std::string encodeSubmit(const SubmitParams& p) {
  obs::JsonWriter w;
  beginRequest(w, "submit");
  w.kv("case", p.case_index);
  w.kv("algorithm", p.algorithm);
  if (p.max_equits > 0.0) w.kv("max_equits", p.max_equits);
  if (p.stop_rmse_hu) w.kv("stop_rmse_hu", *p.stop_rmse_hu);
  if (p.sv_side > 0) w.kv("sv_side", p.sv_side);
  w.kv("priority", p.priority);
  if (p.deadline_ms >= 0.0) w.kv("deadline_ms", p.deadline_ms);
  w.kv("deterministic", p.deterministic);
  if (p.shards > 1) {
    w.kv("shards", p.shards);
    w.kv("shard_halo", p.shard_halo);
  }
  if (!p.simd.empty()) w.kv("simd", p.simd);
  if (!p.name.empty()) w.kv("name", p.name);
  if (!p.tenant.empty()) w.kv("tenant", p.tenant);
  if (!p.fault.empty()) w.kv("fault", p.fault);
  if (p.bypass_cache) w.kv("bypass_cache", true);
  w.endObject();
  return w.str();
}

SubmitParams parseSubmitParams(const Request& req) {
  SubmitParams p;
  p.case_index = int(req.getInt("case", 0, 0));
  p.algorithm = req.getString("algorithm", "gpu");
  p.max_equits = req.getDouble("max_equits", 0.0);
  if (req.has("stop_rmse_hu")) p.stop_rmse_hu = req.getDouble("stop_rmse_hu", 0.0);
  p.sv_side = int(req.getInt("sv_side", 0));
  p.priority = int(req.getInt("priority", 0));
  p.deadline_ms = req.getDouble("deadline_ms", -1.0);
  if (!(p.deadline_ms <= kMaxDeadlineMs))
    throw Error("'deadline_ms' must be finite and <= 1e12");
  p.deterministic = req.getBool("deterministic", false);
  p.shards = int(req.getInt("shards", 1, 1));
  p.shard_halo = int(req.getInt("shard_halo", 1, 0));
  if (p.shards > 1 && p.deterministic)
    throw Error("sharded jobs cannot be deterministic-lane");
  p.simd = req.getString("simd", "");
  p.name = req.getString("name", "");
  p.tenant = req.getString("tenant", "");
  p.fault = req.getString("fault", "");
  // Parse eagerly so a malformed spec fails the submit, not the job.
  chaos::parseFaultSpec(p.fault);
  p.bypass_cache = req.getBool("bypass_cache", false);
  return p;
}

RunConfig makeRunConfig(RunConfig base, const SubmitParams& p) {
  if (p.algorithm == "gpu") {
    base.algorithm = Algorithm::kGpuIcd;
  } else if (p.algorithm == "seq") {
    base.algorithm = Algorithm::kSequentialIcd;
  } else if (p.algorithm == "psv") {
    base.algorithm = Algorithm::kPsvIcd;
  } else {
    throw Error("unknown algorithm '" + p.algorithm +
                "' (expected gpu|seq|psv)");
  }
  if (p.max_equits > 0.0) base.max_equits = p.max_equits;
  if (p.stop_rmse_hu) base.stop_rmse_hu = *p.stop_rmse_hu;
  if (p.sv_side > 0) {
    base.gpu.tunables.sv.sv_side = p.sv_side;
    base.psv.sv.sv_side = p.sv_side;
  }
  // Parse eagerly so a bad value fails the submit, not the job; resolve
  // eagerly so forcing avx2 on an incapable server does too.
  if (!p.simd.empty()) {
    base.simd = parseSimdMode(p.simd);
    resolveSimdOps(base.simd);
  }
  // Accepted == reproducible: multi-thread PSV's result depends on its
  // thread count, which would tie it to the host, so the service always
  // pins it (DESIGN.md §7).
  base.psv.num_threads = 1;
  return base;
}

// ---------------------------------------------------------------------------
// Result-cache keys
// ---------------------------------------------------------------------------

std::string cacheConfigKey(const RunConfig& base, const SubmitParams& p) {
  const RunConfig c = makeRunConfig(base, p);
  // Engine-dependent result knobs: only the engine that runs reads its SV
  // side / update-order seed, so keying on the other engine's values would
  // split identical results across distinct keys.
  int sv_side = 0;
  std::uint64_t seed = 0;
  if (c.algorithm == Algorithm::kGpuIcd) {
    sv_side = c.gpu.tunables.sv.sv_side;
    seed = c.gpu.seed;
  } else if (c.algorithm == Algorithm::kPsvIcd) {
    sv_side = c.psv.sv.sv_side;
    seed = c.psv.seed;
  }
  // A single-slab "sharded" job is the unsharded computation.
  const int shards = p.shards > 1 ? p.shards : 1;
  const int halo = p.shards > 1 ? p.shard_halo : 0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "alg=%s;max_equits=%.17g;stop_rmse_hu=%.17g;sv=%d;seed=%llu;"
                "shards=%d;halo=%d",
                algorithmName(c.algorithm), c.max_equits, c.stop_rmse_hu,
                sv_side, static_cast<unsigned long long>(seed), shards, halo);
  return buf;
}

std::uint64_t hashCaseInputs(const OwnedProblem& problem,
                             const Image2D& golden) {
  const auto& scan = problem.scan();
  const auto& geom = problem.geometry();
  const std::uint64_t parts[6] = {
      fnv1a64(scan.y.flat()),
      fnv1a64(scan.weights.flat()),
      fnv1a64(golden.flat()),
      std::uint64_t(geom.num_views),
      std::uint64_t(geom.num_channels),
      std::uint64_t(geom.image_size),
  };
  return fnv1a64(parts, sizeof parts);
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void beginRequest(obs::JsonWriter& w, std::string_view verb) {
  w.beginObject();
  w.kv("schema", kProtocolSchema);
  w.kv("verb", verb);
}

void beginResponse(obs::JsonWriter& w, bool ok, std::string_view verb) {
  w.beginObject();
  w.kv("schema", kProtocolSchema);
  w.kv("ok", ok);
  if (!verb.empty()) w.kv("verb", verb);
}

std::string errorResponse(std::string_view message, bool rejected) {
  obs::JsonWriter w;
  beginResponse(w, false);
  w.kv("error", message);
  if (rejected) w.kv("rejected", true);
  w.endObject();
  return w.str();
}

}  // namespace mbir::svc
