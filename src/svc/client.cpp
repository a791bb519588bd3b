#include "svc/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/error.h"

namespace mbir::svc {

namespace {

double numField(const obs::JsonValue& doc, const std::string& k, double def) {
  const obs::JsonValue* v = doc.find(k);
  return v && v->isNumber() ? v->num_v : def;
}

std::string strField(const obs::JsonValue& doc, const std::string& k) {
  const obs::JsonValue* v = doc.find(k);
  return v && v->isString() ? v->str_v : std::string();
}

bool boolField(const obs::JsonValue& doc, const std::string& k, bool def) {
  const obs::JsonValue* v = doc.find(k);
  return v && v->type == obs::JsonValue::Type::kBool ? v->bool_v : def;
}

/// The object `key` of a response (its stats, flight or report document).
obs::JsonValue document(const obs::JsonValue& resp, const std::string& key) {
  const obs::JsonValue* v = resp.find(key);
  if (!v || !v->isObject())
    throw Error("svc: response carries no '" + key + "' document");
  return *v;
}

/// A request that carries nothing but its verb.
std::string bareRequest(std::string_view verb) {
  obs::JsonWriter w;
  beginRequest(w, verb);
  w.endObject();
  return w.str();
}

Client::JobInfo parseJobInfo(const obs::JsonValue& doc) {
  Client::JobInfo info;
  info.job_id = int(numField(doc, "job_id", -1));
  info.state = strField(doc, "state");
  info.name = strField(doc, "name");
  info.device = int(numField(doc, "device", -1));
  info.dispatch_seq = int(numField(doc, "dispatch_seq", -1));
  info.queue_wait_host_s = numField(doc, "queue_wait_host_s", 0.0);
  info.service_host_s = numField(doc, "service_host_s", 0.0);
  info.e2e_host_s = numField(doc, "e2e_host_s", 0.0);
  info.converged = boolField(doc, "converged", false);
  info.equits = numField(doc, "equits", 0.0);
  info.final_rmse_hu = numField(doc, "final_rmse_hu", 0.0);
  info.modeled_seconds = numField(doc, "modeled_seconds", 0.0);
  info.queue_wait_modeled_s = numField(doc, "queue_wait_modeled_s", 0.0);
  info.shards = int(numField(doc, "shards", 1));
  info.migrations = int(numField(doc, "migrations", 0));
  info.recoveries = int(numField(doc, "recoveries", 0));
  info.cache_hit = boolField(doc, "cache_hit", false);
  info.warm_start = boolField(doc, "warm_start", false);
  info.error = strField(doc, "error");
  info.image_hash = strField(doc, "image_hash");
  if (const obs::JsonValue* img = doc.find("image"); img && img->isObject()) {
    const int size = int(numField(*img, "size", 0));
    const obs::JsonValue* pixels = img->find("pixels");
    if (size > 0 && pixels && pixels->isArray() &&
        pixels->array_v.size() == std::size_t(size) * std::size_t(size)) {
      Image2D out(size);
      std::span<float> flat = out.flat();
      for (std::size_t i = 0; i < flat.size(); ++i)
        flat[i] = float(pixels->array_v[i].asNumber());
      info.image = std::move(out);
    }
  }
  return info;
}

}  // namespace

Client::Client(std::uint16_t port, std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MBIR_CHECK_MSG(fd_ >= 0, "socket(): " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error("connect(127.0.0.1:" + std::to_string(port) + "): " + err);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), max_frame_bytes_(other.max_frame_bytes_) {
  other.fd_ = -1;
}

obs::JsonValue Client::call(std::string_view payload) {
  MBIR_CHECK_MSG(fd_ >= 0, "client is not connected");
  if (!writeFrame(fd_, payload)) throw Error("svc client: send failed");
  std::string response;
  const FrameStatus st = readFrame(fd_, response, max_frame_bytes_);
  if (st != FrameStatus::kOk)
    throw Error(std::string("svc client: read failed (") +
                frameStatusName(st) + ")");
  return obs::parseJson(response);
}

obs::JsonValue Client::callChecked(std::string_view payload, const char* verb) {
  obs::JsonValue resp = call(payload);
  if (!boolField(resp, "ok", false))
    throw Error(std::string("svc ") + verb + " failed: " +
                (strField(resp, "error").empty() ? "unknown error"
                                                 : strField(resp, "error")));
  return resp;
}

bool Client::ping() {
  const obs::JsonValue resp = call(bareRequest("ping"));
  return boolField(resp, "ok", false);
}

Client::SubmitResult Client::submit(const SubmitParams& params) {
  const obs::JsonValue resp = call(encodeSubmit(params));
  SubmitResult out;
  out.accepted = boolField(resp, "ok", false);
  if (out.accepted) {
    out.job_id = int(numField(resp, "job_id", -1));
    out.cache_hit = boolField(resp, "cache_hit", false);
  } else {
    out.rejected = boolField(resp, "rejected", false);
    out.error = strField(resp, "error");
  }
  return out;
}

Client::ServerStatus Client::serverStatus() {
  const obs::JsonValue resp = callChecked(bareRequest("status"), "status");
  ServerStatus s;
  s.accepting = boolField(resp, "accepting", true);
  s.queued = int(numField(resp, "queued", 0));
  s.running = int(numField(resp, "running", 0));
  s.submitted = std::int64_t(numField(resp, "submitted", 0));
  s.rejected = std::int64_t(numField(resp, "rejected", 0));
  s.finished = std::int64_t(numField(resp, "finished", 0));
  s.num_devices = int(numField(resp, "num_devices", 0));
  s.queue_capacity = int(numField(resp, "queue_capacity", 0));
  return s;
}

Client::JobInfo Client::jobStatus(int job_id) {
  obs::JsonWriter w;
  beginRequest(w, "status");
  w.kv("job", job_id);
  w.endObject();
  return parseJobInfo(callChecked(w.str(), "status"));
}

Client::JobInfo Client::result(int job_id, bool include_image) {
  obs::JsonWriter w;
  beginRequest(w, "result");
  w.kv("job", job_id);
  if (include_image) w.kv("include_image", true);
  w.endObject();
  return parseJobInfo(callChecked(w.str(), "result"));
}

bool Client::cancel(int job_id) {
  obs::JsonWriter w;
  beginRequest(w, "cancel");
  w.kv("job", job_id);
  w.endObject();
  const obs::JsonValue resp = callChecked(w.str(), "cancel");
  return boolField(resp, "cancelled", false);
}

obs::JsonValue Client::stats() {
  return document(callChecked(bareRequest("stats"), "stats"), "stats");
}

obs::JsonValue Client::flight(const std::string& reason) {
  obs::JsonWriter w;
  beginRequest(w, "flight");
  w.kv("reason", reason);
  w.endObject();
  return document(callChecked(w.str(), "flight"), "flight");
}

obs::JsonValue Client::chaos() {
  return callChecked(bareRequest("chaos"), "chaos");
}

obs::JsonValue Client::chaos(const chaos::FaultPlan& plan, double watchdog_ms) {
  obs::JsonWriter w;
  beginRequest(w, "chaos");
  w.kv("seed", std::int64_t(plan.seed));
  w.kv("launch_fault_rate", plan.launch_fault_rate);
  w.kv("stall_rate", plan.stall_rate);
  w.kv("death_rate", plan.death_rate);
  w.key("target_devices").beginArray();
  for (int d : plan.target_devices) w.value(d);
  w.endArray();
  w.kv("watchdog_ms", watchdog_ms);
  w.endObject();
  return callChecked(w.str(), "chaos");
}

obs::JsonValue Client::drain() {
  return document(callChecked(bareRequest("drain"), "drain"), "report");
}

}  // namespace mbir::svc
