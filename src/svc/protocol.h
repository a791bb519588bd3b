// gpumbir.svc/1 — wire protocol of the online reconstruction service.
//
// Transport framing: every message (request or response) is one frame —
//   [4-byte big-endian payload length][payload bytes]
// where the payload is a single strict-JSON document (the src/obs writer /
// parser; no other serialization code exists in the service). A frame whose
// declared length exceeds the configured cap is rejected without reading
// the body, so a hostile or corrupted prefix cannot make the server buffer
// unbounded data.
//
// Requests carry {"schema":"gpumbir.svc/1","verb":...} plus verb-specific
// fields; responses carry {"schema":"gpumbir.svc/1","ok":true|false,...}.
// Verbs: submit / status / cancel / result / stats / flight / chaos /
// drain / ping.
// Field access is
// strictly typed (wrong-typed, non-integral or out-of-range integer fields
// throw mbir::Error, which the server turns into an ok:false response) —
// combined with the parser's strictness (finite numbers only, valid UTF-16
// escapes) nothing non-finite or malformed reaches the dispatcher.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "recon/reconstructor.h"

namespace mbir::svc {

inline constexpr std::string_view kProtocolSchema = "gpumbir.svc/1";
inline constexpr std::string_view kReportSchema = "gpumbir.svc_report/1";
inline constexpr std::string_view kStatsSchema = "gpumbir.svc_stats/1";
inline constexpr std::size_t kFrameHeaderBytes = 4;
inline constexpr std::size_t kDefaultMaxFrameBytes = 8u << 20;
/// Longest accepted job deadline (~31 years): anything longer would
/// overflow the steady_clock deadline, so it is rejected, not clamped.
inline constexpr double kMaxDeadlineMs = 1e12;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Prepend the 4-byte big-endian length header to a payload.
std::string encodeFrame(std::string_view payload);

enum class FrameStatus {
  kOk,         ///< one full frame read into `payload`
  kClosed,     ///< clean EOF at a frame boundary
  kTruncated,  ///< peer closed mid-header or mid-payload
  kOversized,  ///< declared length exceeds the cap (body not read)
  kError,      ///< read error (errno path)
};
const char* frameStatusName(FrameStatus s);

/// Blocking read of one frame from a connected socket/pipe fd.
FrameStatus readFrame(int fd, std::string& payload,
                      std::size_t max_bytes = kDefaultMaxFrameBytes);

/// Blocking write of one framed payload; false on error / peer reset.
bool writeFrame(int fd, std::string_view payload);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A parsed, schema-checked request with strictly-typed field access.
struct Request {
  std::string verb;
  obs::JsonValue doc;

  bool has(const std::string& key) const { return doc.find(key) != nullptr; }
  /// Typed accessors: absent fields yield the default; present fields of
  /// the wrong type throw, and so do integers that are fractional or lie
  /// outside [lo, hi] (default: the int range) — none is ever narrowed.
  std::int64_t getInt(const std::string& key, std::int64_t def,
                      std::int64_t lo = std::numeric_limits<int>::min(),
                      std::int64_t hi = std::numeric_limits<int>::max()) const;
  double getDouble(const std::string& key, double def) const;
  bool getBool(const std::string& key, bool def) const;
  std::string getString(const std::string& key, const std::string& def) const;
};

/// getInt's check on one JSON value (array elements use it directly).
std::int64_t checkedInt(const obs::JsonValue& v, const std::string& key,
                        std::int64_t lo, std::int64_t hi);

/// Parse + validate a request payload (schema and verb fields are
/// mandatory). Throws mbir::Error on malformed JSON or schema mismatch.
Request parseRequest(std::string_view payload);

// ---------------------------------------------------------------------------
// Submit parameters
// ---------------------------------------------------------------------------

/// Everything a submit request can say, in both directions: the client
/// serializes it, the server parses it, and makeRunConfig() maps it onto a
/// RunConfig identically on both sides (tests reuse the same mapping to
/// build their serial reconstruct() baselines, so the deterministic-mode
/// bit-identity claim is checked against the exact config the server runs).
struct SubmitParams {
  int case_index = 0;
  /// "gpu" | "seq" | "psv" (GpuIcd / SequentialIcd / PsvIcd).
  std::string algorithm = "gpu";
  /// <= 0 keeps the server's base-config value.
  double max_equits = 0.0;
  /// Overrides the base config when set (0 = RMSE stop disabled is a valid
  /// override, hence the optional).
  std::optional<double> stop_rmse_hu;
  /// SuperVoxel side override for gpu/psv engines; 0 = keep base config.
  int sv_side = 0;
  /// Higher runs first (priority lane); ties dispatch in submission order.
  int priority = 0;
  /// Host-clock deadline in ms from admission; expired queued jobs are
  /// failed fast at dispatch, never run. < 0 = no deadline.
  double deadline_ms = -1.0;
  /// Route through the deterministic FIFO round-robin lane (bit-identical
  /// to running the jobs serially; priority/deadline are ignored).
  bool deterministic = false;
  /// > 1 = single-job multi-device slab sharding (DESIGN.md §13): the job
  /// runs as one gang over min(shards, devices) devices. Priority lane
  /// only — sharded+deterministic submits are rejected.
  int shards = 1;
  /// Halo rows exchanged per outer iteration between adjacent slabs.
  int shard_halo = 1;
  /// Lane-group execution path override: "off"|"auto"|"avx2" (empty = keep
  /// the server's base config / GPUMBIR_SIMD). Purely a wall-clock knob —
  /// scalar and AVX2 are bit-identical — so jobs stay reproducible
  /// regardless of what the client picks; an unknown value or forcing avx2
  /// on an incapable server fails the submit with ok:false.
  std::string simd;
  std::string name;
  /// Tenant for per-tenant svc.* metric labels ("" = default tenant).
  std::string tenant;
  /// Forced chaos fault for this job ("" = none): "launch@N", "stall@N",
  /// or "death" (chaos::parseFaultSpec). Validated at submit on both
  /// sides; stall/death additionally require the server's watchdog armed.
  std::string fault;
  /// Skip the result cache for this submit (no exact-hit serve, no warm
  /// start); the finished cold-run result is still inserted. reconctl's
  /// --no-cache flag.
  bool bypass_cache = false;
};

/// Serialize a submit request payload.
std::string encodeSubmit(const SubmitParams& p);
/// Extract SubmitParams from a parsed submit request (validates types).
SubmitParams parseSubmitParams(const Request& req);
/// The server-side (and test-baseline) mapping of submit params onto the
/// service's base RunConfig. PSV jobs are pinned to one thread — the only
/// deterministic PSV mode (DESIGN.md §7) — so any accepted job is exactly
/// reproducible.
RunConfig makeRunConfig(RunConfig base, const SubmitParams& p);

// ---------------------------------------------------------------------------
// Result-cache keys (src/store)
// ---------------------------------------------------------------------------

/// Canonical string naming everything about the resolved run config that
/// can change the result bits — algorithm, equit budget, stop criterion,
/// SV side, GPU seed, shard layout — and nothing that cannot (SIMD path is
/// bit-identical; priority / deadline / tenant / deterministic routing only
/// change WHEN a job runs). Two submits with equal keys and equal inputs
/// produce bit-identical images, which is what lets the cache serve exact
/// hits without dispatching. Throws exactly like makeRunConfig on invalid
/// params.
std::string cacheConfigKey(const RunConfig& base, const SubmitParams& p);

/// FNV-1a fingerprint of a case's result-determining inputs: measurement
/// sinogram, statistical weights, golden image (it defines the RMSE stop
/// criterion) and geometry dimensions. Two cases share a fingerprint only
/// if those are bit-identical.
std::uint64_t hashCaseInputs(const OwnedProblem& problem,
                             const Image2D& golden);

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Open a request object and write schema + verb; caller adds fields and
/// closes the object.
void beginRequest(obs::JsonWriter& w, std::string_view verb);
/// Open a response object and write schema + ok (+ verb when given);
/// likewise.
void beginResponse(obs::JsonWriter& w, bool ok, std::string_view verb = {});
/// Complete ok:false payload. `rejected` marks admission backpressure
/// (distinguishes "queue full, retry later" from protocol errors).
std::string errorResponse(std::string_view message, bool rejected = false);

}  // namespace mbir::svc
