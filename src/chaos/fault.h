// Deterministic, seed-driven fault injection for the service stack
// (DESIGN.md §12).
//
// The chaos lane answers one question the happy-path suites cannot: does
// the svc stack *survive* a device that stalls, dies, or corrupts a
// launch mid-run? Everything here is built around replayability — a
// FaultPlan is a pure function from (seed, job id) to a fault decision, so
// the fault schedule of any run, including a failing soak in CI, is
// reconstructible bit-for-bit from the printed seed. No wall clocks, no
// global RNG state, no dependence on which device a job happened to land on.
//
// Layers:
//   FaultPlan     — the serializable config: seed, per-mode rates, target
//                   devices. Travels through DispatcherOptions, the wire
//                   protocol's `chaos` admin verb, and recon_server flags.
//   FaultInjector — plan + decision function `jobFault(job_id)` using
//                   Rng::forStream(seed, job_id) keyed streams.
//   JobFaultHook  — the gsim::FaultHook bound to one dispatched run: it
//                   heartbeats its device's DeviceChaos channel on every
//                   execution event and fires its assigned fault (throw
//                   LaunchFault / park-then-throw DeviceLost) exactly once
//                   at the assigned event index.
//   DeviceChaos   — one device's liveness channel: a heartbeat counter the
//                   dispatcher's watchdog samples, plus the permanent
//                   "abandoned" latch the watchdog trips when it declares
//                   the device failed (waking any run parked on it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gsim/fault.h"

namespace mbir::obs {
class JsonWriter;
struct JsonValue;
}  // namespace mbir::obs

namespace mbir::chaos {

enum class FaultKind {
  kNone = 0,
  kLaunchFault,  ///< one corrupted launch: structured gsim::LaunchFault
  kStall,        ///< device freezes mid-run; only the watchdog frees it
  kDeath,        ///< device dies at dispatch: never heartbeats, never runs
};

const char* faultKindName(FaultKind k);

/// The fault assigned to one job: what happens and at which execution event
/// (0-based launch/iteration count within the run) it happens. kDeath
/// ignores `at_event` — the device is dead before the first event.
struct JobFault {
  FaultKind kind = FaultKind::kNone;
  std::uint64_t at_event = 0;

  bool none() const { return kind == FaultKind::kNone; }
};

/// Parse a forced-fault spec as carried by the wire protocol's submit verb:
/// "" (none), "launch@N", "stall@N", "death". Throws mbir::Error on
/// malformed specs. faultSpecString is the inverse.
JobFault parseFaultSpec(const std::string& spec);
std::string faultSpecString(const JobFault& f);

/// Seed-driven chaos configuration. Rates are per-job probabilities in
/// [0, 1]; they are tried in order launch, stall, death against a single
/// uniform draw, so their sum must be <= 1. `target_devices` restricts the
/// *device-level* faults (stall/death) to the listed device ids — a soak
/// can guarantee survivors. Launch faults are job-level and fire wherever
/// the job runs.
struct FaultPlan {
  std::uint64_t seed = 0;
  double launch_fault_rate = 0.0;
  double stall_rate = 0.0;
  double death_rate = 0.0;
  std::vector<int> target_devices;  ///< empty = all devices targetable

  bool enabled() const {
    return launch_fault_rate > 0.0 || stall_rate > 0.0 || death_rate > 0.0;
  }
  bool targetsDevice(int device) const;
  void validate() const;  ///< throws mbir::Error on bad rates

  /// JSON object (not a framed document): {"seed":..,"launch_fault_rate":..,
  /// "stall_rate":..,"death_rate":..,"target_devices":[..]}.
  void writeJson(obs::JsonWriter& w) const;
  std::string toJson() const;
  /// Inverse of writeJson; unknown keys ignored, missing keys default.
  /// Throws mbir::Error on type mismatches or invalid rates.
  static FaultPlan fromJson(const obs::JsonValue& doc);
};

/// The pure decision function: which fault, if any, hits job `job_id`.
/// Each job gets its own Rng::forStream(seed, job_id) stream, so the
/// schedule is independent of submission order, devices, and timing.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  JobFault jobFault(int job_id) const;

 private:
  FaultPlan plan_;
};

/// One device's chaos channel, owned by the dispatcher. Heartbeats are a
/// relaxed atomic counter (hot path: one increment per execution event);
/// the abandoned latch is a one-way flag under a mutex so parked runs can
/// block on it.
class DeviceChaos {
 public:
  void beat() { heartbeat_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t beats() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

  /// Watchdog: declare the device abandoned (permanent) and wake any run
  /// parked in waitAbandoned().
  void abandon();
  bool abandoned() const;
  /// Block until abandon() — how a stalled run models "frozen": it stops
  /// heartbeating and waits for the watchdog to notice.
  void waitAbandoned();

 private:
  std::atomic<std::uint64_t> heartbeat_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool abandoned_ = false;
};

/// The gsim::FaultHook for one dispatched run. Always heartbeats (when a
/// DeviceChaos channel is attached); fires its JobFault exactly once at
/// `at_event`:
///   kLaunchFault — throws gsim::LaunchFault (job fails, device survives);
///   kStall       — stops heartbeating, parks on the channel until the
///                  watchdog abandons the device, then throws
///                  gsim::DeviceLost (job migrates, device is gone).
/// kDeath never reaches a hook — the dispatcher models it at dispatch.
class JobFaultHook final : public gsim::FaultHook {
 public:
  JobFaultHook(JobFault fault, int device, int job_id, DeviceChaos* channel)
      : fault_(fault), device_(device), job_id_(job_id), channel_(channel) {}

  void onEvent(const char* what, std::uint64_t index) override;

  /// True once the fault has fired (so a migrated job can re-run clean).
  bool fired() const { return fired_.load(std::memory_order_acquire); }
  /// True if this run stalled and was abandoned by the watchdog.
  bool stalled() const { return stalled_.load(std::memory_order_acquire); }

  int jobId() const { return job_id_; }

 private:
  JobFault fault_;
  int device_;
  int job_id_;
  DeviceChaos* channel_;
  std::uint64_t events_ = 0;  ///< only touched by the running device thread
  std::atomic<bool> fired_{false};
  std::atomic<bool> stalled_{false};
};

}  // namespace mbir::chaos
