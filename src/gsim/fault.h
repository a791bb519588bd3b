// Fault-injection seam for the simulated GPU substrate.
//
// A FaultHook is a per-run observer/saboteur the executor and the
// reconstructor call at deterministic points of a job's execution: once at
// the top of every GpuSimulator::launch (event "launch:<kernel>", indexed by
// the simulator's launch sequence) and once per reconstruction iteration
// (event "iteration", indexed by iteration). Those call sites depend only on
// the problem + config — never on host timing, thread count, or device
// assignment — so a hook that fires "at the 3rd event" fires at the same
// algorithmic point on every replay.
//
// A hook may do three things, matching the chaos fault taxonomy
// (DESIGN.md §12):
//   - return normally (heartbeat only — the watchdog's liveness signal),
//   - throw (LaunchFault for a corrupted launch, DeviceLost after a stall
//     is abandoned by the watchdog) — the error unwinds through
//     reconstruct() into the dispatcher's device-run catch, failing or
//     migrating the job without touching the device thread's stack,
//   - block (a stalled device: heartbeats stop, the run freezes until the
//     service-level watchdog declares the device failed).
//
// The hook pointer travels RunConfig -> the run's RunContext
// (gsim/run_context.h), which reconstruct()'s per-iteration tracker calls
// and every GpuSimulator takes at construction, so all three engines
// (seq/psv/gpu) share the iteration-boundary injection point and the gpu
// engine additionally gets per-launch granularity. nullptr everywhere means
// zero overhead and byte-for-byte the pre-chaos behavior.
#pragma once

#include <cstdint>
#include <string>

#include "core/error.h"

namespace mbir::gsim {

/// Structured error modeling a corrupted kernel launch: the driver accepted
/// the launch but the kernel never ran correctly. Carries enough context
/// (kernel, launch index, device) for a failure report to say *which* launch
/// was corrupted, not just that the job failed.
class LaunchFault : public Error {
 public:
  LaunchFault(std::string kernel, std::uint64_t launch_index, int device)
      : Error("LaunchFault: corrupted launch of kernel '" + kernel +
              "' (launch #" + std::to_string(launch_index) + ", device " +
              std::to_string(device) + ")"),
        kernel_(std::move(kernel)),
        launch_index_(launch_index),
        device_(device) {}

  const std::string& kernel() const { return kernel_; }
  std::uint64_t launchIndex() const { return launch_index_; }
  int device() const { return device_; }

 private:
  std::string kernel_;
  std::uint64_t launch_index_;
  int device_;
};

/// Structured error a stalled run throws after the watchdog abandons its
/// device: the work is not wrong, the device underneath it is gone. The
/// dispatcher treats DeviceLost (on a failed device) as "migrate", never
/// "fail".
class DeviceLost : public Error {
 public:
  explicit DeviceLost(int device)
      : Error("DeviceLost: device " + std::to_string(device) +
              " declared failed while the job was running"),
        device_(device) {}

  int device() const { return device_; }

 private:
  int device_;
};

/// Execution-event observer injected into a single job run. See the file
/// comment for the contract; implementations live in src/chaos.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// `what` names the event kind ("launch:<kernel>" or "iteration");
  /// `index` counts events of any kind within this run, from 0. May throw
  /// or block — call sites must be exception-safe past this point.
  virtual void onEvent(const char* what, std::uint64_t index) = 0;
};

}  // namespace mbir::gsim
