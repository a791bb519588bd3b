// Dispatch policy: which queued job a free device takes next. A pure
// function over the dispatcher's queue — no lock, clock, recorder or flight
// ring — so every rule is testable without threads. svc::Dispatcher calls
// it under its own lock, finalizes the expired entries and transitions the
// winner.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "store/wfq.h"

namespace mbir::svc {

/// One queued job as the policy sees it. The queue is in enqueue order;
/// requeues and re-lanes append, so each lane keeps its own order.
struct QueueEntry {
  int job_id = -1;
  int lane = -1;       ///< device of its deterministic lane; -1 = priority lane
  std::string tenant;  ///< tenant label (the FairQueue key)
  int priority = 0;    ///< higher first (priority lane only)
  bool gang = false;   ///< sharded: dispatches only onto idle devices
  /// Host-clock deadline; max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

struct Pick {
  int index = -1;  ///< queue index to dispatch; -1 = nothing eligible
  /// Queue indices of expired priority-lane entries, ascending.
  std::vector<std::size_t> expired;
};

/// The pick for `device` at `now`. The rules, in order:
///  * A running gang owns every device: nothing is picked.
///  * The device's earliest deterministic-lane entry wins outright — no
///    deadline scan, no fairness charge (det-lane bit-identity).
///  * Priority lane: expired entries are reported and never picked; a gang
///    entry waits while anything runs (lower-priority singles may pass it);
///    weighted fair queuing picks the tenant among the rest (tenants in
///    first-seen queue order; `fq` is charged only when an entry is
///    eligible), then the highest priority within it wins, ties to the
///    earliest entry. With one tenant this is the plain max-priority scan.
Pick pickNext(const std::vector<QueueEntry>& queue, int device,
              std::chrono::steady_clock::time_point now, bool gang_running,
              bool any_running, store::FairQueue& fq);

}  // namespace mbir::svc
