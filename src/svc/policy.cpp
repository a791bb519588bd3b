#include "svc/policy.h"

#include <algorithm>

namespace mbir::svc {

Pick pickNext(const std::vector<QueueEntry>& queue, int device,
              std::chrono::steady_clock::time_point now, bool gang_running,
              bool any_running, store::FairQueue& fq) {
  Pick pick;
  if (gang_running) return pick;
  std::vector<std::size_t> eligible;
  // Distinct backlogged tenants in first-seen (enqueue) order, so the WFQ
  // tiebreak — "first candidate listed" — is deterministic.
  std::vector<std::string> tenants;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QueueEntry& e = queue[i];
    if (e.lane == device) return Pick{int(i), {}};  // det lane: no expiry scan
    if (e.lane >= 0) continue;
    if (now >= e.deadline) {
      pick.expired.push_back(i);
      continue;
    }
    if (e.gang && any_running) continue;
    eligible.push_back(i);
    if (std::find(tenants.begin(), tenants.end(), e.tenant) == tenants.end())
      tenants.push_back(e.tenant);
  }
  if (eligible.empty()) return pick;
  const std::string& winner = tenants[fq.pickAndCharge(tenants)];
  for (std::size_t i : eligible) {
    if (queue[i].tenant != winner) continue;
    if (pick.index < 0 ||
        queue[i].priority > queue[std::size_t(pick.index)].priority)
      pick.index = int(i);
  }
  return pick;
}

}  // namespace mbir::svc
