#include "core/plan_store.h"

#include <utility>

#include "core/error.h"

namespace mbir {

PlanStore::PlanStore(std::size_t budget_bytes) : budget_(budget_bytes) {}

PlanStore::Lookup PlanStore::getOrBuild(const std::string& key,
                                        const std::function<Built()>& build) {
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return {it->second.value, false};
    }
  }

  Built b = build();

  std::lock_guard lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(key);
  if (!inserted) {
    // Another requester built and stored this key meanwhile: share its
    // value and drop ours.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return {it->second.value, true};
  }
  it->second.value = b.value;
  it->second.bytes = b.bytes;
  lru_.push_front(&it->first);
  it->second.lru = lru_.begin();
  resident_bytes_ += b.bytes;
  while (resident_bytes_ > budget_) {
    const auto oldest = entries_.find(*lru_.back());
    resident_bytes_ -= oldest->second.bytes;
    lru_.pop_back();
    entries_.erase(oldest);
    ++evictions_;
  }
  return {std::move(b.value), true};
}

std::size_t PlanStore::residentBytes() const {
  std::lock_guard lock(mu_);
  return resident_bytes_;
}

std::size_t PlanStore::residentEntries() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

std::uint64_t PlanStore::evictions() const {
  std::lock_guard lock(mu_);
  return evictions_;
}

OwnedPlanStore::OwnedPlanStore(std::size_t budget_bytes)
    : store_(std::make_unique<PlanStore>(budget_bytes)) {}

OwnedPlanStore::OwnedPlanStore(const OwnedPlanStore& other)
    : OwnedPlanStore(other.get().budgetBytes()) {}

OwnedPlanStore& OwnedPlanStore::operator=(const OwnedPlanStore& other) {
  store_ = std::make_unique<PlanStore>(other.get().budgetBytes());
  return *this;
}

PlanStore& OwnedPlanStore::get() const {
  MBIR_CHECK(store_ != nullptr);
  return *store_;
}

}  // namespace mbir
