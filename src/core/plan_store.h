// Byte-bounded, thread-safe store of immutable objects built once per key.
//
// Holds geometry-static state that every job on one SystemMatrix would
// otherwise rebuild (GPU-ICD's A-chunk plans, sv/chunks.h). The store is
// type-erased so the owner (geom) need not know the value types (sv):
// a key is a string that also names the value's type, a value is a
// shared_ptr<const void> plus the bytes it holds, and the caller that
// names the type casts it back.
//
//   * Built outside the lock. A requester that finds no value builds one
//     and inserts it; when two requesters of one key build at the same
//     time, the first insert wins and both get that value. Builds are
//     pure, so this costs at most a duplicate build, never a result.
//   * Bounded by bytes. Built values are retained up to the budget,
//     evicting the least recently used first. A budget below every value
//     retains nothing: every lookup builds.
//   * Shared ownership. Lookups hand out shared_ptrs, so evicting a value
//     never invalidates one a caller still holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace mbir {

class PlanStore {
 public:
  /// Default budget: holds a 128^2 x 180 view x 256 channel problem's
  /// whole band-compact A-chunk set at W=32 (38 MiB quantized), and its
  /// float set (127 MiB) several times over.
  static constexpr std::size_t kDefaultBudgetBytes = std::size_t(512) << 20;

  /// What a build function returns: the value and the heap bytes it holds.
  struct Built {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };

  struct Lookup {
    std::shared_ptr<const void> value;
    bool built = false;  ///< this call ran `build` (a miss)
  };

  explicit PlanStore(std::size_t budget_bytes = kDefaultBudgetBytes);
  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  /// The value stored under `key`, running `build` when none is resident.
  /// Rethrows what `build` throws (and stores nothing).
  Lookup getOrBuild(const std::string& key, const std::function<Built()>& build);

  std::size_t budgetBytes() const { return budget_; }
  /// Bytes and count of retained values.
  std::size_t residentBytes() const;
  std::size_t residentEntries() const;
  std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<const std::string*>::iterator lru;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  // Retained keys, most recent first; points at the keys of entries_.
  std::list<const std::string*> lru_;
  const std::size_t budget_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Owning handle of a PlanStore for a class that holds one (SystemMatrix).
/// A copy gets a new, empty store of the same budget, so the owner keeps
/// its defaulted copy and move operations; a move carries the store.
class OwnedPlanStore {
 public:
  explicit OwnedPlanStore(
      std::size_t budget_bytes = PlanStore::kDefaultBudgetBytes);
  OwnedPlanStore(const OwnedPlanStore& other);
  OwnedPlanStore& operator=(const OwnedPlanStore& other);
  OwnedPlanStore(OwnedPlanStore&&) noexcept = default;
  OwnedPlanStore& operator=(OwnedPlanStore&&) noexcept = default;

  /// The store; throws on a moved-from handle.
  PlanStore& get() const;

 private:
  std::unique_ptr<PlanStore> store_;
};

}  // namespace mbir
