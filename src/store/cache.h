// Content-addressed reconstruction result cache (DESIGN.md §14).
//
// Key = (input_hash, config_key):
//   * input_hash — FNV-1a over the case's measurement sinogram, weights,
//     golden image and geometry dimensions (svc::hashCaseInputs); two cases
//     collide only if their inputs are bit-identical.
//   * config_key — a canonical string naming everything about the resolved
//     RunConfig that can change the result bits (algorithm, budgets, stop
//     criterion, SV side, shard layout). Wall-clock-only knobs (SIMD path,
//     priority, deadline, tenant) are deliberately excluded.
// The index addresses entries by (input_hash, FNV(config_key)); a hit
// re-verifies the FULL stored config_key string and input hash, so an FNV
// collision between distinct configs can never serve the wrong image.
//
// Entries live in memory (images are small) and on disk, one file per
// entry:
//   [u32 BE header length][header JSON][raw float pixels][u64 BE pixel FNV]
// Files are written to a temp name and rename()d into place, so a crash
// mid-insert leaves either the whole entry or nothing; startup scans the
// directory, unlinks leftover temp files, drops anything whose checksum or
// embedded key mismatches, and rebuilds the index — the cache is exactly as
// durable as the files.
//
// Capacity is an entry count; inserting past it evicts least-recently-used
// entries (memory and file together), keeping the on-disk layout bounded.
//
// Two lookups:
//   * find()     — exact (input, config) hit: the finished image, served
//                  without dispatching.
//   * findWarm() — same inputs, any config: the most-converged cached image
//                  as a warm start for a near-duplicate job (different
//                  iteration budget / stop criterion), measured as
//                  equits-to-converge saved.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "geom/image.h"

namespace mbir::obs {
class MetricsRegistry;
class Counter;
}  // namespace mbir::obs

namespace mbir::store {

class ResultCache {
 public:
  struct Meta {
    std::uint64_t input_hash = 0;
    std::string config_key;
    bool converged = false;
    double equits = 0.0;
    double final_rmse_hu = 0.0;
    double modeled_seconds = 0.0;
    std::uint64_t image_hash = 0;
  };
  struct Entry {
    Meta meta;
    std::shared_ptr<const Image2D> image;
  };

  /// Opens (creating) the directory and loads every valid entry file, up to
  /// `capacity` entries. Throws mbir::Error when the directory cannot be
  /// created.
  ResultCache(std::string dir, std::size_t capacity,
              obs::MetricsRegistry* metrics = nullptr);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  const std::string& dir() const { return dir_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;

  /// Exact hit (full-key verified); nullptr on miss. Refreshes LRU order.
  std::shared_ptr<const Entry> find(std::uint64_t input_hash,
                                    const std::string& config_key);

  /// Best warm-start candidate: same inputs, same image size, any config —
  /// the entry with the most converged equits. nullptr when none.
  std::shared_ptr<const Entry> findWarm(std::uint64_t input_hash,
                                        int image_size);

  /// Insert (or idempotently overwrite) an entry; persists to disk first,
  /// then updates the index and evicts past capacity.
  void insert(const Meta& meta, const Image2D& image);

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t verify_failures = 0;  ///< full-key mismatch on an FNV hit
    std::uint64_t corrupt_dropped = 0;  ///< bad entry files at startup
  };
  Counters counters() const;

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // input, FNV(config)

  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<Key>::iterator lru;  // position in lru_ (front = most recent)
  };

  static std::string fileName(const Key& key);
  std::string filePath(const Key& key) const;
  void touchLocked(Slot& slot, const Key& key);
  void evictLocked();
  void loadDirLocked();

  std::string dir_;
  std::size_t capacity_;

  mutable std::mutex mu_;
  std::map<Key, Slot> index_;
  std::list<Key> lru_;
  Counters counters_;

  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_warm_hits_ = nullptr;
  obs::Counter* m_inserts_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace mbir::store
