#include "store/cache.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "core/error.h"
#include "core/hash.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace mbir::store {

namespace {

constexpr std::string_view kEntrySchema = "gpumbir.cache_entry/1";
constexpr std::string_view kEntrySuffix = ".rce";
constexpr std::string_view kTempSuffix = ".tmp";

void putU32BE(std::string& out, std::uint32_t v) {
  out.push_back(char((v >> 24) & 0xFF));
  out.push_back(char((v >> 16) & 0xFF));
  out.push_back(char((v >> 8) & 0xFF));
  out.push_back(char(v & 0xFF));
}

void putU64BE(std::string& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(char((v >> shift) & 0xFF));
}

std::uint32_t getU32BE(const unsigned char* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

std::uint64_t getU64BE(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | std::uint64_t(p[i]);
  return v;
}

bool parseHex64(const std::string& s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  out = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    out = (out << 4) | std::uint64_t(d);
  }
  return true;
}

/// Serialize one entry to its on-disk byte layout.
std::string encodeEntry(const ResultCache::Meta& meta, const Image2D& image) {
  obs::JsonWriter w;
  w.beginObject();
  w.kv("schema", kEntrySchema);
  w.kv("input_hash", hashToHex(meta.input_hash));
  w.kv("config_key", meta.config_key);
  w.kv("size", image.size());
  w.kv("converged", meta.converged);
  w.kv("equits", meta.equits);
  w.kv("final_rmse_hu", meta.final_rmse_hu);
  w.kv("modeled_seconds", meta.modeled_seconds);
  w.kv("image_hash", hashToHex(meta.image_hash));
  w.endObject();
  const std::string& header = w.str();

  std::string out;
  const std::span<const float> pixels = image.flat();
  const std::size_t pixel_bytes = pixels.size() * sizeof(float);
  out.reserve(4 + header.size() + pixel_bytes + 8);
  putU32BE(out, std::uint32_t(header.size()));
  out.append(header);
  // Raw native-endian float bits: exact by construction (this repo targets
  // one host at a time; a foreign-endian file fails the checksum re-verify
  // of image_hash below and is dropped, never mis-served).
  out.append(reinterpret_cast<const char*>(pixels.data()), pixel_bytes);
  putU64BE(out, fnv1a64(pixels));
  return out;
}

/// Parse an entry file's bytes; false (without throwing) on any corruption.
bool decodeEntry(const std::string& data, ResultCache::Meta& meta,
                 Image2D& image) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  if (data.size() < 4) return false;
  const std::uint32_t header_len = getU32BE(bytes);
  if (data.size() < 4 + std::size_t(header_len) + 8) return false;
  obs::JsonValue doc;
  try {
    doc = obs::parseJson(std::string_view(data.data() + 4, header_len));
  } catch (const std::exception&) {
    return false;
  }
  const obs::JsonValue* schema = doc.find("schema");
  if (!schema || !schema->isString() || schema->str_v != kEntrySchema)
    return false;
  const obs::JsonValue* ih = doc.find("input_hash");
  const obs::JsonValue* key = doc.find("config_key");
  const obs::JsonValue* size = doc.find("size");
  const obs::JsonValue* im = doc.find("image_hash");
  if (!ih || !ih->isString() || !key || !key->isString() || !size ||
      !size->isNumber() || !im || !im->isString())
    return false;
  if (!parseHex64(ih->str_v, meta.input_hash)) return false;
  if (!parseHex64(im->str_v, meta.image_hash)) return false;
  meta.config_key = key->str_v;
  if (const obs::JsonValue* v = doc.find("converged"))
    meta.converged = v->bool_v;
  if (const obs::JsonValue* v = doc.find("equits")) meta.equits = v->num_v;
  if (const obs::JsonValue* v = doc.find("final_rmse_hu"))
    meta.final_rmse_hu = v->num_v;
  if (const obs::JsonValue* v = doc.find("modeled_seconds"))
    meta.modeled_seconds = v->num_v;

  const int n = int(size->num_v);
  if (n <= 0 || n > 1 << 14) return false;
  const std::size_t pixel_bytes =
      std::size_t(n) * std::size_t(n) * sizeof(float);
  if (data.size() != 4 + std::size_t(header_len) + pixel_bytes + 8)
    return false;
  const char* pixels = data.data() + 4 + header_len;
  const std::uint64_t want =
      getU64BE(bytes + 4 + header_len + pixel_bytes);
  if (fnv1a64(pixels, pixel_bytes) != want) return false;
  image = Image2D(n);
  std::memcpy(image.flat().data(), pixels, pixel_bytes);
  // Belt and braces: the embedded image_hash must match the pixel bits too
  // (it's the value svc reports compare against).
  return fnv1a64(image.flat()) == meta.image_hash;
}

void makeDirs(const std::string& dir) {
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    partial = dir.substr(0, i);
    if (partial.empty()) continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
      throw Error("mkdir(" + partial + "): " + std::strerror(errno));
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw Error("mkdir(" + dir + "): " + std::strerror(errno));
}

}  // namespace

std::string ResultCache::fileName(const Key& key) {
  return hashToHex(key.first) + "-" + hashToHex(key.second) +
         std::string(kEntrySuffix);
}

std::string ResultCache::filePath(const Key& key) const {
  return dir_ + "/" + fileName(key);
}

ResultCache::ResultCache(std::string dir, std::size_t capacity,
                         obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)), capacity_(std::max<std::size_t>(1, capacity)) {
  MBIR_CHECK_MSG(!dir_.empty(), "ResultCache needs a directory");
  makeDirs(dir_);
  {
    std::lock_guard lock(mu_);
    loadDirLocked();
  }
  if (metrics) {
    m_hits_ = &metrics->counter("store.cache.hits");
    m_misses_ = &metrics->counter("store.cache.misses");
    m_warm_hits_ = &metrics->counter("store.cache.warm_hits");
    m_inserts_ = &metrics->counter("store.cache.inserts");
    m_evictions_ = &metrics->counter("store.cache.evictions");
    metrics->gauge("store.cache.capacity").set(double(capacity_));
    std::lock_guard lock(mu_);
    metrics->gauge("store.cache.loaded").set(double(index_.size()));
  }
}

void ResultCache::loadDirLocked() {
  DIR* d = ::opendir(dir_.c_str());
  if (!d) return;
  std::vector<std::string> names;
  const auto has_suffix = [](const std::string& name, std::string_view suf) {
    return name.size() > suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (has_suffix(name, kEntrySuffix))
      names.push_back(name);
    else if (has_suffix(name, kTempSuffix))
      ::unlink((dir_ + "/" + name).c_str());  // staging file of a crashed insert
  }
  ::closedir(d);
  // Deterministic load order (directory order is arbitrary): sorted names.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto entry = std::make_shared<Entry>();
    auto image = std::make_shared<Image2D>();
    bool ok = !data.empty() && decodeEntry(data, entry->meta, *image);
    // The file name must agree with the embedded key — a renamed or
    // tampered file is corruption, not a cache entry.
    ok = ok && name == fileName({entry->meta.input_hash,
                                 fnv1a64(entry->meta.config_key.data(),
                                         entry->meta.config_key.size())});
    if (!ok) {
      ++counters_.corrupt_dropped;
      ::unlink(path.c_str());
      continue;
    }
    entry->image = std::move(image);
    const Key key{entry->meta.input_hash,
                  fnv1a64(entry->meta.config_key.data(),
                          entry->meta.config_key.size())};
    if (index_.count(key)) continue;  // duplicate (cannot happen via names)
    if (index_.size() >= capacity_) break;  // bounded load
    lru_.push_front(key);
    index_.emplace(key, Slot{std::move(entry), lru_.begin()});
  }
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mu_);
  return index_.size();
}

void ResultCache::touchLocked(Slot& slot, const Key& key) {
  lru_.erase(slot.lru);
  lru_.push_front(key);
  slot.lru = lru_.begin();
}

std::shared_ptr<const ResultCache::Entry> ResultCache::find(
    std::uint64_t input_hash, const std::string& config_key) {
  const Key key{input_hash,
                fnv1a64(config_key.data(), config_key.size())};
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    if (m_misses_) m_misses_->add();
    return nullptr;
  }
  const Entry& e = *it->second.entry;
  // Full-key verify: an FNV collision between different configs (or a
  // tampered entry) must read as a miss, never as the wrong image.
  if (e.meta.input_hash != input_hash || e.meta.config_key != config_key) {
    ++counters_.verify_failures;
    ++counters_.misses;
    if (m_misses_) m_misses_->add();
    return nullptr;
  }
  touchLocked(it->second, key);
  ++counters_.hits;
  if (m_hits_) m_hits_->add();
  return it->second.entry;
}

std::shared_ptr<const ResultCache::Entry> ResultCache::findWarm(
    std::uint64_t input_hash, int image_size) {
  std::lock_guard lock(mu_);
  // Entries sharing input_hash are contiguous in the (input, config) map.
  auto it = index_.lower_bound(Key{input_hash, 0});
  std::shared_ptr<const Entry> best;
  for (; it != index_.end() && it->first.first == input_hash; ++it) {
    const Entry& e = *it->second.entry;
    if (e.meta.input_hash != input_hash) continue;  // FNV-collision guard
    if (e.image->size() != image_size) continue;
    if (!best || e.meta.equits > best->meta.equits) best = it->second.entry;
  }
  if (best) {
    ++counters_.warm_hits;
    if (m_warm_hits_) m_warm_hits_->add();
  }
  return best;
}

void ResultCache::insert(const Meta& meta, const Image2D& image) {
  const Key key{meta.input_hash,
                fnv1a64(meta.config_key.data(), meta.config_key.size())};
  const std::string bytes = encodeEntry(meta, image);
  const std::string path = filePath(key);
  // A temp name of its own per insert (pid + process-wide sequence):
  // concurrent inserts of one key must not share a staging file, or one
  // rename would find it already moved. The startup sweep unlinks leftover
  // staging files by their suffix.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + "." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_seq.fetch_add(1)) +
                          std::string(kTempSuffix);
  {
    // Atomic publish: whole-file write + fsync, then rename into place. A
    // crash leaves either the previous entry or the new one, never a torn
    // file (startup drops torn temps by suffix).
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
      throw Error("cache open(" + tmp + "): " + std::strerror(errno));
    std::size_t sent = 0;
    bool ok = true;
    while (ok && sent < bytes.size()) {
      const ssize_t r = ::write(fd, bytes.data() + sent, bytes.size() - sent);
      if (r < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      sent += std::size_t(r);
    }
    ok = ok && ::fdatasync(fd) == 0;
    ::close(fd);
    ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
      ::unlink(tmp.c_str());
      throw Error("cache write(" + path + "): " + std::strerror(errno));
    }
  }
  auto entry = std::make_shared<Entry>();
  entry->meta = meta;
  entry->image = std::make_shared<Image2D>(image);

  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Idempotent overwrite (same key => same deterministic bits in
    // practice; either way the newest wins).
    it->second.entry = std::move(entry);
    touchLocked(it->second, key);
  } else {
    lru_.push_front(key);
    index_.emplace(key, Slot{std::move(entry), lru_.begin()});
    while (index_.size() > capacity_) evictLocked();
  }
  ++counters_.inserts;
  if (m_inserts_) m_inserts_->add();
}

void ResultCache::evictLocked() {
  const Key victim = lru_.back();
  lru_.pop_back();
  index_.erase(victim);
  ::unlink(filePath(victim).c_str());
  ++counters_.evictions;
  if (m_evictions_) m_evictions_->add();
}

ResultCache::Counters ResultCache::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

}  // namespace mbir::store
