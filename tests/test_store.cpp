// Tests for src/store (DESIGN.md §14): the crash-safe write-ahead job log,
// the content-addressed result cache, and weighted fair queuing — plus
// integration through a live svc::Server: duplicate submits served from the
// cache without dispatching, warm starts for near-duplicates, WAL-recovery
// re-dispatch (bit-identical on the deterministic lane), and recovery
// interoperating with chaos-lane migration.
//
// The WAL fuzz section sweeps truncation at EVERY byte offset and flips
// every byte of a valid log: replay must always return exactly the longest
// valid record prefix and never accept a corrupted record or anything
// after it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault.h"
#include "core/error.h"
#include "core/hash.h"
#include "obs/obs.h"
#include "store/cache.h"
#include "store/wal.h"
#include "store/wfq.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc_test_support.h"

namespace mbir::test {
namespace {

namespace fs = std::filesystem;
using store::JobLog;
using store::ResultCache;
using svc::Client;
using svc::SubmitParams;

/// Self-deleting unique temp directory (tests create WAL/cache dirs in it).
struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "gpumbir_store_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    MBIR_CHECK(::mkdtemp(buf.data()) != nullptr);
    path = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
  MBIR_CHECK(out.good());
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// An admit payload exactly as JobLog::appendAdmit frames it.
std::string admitPayload(std::int64_t wal_id, int recoveries,
                         const std::string& params_json =
                             R"({"schema":"gpumbir.svc/1","verb":"submit"})") {
  return std::string(R"({"type":"admit","wal_id":)") +
         std::to_string(wal_id) + R"(,"recoveries":)" +
         std::to_string(recoveries) + R"(,"params":)" + params_json + "}";
}

std::string terminalPayload(std::int64_t wal_id,
                            const std::string& state = "done") {
  return std::string(R"({"type":"terminal","wal_id":)") +
         std::to_string(wal_id) + R"(,"state":")" + state +
         R"(","image_hash":"0000000000000000"})";
}

// ---------------------------------------------------------------------------
// WAL: round trip, replay, and crash tolerance
// ---------------------------------------------------------------------------

TEST(StoreWal, RoundTripPendingAndIdContinuityAcrossReopen) {
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const std::string params = svc::encodeSubmit(SubmitParams{});
  {
    JobLog log(dir);
    EXPECT_TRUE(log.pending().empty());
    const std::int64_t a = log.nextId();
    const std::int64_t b = log.nextId();
    EXPECT_NE(a, b);
    log.appendAdmit(a, 0, params);
    log.appendAdmit(b, 0, params);
    log.appendTerminal(a, "done", 0x1234u);
    EXPECT_EQ(3u, log.recordsAppended());
  }
  JobLog log(dir);
  ASSERT_EQ(1u, log.pending().size());
  EXPECT_EQ(1, log.pending()[0].wal_id);
  EXPECT_EQ(0, log.pending()[0].recoveries);
  // The params document survives the replay round trip and still parses as
  // the original wire submit request.
  const svc::Request req = svc::parseRequest(log.pending()[0].params_json);
  EXPECT_NO_THROW(svc::parseSubmitParams(req));
  EXPECT_EQ(3u, log.replayStats().records);
  EXPECT_FALSE(log.replayStats().tail_truncated);
  // wal_id is monotone across incarnations: next = max seen + 1.
  EXPECT_EQ(2, log.nextId());
}

TEST(StoreWal, TruncationSweepAtEveryByteOffsetKeepsLongestValidPrefix) {
  // Simulated kill-at-every-offset: for every possible torn-write length,
  // replay must return exactly the records that were fully on disk.
  const std::vector<std::string> payloads = {
      admitPayload(0, 0), terminalPayload(0), admitPayload(1, 2)};
  std::string file;
  std::vector<std::size_t> ends;  // byte offset where record i ends
  for (const std::string& p : payloads) {
    file += JobLog::encodeRecord(p);
    ends.push_back(file.size());
  }

  TempDir tmp;
  const std::string path = tmp.sub("jobs.wal");
  for (std::size_t cut = 0; cut <= file.size(); ++cut) {
    writeFile(path, file.substr(0, cut));
    const JobLog::RawReplay rr = JobLog::replayFile(path);
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;
    ASSERT_EQ(complete, rr.payloads.size()) << "cut at byte " << cut;
    for (std::size_t i = 0; i < complete; ++i)
      EXPECT_EQ(payloads[i], rr.payloads[i]);
    const std::size_t prefix = complete == 0 ? 0 : ends[complete - 1];
    EXPECT_EQ(prefix, rr.stats.bytes) << "cut at byte " << cut;
    EXPECT_EQ(cut != prefix, rr.stats.tail_truncated) << "cut at byte " << cut;
  }
}

TEST(StoreWal, ReopenAfterTornTailTruncatesAndAppendsCleanly) {
  TempDir tmp;
  const std::string dir = tmp.sub("wal");
  const std::string params = svc::encodeSubmit(SubmitParams{});
  {
    JobLog log(dir);
    log.appendAdmit(log.nextId(), 0, params);
    log.appendAdmit(log.nextId(), 0, params);
  }
  // Tear the final record mid-payload.
  const std::string path = dir + "/jobs.wal";
  const std::string full = readFile(path);
  writeFile(path, full.substr(0, full.size() - 7));

  {
    JobLog log(dir);  // truncates the torn tail...
    EXPECT_TRUE(log.replayStats().tail_truncated);
    EXPECT_EQ(1u, log.replayStats().records);
    ASSERT_EQ(1u, log.pending().size());
    EXPECT_EQ(0, log.pending()[0].wal_id);
    // ...and the lost admit's wal_id is re-issued (it was never recoverable).
    EXPECT_EQ(1, log.nextId());
    log.appendAdmit(1, 0, params);  // ...so appends extend a clean prefix
  }
  JobLog log(dir);
  EXPECT_FALSE(log.replayStats().tail_truncated);
  EXPECT_EQ(2u, log.replayStats().records);
  EXPECT_EQ(2u, log.pending().size());
}

TEST(StoreWal, BitFlipSweepNeverAcceptsACorruptedRecordOrItsSuffix) {
  const std::vector<std::string> payloads = {admitPayload(0, 0),
                                             admitPayload(1, 0)};
  const std::string r0 = JobLog::encodeRecord(payloads[0]);
  const std::string file = r0 + JobLog::encodeRecord(payloads[1]);

  TempDir tmp;
  const std::string path = tmp.sub("jobs.wal");
  for (std::size_t i = 0; i < file.size(); ++i) {
    std::string bad = file;
    bad[i] = char(bad[i] ^ 0x5A);
    writeFile(path, bad);
    const JobLog::RawReplay rr = JobLog::replayFile(path);
    // Replay stops at the first invalid record: a flip in record 0 drops
    // everything (the intact record 1 after it is unreachable — its offset
    // can no longer be trusted); a flip in record 1 keeps only record 0.
    const std::size_t expect = i < r0.size() ? 0u : 1u;
    ASSERT_EQ(expect, rr.payloads.size()) << "flip at byte " << i;
    if (expect == 1) EXPECT_EQ(payloads[0], rr.payloads[0]);
    EXPECT_TRUE(rr.stats.tail_truncated) << "flip at byte " << i;
  }
}

TEST(StoreWal, ResolvePendingToleratesDuplicatesOutOfOrderAndGarbage) {
  store::ReplayStats stats;
  std::int64_t max_id = -1;
  const std::vector<std::string> payloads = {
      terminalPayload(7),       // out of order: terminal before its admit
      admitPayload(1, 0),       //
      admitPayload(2, 0),       //
      admitPayload(1, 3),       // duplicate admit: folds recoveries to 3
      terminalPayload(2),       //
      terminalPayload(2),       // duplicate terminal
      admitPayload(7, 0),       // late admit for the early terminal: finished
      "not json at all",        //
      R"({"type":"wat","wal_id":9})",  // unknown record type
  };
  const std::vector<store::PendingJob> pending =
      JobLog::resolvePending(payloads, stats, &max_id);

  ASSERT_EQ(1u, pending.size());  // only wal_id 1 is admitted-but-unfinished
  EXPECT_EQ(1, pending[0].wal_id);
  EXPECT_EQ(3, pending[0].recoveries);
  EXPECT_EQ(1u, stats.orphan_terminals);
  EXPECT_EQ(2u, stats.duplicate_admits);  // re-admit of 1 + late admit of 7
  EXPECT_EQ(1u, stats.duplicate_terminals);
  EXPECT_EQ(2u, stats.malformed_payloads);
  EXPECT_EQ(9, max_id);
}

// ---------------------------------------------------------------------------
// Result cache: round trip, verification, eviction, warm candidates
// ---------------------------------------------------------------------------

Image2D patternImage(int size, float scale) {
  Image2D img(size);
  for (std::size_t i = 0; i < img.numVoxels(); ++i)
    img[i] = scale * float(i % 97) - 0.5f * scale;
  return img;
}

ResultCache::Meta metaFor(std::uint64_t input, const std::string& key,
                          const Image2D& img, double equits) {
  ResultCache::Meta m;
  m.input_hash = input;
  m.config_key = key;
  m.converged = true;
  m.equits = equits;
  m.final_rmse_hu = 12.5;
  m.modeled_seconds = 0.25;
  m.image_hash = fnv1a64(img.flat());
  return m;
}

TEST(StoreCache, InsertFindRoundTripAndReloadFromDisk) {
  TempDir tmp;
  const Image2D img = patternImage(16, 1e-3f);
  {
    ResultCache cache(tmp.sub("cache"), 8);
    cache.insert(metaFor(0xABCDu, "alg=gpu;eq=3", img, 3.0), img);
    const auto hit = cache.find(0xABCDu, "alg=gpu;eq=3");
    ASSERT_NE(nullptr, hit);
    expectImagesBitIdentical(img, *hit->image);
    EXPECT_EQ(3.0, hit->meta.equits);
    EXPECT_EQ(nullptr, cache.find(0xABCDu, "alg=gpu;eq=4"));  // config miss
    EXPECT_EQ(nullptr, cache.find(0x9999u, "alg=gpu;eq=3"));  // input miss
    EXPECT_EQ(1u, cache.counters().inserts);
    EXPECT_EQ(1u, cache.counters().hits);
    EXPECT_EQ(2u, cache.counters().misses);
  }
  // A fresh cache on the same directory serves the same bits.
  ResultCache cache(tmp.sub("cache"), 8);
  EXPECT_EQ(1u, cache.size());
  EXPECT_EQ(0u, cache.counters().corrupt_dropped);
  const auto hit = cache.find(0xABCDu, "alg=gpu;eq=3");
  ASSERT_NE(nullptr, hit);
  expectImagesBitIdentical(img, *hit->image);
  EXPECT_EQ(fnv1a64(img.flat()), hit->meta.image_hash);
}

TEST(StoreCache, TamperedAndMisnamedEntryFilesAreDroppedAtStartup) {
  TempDir tmp;
  const std::string dir = tmp.sub("cache");
  const Image2D a = patternImage(16, 1e-3f);
  const Image2D b = patternImage(16, 2e-3f);
  {
    ResultCache cache(dir, 8);
    cache.insert(metaFor(1, "ka", a, 2.0), a);
    cache.insert(metaFor(2, "kb", b, 2.0), b);
  }
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir))
    files.push_back(e.path().string());
  ASSERT_EQ(2u, files.size());

  // Flip a byte in the middle of one entry's pixel data.
  std::string bytes = readFile(files[0]);
  bytes[bytes.size() / 2] = char(bytes[bytes.size() / 2] ^ 0xFF);
  writeFile(files[0], bytes);
  // Rename the other to a different key's file name: even with a valid
  // checksum, the embedded key must agree with the address it is served
  // under — this is the full-key verification that makes an FNV collision
  // (or a stray copied file) unable to serve the wrong image.
  const std::string rogue = dir + "/deadbeefdeadbeef-0123456789abcdef.rce";
  fs::rename(files[1], rogue);

  ResultCache cache(dir, 8);
  EXPECT_EQ(0u, cache.size());
  EXPECT_EQ(2u, cache.counters().corrupt_dropped);
  EXPECT_EQ(nullptr, cache.find(1, "ka"));
  EXPECT_EQ(nullptr, cache.find(2, "kb"));
  // Dropped files are unlinked — the directory stays bounded.
  EXPECT_EQ(0, std::distance(fs::directory_iterator(dir),
                             fs::directory_iterator{}));
}

TEST(StoreCache, CapacityEvictsLeastRecentlyUsedAndUnlinksItsFile) {
  TempDir tmp;
  const std::string dir = tmp.sub("cache");
  ResultCache cache(dir, 2);
  const Image2D img = patternImage(16, 1e-3f);
  cache.insert(metaFor(1, "k", img, 1.0), img);
  cache.insert(metaFor(2, "k", img, 1.0), img);
  ASSERT_NE(nullptr, cache.find(1, "k"));  // touch 1: now 2 is the LRU entry
  cache.insert(metaFor(3, "k", img, 1.0), img);

  EXPECT_EQ(2u, cache.size());
  EXPECT_EQ(1u, cache.counters().evictions);
  EXPECT_NE(nullptr, cache.find(1, "k"));
  EXPECT_EQ(nullptr, cache.find(2, "k"));  // evicted
  EXPECT_NE(nullptr, cache.find(3, "k"));
  EXPECT_EQ(2, std::distance(fs::directory_iterator(dir),
                             fs::directory_iterator{}));

  // Idempotent overwrite: re-inserting an existing key is not an eviction.
  cache.insert(metaFor(3, "k", img, 5.0), img);
  EXPECT_EQ(2u, cache.size());
  EXPECT_EQ(1u, cache.counters().evictions);
  EXPECT_EQ(5.0, cache.find(3, "k")->meta.equits);
}

TEST(StoreCache, ConcurrentInsertsOfOneKeyAllLand) {
  // Two jobs finishing with the same key insert at once (a duplicate that
  // raced past the cache lookup). Each insert stages under its own temp
  // name, so no rename can lose its file to another's: none throws, and
  // the entry reloads with the right bits.
  TempDir tmp;
  const std::string dir = tmp.sub("cache");
  const Image2D img = patternImage(16, 1e-3f);
  const ResultCache::Meta meta = metaFor(0x5EEDu, "alg=gpu;eq=3", img, 3.0);
  {
    ResultCache cache(dir, 8);
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t)
      writers.emplace_back([&] {
        try {
          cache.insert(meta, img);
        } catch (const std::exception&) {
          ++failures;
        }
      });
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(0, failures.load());
    EXPECT_EQ(8u, cache.counters().inserts);
    EXPECT_EQ(1u, cache.size());
  }
  // No staging file outlives its insert; one left by a crash mid-insert is
  // swept at the next startup.
  EXPECT_EQ(1, std::distance(fs::directory_iterator(dir),
                             fs::directory_iterator{}));
  writeFile(dir + "/crashed.rce.1.7.tmp", "torn");
  ResultCache cache(dir, 8);
  EXPECT_EQ(0u, cache.counters().corrupt_dropped);
  const auto hit = cache.find(0x5EEDu, "alg=gpu;eq=3");
  ASSERT_NE(nullptr, hit);
  expectImagesBitIdentical(img, *hit->image);
  EXPECT_EQ(1, std::distance(fs::directory_iterator(dir),
                             fs::directory_iterator{}));
}

TEST(StoreCache, WarmLookupPicksMostConvergedEntryOfMatchingSize) {
  TempDir tmp;
  ResultCache cache(tmp.sub("cache"), 8);
  const Image2D rough = patternImage(16, 1e-3f);
  const Image2D fine = patternImage(16, 3e-3f);
  const Image2D other_size = patternImage(8, 1e-3f);
  cache.insert(metaFor(7, "eq=2", rough, 2.0), rough);
  cache.insert(metaFor(7, "eq=6", fine, 6.0), fine);
  cache.insert(metaFor(7, "eq=9-small", other_size, 9.0), other_size);

  const auto warm = cache.findWarm(7, 16);
  ASSERT_NE(nullptr, warm);
  EXPECT_EQ(6.0, warm->meta.equits);  // most converged at the right size
  expectImagesBitIdentical(fine, *warm->image);
  EXPECT_EQ(nullptr, cache.findWarm(8, 16));   // different inputs
  EXPECT_EQ(nullptr, cache.findWarm(7, 32));   // no entry at that size
  EXPECT_EQ(1u, cache.counters().warm_hits);
}

// ---------------------------------------------------------------------------
// Weighted fair queuing
// ---------------------------------------------------------------------------

TEST(StoreWfq, PicksAreWeightProportionalForBackloggedTenants) {
  store::FairQueue fq;
  fq.configure({{"heavy", 4.0}, {"light", 1.0}});
  const std::vector<std::string> both = {"heavy", "light"};
  int heavy = 0;
  for (int i = 0; i < 500; ++i)
    if (both[fq.pickAndCharge(both)] == "heavy") ++heavy;
  // SFQ is deterministic: a 4:1 split of 500 picks is 400/100 up to the
  // interleave at the window edges.
  EXPECT_NEAR(400, heavy, 4);

  bool saw_heavy = false, saw_light = false;
  for (const store::FairQueue::Share& s : fq.snapshot()) {
    if (s.tenant == "heavy") {
      saw_heavy = true;
      EXPECT_EQ(4.0, s.weight);
      EXPECT_EQ(std::uint64_t(heavy), s.picks);
      EXPECT_EQ(double(heavy), s.served_cost);
    }
    if (s.tenant == "light") {
      saw_light = true;
      EXPECT_EQ(1.0, s.weight);
      EXPECT_EQ(std::uint64_t(500 - heavy), s.picks);
    }
  }
  EXPECT_TRUE(saw_heavy);
  EXPECT_TRUE(saw_light);
}

TEST(StoreWfq, IdleTenantRejoinsAtCurrentVirtualTimeWithoutBankedCredit) {
  store::FairQueue fq;
  fq.configure({{"a", 1.0}, {"b", 1.0}});
  const std::vector<std::string> only_a = {"a"};
  for (int i = 0; i < 100; ++i) fq.pickAndCharge(only_a);

  // If "b" had banked 100 slots of credit it would now win ~the next 100
  // picks; the SFQ clamp must make it resume at a fair 1:1 share instead.
  const std::vector<std::string> both = {"a", "b"};
  int b_wins = 0;
  for (int i = 0; i < 40; ++i)
    if (both[fq.pickAndCharge(both)] == "b") ++b_wins;
  EXPECT_GE(b_wins, 18);
  EXPECT_LE(b_wins, 22);
}

TEST(StoreWfq, UnknownTenantGetsTheDefaultWeight) {
  store::FairQueue fq;
  fq.configure({{"vip", 3.0}}, /*default_weight=*/0.5);
  EXPECT_EQ(3.0, fq.weight("vip"));
  EXPECT_EQ(0.5, fq.weight("walk-in"));
}

// ---------------------------------------------------------------------------
// Service integration: cache serves, warm starts, WAL recovery, chaos
// ---------------------------------------------------------------------------

/// A server with the store lane wired up (WAL and/or cache borrowed).
struct StoreService {
  StoreService(JobLog* wal, ResultCache* cache, int devices = 1,
               svc::DispatcherOptions dispatch = {}) {
    svc::ServerOptions opt;
    opt.dispatch = std::move(dispatch);
    opt.dispatch.num_devices = devices;
    opt.dispatch.queue_capacity = 16;
    opt.base_config = tinyBaseConfig();
    opt.wal = wal;
    opt.cache = cache;
    server = std::make_unique<svc::Server>(opt, source);
  }
  Client connect() { return Client(server->port()); }

  TinySource source;
  std::unique_ptr<svc::Server> server;
};

TEST(SvcStore, DuplicateSubmitIsServedFromTheCacheWithoutDispatching) {
  TempDir tmp;
  ResultCache cache(tmp.sub("cache"), 8);
  StoreService service(nullptr, &cache);
  Client client = service.connect();

  SubmitParams p;
  p.name = "cold";
  const Client::SubmitResult cold = client.submit(p);
  ASSERT_TRUE(cold.accepted) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const Client::JobInfo cold_info = client.result(cold.job_id);
  ASSERT_EQ("done", cold_info.state) << cold_info.error;

  // Identical resubmit: already terminal at the submit ack, same bits,
  // never dispatched.
  p.name = "dup";
  const Client::SubmitResult dup = client.submit(p);
  ASSERT_TRUE(dup.accepted) << dup.error;
  EXPECT_TRUE(dup.cache_hit);
  const Client::JobInfo dup_info = client.jobStatus(dup.job_id);
  EXPECT_EQ("done", dup_info.state);
  EXPECT_TRUE(dup_info.cache_hit);
  EXPECT_EQ(-1, dup_info.dispatch_seq);
  EXPECT_EQ(cold_info.image_hash, dup_info.image_hash);
  EXPECT_EQ(cold_info.equits, dup_info.equits);

  // Content addressing: a different case index with bit-identical inputs
  // (TinySource serves one problem for every index) hits the same entry.
  SubmitParams p2;
  p2.case_index = 3;
  p2.name = "same-bits";
  const Client::SubmitResult same = client.submit(p2);
  ASSERT_TRUE(same.accepted) << same.error;
  EXPECT_TRUE(same.cache_hit);

  // --no-cache: the lookup is bypassed and the job really runs.
  SubmitParams p3;
  p3.bypass_cache = true;
  p3.name = "bypass";
  const Client::SubmitResult bypass = client.submit(p3);
  ASSERT_TRUE(bypass.accepted) << bypass.error;
  EXPECT_FALSE(bypass.cache_hit);
  const Client::JobInfo bypass_info = client.result(bypass.job_id);
  EXPECT_EQ("done", bypass_info.state);
  EXPECT_GE(bypass_info.dispatch_seq, 0);
  EXPECT_EQ(cold_info.image_hash, bypass_info.image_hash);

  const svc::SvcReport& rep = service.server->drainAndReport();
  EXPECT_EQ(2u, rep.cache_hits);
  EXPECT_EQ(0u, rep.warm_starts);
}

TEST(SvcStore, NearDuplicateWarmStartsAndConvergesInFewerEquits) {
  TempDir tmp;
  ResultCache cache(tmp.sub("cache"), 8);
  StoreService service(nullptr, &cache);
  Client client = service.connect();

  // Seed the cache with a well-converged run of the shared inputs.
  SubmitParams seed;
  seed.max_equits = 6.0;
  seed.name = "seed";
  const Client::SubmitResult s = client.submit(seed);
  ASSERT_TRUE(s.accepted) << s.error;
  const Client::JobInfo seed_info = client.result(s.job_id);
  ASSERT_EQ("done", seed_info.state) << seed_info.error;
  ASSERT_GT(seed_info.final_rmse_hu, 0.0);

  // A convergence-bound config whose stop threshold sits just above the
  // seed's final RMSE: from a zero image it takes several equits...
  const double stop = seed_info.final_rmse_hu * 1.01;
  SubmitParams coldp;
  coldp.max_equits = 20.0;
  coldp.stop_rmse_hu = stop;
  coldp.bypass_cache = true;  // forces the cold path for the baseline
  coldp.name = "cold-baseline";
  const Client::SubmitResult c = client.submit(coldp);
  ASSERT_TRUE(c.accepted) << c.error;
  const Client::JobInfo cold = client.result(c.job_id);
  ASSERT_EQ("done", cold.state) << cold.error;
  EXPECT_FALSE(cold.warm_start);

  // ...but the near-duplicate (different budget => exact-key miss) starts
  // from the cached seed image, which already satisfies the threshold.
  SubmitParams warmp;
  warmp.max_equits = 21.0;  // differs from coldp: exact miss, warm candidate
  warmp.stop_rmse_hu = stop;
  warmp.name = "warm";
  const Client::SubmitResult w = client.submit(warmp);
  ASSERT_TRUE(w.accepted) << w.error;
  EXPECT_FALSE(w.cache_hit);
  const Client::JobInfo warm = client.result(w.job_id);
  ASSERT_EQ("done", warm.state) << warm.error;
  EXPECT_TRUE(warm.warm_start);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.equits, cold.equits);

  const svc::SvcReport& rep = service.server->drainAndReport();
  EXPECT_EQ(1u, rep.warm_starts);
}

TEST(SvcStore, WalRecoveryRedispatchesPendingJobsBitIdentically) {
  TempDir tmp;
  const std::string wal_dir = tmp.sub("wal");

  // Two deterministic-lane jobs admitted but unfinished when the previous
  // incarnation died: write their admit records the way a live server
  // would, with no terminals.
  std::vector<SubmitParams> specs;
  for (int i = 0; i < 2; ++i) {
    SubmitParams p;
    p.deterministic = true;
    p.max_equits = 2.0 + i;
    p.name = "det" + std::to_string(i);
    specs.push_back(p);
  }
  {
    JobLog wal(wal_dir);
    for (const SubmitParams& p : specs)
      wal.appendAdmit(wal.nextId(), 0, svc::encodeSubmit(p));
  }

  const int kDevices = 2;
  svc::SvcReport rep;
  {
    JobLog wal(wal_dir);
    ASSERT_EQ(2u, wal.pending().size());
    StoreService service(&wal, nullptr, kDevices);
    rep = service.server->drainAndReport();
  }
  EXPECT_EQ(2u, rep.jobs_done);
  EXPECT_EQ(2u, rep.jobs_recovered);

  // The recovered runs are bit-identical to the same jobs run serially —
  // recovery is idempotent on the det lane.
  for (const SubmitParams& p : specs) {
    const svc::JobStatus* job = nullptr;
    for (const svc::JobStatus& j : rep.jobs)
      if (j.name == p.name) job = &j;
    ASSERT_NE(nullptr, job) << p.name;
    EXPECT_EQ(1, job->recoveries);
    const RunResult serial = reconstruct(
        tinyProblem(), tinyGolden(), svc::makeRunConfig(tinyBaseConfig(), p));
    EXPECT_EQ(fnv1a64(serial.image.flat()), job->image_hash);
  }

  // Every recovered job reached a terminal record: nothing is pending, and
  // a second restart re-runs nothing (exactly-once completion).
  JobLog wal(wal_dir);
  EXPECT_TRUE(wal.pending().empty());
}

TEST(SvcStore, WalRecoveryServesAnExactDuplicateFromTheCache) {
  TempDir tmp;
  const std::string wal_dir = tmp.sub("wal");
  const std::string cache_dir = tmp.sub("cache");

  SubmitParams p;
  p.name = "job";
  std::string cold_hash;
  {
    JobLog wal(wal_dir);
    ResultCache cache(cache_dir, 8);
    StoreService service(&wal, &cache);
    Client client = service.connect();
    const Client::SubmitResult out = client.submit(p);
    ASSERT_TRUE(out.accepted) << out.error;
    const Client::JobInfo info = client.result(out.job_id);
    ASSERT_EQ("done", info.state) << info.error;
    cold_hash = info.image_hash;
    // Simulate a duplicate of the same work that was admitted (and logged)
    // but lost to the crash before it ran.
    wal.appendAdmit(wal.nextId(), 0, svc::encodeSubmit(p));
    service.server->drainAndReport();
  }

  JobLog wal(wal_dir);
  ASSERT_EQ(1u, wal.pending().size());
  ResultCache cache(cache_dir, 8);
  ASSERT_EQ(1u, cache.size());
  svc::SvcReport rep;
  {
    StoreService service(&wal, &cache, 1);
    rep = service.server->drainAndReport();
  }
  // Recovery recognized the finished bits: served from the cache, no
  // dispatch, and the WAL entry was closed with a terminal record.
  EXPECT_EQ(1u, rep.cache_hits);
  EXPECT_EQ(1u, rep.jobs_recovered);  // a recovery served from the cache
  ASSERT_EQ(1u, rep.jobs.size());
  EXPECT_TRUE(rep.jobs[0].cache_hit);
  EXPECT_EQ(1, rep.jobs[0].recoveries);
  EXPECT_EQ(-1, rep.jobs[0].dispatch_seq);
  EXPECT_EQ(cold_hash, hashToHex(rep.jobs[0].image_hash));

  JobLog reopened(wal_dir);
  EXPECT_TRUE(reopened.pending().empty());
}

TEST(SvcStore, RecoveredJobMigratesOffADyingDeviceExactlyOnce) {
  // Satellite of the chaos lane: a WAL-recovered job whose first device
  // dies must migrate once and complete, with recoveries and migrations
  // counted separately.
  TempDir tmp;
  const std::string wal_dir = tmp.sub("wal");
  {
    JobLog wal(wal_dir);
    SubmitParams p;
    // Deterministic lane: det job 0 always dispatches to device 0 first,
    // so the targeted death below fires on its first run.
    p.deterministic = true;
    p.name = "survivor";
    wal.appendAdmit(wal.nextId(), 0, svc::encodeSubmit(p));
  }

  svc::DispatcherOptions dispatch;
  dispatch.fault_plan.seed = 1;
  dispatch.fault_plan.death_rate = 1.0;
  dispatch.fault_plan.target_devices = {0};  // device 1 is the survivor
  dispatch.watchdog_ms = 150.0;

  JobLog wal(wal_dir);
  ASSERT_EQ(1u, wal.pending().size());
  svc::SvcReport rep;
  {
    StoreService service(&wal, nullptr, /*devices=*/2, dispatch);
    rep = service.server->drainAndReport();
  }
  EXPECT_EQ(1u, rep.jobs_done);
  EXPECT_EQ(1u, rep.jobs_recovered);
  EXPECT_EQ(1u, rep.jobs_migrated);
  EXPECT_EQ(1u, rep.devices_failed);
  ASSERT_EQ(1u, rep.jobs.size());
  EXPECT_EQ(svc::JobState::kDone, rep.jobs[0].state) << rep.jobs[0].error;
  EXPECT_EQ(1, rep.jobs[0].recoveries);
  EXPECT_EQ(1, rep.jobs[0].migrations);
  EXPECT_EQ(1, rep.jobs[0].device);

  JobLog reopened(wal_dir);
  EXPECT_TRUE(reopened.pending().empty());
}

TEST(SvcStore, StatsReportAndMetricCountersAgreeAfterAMixedRun) {
  // One of each outcome the counts cover: a WAL recovery, a cold run, an
  // exact cache hit, a warm start and a deadline miss. The stats verb, the
  // drain report and the svc.* counters must tell the same story.
  TempDir tmp;
  const std::string wal_dir = tmp.sub("wal");
  {
    JobLog wal(wal_dir);
    SubmitParams p;
    p.max_equits = 2.0;
    wal.appendAdmit(wal.nextId(), 0, svc::encodeSubmit(p));
  }
  obs::Recorder recorder(obs::ObsConfig{.metrics = true});
  JobLog wal(wal_dir);
  ResultCache cache(tmp.sub("cache"), 8);
  StoreService service(&wal, &cache, /*devices=*/2,
                       svc::DispatcherOptions{.recorder = &recorder});
  Client client = service.connect();

  const SubmitParams cold;
  ASSERT_EQ("done", client.result(client.submit(cold).job_id).state);
  EXPECT_TRUE(client.submit(cold).cache_hit);
  SubmitParams warm;
  warm.max_equits = 4.0;  // same inputs, another config: a warm start
  EXPECT_TRUE(client.result(client.submit(warm).job_id).warm_start);
  SubmitParams late;
  late.deadline_ms = 0.0;  // expired by the time any device picks it
  late.bypass_cache = true;
  EXPECT_EQ("deadline_missed",
            client.result(client.submit(late).job_id).state);

  const svc::SvcReport& rep = service.server->drainAndReport();
  const obs::JsonValue stats = client.stats();
  const obs::MetricsRegistry& m = recorder.metrics();
  const auto num = [&](const char* section, const char* key) {
    const obs::JsonValue& doc = *section ? *stats.find(section) : stats;
    return std::uint64_t(doc.find(key)->num_v);
  };
  const svc::SvcReport::TenantSummary& tenant = rep.tenants.at(0);
  // Each row: the expected count, then every place that reports it.
  const std::pair<const char*, std::vector<std::uint64_t>> counts[] = {
      {"submitted", {5, rep.jobs_submitted, num("", "submitted"),
                     tenant.jobs_submitted,
                     m.counterValue("svc.jobs.submitted")}},
      {"finished", {5, num("", "finished"),
                    rep.jobs_done + rep.jobs_deadline_missed}},
      {"done", {4, rep.jobs_done, tenant.jobs_done,
                m.counterValue("svc.jobs.done"),
                m.counterValue("svc.jobs.done{tenant=default}")}},
      {"deadline missed", {1, rep.jobs_deadline_missed,
                           m.counterValue("svc.jobs.deadline_missed")}},
      {"cache hits", {1, rep.cache_hits, num("store", "cache_hits"),
                      tenant.cache_hits,
                      m.counterValue("svc.cache.hits{tenant=default}")}},
      {"warm starts", {1, rep.warm_starts, num("store", "warm_starts"),
                       tenant.warm_starts,
                       m.counterValue("svc.cache.warm_starts{tenant=default}")}},
      {"recovered", {1, rep.jobs_recovered, num("store", "jobs_recovered"),
                     m.counterValue("svc.jobs.recovered")}},
      // One automatic flight dump per badly ending job.
      {"flight dumps", {1, num("flight", "dumps"),
                        m.counterValue("svc.flight.dumps")}},
  };
  for (const auto& [what, seen] : counts)
    for (std::uint64_t v : seen) EXPECT_EQ(seen.front(), v) << what;
}

TEST(SvcStore, DrainReportCarriesPerTenantSummariesAndWeights) {
  svc::DispatcherOptions dispatch;
  dispatch.tenant_weights["gold"] = 4.0;
  StoreService service(nullptr, nullptr, /*devices=*/1, dispatch);
  Client client = service.connect();

  for (int i = 0; i < 2; ++i) {
    SubmitParams p;
    p.tenant = "gold";
    p.name = "gold" + std::to_string(i);
    ASSERT_TRUE(client.submit(p).accepted);
  }
  SubmitParams p;
  p.name = "anon";
  ASSERT_TRUE(client.submit(p).accepted);

  const svc::SvcReport& rep = service.server->drainAndReport();
  ASSERT_EQ(2u, rep.tenants.size());  // sorted: "default" < "gold"
  EXPECT_EQ("default", rep.tenants[0].tenant);
  EXPECT_EQ(1.0, rep.tenants[0].weight);
  EXPECT_EQ(1u, rep.tenants[0].jobs_done);
  EXPECT_EQ("gold", rep.tenants[1].tenant);
  EXPECT_EQ(4.0, rep.tenants[1].weight);
  EXPECT_EQ(2u, rep.tenants[1].jobs_done);
  EXPECT_GT(rep.tenants[1].e2e_host_s.count, 0u);
}

}  // namespace
}  // namespace mbir::test
