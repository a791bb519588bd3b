// Unit tests for the core module: RNG, statistics, thread pool, aligned
// buffers, 2D views, tables, CLI parsing, the plan store.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "core/aligned.h"
#include "core/cli.h"
#include "core/error.h"
#include "core/hounsfield.h"
#include "core/plan_store.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "core/view2d.h"

namespace mbir {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(9);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelow) {
  Rng r(10);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(7), 7u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BelowZeroThrows) {
  Rng r(12);
  EXPECT_THROW(r.below(0), Error);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatches) {
  Rng r(14);
  for (double mean : {0.5, 4.0, 30.0, 500.0}) {
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) acc += double(r.poisson(mean));
    EXPECT_NEAR(acc / n, mean, std::max(0.1, mean * 0.05)) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng r(15);
  EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, PermutationIsValid) {
  Rng r(16);
  auto p = r.permutation(100);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng a(20);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, GeomeanOfPowers) {
  RunningStats s;
  s.add(1.0);
  s.add(4.0);
  s.add(16.0);
  EXPECT_NEAR(s.geomean(), 4.0, 1e-12);
}

TEST(RunningStats, GeomeanRejectsNonPositive) {
  RunningStats s;
  s.add(1.0);
  s.add(0.0);
  EXPECT_THROW(s.geomean(), Error);
}

TEST(RunningStats, EmptyMeanThrows) {
  RunningStats s;
  EXPECT_THROW(s.mean(), Error);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(0, 100, [&](int i) { hits[std::size_t(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallelFor(5, 5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(0, 10,
                       [&](int i) {
                         if (i == 3) throw Error("boom");
                       }),
      Error);
}

TEST(ThreadPool, ParallelForWithGrain) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallelFor(0, 1000, [&](int i) { sum += i; }, 16);
  EXPECT_EQ(sum.load(), 499500);
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) pool.submit([&] { done++; });
  pool.wait();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, SubmittedTaskExceptionRethrownByWait) {
  // A throwing submit()ed task used to escape workerLoop and call
  // std::terminate; it must instead be stashed and rethrown by wait(),
  // with sibling tasks still completing.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&, i] {
      if (i == 3) throw Error("planted submit failure");
      done++;
    });
  EXPECT_THROW(pool.wait(), Error);
  EXPECT_EQ(done.load(), 7);
}

TEST(ThreadPool, PoolUsableAfterTaskException) {
  // The error is cleared once rethrown: later batches start clean and a
  // clean wait() does not replay the old exception.
  ThreadPool pool(2);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait(), Error);

  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) pool.submit([&] { done++; });
  pool.wait();  // must not throw
  EXPECT_EQ(done.load(), 4);
}

TEST(ThreadPool, FirstSubmitExceptionWinsOthersSwallowed) {
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i)
    pool.submit([] { throw Error("planted"); });
  EXPECT_THROW(pool.wait(), Error);
  pool.wait();  // all tasks drained; only one exception surfaced
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDefaultAlignment, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
}

TEST(AlignedBuffer, MovePreservesData) {
  AlignedBuffer<int> a(10);
  a[3] = 7;
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b[3], 7);
  EXPECT_EQ(b.size(), 10u);
}

TEST(AlignedBuffer, RoundUp) {
  EXPECT_EQ(roundUp(0, 32), 0u);
  EXPECT_EQ(roundUp(1, 32), 32u);
  EXPECT_EQ(roundUp(32, 32), 32u);
  EXPECT_EQ(roundUp(33, 32), 64u);
}

TEST(View2D, StridedAccess) {
  std::vector<int> data(20, 0);
  View2D<int> v(data.data(), 4, 3, 5);  // padded rows
  v(2, 1) = 42;
  EXPECT_EQ(data[2 * 5 + 1], 42);
  EXPECT_EQ(v.row(2)[1], 42);
}

TEST(View2D, AtBoundsCheck) {
  std::vector<int> data(12);
  View2D<int> v(data.data(), 3, 4);
  EXPECT_NO_THROW(v.at(2, 3));
  EXPECT_THROW(v.at(3, 0), Error);
  EXPECT_THROW(v.at(0, 4), Error);
}

TEST(AsciiTable, RenderAndCsv) {
  AsciiTable t({"a", "bb"});
  t.addRow({"1", "2"});
  t.addRow({"longer", "x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  const std::string path = ::testing::TempDir() + "gpumbir_table.csv";
  t.writeCsv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

TEST(AsciiTable, RowArityChecked) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only one"}), Error);
}

TEST(CliArgs, ParsesForms) {
  // Note "--flag" is last: a bare flag followed by a non-option token would
  // consume it as a value (documented parser behaviour).
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hi", "pos", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.getInt("alpha", 0), 3);
  EXPECT_EQ(args.getString("beta", ""), "hi");
  EXPECT_TRUE(args.getBool("flag", false));
  EXPECT_EQ(args.getInt("missing", 9), 9);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(CliArgs, BadBoolThrows) {
  const char* argv[] = {"prog", "--x", "maybe"};
  CliArgs args(3, argv);
  EXPECT_THROW(args.getBool("x", false), Error);
}

TEST(Hounsfield, RoundTrip) {
  EXPECT_NEAR(muToHu(huToMu(123.0)), 123.0, 1e-9);
  EXPECT_NEAR(muToHu(kMuWaterPerMm), 0.0, 1e-12);
  EXPECT_NEAR(huToMu(0.0), kMuWaterPerMm, 1e-15);
  EXPECT_NEAR(muToHu(0.0), -1000.0, 1e-9);
}

TEST(Check, MacroThrowsWithMessage) {
  try {
    MBIR_CHECK_MSG(1 == 2, "value=" << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value=42"), std::string::npos);
  }
}

// ---------- plan store ----------

/// A store value of `bytes` bytes holding `tag`.
PlanStore::Built storeValue(int tag, std::size_t bytes) {
  return {std::make_shared<const int>(tag), bytes};
}

int storedTag(const PlanStore::Lookup& l) {
  return *std::static_pointer_cast<const int>(l.value);
}

TEST(PlanStoreCore, BuildsOncePerKey) {
  PlanStore store(1000);
  int builds = 0;
  const auto build = [&] { ++builds; return storeValue(7, 10); };
  const PlanStore::Lookup a = store.getOrBuild("k", build);
  const PlanStore::Lookup b = store.getOrBuild("k", build);
  EXPECT_TRUE(a.built);
  EXPECT_FALSE(b.built);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(storedTag(b), 7);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(store.residentBytes(), 10u);
  EXPECT_EQ(store.residentEntries(), 1u);
}

TEST(PlanStoreCore, EvictsLeastRecentlyUsedByBytes) {
  PlanStore store(30);
  store.getOrBuild("a", [] { return storeValue(1, 10); });
  store.getOrBuild("b", [] { return storeValue(2, 10); });
  store.getOrBuild("c", [] { return storeValue(3, 10); });
  store.getOrBuild("a", [] { return storeValue(-1, 10); });  // hit: a is newest
  store.getOrBuild("d", [] { return storeValue(4, 10); });   // evicts b
  EXPECT_EQ(store.residentBytes(), 30u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.getOrBuild("a", [] { return storeValue(-1, 10); }).built);
  EXPECT_TRUE(store.getOrBuild("b", [] { return storeValue(2, 10); }).built);
  EXPECT_EQ(store.evictions(), 2u);  // b came back in place of c
  EXPECT_TRUE(store.getOrBuild("c", [] { return storeValue(3, 10); }).built);
}

TEST(PlanStoreCore, BudgetBelowValueRetainsNothingButHandsItOut) {
  PlanStore store(0);
  const PlanStore::Lookup a = store.getOrBuild("k", [] { return storeValue(5, 8); });
  EXPECT_TRUE(a.built);
  EXPECT_EQ(storedTag(a), 5);  // evicted, still alive through the caller
  EXPECT_EQ(store.residentEntries(), 0u);
  EXPECT_EQ(store.residentBytes(), 0u);
  EXPECT_TRUE(store.getOrBuild("k", [] { return storeValue(5, 8); }).built);
}

TEST(PlanStoreCore, FailedBuildLeavesNoEntry) {
  PlanStore store;
  EXPECT_THROW(store.getOrBuild("k", []() -> PlanStore::Built {
                 throw Error("build failed");
               }),
               Error);
  EXPECT_EQ(store.residentEntries(), 0u);
  const PlanStore::Lookup l = store.getOrBuild("k", [] { return storeValue(3, 1); });
  EXPECT_TRUE(l.built);
  EXPECT_EQ(storedTag(l), 3);
}

TEST(PlanStoreCore, OverlappingBuildsShareTheFirstInsert) {
  // Requesters that all miss before any of them inserts each build; the
  // first insert wins and every requester gets that one value.
  PlanStore store;
  constexpr int kThreads = 4;
  std::atomic<int> builds{0};
  std::vector<PlanStore::Lookup> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      got[std::size_t(i)] = store.getOrBuild("k", [&, i] {
        ++builds;
        while (builds.load() < kThreads) std::this_thread::yield();
        return storeValue(i, 4);
      });
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), kThreads);
  for (const PlanStore::Lookup& l : got) {
    EXPECT_TRUE(l.built);
    EXPECT_EQ(l.value, got[0].value);
  }
  EXPECT_EQ(store.residentEntries(), 1u);
  EXPECT_EQ(store.residentBytes(), 4u);
  EXPECT_FALSE(store.getOrBuild("k", [] { return storeValue(-1, 4); }).built);
}

TEST(PlanStoreCore, OwnedStoreCopiesEmptyAndMovesAlong) {
  OwnedPlanStore a(100);
  a.get().getOrBuild("k", [] { return storeValue(1, 4); });
  const OwnedPlanStore copy = a;
  EXPECT_NE(&copy.get(), &a.get());
  EXPECT_EQ(copy.get().budgetBytes(), 100u);
  EXPECT_EQ(copy.get().residentEntries(), 0u);
  const PlanStore* store = &a.get();
  const OwnedPlanStore moved = std::move(a);
  EXPECT_EQ(&moved.get(), store);
  EXPECT_THROW(a.get(), Error);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace mbir
