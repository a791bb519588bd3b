// Conformance suite for the SIMD lane-group execution layer (core/simd.h).
//
// The load-bearing claim is bit-identity: every op must produce the same
// bits on the scalar and AVX2 paths, for every length (masked tails), every
// alignment, and randomized inputs — and the engines built on top must
// therefore produce identical images, profiler stats, modeled seconds and
// race-detector streams whichever path runs. Both layers are asserted here:
// op-level (randomized, with an independent reference emulation of the
// canonical lane semantics) and engine-level (GPU-ICD transformed + naive,
// quantized + float, PSV-ICD, projector, and the reconstruct() facade).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/aligned.h"
#include "core/simd.h"
#include "geom/projector.h"
#include "gpuicd/gpu_icd.h"
#include "gsim/executor.h"
#include "psv/psv_icd.h"
#include "recon/reconstructor.h"
#include "test_support.h"

namespace mbir {
namespace {

bool avx2Available() { return avx2SimdOps() != nullptr; }

// ---------------------------------------------------------------------------
// Mode parsing / resolution
// ---------------------------------------------------------------------------

TEST(SimdMode, ParseAcceptsDocumentedSpellings) {
  EXPECT_EQ(parseSimdMode("off"), SimdMode::kOff);
  EXPECT_EQ(parseSimdMode("scalar"), SimdMode::kOff);
  EXPECT_EQ(parseSimdMode("auto"), SimdMode::kAuto);
  EXPECT_EQ(parseSimdMode(""), SimdMode::kAuto);
  EXPECT_EQ(parseSimdMode("avx2"), SimdMode::kAvx2);
  EXPECT_THROW(parseSimdMode("sse9"), Error);
  EXPECT_THROW(parseSimdMode("ON"), Error);
}

TEST(SimdMode, ResolveOffIsScalar) {
  EXPECT_STREQ(resolveSimdOps(SimdMode::kOff).name, "scalar");
}

TEST(SimdMode, ResolveAutoNeverFails) {
  const SimdOps& ops = resolveSimdOps(SimdMode::kAuto);
  if (avx2Available()) {
    EXPECT_STREQ(ops.name, "avx2");
  } else {
    EXPECT_STREQ(ops.name, "scalar");
  }
}

TEST(SimdMode, ForcedAvx2ThrowsWhenUnavailable) {
  if (avx2Available()) {
    EXPECT_STREQ(resolveSimdOps(SimdMode::kAvx2).name, "avx2");
  } else {
    EXPECT_THROW(resolveSimdOps(SimdMode::kAvx2), Error);
  }
}

// Save/restore GPUMBIR_SIMD so tests that poke it don't change the path
// the rest of the binary runs on (CI forces the knob process-wide).
class ScopedSimdEnv {
 public:
  ScopedSimdEnv() {
    const char* prev = std::getenv("GPUMBIR_SIMD");
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
  }
  ~ScopedSimdEnv() {
    if (had_) {
      ::setenv("GPUMBIR_SIMD", saved_.c_str(), 1);
    } else {
      ::unsetenv("GPUMBIR_SIMD");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(SimdMode, EnvKnobSelectsPath) {
  ScopedSimdEnv restore;
  ::setenv("GPUMBIR_SIMD", "off", 1);
  EXPECT_STREQ(resolveSimdOps(SimdMode::kDefault).name, "scalar");
  ::setenv("GPUMBIR_SIMD", "auto", 1);
  const char* auto_path = resolveSimdOps(SimdMode::kDefault).name;
  EXPECT_STREQ(auto_path, avx2Available() ? "avx2" : "scalar");
}

// ---------------------------------------------------------------------------
// Canonical lane semantics: independent reference emulation
// ---------------------------------------------------------------------------

// Reference implementation of the documented contract, written without any
// of the production wrappers: element i lands in lane i % kSimdLanes,
// per-element math is m = w*a (double), t1 -= m*e, t2 += m*a.
void referenceThetaRow(const float* a, const float* e, const float* w, int n,
                       ThetaLanes& lanes) {
  for (int i = 0; i < n; ++i) {
    const int l = i % kSimdLanes;
    const double m = double(w[i]) * double(a[i]);
    lanes.t1[l] -= m * double(e[i]);
    lanes.t2[l] += m * double(a[i]);
  }
}

// Band [i0, i1) of one chunk row (a one-row chunk is a single window).
RowBand band(int i0, int i1) {
  return RowBand{std::uint8_t(i0), std::uint8_t(i1 - i0)};
}

std::vector<float> randomFloats(std::mt19937& rng, int n, float lo = -4.0f,
                                float hi = 4.0f) {
  std::uniform_real_distribution<float> d(lo, hi);
  std::vector<float> out(std::size_t(std::max(n, 0)));
  for (float& v : out) v = d(rng);
  return out;
}

// The band-compact chunk rows the chunk ops read, cut from `rows` rows
// stored `win` apart: row r keeps only the storedGroups(bands[r]) lane
// groups covering its band, zero-padded past the window, back to back.
// Sized exactly, so an op that reads past the last stored group leaves the
// buffer (the ASan leg runs these tests).
template <class T>
std::vector<T> compactRows(const std::vector<T>& full, int win,
                           const RowBand* bands, int rows) {
  std::size_t n = 0;
  for (int r = 0; r < rows; ++r)
    n += std::size_t(storedGroups(bands[r]) * kSimdLanes);
  std::vector<T> out(n);
  std::size_t o = 0;
  for (int r = 0; r < rows; ++r) {
    const int g0 = bands[r].i0 & ~(kSimdLanes - 1);
    for (int c = g0; c < g0 + storedGroups(bands[r]) * kSimdLanes; ++c)
      out[o++] = c < win ? full[std::size_t(r * win + c)] : T(0);
  }
  return out;
}

TEST(SimdSemantics, ThetaRowMatchesReferenceEmulation) {
  std::mt19937 rng(7);
  for (const SimdOps* ops : {&scalarSimdOps(), avx2SimdOps()}) {
    if (!ops) continue;
    for (int n : {0, 1, 3, 7, 8, 9, 16, 19, 24, 31, 67}) {
      const auto a = randomFloats(rng, n);
      const auto e = randomFloats(rng, n);
      const auto w = randomFloats(rng, n, 0.0f, 2.0f);
      ThetaLanes got, want;
      got.reset();
      want.reset();
      ops->theta_row_f(a.data(), e.data(), w.data(), n, got);
      referenceThetaRow(a.data(), e.data(), w.data(), n, want);
      EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got))
          << ops->name << " n=" << n;
    }
  }
}

TEST(SimdSemantics, ReduceLanesIsFixedLeftToRightOrder) {
  alignas(32) double lanes[kSimdLanes] = {1e16, 1.0,  -1e16, 3.5,
                                          2e-9, -7.0, 1e16,  -1e16};
  double want = lanes[0];
  for (int l = 1; l < kSimdLanes; ++l) want += lanes[l];
  EXPECT_EQ(reduceLanes(lanes), want);
}

TEST(SimdSemantics, LanesAccumulateAcrossRowCalls) {
  // The engines keep one ThetaLanes per voxel and feed it every footprint
  // row; each row restarts at lane 0 and adds onto the carried partials.
  // Two chained op calls must therefore equal two chained reference calls.
  std::mt19937 rng(11);
  const int n1 = 13, n2 = 19;
  const auto a1 = randomFloats(rng, n1), a2 = randomFloats(rng, n2);
  const auto e1 = randomFloats(rng, n1), e2 = randomFloats(rng, n2);
  const auto w1 = randomFloats(rng, n1, 0.0f, 2.0f);
  const auto w2 = randomFloats(rng, n2, 0.0f, 2.0f);
  for (const SimdOps* ops : {&scalarSimdOps(), avx2SimdOps()}) {
    if (!ops) continue;
    ThetaLanes got, want;
    got.reset();
    want.reset();
    ops->theta_row_f(a1.data(), e1.data(), w1.data(), n1, got);
    ops->theta_row_f(a2.data(), e2.data(), w2.data(), n2, got);
    referenceThetaRow(a1.data(), e1.data(), w1.data(), n1, want);
    referenceThetaRow(a2.data(), e2.data(), w2.data(), n2, want);
    EXPECT_EQ(0, std::memcmp(&got, &want, sizeof got)) << ops->name;
  }
}

// ---------------------------------------------------------------------------
// Scalar vs AVX2 bit-identity, randomized (every op, tails, alignments)
// ---------------------------------------------------------------------------

class SimdBitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2Available()) GTEST_SKIP() << "host has no AVX2+FMA";
  }
  std::mt19937 rng_{2026};
};

TEST_F(SimdBitIdentity, ThetaRowFloatAllLengthsAndOffsets) {
  const SimdOps& sc = scalarSimdOps();
  const SimdOps& vx = *avx2SimdOps();
  for (int n = 0; n <= 70; ++n) {
    for (int off : {0, 1, 3}) {  // misalign inputs off the 32-byte grid
      const auto a = randomFloats(rng_, n + off);
      const auto e = randomFloats(rng_, n + off);
      const auto w = randomFloats(rng_, n + off, 0.0f, 2.0f);
      ThetaLanes ls, lv;
      ls.reset();
      lv.reset();
      sc.theta_row_f(a.data() + off, e.data() + off, w.data() + off, n, ls);
      vx.theta_row_f(a.data() + off, e.data() + off, w.data() + off, n, lv);
      ASSERT_EQ(0, std::memcmp(&ls, &lv, sizeof ls)) << "n=" << n
                                                     << " off=" << off;
    }
  }
}

TEST_F(SimdBitIdentity, ThetaRowQuantizedAllLengths) {
  const SimdOps& sc = scalarSimdOps();
  const SimdOps& vx = *avx2SimdOps();
  std::uniform_int_distribution<int> q(0, 255);
  for (int n = 0; n <= 70; ++n) {
    std::vector<std::uint8_t> qs(std::size_t(std::max(n, 1)));
    for (auto& v : qs) v = std::uint8_t(q(rng_));
    const auto e = randomFloats(rng_, n);
    const auto w = randomFloats(rng_, n, 0.0f, 2.0f);
    const float scale = 0.0123f;
    // A one-row chunk whose band fills its window is a plain row.
    const RowBand full = band(0, n);
    const auto qc = compactRows(qs, n, &full, 1);
    ThetaLanes ls, lv;
    ls.reset();
    lv.reset();
    sc.theta_chunk_q(qc.data(), scale, e.data(), w.data(), n, &full, 1, n, ls);
    vx.theta_chunk_q(qc.data(), scale, e.data(), w.data(), n, &full, 1, n, lv);
    ASSERT_EQ(0, std::memcmp(&ls, &lv, sizeof ls)) << "n=" << n;
  }
}

TEST_F(SimdBitIdentity, ElementwiseOpsAllLengthsWithGuards) {
  const SimdOps& sc = scalarSimdOps();
  const SimdOps& vx = *avx2SimdOps();
  constexpr float kGuard = 1234.5f;
  for (int n = 0; n <= 70; ++n) {
    const int cap = n + 8;  // guard zone the masked tail must not touch
    const auto a = randomFloats(rng_, cap);
    const auto orig = randomFloats(rng_, cap);
    const auto w = randomFloats(rng_, cap, 0.0f, 2.0f);
    const float delta = 0.375f, xv = -1.25f;

    std::vector<float> es(a.begin(), a.end()), ev(a.begin(), a.end());
    std::fill(es.begin() + n, es.end(), kGuard);
    std::fill(ev.begin() + n, ev.end(), kGuard);
    sc.err_row_f(a.data(), delta, es.data(), n);
    vx.err_row_f(a.data(), delta, ev.data(), n);
    ASSERT_EQ(0, std::memcmp(es.data(), ev.data(), es.size() * 4)) << n;
    for (int i = n; i < cap; ++i) ASSERT_EQ(es[std::size_t(i)], kGuard);

    std::vector<float> ds(std::size_t(cap), kGuard), dv(ds);
    sc.apply_delta_row(a.data(), orig.data(), ds.data(), n);
    vx.apply_delta_row(a.data(), orig.data(), dv.data(), n);
    ASSERT_EQ(0, std::memcmp(ds.data(), dv.data(), ds.size() * 4)) << n;
    for (int i = n; i < cap; ++i) ASSERT_EQ(ds[std::size_t(i)], kGuard);

    std::vector<float> ys(orig.begin(), orig.end()), yv(orig.begin(),
                                                        orig.end());
    std::fill(ys.begin() + n, ys.end(), kGuard);
    std::fill(yv.begin() + n, yv.end(), kGuard);
    sc.axpy_row(w.data(), xv, ys.data(), n);
    vx.axpy_row(w.data(), xv, yv.data(), n);
    ASSERT_EQ(0, std::memcmp(ys.data(), yv.data(), ys.size() * 4)) << n;
    for (int i = n; i < cap; ++i) ASSERT_EQ(ys[std::size_t(i)], kGuard);
  }
}

TEST_F(SimdBitIdentity, ErrRowQuantizedAndDotRowAllLengths) {
  const SimdOps& sc = scalarSimdOps();
  const SimdOps& vx = *avx2SimdOps();
  std::uniform_int_distribution<int> q(0, 255);
  for (int n = 0; n <= 70; ++n) {
    std::vector<std::uint8_t> qs(std::size_t(std::max(n, 1)));
    for (auto& v : qs) v = std::uint8_t(q(rng_));
    // At least one element, so memcmp never sees the null data() of an
    // empty vector.
    const auto base = randomFloats(rng_, std::max(n, 1));
    std::vector<float> es(base.begin(), base.end()), ev(base);
    const RowBand full = band(0, n);
    const auto qc = compactRows(qs, n, &full, 1);
    sc.err_chunk_q(qc.data(), 0.031f, 0.625f, es.data(), n, &full, 1, n);
    vx.err_chunk_q(qc.data(), 0.031f, 0.625f, ev.data(), n, &full, 1, n);
    ASSERT_EQ(0, std::memcmp(es.data(), ev.data(), es.size() * 4)) << n;

    const auto w = randomFloats(rng_, n);
    const auto s = randomFloats(rng_, n);
    alignas(32) double accs[kSimdLanes] = {}, accv[kSimdLanes] = {};
    sc.dot_row(w.data(), s.data(), n, accs);
    vx.dot_row(w.data(), s.data(), n, accv);
    ASSERT_EQ(0, std::memcmp(accs, accv, sizeof accs)) << n;
  }
}

// Chunk ops on one-row chunks: scalar and AVX2 must touch exactly the same
// covering groups and produce identical bits, for every band placement —
// including windows that are not a multiple of the lane width.
TEST_F(SimdBitIdentity, ChunkOpsAllBandPlacements) {
  const SimdOps& sc = scalarSimdOps();
  const SimdOps& vx = *avx2SimdOps();
  std::uniform_int_distribution<int> q(0, 255);
  for (int win : {8, 16, 19, 29, 32}) {
    for (int i0 = 0; i0 <= win; ++i0) {
      for (int i1 = i0; i1 <= win; ++i1) {
        // A values zero-padded outside the band, like chunk windows.
        auto a = randomFloats(rng_, win);
        std::vector<std::uint8_t> qs(std::size_t(win), 0);
        for (int i = i0; i < i1; ++i) qs[std::size_t(i)] = std::uint8_t(q(rng_));
        for (int i = 0; i < win; ++i)
          if (i < i0 || i >= i1) a[std::size_t(i)] = 0.0f;
        const auto e = randomFloats(rng_, win);
        const auto w = randomFloats(rng_, win, 0.0f, 2.0f);
        const float scale = 0.017f, delta = 0.4375f;
        const RowBand b = band(i0, i1);
        const auto ac = compactRows(a, win, &b, 1);
        const auto qc = compactRows(qs, win, &b, 1);

        ThetaLanes ls, lv;
        ls.reset();
        lv.reset();
        sc.theta_chunk_f(ac.data(), e.data(), w.data(), win, &b, 1, win, ls);
        vx.theta_chunk_f(ac.data(), e.data(), w.data(), win, &b, 1, win, lv);
        ASSERT_EQ(0, std::memcmp(&ls, &lv, sizeof ls))
            << "win=" << win << " i0=" << i0 << " i1=" << i1;

        ls.reset();
        lv.reset();
        sc.theta_chunk_q(qc.data(), scale, e.data(), w.data(), win, &b, 1,
                         win, ls);
        vx.theta_chunk_q(qc.data(), scale, e.data(), w.data(), win, &b, 1,
                         win, lv);
        ASSERT_EQ(0, std::memcmp(&ls, &lv, sizeof ls))
            << "win=" << win << " i0=" << i0 << " i1=" << i1;

        std::vector<float> es(e), ev(e);
        sc.err_chunk_f(ac.data(), delta, es.data(), win, &b, 1, win);
        vx.err_chunk_f(ac.data(), delta, ev.data(), win, &b, 1, win);
        ASSERT_EQ(0, std::memcmp(es.data(), ev.data(), es.size() * 4))
            << "win=" << win << " i0=" << i0 << " i1=" << i1;

        es = e;
        ev = e;
        sc.err_chunk_q(qc.data(), scale, delta, es.data(), win, &b, 1, win);
        vx.err_chunk_q(qc.data(), scale, delta, ev.data(), win, &b, 1, win);
        ASSERT_EQ(0, std::memcmp(es.data(), ev.data(), es.size() * 4))
            << "win=" << win << " i0=" << i0 << " i1=" << i1;
      }
    }
  }
}

// Whole chunks: SVB rows `pitch` apart (pitch > win, like the padded SVB),
// band-compact A rows, and windows whose scalar tails fire mid-chunk. The
// first rows are fixed — a one-group band, a band straddling a group
// boundary, and a band in the window's last group (partial for win 19 and
// 29) — and the rest random, so rows mix one to four stored groups. Both
// paths agree bit for bit, a chunk call equals the loop of its one-row
// calls, and SVB elements outside every row's covering groups — the pitch
// gap included — keep their bits.
TEST_F(SimdBitIdentity, ChunkOpsMatchAcrossPathsAndEqualPerRowLoop) {
  const SimdOps& sc = scalarSimdOps();
  const SimdOps& vx = *avx2SimdOps();
  std::uniform_int_distribution<int> q(0, 255);
  struct Out {
    ThetaLanes tf, tq;
    std::vector<float> ef, eq;
  };
  for (int win : {8, 16, 19, 29, 32}) {
    for (int rows : {1, 2, 7, 13}) {
      const int pitch = win + 5;
      std::vector<RowBand> bands;
      for (const RowBand b : {band(1, 6), band(5, 11), band(win - 3, win)})
        if (int(bands.size()) < rows && b.i0 + b.n <= win) bands.push_back(b);
      while (int(bands.size()) < rows) {
        const int i0 = std::uniform_int_distribution<int>(0, win - 1)(rng_);
        const int i1 = std::uniform_int_distribution<int>(i0 + 1, win)(rng_);
        bands.push_back(band(i0, i1));
      }
      auto a = randomFloats(rng_, rows * win);
      std::vector<std::uint8_t> qs(std::size_t(rows * win), 0);
      for (int r = 0; r < rows; ++r) {
        const RowBand b = bands[std::size_t(r)];
        for (int i = 0; i < win; ++i) {
          const std::size_t idx = std::size_t(r * win + i);
          if (i < b.i0 || i >= b.i0 + b.n)
            a[idx] = 0.0f;
          else
            qs[idx] = std::uint8_t(q(rng_));
        }
      }
      const auto e = randomFloats(rng_, rows * pitch);
      const auto w = randomFloats(rng_, rows * pitch, 0.0f, 2.0f);
      ThetaLanes seed;  // carried partials from earlier chunks
      for (int l = 0; l < kSimdLanes; ++l) {
        seed.t1[l] = randomFloats(rng_, 1)[0];
        seed.t2[l] = randomFloats(rng_, 1, 0.0f, 4.0f)[0];
      }
      const float scale = 0.019f, delta = -0.6875f;
      const auto ac = compactRows(a, win, bands.data(), rows);
      const auto qc = compactRows(qs, win, bands.data(), rows);

      const auto chunkCall = [&](const SimdOps& ops) {
        Out o{seed, seed, e, e};
        ops.theta_chunk_f(ac.data(), e.data(), w.data(), pitch, bands.data(),
                          rows, win, o.tf);
        ops.theta_chunk_q(qc.data(), scale, e.data(), w.data(), pitch,
                          bands.data(), rows, win, o.tq);
        ops.err_chunk_f(ac.data(), delta, o.ef.data(), pitch, bands.data(),
                        rows, win);
        ops.err_chunk_q(qc.data(), scale, delta, o.eq.data(), pitch,
                        bands.data(), rows, win);
        return o;
      };
      const auto rowLoop = [&](const SimdOps& ops) {
        Out o{seed, seed, e, e};
        std::size_t ao = 0;
        for (int r = 0; r < rows; ++r) {
          const RowBand* b = &bands[std::size_t(r)];
          const std::size_t so = std::size_t(r * pitch);
          ops.theta_chunk_f(ac.data() + ao, e.data() + so, w.data() + so,
                            pitch, b, 1, win, o.tf);
          ops.theta_chunk_q(qc.data() + ao, scale, e.data() + so,
                            w.data() + so, pitch, b, 1, win, o.tq);
          ops.err_chunk_f(ac.data() + ao, delta, o.ef.data() + so, pitch, b,
                          1, win);
          ops.err_chunk_q(qc.data() + ao, scale, delta, o.eq.data() + so,
                          pitch, b, 1, win);
          ao += std::size_t(storedGroups(*b)) * kSimdLanes;
        }
        return o;
      };

      const Out ref = chunkCall(sc);
      for (const Out& got : {chunkCall(vx), rowLoop(sc), rowLoop(vx)}) {
        ASSERT_EQ(0, std::memcmp(&got.tf, &ref.tf, sizeof ref.tf))
            << "win=" << win << " rows=" << rows;
        ASSERT_EQ(0, std::memcmp(&got.tq, &ref.tq, sizeof ref.tq))
            << "win=" << win << " rows=" << rows;
        ASSERT_EQ(0, std::memcmp(got.ef.data(), ref.ef.data(), e.size() * 4))
            << "win=" << win << " rows=" << rows;
        ASSERT_EQ(0, std::memcmp(got.eq.data(), ref.eq.data(), e.size() * 4))
            << "win=" << win << " rows=" << rows;
      }
      for (int r = 0; r < rows; ++r) {
        const RowBand b = bands[std::size_t(r)];
        const int g0 = b.i0 & ~(kSimdLanes - 1);
        const int cov =
            std::min((b.i0 + b.n + kSimdLanes - 1) & ~(kSimdLanes - 1), win);
        for (int i = 0; i < pitch; ++i) {
          if (i >= g0 && i < cov) continue;
          const std::size_t idx = std::size_t(r * pitch + i);
          ASSERT_EQ(0, std::memcmp(&ref.ef[idx], &e[idx], 4))
              << "win=" << win << " row=" << r << " i=" << i;
          ASSERT_EQ(0, std::memcmp(&ref.eq[idx], &e[idx], 4))
              << "win=" << win << " row=" << r << " i=" << i;
        }
      }
    }
  }
}

// Storing only the groups that cover the band must be invisible: on
// zero-padded data a chunk-theta call over the band's compact row produces
// the exact accumulator bits of the full-window call — a plain row, or a
// chunk whose band is [0, win) (the dropped elements only ever added +0.0).
TEST(SimdSemantics, ChunkThetaEqualsFullWindowOnPaddedData) {
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> q(0, 255);
  for (const SimdOps* ops : {&scalarSimdOps(), avx2SimdOps()}) {
    if (!ops) continue;
    for (int win : {16, 29, 32}) {
      for (int i0 : {0, 3, 9}) {
        for (int i1 : {i0, i0 + 1, i0 + 5, win}) {
          auto a = randomFloats(rng, win);
          std::vector<std::uint8_t> qs(std::size_t(win), 0);
          for (int i = i0; i < i1; ++i)
            qs[std::size_t(i)] = std::uint8_t(q(rng));
          for (int i = 0; i < win; ++i)
            if (i < i0 || i >= i1) a[std::size_t(i)] = 0.0f;
          const auto e = randomFloats(rng, win);
          const auto w = randomFloats(rng, win, 0.0f, 2.0f);

          const RowBand whole = band(0, win), b = band(i0, i1);
          ThetaLanes full, banded;
          full.reset();
          banded.reset();
          ops->theta_row_f(a.data(), e.data(), w.data(), win, full);
          ops->theta_chunk_f(compactRows(a, win, &b, 1).data(), e.data(),
                             w.data(), win, &b, 1, win, banded);
          ASSERT_EQ(0, std::memcmp(&full, &banded, sizeof full))
              << ops->name << " win=" << win << " i0=" << i0 << " i1=" << i1;

          full.reset();
          banded.reset();
          ops->theta_chunk_q(compactRows(qs, win, &whole, 1).data(), 0.02f,
                             e.data(), w.data(), win, &whole, 1, win, full);
          ops->theta_chunk_q(compactRows(qs, win, &b, 1).data(), 0.02f,
                             e.data(), w.data(), win, &b, 1, win, banded);
          ASSERT_EQ(0, std::memcmp(&full, &banded, sizeof full))
              << ops->name << " win=" << win << " i0=" << i0 << " i1=" << i1;
        }
      }
    }
  }
}

// Chunk err ops may only touch each row's covering groups — everything
// outside [i0 & ~7, min(roundUp8(i1), win)) must keep its exact prior bits.
TEST(SimdSemantics, ChunkErrOpsLeaveUncoveredElementsUntouched) {
  std::mt19937 rng(29);
  for (const SimdOps* ops : {&scalarSimdOps(), avx2SimdOps()}) {
    if (!ops) continue;
    for (int win : {24, 29, 32}) {
      for (int i0 : {0, 5, 11}) {
        for (int i1 : {i0, i0 + 2, i0 + 9}) {
          auto a = randomFloats(rng, win);
          const auto e0 = randomFloats(rng, win);
          std::vector<float> e(e0);
          const RowBand b = band(i0, i1);
          ops->err_chunk_f(compactRows(a, win, &b, 1).data(), 0.8125f,
                           e.data(), win, &b, 1, win);
          const int g0 = i0 & ~(kSimdLanes - 1);
          const int r8 = (i1 + kSimdLanes - 1) & ~(kSimdLanes - 1);
          const int cov = i1 > i0 ? std::min(r8, win) : g0;
          for (int i = 0; i < win; ++i) {
            if (i >= g0 && i < cov) continue;
            ASSERT_EQ(std::memcmp(&e[std::size_t(i)], &e0[std::size_t(i)], 4),
                      0)
                << ops->name << " win=" << win << " i0=" << i0
                << " i1=" << i1 << " i=" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// KernelProfiler::transactions at lane-group granularity
// ---------------------------------------------------------------------------

TEST(KernelProfilerTransactions, EdgeCases) {
  gsim::DeviceSpec dev;  // transaction_bytes = 128
  ASSERT_EQ(dev.transaction_bytes, 128);
  gsim::KernelProfiler prof(dev);
  EXPECT_EQ(prof.transactions(0, 4, true), 0);
  EXPECT_EQ(prof.transactions(-5, 4, true), 0);
  EXPECT_EQ(prof.transactions(1, 4, true), 1);
  // One lane group of floats = 32 bytes: still one transaction.
  EXPECT_EQ(prof.transactions(kSimdLanes, 4, true), 1);
  // Four lane groups fill one 128-byte transaction exactly...
  EXPECT_EQ(prof.transactions(4 * kSimdLanes, 4, true), 1);
  // ...and one more element spills into a second.
  EXPECT_EQ(prof.transactions(4 * kSimdLanes + 1, 4, true), 2);
  // Misalignment adds exactly one straddle transaction.
  EXPECT_EQ(prof.transactions(4 * kSimdLanes, 4, false), 2);
  EXPECT_EQ(prof.transactions(1, 4, false), 2);
  // 8-byte (read_svb_as_double) and 1-byte (quantized A) element widths.
  EXPECT_EQ(prof.transactions(2 * kSimdLanes, 8, true), 1);
  EXPECT_EQ(prof.transactions(16 * kSimdLanes, 1, true), 1);
  EXPECT_EQ(prof.transactions(16 * kSimdLanes + 7, 1, true), 2);
}

// ---------------------------------------------------------------------------
// Engine-level both-ways bit-identity
// ---------------------------------------------------------------------------

class SimdEngineIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!avx2Available()) GTEST_SKIP() << "host has no AVX2+FMA";
    problem_ = &test::tinyProblem();
  }

  GpuRunStats runGpu(GpuIcdOptions opt, SimdMode mode, Image2D& x_out) {
    x_out = problem_->fbpInitialImage();
    Sinogram e = problem_->initialError(x_out);
    opt.race_check.enabled = true;
    GpuIcd icd(problem_->view(), test::tinyGpuOptions(std::move(opt)),
               {.simd = &resolveSimdOps(mode)});
    return test::stepEngine(icd, x_out, e, test::kIterationBound, 3.0);
  }

  void expectGpuBothWaysIdentical(OptimFlags flags) {
    GpuIcdOptions opt;
    opt.flags = flags;
    Image2D xs, xv;
    const GpuRunStats ss = runGpu(opt, SimdMode::kOff, xs);
    const GpuRunStats sv = runGpu(opt, SimdMode::kAvx2, xv);
    test::expectGpuRunsBitIdentical(ss, xs, sv, xv);
    // Race-detector streams: same launches, same declared ranges, same
    // diagnoses on both paths.
    EXPECT_EQ(ss.race_launches_checked, sv.race_launches_checked);
    EXPECT_EQ(ss.race_ranges_checked, sv.race_ranges_checked);
    EXPECT_EQ(ss.race_reports, sv.race_reports);
    ASSERT_EQ(ss.per_kernel.size(), sv.per_kernel.size());
    for (const auto& [name, totals] : ss.per_kernel) {
      const auto it = sv.per_kernel.find(name);
      ASSERT_NE(it, sv.per_kernel.end()) << name;
      EXPECT_EQ(totals.seconds, it->second.seconds) << name;
      EXPECT_EQ(totals.launches, it->second.launches) << name;
    }
  }

  const OwnedProblem* problem_;
};

TEST_F(SimdEngineIdentity, GpuIcdTransformedQuantized) {
  expectGpuBothWaysIdentical(OptimFlags{});
}

TEST_F(SimdEngineIdentity, GpuIcdTransformedFloatAmatrix) {
  OptimFlags flags;
  flags.quantize_amatrix = false;
  expectGpuBothWaysIdentical(flags);
}

TEST_F(SimdEngineIdentity, GpuIcdNaiveLayout) {
  OptimFlags flags;
  flags.transformed_layout = false;
  expectGpuBothWaysIdentical(flags);
}

TEST_F(SimdEngineIdentity, PsvIcdBothWaysIdentical) {
  auto run = [&](SimdMode mode, Image2D& x_out) {
    PsvIcdOptions opt;
    opt.sv.sv_side = 8;
    opt.num_threads = 1;
    x_out = problem_->fbpInitialImage();
    Sinogram e = problem_->initialError(x_out);
    PsvIcd icd(problem_->view(), opt, {.simd = &resolveSimdOps(mode)});
    return test::stepEngine(icd, x_out, e, test::kIterationBound, 3.0);
  };
  Image2D xs, xv;
  const PsvRunStats ss = run(SimdMode::kOff, xs);
  const PsvRunStats sv = run(SimdMode::kAvx2, xv);
  test::expectImagesBitIdentical(xs, xv);
  EXPECT_EQ(ss.equits, sv.equits);
  EXPECT_EQ(ss.work.theta_elements, sv.work.theta_elements);
  EXPECT_EQ(ss.work.error_update_elements, sv.work.error_update_elements);
}

TEST_F(SimdEngineIdentity, ProjectorBothWaysIdenticalViaEnv) {
  const OwnedProblem& p = *problem_;
  Image2D x = p.fbpInitialImage();
  ScopedSimdEnv restore;
  ::setenv("GPUMBIR_SIMD", "off", 1);
  const Sinogram ys = forwardProject(p.matrix(), x);
  const Image2D bs = backProject(p.matrix(), ys);
  ::setenv("GPUMBIR_SIMD", "avx2", 1);
  const Sinogram yv = forwardProject(p.matrix(), x);
  const Image2D bv = backProject(p.matrix(), yv);
  ASSERT_EQ(ys.flat().size(), yv.flat().size());
  EXPECT_EQ(0, std::memcmp(ys.flat().data(), yv.flat().data(),
                           ys.flat().size() * sizeof(float)));
  test::expectImagesBitIdentical(bs, bv);
}

TEST_F(SimdEngineIdentity, ReconstructFacadeRecordsPathAndMatches) {
  const Image2D& golden = test::tinyGolden();
  RunConfig cfg = test::tinyRunConfig(Algorithm::kGpuIcd, 3.0);
  cfg.simd = SimdMode::kOff;
  const RunResult rs = reconstruct(*problem_, golden, cfg);
  cfg.simd = SimdMode::kAvx2;
  const RunResult rv = reconstruct(*problem_, golden, cfg);
  EXPECT_STREQ(rs.simd_path, "scalar");
  EXPECT_STREQ(rv.simd_path, "avx2");
  test::expectRunResultsBitIdentical(rs, rv);
}

}  // namespace
}  // namespace mbir
