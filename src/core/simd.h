// SIMD lane-group execution for the functional GPU simulator and the
// projector row loops beneath it.
//
// gsim kernels used to run their functional math one simulated thread at a
// time; this layer makes groups of kSimdLanes (8) simulated warp lanes
// execute as host vector lanes — the way a CPU software rasterizer
// processes fragment groups. Two implementations exist behind one dispatch
// table (SimdOps): a portable scalar emulation (simd.cpp) and an 8-wide
// AVX2/FMA build (simd_avx2.cpp, compiled in its own TU with -mavx2 -mfma).
// The path is selected at *runtime* — per process via the GPUMBIR_SIMD
// environment knob (off | auto | avx2), per run via the SimdMode carried in
// engine options — so one binary runs everywhere and a deterministic
// service lane can pin a path.
//
// Determinism contract (asserted by tests/test_simd.cpp and the engine
// bit-identity suites): the scalar and AVX2 implementations of every op are
// BIT-IDENTICAL. This holds because both execute the same canonical
// lane-group semantics:
//
//  * Element i of a row maps to lane i mod kSimdLanes. Accumulating ops
//    (theta, dot) keep one accumulator per lane, carried across rows, and
//    are reduced with reduceLanes() in fixed lane order 0..7 — never in
//    element order. The scalar path emulates exactly this lane structure.
//  * Every op performs the same IEEE-754 operation sequence per element
//    (widen to double, multiply, multiply, add/subtract — no FMA
//    contraction in value-bearing math; the build forces -ffp-contract=off
//    so -march=native cannot re-fuse it).
//  * Masked tail lanes (row length not a multiple of 8) contribute exact
//    +0.0 products, which cannot perturb any accumulator bit (accumulators
//    are never -0.0: they start at +0.0 and IEEE addition only yields -0.0
//    from two -0.0 operands or an exact negative cancellation, which
//    rounds to +0.0).
//
// The KernelProfiler counter stream, modeled time, and race-detector access
// declarations are warp-granularity and independent of how the functional
// math executes, so they are bit-identical across paths by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mbir {

/// Lanes per group: one AVX2 ymm register of floats (8 x f32); double
/// accumulators span two ymm registers (2 x 4 x f64).
inline constexpr int kSimdLanes = 8;

/// How a run selects its lane-group implementation.
enum class SimdMode {
  kDefault,  ///< resolve from GPUMBIR_SIMD (unset = kAuto)
  kOff,      ///< scalar lane-group emulation, always available
  kAuto,     ///< AVX2 when compiled in and the CPU supports it, else scalar
  kAvx2,     ///< force AVX2; resolving throws if unavailable
};

const char* simdModeName(SimdMode m);

/// Parse "off" | "auto" | "avx2" (throws mbir::Error on anything else).
SimdMode parseSimdMode(std::string_view s);

/// GPUMBIR_SIMD environment knob; unset or empty = kAuto. Read once.
SimdMode simdModeFromEnv();

/// Per-voxel theta accumulator lanes (theta1/theta2 of the ICD voxel
/// update), 32-byte aligned so the AVX2 path can load/store them directly.
struct alignas(32) ThetaLanes {
  double t1[kSimdLanes];
  double t2[kSimdLanes];
  void reset() {
    for (int l = 0; l < kSimdLanes; ++l) t1[l] = t2[l] = 0.0;
  }
};

/// One chunk row's band: the voxel's true footprint [i0, i0 + n) inside
/// its chunk window (sv/chunks.h stores one per row; windows are at most
/// 255 wide).
struct RowBand {
  std::uint8_t i0;
  std::uint8_t n;
};

/// Lane groups a band-compact chunk row stores: the whole groups covering
/// [i0, i0 + n), i.e. window columns [i0 & ~7, roundUp8(i0 + n)); 0 when
/// n == 0.
inline int storedGroups(RowBand b) {
  if (b.n == 0) return 0;
  return (b.i0 + b.n + kSimdLanes - 1) / kSimdLanes - b.i0 / kSimdLanes;
}

/// Dispatch table of the lane-group row ops the engines' hot loops run on.
/// `n` is the row length in elements; rows need not be aligned (hot buffers
/// come from core/aligned.h, but ops tolerate any offset into them).
struct SimdOps {
  const char* name;  ///< "scalar" | "avx2" (recorded in reports/benches)

  /// Theta accumulation over a dense float A row:
  ///   m = double(w[i]) * double(a[i]);
  ///   acc.t1[i%8] -= m * double(e[i]);  acc.t2[i%8] += m * double(a[i]);
  void (*theta_row_f)(const float* a, const float* e, const float* w, int n,
                      ThetaLanes& acc);

  /// Error-SVB row update: e[i] -= a[i] * delta (float multiply/subtract).
  void (*err_row_f)(const float* a, float delta, float* e, int n);

  /// Whole-chunk ops for the transformed GPU-ICD layout (paper §4.1). A
  /// chunk is `rows` consecutive rows of one window of width `win`. The A
  /// rows are band-compact (sv/chunks.h): row r stores only the
  /// storedGroups(bands[r]) lane groups covering its band
  /// [i0, i1) = [bands[r].i0, bands[r].i0 + bands[r].n), i.e. window
  /// columns [i0 & ~7, roundUp8(i1)), zero-padded, and the rows are packed
  /// back to back from `a`/`q`. The SVB rows (`e`, `w` point at column 0 of
  /// the window in the chunk's first view) are `pitch` elements apart. Row
  /// r is processed exactly like a single window over the groups covering
  /// its band: [i0 & ~7, min(roundUp8(i1), win)), lane = window index mod
  /// 8, full groups vectorized, then a scalar tail only when the window
  /// ends mid-group. Rows run in order and the theta lane accumulators stay
  /// in registers across them, so a chunk call equals the loop of its
  /// one-row calls bit for bit. The W-wide layout held a == +0.0 outside
  /// the covering groups, so the compact rows give its bits exactly;
  /// processed zero-padded elements contribute +0.0 products identically
  /// on both paths.
  /// The quantized variants dequantize a = float(q[i]) * scale (uint8
  /// A-chunk rows, paper §4.3.1); err ops compute e[i] -= a * delta.
  /// Preconditions: i1 <= win for every row; every SVB row is readable
  /// (err: writable) over [0, win); the A rows hold
  /// 8 * sum(storedGroups(bands[r])) elements.
  void (*theta_chunk_f)(const float* a, const float* e, const float* w,
                        std::ptrdiff_t pitch, const RowBand* bands, int rows,
                        int win, ThetaLanes& acc);
  void (*theta_chunk_q)(const std::uint8_t* q, float scale, const float* e,
                        const float* w, std::ptrdiff_t pitch,
                        const RowBand* bands, int rows, int win,
                        ThetaLanes& acc);
  void (*err_chunk_f)(const float* a, float delta, float* e,
                      std::ptrdiff_t pitch, const RowBand* bands, int rows,
                      int win);
  void (*err_chunk_q)(const std::uint8_t* q, float scale, float delta,
                      float* e, std::ptrdiff_t pitch, const RowBand* bands,
                      int rows, int win);

  /// Writeback row: dst[i] += cur[i] - orig[i] (Svb::applyDeltaTo core).
  void (*apply_delta_row)(const float* cur, const float* orig, float* dst,
                          int n);

  /// Projection row: dst[i] += w[i] * xv (forward projector).
  void (*axpy_row)(const float* w, float xv, float* dst, int n);

  /// Lane-strided dot: acc[i%8] += double(w[i]) * double(s[i])
  /// (backprojector; acc has kSimdLanes doubles, carried across rows).
  void (*dot_row)(const float* w, const float* s, int n, double* acc);
};

/// The always-available scalar lane-group emulation.
const SimdOps& scalarSimdOps();

/// The AVX2/FMA table, or nullptr when the TU was built without AVX2
/// support or the host CPU lacks AVX2+FMA (core/cpufeat.h).
const SimdOps* avx2SimdOps();

/// Resolve a mode to a concrete table. kDefault resolves through the env
/// knob; kAvx2 throws mbir::Error when AVX2 is unavailable (kAuto falls
/// back to scalar silently).
const SimdOps& resolveSimdOps(SimdMode m);

/// Fixed-order lane reduction: ((((l0+l1)+l2)+...)+l7). The ONLY way lane
/// accumulators may be collapsed — element-order sums would break the
/// scalar/AVX2 bit-identity contract.
inline double reduceLanes(const double* lanes) {
  double s = lanes[0];
  for (int l = 1; l < kSimdLanes; ++l) s += lanes[l];
  return s;
}

}  // namespace mbir
