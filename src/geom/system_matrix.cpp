#include "geom/system_matrix.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/thread_pool.h"
#include "geom/footprint.h"

namespace mbir {

namespace {

/// Per-view constants reused across all voxels.
struct ViewSetup {
  TrapezoidProfile profile;
  double cos_th, sin_th;
};

std::vector<ViewSetup> makeViewSetups(const ParallelBeamGeometry& g) {
  std::vector<ViewSetup> setups;
  setups.reserve(std::size_t(g.num_views));
  for (int v = 0; v < g.num_views; ++v) {
    const double th = g.angle(v);
    setups.push_back({TrapezoidProfile(g.pixel_size_mm, th), std::cos(th), std::sin(th)});
  }
  return setups;
}

/// Channel interval [first, last] overlapped by the footprint centered at
/// channel-coordinate tc with half support hs (in channel units), clipped to
/// the detector. Returns count 0 when empty.
struct ChannelRange {
  int first = 0;
  int count = 0;
};

ChannelRange channelRange(double tc, double hs_channels, int num_channels) {
  int lo = int(std::ceil(tc - hs_channels - 0.5));
  int hi = int(std::floor(tc + hs_channels + 0.5));
  lo = std::max(lo, 0);
  hi = std::min(hi, num_channels - 1);
  if (hi < lo) return {};
  return {lo, hi - lo + 1};
}

// Entries smaller than this fraction of the profile height are dropped;
// they contribute nothing visible but would widen every run by a channel.
constexpr double kWeightCutoffFraction = 1e-6;

}  // namespace

SystemMatrix SystemMatrix::compute(const ParallelBeamGeometry& g,
                                   std::size_t plan_budget_bytes) {
  g.validate();
  SystemMatrix m;
  m.plan_store_ = OwnedPlanStore(plan_budget_bytes);
  m.geom_ = g;

  const auto setups = makeViewSetups(g);
  const int n = g.image_size;
  const int num_views = g.num_views;
  const std::size_t num_voxels = g.numVoxels();

  m.runs_.assign(num_voxels * std::size_t(num_views), Run{});
  m.voxel_max_.assign(num_voxels, 0.0f);

  // Pass 1: channel ranges and counts (cheap; no integrals).
  std::vector<std::uint32_t> voxel_nnz(num_voxels, 0);
  globalThreadPool().parallelFor(0, int(num_voxels), [&](int voxel) {
    const int row = voxel / n;
    const int col = voxel % n;
    const double x = g.pixelX(col);
    const double y = g.pixelY(row);
    std::uint32_t nnz = 0;
    for (int v = 0; v < num_views; ++v) {
      const ViewSetup& s = setups[std::size_t(v)];
      const double t_mm = x * s.cos_th + y * s.sin_th;
      const double tc = g.centerChannel() + t_mm / g.channel_spacing_mm;
      const double hs = s.profile.halfSupport() / g.channel_spacing_mm;
      const ChannelRange cr = channelRange(tc, hs, g.num_channels);
      Run& r = m.runs_[std::size_t(voxel) * std::size_t(num_views) + std::size_t(v)];
      r.first_channel = std::uint16_t(cr.first);
      r.count = std::uint16_t(cr.count);
      nnz += std::uint32_t(cr.count);
    }
    voxel_nnz[std::size_t(voxel)] = nnz;
  }, /*grain=*/256);

  // Prefix sum -> per-run offsets (voxel-major order).
  std::size_t total = 0;
  for (std::size_t voxel = 0; voxel < num_voxels; ++voxel) {
    std::uint32_t off = std::uint32_t(total);
    for (int v = 0; v < num_views; ++v) {
      Run& r = m.runs_[voxel * std::size_t(num_views) + std::size_t(v)];
      r.offset = off;
      off += r.count;
    }
    total += voxel_nnz[voxel];
    MBIR_CHECK_MSG(total <= UINT32_MAX, "A-matrix nnz exceeds uint32 offsets");
  }
  m.weights_.assign(total, 0.0f);

  // Pass 2: fill weights; track per-voxel max and global footprint width.
  std::vector<int> width_per_voxel(num_voxels, 0);
  globalThreadPool().parallelFor(0, int(num_voxels), [&](int voxel) {
    const int row = voxel / n;
    const int col = voxel % n;
    const double x = g.pixelX(col);
    const double y = g.pixelY(row);
    float vmax = 0.0f;
    int wmax = 0;
    for (int v = 0; v < num_views; ++v) {
      const ViewSetup& s = setups[std::size_t(v)];
      const double t_mm = x * s.cos_th + y * s.sin_th;
      const double tc = g.centerChannel() + t_mm / g.channel_spacing_mm;
      Run& r = m.runs_[std::size_t(voxel) * std::size_t(num_views) + std::size_t(v)];
      const double cutoff = s.profile.height() * kWeightCutoffFraction;
      int first_kept = -1, last_kept = -1;
      for (int k = 0; k < int(r.count); ++k) {
        const int ch = int(r.first_channel) + k;
        // Channel aperture [ch - 0.5, ch + 0.5] in channel units, converted
        // to mm offsets from the footprint center.
        const double u0 = (double(ch) - 0.5 - tc) * g.channel_spacing_mm;
        const double u1 = (double(ch) + 0.5 - tc) * g.channel_spacing_mm;
        const double a = s.profile.integral(u0, u1) / g.channel_spacing_mm;
        const float af = a <= cutoff ? 0.0f : float(a);
        m.weights_[r.offset + std::size_t(k)] = af;
        if (af > 0.0f) {
          if (first_kept < 0) first_kept = k;
          last_kept = k;
          vmax = std::max(vmax, af);
        }
      }
      // Trim leading/trailing zero channels from the run (weights stay where
      // they are; only the run window narrows).
      if (first_kept < 0) {
        r.count = 0;
      } else {
        r.offset += std::uint32_t(first_kept);
        r.first_channel = std::uint16_t(int(r.first_channel) + first_kept);
        r.count = std::uint16_t(last_kept - first_kept + 1);
      }
      wmax = std::max(wmax, int(r.count));
    }
    m.voxel_max_[std::size_t(voxel)] = vmax;
    width_per_voxel[std::size_t(voxel)] = wmax;
  }, /*grain=*/256);

  m.max_footprint_width_ =
      *std::max_element(width_per_voxel.begin(), width_per_voxel.end());
  for (const Run& r : m.runs_) m.nnz_ += r.count;
  return m;
}

std::span<const float> SystemMatrix::columnWeights(std::size_t voxel) const {
  // Column spans from the first run's offset to the last run's end. Runs of
  // a voxel are contiguous by construction (trimming only narrows windows).
  const Run& first = run(voxel, 0);
  const Run& last = run(voxel, numViews() - 1);
  const std::size_t begin = first.offset;
  const std::size_t end = last.offset + last.count;
  MBIR_CHECK(end >= begin && end <= weights_.size());
  return {weights_.data() + begin, end - begin};
}

double SystemMatrix::columnSumSquares(std::size_t voxel) const {
  double acc = 0.0;
  for (int v = 0; v < numViews(); ++v)
    for (float w : weights(voxel, v)) acc += double(w) * double(w);
  return acc;
}

}  // namespace mbir
