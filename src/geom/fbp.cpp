#include "geom/fbp.h"

#include <cmath>
#include <numbers>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"

namespace mbir {

namespace {

/// Discrete Ram-Lak (ramp) convolution kernel, Kak & Slaney eq. 61:
/// h[0] = 1/(4 d^2), h[n] = 0 for even n, h[n] = -1/(pi^2 n^2 d^2) for odd n,
/// where d is the channel spacing.
std::vector<double> rampKernel(int num_channels, double spacing) {
  std::vector<double> h(std::size_t(num_channels), 0.0);
  const double d2 = spacing * spacing;
  h[0] = 1.0 / (4.0 * d2);
  for (int n = 1; n < num_channels; n += 2)
    h[std::size_t(n)] = -1.0 / (std::numbers::pi * std::numbers::pi * double(n) * double(n) * d2);
  return h;
}

}  // namespace

Image2D fbpReconstruct(const Sinogram& y, const ParallelBeamGeometry& g,
                       const FbpOptions& opt) {
  g.validate();
  MBIR_CHECK(y.views() == g.num_views && y.channels() == g.num_channels);

  const int V = g.num_views;
  const int C = g.num_channels;
  const auto h = rampKernel(C, g.channel_spacing_mm);

  // Filter every view row by direct convolution (O(V C^2); fine at the
  // sizes this library targets, and it keeps the module dependency-free).
  std::vector<float> filtered(std::size_t(V) * std::size_t(C));
  globalThreadPool().parallelFor(0, V, [&](int v) {
    const auto row = y.row(v);
    float* dst = filtered.data() + std::size_t(v) * std::size_t(C);
    for (int c = 0; c < C; ++c) {
      double acc = 0.0;
      for (int k = 0; k < C; ++k)
        acc += double(row[std::size_t(k)]) * h[std::size_t(std::abs(c - k))];
      dst[c] = float(acc * g.channel_spacing_mm);
    }
  }, /*grain=*/4);

  // Backproject with linear interpolation over channels. Each view's
  // cos/sin come from a table built once; the channel is then computed
  // with projectToChannel's expression, so every pixel keeps its bits.
  Image2D img(g.image_size);
  const double scale = g.angle_range_rad / double(V);
  const double fov = g.fieldOfViewRadius();
  const double center = g.centerChannel();
  std::vector<double> cos_v(static_cast<std::size_t>(V));
  std::vector<double> sin_v(static_cast<std::size_t>(V));
  for (int v = 0; v < V; ++v) {
    const double th = g.angle(v);
    cos_v[std::size_t(v)] = std::cos(th);
    sin_v[std::size_t(v)] = std::sin(th);
  }

  globalThreadPool().parallelFor(0, g.image_size, [&](int row) {
    for (int col = 0; col < g.image_size; ++col) {
      const double x = g.pixelX(col);
      const double yy = g.pixelY(row);
      if (opt.mask_fov && x * x + yy * yy > fov * fov) {
        img(row, col) = 0.0f;
        continue;
      }
      double acc = 0.0;
      for (int v = 0; v < V; ++v) {
        const double t =
            x * cos_v[std::size_t(v)] + yy * sin_v[std::size_t(v)];
        const double tc = center + t / g.channel_spacing_mm;
        const int c0 = int(std::floor(tc));
        if (c0 < 0 || c0 + 1 >= C) continue;
        const double frac = tc - double(c0);
        const float* f = filtered.data() + std::size_t(v) * std::size_t(C);
        acc += double(f[c0]) * (1.0 - frac) + double(f[c0 + 1]) * frac;
      }
      double val = acc * scale;
      if (opt.clamp_nonnegative && val < 0.0) val = 0.0;
      img(row, col) = float(val);
    }
  }, /*grain=*/4);
  return img;
}

}  // namespace mbir
