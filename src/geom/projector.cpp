#include "geom/projector.h"

#include <algorithm>

#include "core/error.h"
#include "core/simd.h"
#include "core/thread_pool.h"

namespace mbir {

Sinogram forwardProject(const SystemMatrix& A, const Image2D& x) {
  MBIR_CHECK(std::size_t(x.size()) * std::size_t(x.size()) == A.numVoxels());
  // Row loops run on the env-selected lane-group path (GPUMBIR_SIMD).
  // axpy is elementwise, so path selection cannot change the result bits.
  const SimdOps& ops = resolveSimdOps(SimdMode::kDefault);
  Sinogram y(A.numViews(), A.numChannels());
  auto ys = y.flat();
  const int num_channels = A.numChannels();
  // One contiguous view range per pool thread. A sinogram row belongs to
  // one range, and its thread walks the voxels in order, so every element
  // sums its voxels in voxel order whatever the thread count.
  ThreadPool& pool = globalThreadPool();
  const int V = A.numViews();
  const int parts = std::min(int(pool.size()), V);
  pool.parallelFor(0, parts, [&](int p) {
    const int v0 = V * p / parts;
    const int v1 = V * (p + 1) / parts;
    for (std::size_t voxel = 0; voxel < A.numVoxels(); ++voxel) {
      const float xv = x[voxel];
      if (xv == 0.0f) continue;
      for (int v = v0; v < v1; ++v) {
        const SystemMatrix::Run& r = A.run(voxel, v);
        const auto w = A.weights(voxel, v);
        float* dst = ys.data() + std::size_t(v) * std::size_t(num_channels) +
                     r.first_channel;
        ops.axpy_row(w.data(), xv, dst, int(w.size()));
      }
    }
  });
  return y;
}

Image2D backProject(const SystemMatrix& A, const Sinogram& s) {
  MBIR_CHECK(s.views() == A.numViews() && s.channels() == A.numChannels());
  // Lane-strided accumulation (element i of a footprint row to lane i mod
  // kSimdLanes, lanes carried across views, fixed-order reduction) — the
  // canonical lane-group semantics, identical bits on every path.
  const SimdOps& ops = resolveSimdOps(SimdMode::kDefault);
  Image2D x(A.geometry().image_size);
  auto xs = x.flat();
  const int num_channels = A.numChannels();
  auto ss = s.flat();
  globalThreadPool().parallelFor(0, int(A.numVoxels()), [&](int voxel) {
    alignas(32) double acc[kSimdLanes] = {};
    for (int v = 0; v < A.numViews(); ++v) {
      const SystemMatrix::Run& r = A.run(std::size_t(voxel), v);
      const auto w = A.weights(std::size_t(voxel), v);
      const float* src =
          ss.data() + std::size_t(v) * std::size_t(num_channels) + r.first_channel;
      ops.dot_row(w.data(), src, int(w.size()), acc);
    }
    xs[std::size_t(voxel)] = float(reduceLanes(acc));
  }, /*grain=*/256);
  return x;
}

Sinogram errorSinogram(const SystemMatrix& A, const Sinogram& y, const Image2D& x) {
  Sinogram e = forwardProject(A, x);
  MBIR_CHECK(e.sameShape(y));
  auto ef = e.flat();
  auto yf = y.flat();
  for (std::size_t i = 0; i < ef.size(); ++i) ef[i] = yf[i] - ef[i];
  return e;
}

double innerProductSino(const Sinogram& a, const Sinogram& b) {
  MBIR_CHECK(a.sameShape(b));
  double acc = 0.0;
  auto af = a.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < af.size(); ++i) acc += double(af[i]) * double(bf[i]);
  return acc;
}

}  // namespace mbir
