// Tests for geometry, footprints, sinogram/image containers, and FBP.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "core/error.h"
#include "geom/fbp.h"
#include "geom/footprint.h"
#include "geom/geometry.h"
#include "geom/image.h"
#include "geom/sinogram.h"
#include "phantom/analytic_projection.h"
#include "phantom/ellipse.h"
#include "test_util.h"

namespace mbir {
namespace {

TEST(Geometry, ValidateAcceptsPresets) {
  EXPECT_NO_THROW(paperScaleGeometry().validate());
  EXPECT_NO_THROW(benchScaleGeometry().validate());
  EXPECT_NO_THROW(testScaleGeometry().validate());
}

TEST(Geometry, ValidateRejectsBadFields) {
  ParallelBeamGeometry g = testScaleGeometry();
  g.num_views = 0;
  EXPECT_THROW(g.validate(), Error);
  g = testScaleGeometry();
  g.pixel_size_mm = -1;
  EXPECT_THROW(g.validate(), Error);
  g = testScaleGeometry();
  g.image_size = 1;
  EXPECT_THROW(g.validate(), Error);
}

TEST(Geometry, AnglesUniformOverHalfTurn) {
  const auto g = testScaleGeometry();
  EXPECT_DOUBLE_EQ(g.angle(0), 0.0);
  const double step = g.angle(1) - g.angle(0);
  EXPECT_NEAR(step * g.num_views, std::numbers::pi, 1e-12);
}

TEST(Geometry, CenterPixelProjectsToCenterChannel) {
  auto g = testScaleGeometry();
  g.image_size = 33;  // odd: (16,16) is exactly the rotation center
  for (int v = 0; v < g.num_views; v += 7) {
    EXPECT_NEAR(g.projectToChannel(0.0, 0.0, v), g.centerChannel(), 1e-12);
  }
}

TEST(Geometry, PixelCoordinatesAreCentered) {
  const auto g = testScaleGeometry();  // 32x32
  EXPECT_NEAR(g.pixelX(0) + g.pixelX(g.image_size - 1), 0.0, 1e-12);
  EXPECT_NEAR(g.pixelY(0) + g.pixelY(g.image_size - 1), 0.0, 1e-12);
  EXPECT_GT(g.pixelY(0), g.pixelY(1));  // y decreases with row
  EXPECT_LT(g.pixelX(0), g.pixelX(1));  // x increases with col
}

TEST(Geometry, FovRadius) {
  const auto g = testScaleGeometry();
  EXPECT_NEAR(g.fieldOfViewRadius(), 31.5 * 0.5, 1e-12);
}

class TrapezoidParam : public ::testing::TestWithParam<double> {};

TEST_P(TrapezoidParam, IntegralEqualsPixelArea) {
  const double p = 0.8;
  TrapezoidProfile t(p, GetParam());
  EXPECT_NEAR(t.integral(-10.0, 10.0), p * p, 1e-9);
}

TEST_P(TrapezoidParam, ValueMatchesNumericDerivativeOfCumulative) {
  TrapezoidProfile t(1.0, GetParam());
  for (double u = -1.2; u <= 1.2; u += 0.07) {
    // Skip the kinks (and, for axis-aligned angles, jumps) of the profile.
    if (std::abs(std::abs(u) - t.halfSupport()) < 0.02 ||
        std::abs(std::abs(u) - t.halfFlat()) < 0.02)
      continue;
    const double h = 1e-6;
    const double numeric = t.integral(u - h, u + h) / (2 * h);
    EXPECT_NEAR(numeric, t.value(u), 1e-4) << "u=" << u;
  }
}

TEST_P(TrapezoidParam, SymmetricProfile) {
  TrapezoidProfile t(0.8, GetParam());
  for (double u : {0.1, 0.3, 0.55, 0.9})
    EXPECT_DOUBLE_EQ(t.value(u), t.value(-u));
}

INSTANTIATE_TEST_SUITE_P(Angles, TrapezoidParam,
                         ::testing::Values(0.0, 0.2, std::numbers::pi / 4,
                                           1.0, std::numbers::pi / 2, 2.5,
                                           std::numbers::pi));

TEST(Trapezoid, AxisAlignedIsBox) {
  // theta = 0: shadow is a box of width p, height p.
  TrapezoidProfile t(0.8, 0.0);
  EXPECT_NEAR(t.value(0.0), 0.8, 1e-12);
  EXPECT_NEAR(t.value(0.39), 0.8, 1e-9);
  EXPECT_NEAR(t.value(0.41), 0.0, 1e-9);
}

TEST(Trapezoid, DiagonalIsTriangle) {
  // theta = 45 deg: flat top collapses; peak chord = p * sqrt(2).
  TrapezoidProfile t(1.0, std::numbers::pi / 4);
  EXPECT_NEAR(t.halfFlat(), 0.0, 1e-12);
  EXPECT_NEAR(t.value(0.0), std::sqrt(2.0), 1e-9);
}

TEST(Sinogram, IndexingAndBounds) {
  Sinogram s(4, 8);
  s.at(3, 7) = 2.5f;
  EXPECT_EQ(s(3, 7), 2.5f);
  EXPECT_THROW(s.at(4, 0), Error);
  EXPECT_THROW(s.at(0, 8), Error);
  EXPECT_EQ(s.row(3)[7], 2.5f);
}

TEST(Sinogram, WeightedSumSquares) {
  Sinogram s(2, 2), w(2, 2);
  s(0, 0) = 2.0f;
  w(0, 0) = 3.0f;
  s(1, 1) = 1.0f;
  w(1, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(s.weightedSumSquares(w), 3 * 4 + 4 * 1);
  EXPECT_DOUBLE_EQ(s.sumSquares(), 5.0);
}

TEST(Image2D, RmsDiff) {
  Image2D a(4), b(4);
  b(0, 0) = 4.0f;
  EXPECT_DOUBLE_EQ(a.rmsDiff(b), std::sqrt(16.0 / 16.0));
}

TEST(Image2D, FlatIndexMatches2D) {
  Image2D img(8);
  img(3, 5) = 9.0f;
  EXPECT_EQ(img[3 * 8 + 5], 9.0f);
}

TEST(ImageStack, IndependentSlices) {
  ImageStack stack(3, 16);
  stack.slice(1)(0, 0) = 5.0f;
  EXPECT_EQ(stack.slice(0)(0, 0), 0.0f);
  EXPECT_EQ(stack.slice(1)(0, 0), 5.0f);
  EXPECT_EQ(stack.numSlices(), 3);
}

TEST(Fbp, RecoversUniformCylinder) {
  const auto g = test::smallGeometry();
  EllipsePhantom phantom;
  phantom.ellipses.push_back(
      {0.0, 0.0, 10.0, 10.0, 0.0, 0.02});  // 10mm disc, mu = 0.02/mm
  const Sinogram y = analyticProject(phantom, g);
  const Image2D img = fbpReconstruct(y, g);
  // Center value within 15% of true attenuation.
  const int c = g.image_size / 2;
  EXPECT_NEAR(img(c, c), 0.02f, 0.003f);
  // Far outside the disc: close to zero.
  EXPECT_NEAR(img(2, c), 0.0f, 0.004f);
}

TEST(Fbp, NonNegativeByDefault) {
  const auto g = test::tinyGeometry();
  EllipsePhantom phantom;
  phantom.ellipses.push_back({0.0, 0.0, 6.0, 4.0, 0.3, 0.02});
  const Image2D img = fbpReconstruct(analyticProject(phantom, g), g);
  for (float v : img.flat()) EXPECT_GE(v, 0.0f);
}

TEST(Fbp, MaskedOutsideFov) {
  const auto g = test::tinyGeometry();
  EllipsePhantom phantom;
  phantom.ellipses.push_back({0.0, 0.0, 6.0, 6.0, 0.0, 0.02});
  const Image2D img = fbpReconstruct(analyticProject(phantom, g), g);
  EXPECT_EQ(img(0, 0), 0.0f);  // corner is outside the FOV circle
}

// fbpReconstruct as it was before its per-view cos/sin table: the channel
// of every pixel and view comes from projectToChannel.
Image2D referenceFbp(const Sinogram& y, const ParallelBeamGeometry& g,
                     const FbpOptions& opt) {
  const int V = g.num_views;
  const int C = g.num_channels;
  std::vector<double> h(std::size_t(C), 0.0);
  const double d2 = g.channel_spacing_mm * g.channel_spacing_mm;
  h[0] = 1.0 / (4.0 * d2);
  for (int n = 1; n < C; n += 2)
    h[std::size_t(n)] = -1.0 / (std::numbers::pi * std::numbers::pi *
                                double(n) * double(n) * d2);
  std::vector<float> filtered(std::size_t(V) * std::size_t(C));
  for (int v = 0; v < V; ++v) {
    const auto row = y.row(v);
    for (int c = 0; c < C; ++c) {
      double acc = 0.0;
      for (int k = 0; k < C; ++k)
        acc += double(row[std::size_t(k)]) * h[std::size_t(std::abs(c - k))];
      filtered[std::size_t(v) * std::size_t(C) + std::size_t(c)] =
          float(acc * g.channel_spacing_mm);
    }
  }
  Image2D img(g.image_size);
  const double scale = g.angle_range_rad / double(V);
  const double fov = g.fieldOfViewRadius();
  for (int row = 0; row < g.image_size; ++row) {
    for (int col = 0; col < g.image_size; ++col) {
      const double x = g.pixelX(col);
      const double yy = g.pixelY(row);
      if (opt.mask_fov && x * x + yy * yy > fov * fov) {
        img(row, col) = 0.0f;
        continue;
      }
      double acc = 0.0;
      for (int v = 0; v < V; ++v) {
        const double tc = g.projectToChannel(x, yy, v);
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
  }
  return img;
}

void expectSameBits(const Image2D& a, const Image2D& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.flat().data(), b.flat().data(),
                           a.flat().size() * sizeof(float)));
}

TEST(Fbp, ViewTableEqualsProjectToChannelBitForBit) {
  const OwnedProblem& tiny = test::tinyProblem();
  expectSameBits(fbpReconstruct(tiny.scan().y, tiny.geometry()),
                 referenceFbp(tiny.scan().y, tiny.geometry(), {}));

  // Views, channels and image side all differ, the detector is off-centre
  // relative to the image grid, and every pixel is kept unclamped.
  ParallelBeamGeometry g;
  g.num_views = 37;
  g.num_channels = 61;
  g.image_size = 20;
  g.pixel_size_mm = 0.9;
  g.channel_spacing_mm = 0.55;
  EllipsePhantom phantom;
  phantom.ellipses.push_back({1.5, -2.0, 5.0, 3.0, 0.7, 0.02});
  const Sinogram y = analyticProject(phantom, g);
  for (const FbpOptions opt : {FbpOptions{}, FbpOptions{false, false}})
    expectSameBits(fbpReconstruct(y, g, opt), referenceFbp(y, g, opt));
}

}  // namespace
}  // namespace mbir
