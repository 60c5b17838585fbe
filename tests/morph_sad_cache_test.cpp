// Property tests for the MORPH SAD-cache fast path: two engines run the
// same block, one on the scalar reference pass and one on the cached-plane
// pass, and every iteration's working image and MEI scores must match bit
// for bit.  Radii 0-3 and block shapes smaller than, equal to, and larger
// than the structuring element exercise all window-clamping cases (and so
// every count of in-bounds neighbours the batched plane fill sees).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/morph_kernel.hpp"
#include "hsi/cube.hpp"
#include "linalg/kernels.hpp"
#include "linalg/thread_pool.hpp"

namespace hprs {
namespace {

hsi::HsiCube random_cube(std::size_t rows, std::size_t cols,
                         std::size_t bands, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> samples(rows * cols * bands);
  for (auto& v : samples) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return hsi::HsiCube(rows, cols, bands, std::move(samples));
}

// (rows, cols, radius)
using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;

class MorphSadCacheTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, MorphSadCacheTest,
    ::testing::Values(Shape{1, 1, 1},    // degenerate single pixel
                      Shape{4, 5, 0},    // radius 0: self term only
                      Shape{1, 6, 2},    // one row, narrower than window
                      Shape{6, 1, 3},    // one column, narrower than window
                      Shape{3, 2, 3},    // block inside the window
                      Shape{2, 7, 1},    // fewer rows than the window
                      Shape{7, 2, 2},    // fewer cols than the window
                      Shape{5, 5, 2},    // block == window
                      Shape{9, 8, 1},    // generic interior + borders
                      Shape{8, 9, 2},    //
                      Shape{11, 7, 3},   // radius 3, odd sizes
                      Shape{7, 11, 3}));

TEST_P(MorphSadCacheTest, ImageAndMeiBitIdenticalAcrossIterations) {
  const auto [rows, cols, radius] = GetParam();
  const std::size_t bands = 17;
  const std::size_t iterations = 3;
  const hsi::HsiCube block = random_cube(rows, cols, bands, 42 + rows * cols);

  core::MorphBlockEngine ref_engine(block, radius);
  core::MorphBlockEngine fast_engine(block, radius);

  for (std::size_t it = 0; it < iterations; ++it) {
    const bool last = it + 1 == iterations;
    {
      const linalg::ScopedKernelPath path(true);
      ref_engine.iterate(last);
    }
    {
      const linalg::ScopedKernelPath path(false);
      fast_engine.iterate(last);
    }

    const auto ref_img = ref_engine.image().samples();
    const auto fast_img = fast_engine.image().samples();
    ASSERT_EQ(ref_img.size(), fast_img.size());
    for (std::size_t s = 0; s < ref_img.size(); ++s) {
      ASSERT_EQ(ref_img[s], fast_img[s])
          << "image sample " << s << " after iteration " << it;
    }

    const auto& ref_mei = ref_engine.mei();
    const auto& fast_mei = fast_engine.mei();
    ASSERT_EQ(ref_mei.size(), fast_mei.size());
    for (std::size_t p = 0; p < ref_mei.size(); ++p) {
      ASSERT_EQ(ref_mei[p], fast_mei[p])
          << "MEI at pixel " << p << " after iteration " << it;
    }
  }
}

TEST_P(MorphSadCacheTest, MeiIsMonotoneNonDecreasing) {
  // The engine keeps a running max; iterating more must never lower it.
  const auto [rows, cols, radius] = GetParam();
  const hsi::HsiCube block = random_cube(rows, cols, 9, 7 + rows + cols);
  core::MorphBlockEngine engine(block, radius);
  engine.iterate(false);
  const std::vector<double> first = engine.mei();
  engine.iterate(true);
  const auto& second = engine.mei();
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_GE(second[p], first[p]) << "pixel " << p;
  }
}

TEST_P(MorphSadCacheTest, KernelThreadCountCannotPerturbTheFastPath) {
  // The SAD planes are filled pixel-major with rows owned per kernel
  // thread; the result must not depend on the owner count.
  const auto [rows, cols, radius] = GetParam();
  const hsi::HsiCube block = random_cube(rows, cols, 13, 5 + rows * cols);
  const linalg::ScopedKernelPath path(false);
  core::MorphBlockEngine one(block, radius);
  core::MorphBlockEngine four(block, radius);
  for (std::size_t it = 0; it < 2; ++it) {
    {
      const linalg::ScopedKernelThreads threads(1);
      one.iterate(it == 1);
    }
    {
      const linalg::ScopedKernelThreads threads(4);
      four.iterate(it == 1);
    }
    ASSERT_EQ(one.mei(), four.mei()) << "iteration " << it;
    const auto a = one.image().samples();
    const auto b = four.image().samples();
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "iteration " << it;
  }
}

class MorphZeroPixelTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Radii, MorphZeroPixelTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST_P(MorphZeroPixelTest, ZeroPixelsInEveryLanePositionMatchReference) {
  // Zero spectra hit sad()'s special cases: a corner, an interior pixel and
  // a horizontally adjacent pair, so the zero operands land both as the
  // centre and in several lanes of the batched neighbour dots.
  const std::size_t radius = GetParam();
  const std::size_t rows = 7;
  const std::size_t cols = 8;
  hsi::HsiCube block = random_cube(rows, cols, 11, 31 + radius);
  for (const std::size_t p : {0u, 19u, 36u, 37u}) {
    for (auto& v : block.pixel(p)) v = 0.0f;
  }
  core::MorphBlockEngine ref_engine(block, radius);
  core::MorphBlockEngine fast_engine(block, radius);
  for (std::size_t it = 0; it < 2; ++it) {
    {
      const linalg::ScopedKernelPath path(true);
      ref_engine.iterate(it == 1);
    }
    {
      const linalg::ScopedKernelPath path(false);
      fast_engine.iterate(it == 1);
    }
    const auto& ref_mei = ref_engine.mei();
    const auto& fast_mei = fast_engine.mei();
    for (std::size_t p = 0; p < ref_mei.size(); ++p) {
      ASSERT_EQ(ref_mei[p], fast_mei[p]) << "pixel " << p << " it " << it;
    }
    const auto ref_img = ref_engine.image().samples();
    const auto fast_img = fast_engine.image().samples();
    ASSERT_TRUE(std::equal(ref_img.begin(), ref_img.end(), fast_img.begin(),
                           fast_img.end()))
        << "iteration " << it;
  }
}

TEST(MorphSadCacheTest, ZeroPixelHandledLikeReference) {
  // Degenerate all-zero spectra hit sad()'s special cases; the cached
  // self-SAD and plane values must reproduce them exactly.
  hsi::HsiCube block(3, 3, 5);
  // Leave pixel (1, 1) zero; fill the rest.
  Xoshiro256 rng(11);
  for (std::size_t p = 0; p < 9; ++p) {
    if (p == 4) continue;
    for (auto& v : block.pixel(p)) {
      v = static_cast<float>(rng.uniform(0.1, 1.0));
    }
  }
  core::MorphBlockEngine ref_engine(block, 1);
  core::MorphBlockEngine fast_engine(block, 1);
  {
    const linalg::ScopedKernelPath path(true);
    ref_engine.iterate(false);
  }
  {
    const linalg::ScopedKernelPath path(false);
    fast_engine.iterate(false);
  }
  const auto& ref_mei = ref_engine.mei();
  const auto& fast_mei = fast_engine.mei();
  for (std::size_t p = 0; p < ref_mei.size(); ++p) {
    EXPECT_EQ(ref_mei[p], fast_mei[p]) << "pixel " << p;
  }
  const auto ref_img = ref_engine.image().samples();
  const auto fast_img = fast_engine.image().samples();
  for (std::size_t s = 0; s < ref_img.size(); ++s) {
    EXPECT_EQ(ref_img[s], fast_img[s]) << "sample " << s;
  }
}

}  // namespace
}  // namespace hprs
