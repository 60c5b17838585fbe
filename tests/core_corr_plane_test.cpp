// The per-rank correlation plane of the ATDCA/UFCLS sweeps: incremental
// U^T x rows must be bitwise equal to per-pixel dot products at every
// round, the validity key must reset the plane on any change to the cube,
// the row range or a single bit of U, and the plane-reading sweeps must
// reproduce the per-pixel reference at every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "core/atdca.hpp"
#include "core/spmd_common.hpp"
#include "core/ufcls.hpp"
#include "linalg/fcls.hpp"
#include "linalg/kernels.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/vec.hpp"
#include "obs/metrics.hpp"
#include "simnet/platform.hpp"
#include "test_scenes.hpp"

namespace hprs::core {
namespace {

using detail::Candidate;
using detail::CorrPlane;

constexpr std::size_t kRounds = 18;

/// 30x21 pixels (ragged against dot_strip's 4-pixel groups), 48 bands,
/// six stripes plus ten planted anomalies: enough distinct spectra for 18
/// well-conditioned targets.
hsi::HsiCube scene() {
  hsi::HsiCube cube = testing::striped_cube(30, 21, 48, 6, 0.01, 11);
  (void)testing::plant_targets(cube, 10);
  return cube;
}

std::uint64_t counter(std::string_view name) {
  for (const auto& [key, value] : obs::Metrics::instance().snapshot()) {
    if (key == name) return value.count;
  }
  return 0;
}

/// Every held element equals the per-pixel dot product of the reference
/// kernels, bit for bit.
void expect_plane_exact(const CorrPlane& plane, const hsi::HsiCube& cube,
                        std::size_t row_begin, std::size_t row_end,
                        const linalg::Matrix& u) {
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const auto px = cube.pixel(r, c);
      ASSERT_EQ(plane.norm_sq(r, c), linalg::norm_sq(px)) << r << "," << c;
      const auto b = plane.corr(r, c);
      ASSERT_EQ(b.size(), u.rows());
      for (std::size_t i = 0; i < u.rows(); ++i) {
        ASSERT_EQ(b[i], (linalg::dot<double, float>(u.row(i), px)))
            << "pixel " << r << "," << c << " target " << i;
      }
    }
  }
}

void expect_same(const Candidate& a, const Candidate& b) {
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.col, b.col);
  EXPECT_EQ(a.score, b.score);
}

/// The first `t` target rows: distinct pixels from every stripe and plant.
linalg::Matrix some_targets(const hsi::HsiCube& cube, std::size_t t) {
  linalg::Matrix u;
  for (std::size_t i = 0; i < t; ++i) {
    u.append_row(detail::to_double(
        cube.pixel((i * 7) % cube.rows(), (i * 5) % cube.cols())));
  }
  return u;
}

TEST(CorrPlaneTest, OspSweepMatchesReferenceEveryRound) {
  const hsi::HsiCube cube = scene();
  linalg::Matrix u;
  u.append_row(detail::to_double(cube.pixel(0, 0)));
  CorrPlane plane;
  linalg::ScratchArena arena;
  for (std::size_t t = 1; t <= kRounds; ++t) {
    SCOPED_TRACE("round t = " + std::to_string(t));
    const linalg::Cholesky gram(detail::ridged_row_gram(u));
    plane.sync(cube, 0, cube.rows(), u, kRounds);
    expect_plane_exact(plane, cube, 0, cube.rows(), u);
    Candidate ref;
    Candidate fast;
    {
      const linalg::ScopedKernelPath path(true);
      ref = detail::osp_argmax_sweep(u, gram, cube, 0, cube.rows(), plane,
                                     arena);
    }
    fast = detail::osp_argmax_sweep(u, gram, cube, 0, cube.rows(), plane,
                                    arena);
    expect_same(ref, fast);
    u.append_row(detail::to_double(cube.pixel(ref.row, ref.col)));
  }
}

TEST(CorrPlaneTest, FclsSweepMatchesReferenceEveryRound) {
  const hsi::HsiCube cube = scene();
  linalg::Matrix u;
  u.append_row(detail::to_double(cube.pixel(0, 0)));
  CorrPlane plane;
  int clamped_rounds = 0;
  for (std::size_t t = 1; t <= kRounds; ++t) {
    SCOPED_TRACE("round t = " + std::to_string(t));
    const linalg::Unmixer unmixer(u);
    plane.sync(cube, 0, cube.rows(), u, kRounds);
    detail::ErrorSweepOut ref;
    {
      const linalg::ScopedKernelPath path(true);
      ref = detail::fcls_error_sweep(cube, u, unmixer, 0, cube.rows(), plane);
    }
    const detail::ErrorSweepOut fast =
        detail::fcls_error_sweep(cube, u, unmixer, 0, cube.rows(), plane);
    expect_same(ref.best, fast.best);
    EXPECT_EQ(ref.flops, fast.flops);
    // More flops than one active-set round per pixel: clamping happened.
    if (fast.flops > cube.pixel_count() *
                         linalg::flops::fcls(cube.bands(), t, 1)) {
      ++clamped_rounds;
    }
    u.append_row(detail::to_double(cube.pixel(ref.best.row, ref.best.col)));
  }
  EXPECT_GT(clamped_rounds, 0) << "the scene never exercised subset solves";
}

TEST(CorrPlaneTest, ComputesOnlyTheNewRowsEachRound) {
  const obs::ScopedMetrics metrics;
  const hsi::HsiCube cube = scene();
  const linalg::Matrix all = some_targets(cube, 6);
  CorrPlane plane;
  linalg::Matrix u;
  for (std::size_t t = 1; t <= all.rows(); ++t) {
    u.append_row(all.row(t - 1));
    plane.sync(cube, 0, cube.rows(), u, all.rows());
  }
  expect_plane_exact(plane, cube, 0, cube.rows(), u);
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 6u);
  EXPECT_EQ(counter("core.corr_plane.rows_reused"), 0u + 1 + 2 + 3 + 4 + 5);
  // Re-syncing to the same U recomputes nothing.
  plane.sync(cube, 0, cube.rows(), u, all.rows());
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 6u);
}

TEST(CorrPlaneTest, OneUlpChangeInUResetsTheRowsFromThere) {
  const obs::ScopedMetrics metrics;
  const hsi::HsiCube cube = scene();
  linalg::Matrix u = some_targets(cube, 5);
  CorrPlane plane;
  plane.sync(cube, 0, cube.rows(), u, 8);
  ASSERT_EQ(counter("core.corr_plane.rows_computed"), 5u);

  // One ULP in the first row: every row is recomputed.
  u(0, 3) = std::nextafter(u(0, 3), std::numeric_limits<double>::infinity());
  plane.sync(cube, 0, cube.rows(), u, 8);
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 10u);
  expect_plane_exact(plane, cube, 0, cube.rows(), u);

  // One ULP in the last row: only that row is recomputed.
  u(4, 0) = std::nextafter(u(4, 0), 0.0);
  plane.sync(cube, 0, cube.rows(), u, 8);
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 11u);
  EXPECT_EQ(counter("core.corr_plane.rows_reused"), 4u);
  expect_plane_exact(plane, cube, 0, cube.rows(), u);

  // A plane that no longer holds U is refused by the sweeps.
  const linalg::Matrix synced = u;
  u(2, 7) = -u(2, 7);
  const linalg::Cholesky gram(detail::ridged_row_gram(u));
  linalg::ScratchArena arena;
  EXPECT_FALSE(plane.holds(cube, 0, cube.rows(), u));
  EXPECT_TRUE(plane.holds(cube, 0, cube.rows(), synced));
  EXPECT_THROW((void)detail::osp_argmax_sweep(u, gram, cube, 0, cube.rows(),
                                              plane, arena),
               Error);
}

TEST(CorrPlaneTest, RowRangeCubeOrStrideChangeResets) {
  const obs::ScopedMetrics metrics;
  const hsi::HsiCube cube = scene();
  const linalg::Matrix u = some_targets(cube, 4);
  CorrPlane plane;
  plane.sync(cube, 0, cube.rows(), u, 4);
  ASSERT_EQ(counter("core.corr_plane.rows_computed"), 4u);

  plane.sync(cube, 3, 11, u, 4);
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 8u);
  expect_plane_exact(plane, cube, 3, 11, u);
  EXPECT_TRUE(plane.holds(cube, 5, 9, u));
  EXPECT_FALSE(plane.holds(cube, 0, 9, u));

  // Same shape, different samples: a different cube.
  hsi::HsiCube other = cube;
  other.pixel(4, 2)[0] += 0.5f;
  EXPECT_FALSE(plane.holds(other, 3, 11, u));
  plane.sync(other, 3, 11, u, 4);
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 12u);
  expect_plane_exact(plane, other, 3, 11, u);

  plane.sync(other, 3, 11, u, 6);
  EXPECT_EQ(counter("core.corr_plane.rows_computed"), 16u);
  expect_plane_exact(plane, other, 3, 11, u);
  EXPECT_EQ(counter("core.corr_plane.rows_reused"), 0u);
}

TEST(CorrPlaneTest, RejectsMoreTargetsThanTheStride) {
  const hsi::HsiCube cube = scene();
  CorrPlane plane;
  EXPECT_THROW(plane.sync(cube, 0, cube.rows(), some_targets(cube, 5), 4),
               Error);
  EXPECT_THROW(plane.sync(cube, 0, cube.rows() + 1, some_targets(cube, 2), 4),
               Error);
}

TEST(CorrPlaneTest, KernelThreadCountCannotChangeTheSweeps) {
  const hsi::HsiCube cube = scene();
  const linalg::Matrix u = some_targets(cube, 9);
  const linalg::Cholesky gram(detail::ridged_row_gram(u));
  const linalg::Unmixer unmixer(u);
  Candidate osp[2];
  detail::ErrorSweepOut fcls[2];
  const std::size_t threads[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    const linalg::ScopedKernelThreads scoped(threads[k]);
    CorrPlane plane;
    plane.sync(cube, 0, cube.rows(), u, u.rows());
    linalg::ScratchArena arena;
    osp[k] = detail::osp_argmax_sweep(u, gram, cube, 0, cube.rows(), plane,
                                      arena);
    fcls[k] = detail::fcls_error_sweep(cube, u, unmixer, 0, cube.rows(), plane);
  }
  expect_same(osp[0], osp[1]);
  expect_same(fcls[0].best, fcls[1].best);
  EXPECT_EQ(fcls[0].flops, fcls[1].flops);
}

TEST(CorrPlaneTest, KernelThreadCountCannotChangeTheRuns) {
  const hsi::HsiCube cube = scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  AtdcaConfig acfg;
  acfg.targets = kRounds;
  UfclsConfig ucfg;
  ucfg.targets = kRounds;
  TargetDetectionResult atdca[2];
  TargetDetectionResult ufcls[2];
  const std::size_t threads[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    const linalg::ScopedKernelThreads scoped(threads[k]);
    atdca[k] = run_atdca(platform, cube, acfg);
    ufcls[k] = run_ufcls(platform, cube, ucfg);
  }
  EXPECT_EQ(atdca[0].targets, atdca[1].targets);
  EXPECT_EQ(atdca[0].report.total_time, atdca[1].report.total_time);
  EXPECT_EQ(ufcls[0].targets, ufcls[1].targets);
  EXPECT_EQ(ufcls[0].report.total_time, ufcls[1].report.total_time);
}

TEST(CorrPlaneTest, FaultTolerantRunsFindTheSameTargets) {
  const hsi::HsiCube cube = scene();
  const simnet::Platform platform = simnet::fully_heterogeneous();
  AtdcaConfig acfg;
  acfg.targets = kRounds;
  UfclsConfig ucfg;
  ucfg.targets = kRounds;
  const TargetDetectionResult atdca_plain = run_atdca(platform, cube, acfg);
  const TargetDetectionResult ufcls_plain = run_ufcls(platform, cube, ucfg);
  acfg.fault_tolerant = true;
  ucfg.fault_tolerant = true;
  EXPECT_EQ(run_atdca(platform, cube, acfg).targets, atdca_plain.targets);
  EXPECT_EQ(run_ufcls(platform, cube, ucfg).targets, ufcls_plain.targets);
}

}  // namespace
}  // namespace hprs::core
