// Property tests for the lockstep kernels: the multi-right-hand-side
// Cholesky solves (linalg/solve.hpp), the multi-lane dot (linalg/kernels.hpp),
// the batched first FCLS round (Unmixer::full_set_solve) and the SAD
// expression the batched callers share (hsi::sad_from_dot).  Every lane must
// reproduce the scalar chain of its own output bit for bit, whatever the
// lane count and whichever lane of a group it lands in.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hsi/metrics.hpp"
#include "linalg/fcls.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vec.hpp"

namespace hprs::linalg {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The single-system substitution as written before the lockstep kernels
/// existed, frozen verbatim as the oracle.
void frozen_cholesky_solve(const double* l, std::size_t n, const double* b,
                           double* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l[k * n + ii] * y[k];
    y[ii] = s / l[ii * n + ii];
  }
}

/// A well-conditioned random SPD matrix, row-major n x n.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  Matrix spd = b.gram();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

std::vector<double> random_values(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(count);
  for (auto& x : v) x = rng.uniform(-3, 3);
  return v;
}

class SolveStripTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Dims, SolveStripTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 18u));

TEST_P(SolveStripTest, EveryRightHandSideMatchesItsOwnSolveBitwise) {
  // m covers full 8-lane groups, the 4-lane group and every remainder
  // width, so each lane position of each group width is exercised.
  const std::size_t n = GetParam();
  const Matrix spd = random_spd(n, 100 + n);
  std::vector<double> l(n * n, 0.0);
  cholesky_factor(spd.data().data(), n, l.data());
  for (std::size_t m = 1; m <= 15; ++m) {
    const std::vector<double> b = random_values(m * n, 7 * m + n);
    std::vector<double> y(m * n, 0.0);
    cholesky_solve_strip(l.data(), n, b.data(), m, y.data());
    for (std::size_t j = 0; j < m; ++j) {
      std::vector<double> want(n), single(n);
      frozen_cholesky_solve(l.data(), n, b.data() + j * n, want.data());
      cholesky_solve(l.data(), n, b.data() + j * n, single.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(y[j * n + i], want[i]))
            << "n=" << n << " m=" << m << " rhs " << j << " entry " << i;
        ASSERT_TRUE(same_bits(single[i], want[i]))
            << "n=" << n << " rhs " << j << " entry " << i;
      }
    }
  }
}

TEST_P(SolveStripTest, CholeskyStripMatchesSolveInto) {
  const std::size_t n = GetParam();
  const Cholesky chol(random_spd(n, 200 + n));
  const std::size_t m = 11;
  const std::vector<double> b = random_values(m * n, 300 + n);
  std::vector<double> y(m * n);
  chol.solve_strip_into(b, m, y);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double> want(n);
    chol.solve_into(std::span<const double>(b).subspan(j * n, n), want);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(y[j * n + i], want[i]))
          << "rhs " << j << " entry " << i;
    }
  }
}

TEST_P(SolveStripTest, PairMatchesTwoSingleSolves) {
  const std::size_t n = GetParam();
  const Matrix spd = random_spd(n, 400 + n);
  std::vector<double> l(n * n, 0.0);
  cholesky_factor(spd.data().data(), n, l.data());
  const std::vector<double> b0(n, 1.0);  // the FCLS subset's ones vector
  const std::vector<double> b1 = random_values(n, 500 + n);
  std::vector<double> y0(n), y1(n), w0(n), w1(n);
  cholesky_solve_pair(l.data(), n, b0.data(), b1.data(), y0.data(),
                      y1.data());
  frozen_cholesky_solve(l.data(), n, b0.data(), w0.data());
  frozen_cholesky_solve(l.data(), n, b1.data(), w1.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(y0[i], w0[i])) << "entry " << i;
    EXPECT_TRUE(same_bits(y1[i], w1[i])) << "entry " << i;
  }
}

TEST(SolveStripTest, StripSizeMismatchIsANamedError) {
  const Cholesky chol(random_spd(3, 1));
  std::vector<double> b(6), y(5);
  EXPECT_THROW(chol.solve_strip_into(b, 2, y), Error);
}

std::vector<float> random_spectrum(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(0.0, 1.0));
  return v;
}

TEST(DotLanesTest, EveryLaneMatchesTheScalarDotBitwise) {
  // k runs through every group decomposition (8, 4 and the 1-3 remainder);
  // the band counts include a length-1 chain and the AVIRIS 224.
  for (const std::size_t n : {1u, 7u, 48u, 224u}) {
    const std::vector<float> a = random_spectrum(n, 9 + n);
    std::vector<std::vector<float>> others;
    for (std::size_t j = 0; j < 17; ++j) {
      others.push_back(random_spectrum(n, 1000 * n + j));
    }
    std::vector<const float*> ptrs;
    for (const auto& o : others) ptrs.push_back(o.data());
    for (std::size_t k = 1; k <= others.size(); ++k) {
      std::vector<double> out(k, -1.0);
      dot_lanes(a.data(), ptrs.data(), k, n, out.data());
      for (std::size_t j = 0; j < k; ++j) {
        const double want = dot<float, float>(a, others[j]);
        ASSERT_TRUE(same_bits(out[j], want))
            << "n=" << n << " k=" << k << " lane " << j;
      }
    }
  }
}

TEST(DotLanesTest, ZeroLanesWritesNothing) {
  const std::vector<float> a = random_spectrum(5, 1);
  double sentinel = 42.0;
  dot_lanes(a.data(), nullptr, 0, a.size(), &sentinel);
  EXPECT_EQ(sentinel, 42.0);
}

/// sad() as written before it was factored through sad_from_dot, frozen
/// verbatim as the oracle.
double frozen_sad(std::span<const float> a, std::span<const float> b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) {
    return (na == 0.0 && nb == 0.0) ? 0.0 : std::acos(0.0);
  }
  const double c = dot(a, b) / (na * nb);
  return std::acos(std::clamp(c, -1.0, 1.0));
}

TEST(SadFromDotTest, MatchesTheFrozenSadIncludingZeroSpectra) {
  const std::vector<float> zero(9, 0.0f);
  const std::vector<float> x = random_spectrum(9, 3);
  const std::vector<float> y = random_spectrum(9, 4);
  for (const auto* a : {&zero, &x, &y}) {
    for (const auto* b : {&zero, &x, &y}) {
      const double want = frozen_sad(*a, *b);
      EXPECT_TRUE(same_bits(hsi::sad<float, float>(*a, *b), want));
      EXPECT_TRUE(same_bits(hsi::sad_from_dot(dot<float, float>(*a, *b),
                                              norm<float>(*a),
                                              norm<float>(*b)),
                            want));
    }
  }
  EXPECT_EQ(hsi::sad_from_dot(5.0, 0.0, 0.0), 0.0);
  EXPECT_EQ(hsi::sad_from_dot(5.0, 0.0, 1.0), std::acos(0.0));
}

TEST(FullSetSolveTest, BatchedFirstRoundMatchesPerPixelFcls) {
  // The UFCLS sweep solves the first active-set round for a group of
  // pixels at once and hands each its slice; abundances, error and
  // iteration count must match the per-pixel solve exactly, whether the
  // pixel then needs zero, one or several subset rounds.
  const std::size_t bands = 40;
  const std::size_t t = 6;
  Matrix em(t, bands);
  for (std::size_t e = 0; e < t; ++e) {
    for (std::size_t b = 0; b < bands; ++b) {
      const double x = static_cast<double>(b) / static_cast<double>(bands);
      const double k = static_cast<double>(e + 1);
      em(e, b) = 0.5 + 0.4 * std::cos(2.0 * k * x + 0.3 * k);
    }
  }
  const Unmixer unmixer(em);
  Xoshiro256 rng(77);
  const std::size_t m = 7;  // one 4-lane group plus a 3-lane remainder
  int clamped = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> corr(m * t), xx(m), au(m * t);
    for (std::size_t p = 0; p < m; ++p) {
      std::vector<float> px(bands);
      for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 1.2));
      for (std::size_t i = 0; i < t; ++i) {
        corr[p * t + i] = dot<double, float>(em.row(i), px);
      }
      xx[p] = norm_sq<float>(px);
    }
    unmixer.full_set_solve(corr, m, au);
    FclsScratch batched, single;
    for (std::size_t p = 0; p < m; ++p) {
      const std::span<const double> cp =
          std::span<const double>(corr).subspan(p * t, t);
      const FclsStats got = unmixer.fcls_with_corr(
          cp, xx[p], batched, std::span<const double>(au).subspan(p * t, t));
      const FclsStats want = unmixer.fcls_with_corr(cp, xx[p], single);
      ASSERT_EQ(got.iterations, want.iterations);
      ASSERT_TRUE(same_bits(got.error_sq, want.error_sq));
      for (std::size_t i = 0; i < t; ++i) {
        ASSERT_TRUE(same_bits(batched.abundances()[i],
                              single.abundances()[i]))
            << "trial " << trial << " pixel " << p << " endmember " << i;
      }
      clamped += want.iterations > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(clamped, 0) << "no pixel reached a subset round";
}

}  // namespace
}  // namespace hprs::linalg
