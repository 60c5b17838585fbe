#include "linalg/fcls.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/vec.hpp"

namespace hprs::linalg {
namespace {

/// Three well-separated synthetic endmembers on `bands` channels.
Matrix test_endmembers(std::size_t bands) {
  Matrix m(3, bands);
  for (std::size_t b = 0; b < bands; ++b) {
    const double x = static_cast<double>(b) / static_cast<double>(bands - 1);
    m(0, b) = 0.2 + 0.6 * x;                    // upward slope
    m(1, b) = 0.8 - 0.6 * x;                    // downward slope
    m(2, b) = 0.5 + 0.4 * std::sin(6.28 * x);   // oscillating
  }
  return m;
}

std::vector<float> mix(const Matrix& endmembers,
                       std::span<const double> abundances) {
  std::vector<float> px(endmembers.cols(), 0.0f);
  for (std::size_t e = 0; e < endmembers.rows(); ++e) {
    for (std::size_t b = 0; b < endmembers.cols(); ++b) {
      px[b] += static_cast<float>(abundances[e] * endmembers(e, b));
    }
  }
  return px;
}

TEST(UnmixerTest, ConstructionRequiresEndmembers) {
  EXPECT_THROW(Unmixer{Matrix()}, Error);
}

TEST(UnmixerTest, RejectsPixelOfWrongLength) {
  const Unmixer u(test_endmembers(16));
  EXPECT_THROW((void)u.fcls(std::vector<float>(8, 0.0f)), Error);
}

TEST(UnmixerTest, UclsRecoversExactMixture) {
  const Matrix em = test_endmembers(32);
  const Unmixer u(em);
  const std::vector<double> truth = {0.5, 0.3, 0.2};
  const auto r = u.ucls(mix(em, truth));
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_NEAR(r.abundances[e], truth[e], 1e-5);
  }
  EXPECT_NEAR(r.error_sq, 0.0, 1e-8);
}

TEST(UnmixerTest, SclsEnforcesSumToOne) {
  const Matrix em = test_endmembers(32);
  const Unmixer u(em);
  Xoshiro256 rng(4);
  std::vector<float> px(32);
  for (auto& v : px) v = static_cast<float>(rng.uniform(0.0, 1.0));
  const auto r = u.scls(px);
  const double sum =
      std::accumulate(r.abundances.begin(), r.abundances.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(UnmixerTest, FclsEnforcesBothConstraints) {
  const Matrix em = test_endmembers(32);
  const Unmixer u(em);
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> px(32);
    for (auto& v : px) v = static_cast<float>(rng.uniform(0.0, 1.2));
    const auto r = u.fcls(px);
    double sum = 0.0;
    for (double a : r.abundances) {
      EXPECT_GE(a, 0.0);
      sum += a;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(UnmixerTest, FclsRecoversFeasibleMixtures) {
  const Matrix em = test_endmembers(48);
  const Unmixer u(em);
  const std::vector<double> truth = {0.7, 0.1, 0.2};
  const auto r = u.fcls(mix(em, truth));
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_NEAR(r.abundances[e], truth[e], 1e-5);
  }
  EXPECT_NEAR(r.error_sq, 0.0, 1e-8);
}

TEST(UnmixerTest, FclsClampsInfeasiblePixel) {
  const Matrix em = test_endmembers(32);
  const Unmixer u(em);
  // A pixel equal to endmember 0 scaled by 2 plus the negative of
  // endmember 1 is far outside the simplex; FCLS must still return a
  // feasible abundance vector.
  std::vector<float> px(32);
  for (std::size_t b = 0; b < 32; ++b) {
    px[b] = static_cast<float>(2.0 * em(0, b) - 0.5 * em(1, b));
  }
  const auto r = u.fcls(px);
  double sum = 0.0;
  for (double a : r.abundances) {
    EXPECT_GE(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.error_sq, 0.0);
}

TEST(UnmixerTest, QuadraticErrorMatchesExplicitReconstruction) {
  const Matrix em = test_endmembers(40);
  const Unmixer u(em);
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<float> px(40);
    for (auto& v : px) v = static_cast<float>(rng.uniform(0.0, 1.5));
    const auto r = u.fcls(px);
    const double explicit_err = u.explicit_error_sq(px, r.abundances);
    EXPECT_NEAR(r.error_sq, explicit_err,
                1e-8 * std::max(1.0, explicit_err));
  }
}

TEST(UnmixerTest, SingleEndmemberFclsIsFullAbundance) {
  Matrix em(1, 16);
  for (std::size_t b = 0; b < 16; ++b) em(0, b) = 0.5;
  const Unmixer u(em);
  std::vector<float> px(16, 0.25f);
  const auto r = u.fcls(px);
  ASSERT_EQ(r.abundances.size(), 1u);
  EXPECT_NEAR(r.abundances[0], 1.0, 1e-12);
  // error = ||0.25 - 0.5||^2 over 16 bands = 16 * 0.0625
  EXPECT_NEAR(r.error_sq, 1.0, 1e-6);
}

TEST(UnmixerTest, DependentSignaturesThrow) {
  // Identical rows give an exactly singular Gram matrix.
  Matrix em(2, 4);
  for (std::size_t b = 0; b < 4; ++b) {
    em(0, b) = 1.0;
    em(1, b) = 1.0;
  }
  EXPECT_THROW(Unmixer{em}, Error);
}

struct FclsCase {
  double a0, a1, a2;
};

class FclsAbundanceSweep : public ::testing::TestWithParam<FclsCase> {};

TEST_P(FclsAbundanceSweep, RecoversSimplexPoint) {
  const auto [a0, a1, a2] = GetParam();
  const Matrix em = test_endmembers(64);
  const Unmixer u(em);
  const std::vector<double> truth = {a0, a1, a2};
  const auto r = u.fcls(mix(em, truth));
  EXPECT_NEAR(r.abundances[0], a0, 1e-5);
  EXPECT_NEAR(r.abundances[1], a1, 1e-5);
  EXPECT_NEAR(r.abundances[2], a2, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    SimplexPoints, FclsAbundanceSweep,
    ::testing::Values(FclsCase{1.0, 0.0, 0.0}, FclsCase{0.0, 1.0, 0.0},
                      FclsCase{0.0, 0.0, 1.0}, FclsCase{0.5, 0.5, 0.0},
                      FclsCase{0.34, 0.33, 0.33}, FclsCase{0.9, 0.05, 0.05},
                      FclsCase{0.05, 0.9, 0.05}, FclsCase{0.2, 0.0, 0.8}));

TEST(UnmixerTest, NoisyMixtureErrorScalesWithNoise) {
  const Matrix em = test_endmembers(64);
  const Unmixer u(em);
  const std::vector<double> truth = {0.4, 0.4, 0.2};
  Xoshiro256 rng(21);
  auto px = mix(em, truth);
  double err_clean = u.fcls(px).error_sq;
  for (auto& v : px) v += static_cast<float>(0.01 * rng.normal());
  const double err_noisy = u.fcls(px).error_sq;
  EXPECT_LT(err_clean, err_noisy);
}


// --- Oracle: the FCLS kernel as it stood before the allocation-free ------
// rewrite, frozen verbatim (a heap vector per intermediate, a Cholesky per
// subset).  The live kernel must reproduce it bit for bit: abundances,
// error and active-set iteration count.

std::vector<double> frozen_scls_with_ginv1(const Cholesky& chol,
                                           std::span<const double> b,
                                           std::span<const double> ginv1,
                                           double denom) {
  const std::size_t m = b.size();
  const std::vector<double> au = chol.solve(b);
  const double sum_au = std::accumulate(au.begin(), au.end(), 0.0);
  HPRS_REQUIRE(std::abs(denom) > 1e-300, "degenerate sum-to-one system");
  const double lambda = (sum_au - 1.0) / denom;
  std::vector<double> a(m);
  for (std::size_t i = 0; i < m; ++i) a[i] = au[i] - lambda * ginv1[i];
  return a;
}

std::vector<double> frozen_scls_with_factor(const Cholesky& chol,
                                            std::span<const double> b) {
  const std::vector<double> ones(b.size(), 1.0);
  const std::vector<double> ginv1 = chol.solve(ones);
  const double denom = std::accumulate(ginv1.begin(), ginv1.end(), 0.0);
  return frozen_scls_with_ginv1(chol, b, ginv1, denom);
}

std::vector<double> frozen_scls_on_subset(
    const Matrix& gram, std::span<const double> corr,
    const std::vector<std::size_t>& active) {
  const std::size_t m = active.size();
  Matrix g(m, m);
  std::vector<double> b(m);
  for (std::size_t i = 0; i < m; ++i) {
    b[i] = corr[active[i]];
    for (std::size_t j = 0; j < m; ++j) {
      g(i, j) = gram(active[i], active[j]);
    }
  }
  return frozen_scls_with_factor(Cholesky(g), b);
}

/// The Unmixer state the frozen kernel reads, built as the constructor
/// builds it.
struct FrozenUnmixer {
  explicit FrozenUnmixer(const Matrix& signatures)
      : gram(signatures.multiply(signatures.transposed())), factor(gram) {
    const std::vector<double> ones(gram.rows(), 1.0);
    ginv_ones = factor.solve(ones);
    ginv_ones_sum = std::accumulate(ginv_ones.begin(), ginv_ones.end(), 0.0);
  }

  [[nodiscard]] double quadratic_error_sq(
      double pixel_norm_sq, std::span<const double> corr,
      std::span<const double> abundances) const {
    double err = pixel_norm_sq - 2.0 * dot<double, double>(abundances, corr);
    for (std::size_t i = 0; i < gram.rows(); ++i) {
      err += abundances[i] * dot<double, double>(gram.row(i), abundances);
    }
    return err > 0.0 ? err : 0.0;
  }

  [[nodiscard]] UnmixResult fcls_with_corr(std::span<const double> corr,
                                           double pixel_norm_sq) const {
    const std::size_t t = gram.rows();
    std::vector<std::size_t> active(t);
    std::iota(active.begin(), active.end(), std::size_t{0});
    UnmixResult r;
    while (true) {
      const std::vector<double> a =
          active.size() == t
              ? frozen_scls_with_ginv1(factor, corr, ginv_ones, ginv_ones_sum)
              : frozen_scls_on_subset(gram, corr, active);
      std::vector<std::size_t> survivors;
      survivors.reserve(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (a[i] >= -1e-12) survivors.push_back(active[i]);
      }
      if (survivors.size() == active.size() || survivors.empty() ||
          active.size() == 1) {
        r.abundances.assign(t, 0.0);
        for (std::size_t i = 0; i < active.size(); ++i) {
          r.abundances[active[i]] = std::max(a[i], 0.0);
        }
        break;
      }
      active = std::move(survivors);
      ++r.iterations;
    }
    const double s =
        std::accumulate(r.abundances.begin(), r.abundances.end(), 0.0);
    if (s > 0.0) {
      for (auto& v : r.abundances) v /= s;
    }
    r.error_sq = quadratic_error_sq(pixel_norm_sq, corr, r.abundances);
    return r;
  }

  Matrix gram;
  Cholesky factor;
  std::vector<double> ginv_ones;
  double ginv_ones_sum = 0.0;
};

/// Six smooth endmembers of distinct frequencies on `bands` channels.
Matrix six_endmembers(std::size_t bands) {
  Matrix m(6, bands);
  for (std::size_t e = 0; e < 6; ++e) {
    for (std::size_t b = 0; b < bands; ++b) {
      const double x = static_cast<double>(b) / static_cast<double>(bands);
      const double k = static_cast<double>(e + 1);
      m(e, b) = 0.5 + 0.4 * std::cos(2.0 * k * x + 0.3 * k);
    }
  }
  return m;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(FclsOracleTest, AllocationFreeKernelMatchesTheFrozenKernelBitwise) {
  const std::size_t bands = 40;
  const Matrix em = six_endmembers(bands);
  const Unmixer u(em);
  const FrozenUnmixer frozen(em);
  Xoshiro256 rng(2026);
  FclsScratch scratch;  // one scratch reused across every pixel
  int by_rounds[3] = {0, 0, 0};
  for (int trial = 0; trial < 400; ++trial) {
    // Every third pixel lies inside the simplex (no clamping); the others
    // have abundances partly below zero, so one or more active-set rounds
    // run depending on how many go negative.
    std::vector<double> truth(6);
    const bool feasible = trial % 3 == 0;
    for (auto& a : truth) a = rng.uniform(feasible ? 0.1 : -0.5, 1.0);
    if (feasible) {
      const double sum = std::accumulate(truth.begin(), truth.end(), 0.0);
      for (auto& a : truth) a /= sum;
    }
    std::vector<float> px = mix(em, truth);
    for (auto& v : px) {
      v += static_cast<float>((feasible ? 1e-4 : 0.01) * rng.normal());
    }

    std::vector<double> corr(6);
    for (std::size_t i = 0; i < 6; ++i) {
      corr[i] = dot<double, float>(em.row(i), px);
    }
    const double xx = norm_sq<float>(px);
    const UnmixResult want = frozen.fcls_with_corr(corr, xx);
    const FclsStats got = u.fcls_with_corr(corr, xx, scratch);
    const UnmixResult via_pixel = u.fcls(px);

    ASSERT_EQ(got.iterations, want.iterations) << "trial " << trial;
    ASSERT_TRUE(same_bits(got.error_sq, want.error_sq)) << "trial " << trial;
    ASSERT_EQ(via_pixel.iterations, want.iterations) << "trial " << trial;
    ASSERT_TRUE(same_bits(via_pixel.error_sq, want.error_sq));
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(same_bits(scratch.abundances()[i], want.abundances[i]))
          << "trial " << trial << " endmember " << i;
      ASSERT_TRUE(same_bits(via_pixel.abundances[i], want.abundances[i]));
    }
    ++by_rounds[std::min(want.iterations, 2)];
  }
  EXPECT_GT(by_rounds[0], 0) << "no pixel solved without clamping";
  EXPECT_GT(by_rounds[1], 0) << "no pixel needed exactly one subset round";
  EXPECT_GT(by_rounds[2], 0) << "no pixel needed two or more subset rounds";
}

TEST(FclsOracleTest, ScratchResizesAcrossEndmemberCounts) {
  const Matrix em = six_endmembers(24);
  Matrix small(2, 24);
  std::copy(em.row(1).begin(), em.row(1).end(), small.row(0).begin());
  std::copy(em.row(4).begin(), em.row(4).end(), small.row(1).begin());
  std::vector<float> px(24);
  for (std::size_t b = 0; b < 24; ++b) {
    px[b] = static_cast<float>(0.7 * em(1, b) + 0.6 * em(4, b) -
                               0.3 * em(2, b));
  }
  FclsScratch scratch;
  const Matrix* const sets[] = {&em, &small, &em};
  for (const Matrix* m : sets) {
    const Unmixer u(*m);
    const FrozenUnmixer frozen(*m);
    std::vector<double> corr(m->rows());
    for (std::size_t i = 0; i < m->rows(); ++i) {
      corr[i] = dot<double, float>(m->row(i), px);
    }
    const double xx = norm_sq<float>(px);
    const UnmixResult want = frozen.fcls_with_corr(corr, xx);
    const FclsStats got = u.fcls_with_corr(corr, xx, scratch);
    ASSERT_EQ(scratch.abundances().size(), m->rows());
    EXPECT_TRUE(same_bits(got.error_sq, want.error_sq));
    EXPECT_EQ(got.iterations, want.iterations);
    for (std::size_t i = 0; i < m->rows(); ++i) {
      EXPECT_TRUE(same_bits(scratch.abundances()[i], want.abundances[i]));
    }
  }
}

TEST(FclsOracleTest, NonPositiveDefiniteSubsetRaisesTheNamedError) {
  // The subset solves factor a gathered Gram submatrix through
  // cholesky_factor, the routine Cholesky itself runs: an indefinite
  // principal submatrix must fail with the named error, not a NaN.
  const Matrix gram(3, 3, {4.0, 3.0, 5.0,  //
                           3.0, 2.0, 1.0,  //
                           5.0, 1.0, 6.0});
  const std::size_t active[2] = {0, 2};  // [[4, 5], [5, 6]]: det < 0
  double sub[4];
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      sub[i * 2 + j] = gram(active[i], active[j]);
    }
  }
  double l[4];
  const auto expect_named = [](const auto& factor) {
    try {
      factor();
      ADD_FAILURE() << "indefinite matrix was factored";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("matrix is not positive definite"),
                std::string::npos)
          << e.what();
    }
  };
  expect_named([&] { cholesky_factor(sub, 2, l); });
  expect_named([&] { (void)Cholesky(Matrix(2, 2, {4.0, 5.0, 5.0, 6.0})); });
}

}  // namespace
}  // namespace hprs::linalg
