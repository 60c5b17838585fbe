#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hsi/scene.hpp"
#include "linalg/vec.hpp"
#include "obs/metrics.hpp"

namespace hprs::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.uniform(-2, 2);
      a(j, i) = a(i, j);
    }
  }
  return a;
}

TEST(JacobiEigenTest, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  const auto eig = jacobi_eigen(a);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(JacobiEigenTest, Known2x2Eigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a(2, 2, {2, 1, 1, 2});
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Leading eigenvector is (1,1)/sqrt(2) up to sign.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), inv_sqrt2, 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors(0, 1)), inv_sqrt2, 1e-10);
}

TEST(JacobiEigenTest, RejectsNonSquare) {
  EXPECT_THROW((void)jacobi_eigen(Matrix(2, 3)), Error);
}

TEST(JacobiEigenTest, ValuesAreSortedDescending) {
  const Matrix a = random_symmetric(12, 99);
  const auto eig = jacobi_eigen(a);
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_GE(eig.values[i - 1], eig.values[i]);
  }
}

TEST(JacobiEigenTest, TraceEqualsEigenvalueSum) {
  const Matrix a = random_symmetric(9, 17);
  const auto eig = jacobi_eigen(a);
  double trace = 0.0;
  for (std::size_t i = 0; i < 9; ++i) trace += a(i, i);
  double sum = 0.0;
  for (double v : eig.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-10);
}

class EigenSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSizeSweep, EigenvectorsAreOrthonormal) {
  const std::size_t n = GetParam();
  const auto eig = jacobi_eigen(random_symmetric(n, n * 5 + 3));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double d =
          dot<double, double>(eig.vectors.row(i), eig.vectors.row(j));
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9) << "i=" << i << " j=" << j;
    }
  }
}

TEST_P(EigenSizeSweep, SatisfiesEigenEquation) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, n * 11 + 7);
  const auto eig = jacobi_eigen(a);
  for (std::size_t k = 0; k < n; ++k) {
    const auto av = a.multiply(eig.vectors.row(k));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], eig.values[k] * eig.vectors(k, i), 1e-8)
          << "pair " << k << " component " << i;
    }
  }
}

TEST_P(EigenSizeSweep, ReconstructsOriginalMatrix) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, n * 13 + 1);
  const auto eig = jacobi_eigen(a);
  // A = sum_k lambda_k v_k v_k^T
  Matrix recon(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto v = eig.vectors.row(k);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        recon(i, j) += eig.values[k] * v[i] * v[j];
      }
    }
  }
  EXPECT_LE(recon.max_abs_diff(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(JacobiEigenTest, HandlesAvirisSizedCovariance) {
  // The PCT path decomposes 224 x 224 covariance matrices; verify the
  // solver converges and stays orthonormal at that size.
  const std::size_t n = 224;
  Xoshiro256 rng(2006);
  Matrix b(64, n);  // rank-64 covariance plus a ridge, like real image stats
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  Matrix cov = b.gram();
  for (std::size_t i = 0; i < n; ++i) cov(i, i) += 1e-3;
  const auto eig = jacobi_eigen(cov);
  EXPECT_GT(eig.values.front(), eig.values.back());
  EXPECT_GT(eig.values.back(), 0.0);
  EXPECT_GT(eig.sweeps, 0);
  double sum = 0.0;
  for (double v : eig.values) sum += v;
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += cov(i, i);
  EXPECT_NEAR(sum, trace, 1e-6 * trace);
}

// ---------------------------------------------------------------------
// Bit identity against the column-accumulator solver.
//
// reference_jacobi_eigen is the solver as it stood before the eigenvector
// accumulator was transposed, frozen here verbatim: every rotation updates
// A's columns, then A's rows, then V's columns (strided).  The production
// solver must reproduce it bit for bit -- values, vectors and sweep count
// -- because PCT charges virtual time as sweeps x flops::jacobi_sweep and
// its outputs are golden-compared.

double reference_off_diagonal_sq(const Matrix& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i != j) s += a(i, j) * a(i, j);
    }
  }
  return s;
}

EigenDecomposition reference_jacobi_eigen(const Matrix& symmetric,
                                          double tol = 1e-12,
                                          int max_sweeps = 64) {
  HPRS_REQUIRE(symmetric.rows() == symmetric.cols(),
               "eigendecomposition requires a square matrix");
  const std::size_t n = symmetric.rows();
  HPRS_REQUIRE(n > 0, "empty matrix");

  Matrix a = symmetric;
  Matrix v = Matrix::identity(n);

  double diag_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_sq += a(i, i) * a(i, i);
  const double stop = tol * tol * std::max(diag_sq, 1e-300);

  EigenDecomposition out;
  while (out.sweeps < max_sweeps && reference_off_diagonal_sq(a) > stop) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq == 0.0) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    ++out.sweeps;
  }
  HPRS_REQUIRE(reference_off_diagonal_sq(a) <= stop || max_sweeps == 0,
               "Jacobi eigensolver did not converge");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i) > a(j, j);
  });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a(order[k], order[k]);
    for (std::size_t r = 0; r < n; ++r) {
      out.vectors(k, r) = v(r, order[k]);
    }
  }
  return out;
}

void expect_bit_identical(const EigenDecomposition& got,
                          const EigenDecomposition& want) {
  EXPECT_EQ(got.sweeps, want.sweeps);
  ASSERT_EQ(got.values.size(), want.values.size());
  EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                        want.values.size() * sizeof(double)),
            0);
  ASSERT_EQ(got.vectors.rows(), want.vectors.rows());
  ASSERT_EQ(got.vectors.cols(), want.vectors.cols());
  EXPECT_EQ(std::memcmp(got.vectors.data().data(), want.vectors.data().data(),
                        want.vectors.data().size() * sizeof(double)),
            0);
}

class EigenBitIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenBitIdentity, MatchesColumnAccumulatorSolver) {
  const std::size_t n = GetParam();
  const Matrix a = random_symmetric(n, 7000 + n);
  expect_bit_identical(jacobi_eigen(a), reference_jacobi_eigen(a));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenBitIdentity,
                         ::testing::Values(1, 2, 3, 17, 64, 224));

TEST(EigenBitIdentityTest, NotBitwiseSymmetricInput) {
  // The solver reads only the upper triangle for its rotation angles but
  // rotates both; one-ULP asymmetries must flow through identically.
  Matrix a = random_symmetric(17, 4242);
  a(0, 1) = std::nextafter(a(0, 1), 10.0);
  a(5, 3) = std::nextafter(a(5, 3), -10.0);
  a(16, 9) = a(9, 16) * (1.0 + 1e-15);
  expect_bit_identical(jacobi_eigen(a), reference_jacobi_eigen(a));
}

TEST(EigenBitIdentityTest, PctCovarianceOfAGeneratedScene) {
  hsi::SceneConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  const auto scene = hsi::generate_wtc_scene(cfg);
  const auto& cube = scene.cube;
  const std::size_t bands = cube.bands();
  const double n = static_cast<double>(cube.pixel_count());
  std::vector<double> mean(bands, 0.0);
  for (std::size_t r = 0; r < cube.rows(); ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const auto px = cube.pixel(r, c);
      for (std::size_t b = 0; b < bands; ++b) mean[b] += px[b];
    }
  }
  for (double& m : mean) m /= n;
  Matrix cov(bands, bands);
  for (std::size_t r = 0; r < cube.rows(); ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const auto px = cube.pixel(r, c);
      for (std::size_t i = 0; i < bands; ++i) {
        for (std::size_t j = i; j < bands; ++j) {
          cov(i, j) += (px[i] - mean[i]) * (px[j] - mean[j]);
        }
      }
    }
  }
  for (std::size_t i = 0; i < bands; ++i) {
    for (std::size_t j = i; j < bands; ++j) {
      cov(i, j) /= n;
      cov(j, i) = cov(i, j);
    }
  }
  expect_bit_identical(jacobi_eigen(cov), reference_jacobi_eigen(cov));
}

// ---------------------------------------------------------------------
// jacobi_eigen_memo.  The memo is process-wide, so every test solves
// inputs no other test uses and observes hits and misses through the
// host-domain counters.

std::uint64_t counter(std::string_view name) {
  for (const auto& [key, value] : obs::Metrics::instance().snapshot()) {
    if (key == name) return value.count;
  }
  return 0;
}

std::uint64_t hits() { return counter("linalg.eigen.memo_hits"); }
std::uint64_t misses() { return counter("linalg.eigen.memo_misses"); }

TEST(EigenMemoTest, HitIsBitIdenticalToMissAndToThePureSolver) {
  const obs::ScopedMetrics scoped;
  const Matrix a = random_symmetric(24, 91001);
  const auto miss = jacobi_eigen_memo(a);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);
  const auto hit = jacobi_eigen_memo(a);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);
  expect_bit_identical(hit, miss);
  expect_bit_identical(hit, jacobi_eigen(a));
  // The uncached solve is attributed to the linalg.eigen host timer.
  const auto snap = obs::Metrics::instance().snapshot();
  const auto it = std::find_if(snap.begin(), snap.end(), [](const auto& kv) {
    return kv.first == "linalg.eigen";
  });
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second.kind, obs::MetricKind::kTimer);
  EXPECT_EQ(it->second.count, 1u);
  for (const char* name : {"linalg.eigen.memo_hits",
                           "linalg.eigen.memo_misses", "linalg.eigen"}) {
    const auto m = std::find_if(snap.begin(), snap.end(), [&](const auto& kv) {
      return kv.first == name;
    });
    ASSERT_NE(m, snap.end()) << name;
    EXPECT_EQ(m->second.domain, obs::Domain::kHost) << name;
  }
}

TEST(EigenMemoTest, DifferentTolOrMaxSweepsMisses) {
  const obs::ScopedMetrics scoped;
  const Matrix a = random_symmetric(12, 91002);
  (void)jacobi_eigen_memo(a, 1e-12, 64);
  (void)jacobi_eigen_memo(a, 1e-10, 64);
  (void)jacobi_eigen_memo(a, 1e-12, 63);
  EXPECT_EQ(misses(), 3u);
  EXPECT_EQ(hits(), 0u);
  expect_bit_identical(jacobi_eigen_memo(a, 1e-10, 64),
                       jacobi_eigen(a, 1e-10, 64));
  EXPECT_EQ(hits(), 1u);
}

TEST(EigenMemoTest, OneUlpAndSignedZeroChangesMiss) {
  const obs::ScopedMetrics scoped;
  Matrix a = random_symmetric(12, 91003);
  a(4, 4) = 0.0;
  (void)jacobi_eigen_memo(a);

  Matrix ulp = a;
  ulp(2, 7) = std::nextafter(ulp(2, 7), 10.0);
  expect_bit_identical(jacobi_eigen_memo(ulp), jacobi_eigen(ulp));

  Matrix neg_zero = a;
  neg_zero(4, 4) = -0.0;
  ASSERT_EQ(neg_zero(4, 4), a(4, 4));  // equal as values, not as bytes
  expect_bit_identical(jacobi_eigen_memo(neg_zero), jacobi_eigen(neg_zero));

  EXPECT_EQ(misses(), 3u);
  EXPECT_EQ(hits(), 0u);
}

TEST(EigenMemoTest, BoundEvictsTheLeastRecentlyUsedEntry) {
  const obs::ScopedMetrics scoped;
  std::vector<Matrix> inputs;
  for (std::size_t i = 0; i <= kEigenMemoEntries; ++i) {
    inputs.push_back(random_symmetric(6, 92000 + i));
  }
  // Fill the memo with the first kEigenMemoEntries inputs, then touch the
  // oldest so the second becomes least recently used.
  for (std::size_t i = 0; i < kEigenMemoEntries; ++i) {
    (void)jacobi_eigen_memo(inputs[i]);
  }
  (void)jacobi_eigen_memo(inputs[0]);
  EXPECT_EQ(hits(), 1u);
  (void)jacobi_eigen_memo(inputs[kEigenMemoEntries]);  // evicts inputs[1]
  const std::uint64_t before = misses();
  (void)jacobi_eigen_memo(inputs[0]);
  EXPECT_EQ(hits(), 2u);
  (void)jacobi_eigen_memo(inputs[1]);
  EXPECT_EQ(misses(), before + 1);
}

TEST(EigenMemoTest, NinthDistinctInputEvictsTheFirst) {
  const obs::ScopedMetrics scoped;
  std::vector<Matrix> inputs;
  for (std::size_t i = 0; i <= kEigenMemoEntries; ++i) {
    inputs.push_back(random_symmetric(6, 93000 + i));
    (void)jacobi_eigen_memo(inputs.back());
  }
  EXPECT_EQ(misses(), kEigenMemoEntries + 1);
  (void)jacobi_eigen_memo(inputs.back());
  EXPECT_EQ(hits(), 1u);
  (void)jacobi_eigen_memo(inputs.front());
  EXPECT_EQ(misses(), kEigenMemoEntries + 2);
  EXPECT_EQ(hits(), 1u);
}

TEST(EigenMemoTest, ConcurrentCallersGetBitIdenticalResults) {
  const obs::ScopedMetrics scoped;
  std::vector<Matrix> inputs;
  std::vector<EigenDecomposition> want;
  for (std::size_t i = 0; i < 3; ++i) {
    inputs.push_back(random_symmetric(20, 94000 + i));
    want.push_back(jacobi_eigen(inputs.back()));
  }
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 6;
  std::vector<std::vector<EigenDecomposition>> got(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t r = 0; r < kRounds; ++r) {
        got[t].push_back(jacobi_eigen_memo(inputs[(t + r) % inputs.size()]));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      expect_bit_identical(got[t][r], want[(t + r) % inputs.size()]);
    }
  }
  EXPECT_EQ(hits() + misses(), kThreads * kRounds);
  EXPECT_GE(misses(), inputs.size());
}

TEST(EigenMemoTest, ErrorsStillThrowAndAreNotCached) {
  const obs::ScopedMetrics scoped;
  EXPECT_THROW((void)jacobi_eigen_memo(Matrix(2, 3)), Error);
  EXPECT_THROW((void)jacobi_eigen_memo(Matrix(2, 3)), Error);
  const Matrix a = random_symmetric(10, 95000);
  EXPECT_THROW((void)jacobi_eigen_memo(a, 1e-12, 1), Error);
  EXPECT_THROW((void)jacobi_eigen_memo(a, 1e-12, 1), Error);
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(misses(), 4u);
  // The same input still solves (and caches) under a workable sweep cap.
  expect_bit_identical(jacobi_eigen_memo(a), jacobi_eigen(a));
  (void)jacobi_eigen_memo(a);
  EXPECT_EQ(hits(), 1u);
}

}  // namespace
}  // namespace hprs::linalg
