#include "linalg/solve.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/target_clones.hpp"

namespace hprs::linalg {

void cholesky_factor(const double* a, std::size_t n, double* l) {
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l + j * n;
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    HPRS_REQUIRE(diag > 0.0, "matrix is not positive definite");
    l[j * n + j] = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* li = l + i * n;
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l[i * n + j] = s / lj[j];
    }
  }
}

namespace {

/// L independent systems L L^T y_j = b_j in lockstep: every step of the
/// scalar substitution is applied to each lane before the next step, and
/// each lane's accumulator sees exactly the scalar chain of its own solve.
template <std::size_t L>
void solve_lockstep(const double* l, std::size_t n, const double* const* b,
                    double* const* y) {
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s[L];
    for (std::size_t j = 0; j < L; ++j) s[j] = b[j][i];
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      for (std::size_t j = 0; j < L; ++j) s[j] -= lik * y[j][k];
    }
    for (std::size_t j = 0; j < L; ++j) y[j][i] = s[j] / li[i];
  }
  // Back substitution L^T x = y (in place).
  for (std::size_t ii = n; ii-- > 0;) {
    double s[L];
    for (std::size_t j = 0; j < L; ++j) s[j] = y[j][ii];
    for (std::size_t k = ii + 1; k < n; ++k) {
      const double lki = l[k * n + ii];
      for (std::size_t j = 0; j < L; ++j) s[j] -= lki * y[j][k];
    }
    const double d = l[ii * n + ii];
    for (std::size_t j = 0; j < L; ++j) y[j][ii] = s[j] / d;
  }
}

/// L contiguous right-hand sides (b + q*n, solutions at y + q*n) in
/// lockstep.
template <std::size_t L>
void solve_group(const double* l, std::size_t n, const double* b,
                 double* y) {
  const double* bq[L];
  double* yq[L];
  for (std::size_t q = 0; q < L; ++q) {
    bq[q] = b + q * n;
    yq[q] = y + q * n;
  }
  solve_lockstep<L>(l, n, bq, yq);
}

}  // namespace

void cholesky_solve(const double* l, std::size_t n, const double* b,
                    double* y) {
  cholesky_solve_strip(l, n, b, 1, y);
}

HPRS_TARGET_CLONES
void cholesky_solve_strip(const double* l, std::size_t n, const double* b,
                          std::size_t m, double* y) {
  std::size_t j = 0;
  for (; j + 8 <= m; j += 8) solve_group<8>(l, n, b + j * n, y + j * n);
  for (; j + 4 <= m; j += 4) solve_group<4>(l, n, b + j * n, y + j * n);
  switch (m - j) {
    case 3: solve_group<3>(l, n, b + j * n, y + j * n); break;
    case 2: solve_group<2>(l, n, b + j * n, y + j * n); break;
    case 1: solve_group<1>(l, n, b + j * n, y + j * n); break;
    default: break;
  }
}

HPRS_TARGET_CLONES
void cholesky_solve_pair(const double* l, std::size_t n, const double* b0,
                         const double* b1, double* y0, double* y1) {
  const double* b[2] = {b0, b1};
  double* y[2] = {y0, y1};
  solve_lockstep<2>(l, n, b, y);
}

Cholesky::Cholesky(const Matrix& spd) : l_(spd.rows(), spd.cols()) {
  HPRS_REQUIRE(spd.rows() == spd.cols(), "Cholesky requires a square matrix");
  cholesky_factor(spd.data().data(), spd.rows(), l_.data().data());
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  std::vector<double> y(dim());
  solve_into(b, y);
  return y;
}

void Cholesky::solve_into(std::span<const double> b,
                          std::span<double> y) const {
  const std::size_t n = dim();
  HPRS_REQUIRE(b.size() == n, "rhs dimension mismatch");
  HPRS_REQUIRE(y.size() == n, "solution buffer dimension mismatch");
  cholesky_solve(l_.data().data(), n, b.data(), y.data());
}

void Cholesky::solve_strip_into(std::span<const double> b, std::size_t m,
                                std::span<double> y) const {
  const std::size_t n = dim();
  HPRS_REQUIRE(b.size() == m * n, "rhs strip dimension mismatch");
  HPRS_REQUIRE(y.size() == m * n, "solution strip dimension mismatch");
  cholesky_solve_strip(l_.data().data(), n, b.data(), m, y.data());
}

double Cholesky::log_det() const {
  double s = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Matrix gauss_jordan_inverse(const Matrix& a) {
  HPRS_REQUIRE(a.rows() == a.cols(), "inverse requires a square matrix");
  const std::size_t n = a.rows();
  Matrix work = a;
  Matrix inv = Matrix::identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(work(r, col)) > std::abs(work(pivot, col))) pivot = r;
    }
    HPRS_REQUIRE(std::abs(work(pivot, col)) > 1e-300, "matrix is singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work(pivot, c), work(col, c));
        std::swap(inv(pivot, c), inv(col, c));
      }
    }
    const double d = work(col, col);
    for (std::size_t c = 0; c < n; ++c) {
      work(col, c) /= d;
      inv(col, c) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = work(r, col);
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work(r, c) -= f * work(col, c);
        inv(r, c) -= f * inv(col, c);
      }
    }
  }
  return inv;
}

std::vector<double> solve_linear(const Matrix& a, std::span<const double> b) {
  HPRS_REQUIRE(a.rows() == a.cols(), "solve_linear requires a square matrix");
  HPRS_REQUIRE(b.size() == a.rows(), "rhs dimension mismatch");
  const std::size_t n = a.rows();
  Matrix work = a;
  std::vector<double> x(b.begin(), b.end());
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(work(r, col)) > std::abs(work(pivot, col))) pivot = r;
    }
    HPRS_REQUIRE(std::abs(work(pivot, col)) > 1e-300, "matrix is singular");
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c) std::swap(work(pivot, c), work(col, c));
      std::swap(x[pivot], x[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = work(r, col) / work(col, col);
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) work(r, c) -= f * work(col, c);
      x[r] -= f * x[col];
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= work(ii, c) * x[c];
    x[ii] = s / work(ii, ii);
  }
  return x;
}

}  // namespace hprs::linalg
