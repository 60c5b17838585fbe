#include "linalg/solve.hpp"

#include <cmath>

#include "common/error.hpp"

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

void cholesky_solve(const double* l, std::size_t n, const double* b,
                    double* y) {
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
  // Back substitution L^T x = y (in place).
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l[k * n + ii] * y[k];
    y[ii] = s / l[ii * n + ii];
  }
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
