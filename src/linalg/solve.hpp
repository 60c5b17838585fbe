// Direct solvers for the small symmetric systems arising in spectral
// unmixing: Gram systems (U^T U) y = b with t <= ~30 and covariance-sized
// SPD systems up to bands x bands.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace hprs::linalg {

/// Factors the row-major n x n symmetric positive-definite matrix `a` as
/// L L^T, writing L into the lower triangle of the row-major n x n buffer
/// `l` (entries above the diagonal are left untouched).  Throws
/// hprs::Error "matrix is not positive definite" if a pivot is not
/// positive.  Cholesky and the FCLS active-set subset solves share this
/// routine, so a subset factor is bit-identical to Cholesky on the same
/// submatrix.
void cholesky_factor(const double* a, std::size_t n, double* l);

/// Solves L L^T y = b for the factor written by cholesky_factor (forward
/// then back substitution, in place in y).  b and y may not alias.  The
/// one-right-hand-side case of cholesky_solve_strip.
void cholesky_solve(const double* l, std::size_t n, const double* b,
                    double* y);

/// Solves L L^T y_j = b_j for m right-hand sides stored contiguously
/// (b_j = b + j*n, y_j = y + j*n) against one factor.  Up to eight systems
/// run their substitutions in lockstep; each keeps exactly the addition
/// chains of a single-system solve, so every y_j is bit-identical to
/// cholesky_solve on its own.  b and y may not alias.
void cholesky_solve_strip(const double* l, std::size_t n, const double* b,
                          std::size_t m, double* y);

/// Two right-hand sides b0, b1 with separate outputs y0, y1 in lockstep
/// (the FCLS subset rounds solve G_S^-1 1 and G_S^-1 b on one factor).
/// Bit-identical to two cholesky_solve calls; no input aliases an output.
void cholesky_solve_pair(const double* l, std::size_t n, const double* b0,
                         const double* b1, double* y0, double* y1);

/// Cholesky factorization L L^T of a symmetric positive-definite matrix.
/// Throws hprs::Error if the matrix is not (numerically) SPD.
class Cholesky {
 public:
  explicit Cholesky(const Matrix& spd);

  /// Solves A x = b using the stored factor.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Allocation-free solve into a caller-provided buffer (b and x may not
  /// alias).  Arithmetic is identical to solve(); the hot per-pixel sweeps
  /// use this with a reusable scratch span.
  void solve_into(std::span<const double> b, std::span<double> x) const;

  /// solve_into for m right-hand sides stored contiguously in b (dim()
  /// values each), solutions likewise in y: cholesky_solve_strip over the
  /// stored factor, bit-identical to m solve_into calls.
  void solve_strip_into(std::span<const double> b, std::size_t m,
                        std::span<double> y) const;

  [[nodiscard]] std::size_t dim() const { return l_.rows(); }

  /// log(det A) -- occasionally useful for conditioning diagnostics.
  [[nodiscard]] double log_det() const;

 private:
  Matrix l_;  // lower triangular factor
};

/// Gauss-Jordan inverse with partial pivoting.  Used where an explicit
/// inverse is genuinely required (the paper writes the OSP projector as
/// I - U (U^T U)^{-1} U^T); throws on singular input.
[[nodiscard]] Matrix gauss_jordan_inverse(const Matrix& a);

/// Solves the general square system A x = b by Gaussian elimination with
/// partial pivoting; throws on singular input.
[[nodiscard]] std::vector<double> solve_linear(const Matrix& a,
                                               std::span<const double> b);

}  // namespace hprs::linalg
