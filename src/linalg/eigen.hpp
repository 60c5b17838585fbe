// Symmetric eigensolver for the PCT covariance step.
//
// The principal component transform needs all eigenpairs of the bands x
// bands covariance matrix (224 x 224 for AVIRIS), sorted by decreasing
// eigenvalue.  A cyclic Jacobi iteration is simple, unconditionally stable
// for symmetric input, and more than fast enough at this size; it also has a
// clean analytic flop count (flops::jacobi_sweep) for the virtual-time model.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace hprs::linalg {

struct EigenDecomposition {
  /// Eigenvalues in decreasing order.
  std::vector<double> values;
  /// Row k of `vectors` is the unit eigenvector for values[k].
  Matrix vectors;
  /// Number of full Jacobi sweeps performed (exposed so callers can charge
  /// the exact virtual compute cost).
  int sweeps = 0;
};

/// Computes the full eigendecomposition of a symmetric matrix by cyclic
/// Jacobi rotations.  `tol` bounds the off-diagonal Frobenius norm relative
/// to the diagonal; `max_sweeps` guards termination.
[[nodiscard]] EigenDecomposition jacobi_eigen(const Matrix& symmetric,
                                              double tol = 1e-12,
                                              int max_sweeps = 64);

/// Entries kept by jacobi_eigen_memo (least recently used evicted first):
/// about 6.4 MB at 224 bands.
inline constexpr std::size_t kEigenMemoEntries = 8;

/// jacobi_eigen behind a process-wide, thread-safe LRU memo keyed on the
/// input's dimensions and exact bytes plus `tol` and `max_sweeps`.  A hit
/// returns a bit-identical copy of the decomposition, sweep count included,
/// so callers charge the same virtual time either way.  Failed solves
/// throw as jacobi_eigen does and are not cached.  Publishes host-domain
/// counters linalg.eigen.memo_hits / memo_misses and times each uncached
/// solve as the host timer linalg.eigen.
[[nodiscard]] EigenDecomposition jacobi_eigen_memo(const Matrix& symmetric,
                                                   double tol = 1e-12,
                                                   int max_sweeps = 64);

}  // namespace hprs::linalg
