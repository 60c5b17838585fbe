// Linear spectral unmixing: unconstrained, sum-to-one, and fully
// constrained least squares (FCLS).
//
// The Hetero-UFCLS target-detection algorithm (paper Alg. 3) grows a target
// set U and, at every iteration, unmixes each pixel against U under the two
// abundance constraints (non-negativity, sum-to-one), keeping the pixel with
// the largest reconstruction error as the next target.  This file implements
// the unmixing kernel following Heinz & Chang (2001): start from the
// sum-to-one constrained solution and iteratively clamp negative abundances
// to zero, re-solving on the active set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace hprs::linalg {

struct UnmixResult {
  /// Abundance per endmember (same order as the rows of the signature
  /// matrix).  Non-negative and summing to one for fcls().
  std::vector<double> abundances;
  /// Squared Euclidean reconstruction error ||x - M a||^2.
  double error_sq = 0.0;
  /// Active-set iterations used (0 when no clamping was needed); exposed so
  /// callers can charge the exact virtual compute cost.
  int iterations = 0;
};

/// Caller-owned working storage of Unmixer::fcls_with_corr.  Sized on the
/// first solve for an endmember count and reused afterwards without
/// touching the heap, so a sweep that keeps one scratch per lane unmixes
/// every pixel allocation-free.  Holds the abundances of the last solve.
class FclsScratch {
 public:
  // The spans below point into work_/index_, so a scratch is neither
  // copied nor moved.
  FclsScratch() = default;
  FclsScratch(const FclsScratch&) = delete;
  FclsScratch& operator=(const FclsScratch&) = delete;

  /// Abundances of the last fcls_with_corr call (one per endmember).
  [[nodiscard]] std::span<const double> abundances() const {
    return abundances_;
  }

 private:
  friend class Unmixer;
  /// Sizes every buffer for `t` endmembers (no-op when already sized).
  void fit(std::size_t t);

  std::vector<double> work_;       // backing store of the spans below
  std::vector<std::size_t> index_;  // backing store of active_/survivors_
  std::span<double> abundances_;   // t: the solution
  std::span<double> a_;            // t: this round's active-set solution
  std::span<double> au_;           // t: unconstrained solve
  std::span<double> ginv1_;        // t: G_S^-1 1 of the subset
  std::span<double> ones_;         // t: all ones (subset rhs)
  std::span<double> b_;            // t: subset correlation vector
  std::span<double> g_;            // t*t: subset Gram
  std::span<double> l_;            // t*t: its Cholesky factor
  std::span<std::size_t> active_;     // t: surviving endmembers
  std::span<std::size_t> survivors_;  // t: next round's active set
};

/// Per-pixel statistics of an FCLS solve whose abundances stay in the
/// caller's FclsScratch.
struct FclsStats {
  /// Squared Euclidean reconstruction error ||x - M a||^2.
  double error_sq = 0.0;
  /// Active-set iterations used (0 when no clamping was needed).
  int iterations = 0;
};

/// Unmixes pixels against a fixed endmember set.  Construction factors the
/// endmember Gram matrix once; per-pixel solves then cost O(t*n + t^2).
class Unmixer {
 public:
  /// `signatures` holds one endmember spectrum per row (t rows, n columns).
  /// Throws if the signatures are linearly dependent (singular Gram).
  explicit Unmixer(const Matrix& signatures);

  [[nodiscard]] std::size_t endmember_count() const {
    return signatures_.rows();
  }
  [[nodiscard]] std::size_t band_count() const { return signatures_.cols(); }

  /// Unconstrained least squares.
  [[nodiscard]] UnmixResult ucls(std::span<const float> pixel) const;

  /// Sum-to-one constrained least squares (abundances may be negative).
  [[nodiscard]] UnmixResult scls(std::span<const float> pixel) const;

  /// Fully constrained least squares: non-negative abundances summing to
  /// one, via active-set clamping.
  [[nodiscard]] UnmixResult fcls(std::span<const float> pixel) const;

  /// FCLS given a precomputed correlation vector b = M^T x and pixel norm
  /// ||x||^2; the abundances land in scratch.abundances().  This is the
  /// one FCLS implementation: fcls() calls it, and the Hetero-UFCLS sweep
  /// hands it each pixel's column of the correlation plane
  /// (core::detail::CorrPlane).  After the scratch's first use for this
  /// endmember count it performs no heap allocation.  `first_round`, when
  /// given, is G^-1 b for this pixel as full_set_solve produced it; the
  /// first active-set round then uses it instead of solving again.
  [[nodiscard]] FclsStats fcls_with_corr(
      std::span<const double> corr, double pixel_norm_sq,
      FclsScratch& scratch, std::span<const double> first_round = {}) const;

  /// The first active-set round's unconstrained solve au_j = G^-1 b_j for
  /// m pixels whose correlation vectors lie contiguously in `corr` (t
  /// values each), written likewise to `au`: one multi-right-hand-side
  /// solve over the full-set factor, bit-identical per pixel to the solve
  /// fcls_with_corr would run.
  void full_set_solve(std::span<const double> corr, std::size_t m,
                      std::span<double> au) const;

  /// Explicit reconstruction error ||x - M a||^2 computed from first
  /// principles.  The unmix methods use the algebraically identical (and
  /// O(t) cheaper) quadratic form x.x - 2 a.b + a^T G a; this method exists
  /// so tests can pin the two against each other.
  [[nodiscard]] double explicit_error_sq(
      std::span<const float> pixel, std::span<const double> abundances) const;

 private:
  [[nodiscard]] std::vector<double> correlation_vector(
      std::span<const float> pixel) const;
  /// Quadratic-form error given the cached Gram matrix.
  [[nodiscard]] double quadratic_error_sq(
      double pixel_norm_sq, std::span<const double> corr,
      std::span<const double> abundances) const;

  Matrix signatures_;      // t x n, one endmember per row
  Matrix gram_;            // t x t
  Cholesky gram_factor_;   // factor of gram_
  /// G^-1 1 and 1^T G^-1 1 for the full endmember set: pixel-independent,
  /// so the sum-to-one solve of every first active-set round reuses them
  /// instead of re-solving per pixel.
  std::vector<double> ginv_ones_;
  double ginv_ones_sum_ = 0.0;
};

}  // namespace hprs::linalg
