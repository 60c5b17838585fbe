#include "linalg/fcls.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "linalg/vec.hpp"

namespace hprs::linalg {

namespace {

/// The sum-to-one constrained solution via the Lagrangian closed form
///   a = a_u - G^-1 1 (1^T a_u - 1) / (1^T G^-1 1)
/// given the unconstrained solution a_u, G^-1 1 and its sum `denom`.
void scls_closed_form(std::span<const double> au,
                      std::span<const double> ginv1, double denom,
                      std::span<double> a) {
  const double sum_au = std::accumulate(au.begin(), au.end(), 0.0);
  HPRS_REQUIRE(std::abs(denom) > 1e-300, "degenerate sum-to-one system");
  const double lambda = (sum_au - 1.0) / denom;
  for (std::size_t i = 0; i < au.size(); ++i) a[i] = au[i] - lambda * ginv1[i];
}

}  // namespace

void FclsScratch::fit(std::size_t t) {
  if (abundances_.size() == t) return;
  work_.assign(6 * t + 2 * t * t, 0.0);
  index_.assign(2 * t, 0);
  double* w = work_.data();
  const auto take = [&w](std::size_t n) {
    const std::span<double> s{w, n};
    w += n;
    return s;
  };
  abundances_ = take(t);
  a_ = take(t);
  au_ = take(t);
  ginv1_ = take(t);
  ones_ = take(t);
  b_ = take(t);
  g_ = take(t * t);
  l_ = take(t * t);
  std::fill(ones_.begin(), ones_.end(), 1.0);
  active_ = {index_.data(), t};
  survivors_ = {index_.data() + t, t};
}

Unmixer::Unmixer(const Matrix& signatures)
    : signatures_(signatures),
      gram_(signatures.multiply(signatures.transposed())),
      gram_factor_(gram_) {
  HPRS_REQUIRE(signatures_.rows() > 0, "unmixer requires >= 1 endmember");
  const std::vector<double> ones(endmember_count(), 1.0);
  ginv_ones_ = gram_factor_.solve(ones);
  ginv_ones_sum_ =
      std::accumulate(ginv_ones_.begin(), ginv_ones_.end(), 0.0);
}

std::vector<double> Unmixer::correlation_vector(
    std::span<const float> pixel) const {
  HPRS_REQUIRE(pixel.size() == band_count(), "pixel band count mismatch");
  std::vector<double> corr(endmember_count());
  for (std::size_t i = 0; i < endmember_count(); ++i) {
    corr[i] = dot<double, float>(signatures_.row(i), pixel);
  }
  return corr;
}

double Unmixer::explicit_error_sq(std::span<const float> pixel,
                                  std::span<const double> abundances) const {
  std::vector<double> recon(band_count(), 0.0);
  for (std::size_t i = 0; i < endmember_count(); ++i) {
    axpy<double>(abundances[i], signatures_.row(i), recon);
  }
  double err = 0.0;
  for (std::size_t b = 0; b < band_count(); ++b) {
    const double d = static_cast<double>(pixel[b]) - recon[b];
    err += d * d;
  }
  return err;
}

double Unmixer::quadratic_error_sq(double pixel_norm_sq,
                                   std::span<const double> corr,
                                   std::span<const double> abundances) const {
  // ||x - M a||^2 = x.x - 2 a.b + a^T G a with b = M^T x, G = M^T M.
  double err = pixel_norm_sq - 2.0 * dot<double, double>(abundances, corr);
  const std::size_t t = endmember_count();
  for (std::size_t i = 0; i < t; ++i) {
    err += abundances[i] * dot<double, double>(gram_.row(i), abundances);
  }
  return err > 0.0 ? err : 0.0;  // clamp FP cancellation noise
}

UnmixResult Unmixer::ucls(std::span<const float> pixel) const {
  const std::vector<double> corr = correlation_vector(pixel);
  UnmixResult r;
  r.abundances = gram_factor_.solve(corr);
  r.error_sq = quadratic_error_sq(norm_sq(pixel), corr, r.abundances);
  return r;
}

UnmixResult Unmixer::scls(std::span<const float> pixel) const {
  const std::vector<double> corr = correlation_vector(pixel);
  UnmixResult r;
  const std::vector<double> au = gram_factor_.solve(corr);
  r.abundances.resize(endmember_count());
  scls_closed_form(au, ginv_ones_, ginv_ones_sum_, r.abundances);
  r.error_sq = quadratic_error_sq(norm_sq(pixel), corr, r.abundances);
  return r;
}

UnmixResult Unmixer::fcls(std::span<const float> pixel) const {
  const std::vector<double> corr = correlation_vector(pixel);
  FclsScratch scratch;
  const FclsStats stats = fcls_with_corr(corr, norm_sq(pixel), scratch);
  UnmixResult r;
  r.abundances.assign(scratch.abundances().begin(),
                      scratch.abundances().end());
  r.error_sq = stats.error_sq;
  r.iterations = stats.iterations;
  return r;
}

void Unmixer::full_set_solve(std::span<const double> corr, std::size_t m,
                             std::span<double> au) const {
  gram_factor_.solve_strip_into(corr, m, au);
}

FclsStats Unmixer::fcls_with_corr(std::span<const double> corr,
                                  double pixel_norm_sq, FclsScratch& scratch,
                                  std::span<const double> first_round) const {
  const std::size_t t = endmember_count();
  HPRS_ASSERT(first_round.empty() || first_round.size() == t);
  scratch.fit(t);
  std::span<std::size_t> active = scratch.active_;
  std::span<std::size_t> survivors = scratch.survivors_;
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::size_t m = t;  // active.size()

  FclsStats stats;
  // Active-set loop in the Heinz-Chang style: every endmember whose
  // abundance goes negative is clamped out and the sum-to-one problem is
  // re-solved on the survivors.  The active set shrinks every round, so at
  // most t-1 rounds run; in practice two or three suffice.  The first
  // round works on the full endmember set and reuses the factorization and
  // G^-1 1 vector cached at construction, which is what makes per-pixel
  // unmixing cheap.
  while (true) {
    const std::span<double> a = scratch.a_.first(m);
    const std::span<double> au = scratch.au_.first(m);
    if (m == t) {
      if (first_round.empty()) {
        gram_factor_.solve_into(corr, au);
        first_round = au;
      }
      scls_closed_form(first_round, ginv_ones_, ginv_ones_sum_, a);
    } else {
      // Sum-to-one solve restricted to the active endmembers: a fresh
      // factorization of the Gram submatrix.
      double* g = scratch.g_.data();
      double* l = scratch.l_.data();
      double* b = scratch.b_.data();
      const std::span<double> ginv1 = scratch.ginv1_.first(m);
      for (std::size_t i = 0; i < m; ++i) {
        b[i] = corr[active[i]];
        for (std::size_t j = 0; j < m; ++j) {
          g[i * m + j] = gram_(active[i], active[j]);
        }
      }
      cholesky_factor(g, m, l);
      cholesky_solve_pair(l, m, scratch.ones_.data(), b, ginv1.data(),
                          au.data());
      const double denom = std::accumulate(ginv1.begin(), ginv1.end(), 0.0);
      scls_closed_form(au, ginv1, denom, a);
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (a[i] >= -1e-12) survivors[kept++] = active[i];
    }
    if (kept == m || kept == 0 || m == 1) {
      std::fill(scratch.abundances_.begin(), scratch.abundances_.end(), 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        scratch.abundances_[active[i]] = std::max(a[i], 0.0);
      }
      break;
    }
    std::swap(active, survivors);
    m = kept;
    ++stats.iterations;
  }
  // Renormalize away the clamping residue so the sum-to-one constraint holds
  // exactly.
  const std::span<double> abundances = scratch.abundances_;
  const double s = std::accumulate(abundances.begin(), abundances.end(), 0.0);
  if (s > 0.0) {
    for (auto& v : abundances) v /= s;
  }
  stats.error_sq = quadratic_error_sq(pixel_norm_sq, corr, abundances);
  return stats;
}

}  // namespace hprs::linalg
