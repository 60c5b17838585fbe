#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "linalg/target_clones.hpp"
#include "linalg/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace hprs::linalg {

namespace {

bool reference_from_env() {
  const char* v = std::getenv("HPRS_REFERENCE_KERNELS");
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0;
}

std::atomic<bool>& reference_flag() {
  static std::atomic<bool> flag{reference_from_env()};
  return flag;
}

}  // namespace

bool use_reference_kernels() {
  return reference_flag().load(std::memory_order_relaxed);
}

void set_reference_kernels(bool reference) {
  reference_flag().store(reference, std::memory_order_relaxed);
}

ScopedKernelPath::ScopedKernelPath(bool reference)
    : saved_(use_reference_kernels()) {
  set_reference_kernels(reference);
}

ScopedKernelPath::~ScopedKernelPath() { set_reference_kernels(saved_); }

ScratchArena::~ScratchArena() {
  if (high_water_ > 0) {
    obs::Metrics::instance().gauge_max("linalg.scratch_high_water_doubles",
                                       static_cast<double>(high_water_));
  }
}

std::span<double> ScratchArena::take(std::size_t n) {
  live_ += n;
  if (live_ > high_water_) high_water_ = live_;
  while (chunk_ < chunks_.size() && used_ + n > chunks_[chunk_].size()) {
    ++chunk_;
    used_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    chunks_.emplace_back(std::max(n, kMinChunk));
    used_ = 0;
  }
  std::span<double> s{chunks_[chunk_].data() + used_, n};
  used_ += n;
  return s;
}

namespace {

/// Shared implementation of dot_strip: 4 pixels x 2 matrix rows of
/// independent accumulators, reduction index k strictly ascending in each.
/// Processes pixels [p_begin, p_end); tile ownership is by 4-pixel groups,
/// so p_begin is always a multiple of 4 and only the final group (p_end ==
/// m) may be ragged.  Every pixel's accumulators are private to one call,
/// so any partition over groups yields bit-identical results.
template <typename T>
void dot_strip_range(const Matrix& u, const T* x, std::size_t p_begin,
                     std::size_t p_end, std::span<double> out) {
  const std::size_t t = u.rows();
  const std::size_t n = u.cols();
  std::size_t p = p_begin;
  for (; p + 4 <= p_end; p += 4) {
    const T* x0 = x + (p + 0) * n;
    const T* x1 = x + (p + 1) * n;
    const T* x2 = x + (p + 2) * n;
    const T* x3 = x + (p + 3) * n;
    std::size_t i = 0;
    for (; i + 2 <= t; i += 2) {
      const double* u0 = u.row(i).data();
      const double* u1 = u.row(i + 1).data();
      double a00 = 0.0, a01 = 0.0, a10 = 0.0, a11 = 0.0;
      double a20 = 0.0, a21 = 0.0, a30 = 0.0, a31 = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double b0 = u0[k];
        const double b1 = u1[k];
        const double v0 = static_cast<double>(x0[k]);
        const double v1 = static_cast<double>(x1[k]);
        const double v2 = static_cast<double>(x2[k]);
        const double v3 = static_cast<double>(x3[k]);
        a00 += b0 * v0;
        a01 += b1 * v0;
        a10 += b0 * v1;
        a11 += b1 * v1;
        a20 += b0 * v2;
        a21 += b1 * v2;
        a30 += b0 * v3;
        a31 += b1 * v3;
      }
      out[(p + 0) * t + i] = a00;
      out[(p + 0) * t + i + 1] = a01;
      out[(p + 1) * t + i] = a10;
      out[(p + 1) * t + i + 1] = a11;
      out[(p + 2) * t + i] = a20;
      out[(p + 2) * t + i + 1] = a21;
      out[(p + 3) * t + i] = a30;
      out[(p + 3) * t + i + 1] = a31;
    }
    for (; i < t; ++i) {
      const double* u0 = u.row(i).data();
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double b0 = u0[k];
        a0 += b0 * static_cast<double>(x0[k]);
        a1 += b0 * static_cast<double>(x1[k]);
        a2 += b0 * static_cast<double>(x2[k]);
        a3 += b0 * static_cast<double>(x3[k]);
      }
      out[(p + 0) * t + i] = a0;
      out[(p + 1) * t + i] = a1;
      out[(p + 2) * t + i] = a2;
      out[(p + 3) * t + i] = a3;
    }
  }
  for (; p < p_end; ++p) {
    const T* xp = x + p * n;
    for (std::size_t i = 0; i < t; ++i) {
      const double* u0 = u.row(i).data();
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += u0[k] * static_cast<double>(xp[k]);
      }
      out[p * t + i] = acc;
    }
  }
}

/// Contiguous 4-pixel-group ownership: worker w takes groups
/// [w*per, (w+1)*per) of the ceil(m/4) groups.  Disjoint output rows, so
/// the partition cannot perturb any element's addition chain.
template <typename T>
void dot_strip_impl(const Matrix& u, const T* x, std::size_t m,
                    std::span<double> out) {
  HPRS_ASSERT(out.size() >= m * u.rows());
  const std::size_t groups = (m + 3) / 4;
  parallel_region(groups, [&](std::size_t worker, std::size_t workers) {
    const std::size_t per = (groups + workers - 1) / workers;
    const std::size_t g0 = worker * per;
    const std::size_t g1 = std::min(groups, g0 + per);
    if (g0 >= g1) return;
    dot_strip_range(u, x, g0 * 4, std::min(m, g1 * 4), out);
  });
}

}  // namespace

void dot_strip(const Matrix& u, const float* x, std::size_t m,
               std::span<double> out) {
  dot_strip_impl(u, x, m, out);
}

void dot_strip(const Matrix& u, const double* x, std::size_t m,
               std::span<double> out) {
  dot_strip_impl(u, x, m, out);
}

void norm_sq_strip(const float* x, std::size_t m, std::size_t n,
                   std::span<double> out) {
  HPRS_ASSERT(out.size() >= m);
  // Each pixel's accumulator is independent; contiguous pixel blocks per
  // worker keep the out[] writes on disjoint cache lines.
  parallel_region(m, [&](std::size_t worker, std::size_t workers) {
    const std::size_t per = (m + workers - 1) / workers;
    const std::size_t p0 = worker * per;
    const std::size_t p1 = std::min(m, p0 + per);
    for (std::size_t p = p0; p < p1; ++p) {
      const float* xp = x + p * n;
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double v = static_cast<double>(xp[k]);
        acc += v * v;
      }
      out[p] = acc;
    }
  });
}

namespace {

/// L chains of dot_lanes in lockstep: sample i is added to every chain
/// before sample i + 1, and no chain ever mixes with another.
template <std::size_t L>
void dot_lockstep(const float* a, const float* const* b, std::size_t n,
                  double* out) {
  double acc[L] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(a[i]);
    for (std::size_t j = 0; j < L; ++j) {
      acc[j] += v * static_cast<double>(b[j][i]);
    }
  }
  for (std::size_t j = 0; j < L; ++j) out[j] = acc[j];
}

}  // namespace

HPRS_TARGET_CLONES
void dot_lanes(const float* a, const float* const* b, std::size_t k,
               std::size_t n, double* out) {
  std::size_t j = 0;
  for (; j + 8 <= k; j += 8) dot_lockstep<8>(a, b + j, n, out + j);
  for (; j + 4 <= k; j += 4) dot_lockstep<4>(a, b + j, n, out + j);
  switch (k - j) {
    case 3: dot_lockstep<3>(a, b + j, n, out + j); break;
    case 2: dot_lockstep<2>(a, b + j, n, out + j); break;
    case 1: dot_lockstep<1>(a, b + j, n, out + j); break;
    default: break;
  }
}

namespace {

HPRS_TARGET_CLONES
void syrk_tri_update_impl(const double* x, std::size_t m, std::size_t n,
                          double* tri, std::size_t worker,
                          std::size_t workers) {
  constexpr std::size_t kTi = 4;
  constexpr std::size_t kTj = 4;
  const auto offset = [n](std::size_t i) {
    return i * n - i * (i - 1) / 2;  // start of row i in the packed triangle
  };
  // Row-tile ownership, strided by worker: tile i0 owns triangle rows
  // [i0, i1), a disjoint slice of the packed array, and every element's
  // p-chain lives entirely inside one tile -- so any stride partition is
  // bit-identical to the serial sweep.  Striding (rather than contiguous
  // blocks) balances the triangle: early tiles carry long rectangular
  // remainders, late tiles short ones.
  for (std::size_t i0 = worker * kTi; i0 < n; i0 += workers * kTi) {
    const std::size_t i1 = std::min(i0 + kTi, n);
    // Triangular wedge j in [i, i1): too ragged to tile, done scalar.
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = i; j < i1; ++j) {
        double acc = tri[offset(i) + (j - i)];
        for (std::size_t p = 0; p < m; ++p) {
          const double* r = x + p * n;
          acc += r[i] * r[j];
        }
        tri[offset(i) + (j - i)] = acc;
      }
    }
    // Rectangular remainder j in [i1, n): full register tiles.
    for (std::size_t j0 = i1; j0 < n; j0 += kTj) {
      const std::size_t j1 = std::min(j0 + kTj, n);
      if (i1 - i0 == kTi && j1 - j0 == kTj) {
        double acc[kTi][kTj];
        for (std::size_t a = 0; a < kTi; ++a) {
          for (std::size_t b = 0; b < kTj; ++b) {
            acc[a][b] = tri[offset(i0 + a) + (j0 + b) - (i0 + a)];
          }
        }
        for (std::size_t p = 0; p < m; ++p) {
          const double* r = x + p * n;
          const double d0 = r[i0 + 0];
          const double d1 = r[i0 + 1];
          const double d2 = r[i0 + 2];
          const double d3 = r[i0 + 3];
          for (std::size_t b = 0; b < kTj; ++b) {
            const double e = r[j0 + b];
            acc[0][b] += d0 * e;
            acc[1][b] += d1 * e;
            acc[2][b] += d2 * e;
            acc[3][b] += d3 * e;
          }
        }
        for (std::size_t a = 0; a < kTi; ++a) {
          for (std::size_t b = 0; b < kTj; ++b) {
            tri[offset(i0 + a) + (j0 + b) - (i0 + a)] = acc[a][b];
          }
        }
      } else {
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t j = j0; j < j1; ++j) {
            double acc = tri[offset(i) + (j - i)];
            for (std::size_t p = 0; p < m; ++p) {
              const double* r = x + p * n;
              acc += r[i] * r[j];
            }
            tri[offset(i) + (j - i)] = acc;
          }
        }
      }
    }
  }
}

}  // namespace

void syrk_tri_update(const double* x, std::size_t m, std::size_t n,
                     double* tri) {
  const std::size_t tiles = (n + 3) / 4;
  parallel_region(tiles, [&](std::size_t worker, std::size_t workers) {
    syrk_tri_update_impl(x, m, n, tri, worker, workers);
  });
}

}  // namespace hprs::linalg
