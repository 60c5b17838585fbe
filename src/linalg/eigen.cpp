#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/error.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"

namespace hprs::linalg {

namespace {

/// Sum of squares of strictly-off-diagonal entries, in row-major order.
double off_diagonal_sq(const Matrix& a) {
  const std::size_t n = a.cols();
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* r = a.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) s += r[j] * r[j];
    }
  }
  return s;
}

/// One memoized solve: the exact key (dimensions, tolerance bits, sweep cap
/// and a copy of the input bytes) and the decomposition it produced.
struct MemoEntry {
  std::size_t rows = 0;
  std::size_t cols = 0;
  double tol = 0.0;
  int max_sweeps = 0;
  std::vector<double> input;
  EigenDecomposition result;
};

bool same_key(const MemoEntry& e, std::size_t rows, std::size_t cols,
              const double* input, double tol, int max_sweeps) {
  // Bytes, not values: -0.0 and 0.0 compare equal but can produce bitwise
  // different decompositions (a -0.0 diagonal entry comes back as a -0.0
  // eigenvalue), so they must not share an entry.
  return e.rows == rows && e.cols == cols && e.max_sweeps == max_sweeps &&
         std::memcmp(&e.tol, &tol, sizeof tol) == 0 &&
         std::memcmp(e.input.data(), input,
                     e.input.size() * sizeof(double)) == 0;
}

/// Process-wide LRU of kEigenMemoEntries solves.  The mutex guards only
/// the list: it is never held during a solve or while copying a result
/// out, so no executor fiber can park while holding it.
class EigenMemo {
 public:
  [[nodiscard]] static EigenMemo& instance() {
    static EigenMemo memo;
    return memo;
  }

  /// The entry matching the key, promoted to most recently used; null on
  /// a miss.
  std::shared_ptr<const MemoEntry> find(const Matrix& m, double tol,
                                        int max_sweeps) {
    const std::lock_guard lock(mutex_);
    return promote(m.rows(), m.cols(), m.data().data(), tol, max_sweeps);
  }

  /// Inserts a solved entry as most recently used, evicting the least
  /// recently used beyond the bound.  A concurrent miss on the same key
  /// may have inserted first; the existing entry is kept.
  void insert(std::shared_ptr<const MemoEntry> entry) {
    const std::lock_guard lock(mutex_);
    if (promote(entry->rows, entry->cols, entry->input.data(), entry->tol,
                entry->max_sweeps) != nullptr) {
      return;
    }
    lru_.push_front(std::move(entry));
    if (lru_.size() > kEigenMemoEntries) lru_.pop_back();
  }

 private:
  EigenMemo() = default;

  std::shared_ptr<const MemoEntry> promote(std::size_t rows, std::size_t cols,
                                           const double* input, double tol,
                                           int max_sweeps) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (same_key(**it, rows, cols, input, tol, max_sweeps)) {
        lru_.splice(lru_.begin(), lru_, it);
        return lru_.front();
      }
    }
    return nullptr;
  }

  std::mutex mutex_;
  std::list<std::shared_ptr<const MemoEntry>> lru_;
};

}  // namespace

EigenDecomposition jacobi_eigen(const Matrix& symmetric, double tol,
                                int max_sweeps) {
  HPRS_REQUIRE(symmetric.rows() == symmetric.cols(),
               "eigendecomposition requires a square matrix");
  const std::size_t n = symmetric.rows();
  HPRS_REQUIRE(n > 0, "empty matrix");

  Matrix a = symmetric;
  // The eigenvector accumulator is stored transposed (vt(p, k) == v(k, p))
  // so each rotation updates two contiguous rows.  A is not mirrored: after
  // a rotation its (p, q) and (q, p) corners differ bitwise, so its column
  // update stays a strided pass ahead of the row update.
  Matrix vt = Matrix::identity(n);
  double* ad = a.data().data();

  double diag_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) diag_sq += a(i, i) * a(i, i);
  const double stop = tol * tol * std::max(diag_sq, 1e-300);

  EigenDecomposition out;
  while (out.sweeps < max_sweeps && off_diagonal_sq(a) > stop) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (apq == 0.0) continue;
        // 2x2 symmetric Schur decomposition (Golub & Van Loan, Alg. 8.4.1).
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation to columns p and q of A, then to rows p and q.
        for (std::size_t k = 0; k < n; ++k) {
          double* ak = ad + k * n;
          const double akp = ak[p];
          const double akq = ak[q];
          ak[p] = c * akp - s * akq;
          ak[q] = s * akp + c * akq;
        }
        double* ap = ad + p * n;
        double* aq = ad + q * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = ap[k];
          const double aqk = aq[k];
          ap[k] = c * apk - s * aqk;
          aq[k] = s * apk + c * aqk;
        }
        // Accumulate the eigenvector rotation.
        double* vp = vt.row(p).data();
        double* vq = vt.row(q).data();
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vp[k];
          const double vkq = vq[k];
          vp[k] = c * vkp - s * vkq;
          vq[k] = s * vkp + c * vkq;
        }
      }
    }
    ++out.sweeps;
  }
  HPRS_REQUIRE(off_diagonal_sq(a) <= stop || max_sweeps == 0,
               "Jacobi eigensolver did not converge");

  // Sort eigenpairs by decreasing eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i) > a(j, j);
  });

  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a(order[k], order[k]);
    const auto src = vt.row(order[k]);
    std::copy(src.begin(), src.end(), out.vectors.row(k).begin());
  }
  return out;
}

EigenDecomposition jacobi_eigen_memo(const Matrix& symmetric, double tol,
                                     int max_sweeps) {
  auto& memo = EigenMemo::instance();
  auto& metrics = obs::Metrics::instance();
  // Host domain: which calls hit depends on process history and on how
  // concurrent callers interleave, never on the virtual-time model.
  if (const auto hit = memo.find(symmetric, tol, max_sweeps)) {
    metrics.add("linalg.eigen.memo_hits", 1, obs::Domain::kHost);
    return hit->result;
  }
  metrics.add("linalg.eigen.memo_misses", 1, obs::Domain::kHost);

  auto entry = std::make_shared<MemoEntry>();
  {
    const obs::ScopedHostTimer timer("linalg.eigen");
    entry->result = jacobi_eigen(symmetric, tol, max_sweeps);
  }
  entry->rows = symmetric.rows();
  entry->cols = symmetric.cols();
  entry->tol = tol;
  entry->max_sweeps = max_sweeps;
  entry->input.assign(symmetric.data().begin(), symmetric.data().end());
  EigenDecomposition out = entry->result;
  memo.insert(std::move(entry));
  return out;
}

}  // namespace hprs::linalg
