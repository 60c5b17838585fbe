// Google-benchmark microbenchmarks of the numeric kernels that dominate the
// algorithms' inner loops.  These measure *real* wall time on the host --
// they calibrate how expensive a simulated experiment is to run, and guard
// against performance regressions in the kernels themselves.
//
// The *_Reference / *_Fast pairs pin the scalar loops against the blocked
// kernels (linalg/kernels.hpp) on the dominant sweeps: the MORPH windowed
// eccentricity pass, the PCT covariance accumulation, the ATDCA OSP sweep
// and the PPI projection pass; the *_Plane benches measure one
// incremental ATDCA/UFCLS round, and BM_CholeskySolve{PerPixel,Strip} pin
// one strip of per-pixel back-solves against the multi-right-hand-side
// solve.
// Pass --json <path> (conventionally BENCH_kernels.json) for a
// machine-readable ns/op (median, min, max over the repetitions) + bytes/op
// summary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/morph_kernel.hpp"
#include "core/ppi.hpp"
#include "core/spmd_common.hpp"
#include "hsi/cube.hpp"
#include "hsi/metrics.hpp"
#include "linalg/eigen.hpp"
#include "linalg/fcls.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "linalg/thread_pool.hpp"
#include "linalg/vec.hpp"

namespace {

using namespace hprs;

std::vector<float> random_pixel(std::size_t bands, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> px(bands);
  for (auto& v : px) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return px;
}

linalg::Matrix random_targets(std::size_t count, std::size_t bands,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::Matrix m(count, bands);
  for (std::size_t r = 0; r < count; ++r) {
    const double shift = rng.uniform(0, 3);
    for (std::size_t b = 0; b < bands; ++b) {
      m(r, b) = 0.3 + 0.2 * std::sin(shift + 0.05 * static_cast<double>(b)) +
                0.01 * rng.uniform();
    }
  }
  return m;
}

void BM_Sad(benchmark::State& state) {
  const auto bands = static_cast<std::size_t>(state.range(0));
  const auto a = random_pixel(bands, 1);
  const auto b = random_pixel(bands, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsi::sad<float, float>(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Sad)->Arg(32)->Arg(224);

void BM_Sid(benchmark::State& state) {
  const auto a = random_pixel(224, 3);
  const auto b = random_pixel(224, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hsi::sid<float>(a, b));
  }
}
BENCHMARK(BM_Sid);

void BM_OspScore(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix targets = random_targets(t, 224, 5);
  const linalg::Cholesky gram(
      [&] {
        linalg::Matrix g = targets.multiply(targets.transposed());
        for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += 1e-6;
        return g;
      }());
  const auto px = random_pixel(224, 6);
  for (auto _ : state) {
    std::vector<double> b(t);
    for (std::size_t i = 0; i < t; ++i) {
      b[i] = linalg::dot<double, float>(targets.row(i), px);
    }
    const auto z = gram.solve(b);
    benchmark::DoNotOptimize(linalg::norm_sq<float>(px) -
                             linalg::dot<double, double>(b, z));
  }
}
BENCHMARK(BM_OspScore)->Arg(2)->Arg(9)->Arg(18);

void BM_Fcls(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const linalg::Unmixer unmixer(random_targets(t, 224, 7));
  const auto px = random_pixel(224, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unmixer.fcls(px));
  }
}
BENCHMARK(BM_Fcls)->Arg(2)->Arg(9)->Arg(18);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(9);
  linalg::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  const linalg::Matrix cov = b.gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen(cov));
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(32)->Arg(64)->Arg(224)
    ->Unit(benchmark::kMillisecond);

/// The PCT path's memoized solve when the covariance repeats: one untimed
/// solve fills the memo, so every timed call is a hit (key compare plus a
/// copy of the cached decomposition).  BM_JacobiEigen keeps timing the
/// pure solver.
void BM_JacobiEigenMemoHit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(9);
  linalg::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  const linalg::Matrix cov = b.gram();
  benchmark::DoNotOptimize(linalg::jacobi_eigen_memo(cov));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eigen_memo(cov));
  }
}
BENCHMARK(BM_JacobiEigenMemoHit)->Arg(224)->Unit(benchmark::kMicrosecond);

void BM_CovarianceAccumulation(benchmark::State& state) {
  // The per-pixel covariance update that dominates PCT's parallel phase.
  const std::size_t bands = 224;
  const auto px = random_pixel(bands, 10);
  std::vector<double> mean(bands, 0.4);
  std::vector<double> centered(bands);
  std::vector<double> tri(bands * (bands + 1) / 2, 0.0);
  for (auto _ : state) {
    for (std::size_t b = 0; b < bands; ++b) {
      centered[b] = static_cast<double>(px[b]) - mean[b];
    }
    std::size_t k = 0;
    for (std::size_t i = 0; i < bands; ++i) {
      const double di = centered[i];
      for (std::size_t j = i; j < bands; ++j) {
        tri[k++] += di * centered[j];
      }
    }
    benchmark::DoNotOptimize(tri.data());
  }
}
BENCHMARK(BM_CovarianceAccumulation);

void BM_CholeskyFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(11);
  linalg::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  linalg::Matrix spd = b.gram();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Cholesky(spd));
  }
}
BENCHMARK(BM_CholeskyFactorization)->Arg(18)->Arg(64);

void BM_CholeskySolve(benchmark::State& state, bool strip) {
  // One 64-pixel strip of ATDCA back-solves against a t x t Gram factor:
  // per pixel (one substitution chain at a time) or as one multi-right-
  // hand-side call (independent pixels' chains in lockstep).
  const auto t = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kStrip = 64;
  Xoshiro256 rng(18);
  linalg::Matrix b(t, t);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  linalg::Matrix spd = b.gram();
  for (std::size_t i = 0; i < t; ++i) spd(i, i) += static_cast<double>(t);
  const linalg::Cholesky chol(spd);
  std::vector<double> rhs(kStrip * t);
  for (auto& v : rhs) v = rng.uniform(-1, 1);
  std::vector<double> y(kStrip * t);
  const std::span<const double> bs(rhs);
  const std::span<double> ys(y);
  for (auto _ : state) {
    if (strip) {
      chol.solve_strip_into(bs, kStrip, ys);
    } else {
      for (std::size_t p = 0; p < kStrip; ++p) {
        chol.solve_into(bs.subspan(p * t, t), ys.subspan(p * t, t));
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["bytes_per_op"] =
      static_cast<double>((2 * kStrip * t + t * t) * sizeof(double));
}
void BM_CholeskySolvePerPixel(benchmark::State& state) {
  BM_CholeskySolve(state, false);
}
void BM_CholeskySolveStrip(benchmark::State& state) {
  BM_CholeskySolve(state, true);
}
BENCHMARK(BM_CholeskySolvePerPixel)->ArgName("t")->Arg(9)->Arg(18);
BENCHMARK(BM_CholeskySolveStrip)->ArgName("t")->Arg(9)->Arg(18);

// --- Paired reference/fast benchmarks of the dominant sweeps --------------

hsi::HsiCube random_cube(std::size_t rows, std::size_t cols,
                         std::size_t bands, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> samples(rows * cols * bands);
  for (auto& v : samples) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return hsi::HsiCube(rows, cols, bands, std::move(samples));
}

void BM_MatrixMultiply(benchmark::State& state, bool reference) {
  const linalg::ScopedKernelPath path(reference);
  const std::size_t n = 96;
  const std::size_t k = 224;
  Xoshiro256 rng(12);
  linalg::Matrix a(n, k);
  linalg::Matrix b(k, n);
  for (auto& v : a.data()) v = rng.uniform(-1, 1);
  for (auto& v : b.data()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.multiply(b));
  }
  state.counters["bytes_per_op"] = static_cast<double>(
      (n * k + k * n + n * n) * sizeof(double));
}
void BM_MatrixMultiply_Reference(benchmark::State& state) {
  BM_MatrixMultiply(state, true);
}
void BM_MatrixMultiply_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_MatrixMultiply(state, false);
}
BENCHMARK(BM_MatrixMultiply_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MatrixMultiply_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_MorphWindow(benchmark::State& state, bool reference) {
  // One full MORPH erosion/dilation/MEI iteration on a worker-sized block:
  // the windowed SAD pass this pair measures is the paper's dominant kernel.
  const linalg::ScopedKernelPath path(reference);
  const std::size_t rows = 16;
  const std::size_t cols = 16;
  const std::size_t bands = 224;
  const std::size_t radius = 2;
  core::MorphBlockEngine engine(random_cube(rows, cols, bands, 13), radius);
  for (auto _ : state) {
    engine.iterate(/*last=*/false);
    benchmark::DoNotOptimize(engine.mei().data());
  }
  const double window = static_cast<double>((2 * radius + 1) * (2 * radius + 1));
  state.counters["bytes_per_op"] = static_cast<double>(rows * cols * bands) *
                                   sizeof(float) * (window + 1.0);
}
void BM_MorphWindow_Reference(benchmark::State& state) {
  BM_MorphWindow(state, true);
}
void BM_MorphWindow_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_MorphWindow(state, false);
}
BENCHMARK(BM_MorphWindow_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MorphWindow_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PctCovariance(benchmark::State& state, bool reference) {
  // A 64-pixel strip of PCT's centered covariance accumulation: per-pixel
  // rank-1 updates against one rank-64 syrk update of the packed triangle.
  const std::size_t bands = 224;
  const std::size_t strip = 64;
  const std::size_t tri_n = bands * (bands + 1) / 2;
  Xoshiro256 rng(14);
  std::vector<double> centered(strip * bands);
  for (auto& v : centered) v = rng.uniform(-0.5, 0.5);
  std::vector<double> tri(tri_n, 0.0);
  for (auto _ : state) {
    if (reference) {
      for (std::size_t p = 0; p < strip; ++p) {
        const double* cp = centered.data() + p * bands;
        std::size_t k = 0;
        for (std::size_t i = 0; i < bands; ++i) {
          const double di = cp[i];
          for (std::size_t j = i; j < bands; ++j) {
            tri[k++] += di * cp[j];
          }
        }
      }
    } else {
      linalg::syrk_tri_update(centered.data(), strip, bands, tri.data());
    }
    benchmark::DoNotOptimize(tri.data());
  }
  state.counters["bytes_per_op"] = static_cast<double>(
      (strip * bands + 2 * tri_n) * sizeof(double));
}
void BM_PctCovariance_Reference(benchmark::State& state) {
  BM_PctCovariance(state, true);
}
void BM_PctCovariance_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_PctCovariance(state, false);
}
BENCHMARK(BM_PctCovariance_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PctCovariance_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PctCovariance_Tiled(benchmark::State& state) {
  // The same strip as BM_PctCovariance_Fast, accumulated tile by tile over
  // the row-tile plan the streamed engine driver walks (16-pixel tiles into
  // one shared triangle): pins the tiling overhead of the steady-state
  // runtime against the monolithic syrk, which this must track closely.
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  const std::size_t bands = 224;
  const std::size_t strip = 64;
  const std::size_t tri_n = bands * (bands + 1) / 2;
  Xoshiro256 rng(14);
  std::vector<double> centered(strip * bands);
  for (auto& v : centered) v = rng.uniform(-0.5, 0.5);
  const auto tiles =
      core::detail::make_row_tiles(0, strip, bands * sizeof(double), 16);
  std::vector<double> tri(tri_n, 0.0);
  for (auto _ : state) {
    for (const auto& t : tiles) {
      linalg::syrk_tri_update(centered.data() + t.row_begin * bands, t.rows(),
                              bands, tri.data());
    }
    benchmark::DoNotOptimize(tri.data());
  }
  state.counters["bytes_per_op"] = static_cast<double>(
      (strip * bands + 2 * tri_n) * sizeof(double));
}
BENCHMARK(BM_PctCovariance_Tiled)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_OspSweep(benchmark::State& state, bool reference) {
  // ATDCA's per-round argmax of the OSP score over a 32x32 block with nine
  // current targets.  The fast path builds the block's correlation plane
  // from scratch every iteration (all nine rows), as the fault-tolerant
  // chunk handler does; BM_OspSweep_Plane measures the incremental round.
  const linalg::ScopedKernelPath path(reference);
  const std::size_t t = 9;
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 15);
  const linalg::Matrix targets = random_targets(t, bands, 16);
  const linalg::Cholesky gram(core::detail::ridged_row_gram(targets));
  linalg::ScratchArena arena;
  for (auto _ : state) {
    core::detail::CorrPlane plane;
    if (!reference) plane.sync(cube, 0, cube.rows(), targets, t);
    benchmark::DoNotOptimize(core::detail::osp_argmax_sweep(
        targets, gram, cube, 0, cube.rows(), plane, arena));
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(t * bands) * sizeof(double);
}
void BM_OspSweep_Reference(benchmark::State& state) {
  BM_OspSweep(state, true);
}
void BM_OspSweep_Fast(benchmark::State& state) {
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  BM_OspSweep(state, false);
}
BENCHMARK(BM_OspSweep_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OspSweep_Fast)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_OspSweep_Tiled(benchmark::State& state) {
  // BM_OspSweep_Fast cut into the 8-row tiles the streamed driver sweeps,
  // per-tile argmaxes folded strictly-greater in tile order (the runtime's
  // order-preserving fold): pins the tiling overhead of the OSP sweep.
  const linalg::ScopedKernelThreads threads(
      static_cast<std::size_t>(state.range(0)));
  const linalg::ScopedKernelPath path(false);
  const std::size_t t = 9;
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 15);
  const linalg::Matrix targets = random_targets(t, bands, 16);
  const linalg::Cholesky gram(core::detail::ridged_row_gram(targets));
  const auto tiles = core::detail::make_row_tiles(
      0, cube.rows(), cube.cols() * cube.bands() * sizeof(float), 8);
  linalg::ScratchArena arena;
  for (auto _ : state) {
    core::detail::CorrPlane plane;
    plane.sync(cube, 0, cube.rows(), targets, t);
    auto best = core::detail::osp_argmax_sweep(targets, gram, cube,
                                               tiles[0].row_begin,
                                               tiles[0].row_end, plane, arena);
    for (std::size_t i = 1; i < tiles.size(); ++i) {
      const auto cand = core::detail::osp_argmax_sweep(
          targets, gram, cube, tiles[i].row_begin, tiles[i].row_end, plane,
          arena);
      if (cand.score > best.score) best = cand;
    }
    benchmark::DoNotOptimize(best);
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(t * bands) * sizeof(double);
}
BENCHMARK(BM_OspSweep_Tiled)
    ->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Two t-target matrices that share their first t-1 rows.  Syncing one
/// correlation plane to each in turn recomputes exactly the last row: the
/// steady state of a Hetero-ATDCA/UFCLS round, which appends one target.
std::array<linalg::Matrix, 2> round_targets(std::size_t t,
                                            std::size_t bands) {
  std::array<linalg::Matrix, 2> u{random_targets(t, bands, 16),
                                  random_targets(t, bands, 16)};
  const linalg::Matrix last = random_targets(1, bands, 17);
  std::copy(last.row(0).begin(), last.row(0).end(), u[1].row(t - 1).begin());
  return u;
}

void BM_OspSweep_Plane(benchmark::State& state) {
  // One ATDCA round at t targets over a 32x32 block: the plane adds the
  // newest target's row, then the sweep back-solves every pixel.
  const linalg::ScopedKernelPath path(false);
  const auto t = static_cast<std::size_t>(state.range(0));
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 15);
  const auto u = round_targets(t, bands);
  const std::array<linalg::Cholesky, 2> gram{
      linalg::Cholesky(core::detail::ridged_row_gram(u[0])),
      linalg::Cholesky(core::detail::ridged_row_gram(u[1]))};
  core::detail::CorrPlane plane;
  linalg::ScratchArena arena;
  std::size_t k = 0;
  for (auto _ : state) {
    k ^= 1;
    plane.sync(cube, 0, cube.rows(), u[k], t);
    benchmark::DoNotOptimize(core::detail::osp_argmax_sweep(
        u[k], gram[k], cube, 0, cube.rows(), plane, arena));
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(cube.pixel_count() * t) * sizeof(double);
}
BENCHMARK(BM_OspSweep_Plane)
    ->ArgName("t")->Arg(9)->Arg(18)
    ->Unit(benchmark::kMillisecond);

void BM_FclsSweep(benchmark::State& state, bool incremental) {
  // One UFCLS round at t targets over a 32x32 block.  Fast: the plane is
  // built from scratch (all t rows), as the fault-tolerant chunk handler
  // does; Plane: it adds only the newest target's row.
  const linalg::ScopedKernelPath path(false);
  const auto t = static_cast<std::size_t>(state.range(0));
  const std::size_t bands = 224;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 15);
  const auto u = round_targets(t, bands);
  const std::array<linalg::Unmixer, 2> unmixer{linalg::Unmixer(u[0]),
                                               linalg::Unmixer(u[1])};
  core::detail::CorrPlane plane;
  std::size_t k = 0;
  for (auto _ : state) {
    if (incremental) {
      k ^= 1;
    } else {
      plane = core::detail::CorrPlane();
    }
    plane.sync(cube, 0, cube.rows(), u[k], t);
    benchmark::DoNotOptimize(core::detail::fcls_error_sweep(
        cube, u[k], unmixer[k], 0, cube.rows(), plane));
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(cube.pixel_count() * t) * sizeof(double);
}
void BM_FclsSweep_Fast(benchmark::State& state) { BM_FclsSweep(state, false); }
void BM_FclsSweep_Plane(benchmark::State& state) { BM_FclsSweep(state, true); }
BENCHMARK(BM_FclsSweep_Fast)
    ->ArgName("t")->Arg(9)->Arg(18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FclsSweep_Plane)
    ->ArgName("t")->Arg(9)->Arg(18)
    ->Unit(benchmark::kMillisecond);

void BM_PpiProjection(benchmark::State& state, bool reference) {
  // PPI's projection pass over a 32x32 block against 64 skewers: per-skewer
  // scalar dots, or pixel strips projected through dot_strip.
  const linalg::ScopedKernelPath path(reference);
  const std::size_t bands = 224;
  const std::size_t skewers = 64;
  const hsi::HsiCube cube = random_cube(32, 32, bands, 19);
  const linalg::Matrix sk = random_targets(skewers, bands, 20);
  std::vector<core::detail::SkewerExtreme> extremes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::detail::project_extremes(sk, cube, 0, cube.rows(), extremes));
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(cube.pixel_count() * bands) * sizeof(float) +
      static_cast<double>(skewers * bands) * sizeof(double);
}
void BM_PpiProjection_Reference(benchmark::State& state) {
  BM_PpiProjection(state, true);
}
void BM_PpiProjection_Fast(benchmark::State& state) {
  BM_PpiProjection(state, false);
}
BENCHMARK(BM_PpiProjection_Reference)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PpiProjection_Fast)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects ns/op + bytes/op per run for
/// the --json summary.  Under --benchmark_repetitions=N (N > 1) it records
/// the median aggregate, under the plain benchmark name (so the artifact's
/// key set does not depend on the repeat count), together with the min and
/// max ns/op of the N repetitions.
class KernelJsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      const bool repeated = run.repetitions > 1;
      if (repeated && run.run_type != Run::RT_Aggregate) {
        spread_[run.run_name.str()].push_back(ns_per_op(run));
        continue;
      }
      if (repeated && run.aggregate_name != "median") continue;
      bench::KernelRecord rec;
      rec.name = repeated ? run.run_name.str() : run.benchmark_name();
      rec.ns_per_op = ns_per_op(run);
      rec.ns_per_op_min = rec.ns_per_op_max = rec.ns_per_op;
      if (repeated) {
        const std::vector<double>& reps = spread_[rec.name];
        if (!reps.empty()) {
          const auto [lo, hi] = std::minmax_element(reps.begin(), reps.end());
          rec.ns_per_op_min = *lo;
          rec.ns_per_op_max = *hi;
          rec.repetitions = reps.size();
        }
      }
      const auto it = run.counters.find("bytes_per_op");
      if (it != run.counters.end()) {
        rec.bytes_per_op = static_cast<double>(it->second);
      }
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<bench::KernelRecord> records;

 private:
  static double ns_per_op(const Run& run) {
    return run.iterations > 0 ? run.real_accumulated_time /
                                    static_cast<double>(run.iterations) * 1e9
                              : 0.0;
  }

  /// ns/op of each repetition so far, by run name.
  std::map<std::string, std::vector<double>> spread_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::take_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t hw_threads = std::thread::hardware_concurrency();
  const std::size_t kernel_threads = linalg::kernel_threads();
  if (hw_threads != 0 && kernel_threads > hw_threads) {
    std::fprintf(stderr,
                 "bench_kernels: HPRS_KERNEL_THREADS=%zu exceeds the %zu "
                 "hardware threads; timings will include oversubscription "
                 "stalls and are not comparable to the committed artifact\n",
                 kernel_threads, hw_threads);
  }
  KernelJsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() &&
      !bench::write_kernel_json(json_path, reporter.records, hw_threads,
                                kernel_threads)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  benchmark::Shutdown();
  return 0;
}
