#include "core/ufcls.hpp"

#include <algorithm>
#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "linalg/fcls.hpp"
#include "linalg/flops.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using detail::Candidate;
using detail::ErrorSweepOut;
using linalg::flops::Count;

/// The brightest pixel of rows [row_begin, row_end) plus the flop charge.
struct BrightestOut {
  Candidate best{0, 0, -1.0};
  Count flops = 0;
};

BrightestOut brightest_sweep(const hsi::HsiCube& cube, std::size_t row_begin,
                             std::size_t row_end) {
  BrightestOut out;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const double score = linalg::norm_sq(cube.pixel(r, c));
      out.flops += linalg::flops::dot(cube.bands());
      if (score > out.best.score) out.best = Candidate{r, c, score};
    }
  }
  return out;
}

}  // namespace

/// The fault-tolerant schedule (core/ft.hpp): identical chunk kernels and
/// chunk-order folds, driven over point-to-point operations only.
ft::Program ufcls_ft_program(const hsi::HsiCube& cube,
                             const UfclsConfig& config,
                             TargetDetectionResult& result) {
  ft::Program prog;
  prog.model = ufcls_workload(cube.bands(), config.targets);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  // Phase 0: the chunk's brightest pixel.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        const BrightestOut out =
            brightest_sweep(cube, chunk.part.row_begin, chunk.part.row_end);
        c.compute(out.flops * config.replication);
        return ft::ChunkOutcome{out.best, detail::kCandidateBytes};
      });
  // Phase 1: the chunk's FCLS error argmax against the shipped targets.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& u = std::any_cast<const linalg::Matrix&>(*payload);
        const linalg::Unmixer unmixer(u);
        c.compute(linalg::flops::gram(cube.bands(), u.rows()) +
                  linalg::flops::cholesky(u.rows()));
        // A plane per call: chunks move between workers across phases, so
        // the handler keeps no state from one command to the next.
        detail::CorrPlane plane;
        plane.sync(cube, chunk.part.row_begin, chunk.part.row_end, u,
                   u.rows());
        const ErrorSweepOut out = detail::fcls_error_sweep(
            cube, u, unmixer, chunk.part.row_begin, chunk.part.row_end, plane);
        c.compute(out.flops * config.replication);
        return ft::ChunkOutcome{out.best, detail::kCandidateBytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& master,
                                         const std::vector<ft::Handler>& h) {
    const auto as_candidates = [](const std::vector<std::any>& results) {
      std::vector<Candidate> cands;
      cands.reserve(results.size());
      for (const auto& r : results) {
        cands.push_back(std::any_cast<Candidate>(r));
      }
      return cands;
    };

    // Step 1: the brightest pixel seeds the target set (chunk-order fold).
    const auto seeds = as_candidates(master.phase(0, h[0]));
    Candidate best{0, 0, -std::numeric_limits<double>::infinity()};
    for (const auto& c : seeds) {
      if (c.score > best.score) best = c;
    }
    comm.compute(linalg::flops::dot(cube.bands()) * seeds.size(),
                 vmpi::Phase::kSequential);
    std::vector<PixelLocation> found{{best.row, best.col}};
    linalg::Matrix targets;
    targets.append_row(detail::to_double(cube.pixel(best.row, best.col)));

    // Steps 2-5: grow the target set by maximum reconstruction error.
    while (found.size() < config.targets) {
      const std::size_t t_cur = targets.rows();
      const std::size_t u_bytes = t_cur * cube.bands() * sizeof(double);
      auto payload = std::make_shared<const std::any>(targets);
      const auto round = as_candidates(master.phase(1, h[1], payload, u_bytes));
      Candidate next{0, 0, -std::numeric_limits<double>::infinity()};
      for (const auto& c : round) {
        if (c.score > next.score) next = c;
      }
      comm.compute(linalg::flops::fcls(cube.bands(), t_cur, 2) * round.size(),
                   vmpi::Phase::kSequential);
      found.push_back({next.row, next.col});
      targets.append_row(detail::to_double(cube.pixel(next.row, next.col)));
    }
    master.finish();
    result.targets = std::move(found);
  };
  return prog;
}

WorkloadModel ufcls_workload(std::size_t bands, std::size_t targets) {
  // Brightness pass plus t-1 unmixing passes; assume a couple of active-set
  // iterations per pixel on average.
  Count flops = linalg::flops::dot(bands);
  for (std::size_t t = 1; t < targets; ++t) {
    flops += linalg::flops::fcls(bands, t, 2);
  }
  WorkloadModel model;
  model.flops_per_pixel = static_cast<double>(flops);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = static_cast<double>(targets);
  return model;
}

void ufcls_body(vmpi::Comm& comm, const hsi::HsiCube& cube,
                const UfclsConfig& config, TargetDetectionResult& result) {
  WorkloadModel model = ufcls_workload(cube.bands(), config.targets);
  model.scatter_input = config.charge_data_staging;
  const PartitionView view = detail::distribute_partitions(
      comm, cube, model, config.policy, config.memory_fraction,
      /*overlap=*/0, config.replication);

  // Step 1: the brightest pixel seeds the target set.
  const BrightestOut seed =
      brightest_sweep(cube, view.part.row_begin, view.part.row_end);
  comm.compute(seed.flops * config.replication);
  const auto seeds =
      comm.gather(comm.root(), seed.best, detail::kCandidateBytes);

  linalg::Matrix targets;
  std::vector<PixelLocation> found;
  if (comm.is_root()) {
    Candidate best{0, 0, -std::numeric_limits<double>::infinity()};
    for (const auto& c : seeds) {
      if (c.score > best.score) best = c;
    }
    comm.compute(linalg::flops::dot(cube.bands()) * seeds.size(),
                 vmpi::Phase::kSequential);
    found.push_back({best.row, best.col});
    targets.append_row(detail::to_double(cube.pixel(best.row, best.col)));
  }

  // Steps 2-5: grow the target set by maximum FCLS reconstruction error.
  // The broadcast is shared: every rank unmixes against one immutable
  // copy of the target matrix; only the master re-owns it to grow it.
  // U^T x and ||x||^2 of the owned rows; each round adds only the newest
  // target's row.
  detail::CorrPlane plane;
  while (true) {
    // Only the root's payload (and wire size) reaches the engine.
    const std::size_t u_bytes =
        comm.is_root() ? targets.rows() * cube.bands() * sizeof(double) : 0;
    const auto u_view =
        comm.bcast_shared(comm.root(), std::move(targets), u_bytes);
    const std::size_t t_cur = u_view->rows();
    if (t_cur >= config.targets) break;

    const linalg::Unmixer unmixer(*u_view);
    comm.compute(linalg::flops::gram(cube.bands(), t_cur) +
                 linalg::flops::cholesky(t_cur));

    plane.sync(cube, view.part.row_begin, view.part.row_end, *u_view,
               config.targets);
    const ErrorSweepOut sweep =
        detail::fcls_error_sweep(cube, *u_view, unmixer, view.part.row_begin,
                                 view.part.row_end, plane);
    comm.compute(sweep.flops * config.replication);

    const auto round =
        comm.gather(comm.root(), sweep.best, detail::kCandidateBytes);
    if (comm.is_root()) {
      Candidate best{0, 0, -std::numeric_limits<double>::infinity()};
      for (const auto& c : round) {
        if (c.score > best.score) best = c;
      }
      comm.compute(
          linalg::flops::fcls(cube.bands(), t_cur, 2) * round.size(),
          vmpi::Phase::kSequential);
      found.push_back({best.row, best.col});
      targets = *u_view;  // re-own the shared target set to grow it
      targets.append_row(detail::to_double(cube.pixel(best.row, best.col)));
    }
    // Non-root ranks leave `targets` empty; the next bcast refreshes it.
  }

  if (comm.is_root()) {
    result.targets = std::move(found);
  }
}

TargetDetectionResult run_ufcls(const simnet::Platform& platform,
                                const hsi::HsiCube& cube,
                                const UfclsConfig& config,
                                vmpi::Options options) {
  HPRS_REQUIRE(config.targets >= 1, "need at least one target");
  HPRS_REQUIRE(!cube.empty(), "empty cube");

  vmpi::Engine engine(platform, options);
  TargetDetectionResult result;

  if (config.fault_tolerant) {
    ft::require_immortal_root(options);
    const ft::Program prog = ufcls_ft_program(cube, config, result);
    result.report = engine.run(
        [&](vmpi::Comm& comm) { ft::run_program(comm, cube, prog); });
    return result;
  }
  result.report = engine.run(
      [&](vmpi::Comm& comm) { ufcls_body(comm, cube, config, result); });
  return result;
}

}  // namespace hprs::core
