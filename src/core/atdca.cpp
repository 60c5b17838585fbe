#include "core/atdca.hpp"

#include <any>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "linalg/flops.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using detail::Candidate;
using linalg::flops::Count;

/// First row-major argmax of the squared norm over rows
/// [row_begin, row_end), plus the flops performed.  Tiles of a partition
/// fold their results with the same strictly-greater comparison in tile
/// order, which reproduces the monolithic sweep's first-maximum exactly.
struct BrightOut {
  Candidate best{0, 0, -1.0};
  Count flops = 0;
};

BrightOut brightest_range(const hsi::HsiCube& cube, std::size_t row_begin,
                          std::size_t row_end) {
  BrightOut out;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (std::size_t c = 0; c < cube.cols(); ++c) {
      const double score = linalg::norm_sq(cube.pixel(r, c));
      out.flops += linalg::flops::dot(cube.bands());
      if (score > out.best.score) out.best = Candidate{r, c, score};
    }
  }
  return out;
}

/// Local argmax of the squared norm over the owned rows.
Candidate brightest_pixel(vmpi::Comm& comm, const PartitionView& view,
                          std::size_t replication) {
  BrightOut out = brightest_range(*view.cube, view.part.row_begin,
                                  view.part.row_end);
  comm.compute(out.flops * replication);
  return out.best;
}

/// Master-side selection of the winning candidate, charged as the paper
/// describes: the master re-applies the current operator at the P proposed
/// locations before picking the maximum.
Candidate select_best(vmpi::Comm& comm, const std::vector<Candidate>& cands,
                      Count per_candidate_flops) {
  Candidate best{0, 0, -std::numeric_limits<double>::infinity()};
  for (const auto& c : cands) {
    if (c.score > best.score) best = c;
  }
  comm.compute(per_candidate_flops * cands.size() + cands.size(),
               vmpi::Phase::kSequential);
  return best;
}

}  // namespace

/// The fault-tolerant schedule (core/ft.hpp): the same chunk kernels as the
/// collective path (brightest_pixel, osp_argmax_sweep), driven by the
/// master over point-to-point operations so worker crashes are survivable.
/// Folding candidates in chunk order reproduces the gather's rank-order
/// fold, so the extracted targets equal the fault-free ones exactly.
ft::Program atdca_ft_program(const hsi::HsiCube& cube,
                             const AtdcaConfig& config,
                             TargetDetectionResult& result) {
  ft::Program prog;
  prog.model = atdca_workload(cube.bands(), config.targets);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  // Phase 0: the chunk's brightest pixel.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk, const std::any*) {
        const PartitionView view{&cube, chunk.part};
        return ft::ChunkOutcome{brightest_pixel(c, view, config.replication),
                                detail::kCandidateBytes};
      });
  // Phase 1: the chunk's OSP argmax against the shipped target matrix U.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& u = std::any_cast<const linalg::Matrix&>(*payload);
        const linalg::Cholesky gram(detail::ridged_row_gram(u));
        c.compute(linalg::flops::gram(cube.bands(), u.rows()) +
                  linalg::flops::cholesky(u.rows()));
        // A plane per call: chunks move between workers across phases, so
        // the handler keeps no state from one command to the next.
        detail::CorrPlane plane;
        plane.sync(cube, chunk.part.row_begin, chunk.part.row_end, u,
                   u.rows());
        linalg::ScratchArena arena;
        const Candidate best =
            detail::osp_argmax_sweep(u, gram, cube, chunk.part.row_begin,
                                     chunk.part.row_end, plane, arena);
        c.compute(static_cast<Count>(chunk.part.owned_rows()) * cube.cols() *
                  linalg::flops::osp_score(cube.bands(), u.rows()) *
                  config.replication);
        return ft::ChunkOutcome{best, detail::kCandidateBytes};
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

    // Steps 2-3: global brightest pixel, folded in chunk (== rank) order.
    const Candidate t1 = select_best(comm, as_candidates(master.phase(0, h[0])),
                                     linalg::flops::dot(cube.bands()));
    std::vector<PixelLocation> found{{t1.row, t1.col}};
    linalg::Matrix targets;
    targets.append_row(detail::to_double(cube.pixel(t1.row, t1.col)));

    // Steps 4-6: grow U one orthogonal target at a time; U ships with each
    // phase command instead of the collective broadcast.
    while (found.size() < config.targets) {
      const std::size_t u_bytes =
          targets.rows() * cube.bands() * sizeof(double);
      auto payload = std::make_shared<const std::any>(targets);
      const auto round = as_candidates(master.phase(1, h[1], payload, u_bytes));
      const Candidate next = select_best(
          comm, round, linalg::flops::osp_score(cube.bands(), targets.rows()));
      found.push_back({next.row, next.col});
      targets.append_row(detail::to_double(cube.pixel(next.row, next.col)));
    }
    master.finish();
    result.targets = std::move(found);
  };
  return prog;
}

WorkloadModel atdca_workload(std::size_t bands, std::size_t targets) {
  // Brightness pass plus t-1 projection passes of growing width.
  Count flops = linalg::flops::dot(bands);
  for (std::size_t t = 1; t < targets; ++t) {
    flops += linalg::flops::osp_score(bands, t);
  }
  WorkloadModel model;
  model.flops_per_pixel = static_cast<double>(flops);
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = static_cast<double>(targets);
  return model;
}

void atdca_body(vmpi::Comm& comm, const hsi::HsiCube& cube,
                const AtdcaConfig& config, TargetDetectionResult& result) {
  WorkloadModel model = atdca_workload(cube.bands(), config.targets);
  model.scatter_input = config.charge_data_staging;
  const bool streaming = config.tile_stream || linalg::tile_stream_enabled();
  model.tile_stream = streaming;
  const PartitionView view = detail::distribute_partitions(
      comm, cube, model, config.policy, config.memory_fraction,
      /*overlap=*/0, config.replication, /*defer_staging=*/streaming);
  // Tile plan over the owned rows; with streaming on, each tile's copy is
  // enqueued here and the brightest/OSP sweeps overlap the remaining
  // transfers with per-tile compute.
  const detail::TileStream tiles = detail::begin_tile_stream(
      comm, view, config.tile_rows, streaming, config.replication);

  // Steps 2-3: global brightest pixel, swept tile by tile (fold order ==
  // tile order == row-major order, so the pick is the monolithic one).
  Candidate local{0, 0, -1.0};
  detail::tiled_sweep(comm, tiles, config.replication,
                      [&](const linalg::TileDesc& t) {
                        BrightOut out =
                            brightest_range(cube, t.row_begin, t.row_end);
                        if (out.best.score > local.score) local = out.best;
                        return out.flops;
                      });
  const auto cands =
      comm.gather(comm.root(), local, detail::kCandidateBytes);

  linalg::Matrix targets;  // t x bands, grown at the master
  std::vector<PixelLocation> found;
  if (comm.is_root()) {
    const Candidate t1 =
        select_best(comm, cands, linalg::flops::dot(cube.bands()));
    found.push_back({t1.row, t1.col});
    targets.append_row(detail::to_double(cube.pixel(t1.row, t1.col)));
  }

  // Steps 4-6: grow U one orthogonal target at a time.  The broadcast is
  // shared: all ranks sweep against one immutable copy of U; only the
  // master re-materializes an owned matrix to grow it.
  linalg::ScratchArena arena;  // strip-sweep scratch, reused every round
  // U^T x and ||x||^2 of the owned rows; each round adds only the newest
  // target's row, and the tiles below read their subranges of it.
  detail::CorrPlane plane;
  while (true) {
    // Only the root's payload (and wire size) reaches the engine.
    const std::size_t u_bytes =
        comm.is_root() ? targets.rows() * cube.bands() * sizeof(double) : 0;
    const auto u_view =
        comm.bcast_shared(comm.root(), std::move(targets), u_bytes);
    const std::size_t t_cur = u_view->rows();
    if (t_cur >= config.targets) break;

    // Factor the Gram of U once per iteration (every rank; the master's
    // copy is reused for candidate re-evaluation).
    const linalg::Cholesky gram(detail::ridged_row_gram(*u_view));
    comm.compute(linalg::flops::gram(cube.bands(), t_cur) +
                 linalg::flops::cholesky(t_cur));

    // Tiled OSP sweep: osp_argmax_sweep returns the first row-major
    // maximum of its range, so folding per-tile bests strictly-greater in
    // tile order reproduces the monolithic sweep's pick exactly.
    plane.sync(cube, view.part.row_begin, view.part.row_end, *u_view,
               config.targets);
    Candidate local_best{0, 0, -1.0};
    detail::tiled_sweep(
        comm, tiles, config.replication, [&](const linalg::TileDesc& t) {
          const Candidate cand = detail::osp_argmax_sweep(
              *u_view, gram, cube, t.row_begin, t.row_end, plane, arena);
          if (cand.score > local_best.score) local_best = cand;
          return static_cast<Count>(t.rows()) * cube.cols() *
                 linalg::flops::osp_score(cube.bands(), t_cur);
        });

    const auto round =
        comm.gather(comm.root(), local_best, detail::kCandidateBytes);
    if (comm.is_root()) {
      const Candidate next = select_best(
          comm, round, linalg::flops::osp_score(cube.bands(), t_cur));
      found.push_back({next.row, next.col});
      targets = *u_view;  // re-own the shared U to grow it
      targets.append_row(detail::to_double(cube.pixel(next.row, next.col)));
    }
    // Non-root ranks leave `targets` empty; the next bcast refreshes it.
  }

  if (comm.is_root()) {
    result.targets = std::move(found);
  }
}

TargetDetectionResult run_atdca(const simnet::Platform& platform,
                                const hsi::HsiCube& cube,
                                const AtdcaConfig& config,
                                vmpi::Options options) {
  HPRS_REQUIRE(config.targets >= 1, "need at least one target");
  HPRS_REQUIRE(!cube.empty(), "empty cube");

  vmpi::Engine engine(platform, options);
  TargetDetectionResult result;

  if (config.fault_tolerant) {
    ft::require_immortal_root(options);
    const ft::Program prog = atdca_ft_program(cube, config, result);
    result.report = engine.run(
        [&](vmpi::Comm& comm) { ft::run_program(comm, cube, prog); });
    return result;
  }
  result.report = engine.run(
      [&](vmpi::Comm& comm) { atdca_body(comm, cube, config, result); });
  return result;
}

}  // namespace hprs::core
