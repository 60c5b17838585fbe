#include "core/ppi.hpp"

#include <algorithm>
#include <any>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/ft_programs.hpp"
#include "core/spmd_common.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"
#include "linalg/flops.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vec.hpp"
#include "vmpi/comm.hpp"

namespace hprs::core {

namespace {

using linalg::flops::Count;

/// A ranked purity candidate at the master.
struct PurityEntry {
  std::size_t row = 0;
  std::size_t col = 0;
  std::uint32_t count = 0;
};

using detail::SkewerExtreme;

/// Wire size of one SkewerExtreme (two doubles + four 32-bit coordinates).
constexpr std::size_t kExtremeBytes = 2 * 8 + 4 * 4;

/// K unit skewers on `bands` channels, deterministic in the seed.
linalg::Matrix make_skewers(std::size_t k, std::size_t bands,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  linalg::Matrix skewers(k, bands);
  for (std::size_t s = 0; s < k; ++s) {
    auto row = skewers.row(s);
    double norm_sq = 0.0;
    for (std::size_t b = 0; b < bands; ++b) {
      row[b] = rng.normal();
      norm_sq += row[b] * row[b];
    }
    const double inv = 1.0 / std::sqrt(std::max(norm_sq, 1e-300));
    for (std::size_t b = 0; b < bands; ++b) row[b] *= inv;
  }
  return skewers;
}

/// Folds one projection into a skewer's extremes with strict comparisons,
/// so the first pixel scanned keeps a tie.
void update_extreme(SkewerExtreme& ext, double proj, std::size_t r,
                    std::size_t c) {
  if (proj < ext.lo) {
    ext.lo = proj;
    ext.lo_row = r;
    ext.lo_col = c;
  }
  if (proj > ext.hi) {
    ext.hi = proj;
    ext.hi_row = r;
    ext.hi_col = c;
  }
}

}  // namespace

namespace detail {

Count project_extremes(const linalg::Matrix& skewers,
                       const hsi::HsiCube& cube, std::size_t row_begin,
                       std::size_t row_end,
                       std::vector<SkewerExtreme>& extremes) {
  const std::size_t k = skewers.rows();
  const std::size_t bands = cube.bands();
  const std::size_t cols = cube.cols();
  extremes.assign(k, SkewerExtreme{});
  if (linalg::use_reference_kernels()) {
    for (std::size_t s = 0; s < k; ++s) {
      const auto skewer = skewers.row(s);
      for (std::size_t r = row_begin; r < row_end; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          update_extreme(extremes[s],
                         linalg::dot<double, float>(skewer, cube.pixel(r, c)),
                         r, c);
        }
      }
    }
  } else {
    // Every skewer still sees the pixels in row-major order, so the strict
    // comparisons keep the same first occurrence as the reference loop;
    // dot_strip gives each (skewer, pixel) projection the scalar chain.
    constexpr std::size_t kStrip = 64;
    std::vector<double> proj(std::min(kStrip, cols) * k);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      for (std::size_t c0 = 0; c0 < cols; c0 += kStrip) {
        const std::size_t m = std::min(kStrip, cols - c0);
        linalg::dot_strip(skewers, cube.pixel(r, c0).data(), m, proj);
        for (std::size_t p = 0; p < m; ++p) {
          const double* pp = proj.data() + p * k;
          for (std::size_t s = 0; s < k; ++s) {
            update_extreme(extremes[s], pp[s], r, c0 + p);
          }
        }
      }
    }
  }
  const auto pixels = static_cast<Count>((row_end - row_begin) * cols);
  return static_cast<Count>(k) * pixels * linalg::flops::dot(bands);
}

}  // namespace detail

/// The fault-tolerant schedule (core/ft.hpp): the projection kernel runs
/// per chunk against the skewer matrix shipped as the phase payload; the
/// master folds the per-chunk extremes in chunk order with the same
/// row-major position tie-breaks as the collective path, so the purity
/// counts (and hence the ranked targets) are bit-identical regardless of
/// which rank computed which chunk.
ft::Program ppi_ft_program(const hsi::HsiCube& cube, const PpiConfig& config,
                           PpiResult& result) {
  ft::Program prog;
  prog.model = ppi_workload(cube.bands(), config.skewers);
  prog.model.scatter_input = config.charge_data_staging;
  prog.policy = config.policy;
  prog.memory_fraction = config.memory_fraction;
  prog.replication = config.replication;
  // Phase 0: per-skewer projection extremes over the chunk's rows.
  prog.handlers.push_back(
      [&cube, config](vmpi::Comm& c, const ft::Chunk& chunk,
                      const std::any* payload) {
        const auto& skewers = std::any_cast<const linalg::Matrix&>(*payload);
        std::vector<SkewerExtreme> local;
        const Count flops = detail::project_extremes(
            skewers, cube, chunk.part.row_begin, chunk.part.row_end, local);
        c.compute(flops * config.replication);
        return ft::ChunkOutcome{std::move(local),
                                config.skewers * kExtremeBytes};
      });

  prog.master = [&cube, config, &result](vmpi::Comm& comm,
                                         ft::PhaseDriver& master,
                                         const std::vector<ft::Handler>& h) {
    const std::size_t bands = cube.bands();

    // The master draws the skewers once and ships them with the phase
    // command (the collective path broadcasts the same matrix).
    linalg::Matrix drawn = make_skewers(config.skewers, bands, config.seed);
    comm.compute(config.skewers * (3 * bands + 1), vmpi::Phase::kSequential);
    auto payload = std::make_shared<const std::any>(std::move(drawn));
    const std::size_t skewer_bytes =
        config.skewers * bands * sizeof(double);

    auto ext_any = master.phase(0, h[0], payload, skewer_bytes);
    std::vector<std::vector<SkewerExtreme>> parts;
    parts.reserve(ext_any.size());
    for (auto& a : ext_any) {
      parts.push_back(std::any_cast<std::vector<SkewerExtreme>>(std::move(a)));
    }

    // Global extreme per skewer, folded in chunk order; ties broken by
    // row-major position so the outcome cannot depend on the partitioning.
    std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> counts;
    for (std::size_t s = 0; s < config.skewers; ++s) {
      std::size_t lo_row = 0, lo_col = 0, hi_row = 0, hi_col = 0;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const auto& part : parts) {
        const auto& ext = part[s];
        if (ext.lo < lo ||
            (ext.lo == lo && std::make_pair(ext.lo_row, ext.lo_col) <
                                 std::make_pair(lo_row, lo_col))) {
          lo = ext.lo;
          lo_row = ext.lo_row;
          lo_col = ext.lo_col;
        }
        if (ext.hi > hi ||
            (ext.hi == hi && std::make_pair(ext.hi_row, ext.hi_col) <
                                 std::make_pair(hi_row, hi_col))) {
          hi = ext.hi;
          hi_row = ext.hi_row;
          hi_col = ext.hi_col;
        }
      }
      ++counts[{lo_row, lo_col}];
      ++counts[{hi_row, hi_col}];
    }
    comm.compute(config.skewers * parts.size() * 4, vmpi::Phase::kSequential);

    std::vector<PurityEntry> all;
    all.reserve(counts.size());
    for (const auto& [loc, count] : counts) {
      all.push_back(PurityEntry{loc.first, loc.second, count});
    }
    // Deterministic ranking: count desc, then row-major position.
    std::sort(all.begin(), all.end(),
              [](const PurityEntry& a, const PurityEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                if (a.row != b.row) return a.row < b.row;
                return a.col < b.col;
              });
    master.finish();
    const std::size_t keep = std::min(config.targets, all.size());
    for (std::size_t k = 0; k < keep; ++k) {
      result.targets.push_back({all[k].row, all[k].col});
      result.scores.push_back(all[k].count);
    }
  };
  return prog;
}

WorkloadModel ppi_workload(std::size_t bands, std::size_t skewers) {
  WorkloadModel model;
  model.flops_per_pixel = static_cast<double>(
      skewers * linalg::flops::dot(bands));
  model.bytes_per_pixel = bands * sizeof(float);
  model.scatter_input = false;
  model.sync_rounds = 1.0;  // single projection pass, single reduction
  return model;
}

void ppi_body(vmpi::Comm& comm, const hsi::HsiCube& cube,
              const PpiConfig& config, PpiResult& result) {
  WorkloadModel model = ppi_workload(cube.bands(), config.skewers);
  model.scatter_input = config.charge_data_staging;
  const std::size_t bands = cube.bands();

  const PartitionView view = detail::distribute_partitions(
      comm, cube, model, config.policy, config.memory_fraction,
      /*overlap=*/0, config.replication);

  // Master draws the skewers and broadcasts them; every rank projects
  // against the same shared immutable copy (zero fan-out copies).
  linalg::Matrix drawn;
  if (comm.is_root()) {
    drawn = make_skewers(config.skewers, bands, config.seed);
    comm.compute(config.skewers * (3 * bands + 1),
                 vmpi::Phase::kSequential);
  }
  const auto skewers_view =
      comm.bcast_shared(comm.root(), std::move(drawn),
                        config.skewers * bands * sizeof(double));
  const linalg::Matrix& skewers = *skewers_view;

  // Projection pass: per skewer, the local extremes and their locations.
  // The global extremes are selected at the master, so the purity counts
  // are independent of the partitioning.
  std::vector<SkewerExtreme> local;
  const Count flops = detail::project_extremes(
      skewers, cube, view.part.row_begin, view.part.row_end, local);
  comm.compute(flops * config.replication);

  const std::size_t local_bytes = config.skewers * kExtremeBytes;
  auto gathered = comm.gather(comm.root(), std::move(local), local_bytes);

  if (comm.is_root()) {
    // Global extreme per skewer; ties broken by row-major position so
    // the outcome cannot depend on rank assignment.
    std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> counts;
    for (std::size_t s = 0; s < config.skewers; ++s) {
      std::size_t lo_row = 0, lo_col = 0, hi_row = 0, hi_col = 0;
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const auto& part : gathered) {
        const auto& ext = part[s];
        if (ext.lo < lo ||
            (ext.lo == lo && std::make_pair(ext.lo_row, ext.lo_col) <
                                 std::make_pair(lo_row, lo_col))) {
          lo = ext.lo;
          lo_row = ext.lo_row;
          lo_col = ext.lo_col;
        }
        if (ext.hi > hi ||
            (ext.hi == hi && std::make_pair(ext.hi_row, ext.hi_col) <
                                 std::make_pair(hi_row, hi_col))) {
          hi = ext.hi;
          hi_row = ext.hi_row;
          hi_col = ext.hi_col;
        }
      }
      ++counts[{lo_row, lo_col}];
      ++counts[{hi_row, hi_col}];
    }
    comm.compute(config.skewers * gathered.size() * 4,
                 vmpi::Phase::kSequential);

    std::vector<PurityEntry> all;
    all.reserve(counts.size());
    for (const auto& [loc, count] : counts) {
      all.push_back(PurityEntry{loc.first, loc.second, count});
    }
    // Deterministic ranking: count desc, then row-major position.
    std::sort(all.begin(), all.end(),
              [](const PurityEntry& a, const PurityEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                if (a.row != b.row) return a.row < b.row;
                return a.col < b.col;
              });
    const std::size_t keep = std::min(config.targets, all.size());
    for (std::size_t k = 0; k < keep; ++k) {
      result.targets.push_back({all[k].row, all[k].col});
      result.scores.push_back(all[k].count);
    }
  }
}

PpiResult run_ppi(const simnet::Platform& platform, const hsi::HsiCube& cube,
                  const PpiConfig& config, vmpi::Options options) {
  HPRS_REQUIRE(config.targets >= 1, "need at least one target");
  HPRS_REQUIRE(config.skewers >= 1, "need at least one skewer");
  HPRS_REQUIRE(!cube.empty(), "empty cube");
  obs::Metrics::instance().add("core.runs.PPI", 1);
  obs::ScopedHostTimer obs_timer("core.run.PPI");

  vmpi::Engine engine(platform, options);
  PpiResult result;
  if (config.fault_tolerant) {
    ft::require_immortal_root(options);
    const ft::Program prog = ppi_ft_program(cube, config, result);
    result.report = engine.run(
        [&](vmpi::Comm& comm) { ft::run_program(comm, cube, prog); });
    return result;
  }
  result.report = engine.run(
      [&](vmpi::Comm& comm) { ppi_body(comm, cube, config, result); });
  return result;
}

}  // namespace hprs::core
