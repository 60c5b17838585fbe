// Parallel Pixel Purity Index (PPI) endmember extraction.
//
// PPI is the third classical target/endmember extractor of the
// hyperspectral literature alongside OSP (ATDCA) and least-squares error
// ranking (UFCLS), and the one the paper's companion cluster work (Plaza et
// al., JPDC 2006) parallelizes the same master/worker way.  The master
// draws K random unit vectors ("skewers") and broadcasts them; every worker
// projects each local pixel onto every skewer and marks the extreme
// (minimum and maximum) pixels; a pixel's purity index counts how often it
// was extreme.  The t highest-index pixels are returned as endmember
// candidates.
//
// Included both as a library feature and as a third data point for the
// heterogeneous-vs-homogeneous comparison: PPI is embarrassingly parallel
// with a single reduction, so it isolates the WEA's effect even more
// cleanly than ATDCA.
#pragma once

#include <limits>
#include <vector>

#include "core/partition.hpp"
#include "core/types.hpp"
#include "hsi/cube.hpp"
#include "linalg/flops.hpp"
#include "linalg/matrix.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::core {

namespace detail {

/// Per-skewer local extremes a worker reports: projection values plus the
/// pixel locations realizing them.
struct SkewerExtreme {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t lo_row = 0, lo_col = 0;
  std::size_t hi_row = 0, hi_col = 0;
};

/// PPI's projection pass over rows [row_begin, row_end) of the cube: for
/// every skewer (row of `skewers`), the smallest and largest projection
/// skewer . x and the first pixel in row-major order realizing each (strict
/// < and > updates).  Returns the flops to charge: one linalg::flops::dot
/// per (skewer, pixel) pair.  Dispatches between the per-skewer scalar
/// reference loop and the fast path, which projects pixel strips through
/// linalg::dot_strip and scans them in the same row-major order; both
/// return identical extremes and locations.
[[nodiscard]] linalg::flops::Count project_extremes(
    const linalg::Matrix& skewers, const hsi::HsiCube& cube,
    std::size_t row_begin, std::size_t row_end,
    std::vector<SkewerExtreme>& extremes);

}  // namespace detail

struct PpiConfig {
  /// Endmember candidates to return.
  std::size_t targets = 18;
  /// Random projections ("skewers") to score against.
  std::size_t skewers = 512;
  std::uint64_t seed = 1;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  double memory_fraction = 0.5;
  std::size_t replication = 1;
  bool charge_data_staging = false;
  /// Use the master/worker fault-tolerant schedule (core/ft.hpp) instead of
  /// the collective SPMD one.  Requires a fault plan that never kills the
  /// root.  Output is bit-identical to the collective schedule.
  bool fault_tolerant = false;
};

/// Per-pixel workload model used by the WEA for this algorithm.
[[nodiscard]] WorkloadModel ppi_workload(std::size_t bands,
                                         std::size_t skewers);

struct PpiResult {
  /// The t candidates, ordered by decreasing purity index.
  std::vector<PixelLocation> targets;
  /// Purity count per candidate (same order).
  std::vector<std::uint32_t> scores;
  vmpi::RunReport report;
};

/// The SPMD schedule over any communicator (world or a sub-communicator);
/// only the comm root's `result` is populated.  Unlike run_ppi this does
/// not touch the host-side obs metrics (the caller owns process metrics).
void ppi_body(vmpi::Comm& comm, const hsi::HsiCube& cube,
              const PpiConfig& config, PpiResult& result);

[[nodiscard]] PpiResult run_ppi(const simnet::Platform& platform,
                                const hsi::HsiCube& cube,
                                const PpiConfig& config,
                                vmpi::Options options = {});

}  // namespace hprs::core
