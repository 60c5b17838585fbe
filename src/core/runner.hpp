// Uniform dispatch over the four parallel algorithms.
//
// The bench harnesses sweep {algorithm} x {partition policy} x {platform};
// this runner gives them one call signature and one output shape.
#pragma once

#include <string>

#include "core/atdca.hpp"
#include "core/morph.hpp"
#include "core/pct.hpp"
#include "core/types.hpp"
#include "core/ufcls.hpp"

namespace hprs::core {

enum class Algorithm : std::uint8_t { kAtdca, kUfcls, kPct, kMorph };

[[nodiscard]] const char* to_string(Algorithm a);

/// Display name in the paper's convention ("Hetero-ATDCA", "Homo-PCT", ...).
[[nodiscard]] std::string display_name(Algorithm a, PartitionPolicy policy);

struct RunnerConfig {
  Algorithm algorithm = Algorithm::kAtdca;
  PartitionPolicy policy = PartitionPolicy::kHeterogeneous;
  std::size_t targets = 18;          // ATDCA / UFCLS
  std::size_t classes = 7;           // PCT / MORPH
  std::size_t morph_iterations = 5;  // MORPH I_max
  std::size_t kernel_radius = 2;     // MORPH structuring element radius
  double sad_threshold = 0.06;       // PCT / MORPH unique-set threshold
  double memory_fraction = 0.5;
  std::size_t replication = 1;       // virtual scale (see spmd_common.hpp)
  bool morph_overlap_borders = true;
  bool charge_data_staging = false;  // see DESIGN.md on data staging
  /// Fault-tolerant master/worker execution (core/ft.hpp): survives
  /// fail-stop worker crashes from Options::fault_plan while producing the
  /// fault-free outputs bit for bit.
  bool fault_tolerant = false;
  /// Per-tile streamed staging overlapped with compute on accelerated
  /// ranks (ATDCA / PCT).
  bool tile_stream = false;
};

struct RunnerOutput {
  vmpi::RunReport report;
  /// Populated by the target-detection algorithms.
  std::vector<PixelLocation> targets;
  /// Populated by the classifiers.
  std::vector<std::uint16_t> labels;
  std::size_t label_count = 0;
};

[[nodiscard]] RunnerOutput run_algorithm(const simnet::Platform& platform,
                                         const hsi::HsiCube& cube,
                                         const RunnerConfig& config,
                                         vmpi::Options options = {});

}  // namespace hprs::core
