#include "core/runner.hpp"

#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"

namespace hprs::core {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kAtdca: return "ATDCA";
    case Algorithm::kUfcls: return "UFCLS";
    case Algorithm::kPct: return "PCT";
    case Algorithm::kMorph: return "MORPH";
  }
  return "?";
}

std::string display_name(Algorithm a, PartitionPolicy policy) {
  const char* prefix =
      policy == PartitionPolicy::kHeterogeneous ? "Hetero-" : "Homo-";
  return std::string(prefix) + to_string(a);
}

RunnerOutput run_algorithm(const simnet::Platform& platform,
                           const hsi::HsiCube& cube,
                           const RunnerConfig& config, vmpi::Options options) {
  obs::Metrics::instance().add(std::string("core.runs.") +
                               to_string(config.algorithm), 1);
  obs::ScopedHostTimer timer(std::string("core.run.") +
                             to_string(config.algorithm));
  RunnerOutput out;
  switch (config.algorithm) {
    case Algorithm::kAtdca: {
      AtdcaConfig c;
      c.targets = config.targets;
      c.policy = config.policy;
      c.memory_fraction = config.memory_fraction;
      c.replication = config.replication;
      c.charge_data_staging = config.charge_data_staging;
      c.fault_tolerant = config.fault_tolerant;
      c.tile_stream = config.tile_stream;
      auto r = run_atdca(platform, cube, c, options);
      out.report = std::move(r.report);
      out.targets = std::move(r.targets);
      break;
    }
    case Algorithm::kUfcls: {
      UfclsConfig c;
      c.targets = config.targets;
      c.policy = config.policy;
      c.memory_fraction = config.memory_fraction;
      c.replication = config.replication;
      c.charge_data_staging = config.charge_data_staging;
      c.fault_tolerant = config.fault_tolerant;
      auto r = run_ufcls(platform, cube, c, options);
      out.report = std::move(r.report);
      out.targets = std::move(r.targets);
      break;
    }
    case Algorithm::kPct: {
      PctConfig c;
      c.classes = config.classes;
      c.sad_threshold = config.sad_threshold;
      c.policy = config.policy;
      c.memory_fraction = config.memory_fraction;
      c.replication = config.replication;
      c.charge_data_staging = config.charge_data_staging;
      c.fault_tolerant = config.fault_tolerant;
      c.tile_stream = config.tile_stream;
      auto r = run_pct(platform, cube, c, options);
      out.report = std::move(r.report);
      out.labels = std::move(r.labels);
      out.label_count = r.label_count;
      break;
    }
    case Algorithm::kMorph: {
      MorphConfig c;
      c.classes = config.classes;
      c.iterations = config.morph_iterations;
      c.kernel_radius = config.kernel_radius;
      c.sad_threshold = config.sad_threshold;
      c.policy = config.policy;
      c.memory_fraction = config.memory_fraction;
      c.replication = config.replication;
      c.charge_data_staging = config.charge_data_staging;
      c.overlap_borders = config.morph_overlap_borders;
      c.fault_tolerant = config.fault_tolerant;
      auto r = run_morph(platform, cube, c, options);
      out.report = std::move(r.report);
      out.labels = std::move(r.labels);
      out.label_count = r.label_count;
      break;
    }
  }
  return out;
}

}  // namespace hprs::core
