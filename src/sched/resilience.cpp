#include "sched/resilience.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/error.hpp"
#include "core/ft_programs.hpp"
#include "core/partition.hpp"

namespace hprs::sched {
namespace {

/// Virtual flop charge per half of a checkpoint write (the window between
/// the two halves is where a crash tears the staged snapshot).  The state-
/// dependent term grows with the snapshot: serializing more logged phases
/// over more chunks costs more.
constexpr std::uint64_t kCheckpointHalfFlops = 1'000'000;

[[nodiscard]] double u01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

}  // namespace

ResilientDriver::ResilientDriver(vmpi::Comm& comm, core::ft::Master& master,
                                 CheckpointStore* store, std::uint64_t job_id,
                                 int attempt, const ResilienceConfig& config,
                                 const Checkpoint* resumed)
    : comm_(&comm),
      master_(&master),
      store_(store),
      job_id_(job_id),
      attempt_(attempt),
      config_(config),
      attempt_start_s_(comm.now()),
      jitter_(config.checkpoint_seed ^ job_id ^
              static_cast<std::uint64_t>(attempt)) {
  if (resumed != nullptr) {
    log_ = resumed->phase_log;
    resumed_seq_ = resumed->seq;
  }
  schedule_next_checkpoint();
  // Baseline snapshot on a fresh start: even a crash inside the first
  // phase restarts with the frozen chunk list instead of a new WEA.
  if (store_ != nullptr && resumed == nullptr) write_checkpoint();
}

void ResilientDriver::schedule_next_checkpoint() {
  if (config_.checkpoint_interval_s <= 0.0) {
    next_checkpoint_s_ = -1.0;
    return;
  }
  next_checkpoint_s_ =
      comm_->now() + config_.checkpoint_interval_s * (0.75 + 0.5 * u01(jitter_));
}

void ResilientDriver::write_checkpoint() {
  const double t0 = comm_->now();
  Checkpoint snap;
  snap.job_id = job_id_;
  snap.attempt = attempt_;
  snap.seq = static_cast<int>(log_.size());
  snap.saved_at_s = t0;
  snap.chunks = master_->chunks();
  snap.phase_log = log_;
  const std::uint64_t half =
      kCheckpointHalfFlops +
      64ULL * snap.chunks.size() * static_cast<std::uint64_t>(log_.size());
  store_->begin(std::move(snap));
  // Two sequential charges model the write: a crash whose virtual time
  // lands after the first half kills the leader at the entry of the second
  // (fail-stop fires at engine-op entry), so the staged snapshot never
  // commits and load() keeps serving the previous one -- atomic-rename
  // semantics with the torn window decided purely by virtual time.
  comm_->compute(half, vmpi::Phase::kSequential);
  comm_->compute(half, vmpi::Phase::kSequential);
  store_->commit(job_id_);
  ++checkpoints_;
  checkpoint_at_s_.push_back(comm_->now());
  checkpoint_cost_s_ += comm_->now() - t0;
  schedule_next_checkpoint();
}

std::vector<std::any> ResilientDriver::phase(
    int phase_id, const core::ft::Handler& handler,
    std::shared_ptr<const std::any> payload, std::size_t payload_bytes) {
  if (next_replay_ < log_.size()) {
    // Replaying a phase the checkpoint already holds: no commands, no
    // compute -- the results were paid for by the attempt that logged them.
    return log_[next_replay_++];
  }
  std::vector<std::any> out =
      master_->phase(phase_id, handler, std::move(payload), payload_bytes);
  log_.push_back(out);
  next_replay_ = log_.size();
  if (store_ != nullptr && next_checkpoint_s_ >= 0.0 &&
      comm_->now() >= next_checkpoint_s_) {
    write_checkpoint();
  }
  const double deadline = config_.retry.attempt_deadline_s;
  if (deadline > 0.0 && comm_->now() - attempt_start_s_ >= deadline) {
    // Preempt at the phase boundary: persist everything done so far, then
    // unwind to the leader, which releases the gang and reports back.
    if (store_ != nullptr) write_checkpoint();
    throw PreemptSignal{};
  }
  return out;
}

void ResilientDriver::finish() { master_->finish(); }

namespace {

/// Every algorithm config a job can translate to, one per JobAlgorithm.
using JobConfig = std::variant<core::AtdcaConfig, core::UfclsConfig,
                               core::PctConfig, core::MorphConfig,
                               core::PpiConfig>;

/// The one JobSpec -> core::*Config translation both gang runtimes share.
JobConfig job_config(const JobSpec& spec) {
  JobConfig config;
  switch (spec.algorithm) {
    case JobAlgorithm::kAtdca:
      config.emplace<core::AtdcaConfig>().targets = spec.targets;
      break;
    case JobAlgorithm::kUfcls:
      config.emplace<core::UfclsConfig>().targets = spec.targets;
      break;
    case JobAlgorithm::kPct: {
      auto& c = config.emplace<core::PctConfig>();
      c.classes = spec.classes;
      c.sad_threshold = spec.sad_threshold;
      break;
    }
    case JobAlgorithm::kMorph: {
      auto& c = config.emplace<core::MorphConfig>();
      c.classes = spec.classes;
      c.iterations = spec.iterations;
      c.kernel_radius = spec.kernel_radius;
      c.sad_threshold = spec.sad_threshold;
      break;
    }
    case JobAlgorithm::kPpi: {
      auto& c = config.emplace<core::PpiConfig>();
      c.targets = spec.targets;
      c.skewers = spec.skewers;
      c.seed = spec.seed;
      break;
    }
  }
  std::visit(
      [&spec](auto& c) {
        c.policy = spec.policy;
        c.memory_fraction = spec.memory_fraction;
        c.replication = spec.replication;
        c.charge_data_staging = spec.charge_data_staging;
      },
      config);
  return config;
}

/// Per-config gang runtimes: the plain SPMD body, the ft::Program factory,
/// and the result struct both of them fill.
template <typename Config>
struct Runtimes;
template <>
struct Runtimes<core::AtdcaConfig> {
  using Result = core::TargetDetectionResult;
  static constexpr auto body = &core::atdca_body;
  static constexpr auto program = &core::atdca_ft_program;
};
template <>
struct Runtimes<core::UfclsConfig> {
  using Result = core::TargetDetectionResult;
  static constexpr auto body = &core::ufcls_body;
  static constexpr auto program = &core::ufcls_ft_program;
};
template <>
struct Runtimes<core::PctConfig> {
  using Result = core::ClassificationResult;
  static constexpr auto body = &core::pct_body;
  static constexpr auto program = &core::pct_ft_program;
};
template <>
struct Runtimes<core::MorphConfig> {
  using Result = core::ClassificationResult;
  static constexpr auto body = &core::morph_body;
  static constexpr auto program = &core::morph_ft_program;
};
template <>
struct Runtimes<core::PpiConfig> {
  using Result = core::PpiResult;
  static constexpr auto body = &core::ppi_body;
  static constexpr auto program = &core::ppi_ft_program;
};

template <typename Config>
using RuntimesOf = Runtimes<std::decay_t<Config>>;

/// The result harvest, shared by both gang runtimes.
void harvest(core::TargetDetectionResult& result, JobOutput& out) {
  out.targets = std::move(result.targets);
}
void harvest(core::ClassificationResult& result, JobOutput& out) {
  out.labels = std::move(result.labels);
  out.label_count = result.label_count;
}
void harvest(core::PpiResult& result, JobOutput& out) {
  out.targets = std::move(result.targets);
  out.scores = std::move(result.scores);
}

}  // namespace

void run_plain_job(vmpi::Comm& sub, const JobSpec& spec,
                   const hsi::HsiCube& scene, JobOutput& out) {
  std::visit(
      [&](const auto& config) {
        using R = RuntimesOf<decltype(config)>;
        typename R::Result result;
        R::body(sub, scene, config, result);
        if (sub.is_root()) harvest(result, out);
      },
      job_config(spec));
}

ProgramBundle make_job_program(const JobSpec& spec, const hsi::HsiCube& scene) {
  JobConfig config = job_config(spec);
  // The master/worker protocol has no worker-to-worker halo exchange;
  // chunks must carry their own borders.
  if (auto* morph = std::get_if<core::MorphConfig>(&config)) {
    morph->overlap_borders = true;
  }
  ProgramBundle bundle;
  std::visit(
      [&](const auto& c) {
        using R = RuntimesOf<decltype(c)>;
        auto result = std::make_shared<typename R::Result>();
        bundle.program = R::program(scene, c, *result);
        bundle.harvest = [result](JobOutput& out) { harvest(*result, out); };
      },
      config);
  return bundle;
}

void release_gang(vmpi::Comm& sub) {
  for (int r = 0; r < sub.size(); ++r) {
    if (r == sub.root()) continue;
    (void)sub.try_send(r, core::ft::Command{},
                       core::ft::kChunkDescriptorBytes, core::ft::kCommandTag);
  }
}

AttemptOutcome run_resilient_leader(vmpi::Comm& sub, const JobSpec& spec,
                                    const hsi::HsiCube& scene, int attempt,
                                    const ResilienceConfig& config,
                                    CheckpointStore* store, JobOutput& out) {
  AttemptOutcome outcome;
  ProgramBundle bundle = make_job_program(spec, scene);
  const core::ft::Program& prog = bundle.program;

  std::optional<Checkpoint> resumed;
  if (store != nullptr && config.resume_from_checkpoint && attempt > 1) {
    resumed = store->load(spec.id);
  }

  std::optional<core::ft::Master> master;
  std::optional<ResilientDriver> driver;
  try {
    if (resumed.has_value()) {
      // Elastic restart: adopt the frozen chunk list on whatever width this
      // gang has; Master's resume constructor spreads the chunks.
      master.emplace(sub, resumed->chunks, prog.policy, prog.memory_fraction,
                     scene.cols(), scene.bytes_per_pixel(), prog.replication,
                     prog.model.scatter_input);
    } else {
      const core::PartitionResult partition = core::wea_partition(
          sub.platform(), scene.rows(), scene.cols(), prog.model, prog.policy,
          prog.memory_fraction, prog.overlap, sub.root());
      sub.compute(64ULL * static_cast<std::uint64_t>(sub.size()),
                  vmpi::Phase::kSequential);
      master.emplace(sub, partition.parts, prog.policy, prog.memory_fraction,
                     scene.cols(), scene.bytes_per_pixel(), prog.replication,
                     prog.model.scatter_input);
    }
    driver.emplace(sub, *master, store, spec.id, attempt, config,
                   resumed.has_value() ? &*resumed : nullptr);
    prog.master(sub, *driver, prog.handlers);
    driver->finish();
    bundle.harvest(out);
    outcome.status = 0;
  } catch (const PreemptSignal&) {
    // Deadline overrun: progress is checkpointed; the survivors are
    // released below so they rejoin the pool while the job waits in the
    // retry queue.  Only these two handlers exist on purpose: the engine's
    // crash signal must keep propagating, so no catch-all.
    outcome.status = 1;
  } catch (const Error& e) {
    outcome.status = 2;
    outcome.error = e.what();
  }
  // The releases send to the workers, so this fiber may park and resume on
  // another executor thread.  They therefore run only after the handler
  // has ended: a catch block spanning a thread switch would close its
  // exception on the wrong thread's caught-exception stack (and leak it).
  if (outcome.status != 0) {
    if (master.has_value()) {
      master->finish();
    } else {
      // The WEA or the resume construction failed before any Master owned
      // the workers; unblock them by hand.
      release_gang(sub);
    }
  }
  if (driver.has_value()) {
    outcome.checkpoints = driver->checkpoints();
    outcome.resumed_seq = driver->resumed_seq();
    outcome.checkpoint_s = driver->checkpoint_cost_s();
    outcome.checkpoint_at_s = driver->checkpoint_at_s();
  }
  return outcome;
}

bool run_resilient_worker(vmpi::Comm& sub, const JobSpec& spec,
                          const hsi::HsiCube& scene) {
  const ProgramBundle bundle = make_job_program(spec, scene);
  return core::ft::resilient_worker_loop(sub, bundle.program.handlers);
}

void validate_cluster_fault_plan(const vmpi::Options& options,
                                 std::size_t platform_size) {
  const auto& crashes = options.fault_plan.crashes;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const std::string key =
        "fault_plan.crashes[" + std::to_string(i) + "].rank";
    HPRS_REQUIRE(crashes[i].rank >= 0 &&
                     static_cast<std::size_t>(crashes[i].rank) < platform_size,
                 key + " = " + std::to_string(crashes[i].rank) +
                     " is out of range for a platform of " +
                     std::to_string(platform_size) + " ranks");
    HPRS_REQUIRE(crashes[i].rank != options.root,
                 key + " = " + std::to_string(crashes[i].rank) +
                     " targets the dispatcher (root) rank: the cluster "
                     "control plane must be immortal");
  }
}

}  // namespace hprs::sched
