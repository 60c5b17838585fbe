// Shared scaffolding for the table-regeneration benches.
//
// Every bench binary reproduces one table or figure of the paper on the
// synthetic WTC scene.  The default scene is 96 x 96 pixels with a virtual
// replication factor that scales the timing model to the paper's full
// 2133 x 512 AVIRIS scene (about 1.09 M pixels); pass --rows/--cols/
// --replication to change it.  All numbers are deterministic in --seed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/runner.hpp"
#include "hsi/scene.hpp"
#include "linalg/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/run_summary.hpp"
#include "simnet/platform.hpp"
#include "vmpi/engine.hpp"

namespace hprs::bench {

struct BenchSetup {
  hsi::Scene scene;
  core::RunnerConfig config;
  bool csv = false;
  /// --summary <path>: write the canonical run summary (obs/run_summary.hpp)
  /// here; metrics collection is enabled for the bench when set.  Empty
  /// string disables both.
  std::string summary_path;
};

inline const std::vector<std::string>& common_options() {
  static const std::vector<std::string> opts = {
      "rows", "cols",   "bands",  "seed",       "replication", "targets",
      "classes", "iters", "radius", "threshold", "csv", "summary",
  };
  return opts;
}

/// Bench command-line errors follow the tools' convention: a named message
/// on stderr and exit status 2, never an uncaught exception.
[[noreturn]] inline void cli_error(const char* argv0, const std::string& what) {
  std::string prog = argv0 != nullptr ? argv0 : "bench";
  if (const auto slash = prog.rfind('/'); slash != std::string::npos) {
    prog.erase(0, slash + 1);
  }
  std::fprintf(stderr, "%s: error: %s\n", prog.c_str(), what.c_str());
  std::exit(2);
}

/// Runs `parse`, one input-driven step of set-up (a CliArgs getter, the
/// scene generator); an hprs::Error it throws becomes a named command-line
/// error through cli_error.
template <typename Parse>
auto cli_checked(char** argv, Parse&& parse) {
  try {
    return parse();
  } catch (const Error& e) {
    cli_error(argv[0], e.what());
  }
}

/// Options peeled by the take_*_flag helpers below, in call order, so
/// --help can list them next to the common ones.
inline std::vector<std::string>& peeled_options() {
  static std::vector<std::string> opts;
  return opts;
}

/// Parses argv against `options`.  --help / -h print the options (peeled
/// flags first) and exit 0; unknown options exit 2 through cli_error.
inline CliArgs parse_cli(int argc, char** argv,
                         const std::vector<std::string>& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [options]\noptions:\n", argv[0]);
      for (const auto& name : peeled_options()) {
        std::printf("  --%s\n", name.c_str());
      }
      for (const auto& name : options) std::printf("  --%s\n", name.c_str());
      std::exit(0);
    }
  }
  return cli_checked(argv, [&] { return CliArgs(argc, argv, options); });
}

/// get_int restricted to values >= 1 (sizes, counts, replication).
inline std::size_t positive_int(const CliArgs& args, char** argv,
                                const std::string& name,
                                std::int64_t fallback) {
  const std::int64_t v =
      cli_checked(argv, [&] { return args.get_int(name, fallback); });
  if (v < 1) cli_error(argv[0], "option --" + name + " must be >= 1");
  return static_cast<std::size_t>(v);
}

/// Parses the common options and generates the scene.  `default_rows/cols`
/// let the Thunderhead benches default to taller scenes (>= 256 rows).
inline BenchSetup make_setup(int argc, char** argv,
                             std::size_t default_rows = 96,
                             std::size_t default_cols = 96,
                             std::size_t default_replication = 119) {
  const CliArgs args = parse_cli(argc, argv, common_options());
  const auto positive = [&](const std::string& name, std::size_t fallback) {
    return positive_int(args, argv, name,
                        static_cast<std::int64_t>(fallback));
  };
  hsi::SceneConfig scene_cfg;
  scene_cfg.rows = positive("rows", default_rows);
  scene_cfg.cols = positive("cols", default_cols);
  scene_cfg.bands = positive("bands", 224);
  scene_cfg.seed = static_cast<std::uint64_t>(
      cli_checked(argv, [&] { return args.get_int("seed", 20010916); }));

  core::RunnerConfig cfg;
  cfg.targets = positive("targets", 18);
  // c is set to the number of spectrally distinguishable constituents of
  // the synthetic map (10 materials + fires), mirroring how the paper set
  // c = 7 from the class count of its USGS map.
  cfg.classes = positive("classes", 14);
  cfg.morph_iterations = positive("iters", 5);
  cfg.kernel_radius = positive("radius", 2);
  cfg.sad_threshold =
      cli_checked(argv, [&] { return args.get_double("threshold", 0.06); });
  cfg.replication = positive("replication", default_replication);
  const bool csv =
      cli_checked(argv, [&] { return args.get_bool("csv", false); });

  // Every option is validated before the (costly) scene is generated.
  BenchSetup setup{
      cli_checked(argv, [&] { return hsi::generate_wtc_scene(scene_cfg); }),
      cfg, csv, args.get("summary", "")};
  if (!setup.summary_path.empty()) {
    // Collect metrics for the whole bench process; write_summary embeds the
    // stable subset next to the per-run report fields.
    obs::Metrics::instance().reset();
    obs::Metrics::instance().set_enabled(true);
  }
  return setup;
}

/// Stable summary key prefix for one sweep cell, e.g.
/// "ATDCA.hetero.fully-heterogeneous" (platform names are hyphenated and
/// never need escaping).
inline std::string summary_prefix(core::Algorithm alg,
                                  core::PartitionPolicy policy,
                                  const std::string& network) {
  const char* pol =
      policy == core::PartitionPolicy::kHeterogeneous ? "hetero" : "homo";
  return std::string(core::to_string(alg)) + "." + pol + "." + network;
}

/// Appends the process-wide stable metrics under "metrics." and writes the
/// summary to setup.summary_path (no-op when the path is empty).  Returns
/// false -- after printing a diagnostic -- on I/O failure, so mains can
/// `return write_summary(...) ? 0 : 1`.
inline bool write_summary(const BenchSetup& setup, obs::RunSummary& summary) {
  if (setup.summary_path.empty()) return true;
  add_metrics(summary, "bench", obs::Metrics::instance().snapshot());
  if (!summary.write(setup.summary_path)) {
    std::fprintf(stderr, "failed to write %s\n", setup.summary_path.c_str());
    return false;
  }
  return true;
}

/// Rank count of the largest platform in `networks` (the widest engine run
/// a bench makes over them; it sizes the _metadata executor_workers).
inline std::size_t widest_platform(
    const std::vector<simnet::Platform>& networks) {
  std::size_t widest = 0;
  for (const auto& net : networks) widest = std::max(widest, net.size());
  return widest;
}

/// The four 16-node networks of Section 3.1, in the paper's column order.
inline std::vector<simnet::Platform> paper_networks() {
  return {simnet::fully_heterogeneous(), simnet::fully_homogeneous(),
          simnet::partially_heterogeneous(), simnet::partially_homogeneous()};
}

/// Thunderhead processor counts of Table 8.
inline const std::vector<std::size_t>& thunderhead_cpus() {
  static const std::vector<std::size_t> cpus = {1,  4,   16,  36, 64,
                                                100, 144, 196, 256};
  return cpus;
}

inline const std::vector<core::Algorithm>& all_algorithms() {
  static const std::vector<core::Algorithm> algs = {
      core::Algorithm::kAtdca, core::Algorithm::kUfcls, core::Algorithm::kPct,
      core::Algorithm::kMorph};
  return algs;
}

/// Executor worker threads an engine run on `ranks` ranks occupies: one
/// per rank under HPRS_THREAD_PER_RANK, else min(ranks, hw_threads).
inline std::size_t executor_workers_for(std::size_t ranks,
                                        std::size_t hw_threads) {
  if (vmpi::thread_per_rank_from_env()) return ranks;
  return std::min(ranks, std::max<std::size_t>(hw_threads, 1));
}

/// Writes the shared "_metadata" header line every committed BENCH_*.json
/// artifact carries: the host's hardware thread count, the executor worker
/// threads of the bench's largest run, the effective HPRS_KERNEL_THREADS
/// setting, and an oversubscription flag, set when executor workers times
/// kernel threads exceed the hardware threads (timings measured that way
/// are not comparable to the committed artifact).  scripts/bench_smoke.sh
/// structurally requires this header in every artifact.
inline void write_metadata_entry(std::FILE* f, bool trailing_comma,
                                 std::size_t hw_threads,
                                 std::size_t executor_workers,
                                 std::size_t kernel_threads) {
  std::fprintf(f,
               "  \"_metadata\": {\"hw_threads\": %zu, \"executor_workers\": "
               "%zu, \"kernel_threads\": %zu, \"oversubscribed\": %s}%s\n",
               hw_threads, executor_workers, kernel_threads,
               executor_workers * kernel_threads > hw_threads ? "true"
                                                              : "false",
               trailing_comma ? "," : "");
}

/// The header for a bench whose largest engine run has `max_ranks` ranks.
inline void write_metadata_entry(std::FILE* f, bool trailing_comma,
                                 std::size_t max_ranks) {
  const auto hw =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  write_metadata_entry(f, trailing_comma, hw,
                       executor_workers_for(max_ranks, hw),
                       linalg::kernel_threads());
}

/// One cell of the Tables 5-7 sweep: an algorithm/policy pair on one of the
/// four experimental networks.
struct SweepRecord {
  core::Algorithm algorithm;
  core::PartitionPolicy policy;
  std::string network;
  vmpi::RunReport report;
};

/// Runs every {algorithm} x {hetero, homo} x {network} combination of the
/// paper's Tables 5-7 and returns the reports in display order (algorithm
/// major, hetero before homo, networks in paper column order).
inline std::vector<SweepRecord> network_sweep(const BenchSetup& setup) {
  std::vector<SweepRecord> records;
  const auto networks = paper_networks();
  for (const auto alg : all_algorithms()) {
    for (const auto policy : {core::PartitionPolicy::kHeterogeneous,
                              core::PartitionPolicy::kHomogeneous}) {
      for (const auto& net : networks) {
        auto cfg = setup.config;
        cfg.algorithm = alg;
        cfg.policy = policy;
        SweepRecord rec{alg, policy, net.name(),
                        core::run_algorithm(net, setup.scene.cube, cfg)
                            .report};
        records.push_back(std::move(rec));
      }
    }
  }
  return records;
}

/// One row of the machine-readable kernel-bench summary.  bench_kernels
/// collects one record per benchmark and serializes them with
/// write_kernel_json (--json <path>, conventionally BENCH_kernels.json) so
/// speedup tracking does not have to scrape console output.
struct KernelRecord {
  std::string name;
  double ns_per_op = 0.0;  ///< median over the repetitions
  double bytes_per_op = 0.0;
  /// Spread of ns_per_op over the repetitions (both equal ns_per_op for a
  /// single run), so a change can be told from host noise.
  double ns_per_op_min = 0.0;
  double ns_per_op_max = 0.0;
  std::size_t repetitions = 1;
};

/// Writes the records as a flat JSON object keyed by benchmark name, headed
/// by a "_metadata" entry recording the host's hardware thread count and the
/// effective kernel-thread setting the numbers were measured under (timings
/// from an oversubscribed run are not comparable to the committed artifact).
/// No third-party JSON dependency: names are benchmark identifiers (no
/// characters needing escapes) and values are plain numbers.
inline bool write_kernel_json(const std::string& path,
                              const std::vector<KernelRecord>& records,
                              std::size_t hw_threads,
                              std::size_t kernel_threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  // Kernels run on the calling thread and the kernel pool only.
  write_metadata_entry(f, !records.empty(), hw_threads,
                       /*executor_workers=*/1, kernel_threads);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    std::fprintf(f,
                 "  \"%s\": {\"ns_per_op\": %.3f, \"ns_per_op_min\": %.3f, "
                 "\"ns_per_op_max\": %.3f, \"repetitions\": %zu, "
                 "\"bytes_per_op\": %.1f}%s\n",
                 r.name.c_str(), r.ns_per_op, r.ns_per_op_min,
                 r.ns_per_op_max, r.repetitions, r.bytes_per_op,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the streamed-tiling summary: one algorithm on one
/// accelerated gang (simnet::accelerated_now), monolithic staging against
/// the per-tile streamed driver (core::RunnerConfig::tile_stream).
/// bench_table6_breakdown collects one record per cell and serializes them
/// with write_stream_json (--json <path>, conventionally BENCH_stream.json)
/// so comm/compute-overlap regressions are machine-checkable.
struct StreamRecord {
  std::string algorithm;
  std::size_t cpus = 0;
  std::size_t accels = 0;
  double monolithic_s = 0.0;
  double streamed_s = 0.0;

  /// Percentage of the monolithic makespan saved by streaming.
  [[nodiscard]] double win_pct() const {
    return monolithic_s > 0.0 ? 100.0 * (1.0 - streamed_s / monolithic_s)
                              : 0.0;
  }
};

/// Writes the records as a flat JSON object keyed "<ALG>_cpu<n>_acc<m>".
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_stream_json(const std::string& path,
                              const std::vector<StreamRecord>& records,
                              std::size_t max_ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), max_ranks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(f,
                 "  \"%s_cpu%zu_acc%zu\": {\"monolithic_s\": %.6f, "
                 "\"streamed_s\": %.6f, \"win_pct\": %.3f}%s\n",
                 r.algorithm.c_str(), r.cpus, r.accels, r.monolithic_s,
                 r.streamed_s, r.win_pct(), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the engine host-runtime summary: how long the host took to
/// simulate one (algorithm, processor count) Thunderhead run, next to the
/// virtual time the run reported.  bench_table8_thunderhead collects one
/// record per cell and serializes them with write_engine_json
/// (--json <path>, conventionally BENCH_engine.json) so engine-scaling
/// regressions are machine-checkable.
struct EngineRecord {
  std::string algorithm;
  std::size_t cpus = 0;
  double host_seconds = 0.0;
  double virtual_seconds = 0.0;
  /// Target rows the run's ATDCA/UFCLS correlation planes computed and
  /// reused (host counters core.corr_plane.rows_*; 0 for PCT/MORPH).
  std::uint64_t corr_rows_computed = 0;
  std::uint64_t corr_rows_reused = 0;
};

/// Current total of the metrics counter `name` (0 when it was never
/// recorded, e.g. while collection is off).
inline std::uint64_t metric_count(std::string_view name) {
  for (const auto& [key, value] : obs::Metrics::instance().snapshot()) {
    if (key == name) return value.count;
  }
  return 0;
}

/// Writes the records as a flat JSON object keyed "<ALG>_p<cpus>".  Same
/// no-dependency format rationale as write_kernel_json.
inline bool write_engine_json(const std::string& path,
                              const std::vector<EngineRecord>& records,
                              std::size_t max_ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), max_ranks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(
        f,
        "  \"%s_p%zu\": {\"host_seconds\": %.4f, \"virtual_seconds\": %.3f, "
        "\"corr_rows_computed\": %llu, \"corr_rows_reused\": %llu}%s\n",
        records[i].algorithm.c_str(), records[i].cpus,
        records[i].host_seconds, records[i].virtual_seconds,
        static_cast<unsigned long long>(records[i].corr_rows_computed),
        static_cast<unsigned long long>(records[i].corr_rows_reused),
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the fault-recovery summary: how one {algorithm, network,
/// fault scenario} run survived its injected crashes.  bench_fault_recovery
/// collects one record per cell and serializes them with write_fault_json
/// (--json <path>, conventionally BENCH_fault.json) so recovery-overhead
/// regressions are machine-checkable.
struct FaultRecord {
  std::string algorithm;
  std::string network;
  std::string scenario;
  double virtual_seconds = 0.0;
  vmpi::RecoveryStats recovery;
  /// Whether the run's outputs (targets/labels) matched the fault-free
  /// reference bit for bit -- the fault-tolerance contract.
  bool outputs_match = false;
};

/// Writes the records as a flat JSON object keyed
/// "<ALG>_<network>_<scenario>".  Same no-dependency format rationale as
/// write_kernel_json.
inline bool write_fault_json(const std::string& path,
                             const std::vector<FaultRecord>& records,
                             std::size_t max_ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), max_ranks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s_%s_%s\": {\"virtual_seconds\": %.3f, \"detection_s\": %.3f, "
        "\"redistribution_s\": %.3f, \"recomputed_s\": %.3f, "
        "\"recomputed_mflops\": %.3f, \"crashes\": %d, \"detections\": %d, "
        "\"outputs_match\": %s}%s\n",
        r.algorithm.c_str(), r.network.c_str(), r.scenario.c_str(),
        r.virtual_seconds, r.recovery.detection_s, r.recovery.redistribution_s,
        r.recovery.recomputed_s, r.recovery.recomputed_megaflops(),
        r.recovery.crashes, r.recovery.detections,
        r.outputs_match ? "true" : "false",
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the scheduler-throughput summary: one {network, policy}
/// run of a fixed job stream through sched::run_schedule.
/// bench_sched_throughput collects one record per cell and serializes them
/// with write_sched_json (--json <path>, conventionally BENCH_sched.json)
/// so placement-quality regressions are machine-checkable.
struct SchedRecord {
  std::string network;
  std::string policy;
  double makespan_s = 0.0;
  double utilization = 0.0;
  double wait_p50_s = 0.0;
  double wait_p90_s = 0.0;
  double wait_max_s = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
};

/// Writes the records as a flat JSON object keyed "<network>_<policy>".
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_sched_json(const std::string& path,
                             const std::vector<SchedRecord>& records,
                             std::size_t max_ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), max_ranks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s_%s\": {\"makespan_s\": %.6f, \"utilization\": %.6f, "
        "\"wait_p50_s\": %.6f, \"wait_p90_s\": %.6f, \"wait_max_s\": %.6f, "
        "\"completed\": %zu, \"rejected\": %zu}%s\n",
        r.network.c_str(), r.policy.c_str(), r.makespan_s, r.utilization,
        r.wait_p50_s, r.wait_p90_s, r.wait_max_s, r.completed, r.rejected,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One cell of the serving bench: one {scenario, executor-mode} run of a
/// generated traffic trace through serve::run_service.
/// bench_serve_traffic collects one record per cell and serializes them
/// with write_serve_json (--json <path>, conventionally BENCH_serve.json)
/// so serving-quality regressions (SLA drift across executor modes,
/// batching losing its win) are machine-checkable.
struct ServeRecord {
  std::string scenario;
  std::string mode;
  double makespan_s = 0.0;
  double utilization = 0.0;
  double wait_p50_s = 0.0;
  double wait_p95_s = 0.0;
  double slowdown_p95 = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t riders = 0;
};

/// Writes the records as a flat JSON object keyed "<scenario>_<mode>".
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_serve_json(const std::string& path,
                             const std::vector<ServeRecord>& records,
                             std::size_t max_ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), max_ranks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s_%s\": {\"makespan_s\": %.6f, \"utilization\": %.6f, "
        "\"wait_p50_s\": %.6f, \"wait_p95_s\": %.6f, \"slowdown_p95\": "
        "%.6f, \"completed\": %zu, \"rejected\": %zu, \"riders\": %zu}%s\n",
        r.scenario.c_str(), r.mode.c_str(), r.makespan_s, r.utilization,
        r.wait_p50_s, r.wait_p95_s, r.slowdown_p95, r.completed, r.rejected,
        r.riders, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One scenario of the resilience bench: a fixed single-job stream run
/// through the resilient scheduler either fault-free or under a leader
/// crash, with checkpoint resume on or off.  bench_sched_resilience
/// serializes one record per scenario with write_resilience_json
/// (--json <path>, conventionally BENCH_resilience.json) so the
/// recovery-cost contract (checkpoint resume beats cold restart, outputs
/// bit-identical) is machine-checkable.
struct ResilienceRecord {
  std::string scenario;
  double makespan_s = 0.0;
  double recovery_overhead_s = 0.0;
  std::size_t attempts = 0;
  int checkpoints = 0;
  int resumed_seq = 0;
  bool outputs_match = false;
};

/// Writes the records as a flat JSON object keyed by scenario name.
/// Same no-dependency format rationale as write_kernel_json.
inline bool write_resilience_json(const std::string& path,
                                  const std::vector<ResilienceRecord>& records,
                                  std::size_t max_ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  write_metadata_entry(f, !records.empty(), max_ranks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    std::fprintf(
        f,
        "  \"%s\": {\"makespan_s\": %.6f, \"recovery_overhead_s\": %.6f, "
        "\"attempts\": %zu, \"checkpoints\": %d, \"resumed_seq\": %d, "
        "\"outputs_match\": %s}%s\n",
        r.scenario.c_str(), r.makespan_s, r.recovery_overhead_s, r.attempts,
        r.checkpoints, r.resumed_seq, r.outputs_match ? "true" : "false",
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// Peels "--<name> <value>" out of argv before the setup parser (or
/// benchmark::Initialize, which aborts on unrecognized flags) sees it.
/// Returns the value, or an empty string when the flag is absent.
/// A trailing "--<name>" with no value is a command-line error.
inline std::string take_string_flag(int& argc, char** argv,
                                    const std::string& name) {
  peeled_options().push_back(name + " <value>");
  std::string value;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + name) {
      if (i + 1 >= argc) {
        cli_error(argv[0], "option --" + name + " expects a value");
      }
      value = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// Peels "--<name> <number>" out of argv; `fallback` when absent.  The
/// value must be a finite number, > 0 (or >= 0 with `allow_zero`).
inline double take_double_flag(int& argc, char** argv, const std::string& name,
                               double fallback, bool allow_zero = false) {
  const std::string text = take_string_flag(argc, argv, name);
  if (text.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
      value < 0.0 || (value == 0.0 && !allow_zero)) {
    cli_error(argv[0], "option --" + name + " expects a " +
                           (allow_zero ? "non-negative" : "positive") +
                           " number, got '" + text + "'");
  }
  return value;
}

/// Peels "--<name> <count>" out of argv; `fallback` when absent.  The value
/// must be an integer >= 1.
inline std::size_t take_count_flag(int& argc, char** argv,
                                   const std::string& name,
                                   std::size_t fallback) {
  const std::string text = take_string_flag(argc, argv, name);
  if (text.empty()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 1) {
    cli_error(argv[0], "option --" + name +
                           " expects a positive integer, got '" + text + "'");
  }
  return static_cast<std::size_t>(value);
}

/// Peels a bare "--<name>" switch out of argv; true when it was present.
inline bool take_bool_flag(int& argc, char** argv, const std::string& name) {
  peeled_options().push_back(name);
  bool value = false;
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--" + name) {
      value = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// Peels "--json <path>" (the machine-readable artifact twin).
inline std::string take_json_flag(int& argc, char** argv) {
  return take_string_flag(argc, argv, "json");
}

inline void emit(const TextTable& table, bool csv, const char* title) {
  std::printf("%s\n", title);
  if (csv) {
    std::printf("%s", table.to_csv().c_str());
  } else {
    std::printf("%s", table.to_string().c_str());
  }
  std::fflush(stdout);
}

}  // namespace hprs::bench
