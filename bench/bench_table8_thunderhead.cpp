// Table 8: execution times of the heterogeneous algorithms on the
// Thunderhead Beowulf surrogate for 1..256 processors.
//
// Paper shapes to hold: times fall monotonically with processor count for
// every algorithm; MORPH and ATDCA keep scaling to 256 nodes while PCT
// saturates earliest (its sequential eigendecomposition).
//
// The default scene is taller than the other benches' (the 256-way
// partition needs at least 256 image rows).
//
// With --json <path>, also records the *host* wall time of each
// (algorithm, CPUs) cell -- the cost of simulating the run, as opposed to
// the virtual time the run reports -- which is how engine-scaling changes
// are tracked (large p exercises the engine's scheduling/wakeup paths far
// more than its numerics).  Each ATDCA/UFCLS record also carries the
// target rows its correlation planes computed and reused, which is where
// those algorithms' host time goes.
#include <chrono>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hprs;
  const std::string json_path = bench::take_json_flag(argc, argv);
  const auto setup = bench::make_setup(argc, argv, /*default_rows=*/1067,
                                       /*default_cols=*/32,
                                       /*default_replication=*/32);

  std::vector<std::string> header = {"CPUs"};
  for (const auto alg : bench::all_algorithms()) {
    header.push_back(core::to_string(alg));
  }
  TextTable table(std::move(header));

  // The plane counters are host-domain metrics: collect them for the
  // --json records even when no --summary turned collection on.
  if (!json_path.empty()) obs::Metrics::instance().set_enabled(true);
  std::vector<bench::EngineRecord> records;
  for (const std::size_t cpus : bench::thunderhead_cpus()) {
    std::vector<std::string> row = {
        TextTable::num(static_cast<long long>(cpus))};
    for (const auto alg : bench::all_algorithms()) {
      auto cfg = setup.config;
      cfg.algorithm = alg;
      const std::uint64_t computed =
          bench::metric_count("core.corr_plane.rows_computed");
      const std::uint64_t reused =
          bench::metric_count("core.corr_plane.rows_reused");
      const auto host_start = std::chrono::steady_clock::now();
      const auto out = core::run_algorithm(simnet::thunderhead(cpus),
                                           setup.scene.cube, cfg);
      const std::chrono::duration<double> host_elapsed =
          std::chrono::steady_clock::now() - host_start;
      row.push_back(TextTable::num(out.report.total_time, 0));
      records.push_back(bench::EngineRecord{
          core::to_string(alg), cpus, host_elapsed.count(),
          out.report.total_time,
          bench::metric_count("core.corr_plane.rows_computed") - computed,
          bench::metric_count("core.corr_plane.rows_reused") - reused});
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, setup.csv,
              "Table 8. Execution times (seconds) of the heterogeneous "
              "algorithms on Thunderhead.");
  if (!json_path.empty() && !bench::write_engine_json(json_path, records,
                                 bench::thunderhead_cpus().back())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }

  obs::RunSummary summary;
  for (const auto& rec : records) {
    const std::string prefix =
        "table8." + rec.algorithm + ".p" + std::to_string(rec.cpus);
    summary.set_number(prefix + ".virtual_s", rec.virtual_seconds);
    // "host" in the key routes it to report_diff's threshold comparison.
    summary.set_number(prefix + ".host_s", rec.host_seconds);
  }
  return bench::write_summary(setup, summary) ? 0 : 1;
}
