// perfbench: host-time benchmark harness for the hprs stack.
//
// One process, one caller, closed loop: the next op starts when the previous
// one returns.  An op is one call into the workload's entry function
// (serve::run_service or core::run_algorithm).  Every repeat draws fresh
// inputs from the workload seed plus the repeat index; ops inside one repeat
// share those inputs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//             [--reference FILE]
//
// prints one JSON document on stdout.  perfbench/run.py is the command line
// users run: it builds this binary, validates the arguments, passes them on,
// and turns the document into the benchmark's result line; see
// perfbench/README.md for the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/runner.hpp"
#include "hsi/scene.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/thread_pool.hpp"
#include "obs/host_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_summary.hpp"
#include "sched/scheduler.hpp"
#include "serve/service.hpp"
#include "serve/traffic.hpp"
#include "simnet/platform.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/engine.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace hprs;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;
/// Repeat index of the warm-up inputs: far outside any timed repeat.
constexpr std::uint64_t kWarmupRepeat = 1ULL << 40;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Scene seed of the dataset the service keeps for the whole run (the
/// paper's collection date, hsi::SceneConfig's default); the workload seed
/// drives the traffic against it.
constexpr std::uint64_t kDatasetSeed = 20010916;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Derives an independent 64-bit stream seed from the workload seed, a
/// repeat index and a salt, so the same seed always gives the same inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t repeat,
                          std::uint64_t salt) {
  SplitMix64 mix(seed ^ (repeat * 0x9e3779b97f4a7c15ULL) ^
                 (salt * 0xd1b54a32d192ed03ULL));
  mix.next();
  return mix.next();
}

// -- output hashing ---------------------------------------------------------

/// FNV-1a over the bytes of outputs and virtual-time results.
class Hasher {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  template <typename T>
  void pod_vec(const std::vector<T>& v) {
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void targets(const std::vector<core::PixelLocation>& v) {
    u64(v.size());
    for (const auto& t : v) {
      u64(t.row);
      u64(t.col);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void hash_schedule(Hasher& h, const sched::ScheduleResult& result) {
  h.f64(result.report.total_time);
  h.f64(result.makespan_s);
  h.f64(result.utilization);
  h.pod_vec(result.lost_ranks);
  for (const sched::JobRecord& r : result.records) {
    h.u64(r.id);
    h.u64(static_cast<std::uint64_t>(r.state));
    h.f64(r.dispatch_s);
    h.f64(r.finish_s);
    h.f64(r.est_seconds);
    h.f64(r.busy_s);
    h.pod_vec(r.members);
    h.str(r.error);
    h.u64(r.batched_into);
    h.u64(r.batch_fanout);
    for (const sched::JobAttempt& a : r.attempts) {
      h.u64(static_cast<std::uint64_t>(a.attempt));
      h.f64(a.dispatch_s);
      h.f64(a.end_s);
      h.f64(a.backoff_s);
      h.pod_vec(a.members);
      h.u64(static_cast<std::uint64_t>(a.resumed_seq));
      h.u64(static_cast<std::uint64_t>(a.checkpoints));
      h.f64(a.checkpoint_s);
      h.str(a.outcome);
    }
  }
  for (const sched::JobOutput& o : result.outputs) {
    h.targets(o.targets);
    h.pod_vec(o.scores);
    h.pod_vec(o.labels);
    h.u64(o.label_count);
  }
}

// -- spans ------------------------------------------------------------------

/// One benchmark span: a call into a layer, or a phase around such calls.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span log on the host profiler's clock, so the program's own
/// ScopedHostTimer spans line up with the benchmark's.  Disabled in
/// untraced runs, where open/close cost one branch.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.begin_us = obs::HostProfiler::instance().now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us =
        obs::HostProfiler::instance().now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(g_spans.open(name)) {}
  explicit ScopedSpan(std::string name) : id_(g_spans.open(std::move(name))) {}
  ~ScopedSpan() { g_spans.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// -- per-op tallies ---------------------------------------------------------

/// Counts one op contributes to the per-layer metrics.
struct Tally {
  double requests = 0, completed = 0, rejected_rate = 0, rejected_quota = 0,
         riders = 0;
  double jobs = 0, attempts = 0, checkpoints = 0, ranks_lost = 0,
         degraded = 0, failed = 0;
  double eigen_solves = 0;
};

void tally_schedule(Tally& t, const sched::ScheduleResult& result) {
  for (const sched::JobRecord& r : result.records) {
    if (r.rejected) continue;
    t.jobs += 1;
    t.attempts += r.attempts.empty() ? (r.completed() && r.batched_into == 0)
                                     : static_cast<double>(r.attempts.size());
    for (const auto& a : r.attempts) t.checkpoints += a.checkpoints;
    if (r.algorithm == sched::JobAlgorithm::kPct && r.completed() &&
        r.batched_into == 0) {
      t.eigen_solves += 1;
    }
  }
  t.ranks_lost += static_cast<double>(result.lost_ranks.size());
  t.degraded += static_cast<double>(result.degraded());
  t.failed += static_cast<double>(result.failed());
}

/// Wall-clock samples of the benchmark's generator calls.
struct GenTimes {
  std::vector<double> scene_ms;
  std::vector<double> trace_ms;
};

hsi::Scene timed_scene(GenTimes& gen, std::size_t rows, std::size_t cols,
                       std::size_t bands, std::uint64_t seed) {
  ScopedSpan span("hsi.generate_wtc_scene");
  hsi::SceneConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.bands = bands;
  cfg.seed = seed;
  const auto t0 = Clock::now();
  hsi::Scene scene = hsi::generate_wtc_scene(cfg);
  gen.scene_ms.push_back(1e3 * seconds_since(t0));
  return scene;
}

std::vector<sched::JobSpec> timed_trace(GenTimes& gen,
                                        const serve::TraceConfig& config) {
  ScopedSpan span("serve.generate_trace");
  const auto t0 = Clock::now();
  std::vector<sched::JobSpec> trace = serve::generate_trace(config);
  gen.trace_ms.push_back(1e3 * seconds_since(t0));
  return trace;
}

/// The paper's Tables 5-7 runner configuration (bench_common.hpp defaults).
core::RunnerConfig paper_config() {
  core::RunnerConfig cfg;
  cfg.targets = 18;
  cfg.classes = 14;
  cfg.morph_iterations = 5;
  cfg.kernel_radius = 2;
  cfg.sad_threshold = 0.06;
  cfg.replication = 119;
  return cfg;
}

std::uint64_t hash_runner(const core::RunnerOutput& out) {
  Hasher h;
  h.f64(out.report.total_time);
  h.targets(out.targets);
  h.pod_vec(out.labels);
  h.u64(out.label_count);
  return h.value();
}

// -- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Ops per repeat; ops of one repeat share its inputs.
  [[nodiscard]] virtual std::size_t ops_per_repeat() const = 0;
  /// Generates the inputs every repeat shares (the service's scene...).
  virtual void prepare_run(GenTimes& gen) = 0;
  /// Generates the inputs of repeat `r`.
  virtual void prepare_repeat(std::uint64_t r, GenTimes& gen) = 0;
  /// Runs op `k` of the prepared repeat and returns its output hash.
  virtual std::uint64_t run_op(std::size_t k, Tally& tally) = 0;
  /// Algorithm op `k` runs through core::run_algorithm ("" for none).
  [[nodiscard]] virtual std::string op_algorithm(std::size_t) const {
    return "";
  }
  /// Scene the linalg probes take their covariances from.
  [[nodiscard]] virtual const hsi::HsiCube& probe_scene() const = 0;
  /// Ranks of the largest platform the ops run on.
  [[nodiscard]] virtual std::size_t ranks() const = 0;
  /// Input sizes for the provenance block (a JSON object body).
  [[nodiscard]] virtual std::string sizes_json() const = 0;
};

/// serve-diurnal: one diurnal three-tenant trace window per op through the
/// scene service.  The tenant shares are stratified (4 survey, 3 tasking,
/// 2 adhoc requests per window) so every op carries one full tasking cycle,
/// PCT included, and op cost does not swing with how many PCT requests a
/// random draw put in the window.
class ServeDiurnal final : public Workload {
 public:
  explicit ServeDiurnal(std::uint64_t seed) : seed_(seed) {}

  std::size_t ops_per_repeat() const override { return 1; }

  void prepare_run(GenTimes& gen) override {
    scene_ = timed_scene(gen, kRows, kCols, kBands, kDatasetSeed);
  }

  void prepare_repeat(std::uint64_t r, GenTimes& gen) override {
    const std::vector<serve::TenantProfile> mix = serve::default_tenant_mix();
    const int pool = static_cast<int>(net_.size()) - 1;
    window_.clear();
    for (std::size_t t = 0; t < mix.size(); ++t) {
      serve::TraceConfig config;
      config.shape = serve::TrafficShape::kDiurnal;
      config.jobs = kTenantRequests[t];
      config.duration_s = kWindowS;
      config.seed = derive_seed(seed_, r, 100 + t);
      serve::TenantProfile tenant = mix[t];
      // The serving bench's test-scale request parameters.
      tenant.targets = 4;
      tenant.classes = 3;
      tenant.skewers = 32;
      tenant.max_ranks = std::min(tenant.max_ranks, std::min(pool, 6));
      tenant.min_ranks = std::min(tenant.min_ranks, tenant.max_ranks);
      config.tenants = {tenant};
      const auto part = timed_trace(gen, config);
      window_.insert(window_.end(), part.begin(), part.end());
    }
    std::stable_sort(window_.begin(), window_.end(),
                     [](const sched::JobSpec& a, const sched::JobSpec& b) {
                       return a.arrival_s < b.arrival_s;
                     });
    for (std::size_t i = 0; i < window_.size(); ++i) window_[i].id = i + 1;
  }

  std::uint64_t run_op(std::size_t, Tally& tally) override {
    const int pool = static_cast<int>(net_.size()) - 1;
    serve::ServiceConfig config;
    config.batching = true;
    config.quotas["adhoc"].max_inflight_ranks = 2 * std::min(pool, 6);
    config.record_metrics = false;
    vmpi::Options options;
    options.exec_mode = vmpi::ExecMode::kBoundedExecutor;
    serve::ServiceResult result;
    {
      ScopedSpan span("serve.run_service");
      result = serve::run_service(net_, scene_.cube, window_, config, options);
    }
    ScopedSpan check("check.hash");
    Hasher h;
    hash_schedule(h, result.schedule);
    obs::RunSummary sla;
    serve::add_sla_summary(sla, "serve", result);
    h.str(sla.to_json());
    tally.requests += static_cast<double>(window_.size());
    tally.completed += static_cast<double>(result.schedule.completed());
    tally.rejected_rate += static_cast<double>(result.rate_rejected);
    for (const sched::JobRecord& r : result.schedule.records) {
      if (r.rejected && r.error.rfind("quota:inflight_ranks", 0) == 0) {
        tally.rejected_quota += 1;
      }
    }
    tally.riders += static_cast<double>(result.batches.riders);
    tally_schedule(tally, result.schedule);
    return h.value();
  }

  const hsi::HsiCube& probe_scene() const override { return scene_.cube; }
  std::size_t ranks() const override { return net_.size(); }
  std::string sizes_json() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"scene\": [%zu, %zu, %zu], \"requests_per_op\": %zu, "
                  "\"window_s\": %.1f, \"tenant_requests\": [%zu, %zu, %zu]",
                  kRows, kCols, kBands, window_.size(), kWindowS,
                  kTenantRequests[0], kTenantRequests[1], kTenantRequests[2]);
    return buf;
  }

 private:
  static constexpr std::size_t kRows = 96, kCols = 96, kBands = 224;
  /// survey, tasking, adhoc (default_tenant_mix order).
  static constexpr std::size_t kTenantRequests[3] = {4, 3, 2};
  /// The serving bench's arrival density: 600 s per 1000 requests.
  static constexpr double kWindowS = 0.6 * 9;

  std::uint64_t seed_;
  simnet::Platform net_ = simnet::fully_heterogeneous();
  hsi::Scene scene_;
  std::vector<sched::JobSpec> window_;
};

/// paper-tables: every Table 5-7 cell once per repeat on a fresh scene.
/// Cells are ordered algorithm-minor so any prefix of a repeat holds the
/// four algorithms in equal shares.
class PaperTables final : public Workload {
 public:
  explicit PaperTables(std::uint64_t seed) : seed_(seed) {}

  std::size_t ops_per_repeat() const override { return 32; }
  void prepare_run(GenTimes&) override {}
  void prepare_repeat(std::uint64_t r, GenTimes& gen) override {
    scene_ = timed_scene(gen, kRows, kCols, kBands, derive_seed(seed_, r, 2));
  }

  std::uint64_t run_op(std::size_t k, Tally& tally) override {
    core::RunnerConfig cfg = paper_config();
    cfg.algorithm = algorithm(k);
    cfg.policy = (k / 4) % 2 == 0 ? core::PartitionPolicy::kHeterogeneous
                                  : core::PartitionPolicy::kHomogeneous;
    core::RunnerOutput out;
    {
      ScopedSpan span("core.run_algorithm");
      out = core::run_algorithm(nets_[k / 8], scene_.cube, cfg);
    }
    if (cfg.algorithm == core::Algorithm::kPct) tally.eigen_solves += 1;
    ScopedSpan check("check.hash");
    return hash_runner(out);
  }

  std::string op_algorithm(std::size_t k) const override {
    return core::to_string(algorithm(k));
  }
  const hsi::HsiCube& probe_scene() const override { return scene_.cube; }
  std::size_t ranks() const override {
    std::size_t p = 0;
    for (const simnet::Platform& net : nets_) p = std::max(p, net.size());
    return p;
  }
  std::string sizes_json() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"scene\": [%zu, %zu, %zu], \"replication\": 119, "
                  "\"cells_per_repeat\": 32",
                  kRows, kCols, kBands);
    return buf;
  }

 private:
  static constexpr std::size_t kRows = 96, kCols = 96, kBands = 224;
  static core::Algorithm algorithm(std::size_t k) {
    static constexpr core::Algorithm kAlgs[4] = {
        core::Algorithm::kAtdca, core::Algorithm::kUfcls,
        core::Algorithm::kPct, core::Algorithm::kMorph};
    return kAlgs[k % 4];
  }

  std::uint64_t seed_;
  std::vector<simnet::Platform> nets_ = {
      simnet::fully_heterogeneous(), simnet::fully_homogeneous(),
      simnet::partially_heterogeneous(), simnet::partially_homogeneous()};
  hsi::Scene scene_;
};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "serve-diurnal") return std::make_unique<ServeDiurnal>(seed);
  if (name == "paper-tables") return std::make_unique<PaperTables>(seed);
  return nullptr;
}

// -- statistics -------------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// The median estimated as the mean of the central fifth of the sorted
/// sample (the 40th to 60th percentile).  On paper-tables the four
/// algorithms split the op times into equal quarters, so the middle falls in
/// the gap between the MORPH and UFCLS cells; a single middle sample would
/// follow whichever cell sits at the edge of its mode.
double central_median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const std::size_t lo = 2 * n / 5;
  const std::size_t hi = std::max(lo + 1, (3 * n + 4) / 5);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += xs[i];
  return sum / static_cast<double>(hi - lo);
}

/// The highest whole percentile with at least ten samples beyond it, but
/// never below the 50th, and its nearest-rank value.
std::pair<int, double> tail_percentile(std::vector<double> xs) {
  if (xs.empty()) return {100, 0.0};
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const int q =
      n <= 20 ? 50 : static_cast<int>((100 * (n - 10)) / n);
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(q) / 100.0 * static_cast<double>(n)));
  return {q, xs[std::max<std::size_t>(rank, 1) - 1]};
}

// -- phases -----------------------------------------------------------------

struct Usage {
  double cpu_s = 0.0;
  long invol_csw = 0;
  long max_rss_kb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.invol_csw = ru.ru_nivcsw;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

/// Live heap bytes (glibc: arena bytes in use plus mmapped chunks).
double heap_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// High-water mark of the live heap, sampled after every set-up and op and
/// every millisecond during the untimed re-run of the first repeat
/// (sampling inside timed ops would perturb them).  Resident memory is reported too,
/// but glibc's per-thread arenas make it swing by a quarter between
/// identical runs.
double g_peak_heap_mb = 0.0;

void sample_heap() { g_peak_heap_mb = std::max(g_peak_heap_mb, heap_mb()); }

/// Samples the live heap every millisecond while alive.
class HeapSampler {
 public:
  HeapSampler()
      : thread_([this](std::stop_token stop) {
          while (!stop.stop_requested()) {
            peak_mb_ = std::max(peak_mb_, heap_mb());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Stops sampling and returns the peak seen.
  double stop() {
    thread_.request_stop();
    thread_.join();
    return peak_mb_;
  }

 private:
  double peak_mb_ = 0.0;  ///< written by thread_ only until stop() joins it
  std::jthread thread_;
};

struct PhaseResult {
  std::uint64_t first_repeat = 0;
  std::size_t attempted = 0;
  std::size_t repeats = 0;
  double busy_s = 0.0;  ///< wall time of the phase minus input generation
  std::vector<double> op_ms;
  std::map<std::string, std::vector<double>> op_ms_by_alg;
  /// One entry per attempted op, in op order (0 for an op that threw).
  std::vector<std::uint64_t> hashes;
  /// Ops that threw or failed an output check, by the same index.
  std::vector<bool> op_failed;
  std::vector<std::string> errors;
  Tally tally;
  Usage usage_delta;
};

/// Runs whole repeats until `seconds` of non-generation time have passed.
PhaseResult run_phase(Workload& w, GenTimes& gen, double seconds,
                      std::uint64_t first_repeat) {
  PhaseResult res;
  res.first_repeat = first_repeat;
  const Usage u0 = usage_now();
  const auto t0 = Clock::now();
  double gen_s = 0.0;
  Usage gen_usage;
  for (std::uint64_t r = first_repeat;; ++r) {
    const auto g0 = Clock::now();
    const Usage before = usage_now();
    w.prepare_repeat(r, gen);
    const Usage after = usage_now();
    gen_s += seconds_since(g0);
    gen_usage.cpu_s += after.cpu_s - before.cpu_s;
    gen_usage.invol_csw += after.invol_csw - before.invol_csw;
    for (std::size_t k = 0; k < w.ops_per_repeat(); ++k) {
      ++res.attempted;
      ScopedSpan span("op");
      const auto o0 = Clock::now();
      try {
        const std::uint64_t h = w.run_op(k, res.tally);
        const double ms = 1e3 * seconds_since(o0);
        sample_heap();
        res.op_ms.push_back(ms);
        const std::string alg = w.op_algorithm(k);
        if (!alg.empty()) res.op_ms_by_alg[alg].push_back(ms);
        res.hashes.push_back(h);
        res.op_failed.push_back(false);
      } catch (const std::exception& e) {
        res.hashes.push_back(0);
        res.op_failed.push_back(true);
        res.errors.emplace_back(e.what());
      }
    }
    ++res.repeats;
    // Stop at the repeat boundary nearest to `seconds`, so every run
    // measures whole repeats.
    const double busy = seconds_since(t0) - gen_s;
    if (busy + 0.5 * busy / static_cast<double>(res.repeats) >= seconds) {
      break;
    }
  }
  res.busy_s = seconds_since(t0) - gen_s;
  const Usage u1 = usage_now();
  res.usage_delta.cpu_s = u1.cpu_s - u0.cpu_s - gen_usage.cpu_s;
  res.usage_delta.invol_csw =
      u1.invol_csw - u0.invol_csw - gen_usage.invol_csw;
  return res;
}

std::size_t failed_ops(const PhaseResult& res) {
  return static_cast<std::size_t>(
      std::count(res.op_failed.begin(), res.op_failed.end(), true));
}

/// Runs the phase's first repeat again, untimed, and marks every op whose
/// hash differs from the one it produced in the phase.
void rerun_first_repeat(Workload& w, GenTimes& gen, PhaseResult& res) {
  ScopedSpan span("check.rerun");
  w.prepare_repeat(res.first_repeat, gen);
  const std::size_t ops = std::min(w.ops_per_repeat(), res.hashes.size());
  for (std::size_t k = 0; k < ops; ++k) {
    Tally ignored;
    std::string problem;
    try {
      if (w.run_op(k, ignored) != res.hashes[k]) {
        problem = "another hash";
      }
    } catch (const std::exception& e) {
      problem = std::string("an error: ") + e.what();
    }
    if (!problem.empty() && !res.op_failed[k]) {
      res.op_failed[k] = true;
      res.errors.push_back("re-run of repeat " +
                           std::to_string(res.first_repeat) + " op " +
                           std::to_string(k) + " produced " + problem);
    }
  }
}

// -- probes (traced run only) -----------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

double timer_s(const obs::Metrics::Snapshot& snap, std::string_view name,
               std::uint64_t* samples = nullptr) {
  for (const auto& [k, v] : snap) {
    if (k == name) {
      if (samples) *samples = v.count;
      return v.value;
    }
  }
  if (samples) *samples = 0;
  return 0.0;
}

double counter(const obs::Metrics::Snapshot& snap, std::string_view name) {
  for (const auto& [k, v] : snap) {
    if (k == name) {
      return v.kind == obs::MetricKind::kGauge ? v.value
                                               : static_cast<double>(v.count);
    }
  }
  return 0.0;
}

double counter_prefix(const obs::Metrics::Snapshot& snap,
                      std::string_view prefix) {
  double total = 0.0;
  for (const auto& [k, v] : snap) {
    if (k.rfind(prefix, 0) == 0) total += static_cast<double>(v.count);
  }
  return total;
}

/// Sum and sample count of every "core.run.<ALG>" timer.
double core_run_s(const obs::Metrics::Snapshot& snap, std::uint64_t* calls) {
  double total = 0.0;
  *calls = 0;
  for (const auto& [k, v] : snap) {
    if (k.rfind("core.run.", 0) == 0 && v.kind == obs::MetricKind::kTimer) {
      total += v.value;
      *calls += v.count;
    }
  }
  return total;
}

/// Covariance of rows [row0, row1) of `cube`, built with syrk_tri_update
/// on the mean-centred strip; reports the syrk call's seconds and rows.
linalg::Matrix covariance(const hsi::HsiCube& cube, std::size_t row0,
                          std::size_t row1, double* syrk_s,
                          std::size_t* syrk_m) {
  const std::size_t n = cube.bands();
  const std::size_t m = (row1 - row0) * cube.cols();
  std::vector<double> x(m * n);
  std::vector<double> mean(n, 0.0);
  for (std::size_t p = 0; p < m; ++p) {
    const auto px = cube.pixel(row0 * cube.cols() + p);
    for (std::size_t b = 0; b < n; ++b) {
      x[p * n + b] = px[b];
      mean[b] += px[b];
    }
  }
  for (double& v : mean) v /= static_cast<double>(m);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t b = 0; b < n; ++b) x[p * n + b] -= mean[b];
  }
  std::vector<double> tri(n * (n + 1) / 2, 0.0);
  {
    ScopedSpan span("linalg.syrk_tri_update");
    const auto t0 = Clock::now();
    linalg::syrk_tri_update(x.data(), m, n, tri.data());
    *syrk_s = seconds_since(t0);
  }
  *syrk_m = m;
  linalg::Matrix cov(n, n);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j, ++idx) {
      cov(i, j) = cov(j, i) = tri[idx] / static_cast<double>(m);
    }
  }
  return cov;
}

/// jacobi_eigen on two distinct covariances (the two halves of the
/// workload's scene) and syrk_tri_update on the half-scene strips.
void probe_linalg(const hsi::HsiCube& cube, MetricMap& out) {
  ScopedSpan span("probe.linalg");
  std::vector<double> eigen_ms;
  std::vector<double> syrk_gflops;
  double sweeps = 0.0;
  double bytes_per_flop = 0.0;
  const std::size_t half = cube.rows() / 2;
  const std::size_t bounds[3] = {0, half, cube.rows()};
  for (int part = 0; part < 2; ++part) {
    double syrk_s = 0.0;
    std::size_t m = 0;
    const linalg::Matrix cov =
        covariance(cube, bounds[part], bounds[part + 1], &syrk_s, &m);
    const double n = static_cast<double>(cube.bands());
    const double flops = 2.0 * static_cast<double>(m) * n * (n + 1) / 2.0;
    // Computed bytes: the strip read once, the packed triangle read and
    // written once.
    const double bytes =
        8.0 * (static_cast<double>(m) * n + 2.0 * n * (n + 1) / 2.0);
    syrk_gflops.push_back(flops / syrk_s / 1e9);
    bytes_per_flop = bytes / flops;
    ScopedSpan eig("linalg.jacobi_eigen");
    const auto t0 = Clock::now();
    const linalg::EigenDecomposition dec = linalg::jacobi_eigen(cov);
    eigen_ms.push_back(1e3 * seconds_since(t0));
    sweeps += dec.sweeps;
  }
  out["linalg.eigen_ms"] = {median(eigen_ms), "ms"};
  out["linalg.eigen_sweeps"] = {sweeps / 2.0, "count"};
  out["linalg.syrk_gflops"] = {median(syrk_gflops), "GFLOP/s"};
  out["linalg.syrk_bytes_per_flop"] = {bytes_per_flop, "B/flop"};
}

/// Engine::run at p=256 whose body only runs collectives.
void probe_collectives(MetricMap& out) {
  ScopedSpan span("probe.vmpi.collectives");
  obs::Metrics::instance().reset();
  vmpi::Engine engine(simnet::thunderhead(256));
  const auto t0 = Clock::now();
  {
    ScopedSpan run("vmpi.Engine.run");
    (void)engine.run([](vmpi::Comm& comm) {
      for (int i = 0; i < 8; ++i) {
        comm.barrier();
        const int v = comm.bcast(0, i, 64);
        const auto all = comm.gather(0, v + comm.rank(), 64);
        (void)all;
      }
    });
  }
  const double wall_s = seconds_since(t0);
  const auto snap = obs::Metrics::instance().snapshot();
  const double colls = counter_prefix(snap, "vmpi.collectives.");
  out["vmpi.collective_us"] = {colls > 0 ? 1e6 * wall_s / colls : 0.0, "us"};
}

/// A near-zero-work job stream through run_schedule in each mode.
void probe_dispatch(GenTimes& gen, MetricMap& out) {
  ScopedSpan span("probe.sched.dispatch");
  GenTimes local;
  const hsi::Scene tiny = timed_scene(local, 16, 16, 8, 7);
  serve::TraceConfig config;
  config.shape = serve::TrafficShape::kSteady;
  config.jobs = 32;
  config.duration_s = 2.0;
  config.seed = 11;
  serve::TenantProfile tenant;
  tenant.targets = 2;
  tenant.max_ranks = 2;
  config.tenants = {tenant};
  const std::vector<sched::JobSpec> stream = timed_trace(gen, config);
  for (const bool resilient : {false, true}) {
    sched::SchedulerConfig cfg;
    cfg.record_metrics = false;
    cfg.resilience.enabled = resilient;
    ScopedSpan run("sched.run_schedule");
    const auto t0 = Clock::now();
    (void)sched::run_schedule(simnet::fully_heterogeneous(), tiny.cube,
                              stream, cfg);
    const double us = 1e6 * seconds_since(t0) /
                      static_cast<double>(stream.size());
    out[resilient ? "sched.dispatch_us_per_job.resilient"
                  : "sched.dispatch_us_per_job.base"] = {us, "us"};
  }
}

/// core::run_algorithm for each algorithm the workload's ops do not run,
/// on a small scene, so every core.* metric is measured on every workload.
void probe_core(const std::map<std::string, std::vector<double>>& seen,
                MetricMap& out, std::vector<std::string>& probed) {
  ScopedSpan span("probe.core");
  GenTimes local;
  const hsi::Scene small = timed_scene(local, 32, 32, 32, 9);
  core::RunnerConfig cfg;
  cfg.targets = 4;
  cfg.classes = 3;
  cfg.morph_iterations = 2;
  cfg.kernel_radius = 1;
  const simnet::Platform net = simnet::fully_heterogeneous();
  for (const core::Algorithm alg :
       {core::Algorithm::kAtdca, core::Algorithm::kUfcls,
        core::Algorithm::kPct, core::Algorithm::kMorph}) {
    const std::string name = core::to_string(alg);
    if (seen.count(name) != 0) continue;
    cfg.algorithm = alg;
    ScopedSpan run("core.run_algorithm");
    const auto t0 = Clock::now();
    (void)core::run_algorithm(net, small.cube, cfg);
    out["core.run_ms." + name] = {1e3 * seconds_since(t0), "ms"};
    probed.push_back("core.run_ms." + name);
  }
}

// -- output -----------------------------------------------------------------

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += json_str(k) + ": {\"value\": " + num(v.value) +
           ", \"unit\": " + json_str(v.unit) + "}";
  }
  return out + "}";
}

std::string string_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    out += json_str(xs[i]);
  }
  return out + "]";
}

/// Writes the spans as a Chrome trace-event document (the format of
/// obs/chrome_trace.hpp): the benchmark's spans on tid 0 of the host-time
/// process with their ids and parent ids in args, the program's own
/// ScopedHostTimer spans on tid 1+ with the innermost enclosing benchmark
/// span as parent.
bool write_trace(const std::string& path,
                 const std::vector<obs::HostSpan>& program_spans) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const auto& spans = g_spans.spans();
  f << "{\n\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  f << R"(  {"ph":"M","pid":1,"tid":0,"name":"process_name",)"
    << R"("args":{"name":"host time"}},)" << "\n"
    << R"(  {"ph":"M","pid":1,"tid":0,"name":"thread_name",)"
    << R"("args":{"name":"benchmark"}})";
  int max_tid = 0;
  for (const auto& s : program_spans) max_tid = std::max(max_tid, s.tid);
  for (int t = 0; t <= max_tid; ++t) {
    f << ",\n  {\"ph\":\"M\",\"pid\":1,\"tid\":" << t + 1
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"program thread "
      << t << "\"}}";
  }
  for (const Span& s : spans) {
    f << ",\n  {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":" << json_str(s.name)
      << ",\"cat\":\"perfbench\",\"ts\":" << num(s.begin_us)
      << ",\"dur\":" << num(s.end_us - s.begin_us) << ",\"args\":{\"id\":"
      << s.id << ",\"parent\":" << s.parent << "}}";
  }
  // Benchmark spans nest, so the innermost enclosing one is the enclosing
  // span with the latest start.
  std::size_t next_id = spans.size();
  for (const auto& hs : program_spans) {
    int parent = -1;
    double best = -1.0;
    for (const Span& s : spans) {
      if (s.begin_us <= hs.begin_us && hs.end_us <= s.end_us &&
          s.begin_us > best) {
        best = s.begin_us;
        parent = s.id;
      }
    }
    f << ",\n  {\"ph\":\"X\",\"pid\":1,\"tid\":" << hs.tid + 1
      << ",\"name\":" << json_str(hs.name)
      << ",\"cat\":\"host\",\"ts\":" << num(hs.begin_us)
      << ",\"dur\":" << num(hs.end_us - hs.begin_us) << ",\"args\":{\"id\":"
      << next_id++ << ",\"parent\":" << parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

/// Compares the warm-up hash and the hashes of every op of the phase's
/// first repeat with the reference file written by
/// `run.py --update-reference`: flat JSON in the RunSummary dialect with
/// keys "<workload>.warmup" and "<workload>.op.<k>".  Marks each op that
/// differs; an unreadable file, a missing key or a differing warm-up is a
/// problem of the run.
void check_reference(const std::string& path, const std::string& workload,
                     std::uint64_t warmup_hash, std::size_t ops_per_repeat,
                     PhaseResult& res, std::vector<std::string>& problems) {
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  std::map<std::string, std::string> ref;
  std::string error;
  if (!f || !obs::parse_flat_json(text.str(), ref, error)) {
    problems.push_back("cannot read reference hashes from " + path);
    return;
  }
  const auto differs = [&](const std::string& key, std::uint64_t h) {
    const auto it = ref.find(workload + "." + key);
    if (it == ref.end()) {
      problems.push_back("no reference hash " + workload + "." + key +
                         " in " + path);
      return false;
    }
    return it->second != "\"" + hex(h) + "\"";
  };
  if (differs("warmup", warmup_hash)) {
    problems.push_back("warm-up op hash differs from the reference");
  }
  for (std::size_t k = 0; k < std::min(ops_per_repeat, res.hashes.size());
       ++k) {
    if (differs("op." + std::to_string(k), res.hashes[k]) &&
        !res.op_failed[k]) {
      res.op_failed[k] = true;
      res.errors.push_back("op " + std::to_string(k) +
                           " hash differs from the reference");
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string reference;
};

[[noreturn]] void usage_error() {
  std::fputs(
      "perfbench: error: unexpected command line; run the benchmark "
      "through perfbench/run.py\n",
      stderr);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t* v) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *v = x;
  return true;
}

/// Reads the flags perfbench/run.py passes; anything else exits 2.
Args parse_args(int argc, char** argv) {
  if (argc % 2 == 0) usage_error();
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      a.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n > 0) {
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out_dir = value;
    } else if (flag == "--reference") {
      a.reference = value;
    } else {
      usage_error();
    }
  }
  return a;
}

std::string hprs_env_json() {
  std::string out = "{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("HPRS_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    if (!first) out += ", ";
    first = false;
    out += json_str(kv.substr(0, eq)) + ": " +
           json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) usage_error();

  try {
    GenTimes gen;
    std::vector<std::string> problems;

    // -- set-up: shared inputs, warm-up inputs, one untimed warm-up op ----
    g_spans.set_enabled(args.trace);
    std::vector<double> setup_s;
    std::string setup_list;
    std::uint64_t warmup_hash = 0;
    for (int i = 0; i < kSetups; ++i) {
      ScopedSpan span("setup");
      const auto t0 = Clock::now();
      w->prepare_run(gen);
      w->prepare_repeat(kWarmupRepeat, gen);
      Tally ignored;
      std::uint64_t h = 0;
      {
        ScopedSpan op("warmup");
        h = w->run_op(0, ignored);
      }
      setup_s.push_back(seconds_since(t0));
      setup_list += (i ? ", " : "") + num(setup_s.back());
      sample_heap();
      if (i == 0) {
        warmup_hash = h;
      } else if (h != warmup_hash) {
        problems.push_back("warm-up op hash differs between set-ups");
      }
    }

    MetricMap metrics;
    PhaseResult main_phase;
    PhaseResult traced;
    std::vector<std::string> probed;
    double trace_overhead_pct = 0.0;
    if (!args.trace) {
      main_phase = run_phase(*w, gen, args.seconds, 0);
    } else {
      // Untraced half, then the traced half on the following repeats.
      g_spans.set_enabled(false);
      main_phase = run_phase(*w, gen, args.seconds / 2.0, 0);
      g_spans.set_enabled(true);
      obs::Metrics::instance().reset();
      obs::Metrics::instance().set_enabled(true);
      obs::HostProfiler::instance().set_enabled(true);
      {
        ScopedSpan span("timed.traced");
        traced = run_phase(*w, gen, args.seconds / 2.0, main_phase.repeats);
      }
      const auto snap = obs::Metrics::instance().snapshot();
      obs::HostProfiler::instance().set_enabled(false);
      const std::vector<obs::HostSpan> program_spans =
          obs::HostProfiler::instance().spans();

      const double ops = static_cast<double>(std::max<std::size_t>(
          traced.attempted - failed_ops(traced), 1));
      const Tally& t = traced.tally;
      const auto per_op = [ops](double x) { return x / ops; };
      metrics["serve.requests"] = {per_op(t.requests), "count/op"};
      metrics["serve.completed"] = {per_op(t.completed), "count/op"};
      metrics["serve.rejected_rate"] = {per_op(t.rejected_rate), "count/op"};
      metrics["serve.rejected_quota"] = {per_op(t.rejected_quota), "count/op"};
      metrics["serve.riders"] = {per_op(t.riders), "count/op"};
      metrics["serve.rider_ratio"] = {
          t.completed > 0 ? t.riders / t.completed : 0.0, "ratio"};
      metrics["sched.attempts"] = {per_op(t.attempts), "count/op"};
      metrics["sched.retry_ratio"] = {t.jobs > 0 ? t.attempts / t.jobs : 0.0,
                                      "ratio"};
      metrics["sched.checkpoints"] = {per_op(t.checkpoints), "count/op"};
      metrics["sched.ranks_lost"] = {per_op(t.ranks_lost), "count/op"};
      metrics["sched.degraded"] = {per_op(t.degraded), "count/op"};
      metrics["sched.failed"] = {per_op(t.failed), "count/op"};
      metrics["linalg.eigen_solves"] = {per_op(t.eigen_solves), "count/op"};

      for (const auto& [alg, ms] : traced.op_ms_by_alg) {
        metrics["core.run_ms." + alg] = {median(ms), "ms"};
      }
      std::uint64_t engine_runs = 0;
      const double engine_s = timer_s(snap, "vmpi.engine.run", &engine_runs);
      const double ranks_s = timer_s(snap, "vmpi.engine.ranks");
      const double runs = static_cast<double>(std::max<std::uint64_t>(
          engine_runs, 1));
      metrics["vmpi.engine_run_ms"] = {1e3 * engine_s / runs, "ms"};
      metrics["vmpi.engine_setup_ms"] = {1e3 * (engine_s - ranks_s) / runs,
                                         "ms"};
      const double colls = counter_prefix(snap, "vmpi.collectives.");
      const double parks = counter(snap, "vmpi.host.executor.parks");
      metrics["vmpi.collectives"] = {per_op(colls), "count/op"};
      metrics["vmpi.bytes_sent"] = {per_op(counter(snap, "vmpi.bytes_sent")),
                                    "B/op"};
      metrics["vmpi.executor.parks"] = {per_op(parks), "count/op"};
      metrics["vmpi.executor.ready_moves"] = {
          per_op(counter(snap, "vmpi.host.executor.ready_moves")), "count/op"};
      metrics["vmpi.executor.expirations"] = {
          per_op(counter(snap, "vmpi.host.executor.expirations")), "count/op"};
      metrics["vmpi.wakeups_targeted"] = {
          per_op(counter(snap, "vmpi.host.wakeups_targeted")), "count/op"};
      metrics["vmpi.wakeups_broadcast"] = {
          per_op(counter(snap, "vmpi.host.wakeups_broadcast")), "count/op"};
      metrics["vmpi.mailbox_depth_max"] = {
          counter(snap, "vmpi.host.mailbox_depth_max"), "count"};
      metrics["vmpi.executor.workers"] = {
          counter(snap, "vmpi.host.executor.workers"), "count"};
      metrics["vmpi.parks_per_collective"] = {colls > 0 ? parks / colls : 0.0,
                                              "ratio"};
      metrics["linalg.flops_per_op"] = {per_op(counter(snap, "vmpi.flops")),
                                        "flop/op"};
      metrics["linalg.scratch_high_water_mb"] = {
          8.0 * counter(snap, "linalg.scratch_high_water_doubles") / 1e6,
          "MB"};
      // Runner self time: core.run.<ALG> timers minus the engine runs
      // inside them, over the workload's own run_algorithm ops if it has
      // any, else over the core probe's.
      std::uint64_t core_calls = 0;
      double self_s = core_run_s(snap, &core_calls) - engine_s;

      // Probes into lower layers, each on a fresh registry.
      probe_linalg(w->probe_scene(), metrics);
      probe_collectives(metrics);
      probe_dispatch(gen, metrics);
      if (traced.op_ms_by_alg.size() < 4) {
        obs::Metrics::instance().reset();
        probe_core(traced.op_ms_by_alg, metrics, probed);
        if (traced.op_ms_by_alg.empty()) {
          const auto core_snap = obs::Metrics::instance().snapshot();
          self_s = core_run_s(core_snap, &core_calls) -
                   timer_s(core_snap, "vmpi.engine.run");
          probed.push_back("core.runner_self_ms");
        }
      }
      metrics["core.runner_self_ms"] = {
          1e3 * self_s /
              static_cast<double>(std::max<std::uint64_t>(core_calls, 1)),
          "ms"};
      obs::Metrics::instance().set_enabled(false);

      metrics["hsi.scene_gen_ms"] = {median(gen.scene_ms), "ms"};
      metrics["serve.trace_gen_ms"] = {median(gen.trace_ms), "ms"};
      const double untraced_rate =
          static_cast<double>(main_phase.attempted) / main_phase.busy_s;
      const double traced_rate =
          static_cast<double>(traced.attempted) / traced.busy_s;
      trace_overhead_pct = 100.0 * (untraced_rate / traced_rate - 1.0);
      metrics["obs.trace_overhead_pct"] = {trace_overhead_pct, "%"};
      metrics["host.cpu_util"] = {
          main_phase.usage_delta.cpu_s / main_phase.busy_s, "cores"};
      metrics["host.invol_csw_per_op"] = {
          static_cast<double>(main_phase.usage_delta.invol_csw) /
              static_cast<double>(main_phase.attempted),
          "count/op"};

      const std::string trace_path =
          args.out_dir + "/" + args.workload + ".trace.json";
      if (!write_trace(trace_path, program_spans)) {
        problems.push_back("failed to write " + trace_path);
      }
    }

    // -- output checks ----------------------------------------------------
    // Every op of the first repeat is run again; the re-run of the untimed
    // phase also samples the heap every millisecond.
    {
      HeapSampler sampler;
      rerun_first_repeat(*w, gen, main_phase);
      g_peak_heap_mb = std::max(g_peak_heap_mb, sampler.stop());
    }
    if (args.trace) rerun_first_repeat(*w, gen, traced);
    const bool reference_checked =
        args.seed == kDefaultSeed && !args.reference.empty();
    if (reference_checked) {
      check_reference(args.reference, args.workload, warmup_hash,
                      w->ops_per_repeat(), main_phase, problems);
    }

    // -- end-to-end metrics (the untraced phase) --------------------------
    // A problem of the run (not of one op) fails the run like one op.
    const PhaseResult& e2e = main_phase;
    const std::size_t attempted = e2e.attempted + traced.attempted;
    const std::size_t failed =
        std::min(attempted, failed_ops(e2e) + failed_ops(traced) +
                                problems.size());
    const std::size_t e2e_failed =
        std::min(e2e.attempted, failed_ops(e2e) + problems.size());
    const auto [tail_q, tail_ms] = tail_percentile(e2e.op_ms);
    MetricMap end_to_end;
    end_to_end["setup_s"] = {median(setup_s), "s"};
    end_to_end["ops_per_s"] = {static_cast<double>(e2e.attempted) / e2e.busy_s,
                               "1/s"};
    end_to_end["op_p50_ms"] = {central_median(e2e.op_ms), "ms"};
    end_to_end["op_tail_ms"] = {tail_ms, "ms"};
    end_to_end["ok_frac"] = {
        static_cast<double>(e2e.attempted - e2e_failed) /
            static_cast<double>(e2e.attempted),
        "ratio"};
    end_to_end["peak_heap_mb"] = {g_peak_heap_mb, "MB"};

    std::vector<std::string> errors = e2e.errors;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    errors.insert(errors.end(), problems.begin(), problems.end());

    std::vector<std::string> op_hex;
    for (std::size_t k = 0;
         k < std::min(w->ops_per_repeat(), e2e.hashes.size()); ++k) {
      op_hex.push_back(hex(e2e.hashes[k]));
    }
    // The engine's worker rule (vmpi/engine.hpp): one thread per rank under
    // HPRS_THREAD_PER_RANK, else min(p, hardware threads).
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    const char* per_rank = std::getenv("HPRS_THREAD_PER_RANK");
    const bool thread_per_rank = per_rank != nullptr && *per_rank != '\0' &&
                                 std::string_view(per_rank) != "0";
    const std::size_t executor =
        thread_per_rank ? w->ranks() : std::min(hw, w->ranks());
    const std::size_t kernel = linalg::kernel_threads();

    std::string argv_json = "[";
    for (int i = 0; i < argc; ++i) {
      if (i) argv_json += ", ";
      argv_json += json_str(argv[i]);
    }
    argv_json += "]";

    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %s,\n"
        " \"attempted\": %zu, \"failed\": %zu, \"correct\": %s,\n"
        " \"end_to_end\": %s,\n"
        " \"per_layer\": %s,\n"
        " \"probed\": %s,\n"
        " \"tail_percentile\": %d, \"samples\": %zu, \"repeats\": %zu,\n"
        " \"peak_rss_mb\": %s,\n"
        " \"traced_ops\": %zu, \"traced_repeats\": %zu,\n"
        " \"setup_s_samples\": [%s],\n"
        " \"hashes\": {\"warmup\": %s, \"ops\": %s, \"reference_checked\": "
        "%s},\n"
        " \"errors\": %s,\n"
        " \"provenance\": {\"argv\": %s, \"sizes\": {%s}, \"build_type\": %s, "
        "\"compiler\": %s, \"hw_threads\": %zu, \"executor_workers\": %zu, "
        "\"kernel_threads\": %zu, \"oversubscribed\": %s, "
        "\"hprs_env\": %s}}\n",
        json_str(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed),
        args.trace ? "true" : "false", attempted, failed,
        errors.empty() ? "true" : "false", metrics_json(end_to_end).c_str(),
        metrics_json(metrics).c_str(), string_list(probed).c_str(), tail_q,
        e2e.op_ms.size(), e2e.repeats,
        num(static_cast<double>(usage_now().max_rss_kb) / 1024.0).c_str(),
        traced.attempted, traced.repeats,
        setup_list.c_str(), json_str(hex(warmup_hash)).c_str(),
        string_list(op_hex).c_str(), reference_checked ? "true" : "false",
        string_list(errors).c_str(), argv_json.c_str(),
        w->sizes_json().c_str(), json_str(PERFBENCH_BUILD_TYPE).c_str(),
        json_str(PERFBENCH_COMPILER).c_str(), hw, executor, kernel,
        executor * kernel > hw ? "true" : "false", hprs_env_json().c_str());
    return errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
