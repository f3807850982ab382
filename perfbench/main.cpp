// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics of one workload (untraced); --trace
// 1 measures the per-layer ledger: host ceilings, single-layer probes, counters
// of an untraced window, and a separate traced window.  Human-readable lines
// go first; the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  Exits 1 when any call failed and 2
// on bad arguments or a pinned environment variable.  A watchdog ends a run
// that has not finished well past its expected time (a stalled library call)
// with exit code 4 and no result.  See README.md.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/panel_cache.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "runner.hpp"
#include "stats.hpp"

namespace obs = streamk::obs;
using namespace perfbench;

namespace {

/// Variables that change what the library does; the benchmark refuses to
/// run under any of them so every run measures the same program.
constexpr const char* kPinnedEnv[] = {
    "STREAMK_WORKERS",   "STREAMK_PANEL_CACHE", "STREAMK_FORCE_SCALAR",
    "STREAMK_TUNING_DB", "STREAMK_TRACE",       "STREAMK_ANALYZE",
    "STREAMK_PMU"};

/// Set-up samples per end-to-end run: forked children plus the parent.
constexpr int kSetupChildren = 8;
/// Untimed steady-state warm-up before each measured window: concurrent
/// calls allocate pooled workspaces, arenas and per-thread buffers that the
/// sequential set-up never needs, and the first seconds run measurably
/// slower until they exist.  Calls are still checked and counted.
constexpr double kWarmupSeconds = 2.0;
constexpr std::size_t kTraceRingCapacity = std::size_t{1} << 16;
/// The watchdog's limit past --seconds; a run normally ends within 15 s of
/// it.
constexpr double kWatchdogSlackSeconds = 90.0;

/// What the run is doing, for the watchdog's message.
std::atomic<const char*> g_stage{"start"};
/// The forked set-up child, while one runs.
std::atomic<pid_t> g_child{0};

/// Ends the process when the run has not finished by its deadline: a
/// library call that never returns (the pool, the fixup protocol) would
/// otherwise hang the benchmark forever.  Kills and reaps a forked set-up
/// child first, so no process outlives the run.
class Watchdog {
 public:
  explicit Watchdog(double limit_seconds)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(limit_seconds))),
        limit_seconds_(limit_seconds),
        thread_([this] { watch(); }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void watch() {
    std::unique_lock lock(mutex_);
    if (cv_.wait_until(lock, deadline_, [this] { return done_; })) return;
    std::fprintf(stderr,
                 "perfbench: no result after %g s, stalled in %s; giving up\n",
                 limit_seconds_, g_stage.load());
    if (const pid_t child = g_child.load(); child > 0) {
      kill(child, SIGKILL);
      waitpid(child, nullptr, 0);
    }
    std::_Exit(4);
  }

  const std::chrono::steady_clock::time_point deadline_;
  const double limit_seconds_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

struct Args {
  Workload workload = Workload::kLargeSquare;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <large_square|streamk_skew|"
               "small_sync_mix|small_async_burst> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload '" + value + "'");
        args.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

/// One cold set-up in a forked child: the parent has not started the pool
/// or touched any library cache yet, so the child pays pool start, plan
/// compiles and arena allocation exactly as a fresh process does.  Returns
/// the child's set-up seconds, or a negative value when it failed.
double forked_setup(LoadedWorkload& work) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1.0;
    try {
      const SetupResult r = run_setup(work, /*check=*/false);
      if (r.tally.failed == 0) seconds = r.seconds;
    } catch (...) {
    }
    const ssize_t written = write(fds[1], &seconds, sizeof(seconds));
    _exit(written == static_cast<ssize_t>(sizeof(seconds)) ? 0 : 1);
  }
  g_child.store(pid);
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t got = read(fds[0], &seconds, sizeof(seconds));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  g_child.store(0);
  if (got != static_cast<ssize_t>(sizeof(seconds)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  return seconds;
}

void print_composition(const LoadedWorkload& work, const SetupResult& setup) {
  const WorkloadPlan& plan = work.plan;
  std::map<std::string, int> by_front_end, by_dtype;
  int spilling = 0;
  double cycle_flops = 0.0;
  for (const std::size_t p : plan.order) {
    ++by_front_end[front_end_name(plan.problems[p].front_end)];
    ++by_dtype[dtype_name(plan.problems[p].dtype)];
    if (setup.reports[p].spills > 0) ++spilling;
    cycle_flops += plan.problems[p].flops();
  }
  const double calls = static_cast<double>(plan.order.size());
  auto shares = [&](const std::map<std::string, int>& counts) {
    std::ostringstream os;
    for (const auto& [name, n] : counts) os << " " << name << "=" << 100.0 * n / calls << "%";
    return os.str();
  };
  std::cout << "composition: workload=" << workload_name(plan.workload)
            << " seed=" << plan.seed << " nproc=" << plan.nproc
            << " distinct_problems=" << plan.problems.size()
            << " calls_per_cycle=" << plan.order.size()
            << " working_set_bytes=" << work.allocated_bytes()
            << " gflop_per_cycle=" << cycle_flops / 1e9 << "\n"
            << "composition: front_end_share" << shares(by_front_end) << "\n"
            << "composition: dtype_share" << shares(by_dtype) << "\n"
            << "composition: spilling_call_share=" << 100.0 * spilling / calls
            << "% (" << spilling << " of " << plan.order.size()
            << " calls per cycle spill under Schedule::kAuto)\n";
  for (std::size_t p = 0; p < plan.problems.size(); ++p) {
    const auto& r = setup.reports[p];
    std::cout << "  problem " << p << ": " << plan.problems[p].label()
              << " schedule=" << r.schedule_name << " grid=" << r.grid
              << " tiles=" << r.tiles << " spills=" << r.spills << "\n";
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "failed_frac = " << tally.failed_frac() << " (" << tally.failed
            << " of " << tally.attempted << " calls)\n";
  char buf[64];
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

std::int64_t counter_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// End-to-end metrics: set-up samples, then one untraced timed window.
std::vector<Metric> run_end_to_end(LoadedWorkload& work, const Args& args, Tally& tally) {
  std::vector<double> setup_s;
  g_stage = "set-up";
  for (int i = 0; i < kSetupChildren; ++i) {
    const double s = forked_setup(work);
    if (s < 0.0) {
      std::cerr << "perfbench: a forked set-up sample failed\n";
      tally.record(false);
    } else {
      setup_s.push_back(s);
    }
  }
  const SetupResult setup = run_setup(work, /*check=*/true);
  tally.add(setup.tally);
  setup_s.push_back(setup.seconds);
  print_composition(work, setup);
  std::cout << "setup: samples_s";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n";

  g_stage = "warm-up";
  tally.add(run_window(work, kWarmupSeconds).tally);
  g_stage = "timed window";
  const WindowResult w = run_window(work, args.seconds);
  tally.add(w.tally);
  const WindowStats stats = w.stats();
  const double q = reportable_percentile(w.call_ms.size());
  std::cout << "window: " << w.call_ms.size() << " calls in " << stats.chunks
            << " chunks of whole cycles; whole window: " << w.gflops()
            << " GFLOP/s over " << w.seconds << " s, p50 "
            << percentile(w.call_ms, 50.0) << " ms, p90 "
            << percentile(w.call_ms, 90.0) << " ms, highest reportable p" << q
            << " " << percentile(w.call_ms, q) << " ms; " << setup_s.size()
            << " set-up samples\n";
  const double allocated = static_cast<double>(work.allocated_bytes());
  const double rss = peak_rss_bytes();
  std::cout << "memory: peak_rss_bytes=" << rss
            << " benchmark_allocated_bytes=" << allocated << "\n";
  return {
      {"gflops", stats.gflops, "GFLOP/s"},
      {"call_ms_p50", stats.p50_ms, "ms"},
      {"call_ms_p90", stats.p90_ms, "ms"},
      {"setup_s", median(setup_s), "s"},
      {"extra_mem_mb", (rss - allocated) / 1e6, "MB"},
  };
}

/// Per-layer ledger: counters of an untraced window, a traced window, then
/// the layer probes and host ceilings.
std::vector<Metric> run_per_layer(LoadedWorkload& work, const Args& args, Tally& tally) {
  g_stage = "set-up";
  const SetupResult setup = run_setup(work, /*check=*/true);
  tally.add(setup.tally);
  print_composition(work, setup);
  const double half = args.seconds / 2.0;

  g_stage = "warm-up";
  tally.add(run_window(work, kWarmupSeconds).tally);
  g_stage = "counter window";
  obs::reset_metrics();
  streamk::cpu::PackProbe::enable(true);
  streamk::cpu::PackProbe::reset();
  const WindowResult plain = run_window(work, half);
  const obs::MetricsSnapshot counters = obs::snapshot_metrics();
  const double packed_bytes = static_cast<double>(streamk::cpu::PackProbe::total_bytes());
  const double hits = static_cast<double>(streamk::cpu::PackProbe::hits());
  const double packs = static_cast<double>(streamk::cpu::PackProbe::shared_packs() +
                                           streamk::cpu::PackProbe::private_packs());
  const double fallbacks = static_cast<double>(streamk::cpu::PackProbe::fallbacks());
  streamk::cpu::PackProbe::enable(false);
  tally.add(plain.tally);

  std::uint64_t dropped = 0;
  double lane_seconds = 0.0;
  TraceShares shares;
  WindowResult traced;
  g_stage = "traced window";
  {
    Tracer tracer(work.workers, kTraceRingCapacity);
    traced = run_window(work, half, &tracer);
    dropped = tracer.dropped_spans();
    shares = tracer.attribution().shares();
    lane_seconds = tracer.attribution().lane_seconds();
  }
  tally.add(traced.tally);

  g_stage = "host ceilings";
  const HostCeilings host = measure_host();
  g_stage = "layer probes";
  const LayerProbes layers = measure_layers(work.plan, work.workers);
  std::cout << "machine: " << machine_fingerprint(work.workers)
            << " triad_bytes=" << host.triad_bytes << "\n";

  const double calls = std::max<double>(1.0, static_cast<double>(plain.call_ms.size()));
  auto per_call = [&](const char* name) {
    return static_cast<double>(counter_value(counters, name)) / calls;
  };
  const double plan_hits = static_cast<double>(counter_value(counters, "plan_cache.hits"));
  const double plan_misses = static_cast<double>(counter_value(counters, "plan_cache.misses"));
  const double plain_p50 = plain.stats().p50_ms;
  const double traced_p50 = traced.stats().p50_ms;

  std::vector<Metric> m = {
      {"host.fma_gflops_fp64", host.fma_gflops_fp64, "GFLOP/s"},
      {"host.fma_gflops_f32", host.fma_gflops_f32, "GFLOP/s"},
      {"host.triad_gbps", host.triad_gbps, "GB/s"},
      {"host.wake_us", host.wake_us, "us"},
      {"microkernel.gflops_fp64", layers.microkernel_gflops_fp64, "GFLOP/s"},
      {"microkernel.gflops_f32", layers.microkernel_gflops_f32, "GFLOP/s"},
      {"microkernel.frac_peak_fp64", layers.microkernel_gflops_fp64 / host.fma_gflops_fp64, "ratio"},
      {"microkernel.frac_peak_f32", layers.microkernel_gflops_f32 / host.fma_gflops_f32, "ratio"},
      {"pack.gbps_fp64", layers.pack_gbps_fp64, "GB/s"},
      {"pack.gbps_fp16", layers.pack_gbps_fp16, "GB/s"},
      {"pack.frac_triad", layers.pack_gbps_fp64 / host.triad_gbps, "ratio"},
      {"panel_cache.packed_bytes_per_gflop", packed_bytes / std::max(1.0, plain.flops / 1e9), "B/GFLOP"},
      {"panel_cache.hit_ratio", hits + packs > 0 ? hits / (hits + packs) : 0.0, "ratio"},
      {"panel_cache.fallbacks", fallbacks / calls, "count/call"},
      {"fixup.spills_per_call", static_cast<double>(plain.spills) / calls, "count/call"},
      {"fixup.waits_per_call", per_call("fixup.waits"), "count/call"},
      {"fixup.wakeups_per_call", per_call("fixup.wait_wakeups"), "count/call"},
      {"plan.compile_us", layers.plan_compile_us, "us"},
      {"plan_cache.lookup_ns", layers.plan_lookup_ns, "ns"},
      {"plan_cache.hit_ratio", plan_hits + plan_misses > 0 ? plan_hits / (plan_hits + plan_misses) : 0.0, "ratio"},
      {"dispatch.probe_ns", layers.dispatch_probe_ns, "ns"},
      {"pool.region_us", layers.pool_region_us, "us"},
      {"pool.submit_get_us", layers.pool_submit_get_us, "us"},
      {"pool.region_over_wake", layers.pool_region_us / host.wake_us, "ratio"},
      {"pool.steals_per_call", per_call("pool.steals"), "count/call"},
      {"frontend.gemm_us", layers.frontend_gemm_us, "us"},
      {"frontend.dgemm_us", layers.frontend_dgemm_us, "us"},
      {"frontend.batched_us", layers.frontend_batched_us, "us"},
      {"frontend.grouped_us", layers.frontend_grouped_us, "us"},
      {"frontend.conv_us", layers.frontend_conv_us, "us"},
      {"epilogue.bias_act_rows", per_call("epilogue.bias_act_rows"), "rows/call"},
      {"epilogue.generic_rows", per_call("epilogue.generic_rows"), "rows/call"},
      {"trace.mac_share", shares.mac, "ratio"},
      {"trace.pack_share", shares.pack, "ratio"},
      {"trace.fixup_wait_share", shares.fixup_wait, "ratio"},
      {"trace.epilogue_share", shares.epilogue, "ratio"},
      {"trace.pool_idle_share", shares.pool_idle, "ratio"},
      {"trace.unattributed_share", shares.unattributed, "ratio"},
      {"trace.overhead_frac", plain_p50 > 0.0 ? traced_p50 / plain_p50 - 1.0 : 0.0, "ratio"},
      {"trace.dropped_spans", static_cast<double>(dropped), "count"},
  };

  // Each workload's reason for existing, checked on this run's trace.
  std::cout << "claim input: non-MAC share (1 - trace.mac_share) = "
            << 1.0 - shares.mac
            << "; it should be larger on small_sync_mix than on large_square\n";
  if (work.plan.workload == Workload::kLargeSquare) {
    const double others = std::max({shares.fixup_wait, shares.epilogue,
                                    shares.pool_idle, shares.unattributed});
    std::cout << "claim: MAC plus pack is the largest self-time share: "
              << (shares.mac + shares.pack > others ? "holds" : "DOES NOT HOLD")
              << " (mac+pack " << shares.mac + shares.pack << ", next " << others << ")\n";
  }
  if (work.plan.workload == Workload::kStreamkSkew) {
    std::cout << "claim: fixup.spills_per_call > 0: "
              << (plain.spills > 0 ? "holds" : "DOES NOT HOLD") << " ("
              << static_cast<double>(plain.spills) / calls << ")\n";
  }
  std::cout << "trace: " << traced.call_ms.size() << " traced calls, "
            << lane_seconds << " lane-seconds attributed\n";
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set; it changes the library's behaviour\n";
      return 2;
    }
  }
  const std::size_t workers = nproc();
  std::cout.precision(6);
  std::cout << "perfbench: workload=" << workload_name(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << " workers=" << workers << "\n";

  LoadedWorkload work = LoadedWorkload::create(generate(args.workload, args.seed, workers), workers);
  Tally tally;
  std::vector<Metric> metrics;
  {
    const Watchdog watchdog(args.seconds + kWatchdogSlackSeconds);
    metrics = args.trace ? run_per_layer(work, args, tally)
                         : run_end_to_end(work, args, tally);
  }
  const bool correct = tally.failed == 0;
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}
