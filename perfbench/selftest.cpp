// Self-test of the benchmark's own machinery: the generator, the statistics,
// the output checks and the traced run.  Exits nonzero when any case fails.
//
//   perfbench_selftest

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runner.hpp"
#include "stats.hpp"
#include "trace_attrib.hpp"
#include "workloads.hpp"

namespace obs = streamk::obs;
using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

bool near(double x, double y) { return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(y)); }

bool same_plan(const WorkloadPlan& x, const WorkloadPlan& y) {
  return x.problems == y.problems && x.order == y.order;
}

void test_generator() {
  for (const Workload w : kAllWorkloads) {
    const std::string name = workload_name(w);
    const WorkloadPlan a = generate(w, 7, 4);
    expect(same_plan(a, generate(w, 7, 4)), name + ": one seed gives one plan");
    expect(a.problems != generate(w, 8, 4).problems,
           name + ": another seed gives other problems");
    expect(a.order.size() >= a.problems.size() && !a.problems.empty(),
           name + ": every problem is in the call cycle");
  }
  expect(generate(Workload::kSmallSyncMix, 3, 4).problems ==
             generate(Workload::kSmallAsyncBurst, 3, 4).problems,
         "the async burst issues the sync mix's problems");
  const WorkloadPlan skew = generate(Workload::kStreamkSkew, 5, 4);
  bool in_regime = true;
  for (const ProblemSpec& p : skew.problems) {
    const auto& s = p.shapes.front();
    const std::int64_t tiles = ((s.m + 47) / 48) * ((s.n + 47) / 48);
    in_regime = in_regime && tiles >= 2 && tiles <= 12 && tiles % 4 != 0 &&
                s.k >= 4096 && s.k <= 32768;
  }
  expect(in_regime, "streamk_skew: tile counts in [2, 3 nproc], not multiples of nproc, deep k");
}

void test_statistics() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  expect(near(percentile(samples, 50.0), 50.5), "p50 of 1..100 is 50.5");
  expect(near(percentile(samples, 90.0), 90.1), "p90 of 1..100 is 90.1");
  expect(near(percentile(samples, 0.0), 1.0) && near(percentile(samples, 100.0), 100.0),
         "p0 and p100 are the extremes");
  expect(near(percentile({4.0}, 90.0), 4.0), "a single sample is every percentile");
  expect(reportable_percentile(19) == 0.0 && reportable_percentile(20) == 50.0 &&
             reportable_percentile(99) == 50.0 && reportable_percentile(100) == 90.0 &&
             reportable_percentile(1000) == 99.0 && reportable_percentile(10000) == 99.9,
         "highest percentile with ten samples beyond it");
  expect(near(gflops(3e9, 0.5), 6.0), "gflops = flops / seconds / 1e9");

  // Ten one-second chunks of one four-call cycle each: chunk c's calls take
  // 1 + c ms and do (10 - c) GFLOP per second of window.
  std::vector<double> ms, flops, window_s;
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 4; ++i) {
      ms.push_back(1.0 + c);
      flops.push_back((10.0 - c) * 1e9 * 0.25);
      window_s.push_back(0.25);
    }
  }
  const WindowStats fast = fast_chunk_stats(ms, flops, window_s, 4, 1.0, 10.0);
  expect(fast.chunks == 10 && near(fast.p50_ms, 1.9) && near(fast.p90_ms, 1.9) &&
             near(fast.gflops, 9.1),
         "fast decile over one-second chunks: p10 of latencies, p90 of GFLOP/s");
  const WindowStats whole = fast_chunk_stats(std::vector<double>(10, 2.0),
                                             std::vector<double>(10, 1e9),
                                             std::vector<double>(10, 0.5), 3, 1.0, 10.0);
  expect(whole.chunks == 3 && near(whole.gflops, 2.0) && near(whole.p50_ms, 2.0),
         "chunks are whole cycles of at least the chunk length; the remainder is dropped");
  expect(fast_chunk_stats({5.0}, {1e9}, {0.1}, 8, 1.0, 10.0).chunks == 1,
         "a window shorter than one chunk is one chunk");
  WindowResult w;
  w.flops = 2.0 * 64 * 64 * 64 * 1000;
  w.seconds = 0.25;
  expect(near(w.gflops(), 2.097152), "window gflops over its seconds");
  Tally t;
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  expect(near(t.failed_frac(), 0.25), "failed_frac = failed / attempted");
}

/// Corrupts its problem's output after every synchronous call.
class Corrupting final : public Instance {
 public:
  explicit Corrupting(std::unique_ptr<Instance> inner) : inner_(std::move(inner)) {
    spec_ = inner_->spec();
  }
  streamk::cpu::GemmReport run(const streamk::cpu::GemmOptions& o) override {
    const streamk::cpu::GemmReport r = inner_->run(o);
    inner_->corrupt();
    return r;
  }
  streamk::runtime::GemmHandle submit(const streamk::cpu::GemmOptions& o) override {
    return inner_->submit(o);
  }
  void poison() override { inner_->poison(); }
  bool check() const override { return inner_->check(); }
  void corrupt() override { inner_->corrupt(); }
  std::size_t bytes() const override { return inner_->bytes(); }

 private:
  std::unique_ptr<Instance> inner_;
};

void test_checks() {
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  const streamk::cpu::GemmOptions options = call_options(workers);
  // Two problems of every small-mix front end, plus Freivalds-checked
  // large_square (fp64 and fp16) and streamk_skew problems.
  WorkloadPlan mix = generate(Workload::kSmallSyncMix, 11, workers);
  std::vector<ProblemSpec> specs(mix.problems.begin(), mix.problems.begin() + 12);
  const WorkloadPlan large = generate(Workload::kLargeSquare, 11, workers);
  specs.push_back(large.problems[0]);
  specs.push_back(large.problems[1]);
  specs.push_back(generate(Workload::kStreamkSkew, 11, workers).problems.front());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::unique_ptr<Instance> inst = instantiate(specs[i], problem_seed(11, i));
    inst->poison();
    const bool poisoned_fails = !inst->check();
    inst->run(options);
    const bool good_passes = inst->check();
    inst->corrupt();
    const bool corrupt_fails = !inst->check();
    expect(poisoned_fails && good_passes && corrupt_fails,
           "check rejects unwritten and corrupted output, accepts the result: " +
               specs[i].label());
  }

  LoadedWorkload work = LoadedWorkload::create(generate(Workload::kSmallSyncMix, 12, workers), workers);
  work.instances[0] = std::make_unique<Corrupting>(std::move(work.instances[0]));
  const WindowResult w = run_window(work, 0.3);
  std::int64_t corrupted_calls = 0;
  for (std::size_t c = 0; c < w.call_ms.size(); ++c) {
    if (work.plan.order[c % work.plan.order.size()] == 0) ++corrupted_calls;
  }
  expect(corrupted_calls > 0 && w.tally.failed == corrupted_calls &&
             w.tally.attempted == static_cast<std::int64_t>(w.call_ms.size()),
         "every corrupted call is counted in failed_frac (" +
             std::to_string(w.tally.failed) + " of " + std::to_string(w.tally.attempted) + ")");
}

void test_attribution() {
  auto span = [](obs::EventKind kind, std::uint32_t tid, std::int64_t t0, std::int64_t t1) {
    obs::TraceSpan s;
    s.kind = kind;
    s.tid = tid;
    s.t0_ns = t0;
    s.t1_ns = t1;
    return s;
  };
  using K = obs::EventKind;
  const std::vector<obs::TraceSpan> spans = {
      span(K::kBenchRegion, 0, 0, 100), span(K::kPoolTask, 1, 5, 80),
      span(K::kMacSegment, 1, 10, 60), span(K::kPack, 1, 20, 30),
      span(K::kEpilogueApply, 1, 60, 70), span(K::kMacSegment, 1, 90, 120)};
  TraceAttribution a(1);
  a.add_epoch(spans);
  const TraceShares s = a.shares();
  expect(near(s.mac, 0.50) && near(s.pack, 0.10) && near(s.epilogue, 0.10) &&
             near(s.unattributed, 0.15) && near(s.pool_idle, 0.15) && near(s.fixup_wait, 0.0),
         "span attribution: self times inside the call window, rest idle");
}

void test_traced_run() {
  const std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
  for (const Workload w : {Workload::kSmallSyncMix, Workload::kSmallAsyncBurst}) {
    LoadedWorkload work = LoadedWorkload::create(generate(w, 5, workers), workers);
    run_setup(work, true);
    Tracer tracer(workers, std::size_t{1} << 16);
    const WindowResult r = run_window(work, 0.5, &tracer);
    const TraceShares s = tracer.attribution().shares();
    const double total = s.mac + s.pack + s.fixup_wait + s.epilogue + s.pool_idle + s.unattributed;
    expect(tracer.dropped_spans() == 0 && r.tally.failed == 0 && s.mac > 0.0 &&
               near(total, 1.0),
           std::string(workload_name(w)) + ": traced run drops no spans and its shares sum to 1");
  }
}

}  // namespace

int main() {
  test_generator();
  test_statistics();
  test_attribution();
  test_checks();
  test_traced_run();
  std::cout << (g_failures == 0 ? "selftest: all passed" : "selftest: FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}
