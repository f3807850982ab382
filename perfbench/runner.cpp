#include "runner.hpp"

#include <chrono>
#include <deque>
#include <exception>
#include <iostream>
#include <map>

#include "obs/trace.hpp"
#include "runtime/worker_pool.hpp"
#include "stats.hpp"

namespace perfbench {

namespace obs = streamk::obs;
namespace runtime = streamk::runtime;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSyncEpochCalls = 8;
/// Chunk length and percentile of the end-to-end statistics.
constexpr double kChunkSeconds = 1.0;
constexpr double kFastPercentile = 10.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Reports the first failure of a run on stderr; later ones only count.
void note_failure(const Instance& instance, const char* what) {
  static bool reported = false;
  if (reported) return;
  reported = true;
  std::cerr << "perfbench: call failed (" << instance.spec().label()
            << "): " << what << "\n";
}

bool checked(const Instance& instance, bool call_ok) {
  if (!call_ok) return false;
  if (instance.check()) return true;
  note_failure(instance, "output check failed");
  return false;
}

WindowResult run_sync_window(LoadedWorkload& work, double seconds, Tracer* tracer) {
  WindowResult r;
  const streamk::cpu::GemmOptions options = call_options(work.workers);
  const std::vector<std::size_t>& order = work.plan.order;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::size_t next = 0;
  int epoch_calls = 0;
  while (Clock::now() < deadline) {
    const std::size_t problem = order[next++ % order.size()];
    Instance& instance = *work.instances[problem];
    instance.poison();
    const std::int64_t trace_t0 = tracer != nullptr ? obs::trace_now_ns() : 0;
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    try {
      r.spills += instance.run(options).spills;
    } catch (const std::exception& e) {
      note_failure(instance, e.what());
      ok = false;
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->call_span(trace_t0, obs::trace_now_ns(), problem);
    r.add_call(seconds_between(t0, t1) * 1e3, instance.spec().flops(),
               seconds_between(t0, t1));
    r.tally.record(checked(instance, ok));
    if (tracer != nullptr && ++epoch_calls == kSyncEpochCalls) {
      tracer->end_epoch();
      epoch_calls = 0;
    }
  }
  if (tracer != nullptr && epoch_calls > 0) tracer->end_epoch();
  return r;
}

/// nproc calls in flight from the one caller thread; the oldest is
/// completed (get()) before the next is submitted.  A problem is never in
/// flight twice, since its output buffers are its own.
WindowResult run_async_window(LoadedWorkload& work, double seconds, Tracer* tracer) {
  struct InFlight {
    std::size_t problem;
    runtime::GemmHandle handle;
    Clock::time_point t0;
    std::int64_t trace_t0;
    bool submitted;
  };
  WindowResult r;
  const streamk::cpu::GemmOptions options = call_options(work.workers);
  const std::vector<std::size_t>& order = work.plan.order;
  const std::size_t depth = work.workers;
  const std::size_t epoch_calls = 4 * depth;
  std::deque<InFlight> fifo;
  std::vector<bool> in_flight(work.instances.size(), false);
  std::size_t completed = 0;
  Clock::time_point last_completion = Clock::now();

  auto complete_oldest = [&] {
    InFlight f = std::move(fifo.front());
    fifo.pop_front();
    Instance& instance = *work.instances[f.problem];
    bool ok = f.submitted;
    if (ok) {
      try {
        r.spills += f.handle.get().spills;
      } catch (const std::exception& e) {
        note_failure(instance, e.what());
        ok = false;
      }
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->call_span(f.trace_t0, obs::trace_now_ns(), f.problem);
    r.add_call(seconds_between(f.t0, t1) * 1e3, instance.spec().flops(),
               seconds_between(last_completion, t1));
    last_completion = t1;
    in_flight[f.problem] = false;
    r.tally.record(checked(instance, ok));
    ++completed;
  };
  auto drain = [&] {
    while (!fifo.empty()) complete_oldest();
  };

  last_completion = Clock::now();
  const Clock::time_point deadline =
      last_completion + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::size_t next = 0;
  while (Clock::now() < deadline) {
    const std::size_t problem = order[next % order.size()];
    if (in_flight[problem] || fifo.size() >= depth) {
      complete_oldest();
      if (tracer != nullptr && completed % epoch_calls == 0) {
        drain();
        tracer->end_epoch();
      }
      continue;
    }
    ++next;
    Instance& instance = *work.instances[problem];
    instance.poison();
    InFlight f{problem, {}, {}, tracer != nullptr ? obs::trace_now_ns() : 0, true};
    f.t0 = Clock::now();
    try {
      f.handle = instance.submit(options);
    } catch (const std::exception& e) {
      note_failure(instance, e.what());
      f.submitted = false;
    }
    in_flight[problem] = true;
    fifo.push_back(std::move(f));
  }
  drain();
  if (tracer != nullptr) tracer->end_epoch();
  return r;
}

}  // namespace

LoadedWorkload LoadedWorkload::create(WorkloadPlan plan, std::size_t workers) {
  LoadedWorkload work;
  work.workers = workers;
  for (std::size_t i = 0; i < plan.problems.size(); ++i) {
    work.instances.push_back(
        instantiate(plan.problems[i], problem_seed(plan.seed, i)));
  }
  work.plan = std::move(plan);
  return work;
}

std::size_t LoadedWorkload::allocated_bytes() const {
  std::size_t total = 0;
  for (const auto& instance : instances) total += instance->bytes();
  return total;
}

SetupResult run_setup(LoadedWorkload& work, bool check) {
  SetupResult result;
  const streamk::cpu::GemmOptions options = call_options(work.workers);
  std::vector<bool> ok(work.instances.size(), true);
  const Clock::time_point t0 = Clock::now();
  runtime::global_pool();
  for (std::size_t i = 0; i < work.instances.size(); ++i) {
    Instance& instance = *work.instances[i];
    instance.poison();
    try {
      result.reports.push_back(is_async(work.plan.workload)
                                   ? instance.submit(options).get()
                                   : instance.run(options));
    } catch (const std::exception& e) {
      note_failure(instance, e.what());
      result.reports.emplace_back();
      ok[i] = false;
    }
  }
  result.seconds = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < work.instances.size(); ++i) {
    if (check) {
      result.tally.record(checked(*work.instances[i], ok[i]));
    } else {
      result.tally.record(ok[i]);
    }
  }
  return result;
}

void WindowResult::add_call(double ms, double flops_done, double window_s) {
  call_ms.push_back(ms);
  call_flops.push_back(flops_done);
  call_window_s.push_back(window_s);
  flops += flops_done;
  seconds += window_s;
}

double WindowResult::gflops() const { return perfbench::gflops(flops, seconds); }

WindowStats WindowResult::stats() const {
  return fast_chunk_stats(call_ms, call_flops, call_window_s, cycle_calls,
                          kChunkSeconds, kFastPercentile);
}

Tracer::Tracer(std::size_t lanes, std::size_t ring_capacity)
    : attribution_(lanes), capacity_(ring_capacity) {
  obs::set_trace_buffer_capacity(ring_capacity);
  capacity_ = obs::trace_buffer_capacity();
  obs::arm_trace();
  begin_epoch();
}

Tracer::~Tracer() { obs::disarm_trace(); }

void Tracer::call_span(std::int64_t t0_ns, std::int64_t t1_ns,
                       std::size_t problem) {
  obs::emit_span(obs::EventKind::kBenchRegion, t0_ns, t1_ns,
                 static_cast<std::int64_t>(problem), 0);
}

void Tracer::begin_epoch() {
  obs::reset_trace();
  overwritten_at_begin_ = obs::trace_overwritten();
}

void Tracer::end_epoch() {
  const std::vector<obs::TraceSpan> spans = obs::snapshot_trace();
  std::map<std::uint32_t, std::size_t> per_thread;
  bool ring_filled = false;
  for (const obs::TraceSpan& s : spans) {
    if (++per_thread[s.tid] >= capacity_) ring_filled = true;
  }
  if (ring_filled) {
    dropped_ += std::max<std::uint64_t>(
        1, obs::trace_overwritten() - overwritten_at_begin_);
  }
  attribution_.add_epoch(spans);
  begin_epoch();
}

WindowResult run_window(LoadedWorkload& work, double seconds, Tracer* tracer) {
  WindowResult r = is_async(work.plan.workload)
                       ? run_async_window(work, seconds, tracer)
                       : run_sync_window(work, seconds, tracer);
  r.cycle_calls = work.plan.order.size();
  return r;
}

}  // namespace perfbench
