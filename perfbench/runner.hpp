#pragma once

// The closed-loop driver: set-up (pool start plus the first call of every
// distinct problem) and the timed window that repeats a workload's call
// cycle for a fixed wall time, checking every call's output.
//
// Every call is timed with steady_clock around the front-end call itself
// (submit to get() return for the async workload); the benchmark's own
// between-call work (NaN-filling outputs, checks) is outside it.
// GemmReport::seconds is never used.

#include <cstdint>
#include <memory>
#include <vector>

#include "stats.hpp"
#include "trace_attrib.hpp"
#include "workloads.hpp"

namespace perfbench {

/// A workload's instantiated problems.
struct LoadedWorkload {
  WorkloadPlan plan;
  std::vector<std::unique_ptr<Instance>> instances;
  std::size_t workers = 1;

  /// Instantiates every problem of `plan` from its seed.
  static LoadedWorkload create(WorkloadPlan plan, std::size_t workers);
  /// Operand, output and check bytes the benchmark allocated.
  std::size_t allocated_bytes() const;
};

/// Calls attempted and failed (threw, or failed the output check).
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double failed_frac() const {
    return attempted > 0
               ? static_cast<double>(failed) / static_cast<double>(attempted)
               : 0.0;
  }
};

struct SetupResult {
  double seconds = 0.0;
  std::vector<streamk::cpu::GemmReport> reports;  ///< first call per problem
  Tally tally;
};

/// Starts the global pool, then runs the first call of every distinct
/// problem (plan compile, workspace and arena allocation happen here).
/// `seconds` covers exactly that; the outputs are checked afterwards when
/// `check` is set.
SetupResult run_setup(LoadedWorkload& work, bool check);

/// Arms the obs trace for a traced window and snapshots its rings in
/// epochs: every 8 calls of a sync workload, and after draining the
/// in-flight calls every 4 * nproc calls of the async one.  A ring that
/// fills inside one epoch may have overwritten spans of that epoch; those
/// are counted as dropped (the library's overwrite count for the epoch, an
/// upper bound).  Rings that never fill drop nothing.
class Tracer {
 public:
  /// Sets the per-thread ring capacity; call before anything is traced.
  Tracer(std::size_t lanes, std::size_t ring_capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// The benchmark's own span around one call, parent of the library's.
  void call_span(std::int64_t t0_ns, std::int64_t t1_ns, std::size_t problem);
  void end_epoch();

  const TraceAttribution& attribution() const { return attribution_; }
  std::uint64_t dropped_spans() const { return dropped_; }

 private:
  void begin_epoch();

  TraceAttribution attribution_;
  std::size_t capacity_;
  std::uint64_t overwritten_at_begin_ = 0;
  std::uint64_t dropped_ = 0;
};

struct WindowResult {
  std::vector<double> call_ms;  ///< wall latency of every call, in completion order
  std::vector<double> call_flops;  ///< useful 2 m n k of each call
  /// The window time each call accounts for.  Sync: its own latency, so the
  /// benchmark's between-call work is left out.  Async: the time since the
  /// previous completion (the first from the first submit).
  std::vector<double> call_window_s;
  std::size_t cycle_calls = 1;  ///< calls in one cycle of the workload
  double flops = 0.0;    ///< sum of call_flops
  double seconds = 0.0;  ///< sum of call_window_s
  std::int64_t spills = 0;  ///< GemmReport::spills summed over calls
  Tally tally;

  void add_call(double ms, double flops_done, double window_s);
  double gflops() const;
  /// The fast decile over one-second chunks of whole cycles (see
  /// fast_chunk_stats); the end-to-end metrics.
  WindowStats stats() const;
};

/// Repeats the plan's call cycle until `seconds` of wall time have passed.
/// With a tracer the calls are traced; without one tracing stays off.
WindowResult run_window(LoadedWorkload& work, double seconds,
                        Tracer* tracer = nullptr);

}  // namespace perfbench
