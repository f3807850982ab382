#include "cpu/timing_harness.hpp"

#include <algorithm>
#include <limits>

#include "core/schedule_plan.hpp"
#include "core/stream_k.hpp"
#include "cpu/executor.hpp"

namespace streamk::cpu {

CalibrationResult calibrate_cpu(const core::GemmShape& shape,
                                gpu::BlockShape block,
                                const CalibrationOptions& options) {
  const core::WorkMapping mapping(shape, block);
  std::vector<std::int64_t> grids = options.grids;
  if (grids.empty()) {
    // Default ladder: spans the no-split / moderate-split / heavy-split
    // regimes so all four constants are observable.
    grids = {1, 2, 3, 4, 6, 8, 12, 16};
  }

  Matrix<double> a(shape.m, shape.k);
  Matrix<double> b(shape.k, shape.n);
  Matrix<double> c(shape.m, shape.n);
  util::Pcg32 rng(0xca11b7a7e);
  fill_random(a, rng);
  fill_random(b, rng);

  // One worker: the runner executes every CTA inline on this thread in
  // descending id order, so each fixup wait is already satisfied.
  ExecutorOptions exec_options;
  exec_options.workers = 1;

  CalibrationResult result;
  std::vector<double> cta_seconds;
  std::vector<double> best;
  for (const std::int64_t g : grids) {
    const core::SchedulePlan plan =
        core::compile_plan(core::StreamKBasic(mapping, g));
    cta_seconds.assign(static_cast<std::size_t>(plan.grid()), 0.0);
    best.assign(cta_seconds.size(), std::numeric_limits<double>::infinity());
    for (int rep = 0; rep < std::max(1, options.repetitions); ++rep) {
      execute_plan<double, double, double>(plan, a, b, c, exec_options,
                                           cta_seconds);
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], cta_seconds[i]);
      }
    }
    result.samples.push_back(
        model::FitSample{g, *std::max_element(best.begin(), best.end())});
  }

  result.params = model::fit_cost_params(mapping, result.samples);
  return result;
}

}  // namespace streamk::cpu
