#pragma once

// Per-architecture cost-constant calibration (Section 5.1's offline step).
//
// The Appendix A.1 model (model/cost_model.hpp) describes the run time of
// one CTA:
//
//   time_CTA(g) = a + b*[FixupPeers(g) > 1] + c*ItersPerCta(g)
//                   + d*(FixupPeers(g) - 1)
//
// so that is what calibration measures.  For each grid size g the harness
// compiles a basic Stream-K plan once, runs it on the calling thread in
// the runner's descending CTA order, and records every CTA's own wall time
// (cpu/decomposed_runner.hpp's per-CTA sink).  Descending order means every
// fixup wait is already satisfied when the owner reaches it: an owner's
// time holds its MAC work plus the read-and-accumulate of its peers'
// partials (d), a spiller's its MAC work plus the spill (b) -- never time
// spent waiting, never pool fork/join, never a second wave.  Each CTA keeps
// its best time over the repetitions; the sample for g is the critical
// CTA's, the maximum over CTAs.  {a, b, c, d} are then least-squares fitted
// to the samples -- the workflow the paper prescribes for porting the
// grid-size model to a new target: "Parameters to the model are trivially
// chosen with empirical measurements and need only be done once per target
// architecture."

#include <vector>

#include "core/gemm_shape.hpp"
#include "gpu/block_shape.hpp"
#include "model/fit.hpp"

namespace streamk::cpu {

struct CalibrationResult {
  model::CostParams params;
  /// (grid, seconds): the critical CTA's time at that grid -- the maximum
  /// over CTAs of each CTA's best-of-reps wall time, measured on one thread.
  std::vector<model::FitSample> samples;
};

struct CalibrationOptions {
  std::vector<std::int64_t> grids;  ///< grid sizes to time (empty = default)
  int repetitions = 3;              ///< best-of timing repetitions per CTA
  /// Kept for source compatibility only: every CTA is timed on the calling
  /// thread, so this no longer changes what is timed.
  std::size_t workers = 0;
};

/// Runs the calibration GEMM (FP64) and fits the cost constants.
CalibrationResult calibrate_cpu(const core::GemmShape& shape,
                                gpu::BlockShape block,
                                const CalibrationOptions& options = {});

}  // namespace streamk::cpu
