#pragma once

// Decomposed GEMM execution on CPU threads.
//
// Worker threads play the role of SMs: each claims CTA ids dynamically and
// runs the CTA's segment stream -- MacLoop per segment, then the fixup
// protocol (spill+signal, or wait+reduce+store) exactly as the simulator
// models it.  Both consume the same compiled core::SchedulePlan, so
// functional behaviour and simulated schedules cannot drift apart.
//
// Deadlock freedom with any worker count W >= 1: flag waits always target
// CTAs with *higher* ids (Stream-K owners wait on later-range CTAs;
// fixed-split owners on their split peers y > 0; hybrids on their Stream-K
// region neighbours), and workers claim ids in *descending* order.  Hence
// every producer a blocked CTA awaits was claimed earlier, i.e. is finished
// or in flight on another worker; with W == 1 the claim order degenerates to
// the reverse-index serial schedule in which every signal precedes its wait.
// Waits block on C++20 atomic waiting, so an oversubscribed worker is
// descheduled rather than starving its producer.

#include <cstddef>
#include <span>

#include "core/decomposition.hpp"
#include "cpu/matrix.hpp"
#include "epilogue/epilogue.hpp"

namespace streamk::core {
class SchedulePlan;
}  // namespace streamk::core

namespace streamk::cpu {

/// Shared packed-panel cache policy (cpu/panel_cache.hpp).  kAuto shares
/// whenever the plan says sharing can pay (two or more tiles) and the
/// STREAMK_PANEL_CACHE kill switch is armed; kOn/kOff force the decision
/// per call (the kill switch still overrides kOn, so STREAMK_PANEL_CACHE=0
/// restores private packing process-wide).
enum class PanelCacheMode {
  kAuto,
  kOn,
  kOff,
};

struct ExecutorOptions {
  /// Worker threads (0 = one per hardware thread).
  std::size_t workers = 0;
  double alpha = 1.0;
  double beta = 0.0;
  /// Shared packed-panel cache policy for this call.
  PanelCacheMode panel_cache = PanelCacheMode::kAuto;
  /// Fused output-transform chain, applied exactly once per output element
  /// by the tile owner's store (solo tiles at tile-store time, split tiles
  /// at the post-fixup reconciliation point) -- see epilogue/epilogue.hpp.
  /// The alpha/beta scale above is stage zero of the same code path.
  epilogue::EpilogueSpec epilogue;
};

/// Executes a compiled plan over real matrices: C = alpha * A.B + beta * C.
/// The matrices must conform to the plan's GEMM shape.  Reusing one plan
/// across calls amortizes schedule compilation entirely.  A non-empty
/// `cta_seconds` (plan.grid() entries) receives each CTA's own wall time;
/// see run_decomposed in cpu/decomposed_runner.hpp.
template <typename In, typename Acc, typename Out>
void execute_plan(const core::SchedulePlan& plan, const Matrix<In>& a,
                  const Matrix<In>& b, Matrix<Out>& c,
                  const ExecutorOptions& options = {},
                  std::span<double> cta_seconds = {});

/// Convenience overload: compiles `decomposition` and executes the plan.
template <typename In, typename Acc, typename Out>
void execute_decomposition(const core::Decomposition& decomposition,
                           const Matrix<In>& a, const Matrix<In>& b,
                           Matrix<Out>& c, const ExecutorOptions& options = {});

extern template void execute_plan<double, double, double>(
    const core::SchedulePlan&, const Matrix<double>&, const Matrix<double>&,
    Matrix<double>&, const ExecutorOptions&, std::span<double>);
extern template void execute_plan<float, float, float>(
    const core::SchedulePlan&, const Matrix<float>&, const Matrix<float>&,
    Matrix<float>&, const ExecutorOptions&, std::span<double>);
extern template void execute_plan<util::Half, float, float>(
    const core::SchedulePlan&, const Matrix<util::Half>&,
    const Matrix<util::Half>&, Matrix<float>&, const ExecutorOptions&,
    std::span<double>);

extern template void execute_decomposition<double, double, double>(
    const core::Decomposition&, const Matrix<double>&, const Matrix<double>&,
    Matrix<double>&, const ExecutorOptions&);
extern template void execute_decomposition<float, float, float>(
    const core::Decomposition&, const Matrix<float>&, const Matrix<float>&,
    Matrix<float>&, const ExecutorOptions&);
extern template void execute_decomposition<util::Half, float, float>(
    const core::Decomposition&, const Matrix<util::Half>&,
    const Matrix<util::Half>&, Matrix<float>&, const ExecutorOptions&);

}  // namespace streamk::cpu
