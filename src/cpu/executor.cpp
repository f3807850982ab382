#include "cpu/executor.hpp"

#include <algorithm>
#include <vector>

#include "core/schedule_plan.hpp"
#include "cpu/decomposed_runner.hpp"
#include "cpu/mac_loop.hpp"
#include "cpu/reference.hpp"
#include "cpu/workspace.hpp"
#include "epilogue/apply.hpp"

namespace streamk::cpu {

template <typename In, typename Acc, typename Out>
void execute_plan(const core::SchedulePlan& plan, const Matrix<In>& a,
                  const Matrix<In>& b, Matrix<Out>& c,
                  const ExecutorOptions& options,
                  std::span<double> cta_seconds) {
  const core::WorkMapping& mapping = plan.mapping();
  const core::GemmShape shape = product_shape(a, b, c);
  util::check(shape == mapping.shape(),
              "matrices do not match the plan's GEMM shape");

  const epilogue::EpiloguePlanPtr eplan = plan.epilogue_plan(options.epilogue);
  epilogue::check_bindings(*eplan, options.epilogue, shape.m, shape.n,
                           epilogue::tensor_type_of<Out>());

  run_decomposed<Acc>(
      plan, mapping.block().tile_elements(),
      [&](const core::TileSegment& seg, std::span<Acc> accum,
          MacScratch<Acc>& scratch, PanelCache<Acc>* cache) {
        run_mac_segment<In, Acc>(a, b, mapping, seg, accum, scratch, cache);
      },
      [&](std::int64_t tile_idx, std::span<const Acc> accum) {
        const gpu::BlockShape& blk = mapping.block();
        const core::TileCoord coord = mapping.tile_coord(tile_idx);
        const std::int64_t mm = coord.tm * blk.m;
        const std::int64_t nn = coord.tn * blk.n;
        epilogue::apply_tile<Acc, Out>(
            *eplan, options.epilogue, options.alpha, options.beta, mm, nn,
            mapping.tile_extent_m(coord.tm), mapping.tile_extent_n(coord.tn),
            shape.n, accum.data(), blk.n, c.row_ptr(mm) + nn, c.cols());
      },
      options, nullptr, cta_seconds);
}

template <typename In, typename Acc, typename Out>
void execute_decomposition(const core::Decomposition& decomposition,
                           const Matrix<In>& a, const Matrix<In>& b,
                           Matrix<Out>& c, const ExecutorOptions& options) {
  const core::SchedulePlan plan = core::compile_plan(decomposition);
  execute_plan<In, Acc, Out>(plan, a, b, c, options);
}

template void execute_plan<double, double, double>(
    const core::SchedulePlan&, const Matrix<double>&, const Matrix<double>&,
    Matrix<double>&, const ExecutorOptions&, std::span<double>);
template void execute_plan<float, float, float>(
    const core::SchedulePlan&, const Matrix<float>&, const Matrix<float>&,
    Matrix<float>&, const ExecutorOptions&, std::span<double>);
template void execute_plan<util::Half, float, float>(
    const core::SchedulePlan&, const Matrix<util::Half>&,
    const Matrix<util::Half>&, Matrix<float>&, const ExecutorOptions&,
    std::span<double>);

template void execute_decomposition<double, double, double>(
    const core::Decomposition&, const Matrix<double>&, const Matrix<double>&,
    Matrix<double>&, const ExecutorOptions&);
template void execute_decomposition<float, float, float>(
    const core::Decomposition&, const Matrix<float>&, const Matrix<float>&,
    Matrix<float>&, const ExecutorOptions&);
template void execute_decomposition<util::Half, float, float>(
    const core::Decomposition&, const Matrix<util::Half>&,
    const Matrix<util::Half>&, Matrix<float>&, const ExecutorOptions&);

}  // namespace streamk::cpu
