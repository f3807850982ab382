#pragma once

// The benchmark's workloads: a seeded problem generator and the problem
// instances it drives through the library's public front ends.
//
// Each workload is a closed loop with one caller thread.  Its problems come
// from generate(), which depends only on (workload, seed, nproc): the same
// seed gives the same problems and call order, and a different seed jitters
// every shape inside a fixed band, so the workload's composition (front-end
// mix, dtype mix, size bands) stays the same while its inputs change.  Why
// each workload exists is recorded in README.md.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "conv/conv_shape.hpp"
#include "core/gemm_shape.hpp"
#include "cpu/blas.hpp"
#include "cpu/gemm.hpp"
#include "runtime/gemm_runtime.hpp"

namespace perfbench {

enum class Workload { kLargeSquare, kStreamkSkew, kSmallSyncMix, kSmallAsyncBurst };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kLargeSquare, Workload::kStreamkSkew, Workload::kSmallSyncMix,
    Workload::kSmallAsyncBurst};

const char* workload_name(Workload workload);
std::optional<Workload> parse_workload(std::string_view name);
/// Calls are issued through runtime::submit_* with nproc in flight.
inline bool is_async(Workload workload) {
  return workload == Workload::kSmallAsyncBurst;
}

/// The public entry point a problem is issued through.
enum class FrontEnd {
  kGemm,          ///< cpu::gemm / runtime::submit_gemm
  kGemmBiasGelu,  ///< the same with a fused bias_col + GELU epilogue
  kDgemm,         ///< cpu::dgemm / runtime::submit_dgemm, with transposes
  kBatched,       ///< cpu::batched_gemm / runtime::submit_batched_gemm
  kGrouped,       ///< cpu::grouped_gemm / runtime::submit_grouped_gemm
  kConv,          ///< conv::conv_forward / runtime::submit_conv_forward
};
const char* front_end_name(FrontEnd front_end);

enum class DType { kF64, kF32, kF16F32 };
const char* dtype_name(DType dtype);
streamk::gpu::Precision precision_of(DType dtype);

/// One distinct problem: what is called, on which shapes.
struct ProblemSpec {
  FrontEnd front_end = FrontEnd::kGemm;
  DType dtype = DType::kF64;
  /// Per-GEMM shapes: one for gemm/dgemm, `batch` equal ones for batched,
  /// 2-8 ragged ones for grouped; for conv, the implicit-GEMM shape.
  std::vector<streamk::core::GemmShape> shapes;
  streamk::cpu::Trans trans_a = streamk::cpu::Trans::kNone;
  streamk::cpu::Trans trans_b = streamk::cpu::Trans::kNone;
  double alpha = 1.0;
  streamk::conv::ConvShape conv;  ///< kConv only

  /// Useful floating-point work of one call: sum of 2 m n k.
  double flops() const;
  std::string label() const;
  friend bool operator==(const ProblemSpec&, const ProblemSpec&);
};

/// A workload for one seed: its distinct problems and the order one cycle
/// of calls visits them in (the window repeats the cycle).
struct WorkloadPlan {
  Workload workload = Workload::kLargeSquare;
  std::uint64_t seed = 0;
  std::size_t nproc = 1;
  std::vector<ProblemSpec> problems;
  std::vector<std::size_t> order;
};

WorkloadPlan generate(Workload workload, std::uint64_t seed, std::size_t nproc);

/// Seed of problem `index`'s operand values under workload seed `seed`.
std::uint64_t problem_seed(std::uint64_t seed, std::size_t index);

/// A problem with its operands, output buffers and check data allocated.
/// Operands are filled from the seed; the expected result is computed once
/// at construction, so checking a call costs O(output), not O(mnk).
class Instance {
 public:
  virtual ~Instance() = default;
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// One synchronous call through the problem's front end.
  virtual streamk::cpu::GemmReport run(const streamk::cpu::GemmOptions& options) = 0;
  /// The same call through the front end's runtime::submit_* twin.
  virtual streamk::runtime::GemmHandle submit(
      const streamk::cpu::GemmOptions& options) = 0;
  /// Fills every output with NaN, so an unwritten element fails check().
  virtual void poison() = 0;
  /// Whether the outputs hold the problem's result within tolerance.
  virtual bool check() const = 0;
  /// Self-test seam: perturbs one output element by more than the tolerance.
  virtual void corrupt() = 0;
  /// Bytes of operands, outputs and check data this instance allocated.
  virtual std::size_t bytes() const = 0;

  const ProblemSpec& spec() const { return spec_; }

 protected:
  ProblemSpec spec_;
};

std::unique_ptr<Instance> instantiate(const ProblemSpec& spec,
                                      std::uint64_t seed);

/// GemmOptions every call uses: Schedule::kAuto on `workers` workers.
streamk::cpu::GemmOptions call_options(std::size_t workers);

}  // namespace perfbench
