#pragma once

// Host ceilings and single-layer probes for the per-layer ledger.
//
// Ceilings are measured on the host in the same run: FMA peak per dtype on
// one core (16 independent vector FMA chains), triad bandwidth on one core
// over arrays totalling at least 4x the last-level cache, and a condition-
// variable wake round trip between two threads.  They are the denominators
// of the frac_* metrics, replacing host_proxy_spec's placeholder peaks.
//
// Layer probes time each layer's public functions from outside the library
// and report medians of many repetitions.

#include <cstddef>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct HostCeilings {
  double fma_gflops_fp64 = 0.0;  ///< one core, best of 5
  double fma_gflops_f32 = 0.0;
  double triad_gbps = 0.0;       ///< one core, best of 5, 24 bytes/element
  double wake_us = 0.0;          ///< median round trip
  std::size_t llc_bytes = 0;     ///< last-level cache the host reports
  std::size_t triad_bytes = 0;   ///< the triad's three arrays together
};

HostCeilings measure_host();

/// One line naming the host: CPU model, ISA the build targets, nproc, LLC.
std::string machine_fingerprint(std::size_t nproc);

struct LayerProbes {
  double microkernel_gflops_fp64 = 0.0;  ///< run_packed_mac, one thread
  double microkernel_gflops_f32 = 0.0;
  double pack_gbps_fp64 = 0.0;           ///< pack_a/b_matrix, bytes read + written
  double pack_gbps_fp16 = 0.0;
  double plan_compile_us = 0.0;          ///< core::compile_plan, median
  double plan_lookup_ns = 0.0;           ///< core::PlanCache::lookup hit, median
  double dispatch_probe_ns = 0.0;        ///< cpu::apply_tuned_dispatch, empty db
  double pool_region_us = 0.0;           ///< run_region over nproc no-op tickets
  double pool_submit_get_us = 0.0;       ///< async(no-op).get()
  double frontend_gemm_us = 0.0;         ///< minimal problem per front end
  double frontend_dgemm_us = 0.0;
  double frontend_batched_us = 0.0;
  double frontend_grouped_us = 0.0;
  double frontend_conv_us = 0.0;
};

/// Plan probes use the workload's single-GEMM problems (gemm and dgemm);
/// everything else is workload-independent.
LayerProbes measure_layers(const WorkloadPlan& plan, std::size_t workers);

}  // namespace perfbench
