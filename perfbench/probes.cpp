#include "probes.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "conv/implicit_gemm.hpp"
#include "conv/tensor.hpp"
#include "core/schedule_plan.hpp"
#include "core/work_mapping.hpp"
#include "cpu/batched.hpp"
#include "cpu/grouped.hpp"
#include "cpu/microkernel.hpp"
#include "cpu/packing.hpp"
#include "runtime/worker_pool.hpp"
#include "stats.hpp"

namespace perfbench {

namespace cpu = streamk::cpu;
namespace core = streamk::core;
namespace conv = streamk::conv;
namespace gpu = streamk::gpu;
namespace runtime = streamk::runtime;
using Clock = std::chrono::steady_clock;
using streamk::util::Half;

namespace {

/// Keeps probe results observable so the timed work is not optimized away.
volatile double g_sink = 0.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over `samples` timings of `fn`, in microseconds.
double median_us(int samples, const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(std::move(us));
}

// --- FMA peak -----------------------------------------------------------

template <typename T>
struct Vec;
#if defined(__AVX512F__)
template <>
struct Vec<double> {
  using V = __m512d;
  static constexpr int kLanes = 8;
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static double sum(V v) {
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, v);
    double s = 0.0;
    for (const double x : lanes) s += x;
    return s;
  }
};
template <>
struct Vec<float> {
  using V = __m512;
  static constexpr int kLanes = 16;
  static V set1(float x) { return _mm512_set1_ps(x); }
  static V fma(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  static double sum(V v) {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, v);
    double s = 0.0;
    for (const float x : lanes) s += x;
    return s;
  }
};
#elif defined(__AVX2__) && defined(__FMA__)
template <>
struct Vec<double> {
  using V = __m256d;
  static constexpr int kLanes = 4;
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  static double sum(V v) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
};
template <>
struct Vec<float> {
  using V = __m256;
  static constexpr int kLanes = 8;
  static V set1(float x) { return _mm256_set1_ps(x); }
  static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static double sum(V v) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    double s = 0.0;
    for (const float x : lanes) s += x;
    return s;
  }
};
#else
template <typename T>
struct Vec {
  using V = T;
  static constexpr int kLanes = 1;
  static V set1(T x) { return x; }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static double sum(V v) { return v; }
};
#endif

/// 16 independent FMA chains of the widest vector the build targets --
/// enough to cover FMA latency times issue width on current cores.
template <typename T>
double fma_gflops_once(std::int64_t iters) {
  using Ops = Vec<T>;
  using V = typename Ops::V;
  constexpr int kChains = 16;
  V acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = Ops::set1(static_cast<T>(1.0 + c * 1e-3));
  const V m = Ops::set1(static_cast<T>(0.999999));
  const V a = Ops::set1(static_cast<T>(1e-6));
  const Clock::time_point t0 = Clock::now();
  for (std::int64_t it = 0; it < iters; ++it) {
#pragma GCC unroll 16
    for (int c = 0; c < kChains; ++c) acc[c] = Ops::fma(acc[c], m, a);
  }
  const double seconds = seconds_since(t0);
  double s = 0.0;
  for (int c = 0; c < kChains; ++c) s += Ops::sum(acc[c]);
  g_sink = s;
  return 2.0 * kChains * Ops::kLanes * static_cast<double>(iters) / seconds / 1e9;
}

template <typename T>
double fma_gflops() {
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    best = std::max(best, fma_gflops_once<T>(4'000'000));
  }
  return best;
}

// --- memory -------------------------------------------------------------

/// Last-level cache size as the C library reports it (0 when unknown).
std::size_t llc_bytes() {
#if defined(_SC_LEVEL3_CACHE_SIZE) && defined(_SC_LEVEL2_CACHE_SIZE)
  for (const int level : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long bytes = sysconf(level);
    if (bytes > 0) return static_cast<std::size_t>(bytes);
  }
#endif
  return 0;
}

/// a = b + s c on one core; 24 bytes per element (write-allocate traffic
/// not counted), best of 5 passes.
double triad_gbps(std::size_t total_bytes) {
  const std::size_t n = total_bytes / (3 * sizeof(double));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 0.5;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double seconds = seconds_since(t0);
    best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) / seconds / 1e9);
  }
  g_sink = a[n / 2];
  return best;
}

/// Median round trip of waking a thread blocked on a condition variable
/// and being woken back -- the mechanism the worker pool's idle threads
/// sleep on.
double wake_round_trip_us() {
  std::mutex mutex;
  std::condition_variable cv;
  int turn = 0;  // 0: main's turn, 1: partner's, -1: stop
  std::thread partner([&] {
    std::unique_lock lock(mutex);
    for (;;) {
      cv.wait(lock, [&] { return turn != 0; });
      if (turn < 0) return;
      turn = 0;
      cv.notify_all();
    }
  });
  const double us = median_us(2000, [&] {
    std::unique_lock lock(mutex);
    turn = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return turn == 0; });
  });
  {
    std::lock_guard lock(mutex);
    turn = -1;
  }
  cv.notify_all();
  partner.join();
  return us;
}

// --- library layers -----------------------------------------------------

constexpr std::int64_t kPanelDepth = core::PackedPanelGeometry::kTargetPanelDepth;

/// run_packed_mac over one block-shaped pair of packed panels, kc = 256.
template <typename Acc>
double microkernel_gflops(gpu::BlockShape block) {
  cpu::PanelVector<Acc> a(static_cast<std::size_t>(
      cpu::round_up(block.m, cpu::MicroTile<Acc>::kMr) * kPanelDepth), Acc(1e-3));
  cpu::PanelVector<Acc> b(static_cast<std::size_t>(
      cpu::round_up(block.n, cpu::MicroTile<Acc>::kNr) * kPanelDepth), Acc(1e-3));
  std::vector<Acc> c(static_cast<std::size_t>(block.m * block.n), Acc{});
  constexpr int kCalls = 200;
  std::vector<double> rates;
  for (int sample = 0; sample < 9; ++sample) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      cpu::run_packed_mac<Acc>(a.data(), b.data(), block.m, block.n, kPanelDepth,
                               c.data(), block.n);
    }
    rates.push_back(gflops(2.0 * static_cast<double>(block.m * block.n * kPanelDepth) * kCalls,
                           seconds_since(t0)));
  }
  g_sink = static_cast<double>(c[0]);
  return median(std::move(rates));
}

/// pack_a_matrix + pack_b_matrix of block-shaped, 256-deep panels walking a
/// 2048 x 2048 source (larger than the per-core caches); bytes read plus
/// bytes written.
template <typename In, typename Acc>
double pack_gbps(gpu::BlockShape block) {
  constexpr std::int64_t kDim = 2048;
  cpu::Matrix<In> src(kDim, kDim);
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    src.data()[i] = static_cast<In>(static_cast<float>(i % 7) * 0.25f);
  }
  const std::int64_t a_elems = cpu::round_up(block.m, cpu::MicroTile<Acc>::kMr) * kPanelDepth;
  const std::int64_t b_elems = cpu::round_up(block.n, cpu::MicroTile<Acc>::kNr) * kPanelDepth;
  cpu::PanelVector<Acc> da(static_cast<std::size_t>(a_elems));
  cpu::PanelVector<Acc> db(static_cast<std::size_t>(b_elems));
  const double bytes_per_pair =
      static_cast<double>((block.m + block.n) * kPanelDepth) * sizeof(In) +
      static_cast<double>(a_elems + b_elems) * sizeof(Acc);
  constexpr int kPairs = 256;
  const std::int64_t row_steps = (kDim - block.m) / block.m;
  const std::int64_t k_steps = (kDim - kPanelDepth) / kPanelDepth;
  std::int64_t step = 0;
  std::vector<double> rates;
  for (int sample = 0; sample < 9; ++sample) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i, ++step) {
      const std::int64_t row0 = (step % row_steps) * block.m;
      const std::int64_t k0 = ((step / row_steps) % k_steps) * kPanelDepth;
      cpu::pack_a_matrix<In, Acc>(src, row0, block.m, k0, kPanelDepth, da.data());
      cpu::pack_b_matrix<In, Acc>(src, k0, kPanelDepth, row0, block.n, db.data());
    }
    rates.push_back(bytes_per_pair * kPairs / seconds_since(t0) / 1e9);
  }
  g_sink = static_cast<double>(da[0]) + static_cast<double>(db[0]);
  return median(std::move(rates));
}

struct PlanProbes {
  double compile_us = 0.0;
  double lookup_ns = 0.0;
  double dispatch_ns = 0.0;
};

PlanProbes plan_probes(const WorkloadPlan& plan, std::size_t workers) {
  struct Keyed {
    core::GemmShape shape;
    gpu::Precision precision;
    core::PlanKey key;
  };
  const cpu::GemmOptions options = call_options(workers);
  core::PlanCache cache;
  std::vector<Keyed> keyed;
  std::vector<double> compile_us;
  for (const ProblemSpec& spec : plan.problems) {
    if (spec.front_end != FrontEnd::kGemm &&
        spec.front_end != FrontEnd::kGemmBiasGelu &&
        spec.front_end != FrontEnd::kDgemm) {
      continue;
    }
    const gpu::Precision precision = precision_of(spec.dtype);
    const core::WorkMapping mapping(spec.shapes.front(),
                                    cpu::default_cpu_block(precision));
    const core::DecompositionSpec dspec =
        cpu::resolve_schedule(options, mapping, precision, workers);
    const auto decomposition = core::make_decomposition(dspec, mapping);
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const core::SchedulePlan compiled = core::compile_plan(*decomposition);
      compile_us.push_back(seconds_since(t0) * 1e6);
      g_sink = static_cast<double>(compiled.grid());
    }
    const core::PlanKey key = core::make_plan_key(mapping, dspec);
    cache.obtain(key, mapping, dspec);
    keyed.push_back({spec.shapes.front(), precision, key});
  }
  PlanProbes result;
  if (keyed.empty()) return result;
  result.compile_us = median(std::move(compile_us));

  constexpr int kBatch = 64;
  std::vector<double> lookup_ns;
  std::vector<double> dispatch_ns;
  for (int sample = 0; sample < 200; ++sample) {
    const Keyed& k = keyed[static_cast<std::size_t>(sample) % keyed.size()];
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      g_sink = cache.lookup(k.key) != nullptr ? 1.0 : 0.0;
    }
    lookup_ns.push_back(seconds_since(t0) * 1e9 / kBatch);
    t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      g_sink = static_cast<double>(
          cpu::apply_tuned_dispatch(k.shape, k.precision, options).workers);
    }
    dispatch_ns.push_back(seconds_since(t0) * 1e9 / kBatch);
  }
  result.lookup_ns = median(std::move(lookup_ns));
  result.dispatch_ns = median(std::move(dispatch_ns));
  return result;
}

template <typename T>
cpu::Matrix<T> filled(std::int64_t rows, std::int64_t cols) {
  cpu::Matrix<T> m(rows, cols);
  for (T& v : m.data()) v = static_cast<T>(0.5);
  return m;
}

/// Median per-call time of each front end on a minimal problem (16^3,
/// one tile), after a warm-up that compiles and caches its plan.
void frontend_probes(std::size_t workers, LayerProbes& out) {
  const cpu::GemmOptions options = call_options(workers);
  constexpr int kCalls = 1000;
  auto timed = [&](const std::function<void()>& call) {
    for (int i = 0; i < 20; ++i) call();
    return median_us(kCalls, call);
  };
  const cpu::Matrix<double> a = filled<double>(16, 16);
  const cpu::Matrix<double> b = filled<double>(16, 16);
  cpu::Matrix<double> c(16, 16);
  out.frontend_gemm_us = timed([&] { cpu::gemm(a, b, c, options); });
  out.frontend_dgemm_us = timed([&] {
    cpu::dgemm(cpu::Trans::kTranspose, cpu::Trans::kNone, 1.0, a, b, 0.0, c,
               options);
  });

  const std::vector<cpu::Matrix<double>> as = {a, a};
  const std::vector<cpu::Matrix<double>> bs = {b, b};
  std::vector<cpu::Matrix<double>> cs = {c, c};
  out.frontend_batched_us = timed([&] {
    cpu::batched_gemm<double, double, double>(as, bs, cs, options);
  });
  const std::vector<cpu::Matrix<double>> ragged_b = {b, filled<double>(16, 24)};
  std::vector<cpu::Matrix<double>> ragged_c = {c, cpu::Matrix<double>(16, 24)};
  out.frontend_grouped_us = timed([&] {
    cpu::grouped_gemm<double, double, double>(as, ragged_b, ragged_c, options);
  });

  conv::ConvShape shape;
  shape.height = 4;
  shape.width = 4;
  shape.in_channels = 8;
  shape.out_channels = 8;
  shape.filter_h = 3;
  shape.filter_w = 3;
  shape.pad = 1;
  conv::Tensor4<float> input(1, 4, 4, 8);
  conv::Tensor4<float> filter(8, 3, 3, 8);
  conv::Tensor4<float> output(1, shape.out_h(), shape.out_w(), 8);
  for (float& v : input.data()) v = 0.5f;
  for (float& v : filter.data()) v = 0.25f;
  out.frontend_conv_us = timed([&] {
    conv::conv_forward<float, float, float>(shape, input, filter, output, options);
  });
}

}  // namespace

HostCeilings measure_host() {
  HostCeilings h;
  h.fma_gflops_fp64 = fma_gflops<double>();
  h.fma_gflops_f32 = fma_gflops<float>();
  h.llc_bytes = llc_bytes();
  // At least 4x the LLC so the triad streams from memory; floor 256 MiB
  // when the LLC is unknown, cap 2 GiB to bound the probe's footprint.
  h.triad_bytes = std::clamp<std::size_t>(4 * h.llc_bytes, std::size_t{256} << 20,
                                          std::size_t{2} << 30);
  h.triad_gbps = triad_gbps(h.triad_bytes);
  h.wake_us = wake_round_trip_us();
  return h;
}

std::string machine_fingerprint(std::size_t nproc) {
  std::string model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
#endif
#if defined(__AVX512F__)
  const char* isa = "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
  const char* isa = "avx2+fma";
#else
  const char* isa = "portable";
#endif
  std::ostringstream os;
  os << "cpu=\"" << model << "\" isa=" << isa << " nproc=" << nproc
     << " llc_bytes=" << llc_bytes();
  return os.str();
}

LayerProbes measure_layers(const WorkloadPlan& plan, std::size_t workers) {
  LayerProbes p;
  p.microkernel_gflops_fp64 =
      microkernel_gflops<double>(cpu::default_cpu_block(gpu::Precision::kFp64));
  p.microkernel_gflops_f32 =
      microkernel_gflops<float>(cpu::default_cpu_block(gpu::Precision::kFp32));
  p.pack_gbps_fp64 =
      pack_gbps<double, double>(cpu::default_cpu_block(gpu::Precision::kFp64));
  p.pack_gbps_fp16 =
      pack_gbps<Half, float>(cpu::default_cpu_block(gpu::Precision::kFp16F32));

  const PlanProbes plans = plan_probes(plan, workers);
  p.plan_compile_us = plans.compile_us;
  p.plan_lookup_ns = plans.lookup_ns;
  p.dispatch_probe_ns = plans.dispatch_ns;

  runtime::WorkerPool& pool = runtime::global_pool();
  const std::function<void(std::size_t)> noop = [](std::size_t) {};
  p.pool_region_us = median_us(2000, [&] {
    pool.run_region(workers, noop, workers, runtime::RegionOrder::kAscending);
  });
  p.pool_submit_get_us = median_us(2000, [&] { pool.async([] { return 1; }).get(); });

  frontend_probes(workers, p);
  return p;
}

}  // namespace perfbench
