#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "checks.hpp"
#include "conv/implicit_gemm.hpp"
#include "conv/tensor.hpp"
#include "cpu/batched.hpp"
#include "cpu/grouped.hpp"
#include "cpu/reference.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace cpu = streamk::cpu;
namespace conv = streamk::conv;
namespace core = streamk::core;
namespace runtime = streamk::runtime;
using streamk::util::Half;

namespace {

/// splitmix64: the benchmark's own generator, so the workloads do not move
/// when the library's RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  std::int64_t log_uniform(double lo, double hi) {
    return static_cast<std::int64_t>(
        std::lround(std::exp(uniform(std::log(lo), std::log(hi)))));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(next() % i)]);
    }
  }

 private:
  std::uint64_t state_;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).next();
}

std::int64_t round_to(double v, std::int64_t unit, std::int64_t lo,
                      std::int64_t hi) {
  const auto r = static_cast<std::int64_t>(std::lround(v / static_cast<double>(unit))) * unit;
  return std::clamp(r, lo, hi);
}

ProblemSpec gemm_spec(FrontEnd fe, DType dtype, core::GemmShape shape) {
  ProblemSpec spec;
  spec.front_end = fe;
  spec.dtype = dtype;
  spec.shapes = {shape};
  return spec;
}

/// The seed reshapes a slot without changing its work: m and n are scaled
/// by independent factors in [1/spread, spread] and k by the inverse of
/// their product, so m n k (and each slot's share of the workload's time)
/// stays put while the shapes, and hence tilings and edges, change.
core::GemmShape reshaped(Rng& rng, double m, double n, double k, double spread,
                         std::int64_t unit, std::int64_t lo, std::int64_t hi) {
  const double f = std::exp(rng.uniform(-std::log(spread), std::log(spread)));
  const double g = std::exp(rng.uniform(-std::log(spread), std::log(spread)));
  return {round_to(m * f, unit, lo, hi), round_to(n * g, unit, lo, hi),
          round_to(k / (f * g), unit, lo, hi)};
}

// large_square: four fp64 and four fp16->f32 slots with extents in
// [768, 2048].  One cycle alternates fp64 and fp16 calls.  Nominal m and n
// are multiples of 192, a multiple of both default blocks (48 fp64, 64
// fp32/fp16); the seed trims up to 40 rows and columns, which moves the
// ragged edges but not the tile counts the planner decides on.  k stays:
// it sets the panel-cache arena's chunk count, and so the memory figure.
void generate_large_square(Rng& rng, WorkloadPlan& plan) {
  struct Nominal { std::int64_t m, n, k; };
  constexpr Nominal kF64[] = {
      {1152, 1152, 1024}, {1536, 1344, 896}, {960, 1728, 1408}, {1920, 960, 896}};
  constexpr Nominal kF16[] = {
      {1344, 1344, 1280}, {1920, 1536, 1024}, {960, 1920, 1536}, {1728, 960, 1664}};
  auto shape = [&](const Nominal& s) {
    const std::int64_t m = s.m - 8 * rng.range(0, 5);
    const std::int64_t n = s.n - 8 * rng.range(0, 5);
    return core::GemmShape{m, n, s.k};
  };
  std::vector<std::size_t> f64, f16;
  for (int i = 0; i < 4; ++i) {
    f64.push_back(plan.problems.size());
    plan.problems.push_back(gemm_spec(FrontEnd::kGemm, DType::kF64, shape(kF64[i])));
    f16.push_back(plan.problems.size());
    plan.problems.push_back(gemm_spec(FrontEnd::kGemm, DType::kF16F32, shape(kF16[i])));
  }
  rng.shuffle(f64);
  rng.shuffle(f16);
  for (int i = 0; i < 4; ++i) {
    plan.order.push_back(f64[static_cast<std::size_t>(i)]);
    plan.order.push_back(f16[static_cast<std::size_t>(i)]);
  }
}

// streamk_skew: eight fp64 slots whose output-tile count T at the default
// 48 x 48 fp64 block lies in [2, 3 nproc] and is not a multiple of nproc,
// with k in [4096, 32768].  Slots pair small T with deep k so every slot
// does similar work, and slot i takes the (i mod d)-th of its tile count's
// d factorizations tm x tn.  Extents are whole tiles: on problems this
// small one ragged edge moves a slot's speed by a third, which would make
// the workload's figures depend on the seed rather than on the library.
// The seed moves k within 2% of the slot's depth.
void generate_streamk_skew(Rng& rng, WorkloadPlan& plan) {
  const auto p = static_cast<std::int64_t>(plan.nproc);
  std::vector<std::int64_t> candidates;
  for (std::int64_t t = 2; t <= 3 * p; ++t) {
    if (p == 1 || t % p != 0) candidates.push_back(t);
  }
  if (p == 1) candidates = {2, 3};  // every count divides evenly on one core
  constexpr int kSlots = 8;
  constexpr std::int64_t kBlock = 48;
  for (int i = 0; i < kSlots; ++i) {
    const std::int64_t tiles =
        candidates[static_cast<std::size_t>(i) * candidates.size() / kSlots];
    std::vector<std::pair<std::int64_t, std::int64_t>> grids;
    for (std::int64_t tm = 1; tm <= tiles; ++tm) {
      if (tiles % tm == 0) grids.emplace_back(tm, tiles / tm);
    }
    const auto [tm, tn] = grids[static_cast<std::size_t>(i) % grids.size()];
    const double k_nominal = 32768.0 / std::pow(2.0, 3.0 * i / (kSlots - 1));
    const std::int64_t k =
        round_to(k_nominal * rng.uniform(0.98, 1.02), 16, 4096, 32768);
    plan.problems.push_back(
        gemm_spec(FrontEnd::kGemm, DType::kF64, {tm * kBlock, tn * kBlock, k}));
  }
  for (std::size_t i = 0; i < plan.problems.size(); ++i) plan.order.push_back(i);
  rng.shuffle(plan.order);
}

// small_sync_mix / small_async_burst: twenty-four problems per front end,
// two in each of twelve log-spaced bands over [16, 384] (centres 18 to 336;
// one fp64 gemm slot of the band nearest 256 is a fixed 256^3).  Each slot
// is reshaped by up to 5% per extent.  Wider reshaping, or one problem per
// band, let the seed move kAuto's schedule and the mix of the slowest
// problems enough to shift the workload's p90 by more than the library's
// own run-to-run noise.  Batched slots issue 2-7 GEMMs and grouped slots
// 2-8 ragged ones, two bands down.  144 distinct problems: more than the 8
// pooled panel-cache arenas, far fewer than the 4096-entry plan cache, and
// enough that the latency percentiles fall between many problems rather
// than on one.
void generate_small_mix(Rng& rng, WorkloadPlan& plan) {
  constexpr int kSlots = 12;
  constexpr int kPerBand = 2;
  constexpr std::int64_t kGroupSizes[kSlots] = {2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 8, 8};
  auto centre = [](int b) { return 16.0 * std::pow(24.0, (b + 0.5) / kSlots); };
  constexpr double kSpread = 1.05;
  auto shape = [&](int b) {
    const double d = centre(b);
    return reshaped(rng, d, d, d, kSpread, 1, 8, 448);
  };
  for (int slot = 0; slot < kSlots * kPerBand; ++slot) {
    const int j = slot % kSlots;
    plan.problems.push_back(gemm_spec(FrontEnd::kGemmBiasGelu, DType::kF16F32, shape(j)));

    plan.problems.push_back(gemm_spec(
        FrontEnd::kGemm, DType::kF64,
        slot == kSlots - 2 ? core::GemmShape{256, 256, 256} : shape(j)));

    ProblemSpec dgemm = gemm_spec(FrontEnd::kDgemm, DType::kF64, shape(j));
    dgemm.trans_a = (j & 1) != 0 ? cpu::Trans::kTranspose : cpu::Trans::kNone;
    dgemm.trans_b = (j & 2) != 0 ? cpu::Trans::kTranspose : cpu::Trans::kNone;
    dgemm.alpha = -0.5;
    plan.problems.push_back(dgemm);

    const int band = std::max(0, j - 2);
    ProblemSpec batched;
    batched.front_end = FrontEnd::kBatched;
    batched.dtype = DType::kF32;
    batched.shapes.assign(static_cast<std::size_t>(2 + j / 2), shape(band));
    plan.problems.push_back(batched);

    ProblemSpec grouped;
    grouped.front_end = FrontEnd::kGrouped;
    grouped.dtype = DType::kF64;
    for (std::int64_t g = 0; g < kGroupSizes[j]; ++g) {
      grouped.shapes.push_back(shape(band));
    }
    plan.problems.push_back(grouped);

    ProblemSpec cv;
    cv.front_end = FrontEnd::kConv;
    cv.dtype = DType::kF32;
    const double side = 8.0 + 2.0 * j;
    const double f = std::exp(rng.uniform(-std::log(kSpread), std::log(kSpread)));
    cv.conv.batch = 1 + (j % 2);
    cv.conv.height = round_to(side * f, 1, 4, 64);
    cv.conv.width = round_to(side / f, 1, 4, 64);
    cv.conv.in_channels = 8 + 4 * j;
    cv.conv.out_channels = 16 + 4 * j;
    cv.conv.filter_h = 3;
    cv.conv.filter_w = 3;
    cv.conv.stride = 1;
    cv.conv.pad = 1;
    cv.shapes = {cv.conv.gemm_shape()};
    plan.problems.push_back(cv);
  }
  for (std::size_t i = 0; i < plan.problems.size(); ++i) plan.order.push_back(i);
  rng.shuffle(plan.order);
}

// --- instances --------------------------------------------------------------

template <typename T>
T from_double(double v) {
  if constexpr (std::is_same_v<T, Half>) {
    return Half(static_cast<float>(v));
  } else {
    return static_cast<T>(v);
  }
}

template <typename T, typename Container>
void fill_uniform(Container&& values, Rng& rng) {
  for (T& v : values) v = from_double<T>(rng.uniform(-1.0, 1.0));
}

template <typename T>
void fill_nan(std::span<T> values) {
  std::fill(values.begin(), values.end(), std::numeric_limits<T>::quiet_NaN());
}

template <typename T>
cpu::Matrix<T> transposed(const cpu::Matrix<T>& m) {
  cpu::Matrix<T> t(m.cols(), m.rows());
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

/// Reference output of alpha * a * b through cpu::reference_gemm.
template <typename In, typename Acc, typename Out>
ReferenceCheck reference_check(const cpu::Matrix<In>& a,
                               const cpu::Matrix<In>& b, double alpha,
                               DType dtype) {
  cpu::Matrix<Out> c(a.rows(), b.cols());
  cpu::reference_gemm<In, Acc, Out>(
      a, b, c, cpu::default_cpu_block(precision_of(dtype)), alpha, 0.0);
  ReferenceCheck check;
  check.expected.assign(c.data().begin(), c.data().end());
  check.tol = dot_tolerance(a.cols(), unit_roundoff<Acc>(), alpha);
  return check;
}

double gelu(double v) {
  return 0.5 * v * (1.0 + std::tanh(0.7978845608028654 * (v + 0.044715 * v * v * v)));
}

/// Above this many multiply-adds a problem is checked with a Freivalds probe
/// instead of a full reference product (every large_square and streamk_skew
/// problem; no small-mix problem).
constexpr std::int64_t kFreivaldsMacs = std::int64_t{1} << 26;

/// Plain GEMM, fused bias+GELU GEMM, and transposed dgemm.
template <typename In, typename Acc, typename Out>
class GemmInstance final : public Instance {
 public:
  GemmInstance(const ProblemSpec& spec, Rng& rng) {
    spec_ = spec;
    const core::GemmShape s = spec.shapes.front();
    const bool ta = spec.trans_a == cpu::Trans::kTranspose;
    const bool tb = spec.trans_b == cpu::Trans::kTranspose;
    a_ = cpu::Matrix<In>(ta ? s.k : s.m, ta ? s.m : s.k);
    b_ = cpu::Matrix<In>(tb ? s.n : s.k, tb ? s.k : s.n);
    c_ = cpu::Matrix<Out>(s.m, s.n);
    fill_uniform<In>(a_.data(), rng);
    fill_uniform<In>(b_.data(), rng);
    if (spec.front_end == FrontEnd::kGemmBiasGelu) {
      bias_.resize(static_cast<std::size_t>(s.n));
      fill_uniform<double>(bias_, rng);
      epilogue_.ops = {streamk::epilogue::EpilogueOp::bias_col(),
                       streamk::epilogue::EpilogueOp::gelu()};
      epilogue_.bias_col = bias_;
    }
    const double alpha = spec.front_end == FrontEnd::kDgemm ? spec.alpha : 1.0;

    if (s.macs() > kFreivaldsMacs && !ta && !tb && epilogue_.empty()) {
      freivalds_.x.resize(static_cast<std::size_t>(s.n));
      for (double& v : freivalds_.x) {
        v = rng.uniform(0.5, 1.0) * ((rng.next() & 1) != 0 ? 1.0 : -1.0);
      }
      freivalds_.build(a_, b_, alpha);
      freivalds_.u_acc = unit_roundoff<Acc>();
      use_freivalds_ = true;
      return;
    }
    const cpu::Matrix<In> a_op = ta ? transposed(a_) : cpu::Matrix<In>();
    const cpu::Matrix<In> b_op = tb ? transposed(b_) : cpu::Matrix<In>();
    reference_ = reference_check<In, Acc, Out>(ta ? a_op : a_, tb ? b_op : b_,
                                               alpha, spec.dtype);
    if (!bias_.empty()) {
      // GELU is 1.13-Lipschitz; the extra term covers rounding of the bias
      // add and of the activation itself (|v| <= k for these operands).
      for (std::size_t e = 0; e < reference_.expected.size(); ++e) {
        double& v = reference_.expected[e];
        v = gelu(v + bias_[e % bias_.size()]);
      }
      reference_.tol = 1.2 * reference_.tol +
                       4.0 * static_cast<double>(s.k + 2) * unit_roundoff<Acc>();
    }
  }

  cpu::GemmReport run(const cpu::GemmOptions& options) override {
    const cpu::GemmOptions o = with_epilogue(options);
    if constexpr (std::is_same_v<In, double>) {
      if (spec_.front_end == FrontEnd::kDgemm) {
        return cpu::dgemm(spec_.trans_a, spec_.trans_b, spec_.alpha, a_, b_,
                          0.0, c_, o);
      }
    }
    return cpu::gemm(a_, b_, c_, o);
  }

  runtime::GemmHandle submit(const cpu::GemmOptions& options) override {
    const cpu::GemmOptions o = with_epilogue(options);
    if constexpr (std::is_same_v<In, double>) {
      if (spec_.front_end == FrontEnd::kDgemm) {
        return runtime::submit_dgemm(spec_.trans_a, spec_.trans_b, spec_.alpha,
                                     a_, b_, 0.0, c_, o);
      }
    }
    return runtime::submit_gemm(a_, b_, c_, o);
  }

  void poison() override { fill_nan(c_.data()); }

  bool check() const override {
    if (use_freivalds_) return freivalds_.matches(c_);
    return reference_.matches(std::span<const Out>(c_.data()));
  }

  void corrupt() override { c_.data()[0] += static_cast<Out>(8.0); }

  std::size_t bytes() const override {
    return a_.data().size_bytes() + b_.data().size_bytes() +
           c_.data().size_bytes() + bias_.size() * sizeof(double) +
           freivalds_.bytes() + reference_.bytes();
  }

 private:
  cpu::GemmOptions with_epilogue(const cpu::GemmOptions& options) const {
    cpu::GemmOptions o = options;
    o.epilogue = epilogue_;
    return o;
  }

  cpu::Matrix<In> a_;
  cpu::Matrix<In> b_;
  cpu::Matrix<Out> c_;
  std::vector<double> bias_;
  streamk::epilogue::EpilogueSpec epilogue_;
  bool use_freivalds_ = false;
  FreivaldsCheck freivalds_;
  ReferenceCheck reference_;
};

/// Batched (equal shapes) and grouped (ragged shapes) GEMM.
template <typename T>
class MultiInstance final : public Instance {
 public:
  MultiInstance(const ProblemSpec& spec, Rng& rng) {
    spec_ = spec;
    for (const core::GemmShape& s : spec.shapes) {
      as_.emplace_back(s.m, s.k);
      bs_.emplace_back(s.k, s.n);
      cs_.emplace_back(s.m, s.n);
      fill_uniform<T>(as_.back().data(), rng);
      fill_uniform<T>(bs_.back().data(), rng);
      references_.push_back(
          reference_check<T, T, T>(as_.back(), bs_.back(), 1.0, spec.dtype));
    }
  }

  cpu::GemmReport run(const cpu::GemmOptions& options) override {
    if (spec_.front_end == FrontEnd::kBatched) {
      return cpu::batched_gemm<T, T, T>(as(), bs(), cs(), options);
    }
    return cpu::grouped_gemm<T, T, T>(as(), bs(), cs(), options);
  }

  runtime::GemmHandle submit(const cpu::GemmOptions& options) override {
    if (spec_.front_end == FrontEnd::kBatched) {
      return runtime::submit_batched_gemm(as(), bs(), cs(), options);
    }
    return runtime::submit_grouped_gemm(as(), bs(), cs(), options);
  }

  void poison() override {
    for (cpu::Matrix<T>& c : cs_) fill_nan(c.data());
  }

  bool check() const override {
    for (std::size_t i = 0; i < cs_.size(); ++i) {
      if (!references_[i].matches(std::span<const T>(cs_[i].data()))) {
        return false;
      }
    }
    return true;
  }

  void corrupt() override { cs_.back().data()[0] += static_cast<T>(8.0); }

  std::size_t bytes() const override {
    std::size_t total = 0;
    for (std::size_t i = 0; i < cs_.size(); ++i) {
      total += as_[i].data().size_bytes() + bs_[i].data().size_bytes() +
               cs_[i].data().size_bytes() + references_[i].bytes();
    }
    return total;
  }

 private:
  std::span<const cpu::Matrix<T>> as() const { return as_; }
  std::span<const cpu::Matrix<T>> bs() const { return bs_; }
  std::span<cpu::Matrix<T>> cs() { return cs_; }

  std::vector<cpu::Matrix<T>> as_;
  std::vector<cpu::Matrix<T>> bs_;
  std::vector<cpu::Matrix<T>> cs_;
  std::vector<ReferenceCheck> references_;
};

/// fp32 implicit-GEMM convolution, checked against conv::direct_conv.
class ConvInstance final : public Instance {
 public:
  ConvInstance(const ProblemSpec& spec, Rng& rng) {
    spec_ = spec;
    const conv::ConvShape& s = spec.conv;
    input_ = conv::Tensor4<float>(s.batch, s.height, s.width, s.in_channels);
    filter_ = conv::Tensor4<float>(s.out_channels, s.filter_h, s.filter_w,
                                   s.in_channels);
    output_ = conv::Tensor4<float>(s.batch, s.out_h(), s.out_w(), s.out_channels);
    fill_uniform<float>(input_.data(), rng);
    fill_uniform<float>(filter_.data(), rng);
    conv::Tensor4<float> expected(s.batch, s.out_h(), s.out_w(), s.out_channels);
    conv::direct_conv<float, float, float>(s, input_, filter_, expected);
    reference_.expected.assign(expected.data().begin(), expected.data().end());
    reference_.tol = dot_tolerance(s.gemm_shape().k, unit_roundoff<float>());
  }

  cpu::GemmReport run(const cpu::GemmOptions& options) override {
    return conv::conv_forward<float, float, float>(spec_.conv, input_, filter_,
                                                   output_, options);
  }

  runtime::GemmHandle submit(const cpu::GemmOptions& options) override {
    return runtime::submit_conv_forward(spec_.conv, input_, filter_, output_,
                                        options);
  }

  void poison() override { fill_nan(output_.data()); }

  bool check() const override {
    return reference_.matches(std::span<const float>(output_.data()));
  }

  void corrupt() override { output_.data()[0] += 8.0f; }

  std::size_t bytes() const override {
    return input_.data().size_bytes() + filter_.data().size_bytes() +
           output_.data().size_bytes() + reference_.bytes();
  }

 private:
  conv::Tensor4<float> input_;
  conv::Tensor4<float> filter_;
  conv::Tensor4<float> output_;
  ReferenceCheck reference_;
};

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kLargeSquare: return "large_square";
    case Workload::kStreamkSkew: return "streamk_skew";
    case Workload::kSmallSyncMix: return "small_sync_mix";
    case Workload::kSmallAsyncBurst: return "small_async_burst";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* front_end_name(FrontEnd front_end) {
  switch (front_end) {
    case FrontEnd::kGemm: return "gemm";
    case FrontEnd::kGemmBiasGelu: return "gemm+bias_gelu";
    case FrontEnd::kDgemm: return "dgemm";
    case FrontEnd::kBatched: return "batched";
    case FrontEnd::kGrouped: return "grouped";
    case FrontEnd::kConv: return "conv";
  }
  return "?";
}

const char* dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kF64: return "f64";
    case DType::kF32: return "f32";
    case DType::kF16F32: return "f16f32";
  }
  return "?";
}

streamk::gpu::Precision precision_of(DType dtype) {
  switch (dtype) {
    case DType::kF64: return streamk::gpu::Precision::kFp64;
    case DType::kF32: return streamk::gpu::Precision::kFp32;
    case DType::kF16F32: return streamk::gpu::Precision::kFp16F32;
  }
  streamk::util::fail("unknown dtype");
}

double ProblemSpec::flops() const {
  double total = 0.0;
  for (const core::GemmShape& s : shapes) total += s.flops();
  return total;
}

std::string ProblemSpec::label() const {
  std::ostringstream os;
  os << front_end_name(front_end) << " " << dtype_name(dtype) << " ";
  if (front_end == FrontEnd::kConv) {
    os << conv.to_string();
    return os.str();
  }
  if (shapes.size() > 1) os << shapes.size() << "x[";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (front_end == FrontEnd::kBatched && i > 0) break;
    if (i > 0) os << " ";
    os << shapes[i].m << "x" << shapes[i].n << "x" << shapes[i].k;
  }
  if (shapes.size() > 1) os << "]";
  if (front_end == FrontEnd::kDgemm) {
    os << " " << (trans_a == cpu::Trans::kTranspose ? "T" : "N")
       << (trans_b == cpu::Trans::kTranspose ? "T" : "N");
  }
  return os.str();
}

bool operator==(const ProblemSpec& x, const ProblemSpec& y) {
  auto conv_fields = [](const conv::ConvShape& c) {
    return std::tuple(c.batch, c.height, c.width, c.in_channels,
                      c.out_channels, c.filter_h, c.filter_w, c.stride, c.pad);
  };
  auto same_shapes = [](const std::vector<core::GemmShape>& p,
                        const std::vector<core::GemmShape>& q) {
    return std::equal(p.begin(), p.end(), q.begin(), q.end(),
                      [](const core::GemmShape& s, const core::GemmShape& t) {
                        return s.m == t.m && s.n == t.n && s.k == t.k;
                      });
  };
  return x.front_end == y.front_end && x.dtype == y.dtype &&
         same_shapes(x.shapes, y.shapes) && x.trans_a == y.trans_a &&
         x.trans_b == y.trans_b && x.alpha == y.alpha &&
         conv_fields(x.conv) == conv_fields(y.conv);
}

WorkloadPlan generate(Workload workload, std::uint64_t seed, std::size_t nproc) {
  WorkloadPlan plan;
  plan.workload = workload;
  plan.seed = seed;
  plan.nproc = std::max<std::size_t>(1, nproc);
  // The two small workloads share one generator stream: the async burst
  // issues exactly the sync mix's problems, in the same order.
  const std::uint64_t salt = workload == Workload::kSmallAsyncBurst
                                 ? static_cast<std::uint64_t>(Workload::kSmallSyncMix)
                                 : static_cast<std::uint64_t>(workload);
  Rng rng(mix(seed, salt + 1));
  switch (workload) {
    case Workload::kLargeSquare: generate_large_square(rng, plan); break;
    case Workload::kStreamkSkew: generate_streamk_skew(rng, plan); break;
    case Workload::kSmallSyncMix:
    case Workload::kSmallAsyncBurst: generate_small_mix(rng, plan); break;
  }
  return plan;
}

std::uint64_t problem_seed(std::uint64_t seed, std::size_t index) {
  return mix(seed, 1000 + index);
}

std::unique_ptr<Instance> instantiate(const ProblemSpec& spec,
                                      std::uint64_t seed) {
  Rng rng(seed);
  switch (spec.front_end) {
    case FrontEnd::kBatched:
    case FrontEnd::kGrouped:
      if (spec.dtype == DType::kF64) return std::make_unique<MultiInstance<double>>(spec, rng);
      return std::make_unique<MultiInstance<float>>(spec, rng);
    case FrontEnd::kConv:
      return std::make_unique<ConvInstance>(spec, rng);
    case FrontEnd::kGemm:
    case FrontEnd::kGemmBiasGelu:
    case FrontEnd::kDgemm:
      break;
  }
  switch (spec.dtype) {
    case DType::kF64: return std::make_unique<GemmInstance<double, double, double>>(spec, rng);
    case DType::kF32: return std::make_unique<GemmInstance<float, float, float>>(spec, rng);
    case DType::kF16F32: return std::make_unique<GemmInstance<Half, float, float>>(spec, rng);
  }
  streamk::util::fail("unknown dtype");
}

cpu::GemmOptions call_options(std::size_t workers) {
  cpu::GemmOptions options;
  options.schedule = cpu::Schedule::kAuto;
  options.workers = workers;
  return options;
}

}  // namespace perfbench
