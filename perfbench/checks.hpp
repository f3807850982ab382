#pragma once

// Output checks for every call the benchmark times.
//
// Small problems are compared element by element against a reference output
// computed once per problem (cpu::reference_gemm, conv::direct_conv).  Large
// problems use a Freivalds probe instead: C x is compared with A (B x) for a
// fixed random vector x, which costs O(mn) per call instead of O(mnk) and
// catches any wrong element with probability one over the choice of x.
//
// Tolerances scale with the accumulator's unit roundoff u and the depth k.
// Element checks use the worst case: a k-term dot product carries at most
// about k u sum|a_l b_l| of rounding error, in the library and in the
// reference, so the bound is 2 (k + 2) u sum|a_l b_l| (sum|a_l b_l| <= k
// for operands in [-1, 1]).  Summed over a row of C the worst case is too
// loose to catch a wrong element at f32 precision, so the Freivalds probe
// uses a probabilistic bound instead.  The operands have random signs, so
// partial sums random-walk and one element's rounding error stays near
// u |a_i| |b_j| (row norm of A times column norm of B) with high
// probability; the random signs of x make a row's error sum grow like the
// root of its squares.  The tolerance is 16 u |a_i| sqrt(sum_j x_j^2 |b_j|^2),
// a 16x margin.  The probe's own double-precision arithmetic is covered by
// a worst-case term.
// A NaN never passes: the benchmark fills outputs with NaN before each call,
// so an output the library failed to write is caught as well.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cpu/matrix.hpp"
#include "util/half.hpp"

namespace perfbench {

/// Unit roundoff of the accumulator type.
template <typename Acc>
constexpr double unit_roundoff() {
  return std::numeric_limits<Acc>::epsilon() / 2.0;
}

inline double to_double(double v) { return v; }
inline double to_double(float v) { return v; }
inline double to_double(streamk::util::Half v) {
  return static_cast<float>(v);
}

/// Worst-case tolerance for one output element of a k-deep product whose
/// operands lie in [-1, 1], scaled by |alpha|.
inline double dot_tolerance(std::int64_t k, double u_acc, double alpha = 1.0) {
  const double depth = static_cast<double>(k);
  return 2.0 * (depth + 2.0) * u_acc * depth * std::abs(alpha);
}

/// Element-by-element comparison against a stored reference output.
struct ReferenceCheck {
  std::vector<double> expected;  ///< row-major, same extent as the output
  double tol = 0.0;

  template <typename Out>
  bool matches(std::span<const Out> got) const {
    if (got.size() != expected.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!(std::abs(to_double(got[i]) - expected[i]) <= tol)) return false;
    }
    return true;
  }

  std::size_t bytes() const { return expected.size() * sizeof(double); }
};

/// Freivalds probe for C = alpha A B: compares C x with alpha A (B x).
struct FreivaldsCheck {
  std::vector<double> x;      ///< probe vector, |x_j| in [0.5, 1], random signs
  std::vector<double> y;      ///< alpha A (B x)
  std::vector<double> scale;  ///< |alpha| |a_i| sqrt(sum_j x_j^2 |b_j|^2)
  std::vector<double> bound;  ///< |alpha| |A| (|B| |x|), worst-case scale
  std::int64_t k = 0;
  double u_acc = 0.0;

  /// Builds the probe for `a` (m x k) and `b` (k x n); `x` must already hold
  /// n entries.
  template <typename In>
  void build(const streamk::cpu::Matrix<In>& a,
             const streamk::cpu::Matrix<In>& b, double alpha) {
    k = a.cols();
    std::vector<double> bx(static_cast<std::size_t>(b.rows()), 0.0);
    std::vector<double> bx_abs(bx.size(), 0.0);
    std::vector<double> col_sq(x.size(), 0.0);
    for (std::int64_t r = 0; r < b.rows(); ++r) {
      const In* row = b.row_ptr(r);
      double s = 0.0, s_abs = 0.0;
      for (std::size_t j = 0; j < x.size(); ++j) {
        const double v = to_double(row[j]);
        s += v * x[j];
        s_abs += std::abs(v * x[j]);
        col_sq[j] += v * v;
      }
      bx[static_cast<std::size_t>(r)] = s;
      bx_abs[static_cast<std::size_t>(r)] = s_abs;
    }
    double weighted_cols = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) weighted_cols += x[j] * x[j] * col_sq[j];
    y.assign(static_cast<std::size_t>(a.rows()), 0.0);
    scale.assign(y.size(), 0.0);
    bound.assign(y.size(), 0.0);
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      const In* row = a.row_ptr(i);
      double s = 0.0, s_abs = 0.0, sq = 0.0;
      for (std::int64_t l = 0; l < a.cols(); ++l) {
        const double v = to_double(row[l]);
        s += v * bx[static_cast<std::size_t>(l)];
        s_abs += std::abs(v) * bx_abs[static_cast<std::size_t>(l)];
        sq += v * v;
      }
      const auto ii = static_cast<std::size_t>(i);
      y[ii] = alpha * s;
      scale[ii] = std::abs(alpha) * std::sqrt(sq * weighted_cols);
      bound[ii] = std::abs(alpha) * s_abs;
    }
  }

  template <typename Out>
  bool matches(const streamk::cpu::Matrix<Out>& c) const {
    if (static_cast<std::size_t>(c.rows()) != y.size() ||
        static_cast<std::size_t>(c.cols()) != x.size()) {
      return false;
    }
    // Terms the probe sums in double: B x, A (B x) and C x.
    const double terms = 2.0 * static_cast<double>(c.cols()) + static_cast<double>(k) + 2.0;
    const double u64 = unit_roundoff<double>();
    for (std::int64_t i = 0; i < c.rows(); ++i) {
      const Out* row = c.row_ptr(i);
      double s = 0.0, s_abs = 0.0;
      for (std::int64_t j = 0; j < c.cols(); ++j) {
        const double v = to_double(row[j]) * x[static_cast<std::size_t>(j)];
        s += v;
        s_abs += std::abs(v);
      }
      const auto ii = static_cast<std::size_t>(i);
      const double tol = 16.0 * u_acc * scale[ii] +
                         4.0 * terms * u64 * (bound[ii] + s_abs);
      if (!(std::abs(s - y[ii]) <= tol)) return false;
    }
    return true;
  }

  std::size_t bytes() const {
    return (x.size() + y.size() + scale.size() + bound.size()) * sizeof(double);
  }
};

}  // namespace perfbench
