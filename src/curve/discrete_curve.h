// Uniform-grid sampled curves and exact (min,+)/(max,+) algebra on them.
//
// A DiscreteCurve holds samples v[i] = f(i·dt) for i = 0..n-1 on a uniform
// grid. All operations are *exact with respect to the sampled points*: a
// convolution result at grid point i is the true inf/sup over grid-aligned
// split points. When the operand curves are themselves exact on the grid
// (staircase event curves with dt dividing the step, trace-derived curves
// sampled at their own breakpoints, affine curves), the results are exact;
// otherwise grid granularity bounds the error and the caller chooses dt.
//
// Horizon discipline: a curve only speaks for [0, (n-1)·dt]. Deconvolutions
// quantify over shifts that leave the horizon; those terms are dropped and
// the result's horizon shrinks accordingly (see each operation's comment).
// This mirrors what one can soundly conclude from finite traces, which is
// exactly the regime of the paper's case study.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace wlc::curve {

class PwlCurve;

class DiscreteCurve {
 public:
  /// Takes ownership of samples; dt > 0, at least one sample.
  DiscreteCurve(std::vector<double> values, double dt);

  // Copies/moves carry the shape/monotonicity caches along (they describe
  // the sample values, which the copy shares). Explicit because the caches
  // are atomics. A moved-from curve is valueless and must not be used.
  DiscreteCurve(const DiscreteCurve& other);
  DiscreteCurve(DiscreteCurve&& other) noexcept;
  DiscreteCurve& operator=(const DiscreteCurve& other);
  DiscreteCurve& operator=(DiscreteCurve&& other) noexcept;

  /// Samples a closed-form curve at 0, dt, ..., (n-1)·dt.
  static DiscreteCurve sample(const PwlCurve& c, double dt, std::size_t n);
  /// n zero samples.
  static DiscreteCurve zeros(std::size_t n, double dt);

  std::size_t size() const { return v_.size(); }
  double dt() const { return dt_; }
  double horizon() const { return dt_ * static_cast<double>(v_.size() - 1); }
  double operator[](std::size_t i) const { return v_[i]; }
  const std::vector<double>& values() const { return v_; }

  /// Step evaluation: f(x) = v[floor(x/dt)] for x in [0, horizon+dt).
  double eval_floor(double x) const;
  /// Linear interpolation between samples.
  double eval_linear(double x) const;

  // ---- pointwise ops (operands must share dt; result is truncated to the
  //      shorter operand) ----------------------------------------------------
  friend DiscreteCurve operator+(const DiscreteCurve& a, const DiscreteCurve& b);
  friend DiscreteCurve operator-(const DiscreteCurve& a, const DiscreteCurve& b);
  friend DiscreteCurve operator*(double s, const DiscreteCurve& a);
  static DiscreteCurve pointwise_min(const DiscreteCurve& a, const DiscreteCurve& b);
  static DiscreteCurve pointwise_max(const DiscreteCurve& a, const DiscreteCurve& b);

  /// Clamp below at `floor_value` (default 0).
  DiscreteCurve clamp_floor(double floor_value = 0.0) const;
  /// Running maximum — the smallest non-decreasing curve above f.
  DiscreteCurve non_decreasing_closure() const;
  /// f(x) := f(x) + y0 only at x = 0 (useful for closed-window corrections).
  DiscreteCurve with_origin(double y0) const;

  // ---- (min,+) / (max,+) algebra -------------------------------------------
  //
  // The four binary operators dispatch through the shape-aware engine
  // (curve/engine.h): memo cache → exact O(n) fast path when the operand
  // shapes admit one → exact O(n log n) monotone-extrema kernel when one
  // operand is convex up to rounding → cache-blocked dense kernel. Results are
  // bit-identical to the `*_naive` reference forms below, which keep the
  // original O(n²) loops alive as the differential oracle.

  /// (f ⊗ g)(i) = min_{0<=k<=i} f(i-k) + g(k). Result size =
  /// min(f.size, g.size) — beyond that the inf could pick split points
  /// outside either horizon.
  static DiscreteCurve min_plus_conv(const DiscreteCurve& f, const DiscreteCurve& g);

  /// (f ⊘ g)(i) = max_{k>=0, i+k<f.size, k<g.size} f(i+k) - g(k).
  /// Horizon caveat: true deconvolution takes sup over all k; restricting to
  /// the observed horizon yields a *lower* bound on the true sup at each i,
  /// which is the best statement a finite trace supports.
  ///
  /// Split-window convention: the window at position i holds
  /// kmax(i) = min(g.size, f.size − i) shifts. Both operands are non-empty,
  /// so kmax(i) ≥ 1 and the k = 0 term f(i) − g(0) is always admissible —
  /// no position is ever left without a split. In particular a g shorter
  /// than f only *shrinks* the windows (positions i ≥ f.size − g.size use
  /// fewer than g.size shifts; the last position always uses exactly one),
  /// it never empties them. The "inherit f" branch in the naive kernels
  /// (result −∞/+∞ → copy f(i)) is therefore unreachable, defensive code
  /// defining what an empty window *would* mean; tests pin both the
  /// shrinking-window values and the k = 0 floor (tests/curve_engine_test).
  static DiscreteCurve min_plus_deconv(const DiscreteCurve& f, const DiscreteCurve& g);

  /// (f ⊗̄ g)(i) = max_{0<=k<=i} f(i-k) + g(k).
  static DiscreteCurve max_plus_conv(const DiscreteCurve& f, const DiscreteCurve& g);

  /// (f ⊘̄ g)(i) = min_{k>=0, i+k<f.size, k<g.size} f(i+k) - g(k)  (infimum
  /// analogue; same horizon caveat, yielding an *upper* bound on the true
  /// inf, and the same split-window convention as min_plus_deconv).
  static DiscreteCurve max_plus_deconv(const DiscreteCurve& f, const DiscreteCurve& g);

  // Naive O(n²) reference kernels — the differential oracle the engine's
  // fast paths and cache are pinned bit-identical against. Semantics are
  // exactly the operators above; only the evaluation strategy differs.
  static DiscreteCurve min_plus_conv_naive(const DiscreteCurve& f, const DiscreteCurve& g);
  static DiscreteCurve min_plus_deconv_naive(const DiscreteCurve& f, const DiscreteCurve& g);
  static DiscreteCurve max_plus_conv_naive(const DiscreteCurve& f, const DiscreteCurve& g);
  static DiscreteCurve max_plus_deconv_naive(const DiscreteCurve& f, const DiscreteCurve& g);

  /// Sub-additive closure f* — the largest sub-additive curve below f with
  /// f*(0) = 0: the tightest upper arrival/workload bound derivable from f
  /// by self-composition (f*(a+b) <= f*(a) + f*(b)). Computed by repeated
  /// squaring, g <- min(g, g ⊗ g), O(n² log n). Requires f non-negative.
  DiscreteCurve sub_additive_closure() const;

  /// sup_i { f(i) - g(i) } — the vertical deviation; eq. (6)'s backlog bound
  /// when f is a (cycle-based) arrival curve and g a service curve.
  static double sup_diff(const DiscreteCurve& f, const DiscreteCurve& g);

  /// Horizontal deviation sup_i inf{ d : g(i+d) >= f(i) } in seconds — the
  /// delay bound of Network Calculus. Returns +inf if g never catches up
  /// within the horizon.
  static double horizontal_deviation(const DiscreteCurve& f, const DiscreteCurve& g);

  // ---- shape tests -----------------------------------------------------------

  /// Exact shape class of the sample sequence, most specific first:
  /// Constant ⊂ Affine ⊂ (Convex ∩ Concave). Classified with tol = 0 on the
  /// *rounded* increments v[i+1]−v[i] — the doubles the kernels actually
  /// combine — so the engine's optimal-split arguments hold for the stored
  /// values, not an idealized real-valued curve. Computed once per curve and
  /// cached (thread-safe: racing initializers store the same byte).
  enum class Shape : std::uint8_t {
    Unknown = 0,  ///< cache sentinel, never returned
    General,
    Convex,   ///< increments non-decreasing (and not affine)
    Concave,  ///< increments non-increasing (and not affine)
    Affine,   ///< all increments equal (and not zero)
    Constant, ///< all samples equal (single-sample curves included)
  };
  Shape shape() const;

  bool is_concave(double tol = 1e-9) const;
  bool is_convex(double tol = 1e-9) const;
  /// tol == 0 uses the same per-curve cache as the inverse dispatch.
  bool is_non_decreasing(double tol = 0.0) const;

  // ---- pseudo-inverses -------------------------------------------------------
  // O(log n) binary search when the curve is non-decreasing (checked once,
  // cached), mirroring WorkloadCurve::inverse; linear scan otherwise with
  // identical first-crossing semantics.
  /// min{ x on grid : f(x) >= y }; +inf if unreached within horizon.
  double inverse_lower(double y) const;
  /// max{ x on grid : f(x) <= y }; -1 if even f(0) > y, horizon if never exceeded.
  double inverse_upper(double y) const;

 private:
  std::vector<double> v_;
  double dt_;
  mutable std::atomic<std::uint8_t> shape_cache_{0};     // Shape::Unknown
  mutable std::atomic<std::uint8_t> monotone_cache_{0};  // 0 unknown, 1 yes, 2 no
};

/// Shape admits the convex fast paths (affine and constant curves are convex).
constexpr bool shape_is_convex(DiscreteCurve::Shape s) {
  return s == DiscreteCurve::Shape::Convex || s == DiscreteCurve::Shape::Affine ||
         s == DiscreteCurve::Shape::Constant;
}
/// Shape admits the concave fast paths.
constexpr bool shape_is_concave(DiscreteCurve::Shape s) {
  return s == DiscreteCurve::Shape::Concave || s == DiscreteCurve::Shape::Affine ||
         s == DiscreteCurve::Shape::Constant;
}

}  // namespace wlc::curve
