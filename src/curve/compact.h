// Bounded-error piecewise-linear compaction of dense discrete curves: a
// storage form, not an operand.
//
// Long traces produce DiscreteCurves with millions of samples.
// CompactCurve re-represents such a curve as a short knot list
// (grid-anchored PWL segments) fitted greedily within a user-set absolute
// + relative error budget, with *one-sided* rounding:
//
//   · CompactRounding::Up   (γᵘ-family):  compact(x) ≥ original(x)
//   · CompactRounding::Down (γˡ-family):  compact(x) ≤ original(x)
//
// Dominance is an invariant, never a hope: after fitting each segment the
// constructor re-evaluates every covered sample through the *same*
// floating-point expression eval() uses and repairs the segment (shifting
// it away from the original by the measured deficit) until the one-sided
// inequality holds for the doubles actually stored. The error budget is
// enforced against the full ε(v) = eps_abs + eps_rel·|v| corridor; fitting
// targets a corridor shrunk by a few-ulp margin so the repair can never
// push a value past the user's budget. With a zero budget the fit only
// merges runs that floating-point interpolation reproduces *exactly*, so
// expand() is bit-identical to the input — the eps=0 golden tests rest on
// this.
//
// Knots sit on the dense grid (stored as sample indices, never as raw x),
// so expand() lands on exactly the original grid and the PWL function is
// linear between grid points. The curve algebra runs on DiscreteCurve
// only; a caller that wants to operate on a compact curve expands it
// first. Readers today: the `wlc_analyze compact` subcommand and the serve
// snapshot v2 decoder, which validates a persisted tier block in this form
// (docs/architecture.md, "PWL tiering").
//
// Segments are (index, y, slope) triples; segment k owns [x_k, x_{k+1})
// (the last owns through the horizon). Evaluation at a knot position
// returns the stored y exactly (the x − x_k subtraction cancels to zero by
// construction), so per-sample fallback knots reproduce their sample
// bit-for-bit. Upward repair can introduce ulp-scale upward jumps at knot
// boundaries in Up mode (and downward in Down mode); eval is therefore
// right-continuous at knots and the monotonicity guarantee is exact for Up
// compaction of non-decreasing non-negative curves and holds within a few
// ulps for Down (the jump direction is the conservative one in both modes).
#pragma once

#include <cstdint>
#include <vector>

#include "curve/discrete_curve.h"

namespace wlc::curve {

/// Pointwise error budget ε(v) = eps_abs + eps_rel·|v|. Both terms must be
/// ≥ 0 and finite; zero() selects the exact (bit-identical) fit.
struct CompactBudget {
  double eps_abs = 0.0;
  double eps_rel = 0.0;

  bool zero() const { return eps_abs == 0.0 && eps_rel == 0.0; }
  bool enabled() const { return !zero(); }
  double at(double v) const { return eps_abs + eps_rel * (v < 0 ? -v : v); }
};

/// Which side of the original the compact curve must stay on.
enum class CompactRounding : std::uint8_t {
  Up = 0,   ///< compact ⪰ original (γᵘ, αᵘ — over-approximation is sound)
  Down = 1, ///< compact ⪯ original (γˡ, αˡ — under-approximation is sound)
};

class CompactCurve {
 public:
  /// One PWL segment: value fl(y + slope·(x − i·dt)) on [i·dt, next·dt).
  struct Knot {
    std::uint64_t i;  ///< grid index of the segment start (exact integer)
    double y;         ///< value at the knot — eval(i·dt) returns this bit-exactly
    double slope;     ///< cycles per second (per x unit) within the segment
  };

  /// Fits `c` within `budget`, rounded per `rounding`. O(n). Throws
  /// wlc::DomainError on a non-finite budget/sample or a grid whose
  /// positions collide in double precision.
  static CompactCurve compact(const DiscreteCurve& c, const CompactBudget& budget,
                              CompactRounding rounding);
  /// γᵘ-family convenience: compact(c, budget, CompactRounding::Up).
  static CompactCurve compact_upper(const DiscreteCurve& c, const CompactBudget& budget);
  /// γˡ-family convenience: compact(c, budget, CompactRounding::Down).
  static CompactCurve compact_lower(const DiscreteCurve& c, const CompactBudget& budget);

  /// Rebuilds a curve from persisted knots (snapshot decode path). Strictly
  /// validates structure — first index 0, strictly increasing indices, all
  /// indices < dense_size, finite values/slopes, dt > 0 — and throws
  /// wlc::DomainError otherwise. Does NOT re-establish dominance against
  /// any original; callers holding the original must re-verify (the serve
  /// recovery path does) or treat the result as untrusted.
  static CompactCurve from_knots(std::vector<Knot> knots, double dt,
                                 std::uint64_t dense_size, CompactRounding rounding,
                                 CompactBudget budget, double max_error);

  /// Exact PWL evaluation at arbitrary x ∈ [0, horizon]; clamps outside.
  double eval(double x) const;
  /// eval(i·dt) — the expression the fit verified every sample against.
  double eval_index(std::uint64_t i) const;
  /// Re-densifies onto the original grid. Bit-identical to the input when
  /// the curve was fitted with a zero budget.
  DiscreteCurve expand() const;

  std::size_t size() const { return knots_.size(); }
  std::uint64_t dense_size() const { return n_; }
  double dt() const { return dt_; }
  double horizon() const { return static_cast<double>(n_ - 1) * dt_; }
  CompactRounding rounding() const { return rounding_; }
  const CompactBudget& budget() const { return budget_; }
  const std::vector<Knot>& knots() const { return knots_; }
  /// Largest |eval(i·dt) − v[i]| measured during the fit (0 for from_knots
  /// round-trips of an eps=0 fit).
  double max_error() const { return max_error_; }
  /// dense_size / knot count — the headline point-reduction factor.
  double reduction() const {
    return static_cast<double>(n_) / static_cast<double>(knots_.size());
  }

  /// True when the PWL never decreases: all slopes ≥ 0 and every knot jump
  /// (repair discontinuity) points upward. Computed once at construction
  /// (O(k)), so reads are trivially thread-safe.
  bool non_decreasing() const { return non_decreasing_; }

  bool operator==(const CompactCurve& o) const {
    return n_ == o.n_ && dt_ == o.dt_ && rounding_ == o.rounding_ &&
           knots_.size() == o.knots_.size() && [&] {
             for (std::size_t k = 0; k < knots_.size(); ++k)
               if (knots_[k].i != o.knots_[k].i || knots_[k].y != o.knots_[k].y ||
                   knots_[k].slope != o.knots_[k].slope)
                 return false;
             return true;
           }();
  }

 private:
  CompactCurve(std::vector<Knot> knots, double dt, std::uint64_t n,
               CompactRounding rounding, CompactBudget budget, double max_error);

  /// Index of the segment owning x (last knot with i·dt ≤ x).
  std::size_t segment_for(double x) const;

  std::vector<Knot> knots_;
  double dt_;
  std::uint64_t n_;
  CompactRounding rounding_;
  CompactBudget budget_;
  double max_error_;
  bool non_decreasing_;
};

}  // namespace wlc::curve
