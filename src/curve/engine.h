// Shape-aware dispatch engine for the four (min,+)/(max,+) operators.
//
// Every call to DiscreteCurve::{min,max}_plus_{conv,deconv} routes through
// engine::apply, which picks the cheapest kernel that is *bit-identical* to
// the naive O(n²) oracle (`DiscreteCurve::*_naive`). It is the only
// dispatch ladder: curve::CompactCurve is a storage form with no operators
// of its own, so a compact operand is expand()ed onto its grid first.
//
//   1. OpCache::global() lookup — memoized results of earlier identical
//      calls (content-fingerprint keyed; see op_cache.h).
//   2. A shape fast path when operand shapes admit one (see the table in
//      docs/architecture.md, "Curve algebra & dispatch"):
//        · constant operand        → running/suffix extremum, O(n)
//        · convex ⊗ convex (min,+) → index-tracked slope merge, O(n)
//        · concave ⊗ concave      → endpoint rule, O(n)
//        · convex ⊘ concave        → endpoint rule, O(n)
//   3. A near-convex operand — convex up to a band at rounding level,
//      certified per call (near-concave for the (max,+) forms) — on either
//      side of a conv, or as the g of a deconv → monotone row extrema,
//      O(n log n). This is the GPC's α against β = F·Δ, whose rounded
//      increments wobble, so shape() reads it General. On near-ties the
//      kernel stops at a work cap (curve.monge.capped) and falls through.
//   4. Otherwise the cache-blocked dense kernel (same O(n²) flop count as
//      the oracle, tiled over split points for locality).
//
// Bit-identity discipline: every kernel emits exactly the expression the
// oracle evaluates at a split — fl(f[a] + g[b]) or fl(f[i+k] − g[k]) — never
// an algebraically equal rearrangement (running increment sums drift by
// ulps). fl(·) is monotone (a ≤ b ⇒ fl(a+c) ≤ fl(b+c)), so the extremum over
// any set of splits that holds a split optimal in real arithmetic is the
// oracle's extremum. The O(n) rows find that split from exact (tol = 0)
// shape comparisons on the *rounded* sample increments. The monotone kernel
// keeps it in range from a certified defect: if g is within a band of width
// ε of a convex function, a split optimal for one row is within 2ε of the
// optimum of every row it could be pruned from, and the kernel prunes only
// splits farther than τ ≥ 2ε (engine.cpp has the argument). Ties between
// ±0 go to the split the oracle visits first. The differential suite
// (tests/curve_engine_test.cpp, CTest label `curve`) enforces byte equality
// across shapes × sizes × operators, and on non-dyadic service curves.
#pragma once

#include <cstdint>

#include "curve/discrete_curve.h"
#include "curve/op_cache.h"

namespace wlc::curve::engine {

/// Process-wide engine switch (atomically read per call; wired to
/// `wlc_analyze --no-fast-paths`). The memo cache has no switch of its own:
/// capacity 0 on OpCache::global() (`--curve-cache 0`) turns it off.
struct Config {
  bool fast_paths = true;  ///< shape-aware O(n)/O(n log n) kernels
};

Config config();
void set_config(const Config& cfg);

/// How many operator applications were served by a shape fast path vs the
/// dense fallback since the last reset (cache hits count as neither — the
/// kernel never ran). Mirrored to the obs counters
/// curve.dispatch.{fast,dense}.
struct DispatchStats {
  std::int64_t fast = 0;
  std::int64_t dense = 0;
  std::int64_t capped = 0;  ///< near-convex kernel gave up at its work cap (also in dense)
};

DispatchStats dispatch_stats();
void reset_stats_for_testing();

/// The near-convex kernel runs only when its operand's certified defect ε is
/// at most this many u·max|g| (u = 2⁻⁵³): a band at rounding level. A
/// constant of the kernel, not a setting; exposed for the tests.
inline constexpr double kNearConvexDefectGate = 1024.0;

/// Full dispatch: cache → fast path → dense. Bit-identical to the oracle.
DiscreteCurve apply(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g);

// Individual kernels, exposed for the differential tests and benchmarks.
// The dense forms visit split points in the oracle's order (ascending k per
// output index) inside a blocked loop, so accumulation order — and hence
// every rounded intermediate — matches the oracle exactly.
DiscreteCurve min_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g);
DiscreteCurve max_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g);
DiscreteCurve min_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g);
DiscreteCurve max_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g);

}  // namespace wlc::curve::engine
