#include "curve/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "obs/obs.h"

namespace wlc::curve::engine {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using Shape = DiscreteCurve::Shape;

std::atomic<bool> g_fast_paths{true};
std::atomic<std::int64_t> g_fast_count{0};
std::atomic<std::int64_t> g_dense_count{0};

void require_compatible(const DiscreteCurve& a, const DiscreteCurve& b) {
  WLC_REQUIRE(a.dt() == b.dt(), "operands must share the grid spacing");
}

// ---- convolution fast paths -------------------------------------------------
//
// Each kernel emits exactly the oracle's expression at the optimal split —
// fl(f[a] + g[b]) — so the result is one of the oracle's candidates, and
// optimality of the split in real arithmetic plus monotonicity of rounding
// (x ≤ y ⇒ fl(x+c) ≤ fl(y+c)) makes it *the* extremal candidate. The split
// arguments compare rounded quantities, which is exact whenever the sample
// increments are representable (integer cycle counts, dyadic grids) — the
// regime the differential suite pins bit-identity in.

// One operand constant (= c): every split collapses to other[j] + c, so the
// conv is the running extremum of fl(other[j] + c). Addition commutes in
// IEEE-754, so which operand was constant does not matter.
template <bool kMin>
DiscreteCurve conv_constant(const DiscreteCurve& other, double c, std::size_t n) {
  std::vector<double> v(n);
  double best = kMin ? kInf : -kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double cand = other[i] + c;
    best = kMin ? std::min(best, cand) : std::max(best, cand);
    v[i] = best;
  }
  return DiscreteCurve(std::move(v), other.dt());
}

// Endpoint rule: the split objective k ↦ f(i−k) + g(k) is concave when both
// operands are concave (second difference = Δg − Δf reversed-index ≤ 0), so
// the min sits at k = 0 or k = i; dually the max over convex operands.
template <bool kMin>
DiscreteCurve conv_endpoint(const DiscreteCurve& f, const DiscreteCurve& g,
                            std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = f[i] + g[0];
    const double b = f[0] + g[i];
    v[i] = kMin ? std::min(a, b) : std::max(a, b);
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// Slope merge with index tracking: for convex operands the optimal split of
// step i is one step further along f or g than the optimal split of step
// i−1 (the classical ascending-increment merge). We advance whichever curve
// yields the smaller *candidate value* — comparing fl(f[fi+1]+g[gi]) with
// fl(f[fi]+g[gi+1]) is the increment comparison Δf ≤ Δg in disguise — and
// emit that candidate directly instead of accumulating increments (which
// drifts by ulps). Dually, concave operands take the larger candidate for the
// (max,+) conv.
template <bool kMin>
DiscreteCurve conv_merge(const DiscreteCurve& f, const DiscreteCurve& g,
                         std::size_t n) {
  std::vector<double> v(n);
  v[0] = f[0] + g[0];
  std::size_t fi = 0, gi = 0;  // fi + gi == i - 1 inside the loop
  for (std::size_t i = 1; i < n; ++i) {
    const double via_f = f[fi + 1] + g[gi];
    const double via_g = f[fi] + g[gi + 1];
    const bool advance_f = kMin ? (via_f <= via_g) : (via_f >= via_g);
    if (advance_f) {
      ++fi;
      v[i] = via_f;
    } else {
      ++gi;
      v[i] = via_g;
    }
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// ---- deconvolution fast paths ----------------------------------------------
//
// (f ⊘ g)(i) extremizes h(k) = f(i+k) − g(k) over k < kmax(i) =
// min(g.size, f.size − i). The second difference of h is Δf − Δg, so
// convex-f/concave-g makes h convex, whose max sits at a window endpoint;
// dually concave-f/convex-g for the min. A (near-)convex g with any f — the
// valley and peak cases included — goes to the monotone-extrema kernel below.

// g constant (= c) covering f's whole horizon: kmax(i) = n − i, so the
// window is the full suffix and fl(ext_k f[i+k] − c) = ext_k fl(f[i+k] − c)
// by rounding monotonicity; the suffix extremum itself is exact.
template <bool kMaxExtremum>
DiscreteCurve deconv_constant(const DiscreteCurve& f, double c) {
  const std::size_t n = f.size();
  std::vector<double> v(n);
  double ext = kMaxExtremum ? -kInf : kInf;
  for (std::size_t i = n; i-- > 0;) {
    ext = kMaxExtremum ? std::max(ext, f[i]) : std::min(ext, f[i]);
    v[i] = ext - c;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

template <bool kMaxExtremum>
DiscreteCurve deconv_endpoint(const DiscreteCurve& f, const DiscreteCurve& g) {
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);  // >= 1 always
    double best = f[i] - g[0];
    if (kmax > 1) {
      const double far = f[i + kmax - 1] - g[kmax - 1];
      best = kMaxExtremum ? std::max(best, far) : std::min(best, far);
    }
    v[i] = best;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// ---- near-convex operands: monotone row extrema -----------------------------
//
// The rows above need the operand shapes to hold exactly. The service curve
// β = F·Δ of the GPC does not: sampled on a non-dyadic grid, its rounded
// increments wobble by an ulp, so shape() reads General. What it is instead
// is *near-convex*: g = ĝ + e with ĝ convex and e in a band of width ε at
// rounding level. near_convex_defect certifies ε per call in O(n).
//
// The split matrix — f[j] + g[i−j] for the conv, f[j] − g[j−i] for the
// deconv — is Monge when g is convex (inverse Monge for the sup forms), and
// with the band every 2×2 minor misses that inequality by at most 2ε. So if
// column j* is optimal for a row above the middle row m and lies right of
// m's optimum (or for a row below and lies left of it), then j* is within 2ε
// of m's optimum. MonotoneExtrema is the divide-and-conquer row-extrema
// pass (Aggarwal, Klawe, Moran, Shor, Wilber 1987) with that slack: each
// half of the rows keeps the column range of *every* candidate of m within
// τ = 2ε + rounding of m's extremum, so every row keeps every one of its
// real optima in range. The pass evaluates only the oracle's expressions,
// and fl(·) is monotone, so the extremum over a range that holds a real
// optimum is the oracle's value. Equal values differ in bits only as ±0, and
// a zero extremum is exact, so all zero candidates are real optima and in
// range: the pass returns the one the oracle meets first.
//
// Near-ties break the pruning (f = g = β ties every split to within τ), so
// the pass gives up after kWorkFactor·n·(⌈log₂ n⌉ + 1) evaluations and the
// call runs dense (curve.monge.capped).

constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2;  // u = 2⁻⁵³
constexpr std::int64_t kWorkFactor = 4;
// Column ranges narrower than this are scanned row by row.
constexpr std::size_t kNarrow = 8;
// Operands with max|f| + max|g| above this could overflow a split sum.
constexpr double kMaxScale = std::numeric_limits<double>::max() / 4;

std::atomic<std::int64_t> g_capped_count{0};

/// max|x| over the samples, or +inf when one of them is not finite.
double max_abs(const DiscreteCurve& c) {
  double m = 0.0;
  bool finite = true;
  for (const double x : c.values()) {
    finite &= std::fabs(x) <= std::numeric_limits<double>::max();  // false for NaN too
    m = std::max(m, std::fabs(x));
  }
  return finite ? m : kInf;
}

/// An upper bound on the band width ε of y = (kNeg ? −g : g) around a convex
/// function, computed so that rounding can only overstate it; +inf as soon
/// as the band is wider than `limit`.
///
/// ĝ is the piecewise-linear chain through the vertices of y's lower hull,
/// with each chord slope rounded and then raised to a running maximum, so the
/// slopes are non-decreasing doubles and the continuous chain with those
/// slopes is convex in real arithmetic whatever the hull test's rounding did.
/// Anchoring each segment at its own start vertex instead leaves a jump
/// J = rise − slope·len at the next vertex; the jumps shift the band by at
/// most Σ|J|. Every rounded operation errs by at most u·|result|, and the
/// results are bounded by max|y| and the chain's rises, which the final
/// 16·u·scale term covers with room to spare.
template <bool kNeg>
double near_convex_defect(const DiscreteCurve& g, double max_abs_g, double limit) {
  const std::size_t m = g.size();
  if (m <= 2) return 0.0;  // two samples are affine
  const auto y = [&g](std::size_t k) { return kNeg ? -g[k] : g[k]; };
  if (kNeg ? shape_is_concave(g.shape()) : shape_is_convex(g.shape())) {
    // The rounded increments are already non-decreasing: ĝ takes them as its
    // own, and y − ĝ is a running sum of increment rounding errors, each at
    // most u·|increment|.
    double variation = 0.0;
    for (std::size_t k = 1; k < m; ++k) variation += std::fabs(g[k] - g[k - 1]);
    return 4.0 * kUnit * variation;
  }
  // Quick rejection: with y = ĝ + e and e in a band of width ε, every second
  // difference of y is at least −2ε, so one below −2·limit (less the
  // rounding of the three differences) proves the band is wider than limit.
  const double floor = -(2.0 * limit + 16.0 * kUnit * max_abs_g);
  for (std::size_t k = 2; k < m; ++k)
    if ((y(k) - y(k - 1)) - (y(k - 1) - y(k - 2)) < floor) return kInf;
  std::vector<std::size_t> hull;
  hull.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    while (hull.size() >= 2) {
      const std::size_t a = hull[hull.size() - 2];
      const std::size_t b = hull.back();
      // Keep b only if it lies strictly below the chord from a to k.
      if ((y(b) - y(a)) * static_cast<double>(k - b) <
          (y(k) - y(b)) * static_cast<double>(b - a))
        break;
      hull.pop_back();
    }
    hull.push_back(k);
  }
  double lo = 0.0, hi = 0.0, jumps = 0.0, scale = max_abs_g;
  double slope = -kInf;
  for (std::size_t t = 0; t + 1 < hull.size(); ++t) {
    const std::size_t a = hull[t];
    const std::size_t b = hull[t + 1];
    const double len = static_cast<double>(b - a);
    const double rise = y(b) - y(a);
    slope = std::max(slope, rise / len);
    for (std::size_t k = a + 1; k < b; ++k) {
      const double e = y(k) - (y(a) + slope * static_cast<double>(k - a));
      lo = std::min(lo, e);
      hi = std::max(hi, e);
    }
    if (!(hi - lo <= limit)) return kInf;
    jumps += std::fabs(rise - slope * len);
    scale += std::fabs(rise) + std::fabs(slope * len);
  }
  return (hi - lo) + jumps + 16.0 * kUnit * scale;
}

/// Row extrema (kMin: minima) of the implicit matrix entry(i, c), row i over
/// the admissible columns window(i) = [first, last]. Both window ends must
/// be non-decreasing in i, and the matrix within 2ε of (inverse) Monge with
/// tau ≥ 2ε plus the rounding of one entry. `later_first`: the oracle visits
/// the columns of a row in descending order. Returns false once the
/// evaluations exceed the work cap.
template <bool kMin, class Entry, class Window>
class MonotoneExtrema {
 public:
  MonotoneExtrema(Entry entry, Window window, bool later_first, double tau,
                  std::size_t rows, std::size_t cols)
      : entry_(entry), window_(window), later_first_(later_first), tau_(tau),
        out_(rows), buf_(cols) {
    std::int64_t log2 = 0;
    while ((std::size_t{1} << log2) < rows) ++log2;
    budget_ = kWorkFactor * static_cast<std::int64_t>(rows) * (log2 + 1);
  }

  std::optional<std::vector<double>> run() {
    if (!solve(0, out_.size(), 0, buf_.size() - 1)) return std::nullopt;
    return std::move(out_);
  }

 private:
  static bool better(double a, double b) { return kMin ? a < b : a > b; }

  // Rows [r0, r1), whose optima all lie in columns [c0, c1].
  bool solve(std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) {
    while (r0 < r1) {
      if (c1 - c0 < kNarrow) return scan_rows(r0, r1, c0, c1);
      const std::size_t m = r0 + (r1 - r0) / 2;
      const auto [first, last] = window_(m);
      const std::size_t lo = std::max(c0, first);
      const std::size_t hi = std::min(c1, last);
      if (lo > hi) return false;  // unreachable: the range holds m's optima
      const std::size_t width = hi - lo + 1;
      budget_ -= static_cast<std::int64_t>(width);
      if (budget_ < 0) return false;
      double* v = buf_.data();
      for (std::size_t c = 0; c < width; ++c) v[c] = entry_(m, lo + c);
      double best = extremum(v, width);
      if (best == 0.0) best = oracle_zero(v, width);
      out_[m] = best;
      // Every column within τ of the extremum may be optimal for another row.
      const double bound = kMin ? best + tau_ : best - tau_;
      const auto within = [bound](double x) { return kMin ? x <= bound : x >= bound; };
      std::size_t left = 0;
      while (!within(v[left])) ++left;
      std::size_t right = width - 1;
      while (!within(v[right])) --right;
      if (!solve(r0, m, c0, lo + right)) return false;
      r0 = m + 1;
      c0 = lo + left;
    }
    return true;
  }

  // Few columns left: scan each row directly, which beats halving once the
  // per-row bookkeeping outweighs the columns it would skip. Ties go to the
  // column the oracle visits first, so no ±0 fix-up is needed.
  bool scan_rows(std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const auto [first, last] = window_(r);
      const std::size_t lo = std::max(c0, first);
      const std::size_t hi = std::min(c1, last);
      if (lo > hi) return false;  // unreachable, as in solve
      budget_ -= static_cast<std::int64_t>(hi - lo + 1);
      double best = entry_(r, lo);
      for (std::size_t c = lo + 1; c <= hi; ++c) {
        const double v = entry_(r, c);
        if (later_first_ ? !better(best, v) : better(v, best)) best = v;
      }
      out_[r] = best;
    }
    return budget_ >= 0;
  }

  // Four independent lanes keep the comparisons off one dependency chain.
  // Their order does not matter: equal values other than ±0 have equal bits,
  // and oracle_zero settles the sign of a zero.
  static double extremum(const double* v, std::size_t width) {
    double lane[4] = {v[0], v[0], v[0], v[0]};
    std::size_t c = 1;
    for (; c + 4 <= width; c += 4)
      for (std::size_t l = 0; l < 4; ++l)
        if (better(v[c + l], lane[l])) lane[l] = v[c + l];
    for (; c < width; ++c)
      if (better(v[c], lane[0])) lane[0] = v[c];
    for (std::size_t l = 1; l < 4; ++l)
      if (better(lane[l], lane[0])) lane[0] = lane[l];
    return lane[0];
  }

  // A zero extremum is exact, so every zero candidate is a real optimum; the
  // oracle keeps the first one it visits, which fixes the sign.
  double oracle_zero(const double* v, std::size_t width) const {
    if (later_first_) {
      for (std::size_t c = width; c-- > 0;)
        if (v[c] == 0.0) return v[c];
    } else {
      for (std::size_t c = 0; c < width; ++c)
        if (v[c] == 0.0) return v[c];
    }
    return 0.0;
  }

  Entry entry_;
  Window window_;
  bool later_first_;
  double tau_;
  std::vector<double> out_;
  std::vector<double> buf_;
  std::int64_t budget_ = 0;
};

template <bool kMin, class Entry, class Window>
std::optional<DiscreteCurve> run_monotone(Entry entry, Window window, bool later_first,
                                          double tau, std::size_t rows, std::size_t cols,
                                          double dt) {
  auto out = MonotoneExtrema<kMin, Entry, Window>(entry, window, later_first, tau, rows, cols)
                 .run();
  if (!out) {
    g_capped_count.fetch_add(1, std::memory_order_relaxed);
    WLC_COUNTER_ADD("curve.monge.capped", 1);
    return std::nullopt;
  }
  return DiscreteCurve(std::move(*out), dt);
}

/// τ for a split sum or difference of f and g: 2ε plus the rounding of the
/// two entries compared, with slack for the rounding of the comparison.
double split_tolerance(double eps, double max_abs_f, double max_abs_g) {
  return 2.0 * eps + 16.0 * kUnit * (max_abs_f + max_abs_g);
}

/// ε of `c` when it is near-convex (near-concave for kNeg) within the gate,
/// else nullopt. `max_abs_c` is max|c| (+inf if a sample is not finite).
template <bool kNeg>
std::optional<double> gated_defect(const DiscreteCurve& c, double max_abs_c) {
  const double gate = kNearConvexDefectGate * kUnit * max_abs_c;
  const double eps = near_convex_defect<kNeg>(c, max_abs_c, gate);
  if (!(eps <= gate)) return std::nullopt;
  return eps;
}

/// The conv's extremum over a near-convex (kMin) or near-concave operand,
/// either side: nullopt when neither operand qualifies or the pass capped.
template <bool kMin>
std::optional<DiscreteCurve> conv_monotone(const DiscreteCurve& f, const DiscreteCurve& g) {
  const double mf = max_abs(f);
  const double mg = max_abs(g);
  if (!(mf + mg <= kMaxScale)) return std::nullopt;  // a sum could overflow
  const std::size_t n = std::min(f.size(), g.size());
  const double* fp = f.values().data();
  const double* gp = g.values().data();
  const auto window = [](std::size_t i) { return std::pair<std::size_t, std::size_t>{0, i}; };
  if (const auto eg = gated_defect<!kMin>(g, mg)) {
    // Columns index f; the oracle visits k = i − j in ascending order.
    const auto entry = [fp, gp](std::size_t i, std::size_t j) { return fp[j] + gp[i - j]; };
    return run_monotone<kMin>(entry, window, true, split_tolerance(*eg, mf, mg), n, n, f.dt());
  }
  if (const auto ef = gated_defect<!kMin>(f, mf)) {
    const auto entry = [fp, gp](std::size_t i, std::size_t k) { return fp[i - k] + gp[k]; };
    return run_monotone<kMin>(entry, window, false, split_tolerance(*ef, mf, mg), n, n, f.dt());
  }
  return std::nullopt;
}

/// The deconv's extremum (kMaxExtremum: the (min,+) sup) by a near-convex
/// (near-concave for the inf) g. Columns index f: row i spans
/// [i, min(i + g.size, f.size) − 1], ascending in the oracle's order.
template <bool kMaxExtremum>
std::optional<DiscreteCurve> deconv_monotone(const DiscreteCurve& f, const DiscreteCurve& g) {
  const double mf = max_abs(f);
  const double mg = max_abs(g);
  if (!(mf + mg <= kMaxScale)) return std::nullopt;  // a difference could overflow
  const auto eg = gated_defect<!kMaxExtremum>(g, mg);
  if (!eg) return std::nullopt;
  const std::size_t n = f.size();
  const std::size_t span = g.size();
  const double* fp = f.values().data();
  const double* gp = g.values().data();
  const auto entry = [fp, gp](std::size_t i, std::size_t j) { return fp[j] - gp[j - i]; };
  const auto window = [n, span](std::size_t i) {
    return std::pair<std::size_t, std::size_t>{i, std::min(i + span, n) - 1};
  };
  return run_monotone<!kMaxExtremum>(entry, window, false, split_tolerance(*eg, mf, mg), n, n,
                                     f.dt());
}

std::optional<DiscreteCurve> try_fast(CurveOp op, const DiscreteCurve& f,
                                      const DiscreteCurve& g) {
  const Shape sf = f.shape();
  const Shape sg = g.shape();
  switch (op) {
    case CurveOp::MinPlusConv: {
      const std::size_t n = std::min(f.size(), g.size());
      if (sg == Shape::Constant) return conv_constant<true>(f, g[0], n);
      if (sf == Shape::Constant) return conv_constant<true>(g, f[0], n);
      if (shape_is_concave(sf) && shape_is_concave(sg)) return conv_endpoint<true>(f, g, n);
      if (shape_is_convex(sf) && shape_is_convex(sg)) return conv_merge<true>(f, g, n);
      return conv_monotone<true>(f, g);
    }
    case CurveOp::MaxPlusConv: {
      const std::size_t n = std::min(f.size(), g.size());
      if (sg == Shape::Constant) return conv_constant<false>(f, g[0], n);
      if (sf == Shape::Constant) return conv_constant<false>(g, f[0], n);
      if (shape_is_convex(sf) && shape_is_convex(sg)) return conv_endpoint<false>(f, g, n);
      if (shape_is_concave(sf) && shape_is_concave(sg)) return conv_merge<false>(f, g, n);
      return conv_monotone<false>(f, g);
    }
    case CurveOp::MinPlusDeconv: {
      if (sg == Shape::Constant && g.size() >= f.size())
        return deconv_constant<true>(f, g[0]);
      if (shape_is_convex(sf) && shape_is_concave(sg)) return deconv_endpoint<true>(f, g);
      return deconv_monotone<true>(f, g);
    }
    case CurveOp::MaxPlusDeconv: {
      if (sg == Shape::Constant && g.size() >= f.size())
        return deconv_constant<false>(f, g[0]);
      if (shape_is_concave(sf) && shape_is_convex(sg)) return deconv_endpoint<false>(f, g);
      return deconv_monotone<false>(f, g);
    }
  }
  return std::nullopt;
}

DiscreteCurve run_dense(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g) {
  switch (op) {
    case CurveOp::MinPlusConv:
      return min_plus_conv_dense(f, g);
    case CurveOp::MaxPlusConv:
      return max_plus_conv_dense(f, g);
    case CurveOp::MinPlusDeconv:
      return min_plus_deconv_dense(f, g);
    case CurveOp::MaxPlusDeconv:
      return max_plus_deconv_dense(f, g);
  }
  WLC_REQUIRE(false, "unknown curve operator");
  return f;  // unreachable
}

}  // namespace

Config config() {
  return Config{g_fast_paths.load(std::memory_order_relaxed)};
}

void set_config(const Config& cfg) {
  g_fast_paths.store(cfg.fast_paths, std::memory_order_relaxed);
}

DispatchStats dispatch_stats() {
  return DispatchStats{g_fast_count.load(std::memory_order_relaxed),
                       g_dense_count.load(std::memory_order_relaxed),
                       g_capped_count.load(std::memory_order_relaxed)};
}

void reset_stats_for_testing() {
  g_fast_count.store(0, std::memory_order_relaxed);
  g_dense_count.store(0, std::memory_order_relaxed);
  g_capped_count.store(0, std::memory_order_relaxed);
}

// ---- dense fallback kernels -------------------------------------------------
//
// Same flop count as the naive oracles, but the split loop is blocked so the
// g-tile stays in L1 while f slides past it. For a fixed output index the
// split points are still visited in ascending order across tiles, so the
// accumulation sequence — and every rounded intermediate — matches the
// oracle's exactly.

namespace {
constexpr std::size_t kTile = 256;
}

DiscreteCurve min_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  std::vector<double> v(n, kInf);
  for (std::size_t kb = 0; kb < n; kb += kTile) {
    const std::size_t kend = std::min(kb + kTile, n);
    for (std::size_t i = kb; i < n; ++i) {
      double acc = v[i];
      const std::size_t kstop = std::min(kend, i + 1);
      for (std::size_t k = kb; k < kstop; ++k) acc = std::min(acc, f[i - k] + g[k]);
      v[i] = acc;
    }
  }
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve max_plus_conv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = std::min(f.size(), g.size());
  std::vector<double> v(n, -kInf);
  for (std::size_t kb = 0; kb < n; kb += kTile) {
    const std::size_t kend = std::min(kb + kTile, n);
    for (std::size_t i = kb; i < n; ++i) {
      double acc = v[i];
      const std::size_t kstop = std::min(kend, i + 1);
      for (std::size_t k = kb; k < kstop; ++k) acc = std::max(acc, f[i - k] + g[k]);
      v[i] = acc;
    }
  }
  return DiscreteCurve(std::move(v), f.dt());
}

// The deconv windows walk f and g forward with unit stride — already the
// cache-optimal order — so the dense forms mirror the oracle loops directly.
DiscreteCurve min_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    double acc = -kInf;
    for (std::size_t k = 0; k < kmax; ++k) acc = std::max(acc, f[i + k] - g[k]);
    v[i] = acc;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve max_plus_deconv_dense(const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const std::size_t n = f.size();
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kmax = std::min(g.size(), n - i);
    double acc = kInf;
    for (std::size_t k = 0; k < kmax; ++k) acc = std::min(acc, f[i + k] - g[k]);
    v[i] = acc;
  }
  return DiscreteCurve(std::move(v), f.dt());
}

DiscreteCurve apply(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g) {
  require_compatible(f, g);
  const Config cfg = config();
  OpCache& cache = OpCache::global();
  const bool use_cache = cache.enabled();
  if (use_cache) {
    if (auto hit = cache.lookup(op, f, g)) {
      WLC_COUNTER_ADD("curve.cache.hits", 1);
      return std::move(*hit);
    }
    WLC_COUNTER_ADD("curve.cache.misses", 1);
  }
  std::optional<DiscreteCurve> result;
  if (cfg.fast_paths) result = try_fast(op, f, g);
  const bool fast = result.has_value();
  (fast ? g_fast_count : g_dense_count).fetch_add(1, std::memory_order_relaxed);
  // Both counters appear once any kernel ran, so a run that never took the
  // dense route reports dense = 0 instead of leaving the counter out.
  WLC_COUNTER_ADD("curve.dispatch.fast", fast ? 1 : 0);
  WLC_COUNTER_ADD("curve.dispatch.dense", fast ? 0 : 1);
  if (!fast) result = run_dense(op, f, g);
  if (use_cache) {
    const std::size_t evicted = cache.insert(op, f, g, *result);
    if (evicted > 0)
      WLC_COUNTER_ADD("curve.cache.evictions", static_cast<std::int64_t>(evicted));
  }
  return std::move(*result);
}

}  // namespace wlc::curve::engine
