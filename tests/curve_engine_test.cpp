// Differential and unit tests for the shape-aware curve-algebra engine.
//
// The contract under test is strict bit-identity: whatever route engine::apply
// takes — memo cache, shape fast path, near-convex monotone kernel, or
// cache-blocked dense kernel — the result bytes must equal the naive O(n²)
// oracle's (DiscreteCurve::*_naive). The differential matrix therefore
// compares raw IEEE-754 bit patterns, not values-within-tolerance. Its inputs
// are dyadic rationals (integers × 2⁻⁸), matching the exact-increment regime
// of real traces (integer cycle counts), where every sum/difference the
// kernels form is exactly representable. The near-convex rows add the
// inexact regime: service curves F·(dt·i) on non-dyadic grids, whose rounded
// increments wobble by an ulp.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "curve/discrete_curve.h"
#include "curve/engine.h"
#include "curve/op_cache.h"
#include "rtc/gpc.h"
#include "trace/arrival_extract.h"
#include "trace/kgrid.h"
#include "workload/extract.h"

namespace wlc::curve {
namespace {

namespace engine = ::wlc::curve::engine;
using common::Rng;

constexpr double kQuantum = 0x1.0p-8;  // dyadic grid: kernel arithmetic is exact
constexpr double kDt = 0.5;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

::testing::AssertionResult BitIdentical(const DiscreteCurve& a, const DiscreteCurve& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  if (bits(a.dt()) != bits(b.dt()))
    return ::testing::AssertionFailure() << "dt mismatch: " << a.dt() << " vs " << b.dt();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (bits(a[i]) != bits(b[i]))
      return ::testing::AssertionFailure()
             << "bit mismatch at i=" << i << ": " << a[i] << " (0x" << std::hex << bits(a[i])
             << ") vs " << b[i] << " (0x" << bits(b[i]) << ")";
  return ::testing::AssertionSuccess();
}

enum class ShapeKind { Convex, Concave, General, Constant };

const char* name_of(ShapeKind k) {
  switch (k) {
    case ShapeKind::Convex: return "convex";
    case ShapeKind::Concave: return "concave";
    case ShapeKind::General: return "general";
    case ShapeKind::Constant: return "constant";
  }
  return "?";
}

/// Random curve of the requested shape class with dyadic-exact samples.
/// Single-point curves (n == 1) degenerate to Constant for every kind — the
/// matrix covers the "single-point" row through the n = 1 column.
DiscreteCurve make_curve(ShapeKind kind, std::size_t n, Rng& rng) {
  if (kind == ShapeKind::Constant || n == 1) {
    const double c = static_cast<double>(rng.uniform_int(-64, 512)) * kQuantum;
    return DiscreteCurve(std::vector<double>(n, c), kDt);
  }
  std::vector<double> v(n);
  if (kind == ShapeKind::General) {
    for (auto& x : v) x = static_cast<double>(rng.uniform_int(-1024, 4096)) * kQuantum;
    return DiscreteCurve(std::move(v), kDt);
  }
  std::vector<double> d(n - 1);
  for (auto& x : d) x = static_cast<double>(rng.uniform_int(-256, 256)) * kQuantum;
  std::sort(d.begin(), d.end());
  if (kind == ShapeKind::Concave) std::reverse(d.begin(), d.end());
  v[0] = static_cast<double>(rng.uniform_int(-64, 64)) * kQuantum;
  for (std::size_t i = 1; i < n; ++i) v[i] = v[i - 1] + d[i - 1];
  return DiscreteCurve(std::move(v), kDt);
}

DiscreteCurve run_engine(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g) {
  switch (op) {
    case CurveOp::MinPlusConv: return DiscreteCurve::min_plus_conv(f, g);
    case CurveOp::MinPlusDeconv: return DiscreteCurve::min_plus_deconv(f, g);
    case CurveOp::MaxPlusConv: return DiscreteCurve::max_plus_conv(f, g);
    case CurveOp::MaxPlusDeconv: return DiscreteCurve::max_plus_deconv(f, g);
  }
  std::abort();
}

DiscreteCurve run_naive(CurveOp op, const DiscreteCurve& f, const DiscreteCurve& g) {
  switch (op) {
    case CurveOp::MinPlusConv: return DiscreteCurve::min_plus_conv_naive(f, g);
    case CurveOp::MinPlusDeconv: return DiscreteCurve::min_plus_deconv_naive(f, g);
    case CurveOp::MaxPlusConv: return DiscreteCurve::max_plus_conv_naive(f, g);
    case CurveOp::MaxPlusDeconv: return DiscreteCurve::max_plus_deconv_naive(f, g);
  }
  std::abort();
}

constexpr CurveOp kOps[] = {CurveOp::MinPlusConv, CurveOp::MinPlusDeconv, CurveOp::MaxPlusConv,
                            CurveOp::MaxPlusDeconv};

const char* name_of(CurveOp op) {
  switch (op) {
    case CurveOp::MinPlusConv: return "min_plus_conv";
    case CurveOp::MinPlusDeconv: return "min_plus_deconv";
    case CurveOp::MaxPlusConv: return "max_plus_conv";
    case CurveOp::MaxPlusDeconv: return "max_plus_deconv";
  }
  return "?";
}

/// Pins engine config to a known state per test — fast paths on, the global
/// memo cache off (capacity 0); global state otherwise leaks between tests
/// sharing a process (plain `ctest` runs one test per process, but
/// `--gtest_filter=*` runs do not).
class CurveEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::Config cfg;
    cfg.fast_paths = true;
    engine::set_config(cfg);
    engine::reset_stats_for_testing();
    OpCache::global().set_capacity_bytes(0);
    OpCache::global().clear();
  }
  void TearDown() override {
    engine::set_config(engine::Config{});
    OpCache::global().set_capacity_bytes(OpCache::kDefaultCapacityBytes);
    OpCache::global().clear();
  }
};

// ---------------------------------------------------------------------------
// Differential matrix: shapes × sizes × operators, fast paths vs oracle.
// ---------------------------------------------------------------------------

TEST_F(CurveEngineTest, FastDispatchBitIdenticalToOracleAcrossShapeMatrix) {
  constexpr ShapeKind kShapes[] = {ShapeKind::Convex, ShapeKind::Concave, ShapeKind::General,
                                   ShapeKind::Constant};
  constexpr std::size_t kSizes[] = {1, 2, 3, 64, 1024};
  Rng rng(0xC04EC0DEULL);
  for (CurveOp op : kOps)
    for (ShapeKind sf : kShapes)
      for (ShapeKind sg : kShapes)
        for (std::size_t n : kSizes)
          for (std::size_t m : {n, n / 2 + 1}) {  // equal and mismatched operand sizes
            const DiscreteCurve f = make_curve(sf, n, rng);
            const DiscreteCurve g = make_curve(sg, m, rng);
            const DiscreteCurve got = run_engine(op, f, g);
            const DiscreteCurve want = run_naive(op, f, g);
            EXPECT_TRUE(BitIdentical(got, want))
                << name_of(op) << " f=" << name_of(sf) << "[" << n << "] g=" << name_of(sg)
                << "[" << m << "]";
          }
}

TEST_F(CurveEngineTest, DenseTiledKernelBitIdenticalToOracle) {
  // The tiled dense kernels are the fallback for General operands; pin them
  // against the oracle directly (engine::apply would also route here, but
  // testing the exposed kernels keeps the failure localized).
  Rng rng(0xDE45EULL);
  for (std::size_t n : {1, 2, 3, 255, 256, 257, 700}) {
    const DiscreteCurve f = make_curve(ShapeKind::General, n, rng);
    const DiscreteCurve g = make_curve(ShapeKind::General, n, rng);
    EXPECT_TRUE(BitIdentical(engine::min_plus_conv_dense(f, g),
                             DiscreteCurve::min_plus_conv_naive(f, g)));
    EXPECT_TRUE(BitIdentical(engine::max_plus_conv_dense(f, g),
                             DiscreteCurve::max_plus_conv_naive(f, g)));
    EXPECT_TRUE(BitIdentical(engine::min_plus_deconv_dense(f, g),
                             DiscreteCurve::min_plus_deconv_naive(f, g)));
    EXPECT_TRUE(BitIdentical(engine::max_plus_deconv_dense(f, g),
                             DiscreteCurve::max_plus_deconv_naive(f, g)));
  }
}

TEST_F(CurveEngineTest, NoFastPathsConfigStillBitIdentical) {
  engine::Config cfg;
  cfg.fast_paths = false;
  engine::set_config(cfg);
  Rng rng(0x0FFULL);
  const DiscreteCurve f = make_curve(ShapeKind::Convex, 128, rng);
  const DiscreteCurve g = make_curve(ShapeKind::Convex, 128, rng);
  for (CurveOp op : kOps)
    EXPECT_TRUE(BitIdentical(run_engine(op, f, g), run_naive(op, f, g))) << name_of(op);
  EXPECT_EQ(engine::dispatch_stats().fast, 0);
  EXPECT_EQ(engine::dispatch_stats().dense, 4);
}

// ---------------------------------------------------------------------------
// Dispatch accounting: which route actually ran.
// ---------------------------------------------------------------------------

TEST_F(CurveEngineTest, DispatchStatsSeparateFastFromDense) {
  Rng rng(0x57A75ULL);
  const DiscreteCurve cx = make_curve(ShapeKind::Convex, 64, rng);
  const DiscreteCurve cv = make_curve(ShapeKind::Concave, 64, rng);
  const DiscreteCurve gen = make_curve(ShapeKind::General, 64, rng);
  const DiscreteCurve cst = make_curve(ShapeKind::Constant, 64, rng);

  DiscreteCurve::min_plus_conv(cx, cx);  // convex² slope merge
  EXPECT_EQ(engine::dispatch_stats().fast, 1);
  DiscreteCurve::min_plus_conv(cv, cv);  // concave² endpoint rule
  EXPECT_EQ(engine::dispatch_stats().fast, 2);
  DiscreteCurve::max_plus_conv(gen, cst);  // constant operand
  EXPECT_EQ(engine::dispatch_stats().fast, 3);
  DiscreteCurve::min_plus_deconv(cv, cx);  // ⊘ convex: monotone extrema
  EXPECT_EQ(engine::dispatch_stats().fast, 4);
  DiscreteCurve::max_plus_deconv(cx, cv);  // ⊘̄ concave: monotone extrema
  EXPECT_EQ(engine::dispatch_stats().fast, 5);
  EXPECT_EQ(engine::dispatch_stats().dense, 0);

  DiscreteCurve::min_plus_conv(gen, gen);  // no shape to exploit
  EXPECT_EQ(engine::dispatch_stats().fast, 5);
  EXPECT_EQ(engine::dispatch_stats().dense, 1);
  // A convex operand serves the (min,+) conv, not the (max,+) one.
  DiscreteCurve::max_plus_conv(gen, cx);
  EXPECT_EQ(engine::dispatch_stats().dense, 2);
  DiscreteCurve::min_plus_conv(cx, cv);
  EXPECT_EQ(engine::dispatch_stats().fast, 6);
  EXPECT_EQ(engine::dispatch_stats().capped, 0);
}

TEST_F(CurveEngineTest, ShapeClassificationIsExactAndCached) {
  const DiscreteCurve cst(std::vector<double>{2.0, 2.0, 2.0}, 1.0);
  EXPECT_EQ(cst.shape(), DiscreteCurve::Shape::Constant);
  const DiscreteCurve aff(std::vector<double>{0.0, 1.5, 3.0}, 1.0);
  EXPECT_EQ(aff.shape(), DiscreteCurve::Shape::Affine);
  const DiscreteCurve cx(std::vector<double>{0.0, 1.0, 3.0}, 1.0);
  EXPECT_EQ(cx.shape(), DiscreteCurve::Shape::Convex);
  const DiscreteCurve cv(std::vector<double>{0.0, 2.0, 3.0}, 1.0);
  EXPECT_EQ(cv.shape(), DiscreteCurve::Shape::Concave);
  const DiscreteCurve gen(std::vector<double>{0.0, 2.0, 1.0, 5.0}, 1.0);
  EXPECT_EQ(gen.shape(), DiscreteCurve::Shape::General);
  const DiscreteCurve single(std::vector<double>{7.0}, 1.0);
  EXPECT_EQ(single.shape(), DiscreteCurve::Shape::Constant);

  // Affine and constant shapes admit both convex and concave fast paths.
  EXPECT_TRUE(shape_is_convex(aff.shape()) && shape_is_concave(aff.shape()));
  EXPECT_TRUE(shape_is_convex(cst.shape()) && shape_is_concave(cst.shape()));
  EXPECT_FALSE(shape_is_convex(gen.shape()) || shape_is_concave(gen.shape()));

  // Copies carry the cached classification (same values — same shape).
  const DiscreteCurve copy = cx;
  EXPECT_EQ(copy.shape(), DiscreteCurve::Shape::Convex);
}

// ---------------------------------------------------------------------------
// Near-convex operands: the monotone-extrema kernel against service curves
// whose rounded increments wobble, on all four operators.
// ---------------------------------------------------------------------------

constexpr double kMhz = 364.4e6;  // the paper's Fig. 7 clock, non-dyadic
constexpr double kHorizon = 0.7;  // seconds; dt = kHorizon / (n − 1) is non-dyadic too

/// β = F·(dt·i), built exactly as `wlc_analyze bounds` and the gpc-bounds
/// benchmark build the service curve; latency > 0 gives the rate-latency
/// form F·max(0, dt·i − T).
DiscreteCurve service_curve(std::size_t n, double latency = 0.0) {
  const double dt = kHorizon / static_cast<double>(std::max<std::size_t>(n, 2) - 1);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = kMhz * std::max(0.0, dt * static_cast<double>(i) - latency);
  return DiscreteCurve(std::move(v), dt);
}

/// F·dt·i·(1 + i/n): strictly convex, with non-dyadic samples.
DiscreteCurve convex_service_curve(std::size_t n, double dt) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = kMhz * dt * x * (1.0 + x / static_cast<double>(n));
  }
  return DiscreteCurve(std::move(v), dt);
}

/// An exactly affine dyadic ramp with a random half of its samples nudged up
/// by one ulp, so its increments differ by an ulp either way.
DiscreteCurve ulp_wobble_ramp(std::size_t n, double dt, Rng& rng) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 48000.0 * static_cast<double>(i);
    if (rng.bernoulli(0.5)) v[i] = std::nextafter(v[i], std::numeric_limits<double>::infinity());
  }
  return DiscreteCurve(std::move(v), dt);
}

/// A dyadic ramp plus noise in [0, 0.4·gate·u·max|g|]: convex only up to a
/// band well above rounding level, still inside the kernel's gate. The band,
/// not rounding, then sets how far apart the splits the kernel keeps may be.
DiscreteCurve noisy_ramp(std::size_t n, double dt, Rng& rng) {
  const double band =
      0.4 * engine::kNearConvexDefectGate * 0x1.0p-53 * 48000.0 * static_cast<double>(n);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 48000.0 * static_cast<double>(i) + rng.uniform(0.0, band);
  return DiscreteCurve(std::move(v), dt);
}

enum class TraceKind { Staircase, FlatRuns, RunsAtSlope };

const char* name_of(TraceKind k) {
  switch (k) {
    case TraceKind::Staircase: return "staircase";
    case TraceKind::FlatRuns: return "flat-runs";
    case TraceKind::RunsAtSlope: return "runs-at-g-slope";
  }
  return "?";
}

/// A trace-derived demand curve against g: integer cycle staircases growing
/// at ~80% of g's rate (with short or long flat runs), or runs that copy g's
/// own rounded increments — every split along such a run ties to within an
/// ulp.
DiscreteCurve trace_curve(TraceKind kind, std::size_t n, const DiscreteCurve& g, Rng& rng) {
  const double step = g.size() > 1 ? g[g.size() - 1] / static_cast<double>(g.size() - 1) : 1.0;
  const double flat = kind == TraceKind::FlatRuns ? 0.97 : 0.6;
  const auto jump = static_cast<std::int64_t>(2.0 * 0.8 * std::max(step, 1.0) / (1.0 - flat));
  std::vector<double> v(n);
  double acc = 0.0;
  bool copying = false;
  for (std::size_t i = 1; i < n; ++i) {
    if (kind == TraceKind::RunsAtSlope && i % 512 == 0) copying = !copying;
    if (copying && i < g.size()) {
      acc += g[i] - g[i - 1];
    } else if (!rng.bernoulli(flat)) {
      acc += static_cast<double>(rng.uniform_int(1, jump));
    }
    v[i] = acc;
  }
  return DiscreteCurve(std::move(v), g.dt());
}

DiscreteCurve negated(const DiscreteCurve& c) { return -1.0 * c; }

TEST_F(CurveEngineTest, NearConvexServiceCurvesAreNotShapeConvex) {
  // The reason the kernel exists: shape() reads these as General.
  EXPECT_EQ(service_curve(4096).shape(), DiscreteCurve::Shape::General);
  EXPECT_EQ(service_curve(4096, 0.2 * kHorizon).shape(), DiscreteCurve::Shape::General);
  Rng rng(0x0B1ULL);
  EXPECT_EQ(ulp_wobble_ramp(4096, 0.5, rng).shape(), DiscreteCurve::Shape::General);
}

TEST_F(CurveEngineTest, NearConvexRowsBitIdenticalOnAllFourOperators) {
  Rng rng(0x6E4C0ULL);
  constexpr TraceKind kTraces[] = {TraceKind::Staircase, TraceKind::FlatRuns,
                                   TraceKind::RunsAtSlope};
  for (std::size_t n : {1, 2, 3, 4096}) {
    // (f size, g size): equal, g shorter, f shorter.
    const std::pair<std::size_t, std::size_t> sizes[] = {
        {n, n}, {n, n / 3 + 1}, {n / 3 + 1, n}};
    for (const auto& [nf, ng] : sizes) {
      Rng wobble(rng());
      const DiscreteCurve affine = service_curve(ng);
      const DiscreteCurve services[] = {affine, service_curve(ng, 0.01 * kHorizon),
                                        service_curve(ng, 0.2 * kHorizon),
                                        convex_service_curve(ng, affine.dt()),
                                        ulp_wobble_ramp(ng, affine.dt(), wobble),
                                        noisy_ramp(ng, affine.dt(), wobble)};
      for (std::size_t service = 0; service < std::size(services); ++service)
        for (TraceKind kind : kTraces) {
          const DiscreteCurve& beta = services[service];
          const DiscreteCurve f = trace_curve(kind, nf, beta, rng);
          // The (min,+) forms pair f with β (near-convex), the (max,+) duals
          // with −β (near-concave); the conv takes it on either side.
          const DiscreteCurve nbeta = negated(beta);
          const std::tuple<CurveOp, const DiscreteCurve*, const DiscreteCurve*> rows[] = {
              {CurveOp::MinPlusConv, &f, &beta},     {CurveOp::MinPlusConv, &beta, &f},
              {CurveOp::MinPlusDeconv, &f, &beta},   {CurveOp::MaxPlusConv, &f, &nbeta},
              {CurveOp::MaxPlusConv, &nbeta, &f},    {CurveOp::MaxPlusDeconv, &f, &nbeta}};
          for (const auto& [op, a, b] : rows) {
            const auto before = engine::dispatch_stats();
            const DiscreteCurve got = run_engine(op, *a, *b);
            const auto after = engine::dispatch_stats();
            const std::string what = std::string(name_of(op)) + " f=" + name_of(kind) + "[" +
                                     std::to_string(a->size()) + "] g" +
                                     std::to_string(service) + "[" +
                                     std::to_string(b->size()) + "] capped " +
                                     std::to_string(after.capped - before.capped);
            EXPECT_TRUE(BitIdentical(got, run_naive(op, *a, *b))) << what;
            // The kernel serves every row without near-ties whole. Runs at
            // g's slope tie, and so do long flat runs against the flat
            // latency part of a rate-latency β; those may hit the cap.
            const bool ties = kind == TraceKind::RunsAtSlope ||
                              (kind == TraceKind::FlatRuns && beta.size() > 1 &&
                               beta[1] == beta[0]);
            if (n == 4096 && !ties) {
              EXPECT_EQ(after.fast - before.fast, 1) << what;
              EXPECT_EQ(after.dense - before.dense, 0) << what;
            }
          }
        }
    }
  }
}

TEST_F(CurveEngineTest, NearTieSelfConvolutionHitsTheWorkCapAndStaysExact) {
  // f = g = β: every split of row i sums to F·dt·i within an ulp, so no
  // column range shrinks. The kernel stops at its work cap and the call runs
  // (and counts as) dense.
  const DiscreteCurve beta = service_curve(4096);
  const DiscreteCurve nbeta = negated(beta);
  EXPECT_TRUE(BitIdentical(DiscreteCurve::min_plus_conv(beta, beta),
                           engine::min_plus_conv_dense(beta, beta)));
  EXPECT_TRUE(BitIdentical(DiscreteCurve::max_plus_conv(nbeta, nbeta),
                           engine::max_plus_conv_dense(nbeta, nbeta)));
  const auto s = engine::dispatch_stats();
  EXPECT_EQ(s.capped, 2);
  EXPECT_EQ(s.dense, 2);
  EXPECT_EQ(s.fast, 0);
}

TEST_F(CurveEngineTest, DefectAboveTheGateGoesDense) {
  // An exactly affine dyadic ramp with one sample lifted by δ: the lower
  // hull skips that sample, so the certified defect is at least δ.
  constexpr std::size_t kN = 1024;
  Rng rng(0xB4A9ULL);
  const auto lifted = [](double delta) {
    std::vector<double> v(kN);
    for (std::size_t i = 0; i < kN; ++i) v[i] = 48000.0 * static_cast<double>(i);
    v[kN / 2] += delta;
    return DiscreteCurve(std::move(v), 0.5);
  };
  const double max_g = 48000.0 * static_cast<double>(kN - 1);
  const double unit = engine::kNearConvexDefectGate * 0x1.0p-53 * max_g;
  const DiscreteCurve above = lifted(1.25 * unit);
  const DiscreteCurve below = lifted(0.25 * unit);
  const DiscreteCurve f = trace_curve(TraceKind::Staircase, kN, above, rng);
  ASSERT_EQ(above.shape(), DiscreteCurve::Shape::General);
  ASSERT_EQ(below.shape(), DiscreteCurve::Shape::General);

  for (CurveOp op : {CurveOp::MinPlusConv, CurveOp::MinPlusDeconv}) {
    engine::reset_stats_for_testing();
    EXPECT_TRUE(BitIdentical(run_engine(op, f, above), run_naive(op, f, above))) << name_of(op);
    EXPECT_EQ(engine::dispatch_stats().dense, 1) << name_of(op);
    EXPECT_EQ(engine::dispatch_stats().capped, 0) << name_of(op);
    EXPECT_TRUE(BitIdentical(run_engine(op, f, below), run_naive(op, f, below))) << name_of(op);
    EXPECT_EQ(engine::dispatch_stats().fast, 1) << name_of(op);
  }
}

TEST_F(CurveEngineTest, NonFiniteSamplesGoDense) {
  DiscreteCurve beta = service_curve(64);
  std::vector<double> fv(64, 0.0);
  for (std::size_t i = 1; i < fv.size(); ++i) fv[i] = fv[i - 1] + (i % 3 == 0 ? 5e7 : 0.0);
  fv[40] = std::numeric_limits<double>::infinity();
  const DiscreteCurve f(std::move(fv), beta.dt());
  for (CurveOp op : {CurveOp::MinPlusConv, CurveOp::MinPlusDeconv}) {
    EXPECT_TRUE(BitIdentical(run_engine(op, f, beta), run_naive(op, f, beta))) << name_of(op);
  }
  EXPECT_EQ(engine::dispatch_stats().fast, 0);
  EXPECT_EQ(engine::dispatch_stats().dense, 2);
}

TEST_F(CurveEngineTest, SignedZeroTiesFollowTheOracle) {
  // A zero extremum with both signs among its candidates: the result's sign
  // is the one of the candidate the oracle visits first.
  const double z = -0.0;
  const DiscreteCurve f(std::vector<double>{z, z, 0.0, z, 1.0, 3.0}, 1.0);
  const DiscreteCurve g(std::vector<double>{0.0, z, 0.0, 2.0, 5.0, 9.0}, 1.0);
  const DiscreteCurve gn = negated(g);
  for (CurveOp op : kOps) {
    const DiscreteCurve& h = (op == CurveOp::MinPlusConv || op == CurveOp::MinPlusDeconv) ? g : gn;
    EXPECT_TRUE(BitIdentical(run_engine(op, f, h), run_naive(op, f, h))) << name_of(op);
    EXPECT_TRUE(BitIdentical(run_engine(op, h, f), run_naive(op, h, f))) << name_of(op);
  }

  // The same on curves wide enough for the halving pass. At even i the
  // split k = 0 gives −0 and k = 1 gives +0, and the oracle meets k = 0
  // first — in the conv that is the *last* column (columns index f).
  constexpr std::size_t kN = 64;
  const auto curve = [](double even, double odd, double at0, double sq_sign) {
    std::vector<double> v(kN), w(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      v[i] = i % 2 == 0 ? even : odd;
      w[i] = i == 0 ? at0 : sq_sign * static_cast<double>(i * i);
    }
    return std::pair{DiscreteCurve(std::move(v), 1.0), DiscreteCurve(std::move(w), 1.0)};
  };
  const std::pair<CurveOp, std::pair<DiscreteCurve, DiscreteCurve>> rows[] = {
      {CurveOp::MinPlusConv, curve(z, -1.0, z, 1.0)},     // −0 + −0 | −1 + 1
      {CurveOp::MaxPlusConv, curve(z, 1.0, z, -1.0)},     // −0 + −0 | 1 − 1
      {CurveOp::MinPlusDeconv, curve(z, 1.0, 0.0, 1.0)},  // −0 − 0 | 1 − 1
      {CurveOp::MaxPlusDeconv, curve(z, -1.0, 0.0, -1.0)}};  // −0 − 0 | −1 + 1
  engine::reset_stats_for_testing();
  for (const auto& [op, fg] : rows) {
    const DiscreteCurve got = run_engine(op, fg.first, fg.second);
    EXPECT_TRUE(got[kN / 2] == 0.0 && std::signbit(got[kN / 2])) << name_of(op);
    EXPECT_TRUE(BitIdentical(got, run_naive(op, fg.first, fg.second))) << name_of(op);
  }
  EXPECT_EQ(engine::dispatch_stats().fast, 4);
}

// ---------------------------------------------------------------------------
// The GPC step of `wlc_analyze bounds` on trace-derived curves: none of its
// six operator calls takes the dense route.
// ---------------------------------------------------------------------------

/// A bursty synthetic trace's demand bounds converted to cycles on a
/// `points`-point grid (Fig. 4), and β = F·(dt·i) at 1.25× the trace's
/// long-run cycle rate: the inputs the gpc-bounds benchmark builds.
std::pair<rtc::StreamBounds, DiscreteCurve> gpc_inputs(std::uint64_t seed, std::int64_t events,
                                                       std::size_t points) {
  Rng rng(seed);
  trace::DemandTrace demands;
  trace::TimestampTrace times;
  double t = 0.0;
  double total = 0.0;
  for (std::int64_t i = 0; i < events; ++i) {
    t += rng.bernoulli(0.3) ? rng.uniform(1e-5, 1e-4) : rng.uniform(1e-4, 1e-3);
    times.push_back(t);
    demands.push_back(rng.bernoulli(0.1) ? rng.uniform_int(3000, 5000) : rng.uniform_int(200, 900));
    total += static_cast<double>(demands.back());
  }
  const auto ks = trace::make_kgrid({.max_k = events, .dense_limit = 512, .growth = 1.02});
  const workload::WorkloadCurve gu = workload::extract_upper(demands, ks);
  const workload::WorkloadCurve gl = workload::extract_lower(demands, ks);
  const trace::EmpiricalArrivalCurve au = trace::extract_upper_arrival(times, ks);
  const trace::EmpiricalArrivalCurve al = trace::extract_lower_arrival(times, ks);
  const double clock = 1.25 * total / times.back();
  const double dt = std::max(times.back(), au.last_breakpoint()) / static_cast<double>(points - 1);
  std::vector<double> up(points), lo(points), beta(points);
  for (std::size_t j = 0; j < points; ++j) {
    const double x = dt * static_cast<double>(j);
    up[j] = static_cast<double>(gu.value(au.eval(x)));
    lo[j] = static_cast<double>(gl.value(al.eval(x)));
    beta[j] = clock * x;
  }
  return {rtc::StreamBounds{DiscreteCurve(std::move(up), dt), DiscreteCurve(std::move(lo), dt)},
          DiscreteCurve(std::move(beta), dt)};
}

TEST_F(CurveEngineTest, GpcOnTraceDerivedCurvesRunsNoDenseCallAndMatchesDense) {
  const auto [demand, beta] = gpc_inputs(21, 20'000, 4096);
  ASSERT_EQ(beta.shape(), DiscreteCurve::Shape::General);
  const rtc::ResourceBounds resource{beta, beta};
  const rtc::GpcResult fast = rtc::analyze_gpc(demand, resource);
  EXPECT_EQ(engine::dispatch_stats().fast, 6);
  EXPECT_EQ(engine::dispatch_stats().dense, 0);

  engine::Config cfg;
  cfg.fast_paths = false;
  engine::set_config(cfg);
  const rtc::GpcResult dense = rtc::analyze_gpc(demand, resource);
  EXPECT_EQ(engine::dispatch_stats().dense, 6);
  EXPECT_TRUE(BitIdentical(fast.output.upper, dense.output.upper));
  EXPECT_TRUE(BitIdentical(fast.output.lower, dense.output.lower));
  EXPECT_TRUE(BitIdentical(fast.remaining.upper, dense.remaining.upper));
  EXPECT_TRUE(BitIdentical(fast.remaining.lower, dense.remaining.lower));
  EXPECT_EQ(bits(fast.backlog), bits(dense.backlog));
  EXPECT_EQ(bits(fast.delay), bits(dense.delay));
}

// ---------------------------------------------------------------------------
// Memo cache: semantics, stats, eviction, and cached-result identity.
// ---------------------------------------------------------------------------

TEST_F(CurveEngineTest, CacheHitReturnsBitIdenticalResult) {
  engine::Config cfg;
  cfg.fast_paths = true;
  engine::set_config(cfg);
  OpCache::global().set_capacity_bytes(OpCache::kDefaultCapacityBytes);
  Rng rng(0xCACEULL);
  const DiscreteCurve f = make_curve(ShapeKind::General, 200, rng);
  const DiscreteCurve g = make_curve(ShapeKind::General, 200, rng);

  const DiscreteCurve first = DiscreteCurve::min_plus_conv(f, g);
  const auto after_first = OpCache::global().stats();
  EXPECT_EQ(after_first.hits, 0);
  EXPECT_EQ(after_first.misses, 1);
  EXPECT_EQ(after_first.inserts, 1);

  const DiscreteCurve second = DiscreteCurve::min_plus_conv(f, g);
  EXPECT_TRUE(BitIdentical(first, second));
  EXPECT_TRUE(BitIdentical(second, DiscreteCurve::min_plus_conv_naive(f, g)));
  const auto after_second = OpCache::global().stats();
  EXPECT_EQ(after_second.hits, 1);
  EXPECT_EQ(after_second.misses, 1);
  // A cache hit runs no kernel: dispatch stats count the first call only.
  EXPECT_EQ(engine::dispatch_stats().fast + engine::dispatch_stats().dense, 1);
}

TEST_F(CurveEngineTest, CacheKeyDiscriminatesOperatorAndOperandOrder) {
  OpCache cache(1 << 20);
  const DiscreteCurve f(std::vector<double>{0.0, 1.0, 5.0}, 1.0);
  const DiscreteCurve g(std::vector<double>{0.0, 3.0, 4.0}, 1.0);
  const DiscreteCurve r1(std::vector<double>{1.0}, 1.0);
  const DiscreteCurve r2(std::vector<double>{2.0}, 1.0);
  const DiscreteCurve r3(std::vector<double>{3.0}, 1.0);

  cache.insert(CurveOp::MinPlusConv, f, g, r1);
  cache.insert(CurveOp::MaxPlusConv, f, g, r2);  // same operands, different op
  cache.insert(CurveOp::MinPlusConv, g, f, r3);  // same op, swapped operands

  const auto h1 = cache.lookup(CurveOp::MinPlusConv, f, g);
  const auto h2 = cache.lookup(CurveOp::MaxPlusConv, f, g);
  const auto h3 = cache.lookup(CurveOp::MinPlusConv, g, f);
  ASSERT_TRUE(h1 && h2 && h3);
  EXPECT_EQ((*h1)[0], 1.0);
  EXPECT_EQ((*h2)[0], 2.0);
  EXPECT_EQ((*h3)[0], 3.0);
  EXPECT_FALSE(cache.lookup(CurveOp::MinPlusDeconv, f, g).has_value());
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST_F(CurveEngineTest, CacheEvictsLeastRecentlyUsedByBytes) {
  // Each 64-sample entry costs 64·8 + overhead bytes; capacity for ~2.
  const DiscreteCurve result(std::vector<double>(64, 1.0), 1.0);
  OpCache cache(2 * (64 * 8 + 128) + 64);
  Rng rng(7);
  std::vector<DiscreteCurve> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(make_curve(ShapeKind::General, 8, rng));

  EXPECT_EQ(cache.insert(CurveOp::MinPlusConv, keys[0], keys[0], result), 0u);
  EXPECT_EQ(cache.insert(CurveOp::MinPlusConv, keys[1], keys[1], result), 0u);
  // Touch entry 0 so entry 1 is the LRU victim.
  EXPECT_TRUE(cache.lookup(CurveOp::MinPlusConv, keys[0], keys[0]).has_value());
  EXPECT_EQ(cache.insert(CurveOp::MinPlusConv, keys[2], keys[2], result), 1u);

  EXPECT_TRUE(cache.lookup(CurveOp::MinPlusConv, keys[0], keys[0]).has_value());
  EXPECT_FALSE(cache.lookup(CurveOp::MinPlusConv, keys[1], keys[1]).has_value());
  EXPECT_TRUE(cache.lookup(CurveOp::MinPlusConv, keys[2], keys[2]).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.resident_bytes, s.capacity_bytes);
}

TEST_F(CurveEngineTest, CacheCapacityZeroDisables) {
  OpCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const DiscreteCurve f(std::vector<double>{0.0, 1.0}, 1.0);
  cache.insert(CurveOp::MinPlusConv, f, f, f);
  EXPECT_FALSE(cache.lookup(CurveOp::MinPlusConv, f, f).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);

  // Oversized single entries are dropped rather than thrashing the LRU list.
  OpCache tiny(16);
  tiny.insert(CurveOp::MinPlusConv, f, f, f);
  EXPECT_EQ(tiny.stats().entries, 0u);
}

TEST_F(CurveEngineTest, CacheClearDropsEntriesAndCounters) {
  OpCache cache(1 << 20);
  const DiscreteCurve f(std::vector<double>{0.0, 1.0}, 1.0);
  cache.insert(CurveOp::MinPlusConv, f, f, f);
  cache.lookup(CurveOp::MinPlusConv, f, f);
  cache.lookup(CurveOp::MaxPlusConv, f, f);
  cache.clear();
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(s.hits + s.misses + s.inserts + s.evictions, 0);
  EXPECT_EQ(s.capacity_bytes, std::size_t{1} << 20);  // capacity survives clear
}

TEST_F(CurveEngineTest, CacheShrinkingCapacityEvictsResidentSet) {
  OpCache cache(1 << 20);
  Rng rng(11);
  const DiscreteCurve result(std::vector<double>(128, 0.0), 1.0);
  for (int i = 0; i < 8; ++i) {
    const DiscreteCurve k = make_curve(ShapeKind::General, 16, rng);
    cache.insert(CurveOp::MaxPlusDeconv, k, k, result);
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  cache.set_capacity_bytes(2 * (128 * 8 + 128) + 32);
  EXPECT_LE(cache.stats().entries, 2u);
  EXPECT_LE(cache.stats().resident_bytes, cache.capacity_bytes());
}

TEST_F(CurveEngineTest, CacheIsThreadSafeUnderConcurrentMixedUse) {
  // Exercised under TSan via the `curve` CTest label: concurrent lookups,
  // inserts (including racing duplicate keys), and stats reads.
  OpCache cache(1 << 16);
  Rng seed_rng(0xBEEFULL);
  std::vector<DiscreteCurve> keys;
  for (int i = 0; i < 8; ++i) keys.push_back(make_curve(ShapeKind::General, 32, seed_rng));
  const DiscreteCurve result(std::vector<double>(32, 4.0), 1.0);

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 200; ++i) {
        const auto& k = keys[static_cast<std::size_t>(rng.uniform_int(0, 7))];
        if (rng.uniform() < 0.5) cache.insert(CurveOp::MinPlusConv, k, k, result);
        if (const auto hit = cache.lookup(CurveOp::MinPlusConv, k, k)) {
          EXPECT_EQ(hit->size(), 32u);
        }
        (void)cache.stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 8 * 200);  // every lookup is one or the other
}

// ---------------------------------------------------------------------------
// Deconvolution split-window convention (documented in discrete_curve.h).
// ---------------------------------------------------------------------------

TEST_F(CurveEngineTest, DeconvShorterGShrinksWindowsNeverEmptiesThem) {
  // f(i) = i(i+1)/2 (convex), g = {0, 2, 3} much shorter than f. The window
  // at i holds kmax(i) = min(3, 10 − i) shifts, so the tail positions use
  // fewer shifts and the last position exactly one: h(9) = f(9) − g(0).
  std::vector<double> fv(10);
  for (std::size_t i = 0; i < fv.size(); ++i)
    fv[i] = static_cast<double>(i * (i + 1) / 2);
  const DiscreteCurve f(fv, 1.0);
  const DiscreteCurve g(std::vector<double>{0.0, 2.0, 3.0}, 1.0);

  const DiscreteCurve h = DiscreteCurve::min_plus_deconv(f, g);
  ASSERT_EQ(h.size(), 10u);
  EXPECT_EQ(h[9], 45.0);  // kmax(9) = 1: only k = 0 admissible
  EXPECT_EQ(h[8], 43.0);  // max(36−0, 45−2)
  EXPECT_EQ(h[7], 42.0);  // max(28−0, 36−2, 45−3)
  EXPECT_EQ(h[0], 0.0);   // full window: max(f(0)−0, f(1)−2, f(2)−3) = max(0, −1, 0)
  EXPECT_TRUE(BitIdentical(h, DiscreteCurve::min_plus_deconv_naive(f, g)));

  // The k = 0 term is always admissible, so h >= f pointwise when g(0) <= 0.
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_GE(h[i], f[i]);

  const DiscreteCurve hm = DiscreteCurve::max_plus_deconv(f, g);
  EXPECT_EQ(hm[9], 45.0);           // single-shift window again
  EXPECT_EQ(hm[0], -1.0);           // inf at k = 1: f(1) − g(1) = 1 − 2
  EXPECT_TRUE(BitIdentical(hm, DiscreteCurve::max_plus_deconv_naive(f, g)));
}

TEST_F(CurveEngineTest, DeconvLongerGIsTruncatedByFsHorizon) {
  // g longer than f: kmax(i) = f.size − i, so g's tail beyond f's horizon
  // never participates. Perturbing that tail must not change the result.
  const DiscreteCurve f(std::vector<double>{0.0, 4.0, 6.0}, 1.0);
  const DiscreteCurve g(std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 1.0);
  std::vector<double> gv2 = g.values();
  for (std::size_t i = 3; i < gv2.size(); ++i) gv2[i] += 100.0;
  const DiscreteCurve g2(std::move(gv2), 1.0);

  for (CurveOp op : {CurveOp::MinPlusDeconv, CurveOp::MaxPlusDeconv}) {
    const DiscreteCurve a = run_engine(op, f, g);
    const DiscreteCurve b = run_engine(op, f, g2);
    EXPECT_TRUE(BitIdentical(a, b)) << name_of(op);
    EXPECT_TRUE(BitIdentical(a, run_naive(op, f, g))) << name_of(op);
    ASSERT_EQ(a.size(), 3u);
  }
  // Pinned: h(i) = max_k f(i+k) − g(k) with window 3 − i.
  const DiscreteCurve h = DiscreteCurve::min_plus_deconv(f, g);
  EXPECT_EQ(h[0], 4.0);  // max(0−0, 4−1, 6−2)
  EXPECT_EQ(h[1], 5.0);  // max(4−0, 6−1)
  EXPECT_EQ(h[2], 6.0);  // f(2) − g(0)
}

// ---------------------------------------------------------------------------
// Pseudo-inverse binary search vs linear-scan semantics.
// ---------------------------------------------------------------------------

double inverse_lower_linear(const DiscreteCurve& f, double y) {
  for (std::size_t i = 0; i < f.size(); ++i)
    if (f[i] >= y) return f.dt() * static_cast<double>(i);
  return std::numeric_limits<double>::infinity();
}

double inverse_upper_linear(const DiscreteCurve& f, double y) {
  if (f[0] > y) return -1.0;
  for (std::size_t i = 1; i < f.size(); ++i)
    if (f[i] > y) return f.dt() * static_cast<double>(i - 1);
  return f.horizon();
}

TEST_F(CurveEngineTest, BinarySearchInversesMatchLinearScan) {
  Rng rng(0x1472ULL);
  for (int round = 0; round < 20; ++round) {
    // Non-decreasing staircase with plateaus — the binary-search eligible
    // class. Include repeated values to stress first/last-crossing ties.
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<double> v(n);
    double acc = static_cast<double>(rng.uniform_int(-4, 4));
    for (auto& x : v) {
      acc += static_cast<double>(rng.uniform_int(0, 3));  // 0-steps make plateaus
      x = acc;
    }
    const DiscreteCurve f(std::move(v), 0.25);
    ASSERT_TRUE(f.is_non_decreasing());

    std::vector<double> probes = {f[0] - 1.0, f[0], f[n - 1], f[n - 1] + 1.0};
    for (int p = 0; p < 16; ++p)
      probes.push_back(f[0] + (f[n - 1] - f[0] + 2.0) * rng.uniform() - 1.0);
    for (std::size_t i = 0; i < n; i += 1 + n / 7) probes.push_back(f[i]);  // exact hits

    for (double y : probes) {
      EXPECT_EQ(f.inverse_lower(y), inverse_lower_linear(f, y)) << "y=" << y;
      EXPECT_EQ(f.inverse_upper(y), inverse_upper_linear(f, y)) << "y=" << y;
    }
  }
}

TEST_F(CurveEngineTest, NonMonotoneInverseKeepsFirstCrossingSemantics) {
  // Not non-decreasing → linear path; the later dip below y must not move
  // the first crossing, and inverse_upper stops at the first exceedance.
  const DiscreteCurve f(std::vector<double>{0.0, 5.0, 2.0, 7.0}, 1.0);
  ASSERT_FALSE(f.is_non_decreasing());
  EXPECT_EQ(f.inverse_lower(3.0), 1.0);   // f(1) = 5 is the first >= 3
  EXPECT_EQ(f.inverse_upper(3.0), 0.0);   // f(1) = 5 first exceeds 3
  EXPECT_EQ(f.inverse_lower(8.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(f.inverse_upper(-1.0), -1.0);
  EXPECT_EQ(f.inverse_upper(10.0), f.horizon());
}

}  // namespace
}  // namespace wlc::curve
