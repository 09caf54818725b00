// PERF — google-benchmark microbenchmarks of the curve-algebra substrate.
//
// The headline comparison is the shape-aware engine's dispatch ladder on the
// same operands: naive O(n²) oracle vs cache-blocked dense kernel vs shape
// fast path vs memo-cache hit, at n ∈ {256, 1024, 4096} on convex/concave
// inputs, and dense vs engine on the GPC's trace-staircase × non-dyadic
// service-curve calls (every rung is bit-identical; only the route differs —
// see docs/architecture.md, "Curve algebra & dispatch"). tools/run_benchmarks.sh
// records these as BENCH_curve_ops.json. The PWL-compaction benches time the
// bounded-error storage form (10⁶-point fit and expand); the PWL and sup-diff
// benches cover the remaining hot evaluation paths.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "curve/compact.h"
#include "curve/discrete_curve.h"
#include "curve/engine.h"
#include "curve/op_cache.h"
#include "curve/pwl_curve.h"

namespace {

using namespace wlc;
using curve::DiscreteCurve;
using curve::OpCache;
using curve::PwlCurve;
namespace engine = curve::engine;

DiscreteCurve random_nondecreasing(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  for (std::size_t i = 1; i < n; ++i) v.push_back(v.back() + rng.uniform(0.0, 3.0));
  return DiscreteCurve(std::move(v), 1.0);
}

DiscreteCurve random_convex(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  double slope = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    slope += rng.uniform(0.0, 0.5);
    v.push_back(v.back() + slope);
  }
  return DiscreteCurve(std::move(v), 1.0);
}

DiscreteCurve random_concave(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  double slope = static_cast<double>(n);
  for (std::size_t i = 1; i < n; ++i) {
    slope -= rng.uniform(0.0, 0.5);
    v.push_back(v.back() + slope);
  }
  return DiscreteCurve(std::move(v), 1.0);
}

void set_engine(bool fast_paths, bool use_cache) {
  engine::Config cfg;
  cfg.fast_paths = fast_paths;
  engine::set_config(cfg);
  OpCache::global().set_capacity_bytes(use_cache ? OpCache::kDefaultCapacityBytes : 0);
  OpCache::global().clear();
}

// ---- dispatch ladder on convex (min,+) convolution -------------------------

void BM_ConvexMinPlusConv_Naive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_convex(n, 3);
  const DiscreteCurve g = random_convex(n, 4);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv_naive(f, g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexMinPlusConv_Naive)
    ->Arg(256)->Arg(1024)->Arg(4096)->Complexity(benchmark::oNSquared);

void BM_ConvexMinPlusConv_DenseTiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_convex(n, 3);
  const DiscreteCurve g = random_convex(n, 4);
  for (auto _ : state) benchmark::DoNotOptimize(engine::min_plus_conv_dense(f, g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexMinPlusConv_DenseTiled)
    ->Arg(256)->Arg(1024)->Arg(4096)->Complexity(benchmark::oNSquared);

void BM_ConvexMinPlusConv_FastPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_convex(n, 3);
  const DiscreteCurve g = random_convex(n, 4);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(f, g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexMinPlusConv_FastPath)
    ->Arg(256)->Arg(1024)->Arg(4096)->Complexity(benchmark::oN);

void BM_ConvexMinPlusConv_Cached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_convex(n, 3);
  const DiscreteCurve g = random_convex(n, 4);
  set_engine(/*fast_paths=*/true, /*use_cache=*/true);
  benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(f, g));  // warm the cache
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(f, g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexMinPlusConv_Cached)
    ->Arg(256)->Arg(1024)->Arg(4096)->Complexity(benchmark::oN);

// ---- dispatch ladder on concave (max,+) convolution ------------------------

void BM_ConcaveMaxPlusConv_Naive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_concave(n, 5);
  const DiscreteCurve g = random_concave(n, 6);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::max_plus_conv_naive(f, g));
}
BENCHMARK(BM_ConcaveMaxPlusConv_Naive)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ConcaveMaxPlusConv_FastPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_concave(n, 5);
  const DiscreteCurve g = random_concave(n, 6);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::max_plus_conv(f, g));
}
BENCHMARK(BM_ConcaveMaxPlusConv_FastPath)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ConcaveMaxPlusConv_Cached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_concave(n, 5);
  const DiscreteCurve g = random_concave(n, 6);
  set_engine(/*fast_paths=*/true, /*use_cache=*/true);
  benchmark::DoNotOptimize(DiscreteCurve::max_plus_conv(f, g));  // warm the cache
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::max_plus_conv(f, g));
}
BENCHMARK(BM_ConcaveMaxPlusConv_Cached)->Arg(256)->Arg(1024)->Arg(4096);

// ---- deconvolution by a convex g (monotone-extrema kernel) -----------------

void BM_ConcaveConvexMinPlusDeconv_Naive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_concave(n, 7);
  const DiscreteCurve g = random_convex(n, 8);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_deconv_naive(f, g));
}
BENCHMARK(BM_ConcaveConvexMinPlusDeconv_Naive)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ConcaveConvexMinPlusDeconv_FastPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_concave(n, 7);
  const DiscreteCurve g = random_convex(n, 8);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_deconv(f, g));
}
BENCHMARK(BM_ConcaveConvexMinPlusDeconv_FastPath)->Arg(256)->Arg(1024)->Arg(4096);

// ---- trace-derived f against a non-dyadic service curve ---------------------
//
// The GPC's four operator calls: an integer cycle staircase against
// β = F·(dt·i), whose rounded increments wobble by an ulp, so shape() reads
// it General and only the near-convex kernel avoids the dense route.

DiscreteCurve service_curve(std::size_t n) {
  const double dt = 0.7 / static_cast<double>(n - 1);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 364.4e6 * (dt * static_cast<double>(i));
  return DiscreteCurve(std::move(v), dt);
}

/// Integer cycle staircase with flat runs, growing at ~80% of `beta`'s rate.
DiscreteCurve trace_staircase(const DiscreteCurve& beta, std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = beta.size();
  const double step = beta[n - 1] / static_cast<double>(n - 1);
  const auto jump = static_cast<std::int64_t>(2.0 * 0.8 * step / 0.4);
  std::vector<double> v{0.0};
  for (std::size_t i = 1; i < n; ++i)
    v.push_back(v.back() + (rng.bernoulli(0.4) ? static_cast<double>(rng.uniform_int(1, jump))
                                                : 0.0));
  return DiscreteCurve(std::move(v), beta.dt());
}

void BM_TraceServiceMinPlusConv_Dense(benchmark::State& state) {
  const DiscreteCurve beta = service_curve(static_cast<std::size_t>(state.range(0)));
  const DiscreteCurve f = trace_staircase(beta, 11);
  for (auto _ : state) benchmark::DoNotOptimize(engine::min_plus_conv_dense(f, beta));
}
BENCHMARK(BM_TraceServiceMinPlusConv_Dense)->Arg(1024)->Arg(4096);

void BM_TraceServiceMinPlusConv_Engine(benchmark::State& state) {
  const DiscreteCurve beta = service_curve(static_cast<std::size_t>(state.range(0)));
  const DiscreteCurve f = trace_staircase(beta, 11);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(f, beta));
}
BENCHMARK(BM_TraceServiceMinPlusConv_Engine)->Arg(1024)->Arg(4096);

void BM_TraceServiceMinPlusDeconv_Dense(benchmark::State& state) {
  const DiscreteCurve beta = service_curve(static_cast<std::size_t>(state.range(0)));
  const DiscreteCurve f = trace_staircase(beta, 12);
  for (auto _ : state) benchmark::DoNotOptimize(engine::min_plus_deconv_dense(f, beta));
}
BENCHMARK(BM_TraceServiceMinPlusDeconv_Dense)->Arg(1024)->Arg(4096);

void BM_TraceServiceMinPlusDeconv_Engine(benchmark::State& state) {
  const DiscreteCurve beta = service_curve(static_cast<std::size_t>(state.range(0)));
  const DiscreteCurve f = trace_staircase(beta, 12);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_deconv(f, beta));
}
BENCHMARK(BM_TraceServiceMinPlusDeconv_Engine)->Arg(1024)->Arg(4096);

// f = g = β ties every split to within an ulp: the kernel stops at its work
// cap and the engine finishes on the dense kernel. The gap between the two
// rows is what the attempt costs.
void BM_ServiceSelfConv_Dense(benchmark::State& state) {
  const DiscreteCurve beta = service_curve(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(engine::min_plus_conv_dense(beta, beta));
}
BENCHMARK(BM_ServiceSelfConv_Dense)->Arg(4096);

void BM_ServiceSelfConv_EngineCapped(benchmark::State& state) {
  const DiscreteCurve beta = service_curve(static_cast<std::size_t>(state.range(0)));
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(beta, beta));
}
BENCHMARK(BM_ServiceSelfConv_EngineCapped)->Arg(4096);

// ---- general-shape operands (dense route through the public API) -----------

void BM_MinPlusConv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_nondecreasing(n, 1);
  const DiscreteCurve g = random_nondecreasing(n, 2);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(f, g));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinPlusConv)->Range(64, 4096)->Complexity(benchmark::oNSquared);

void BM_MinPlusDeconv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_nondecreasing(n, 5);
  const DiscreteCurve g = random_nondecreasing(n, 6);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_deconv(f, g));
}
BENCHMARK(BM_MinPlusDeconv)->Range(64, 2048);

void BM_SupDiffBacklog(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = random_nondecreasing(n, 7);
  const DiscreteCurve g = random_nondecreasing(n, 8);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::sup_diff(f, g));
}
BENCHMARK(BM_SupDiffBacklog)->Range(1024, 65536);

// ---- PWL compaction (storage form) -----------------------------------------

// Ramp + periodic tooth: the canonical "huge but regular" γ envelope. Under
// a two-tooth absolute budget the greedy fit rides the ramp for many periods
// per segment, so the 10⁶-point curve compacts ≥ 50× (the same construction
// tests/pwl_compact_test.cpp pins as a hard floor).
DiscreteCurve sawtooth(std::size_t n, double ramp, double amp, std::size_t period) {
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(ramp * static_cast<double>(i) +
                amp * static_cast<double>(i % period) / static_cast<double>(period));
  return DiscreteCurve(std::move(v), 1.0);
}

// Convex staircase-of-slopes: slope changes only every n/segs samples — the
// slope-merge fast path on long convex operands.
DiscreteCurve blocky_convex(std::size_t n, std::size_t segs, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v{0.0};
  double slope = 0.0;
  const std::size_t per = n / segs;
  for (std::size_t i = 1; i < n; ++i) {
    // Dyadic slope steps keep every sample exactly representable, so the
    // stored increments are *exactly* piecewise-constant and the shape
    // classifier (tol = 0) sees Convex.
    if (i % per == 1) slope += 0.25 * static_cast<double>(rng.uniform_int(1, 4));
    v.push_back(v.back() + slope);
  }
  return DiscreteCurve(std::move(v), 1.0);
}

void BM_CompactMillionPointSawtooth(benchmark::State& state) {
  const DiscreteCurve dense = sawtooth(1'000'000, 0.875, 48.0, 128);
  const curve::CompactBudget budget{96.0, 0.0};
  double reduction = 0.0;
  for (auto _ : state) {
    const curve::CompactCurve c = curve::CompactCurve::compact_upper(dense, budget);
    reduction = c.reduction();
    benchmark::DoNotOptimize(c);
  }
  state.counters["reduction_x"] = reduction;
}
BENCHMARK(BM_CompactMillionPointSawtooth)->Unit(benchmark::kMillisecond);

void BM_CompactMillionPointExpand(benchmark::State& state) {
  // The inverse trip: materializing the dense curve back out of the tier.
  const curve::CompactCurve c = curve::CompactCurve::compact_upper(
      sawtooth(1'000'000, 0.875, 48.0, 128), curve::CompactBudget{96.0, 0.0});
  for (auto _ : state) benchmark::DoNotOptimize(c.expand());
  state.counters["knots"] = static_cast<double>(c.size());
}
BENCHMARK(BM_CompactMillionPointExpand)->Unit(benchmark::kMillisecond);

void BM_BlockyConvexMinPlusConv_DenseFastPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DiscreteCurve f = blocky_convex(n, 64, 9);
  const DiscreteCurve g = blocky_convex(n, 64, 10);
  set_engine(/*fast_paths=*/true, /*use_cache=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(DiscreteCurve::min_plus_conv(f, g));
}
BENCHMARK(BM_BlockyConvexMinPlusConv_DenseFastPath)->Arg(4096)->Arg(16384)->Arg(65536);

void BM_PwlEvalPeriodic(benchmark::State& state) {
  const PwlCurve stairs = PwlCurve::staircase(1.0, 2.0, 3.0, 3.0);
  double x = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stairs.eval(x));
    x += 17.3;
    if (x > 1e9) x = 0.0;
  }
}
BENCHMARK(BM_PwlEvalPeriodic);

void BM_PwlMinWithCrossings(benchmark::State& state) {
  const PwlCurve a = PwlCurve::staircase(1.0, 1.0, 2.0, 2.0);
  const PwlCurve b = PwlCurve::token_bucket(4.0, 0.4);
  for (auto _ : state) benchmark::DoNotOptimize(PwlCurve::min(a, b, 500.0));
}
BENCHMARK(BM_PwlMinWithCrossings);

}  // namespace

BENCHMARK_MAIN();
