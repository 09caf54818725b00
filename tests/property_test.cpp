// Parameterized property suites: the library's core invariants swept across
// families of random inputs (demand distributions, trace shapes, curve
// families, task-set profiles). Each suite pins one mathematical property
// of the model; the parameter grid supplies diversity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "curve/discrete_curve.h"
#include "curve/pwl_curve.h"
#include "rtc/sizing.h"
#include "sched/edf.h"
#include "sched/generators.h"
#include "sched/rms.h"
#include "sim/components.h"
#include "trace/arrival_extract.h"
#include "trace/kgrid.h"
#include "workload/extract.h"

namespace wlc {
namespace {

// ---------------------------------------------------------------------------
// Demand-trace families.
// ---------------------------------------------------------------------------

// `name` is the last field: gtest lists a parameter by its raw bytes, and a
// pointer's bytes move with the binary's layout, so a leading pointer would
// change the listed test names whenever any other test's strings change.
struct DemandProfile {
  std::uint64_t seed;
  double heavy_prob;   ///< probability of a heavy-tailed demand
  Cycles light_lo, light_hi;
  Cycles heavy_lo, heavy_hi;
  const char* name;
};

class WorkloadInvariants : public ::testing::TestWithParam<DemandProfile> {
 protected:
  trace::DemandTrace make_trace(int n) const {
    const DemandProfile& p = GetParam();
    common::Rng rng(p.seed);
    trace::DemandTrace d;
    d.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      d.push_back(rng.bernoulli(p.heavy_prob) ? rng.uniform_int(p.heavy_lo, p.heavy_hi)
                                              : rng.uniform_int(p.light_lo, p.light_hi));
    return d;
  }
};

TEST_P(WorkloadInvariants, CurvesBracketEveryWindow) {
  const trace::DemandTrace d = make_trace(300);
  const auto up = workload::extract_upper_dense(d, 300);
  const auto lo = workload::extract_lower_dense(d, 300);
  std::vector<Cycles> prefix{0};
  for (Cycles c : d) prefix.push_back(prefix.back() + c);
  common::Rng rng(GetParam().seed ^ 0xabc);
  for (int trial = 0; trial < 500; ++trial) {
    const auto k = rng.uniform_int(1, 300);
    const auto j = rng.uniform_int(0, 300 - k);
    const Cycles w = prefix[static_cast<std::size_t>(j + k)] - prefix[static_cast<std::size_t>(j)];
    ASSERT_LE(w, up.value(k));
    ASSERT_GE(w, lo.value(k));
  }
}

TEST_P(WorkloadInvariants, UpperDominatesLowerAndConesHold) {
  const trace::DemandTrace d = make_trace(250);
  const auto up = workload::extract_upper_dense(d, 250);
  const auto lo = workload::extract_lower_dense(d, 250);
  for (EventCount k = 0; k <= 600; k += 7) {  // includes the extension region
    ASSERT_GE(up.value(k), lo.value(k)) << k;
    ASSERT_LE(up.value(k), k * up.wcet()) << k;
    ASSERT_GE(lo.value(k), k * lo.bcet()) << k;
  }
}

TEST_P(WorkloadInvariants, InverseGaloisConnection) {
  // The paper's §2.1 relations: γᵘ(k) <= e  <=>  γᵘ⁻¹(e) >= k, and the dual.
  const trace::DemandTrace d = make_trace(120);
  const auto up = workload::extract_upper_dense(d, 120);
  const auto lo = workload::extract_lower_dense(d, 120);
  common::Rng rng(GetParam().seed ^ 0xdef);
  for (int trial = 0; trial < 400; ++trial) {
    const auto k = rng.uniform_int(0, 150);
    const Cycles e = rng.uniform_int(0, up.value(150));
    ASSERT_EQ(up.value(k) <= e, up.inverse(e) >= k) << "k=" << k << " e=" << e;
    if (e > 0) {
      ASSERT_EQ(lo.value(k) >= e, lo.inverse(e) <= k) << "k=" << k << " e=" << e;
    }
  }
}

TEST_P(WorkloadInvariants, GridConservatismNeverUnsound) {
  const trace::DemandTrace d = make_trace(400);
  const auto dense_u = workload::extract_upper_dense(d, 400);
  const auto dense_l = workload::extract_lower_dense(d, 400);
  for (double growth : {1.1, 1.5, 2.5}) {
    const auto ks = trace::make_kgrid({.max_k = 400, .dense_limit = 8, .growth = growth});
    const auto grid_u = workload::extract_upper(d, ks);
    const auto grid_l = workload::extract_lower(d, ks);
    for (EventCount k = 0; k <= 400; k += 11) {
      ASSERT_GE(grid_u.value(k), dense_u.value(k)) << growth << " " << k;
      ASSERT_LE(grid_l.value(k), dense_l.value(k)) << growth << " " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DemandFamilies, WorkloadInvariants,
    ::testing::Values(DemandProfile{11, 0.0, 10, 100, 0, 0, "uniform"},
                      DemandProfile{12, 0.1, 5, 20, 400, 600, "bimodal"},
                      DemandProfile{13, 0.01, 50, 60, 5000, 9000, "rare_spike"},
                      DemandProfile{14, 0.0, 99, 101, 0, 0, "near_constant"},
                      DemandProfile{15, 0.5, 0, 0, 100, 200, "zero_heavy"}),
    [](const ::testing::TestParamInfo<DemandProfile>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Arrival-trace families.
// ---------------------------------------------------------------------------

// gtest prints an unprintable parameter as its raw bytes in the test's
// listed name, so the name pointer (an ASLR-randomised address) goes last:
// the leading bytes, and hence the listed name's prefix, stay deterministic.
struct ArrivalProfile {
  std::uint64_t seed;
  double burst_prob;
  double burst_gap_lo, burst_gap_hi;
  double calm_gap_lo, calm_gap_hi;
  const char* name;
};

class ArrivalInvariants : public ::testing::TestWithParam<ArrivalProfile> {
 protected:
  trace::TimestampTrace make_trace(int n) const {
    const ArrivalProfile& p = GetParam();
    common::Rng rng(p.seed);
    trace::TimestampTrace ts{0.0};
    for (int i = 1; i < n; ++i)
      ts.push_back(ts.back() + (rng.bernoulli(p.burst_prob)
                                    ? rng.uniform(p.burst_gap_lo, p.burst_gap_hi)
                                    : rng.uniform(p.calm_gap_lo, p.calm_gap_hi)));
    return ts;
  }
};

TEST_P(ArrivalInvariants, ExtractionMatchesDirectSweep) {
  const trace::TimestampTrace ts = make_trace(250);
  const auto ks = trace::make_kgrid({.max_k = 250, .dense_limit = 250, .growth = 2.0});
  const auto up = trace::extract_upper_arrival(ts, ks);
  const auto lo = trace::extract_lower_arrival(ts, ks);
  common::Rng rng(GetParam().seed ^ 0x77);
  for (int trial = 0; trial < 200; ++trial) {
    const double delta = rng.uniform(0.0, 1.2 * (ts.back() - ts.front()));
    ASSERT_EQ(up.eval(delta), trace::max_events_in_window(ts, delta)) << delta;
    ASSERT_EQ(lo.eval(delta), trace::min_events_in_window(ts, delta)) << delta;
  }
}

TEST_P(ArrivalInvariants, SizingSoundInSimulation) {
  const trace::TimestampTrace ts = make_trace(300);
  common::Rng rng(GetParam().seed ^ 0x99);
  trace::EventTrace events;
  for (double t : ts) events.push_back({t, 0, rng.uniform_int(100, 1000)});
  const auto ks = trace::make_kgrid({.max_k = 300, .dense_limit = 64, .growth = 1.25});
  const auto arr = trace::extract_upper_arrival(ts, ks);
  const auto gu = workload::extract_upper(trace::demands_of(events), ks);
  for (EventCount b : {2, 10, 50}) {
    const Hertz f = rtc::min_frequency_workload(arr, gu, b);
    if (!std::isfinite(f)) continue;
    const auto stats = sim::run_fifo_pipeline(events, f);
    ASSERT_LE(stats.max_backlog, b) << "b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArrivalFamilies, ArrivalInvariants,
    ::testing::Values(ArrivalProfile{21, 0.0, 0, 0, 0.001, 0.08, "poissonish"},
                      ArrivalProfile{22, 0.3, 1e-4, 1e-3, 0.02, 0.1, "bursty"},
                      ArrivalProfile{23, 0.15, 1e-5, 1e-4, 0.05, 0.3, "extreme_bursts"},
                      ArrivalProfile{24, 0.0, 0, 0, 0.009, 0.011, "regular_jitter"}),
    [](const ::testing::TestParamInfo<ArrivalProfile>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Curve-algebra identities over random non-decreasing curves.
// ---------------------------------------------------------------------------

class AlgebraIdentities : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  curve::DiscreteCurve random_curve(std::size_t n, std::uint64_t salt,
                                    bool from_zero = true) const {
    common::Rng rng(GetParam() ^ salt);
    std::vector<double> v{from_zero ? 0.0 : rng.uniform(0.0, 5.0)};
    for (std::size_t i = 1; i < n; ++i) v.push_back(v.back() + rng.uniform(0.0, 4.0));
    return curve::DiscreteCurve(std::move(v), 1.0);
  }
};

TEST_P(AlgebraIdentities, ConvolutionIsCommutativeAndAssociative) {
  const auto f = random_curve(24, 1);
  const auto g = random_curve(24, 2);
  const auto h = random_curve(24, 3);
  using DC = curve::DiscreteCurve;
  const DC fg = DC::min_plus_conv(f, g);
  const DC gf = DC::min_plus_conv(g, f);
  for (std::size_t i = 0; i < fg.size(); ++i) ASSERT_DOUBLE_EQ(fg[i], gf[i]);
  const DC a = DC::min_plus_conv(DC::min_plus_conv(f, g), h);
  const DC b = DC::min_plus_conv(f, DC::min_plus_conv(g, h));
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], b[i], 1e-9);
}

TEST_P(AlgebraIdentities, ConvolutionMonotoneAndDominatedByOperands) {
  const auto f = random_curve(32, 4);
  const auto g = random_curve(32, 5);
  const auto c = curve::DiscreteCurve::min_plus_conv(f, g);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_LE(c[i], f[i] + g[0] + 1e-12);
    ASSERT_LE(c[i], g[i] + f[0] + 1e-12);
  }
  ASSERT_TRUE(c.is_non_decreasing(1e-12));
}

TEST_P(AlgebraIdentities, DeconvThenConvBracketsOriginal) {
  // f <= (f ⊘ g) ⊗ g  (duality of the (min,+) residuation), on the horizon
  // where the deconvolution is complete.
  const auto f = random_curve(40, 6);
  const auto g = random_curve(40, 7);
  using DC = curve::DiscreteCurve;
  const DC d = DC::min_plus_deconv(f, g);
  const DC back = DC::min_plus_conv(d, g);
  // Only the first half is free of horizon truncation in the deconvolution.
  for (std::size_t i = 0; i < f.size() / 2; ++i) ASSERT_GE(back[i] + 1e-9, f[i]) << i;
}

TEST_P(AlgebraIdentities, OperatorsAreIsotone) {
  // Isotonicity in the (min,+) dioid: raising an operand can only raise a
  // convolution; deconvolution is monotone in f and antitone in g (the
  // split/window sets coincide, so the inequalities transfer termwise).
  common::Rng rng(GetParam() ^ 0xa1);
  const auto f = random_curve(36, 10);
  const auto g = random_curve(36, 11);
  std::vector<double> bumped_f(f.values()), bumped_g(g.values());
  for (auto& x : bumped_f) x += rng.uniform(0.0, 3.0);
  for (auto& x : bumped_g) x += rng.uniform(0.0, 3.0);
  const curve::DiscreteCurve f2(std::move(bumped_f), f.dt());
  const curve::DiscreteCurve g2(std::move(bumped_g), g.dt());
  using DC = curve::DiscreteCurve;

  const DC c1 = DC::min_plus_conv(f, g);
  const DC c2 = DC::min_plus_conv(f2, g);
  for (std::size_t i = 0; i < c1.size(); ++i) ASSERT_LE(c1[i], c2[i] + 1e-12) << i;

  const DC d1 = DC::min_plus_deconv(f, g);
  const DC d2 = DC::min_plus_deconv(f2, g);
  for (std::size_t i = 0; i < d1.size(); ++i) ASSERT_LE(d1[i], d2[i] + 1e-12) << i;

  const DC e1 = DC::min_plus_deconv(f, g2);  // larger g subtracts more
  for (std::size_t i = 0; i < e1.size(); ++i) ASSERT_LE(e1[i], d1[i] + 1e-12) << i;
}

TEST_P(AlgebraIdentities, DeconvolutionIsAdjointToConvolution) {
  // The residuation (Galois) adjunction  f ⊘ g <= h  <=>  f <= h ⊗ g, as
  // unit/counit laws plus both implication directions on witnesses built
  // from the adjunction itself.
  const auto f = random_curve(32, 12);
  const auto g = random_curve(32, 13);
  const auto h = random_curve(32, 14);
  common::Rng rng(GetParam() ^ 0xb2);
  using DC = curve::DiscreteCurve;

  // Unit: f <= (f ⊘ g) ⊗ g. Every conv split k re-admits the deconv shift k,
  // so the bound holds on the conv's whole domain, horizon truncation
  // notwithstanding.
  const DC unit = DC::min_plus_conv(DC::min_plus_deconv(f, g), g);
  for (std::size_t i = 0; i < unit.size(); ++i) ASSERT_GE(unit[i] + 1e-12, f[i]) << i;

  // Counit: (h ⊗ g) ⊘ g <= h.
  const DC counit = DC::min_plus_deconv(DC::min_plus_conv(h, g), g);
  for (std::size_t i = 0; i < counit.size(); ++i) ASSERT_LE(counit[i], h[i] + 1e-12) << i;

  // Forward: pick h' >= f ⊘ g; then f <= h' ⊗ g must follow.
  const DC d = DC::min_plus_deconv(f, g);
  std::vector<double> hv(d.values());
  for (auto& x : hv) x += rng.uniform(0.0, 2.0);
  const DC h_above(std::move(hv), d.dt());
  const DC back = DC::min_plus_conv(h_above, g);
  for (std::size_t i = 0; i < back.size(); ++i) ASSERT_GE(back[i] + 1e-12, f[i]) << i;

  // Reverse: pick f' <= h ⊗ g; then f' ⊘ g <= h must follow.
  const DC hg = DC::min_plus_conv(h, g);
  std::vector<double> fv(hg.values());
  for (auto& x : fv) x -= rng.uniform(0.0, 2.0);
  const DC f_below(std::move(fv), hg.dt());
  const DC fwd = DC::min_plus_deconv(f_below, g);
  for (std::size_t i = 0; i < fwd.size(); ++i) ASSERT_LE(fwd[i], h[i] + 1e-12) << i;
}

TEST_P(AlgebraIdentities, ShapeFastPathsAgreeWithNaiveKernels) {
  // Spot check of the engine's bit-identity contract inside the property
  // sweep (the exhaustive matrix lives in tests/curve_engine_test.cpp):
  // convex and concave operands take the O(n) fast paths here.
  common::Rng rng(GetParam() ^ 0xc3);
  std::vector<double> inc(47);
  for (auto& x : inc) x = static_cast<double>(rng.uniform_int(0, 64)) * 0x1.0p-4;
  std::sort(inc.begin(), inc.end());
  std::vector<double> cx{0.0}, cv{0.0};
  for (std::size_t i = 0; i < inc.size(); ++i) {
    cx.push_back(cx.back() + inc[i]);
    cv.push_back(cv.back() + inc[inc.size() - 1 - i]);
  }
  const curve::DiscreteCurve convex(std::move(cx), 1.0);
  const curve::DiscreteCurve concave(std::move(cv), 1.0);
  using DC = curve::DiscreteCurve;

  const DC a = DC::min_plus_conv(convex, convex);
  const DC a_ref = DC::min_plus_conv_naive(convex, convex);
  const DC b = DC::max_plus_conv(concave, concave);
  const DC b_ref = DC::max_plus_conv_naive(concave, concave);
  const DC c = DC::min_plus_deconv(concave, convex);
  const DC c_ref = DC::min_plus_deconv_naive(concave, convex);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], a_ref[i]) << i;
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(b[i], b_ref[i]) << i;
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_EQ(c[i], c_ref[i]) << i;
}

TEST_P(AlgebraIdentities, ClosureIsSubadditiveFixpoint) {
  const auto f = random_curve(28, 8);
  const auto star = f.sub_additive_closure();
  for (std::size_t a = 0; a < star.size(); ++a)
    for (std::size_t b = 0; a + b < star.size(); ++b)
      ASSERT_LE(star[a + b], star[a] + star[b] + 1e-9);
  const auto star2 = star.sub_additive_closure();
  for (std::size_t i = 0; i < star.size(); ++i) ASSERT_DOUBLE_EQ(star[i], star2[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraIdentities,
                         ::testing::Values(0x1001, 0x1002, 0x1003, 0x1004, 0x1005, 0x1006));

// ---------------------------------------------------------------------------
// Scheduling monotonicity across task-set families.
// ---------------------------------------------------------------------------

class SchedulingMonotonicity : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  sched::TaskSet make_set(int n_tasks) const {
    common::Rng rng(GetParam());
    sched::TaskSet ts;
    for (int i = 0; i < n_tasks; ++i) {
      std::vector<Cycles> pat;
      const int len = 2 + static_cast<int>(rng.uniform_int(0, 8));
      for (int j = 0; j < len; ++j)
        pat.push_back(rng.bernoulli(0.2) ? rng.uniform_int(60, 120) : rng.uniform_int(5, 25));
      const sched::CyclicDemand gen(pat);
      sched::PeriodicTask t{"t", rng.uniform(0.5, 8.0), 0.0, 0, gen.upper_curve(256)};
      t.deadline = t.period;
      t.wcet = t.gamma_u->wcet();
      ts.push_back(std::move(t));
    }
    return ts;
  }
};

TEST_P(SchedulingMonotonicity, FasterClocksNeverHurt) {
  const sched::TaskSet ts = make_set(3);
  const Hertz f0 = sched::min_schedulable_frequency(ts, sched::DemandModel::WorkloadCurve);
  for (double scale : {1.0001, 1.5, 3.0}) {
    ASSERT_TRUE(
        sched::lehoczky_test(ts, f0 * scale, sched::DemandModel::WorkloadCurve).schedulable)
        << scale;
  }
  // Load factors shrink monotonically with the clock.
  const auto l1 = sched::lehoczky_test(ts, f0 * 1.2, sched::DemandModel::WorkloadCurve);
  const auto l2 = sched::lehoczky_test(ts, f0 * 2.4, sched::DemandModel::WorkloadCurve);
  ASSERT_LT(l2.overall, l1.overall);
}

TEST_P(SchedulingMonotonicity, EdfNeverNeedsMoreThanRms) {
  const sched::TaskSet ts = make_set(3);
  const Hertz f_rms = sched::min_schedulable_frequency(ts, sched::DemandModel::WorkloadCurve);
  // Any implicit-deadline set RMS can schedule, EDF can too (at that clock).
  ASSERT_TRUE(sched::edf_test(ts, f_rms * 1.0001, sched::DemandModel::WorkloadCurve).schedulable);
}

TEST_P(SchedulingMonotonicity, CurveRefinementOrderedUnderBothPolicies) {
  const sched::TaskSet ts = make_set(4);
  const Hertz f = 80.0;
  const auto rms_w = sched::lehoczky_test(ts, f, sched::DemandModel::WcetOnly);
  const auto rms_c = sched::lehoczky_test(ts, f, sched::DemandModel::WorkloadCurve);
  ASSERT_LE(rms_c.overall, rms_w.overall + 1e-12);
  const auto edf_w = sched::edf_test(ts, f, sched::DemandModel::WcetOnly);
  const auto edf_c = sched::edf_test(ts, f, sched::DemandModel::WorkloadCurve);
  if (edf_w.schedulable) {
    ASSERT_TRUE(edf_c.schedulable);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingMonotonicity,
                         ::testing::Values(0x2001, 0x2002, 0x2003, 0x2004, 0x2005, 0x2006,
                                           0x2007, 0x2008));

}  // namespace
}  // namespace wlc
