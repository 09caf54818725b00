#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "trace/arrival_extract.h"
#include "trace/event_gen.h"
#include "trace/kgrid.h"
#include "workload/extract.h"
#include "workload/refine.h"

namespace wlc {
namespace {

using trace::PjdModel;
using trace::SporadicModel;

// `name` is the last field, so the test names gtest lists (from the
// parameter's raw bytes) do not carry a pointer that moves with the binary.
struct PjdCase {
  PjdModel model;
  const char* name;
};

class PjdConformance : public ::testing::TestWithParam<PjdCase> {};

TEST_P(PjdConformance, GeneratedTracesConformToAnalyticCurves) {
  const PjdModel& m = GetParam().model;
  common::Rng rng(777);
  const EventCount n = 300;
  const double horizon = static_cast<double>(n) * m.period;
  const auto upper = m.upper_curve(horizon);
  const auto lower = m.lower_curve();
  const auto ks = trace::make_kgrid({.max_k = n, .dense_limit = n, .growth = 2.0});
  // Query off-jump points: comparing step functions exactly at a jump is
  // ill-posed under floating point (1/π keeps k·step away from period
  // multiples for every k in range).
  const double step = m.period * 0.3183098861;
  for (int trial = 0; trial < 5; ++trial) {
    const auto ts = m.generate(n, rng);
    ASSERT_TRUE(std::is_sorted(ts.begin(), ts.end()));
    const auto extracted_u = trace::extract_upper_arrival(ts, ks);
    const auto extracted_l = trace::extract_lower_arrival(ts, ks);
    for (double d = 0.0; d < 0.8 * horizon; d += step) {
      ASSERT_LE(extracted_u.eval(d), static_cast<EventCount>(std::floor(upper.eval(d) + 1e-9)))
          << GetParam().name << " d=" << d;
      ASSERT_GE(extracted_l.eval(d), static_cast<EventCount>(std::floor(lower.eval(d) + 1e-9)))
          << GetParam().name << " d=" << d;
    }
  }
}

TEST_P(PjdConformance, AdversarialTraceConformsAndIsTight) {
  const PjdModel& m = GetParam().model;
  const EventCount n = 300;
  const double horizon = static_cast<double>(n) * m.period;
  const auto upper = m.upper_curve(horizon);
  const auto ts = m.generate_adversarial(n);
  const auto ks = trace::make_kgrid({.max_k = n, .dense_limit = n, .growth = 2.0});
  const auto extracted = trace::extract_upper_arrival(ts, ks);
  EventCount best_gap = std::numeric_limits<EventCount>::max();
  const double step = m.period * 0.3183098861;  // off-jump queries, see above
  for (double d = step; d < 0.5 * horizon; d += step) {
    const auto bound = static_cast<EventCount>(std::floor(upper.eval(d) + 1e-9));
    ASSERT_LE(extracted.eval(d), bound) << d;
    best_gap = std::min(best_gap, bound - extracted.eval(d));
  }
  // The adversarial trace touches (or nearly touches) the bound somewhere.
  EXPECT_LE(best_gap, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Models, PjdConformance,
    ::testing::Values(PjdCase{{1.0, 0.0, 0.0}, "no_jitter"},
                      PjdCase{{1.0, 0.4, 0.0}, "small_jitter"},
                      PjdCase{{1.0, 3.5, 0.2}, "big_jitter_spacing"},
                      PjdCase{{2.0, 2.0, 0.5}, "jitter_eq_period"}),
    [](const ::testing::TestParamInfo<PjdCase>& info) { return info.param.name; });

TEST(Sporadic, GeneratedTracesConform) {
  const SporadicModel m{0.5, 1.5};
  common::Rng rng(888);
  const auto upper = m.upper_curve();
  const auto lower = m.lower_curve();
  const auto ks = trace::make_kgrid({.max_k = 200, .dense_limit = 200, .growth = 2.0});
  const auto ts = m.generate(200, rng);
  const auto eu = trace::extract_upper_arrival(ts, ks);
  const auto el = trace::extract_lower_arrival(ts, ks);
  for (double d = 0.0; d < 80.0; d += 0.1591549431) {  // off-jump queries
    ASSERT_LE(eu.eval(d), static_cast<EventCount>(std::floor(upper.eval(d) + 1e-9))) << d;
    ASSERT_GE(el.eval(d), static_cast<EventCount>(std::floor(lower.eval(d) + 1e-9))) << d;
  }
}

TEST(Sporadic, AdversarialRealizesUpperCurveExactly) {
  const SporadicModel m{0.5, 1.5};
  const auto ts = m.generate_adversarial(100);
  const auto ks = trace::make_kgrid({.max_k = 100, .dense_limit = 100, .growth = 2.0});
  const auto eu = trace::extract_upper_arrival(ts, ks);
  for (double d = 0.0; d < 40.0; d += 0.1591549431)  // off-jump queries
    ASSERT_EQ(eu.eval(d), static_cast<EventCount>(std::floor(m.upper_curve().eval(d) + 1e-9)))
        << d;
}

TEST(Refine, ClosureTightensNonSubadditiveCurves) {
  // A curve with a kink: γᵘ(3) deliberately looser than γᵘ(1)+γᵘ(2).
  const workload::WorkloadCurve loose(workload::Bound::Upper,
                                      {{0, 0}, {1, 10}, {2, 14}, {3, 30}, {4, 32}});
  const auto tight = workload::tighten_upper(loose);
  EXPECT_EQ(tight.value(3), 24);  // 10 + 14
  EXPECT_EQ(tight.value(4), 28);  // 14 + 14
  // Never above the original, still a valid curve.
  for (EventCount k = 0; k <= 4; ++k) EXPECT_LE(tight.value(k), loose.value(k));
  EXPECT_TRUE(tight.consistent_with_definition());
}

TEST(Refine, LowerClosureRaisesSuperadditivity) {
  const workload::WorkloadCurve loose(workload::Bound::Lower,
                                      {{0, 0}, {1, 5}, {2, 12}, {3, 13}, {4, 14}});
  const auto tight = workload::tighten_lower(loose);
  EXPECT_EQ(tight.value(3), 17);  // 5 + 12
  EXPECT_EQ(tight.value(4), 24);  // 12 + 12
  for (EventCount k = 0; k <= 4; ++k) EXPECT_GE(tight.value(k), loose.value(k));
}

TEST(Refine, ExtractedCurvesAreFixpoints) {
  common::Rng rng(999);
  trace::DemandTrace d;
  for (int i = 0; i < 120; ++i) d.push_back(rng.uniform_int(0, 40));
  const auto up = workload::extract_upper_dense(d, 120);
  const auto lo = workload::extract_lower_dense(d, 120);
  const auto up2 = workload::tighten_upper(up);
  const auto lo2 = workload::tighten_lower(lo);
  for (EventCount k = 0; k <= 120; ++k) {
    ASSERT_EQ(up2.value(k), up.value(k)) << k;
    ASSERT_EQ(lo2.value(k), lo.value(k)) << k;
  }
}

TEST(Refine, RejectsWrongBoundKind) {
  const auto u = workload::WorkloadCurve::from_constant_demand(workload::Bound::Upper, 3);
  const auto l = workload::WorkloadCurve::from_constant_demand(workload::Bound::Lower, 3);
  EXPECT_THROW(workload::tighten_upper(l), std::invalid_argument);
  EXPECT_THROW(workload::tighten_lower(u), std::invalid_argument);
}

}  // namespace
}  // namespace wlc
