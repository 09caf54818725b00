#include <gtest/gtest.h>

#include <cmath>

#include "curve/discrete_curve.h"
#include "curve/pwl_curve.h"

namespace wlc::curve {
namespace {

DiscreteCurve from(std::vector<double> v, double dt = 1.0) {
  return DiscreteCurve(std::move(v), dt);
}

TEST(DiscreteCurve, SampleFromPwl) {
  const DiscreteCurve c = DiscreteCurve::sample(PwlCurve::affine(1.0, 2.0), 0.5, 5);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[4], 5.0);
  EXPECT_DOUBLE_EQ(c.horizon(), 2.0);
}

TEST(DiscreteCurve, EvalModes) {
  const DiscreteCurve c = from({0.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(c.eval_floor(1.7), 2.0);
  EXPECT_DOUBLE_EQ(c.eval_linear(1.5), 4.0);
  EXPECT_THROW(c.eval_floor(5.0), std::invalid_argument);
}

TEST(DiscreteCurve, PointwiseOpsTruncateToShorter) {
  const DiscreteCurve a = from({0.0, 1.0, 2.0, 3.0});
  const DiscreteCurve b = from({1.0, 1.0, 1.0});
  const DiscreteCurve s = a + b;
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[2], 3.0);
  EXPECT_DOUBLE_EQ((a - b)[2], 1.0);
  EXPECT_DOUBLE_EQ((2.0 * a)[3], 6.0);
  EXPECT_DOUBLE_EQ(DiscreteCurve::pointwise_min(a, b)[0], 0.0);
  EXPECT_DOUBLE_EQ(DiscreteCurve::pointwise_max(a, b)[0], 1.0);
}

TEST(DiscreteCurve, MismatchedGridRejected) {
  const DiscreteCurve a = from({0.0}, 1.0);
  const DiscreteCurve b = from({0.0}, 0.5);
  EXPECT_THROW(a + b, std::invalid_argument);
}

TEST(DiscreteCurve, MinPlusConvolutionAgainstDefinition) {
  const DiscreteCurve f = from({0.0, 5.0, 6.0, 12.0});
  const DiscreteCurve g = from({0.0, 1.0, 8.0, 9.0});
  const DiscreteCurve c = DiscreteCurve::min_plus_conv(f, g);
  for (std::size_t i = 0; i < c.size(); ++i) {
    double expect = 1e300;
    for (std::size_t k = 0; k <= i; ++k) expect = std::min(expect, f[i - k] + g[k]);
    EXPECT_DOUBLE_EQ(c[i], expect) << i;
  }
}

TEST(DiscreteCurve, ConvolutionWithZeroIsFloorEnvelope) {
  // f ⊗ 0 = running minimum prefix combination: (f⊗0)(i) = min_{k<=i} f(k)
  // because the zero curve lets the split sit anywhere.
  const DiscreteCurve f = from({0.0, 4.0, 2.0, 7.0});
  const DiscreteCurve z = DiscreteCurve::zeros(4, 1.0);
  const DiscreteCurve c = DiscreteCurve::min_plus_conv(f, z);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[1], 0.0);  // f(0) + 0
  EXPECT_DOUBLE_EQ(c[3], 0.0);
}

TEST(DiscreteCurve, DeconvolutionBacklogIdentity) {
  // (f ⊘ f)(0) is the largest single-step regression of f against itself = 0
  // for non-decreasing f; and (f ⊘ g)(0) = sup(f - g).
  const DiscreteCurve f = from({0.0, 3.0, 5.0, 9.0});
  const DiscreteCurve g = from({0.0, 1.0, 4.0, 4.0});
  const DiscreteCurve d = DiscreteCurve::min_plus_deconv(f, g);
  EXPECT_DOUBLE_EQ(d[0], DiscreteCurve::sup_diff(f, g));
}

TEST(DiscreteCurve, MaxPlusConvAgainstDefinition) {
  const DiscreteCurve f = from({0.0, 2.0, 3.0});
  const DiscreteCurve g = from({1.0, 1.0, 5.0});
  const DiscreteCurve c = DiscreteCurve::max_plus_conv(f, g);
  for (std::size_t i = 0; i < c.size(); ++i) {
    double expect = -1e300;
    for (std::size_t k = 0; k <= i; ++k) expect = std::max(expect, f[i - k] + g[k]);
    EXPECT_DOUBLE_EQ(c[i], expect);
  }
}

TEST(DiscreteCurve, MaxPlusDeconvIsSuffixInfimumWithZero) {
  const DiscreteCurve f = from({5.0, 1.0, 3.0, 2.0});
  const DiscreteCurve z = DiscreteCurve::zeros(4, 1.0);
  const DiscreteCurve d = DiscreteCurve::max_plus_deconv(f, z);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_DOUBLE_EQ(d[3], 2.0);
}

TEST(DiscreteCurve, SupDiffAndBacklogClassicResult) {
  // Token bucket (b=4, r=1) vs rate-latency (R=2, T=3): backlog = b + r·T.
  const DiscreteCurve alpha = DiscreteCurve::sample(PwlCurve::token_bucket(4.0, 1.0), 0.5, 41);
  const DiscreteCurve beta = DiscreteCurve::sample(PwlCurve::rate_latency(2.0, 3.0), 0.5, 41);
  EXPECT_DOUBLE_EQ(DiscreteCurve::sup_diff(alpha, beta), 4.0 + 1.0 * 3.0);
}

TEST(DiscreteCurve, HorizontalDeviationClassicResult) {
  // Delay bound for token bucket vs rate-latency: T + b/R = 3 + 2 = 5.
  const DiscreteCurve alpha = DiscreteCurve::sample(PwlCurve::token_bucket(4.0, 1.0), 0.5, 61);
  const DiscreteCurve beta = DiscreteCurve::sample(PwlCurve::rate_latency(2.0, 3.0), 0.5, 61);
  EXPECT_NEAR(DiscreteCurve::horizontal_deviation(alpha, beta), 5.0, 0.5 + 1e-9);
}

TEST(DiscreteCurve, HorizontalDeviationInfiniteWhenNeverServed) {
  const DiscreteCurve alpha = from({5.0, 5.0, 5.0});
  const DiscreteCurve beta = from({0.0, 1.0, 2.0});
  EXPECT_TRUE(std::isinf(DiscreteCurve::horizontal_deviation(alpha, beta)));
}

TEST(DiscreteCurve, ShapePredicates) {
  EXPECT_TRUE(from({0.0, 5.0, 9.0, 12.0}).is_concave());
  EXPECT_FALSE(from({0.0, 5.0, 9.0, 12.0}).is_convex());
  EXPECT_TRUE(from({0.0, 1.0, 3.0, 6.0}).is_convex());
  EXPECT_TRUE(from({0.0, 1.0, 2.0, 3.0}).is_concave());  // affine is both
  EXPECT_TRUE(from({0.0, 1.0, 2.0, 3.0}).is_convex());
  EXPECT_TRUE(from({0.0, 1.0, 1.0, 4.0}).is_non_decreasing());
  EXPECT_FALSE(from({0.0, 2.0, 1.0}).is_non_decreasing());
}

TEST(DiscreteCurve, ClosuresAndClamp) {
  const DiscreteCurve f = from({-1.0, 3.0, 2.0, 5.0});
  const DiscreteCurve nd = f.non_decreasing_closure();
  EXPECT_DOUBLE_EQ(nd[2], 3.0);
  const DiscreteCurve cl = f.clamp_floor(0.0);
  EXPECT_DOUBLE_EQ(cl[0], 0.0);
  const DiscreteCurve wo = f.with_origin(10.0);
  EXPECT_DOUBLE_EQ(wo[0], 9.0);
  EXPECT_DOUBLE_EQ(wo[1], 3.0);
}

TEST(DiscreteCurve, PseudoInverses) {
  const DiscreteCurve f = from({0.0, 2.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(f.inverse_lower(2.0), 1.0);
  EXPECT_DOUBLE_EQ(f.inverse_lower(3.0), 3.0);
  EXPECT_TRUE(std::isinf(f.inverse_lower(7.0)));
  EXPECT_DOUBLE_EQ(f.inverse_upper(2.0), 2.0);
  EXPECT_DOUBLE_EQ(f.inverse_upper(5.9), 2.0);
  EXPECT_DOUBLE_EQ(f.inverse_upper(100.0), 3.0);
  EXPECT_DOUBLE_EQ(f.inverse_upper(-1.0), -1.0);
}

}  // namespace
}  // namespace wlc::curve
