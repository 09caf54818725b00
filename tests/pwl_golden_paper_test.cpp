// Golden §3.2 through the PWL storage form (CTest label `pwl`): the sizing
// verdict re-run on a compacted workload curve. At eps = 0 the compacted
// curve reproduces F^γ_min ≈ 364.4 MHz / F^w_min ≈ 744.3 MHz bit-for-bit; at
// eps > 0 the clock can only move *up* (an upper curve loosened upward
// demands more service, never less) and the paper's >50 % savings claim
// must survive a realistic budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "curve/compact.h"
#include "curve/discrete_curve.h"
#include "mpeg/analyze.h"
#include "mpeg/clip.h"
#include "mpeg/trace_gen.h"
#include "rtc/sizing.h"
#include "trace/arrival_curve.h"
#include "workload/workload_curve.h"

namespace wlc::curve {
namespace {

struct CombinedCurves {
  workload::WorkloadCurve gamma_u;
  trace::EmpiricalArrivalCurve arrivals;
};

/// Same combined 14-clip extraction as tests/golden_paper_test.cpp, cached
/// once per process — the extraction dominates these tests' runtime.
const CombinedCurves& combined_clips() {
  static const CombinedCurves* combined = [] {
    mpeg::TraceConfig cfg;
    cfg.frames = 48;
    cfg.pe1_frequency = 150e6;
    mpeg::AnalyzeOptions opt;  // dense_limit 512 / growth 1.01, the paper grid
    opt.min_max_k = 24 * cfg.stream.mb_per_frame();
    common::ThreadPool pool;
    const auto clips = mpeg::analyze_clips(cfg, mpeg::clip_library(), opt, pool);
    auto gu = clips.front().gamma_u;
    auto arr = clips.front().alpha_u;
    for (std::size_t i = 1; i < clips.size(); ++i) {
      gu = workload::WorkloadCurve::combine(gu, clips[i].gamma_u);
      arr = trace::EmpiricalArrivalCurve::combine(arr, clips[i].alpha_u);
    }
    return new CombinedCurves{std::move(gu), std::move(arr)};
  }();
  return *combined;
}

/// γᵘ through the PWL tier: compact the breakpoint values (the serve tier's
/// grid — one sample per breakpoint, dt = 1, cycles exact in double), then
/// rebuild a WorkloadCurve whose breakpoints carry the compacted values
/// rounded up to integral cycles. The origin stays pinned at (0, 0) —
/// γᵘ(0) = 0 exactly, so that is still an upper bound.
workload::WorkloadCurve tiered_gamma(const workload::WorkloadCurve& gu,
                                     const CompactBudget& budget) {
  const auto& pts = gu.points();
  std::vector<double> v;
  v.reserve(pts.size());
  for (const auto& p : pts) v.push_back(static_cast<double>(p.second));
  const CompactCurve c = CompactCurve::compact_upper(DiscreteCurve(std::move(v), 1.0), budget);

  std::vector<workload::WorkloadCurve::Point> out;
  out.reserve(pts.size());
  out.push_back({0, 0});
  Cycles prev = 0;
  for (std::size_t j = 1; j < pts.size(); ++j) {
    const auto cycles =
        std::max(prev, static_cast<Cycles>(std::ceil(c.eval_index(j))));
    out.push_back({pts[j].first, cycles});
    prev = cycles;
  }
  return workload::WorkloadCurve(workload::Bound::Upper, std::move(out));
}

TEST(PwlGoldenPaper, ExactTierReproducesTheSizingVerdictBitForBit) {
  const CombinedCurves& c = combined_clips();
  const EventCount buffer = 1620;  // one 45×36-macroblock frame, as in §3.2

  const Hertz f_gamma = rtc::min_frequency_workload(c.arrivals, c.gamma_u, buffer);
  const Hertz f_wcet = rtc::min_frequency_wcet(c.arrivals, c.gamma_u.wcet(), buffer);
  const workload::WorkloadCurve tiered = tiered_gamma(c.gamma_u, CompactBudget{});
  const Hertz f_tiered = rtc::min_frequency_workload(c.arrivals, tiered, buffer);
  const Hertz f_wcet_tiered = rtc::min_frequency_wcet(c.arrivals, tiered.wcet(), buffer);

  // eps = 0 is an exact re-encoding: same breakpoints, same verdicts.
  EXPECT_EQ(tiered.points(), c.gamma_u.points());
  EXPECT_EQ(f_tiered, f_gamma);
  EXPECT_EQ(f_wcet_tiered, f_wcet);
  // And both still pin the captured §3.2 numbers.
  EXPECT_NEAR(f_tiered / 1e6, 364.4, 0.1);
  EXPECT_NEAR(f_wcet_tiered / 1e6, 744.3, 0.1);
  EXPECT_NEAR(f_tiered / f_wcet_tiered, 0.4896, 0.002);
}

TEST(PwlGoldenPaper, LossyTierOnlyLoosensTheVerdictConservatively) {
  const CombinedCurves& c = combined_clips();
  const EventCount buffer = 1620;
  const Hertz f_gamma = rtc::min_frequency_workload(c.arrivals, c.gamma_u, buffer);

  for (const CompactBudget budget : {CompactBudget{0.0, 1e-4}, CompactBudget{0.0, 1e-3}}) {
    const workload::WorkloadCurve tiered = tiered_gamma(c.gamma_u, budget);
    // An upper curve loosened upward: every breakpoint dominates the
    // original, so the required clock can only rise.
    for (std::size_t j = 0; j < tiered.points().size(); ++j) {
      ASSERT_EQ(tiered.points()[j].first, c.gamma_u.points()[j].first);
      ASSERT_GE(tiered.points()[j].second, c.gamma_u.points()[j].second);
    }
    const Hertz f_tiered = rtc::min_frequency_workload(c.arrivals, tiered, buffer);
    EXPECT_GE(f_tiered, f_gamma) << "lossy tier relaxed the clock requirement";
    // A permille-scale budget moves the verdict by at most its own order:
    // the savings claim survives.
    EXPECT_NEAR(f_tiered / 1e6, 364.4, 1.5);
    const Hertz f_wcet = rtc::min_frequency_wcet(c.arrivals, tiered.wcet(), buffer);
    EXPECT_LT(f_tiered / f_wcet, 0.55);
  }
}

}  // namespace
}  // namespace wlc::curve
