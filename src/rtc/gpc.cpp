#include "rtc/gpc.h"

#include "common/assert.h"
#include "obs/obs.h"

namespace wlc::rtc {

using curve::DiscreteCurve;

// The six curve-algebra applications below all route through the shape-aware
// engine (curve/engine.h): the zero curves built for the remaining-service
// bounds are Constant, so βˡ'/βᵘ' always take an O(n) fast path. The four
// calls that pair a stream curve with β take the O(n log n) monotone kernel
// whenever β is convex up to rounding, as a rate or rate-latency service
// curve sampled on any grid is; the stream curve may have any shape. Chain /
// fixed-priority analyses that revisit operand pairs hit the OpCache.
GpcResult analyze_gpc(const StreamBounds& input, const ResourceBounds& resource) {
  WLC_TRACE_SPAN("rtc.gpc");
  const DiscreteCurve& au = input.upper;
  const DiscreteCurve& al = input.lower;
  const DiscreteCurve& bu = resource.upper;
  const DiscreteCurve& bl = resource.lower;

  DiscreteCurve au_out = DiscreteCurve::pointwise_min(
      DiscreteCurve::min_plus_deconv(DiscreteCurve::min_plus_conv(au, bu), bl), bu);
  DiscreteCurve al_out = DiscreteCurve::pointwise_min(
      DiscreteCurve::min_plus_conv(DiscreteCurve::min_plus_deconv(al, bu), bl), bl);

  // βˡ' = sup_{0<=λ<=Δ}(βˡ − αᵘ)(λ), clamped at 0: max-plus convolution of
  // (βˡ − αᵘ) with the zero curve.
  const DiscreteCurve zero = DiscreteCurve::zeros(std::min(bl.size(), au.size()), bl.dt());
  DiscreteCurve bl_rem = DiscreteCurve::max_plus_conv(bl - au, zero).clamp_floor(0.0);
  // βᵘ' = inf_{μ>=Δ}(βᵘ − αˡ)(μ), clamped at 0: max-plus deconvolution with 0.
  const DiscreteCurve zero_u = DiscreteCurve::zeros(std::min(bu.size(), al.size()), bu.dt());
  DiscreteCurve bu_rem = DiscreteCurve::max_plus_deconv(bu - al, zero_u).clamp_floor(0.0);

  const double backlog = DiscreteCurve::sup_diff(au, bl);
  const double delay = DiscreteCurve::horizontal_deviation(au, bl.non_decreasing_closure());

  return GpcResult{StreamBounds{std::move(au_out), std::move(al_out)},
                   ResourceBounds{std::move(bu_rem), std::move(bl_rem)}, backlog, delay};
}

std::vector<GpcResult> analyze_chain(const StreamBounds& input,
                                     const std::vector<ResourceBounds>& resources) {
  WLC_REQUIRE(!resources.empty(), "chain needs at least one stage");
  std::vector<GpcResult> out;
  out.reserve(resources.size());
  const StreamBounds* stream = &input;
  for (const auto& res : resources) {
    out.push_back(analyze_gpc(*stream, res));
    stream = &out.back().output;
  }
  return out;
}

std::vector<GpcResult> analyze_fixed_priority(const std::vector<StreamBounds>& inputs,
                                              const ResourceBounds& resource) {
  WLC_REQUIRE(!inputs.empty(), "need at least one task");
  std::vector<GpcResult> out;
  out.reserve(inputs.size());
  const ResourceBounds* res = &resource;
  for (const auto& stream : inputs) {
    out.push_back(analyze_gpc(stream, *res));
    res = &out.back().remaining;
  }
  return out;
}

}  // namespace wlc::rtc
