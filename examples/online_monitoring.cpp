// Online workload characterization and DVS on a live decoder.
//
// A deployed player cannot extract curves offline — it watches its own
// per-macroblock demands, maintains γᵘ/γˡ incrementally with the
// OnlineWorkloadExtractor (bounded memory, fed one decoded frame at a time),
// and uses the current curve to pick the low clock of a two-mode DVS
// governor. The example replays a synthetic MPEG-2 clip, tightens the clock
// as evidence accumulates, and verifies the final choice against the
// full-trace curves.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <span>

#include "common/table.h"
#include "mpeg/trace_gen.h"
#include "rtc/sizing.h"
#include "sim/components.h"
#include "trace/arrival_extract.h"
#include "trace/kgrid.h"
#include "workload/extract.h"
#include "workload/online_extract.h"

int main() {
  using namespace wlc;

  mpeg::TraceConfig cfg;
  cfg.stream.width = 352;
  cfg.stream.height = 224;
  cfg.stream.bitrate = 2.5e6;
  cfg.frames = 60;
  cfg.pe1_frequency = 60e6;
  const mpeg::ClipTrace clip = mpeg::generate_clip_trace(cfg, mpeg::clip_library()[8]);
  const EventCount frame_mbs = cfg.stream.mb_per_frame();

  // Track one GOP of window sizes, always including whole-frame multiples
  // (the windows the sizing questions are asked about).
  std::vector<EventCount> ks;
  for (EventCount k = 1; k <= 12 * frame_mbs; k = std::max(k + 1, (k * 5) / 4)) ks.push_back(k);
  for (EventCount f = 1; f <= 12; ++f) ks.push_back(f * frame_mbs);
  workload::OnlineWorkloadExtractor monitor(ks);

  std::cout << "online characterization of '" << clip.name << "' ("
            << clip.pe2_input.size() << " macroblocks)\n\n";
  common::Table table({"after [frames]", "γᵘ(1) so far", "γᵘ(1 frame) so far",
                       "long-run estimate [cycles/MB]"});
  const trace::DemandTrace demands = trace::demands_of(clip.pe2_input);
  const auto per_frame = static_cast<std::size_t>(frame_mbs);
  std::size_t next_report = 5;
  for (std::size_t start = 0; start < demands.size(); start += per_frame) {
    // One batch per decoded frame (one pass per tracked window size). The
    // try_ form, not push_all: a deployed monitor must survive a corrupted
    // sample (it would be quarantined and counted in health()) rather than
    // unwind the player with an exception.
    const std::size_t n = std::min(per_frame, demands.size() - start);
    monitor.try_push_all(std::span(demands).subspan(start, n));
    const std::size_t frames_seen = (start + n) / per_frame;
    if (n == per_frame && frames_seen == next_report) {
      const auto gu = monitor.upper();
      table.add_row({std::to_string(frames_seen), common::fmt_i(gu.wcet()),
                     common::fmt_i(gu.value(frame_mbs)),
                     common::fmt_f(gu.long_run_demand(), 0)});
      next_report *= 2;
    }
  }
  table.print(std::cout);

  // How much of the stream do the curves certify? All of it, unless
  // samples were quarantined or an extremum saturated.
  const auto health = monitor.health();
  std::cout << "\nmonitor health: " << health.accepted << " accepted, " << health.quarantined
            << " quarantined" << (health.degraded() ? " — curves certify clean runs only" : "")
            << "\n";

  // The monitor's final curve vs the offline batch extraction: identical on
  // the tracked windows (the extractor is exact, not an approximation).
  std::vector<std::int64_t> batch_ks(ks.begin(), ks.end());
  const auto offline = workload::extract_upper(demands, batch_ks);
  const auto online = monitor.upper();
  std::cout << "\noffline γᵘ(1 frame) = " << common::fmt_i(offline.value(frame_mbs))
            << ", online γᵘ(1 frame) = " << common::fmt_i(online.value(frame_mbs)) << " (equal: "
            << (offline.value(frame_mbs) == online.value(frame_mbs) ? "yes" : "NO") << ")\n";

  // Use the learned curve to size a DVS governor and validate by replay.
  // (The arrival grid must ladder to the full trace length — see
  // trace/kgrid.h on conservative top steps.)
  const auto arrival_ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(clip.pe2_input.size()), .dense_limit = 256,
       .growth = 1.02});
  const auto arr = trace::extract_upper_arrival(trace::timestamps_of(clip.pe2_input), arrival_ks);
  const Hertz f_hi = rtc::min_frequency_workload(arr, online, frame_mbs);
  const Hertz f_lo = 0.7 * f_hi;
  const auto dvs = sim::run_dvs_pipeline(clip.pe2_input, [&](std::int64_t backlog) {
    return backlog > frame_mbs / 8 ? f_hi : f_lo;
  });
  const auto constant = sim::run_fifo_pipeline(clip.pe2_input, f_hi);
  std::cout << "\nDVS with the learned curve: clocks " << common::fmt_f(f_lo / 1e6, 1) << "/"
            << common::fmt_f(f_hi / 1e6, 1) << " MHz, max backlog " << dvs.max_backlog << "/"
            << frame_mbs << " MBs, energy " << common::fmt_pct(dvs.energy / constant.energy)
            << " of the constant-clock run\n";
  return dvs.max_backlog <= frame_mbs ? 0 : 1;
}
