#include "workload/online_extract.h"

#include <algorithm>
#include <limits>

#include "common/assert.h"

namespace wlc::workload {

namespace {

/// Saturating narrowing of a 128-bit extremum to the reported Cycles range.
/// Clamping at the Cycles maximum is sound in both directions: a clamped
/// γᵘ value is still >= nothing it bounds could exceed representably, and a
/// clamped γˡ value only moves the lower bound *down* (true window sums
/// beyond the clamp are larger).
Cycles clamp_to_cycles(__int128 v, bool& saturated) {
  constexpr __int128 kMax = std::numeric_limits<Cycles>::max();
  if (v > kMax) {
    saturated = true;
    return std::numeric_limits<Cycles>::max();
  }
  return static_cast<Cycles>(v);
}

/// (hi, lo) halves ↔ __int128, the fixed wire layout of the accumulators.
OnlineExtractorState::Wide to_wide(__int128 v) {
  return {static_cast<std::int64_t>(v >> 64),
          static_cast<std::uint64_t>(static_cast<unsigned __int128>(v))};
}

__int128 from_wide(OnlineExtractorState::Wide w) {
  return (static_cast<__int128>(w.hi) << 64) |
         static_cast<__int128>(static_cast<unsigned __int128>(w.lo));
}

/// Free prefix-buffer room past the last max K + 1 totals. A longer batch is
/// split; compaction copies max K + 1 totals at most once per `slack`
/// accepted demands, a small fraction of the |K| work per demand.
std::size_t prefix_slack(std::size_t max_k) { return std::max<std::size_t>(max_k / 4, 1024); }

struct Extrema {
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
};

/// Extrema of hi[j] − lo[j] over j < n: the sums of the n windows whose
/// bounding totals they are. One contiguous, branch-free pass.
Extrema window_extrema(const std::uint64_t* hi, const std::uint64_t* lo, std::size_t n) {
  // Two interleaved accumulator pairs halve the compare-select chains.
  Extrema a, b;
  std::size_t j = 0;
  for (; j + 1 < n; j += 2) {
    const auto s0 = static_cast<std::int64_t>(hi[j] - lo[j]);
    const auto s1 = static_cast<std::int64_t>(hi[j + 1] - lo[j + 1]);
    a.max = std::max(a.max, s0);
    a.min = std::min(a.min, s0);
    b.max = std::max(b.max, s1);
    b.min = std::min(b.min, s1);
  }
  if (j < n) {
    const auto s = static_cast<std::int64_t>(hi[j] - lo[j]);
    a.max = std::max(a.max, s);
    a.min = std::min(a.min, s);
  }
  return {std::max(a.max, b.max), std::min(a.min, b.min)};
}

}  // namespace

OnlineWorkloadExtractor::OnlineWorkloadExtractor(std::vector<EventCount> ks) : ks_(std::move(ks)) {
  WLC_REQUIRE(!ks_.empty(), "need at least one window size");
  for (EventCount k : ks_) WLC_REQUIRE(k >= 1, "window sizes must be >= 1");
  ks_.push_back(1);  // k = 1 is always tracked (defines WCET/BCET)
  std::sort(ks_.begin(), ks_.end());
  ks_.erase(std::unique(ks_.begin(), ks_.end()), ks_.end());
  window_sum_.assign(ks_.size(), 0);
  max_sum_.assign(ks_.size(), std::numeric_limits<WideCycles>::min());
  min_sum_.assign(ks_.size(), std::numeric_limits<WideCycles>::max());
  window_seen_.assign(ks_.size(), false);
  init_prefix({});
}

void OnlineWorkloadExtractor::init_prefix(const std::vector<Cycles>& ring) {
  const auto r = static_cast<std::size_t>(ks_.back());
  prefix_cap_ = r + 1 + prefix_slack(r);
  prefix_.reserve(prefix_cap_);
  prefix_.assign(r + 1, 0);
  if (ring.empty()) return;  // a fresh extractor: an all-zero history
  std::size_t slot = ring_pos_;
  for (std::size_t i = 1; i <= r; ++i) {
    prefix_[i] = prefix_[i - 1] + static_cast<std::uint64_t>(ring[slot]);
    demand_cap_ = std::max(demand_cap_, ring[slot]);
    if (++slot == r) slot = 0;
  }
}

void OnlineWorkloadExtractor::reserve_prefix(std::size_t m) {
  if (prefix_.size() + m <= prefix_cap_) return;
  const auto keep = static_cast<std::ptrdiff_t>(ks_.back() + 1);
  prefix_.erase(prefix_.begin(), prefix_.end() - keep);
  // Only the retained demands can still enter a window, so a huge demand
  // that slid out stops holding the stream on the 128-bit path.
  demand_cap_ = 0;
  for (std::size_t i = 1; i < prefix_.size(); ++i) demand_cap_ = std::max(demand_cap_, demand_at(i));
}

void OnlineWorkloadExtractor::push(Cycles demand) {
  WLC_REQUIRE(demand >= 0, "execution demands must be non-negative");
  accept_run(std::span(&demand, 1));
}

bool OnlineWorkloadExtractor::try_push(Cycles demand) {
  if (demand < 0) {
    // Quarantine: count it and restart every in-flight window, so no
    // reported extremum joins demands from across the corrupted gap.
    ++quarantined_;
    if (clean_run_ > 0) {
      ++windows_reset_;
      std::fill(window_sum_.begin(), window_sum_.end(), 0);
      clean_run_ = 0;
    }
    return false;
  }
  accept_run(std::span(&demand, 1));
  return true;
}

EventCount OnlineWorkloadExtractor::try_push_all(std::span<const Cycles> demands) {
  EventCount accepted = 0;
  while (!demands.empty()) {
    const auto bad = std::find_if(demands.begin(), demands.end(), [](Cycles d) { return d < 0; });
    const auto clean = static_cast<std::size_t>(bad - demands.begin());
    accept_run(demands.first(clean));
    accepted += static_cast<EventCount>(clean);
    if (clean == demands.size()) break;
    try_push(demands[clean]);  // quarantines
    demands = demands.subspan(clean + 1);
  }
  return accepted;
}

void OnlineWorkloadExtractor::push_all(std::span<const Cycles> demands) {
  const auto bad = std::find_if(demands.begin(), demands.end(), [](Cycles d) { return d < 0; });
  accept_run(demands.first(static_cast<std::size_t>(bad - demands.begin())));
  if (bad != demands.end()) push(*bad);  // throws, the clean prefix applied
}

void OnlineWorkloadExtractor::accept_run(std::span<const Cycles> run) {
  const EventCount max_k = ks_.back();
  const std::size_t slack = prefix_cap_ - static_cast<std::size_t>(max_k) - 1;
  while (!run.empty()) {
    const auto batch = run.first(std::min(run.size(), slack));
    run = run.subspan(batch.size());
    reserve_prefix(batch.size());
    demand_cap_ = std::max(demand_cap_, *std::max_element(batch.begin(), batch.end()));
    // A window holds at most max K demands, each <= demand_cap_: its sum is
    // exact in the 64-bit totals, and fits an int64, if the product does.
    // A lone demand gains nothing from a pass per window size.
    if (batch.size() > 1 && demand_cap_ <= std::numeric_limits<Cycles>::max() / max_k) {
      accept_batch(batch);
    } else {
      for (Cycles d : batch) accept_one(d);
    }
  }
}

void OnlineWorkloadExtractor::accept_batch(std::span<const Cycles> batch) {
  const std::size_t m = batch.size();
  const std::size_t base = prefix_.size() - 1;  // total before the batch
  for (Cycles d : batch) prefix_.push_back(prefix_.back() + static_cast<std::uint64_t>(d));
  const std::size_t last = base + m;
  const auto run = static_cast<std::size_t>(clean_run_);
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    const auto k = static_cast<std::size_t>(ks_[i]);
    // batch[j] closes a clean k-window once run + j + 1 >= k; its sum is
    // prefix_[base + 1 + j] − prefix_[base + 1 + j − k].
    const std::size_t first = k > run + 1 ? k - run - 1 : 0;
    if (first < m) {
      const std::uint64_t* hi = prefix_.data() + base + 1 + first;
      const Extrema e = window_extrema(hi, hi - k, m - first);
      max_sum_[i] = std::max<WideCycles>(max_sum_[i], e.max);
      min_sum_[i] = std::min<WideCycles>(min_sum_[i], e.min);
      window_seen_[i] = true;
    }
    // The in-flight window: the last min(k, clean run) demands.
    window_sum_[i] =
        static_cast<std::int64_t>(prefix_[last] - prefix_[last - std::min(k, run + m)]);
  }
  events_ += static_cast<EventCount>(m);
  clean_run_ += static_cast<EventCount>(m);
  ring_pos_ = (ring_pos_ + m) % static_cast<std::size_t>(ks_.back());
}

void OnlineWorkloadExtractor::accept_one(Cycles demand) {
  prefix_.push_back(prefix_.back() + static_cast<std::uint64_t>(demand));
  ++events_;
  ++clean_run_;
  const std::size_t now = prefix_.size() - 1;
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    window_sum_[i] += demand;
    // The demand k events back slides out of the k-window.
    if (clean_run_ > ks_[i]) window_sum_[i] -= demand_at(now - static_cast<std::size_t>(ks_[i]));
    if (clean_run_ >= ks_[i]) {
      max_sum_[i] = std::max(max_sum_[i], window_sum_[i]);
      min_sum_[i] = std::min(min_sum_[i], window_sum_[i]);
      window_seen_[i] = true;
    }
  }
  if (++ring_pos_ == static_cast<std::size_t>(ks_.back())) ring_pos_ = 0;
}

bool OnlineWorkloadExtractor::ready() const { return window_seen_.front(); }

ExtractorHealth OnlineWorkloadExtractor::health() const {
  ExtractorHealth h;
  h.accepted = events_;
  h.quarantined = quarantined_;
  h.windows_reset = windows_reset_;
  constexpr WideCycles kMax = std::numeric_limits<Cycles>::max();
  for (std::size_t i = 0; i < ks_.size(); ++i)
    if (window_seen_[i] && (max_sum_[i] > kMax || min_sum_[i] > kMax)) h.saturated = true;
  return h;
}

WorkloadCurve OnlineWorkloadExtractor::upper() const {
  WLC_REQUIRE(ready(), "no window has completed yet");
  std::vector<WorkloadCurve::Point> pts{{0, 0}};
  bool saturated = false;
  // Quarantine gaps can leave a larger window's extremum below a smaller
  // window's (the big window only closed in a different clean run); γᵘ is
  // definitionally non-decreasing, and raising a value keeps it an upper
  // bound, so materialize the running maximum.
  WideCycles running = 0;
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    if (!window_seen_[i]) break;
    running = std::max(running, max_sum_[i]);
    pts.emplace_back(ks_[i], clamp_to_cycles(running, saturated));
  }
  return WorkloadCurve(Bound::Upper, std::move(pts));
}

OnlineExtractorState OnlineWorkloadExtractor::export_state() const {
  OnlineExtractorState s;
  s.ks = ks_;
  s.window_sum.reserve(ks_.size());
  s.max_sum.reserve(ks_.size());
  s.min_sum.reserve(ks_.size());
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    s.window_sum.push_back(to_wide(window_sum_[i]));
    s.max_sum.push_back(to_wide(max_sum_[i]));
    s.min_sum.push_back(to_wide(min_sum_[i]));
  }
  s.window_seen.assign(window_seen_.begin(), window_seen_.end());
  // The ring is the last max K demands, oldest at ring_pos_.
  const auto r = static_cast<std::size_t>(ks_.back());
  s.ring.resize(r);
  std::size_t slot = ring_pos_;
  for (std::size_t i = prefix_.size() - r; i < prefix_.size(); ++i) {
    s.ring[slot] = demand_at(i);
    if (++slot == r) slot = 0;
  }
  s.ring_pos = ring_pos_;
  s.events = events_;
  s.clean_run = clean_run_;
  s.quarantined = quarantined_;
  s.windows_reset = windows_reset_;
  return s;
}

OnlineWorkloadExtractor OnlineWorkloadExtractor::from_state(const OnlineExtractorState& s) {
  const std::size_t n = s.ks.size();
  WLC_REQUIRE(n >= 1, "extractor state has no window sizes");
  WLC_REQUIRE(s.ks.front() == 1, "extractor state must track k = 1");
  for (std::size_t i = 1; i < n; ++i)
    WLC_REQUIRE(s.ks[i] > s.ks[i - 1], "extractor state window sizes must be strictly increasing");
  WLC_REQUIRE(s.window_sum.size() == n && s.max_sum.size() == n && s.min_sum.size() == n &&
                  s.window_seen.size() == n,
              "extractor state per-window vectors disagree in size");
  WLC_REQUIRE(s.ring.size() == static_cast<std::size_t>(s.ks.back()),
              "extractor state ring size must equal the largest window");
  WLC_REQUIRE(s.ring_pos < s.ring.size(), "extractor state ring position out of range");
  WLC_REQUIRE(s.events >= 0 && s.clean_run >= 0 && s.quarantined >= 0 && s.windows_reset >= 0,
              "extractor state counters must be non-negative");
  WLC_REQUIRE(s.clean_run <= s.events, "extractor state clean run exceeds accepted events");
  for (Cycles d : s.ring) WLC_REQUIRE(d >= 0, "extractor state ring holds a negative demand");
  for (std::size_t i = 0; i < n; ++i) {
    if (s.window_seen[i])
      WLC_REQUIRE(from_wide(s.max_sum[i]) >= from_wide(s.min_sum[i]),
                  "extractor state extrema are inverted");
  }
  // Semantic checks: each running window sum is the ring's last
  // min(k, clean run) demands, and a window the clean run has closed was
  // folded into its extrema. Walk the ring newest to oldest once.
  {
    std::size_t slot = static_cast<std::size_t>(s.ring_pos);
    std::size_t taken = 0;
    __int128 sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto need = static_cast<std::size_t>(std::min(s.ks[i], s.clean_run));
      for (; taken < need; ++taken) {
        slot = (slot == 0 ? s.ring.size() : slot) - 1;
        sum += s.ring[slot];
      }
      const __int128 current = from_wide(s.window_sum[i]);
      WLC_REQUIRE(current == sum, "extractor state window sum disagrees with its ring");
      if (s.clean_run >= s.ks[i])
        WLC_REQUIRE(s.window_seen[i] && from_wide(s.min_sum[i]) <= current &&
                        current <= from_wide(s.max_sum[i]),
                    "extractor state extrema exclude the current window");
    }
  }

  OnlineWorkloadExtractor e;
  e.ks_ = s.ks;
  e.window_sum_.reserve(n);
  e.max_sum_.reserve(n);
  e.min_sum_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    e.window_sum_.push_back(from_wide(s.window_sum[i]));
    e.max_sum_.push_back(from_wide(s.max_sum[i]));
    e.min_sum_.push_back(from_wide(s.min_sum[i]));
  }
  e.window_seen_.assign(s.window_seen.begin(), s.window_seen.end());
  e.ring_pos_ = static_cast<std::size_t>(s.ring_pos);
  e.init_prefix(s.ring);
  e.events_ = s.events;
  e.clean_run_ = s.clean_run;
  e.quarantined_ = s.quarantined;
  e.windows_reset_ = s.windows_reset;
  return e;
}

std::int64_t OnlineWorkloadExtractor::resident_bytes(const std::vector<EventCount>& ks) {
  WLC_REQUIRE(!ks.empty(), "need at least one window size");
  const auto max_k = static_cast<std::size_t>(
      std::max<EventCount>(1, *std::max_element(ks.begin(), ks.end())));
  const std::size_t totals = max_k + 1 + prefix_slack(max_k);
  // Per window: three 128-bit sums, the size, and a seen bit (rounded up).
  const std::size_t per_window = 3 * sizeof(WideCycles) + sizeof(EventCount) + 1;
  return static_cast<std::int64_t>(totals * sizeof(std::uint64_t) + (ks.size() + 1) * per_window);
}

WorkloadCurve OnlineWorkloadExtractor::lower() const {
  WLC_REQUIRE(ready(), "no window has completed yet");
  std::vector<WorkloadCurve::Point> pts{{0, 0}};
  bool saturated = false;
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    if (!window_seen_[i]) break;
    pts.emplace_back(ks_[i], clamp_to_cycles(min_sum_[i], saturated));
  }
  return WorkloadCurve(Bound::Lower, std::move(pts));
}

}  // namespace wlc::workload
