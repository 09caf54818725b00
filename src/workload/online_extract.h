// Incremental workload-curve extraction for live systems.
//
// The batch extractor (extract.h) needs the whole demand trace; a deployed
// monitor (or a long-running simulation) instead observes one activation at
// a time and wants current γᵘ/γˡ estimates at any moment — e.g. to drive the
// admission or DVS policies built on the curves. This extractor maintains,
// for a fixed set of window sizes K, the exact sliding-window demand extrema
// over everything observed so far, in O(|K|) time per event and
// O(|K| + max K) memory, independent of the trace length.
//
// Batched push. Accepted demands are kept as running prefix sums in a
// buffer of the last max K + 1 totals plus slack (compacted by one copy
// when the slack runs out), so the sum of any window of k recent demands is
// one subtraction, P[t] − P[t−k]. A batch of m clean demands appends m
// totals and then makes one contiguous pass per window size over the m
// window ends, with no per-element index wrapping. The totals are kept
// modulo 2^64, which is exact while every window sum fits an int64; that is
// guaranteed while (largest accepted demand) × max K does. Single demands,
// and streams that could exceed the bound, take a per-demand path over the
// 128-bit running sums instead; both paths give bit-identical state.
//
// The curves it reports are exactly what the batch extractor would produce
// on the same prefix restricted to the tracked window sizes (tested), and
// they only ever widen as the prefix grows: the upper extrema are
// non-decreasing and the lower extrema non-increasing in the observed
// prefix, so curves reported at time t remain valid bounds for every
// earlier prefix (a bound, once certified, is never retracted).
//
// Robustness (deployed-monitor hardening):
//  * Window sums are accumulated in 128-bit integers, so no sequence of
//    valid Cycles demands can wrap them. If an extremum exceeds the Cycles
//    range, the *reported* value saturates in the sound direction (γᵘ
//    clamps up to the Cycles maximum — still an upper bound) and the
//    health report flags `saturated` instead of silently wrapping.
//  * `try_push` quarantines invalid demands (negative values) instead of
//    throwing: the event is counted in the health report and every
//    in-flight window is restarted, so no reported extremum ever spans a
//    corrupted observation. The curves then certify the contiguous clean
//    runs of the stream — exactly what the health report says they do.
//    `push` keeps the strict contract (throws wlc::DomainError).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "workload/workload_curve.h"

namespace wlc::workload {

/// Complete, serializable state of an OnlineWorkloadExtractor — the payload
/// of a serve-daemon session snapshot. An extractor restored from the state
/// exported at event t and then fed the same demands as the original from
/// t onward reports bit-identical curves and health (pinned by tests): the
/// state *is* the extractor, there is no hidden residue.
///
/// The 128-bit window accumulators are stored as explicit (hi, lo) halves so
/// the struct has a fixed, portable wire layout independent of __int128.
struct OnlineExtractorState {
  struct Wide {
    std::int64_t hi = 0;
    std::uint64_t lo = 0;
  };

  std::vector<EventCount> ks;          ///< tracked window sizes, sorted, incl. 1
  std::vector<Wide> window_sum;        ///< per-k running window sums
  std::vector<Wide> max_sum;           ///< per-k extrema over closed windows
  std::vector<Wide> min_sum;
  std::vector<std::uint8_t> window_seen;  ///< per-k "some window closed" flags
  std::vector<Cycles> ring;            ///< last max(ks) accepted demands
  std::uint64_t ring_pos = 0;
  EventCount events = 0;
  EventCount clean_run = 0;
  EventCount quarantined = 0;
  EventCount windows_reset = 0;
};

/// Quarantine-with-counters health of an OnlineWorkloadExtractor — how much
/// of the observed stream the reported curves actually certify.
struct ExtractorHealth {
  EventCount accepted = 0;     ///< demands folded into the extrema
  EventCount quarantined = 0;  ///< invalid demands rejected by try_push
  EventCount windows_reset = 0;///< quarantine gaps that restarted window fill
  bool saturated = false;      ///< some reported value clamped to the Cycles range

  /// True when the curves certify less than the full observed stream.
  bool degraded() const { return quarantined > 0 || saturated; }
};

class OnlineWorkloadExtractor {
 public:
  /// `ks`: window sizes to track (deduplicated, sorted internally; >= 1).
  explicit OnlineWorkloadExtractor(std::vector<EventCount> ks);

  /// Observe the demand of the next activation. Throws wlc::DomainError on
  /// a negative demand (strict contract; the extractor state is unchanged).
  void push(Cycles demand);

  /// Non-throwing observation for deployed monitors: a negative demand is
  /// quarantined (health().quarantined increments, in-flight windows
  /// restart) and false is returned; otherwise behaves like push().
  bool try_push(Cycles demand);

  /// Batch observation, exactly equivalent to try_push in stream order on
  /// every element (bit-identical state afterwards); returns how many were
  /// accepted (the rest were quarantined). Each clean run of the batch is
  /// folded in with one pass per window size (see the header comment), so
  /// feeding m demands at once costs far less than m try_push calls. The
  /// serve daemon feeds whole Push-request batches through this.
  EventCount try_push_all(std::span<const Cycles> demands);

  /// Strict batch observation: push() on every element in order. Throws on
  /// the first negative demand with the preceding elements already applied.
  void push_all(std::span<const Cycles> demands);

  /// Accepted activations (quarantined ones excluded).
  EventCount events_seen() const { return events_; }

  /// Quarantine / saturation counters for the stream observed so far.
  ExtractorHealth health() const;

  /// True once at least min(ks) consecutive clean activations were observed
  /// (the smallest window closed), i.e. curves are available.
  bool ready() const;

  /// Current upper/lower curves over the tracked window sizes (plus the
  /// implicit exact k=1 point). Throws if !ready(). Values exceeding the
  /// Cycles range saturate conservatively (see header comment).
  WorkloadCurve upper() const;
  WorkloadCurve lower() const;

  /// Full internal state, suitable for crash-safe persistence. Restoring it
  /// with from_state() yields an extractor bit-identical to this one.
  OnlineExtractorState export_state() const;

  /// Rebuilds an extractor from an exported state. The state is validated
  /// structurally (consistent vector sizes, sorted window sizes, in-range
  /// ring position, coherent counters) and semantically (each running
  /// window sum equals the ring's last min(k, clean run) demands, and a
  /// window the clean run has closed lies inside its recorded extrema); an
  /// inconsistent state — e.g. from a corrupted or version-skewed snapshot
  /// that slipped past the outer checksum — throws wlc::DomainError rather
  /// than constructing an extractor that could report unsound bounds.
  static OnlineWorkloadExtractor from_state(const OnlineExtractorState& state);

  /// Heap bytes an extractor over window sizes `ks` holds: the prefix
  /// buffer plus the per-window state. Admission control sizes sessions by it.
  static std::int64_t resident_bytes(const std::vector<EventCount>& ks);

 private:
  using WideCycles = __int128;  ///< overflow-proof window accumulators

  OnlineWorkloadExtractor() = default;  ///< for from_state only

  /// Sets up the prefix buffer over `ring` (chronological from ring_pos_;
  /// empty: all zeros). Needs ks_ set.
  void init_prefix(const std::vector<Cycles>& ring);
  /// Folds a run of non-negative demands in, batched where exact.
  void accept_run(std::span<const Cycles> run);
  /// One batch: appends the prefix totals, then one pass per window size.
  /// Room for the batch must be reserved.
  void accept_batch(std::span<const Cycles> batch);
  /// One demand into the 128-bit running window sums (exact for any input).
  /// Room for its total must be reserved.
  void accept_one(Cycles demand);
  /// Makes room for `m` more totals, compacting to the last max K + 1 (and
  /// re-deriving demand_cap_ from the demands kept).
  void reserve_prefix(std::size_t m);
  /// Demand of the accepted event whose total is prefix_[i].
  Cycles demand_at(std::size_t i) const { return static_cast<Cycles>(prefix_[i] - prefix_[i - 1]); }

  std::vector<EventCount> ks_;
  std::vector<WideCycles> window_sum_;  ///< running sum of the last ks_[i] demands
  std::vector<WideCycles> max_sum_;     ///< extrema over all complete clean windows
  std::vector<WideCycles> min_sum_;
  std::vector<bool> window_seen_;       ///< extrema valid (some clean window closed)
  /// Running totals (mod 2^64) of accepted demands, oldest first; always
  /// holds at least the last max(ks_) + 1, so every window is a difference.
  std::vector<std::uint64_t> prefix_;
  std::size_t prefix_cap_ = 0;  ///< compaction threshold for prefix_
  Cycles demand_cap_ = 0;       ///< >= every demand held in prefix_
  std::size_t ring_pos_ = 0;    ///< exported ring's next slot (the oldest demand)
  EventCount events_ = 0;     ///< accepted demands
  EventCount clean_run_ = 0;  ///< accepted demands since the last quarantine
  EventCount quarantined_ = 0;
  EventCount windows_reset_ = 0;
};

}  // namespace wlc::workload
