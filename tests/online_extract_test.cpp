// Online-extractor suite: the batched push (prefix-sum buffer, one pass per
// window size) is pinned bit-for-bit to the per-demand path and, independent
// of both, to the batch extractor run on each clean segment of the stream.
// Covers random chunkings (including batches longer than the buffer slack,
// which split and force compaction), quarantine gaps landing anywhere in a
// batch, the 64-bit exactness guard at and past its boundary, mid-stream
// snapshot/restore, and the semantic validation of restored states
// (CTest label `online` — run under ASan/UBSan in CI: the batch pass reads
// the buffer through raw window offsets).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "workload/extract.h"
#include "workload/online_extract.h"

namespace wlc::workload {
namespace {

constexpr Cycles kMax = std::numeric_limits<Cycles>::max();

/// Random demands with a `bad_per_mille` share of negative (quarantined) ones.
std::vector<Cycles> stream(common::Rng& rng, std::size_t n, int bad_per_mille, Cycles hi = 5000) {
  std::vector<Cycles> out(n);
  for (auto& d : out)
    d = rng.uniform_int(0, 999) < bad_per_mille ? -1 - rng.uniform_int(0, 9)
                                                : rng.uniform_int(0, hi);
  return out;
}

/// A random sorted window-size set over [1, max_k] that always holds max_k.
std::vector<EventCount> random_ks(common::Rng& rng, EventCount max_k) {
  std::vector<EventCount> ks{max_k};
  const auto extra = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < extra; ++i) ks.push_back(rng.uniform_int(1, max_k));
  return ks;
}

/// Feeds `demands` through try_push_all in random chunks of 1..max_chunk.
void feed_chunked(OnlineWorkloadExtractor& ex, std::span<const Cycles> demands, common::Rng& rng,
                  std::int64_t max_chunk) {
  while (!demands.empty()) {
    const auto n = std::min<std::size_t>(demands.size(),
                                         static_cast<std::size_t>(rng.uniform_int(1, max_chunk)));
    ex.try_push_all(demands.first(n));
    demands = demands.subspan(n);
  }
}

void expect_same_state(const OnlineExtractorState& a, const OnlineExtractorState& b) {
  ASSERT_EQ(a.ks, b.ks);
  ASSERT_EQ(a.window_sum.size(), b.window_sum.size());
  for (std::size_t i = 0; i < a.ks.size(); ++i) {
    SCOPED_TRACE("k = " + std::to_string(a.ks[i]));
    EXPECT_EQ(a.window_sum[i].hi, b.window_sum[i].hi);
    EXPECT_EQ(a.window_sum[i].lo, b.window_sum[i].lo);
    EXPECT_EQ(a.window_seen[i], b.window_seen[i]);
    if (!a.window_seen[i]) continue;  // extrema are unset sentinels until then
    EXPECT_EQ(a.max_sum[i].hi, b.max_sum[i].hi);
    EXPECT_EQ(a.max_sum[i].lo, b.max_sum[i].lo);
    EXPECT_EQ(a.min_sum[i].hi, b.min_sum[i].hi);
    EXPECT_EQ(a.min_sum[i].lo, b.min_sum[i].lo);
  }
  EXPECT_EQ(a.ring, b.ring);
  EXPECT_EQ(a.ring_pos, b.ring_pos);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.clean_run, b.clean_run);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.windows_reset, b.windows_reset);
}

/// Independent reference: the batch extractor on every clean segment,
/// combined (a window never spans a quarantined demand).
void expect_matches_segment_batch(const OnlineWorkloadExtractor& ex,
                                  const std::vector<Cycles>& demands) {
  const OnlineExtractorState s = ex.export_state();
  std::vector<std::vector<Cycles>> segments(1);
  for (Cycles d : demands) {
    if (d >= 0)
      segments.back().push_back(d);
    else if (!segments.back().empty())
      segments.emplace_back();
  }
  for (std::size_t i = 0; i < s.ks.size(); ++i) {
    const EventCount k = s.ks[i];
    const std::vector<std::int64_t> grid{1, k};  // a grid must anchor k = 1
    bool seen = false;
    Cycles hi = 0, lo = 0;
    for (const auto& seg : segments) {
      if (static_cast<EventCount>(seg.size()) < k) continue;
      const Cycles u = extract_upper(seg, grid).value(k);
      const Cycles l = extract_lower(seg, grid).value(k);
      hi = seen ? std::max(hi, u) : u;
      lo = seen ? std::min(lo, l) : l;
      seen = true;
    }
    SCOPED_TRACE("k = " + std::to_string(k));
    ASSERT_EQ(static_cast<bool>(s.window_seen[i]), seen);
    if (!seen) continue;
    EXPECT_EQ(s.max_sum[i].lo, static_cast<std::uint64_t>(hi));
    EXPECT_EQ(s.min_sum[i].lo, static_cast<std::uint64_t>(lo));
  }
}

TEST(OnlineBatchPush, MatchesPerDemandPushBitForBit) {
  common::Rng rng(1201);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto ks = random_ks(rng, rng.uniform_int(1, 300));
    const auto demands = stream(rng, static_cast<std::size_t>(rng.uniform_int(0, 3000)),
                                static_cast<int>(rng.uniform_int(0, 20)));
    OnlineWorkloadExtractor per_demand(ks), batched(ks);
    for (Cycles d : demands) per_demand.try_push(d);
    feed_chunked(batched, demands, rng, round % 2 ? 64 : 2500);
    expect_same_state(batched.export_state(), per_demand.export_state());
    EXPECT_EQ(batched.events_seen(), per_demand.events_seen());
    if (per_demand.ready()) {
      EXPECT_EQ(batched.upper().points(), per_demand.upper().points());
      EXPECT_EQ(batched.lower().points(), per_demand.lower().points());
    }
  }
}

TEST(OnlineBatchPush, EqualsBatchExtractionPerCleanSegment) {
  common::Rng rng(1202);
  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto ks = random_ks(rng, rng.uniform_int(1, 200));
    const auto demands = stream(rng, 2000, static_cast<int>(rng.uniform_int(0, 8)));
    OnlineWorkloadExtractor batched(ks), per_demand(ks);
    feed_chunked(batched, demands, rng, 700);
    for (Cycles d : demands) per_demand.try_push(d);
    expect_matches_segment_batch(batched, demands);
    expect_matches_segment_batch(per_demand, demands);
  }
}

TEST(OnlineBatchPush, LongBatchesSplitAndCompactExactly) {
  // max K = 7 leaves the minimum slack, so a 5000-demand batch is split and
  // the buffer compacts every ~1000 demands.
  common::Rng rng(1203);
  const std::vector<EventCount> ks{1, 3, 7};
  const auto demands = stream(rng, 20000, 0);
  OnlineWorkloadExtractor batched(ks), per_demand(ks);
  for (std::size_t pos = 0; pos < demands.size(); pos += 5000)
    batched.try_push_all(std::span(demands).subspan(pos, 5000));
  for (Cycles d : demands) per_demand.push(d);
  expect_same_state(batched.export_state(), per_demand.export_state());
  expect_matches_segment_batch(batched, demands);
}

TEST(OnlineBatchPush, QuarantineAtEveryBatchOffset) {
  common::Rng rng(1204);
  const std::vector<EventCount> ks{1, 2, 5, 16};
  for (std::size_t at = 0; at < 40; ++at) {
    SCOPED_TRACE("quarantine at offset " + std::to_string(at));
    auto demands = stream(rng, 40, 0);
    demands[at] = -3;
    OnlineWorkloadExtractor batched(ks), per_demand(ks);
    batched.try_push_all(stream(rng, 0, 0));  // empty batch: a no-op
    EXPECT_EQ(batched.try_push_all(demands), 39);
    for (Cycles d : demands) per_demand.try_push(d);
    expect_same_state(batched.export_state(), per_demand.export_state());
  }
}

TEST(OnlineBatchPush, ExactnessGuardBoundary) {
  // At demand = kMax / max K every window sum still fits an int64 (the batch
  // pass runs); one past it the batch falls back to 128-bit sums. Both must
  // equal the per-demand path and the batch extractor.
  const std::vector<EventCount> ks{1, 2, 4};
  for (const Cycles top : {kMax / 4, kMax / 4 + 1, kMax / 2, kMax}) {
    SCOPED_TRACE("top demand " + std::to_string(top));
    common::Rng rng(static_cast<std::uint64_t>(top));
    std::vector<Cycles> demands(64);
    for (auto& d : demands) d = top - rng.uniform_int(0, 3);
    OnlineWorkloadExtractor batched(ks), per_demand(ks);
    batched.try_push_all(demands);
    for (Cycles d : demands) per_demand.try_push(d);
    expect_same_state(batched.export_state(), per_demand.export_state());
    EXPECT_EQ(batched.health().saturated, per_demand.health().saturated);
    EXPECT_EQ(batched.upper().points(), per_demand.upper().points());
  }
  // Saturation through the batch API: clamped and flagged, never wrapped.
  OnlineWorkloadExtractor ex({2});
  ex.try_push_all(std::vector<Cycles>{kMax, kMax, kMax});
  EXPECT_EQ(ex.upper().value(2), kMax);
  EXPECT_TRUE(ex.health().saturated);
}

TEST(OnlineBatchPush, SmallDemandsAfterAHugeOneStayExact) {
  // One huge demand sends batches down the 128-bit path until a compaction
  // drops it (~1000 demands later with max K = 30); state must match the
  // per-demand path throughout, and the batch reference at the end.
  common::Rng rng(1205);
  auto demands = stream(rng, 3000, 5);
  demands[100] = kMax / 2;
  OnlineWorkloadExtractor batched({1, 3, 9, 30}), per_demand({1, 3, 9, 30});
  feed_chunked(batched, demands, rng, 90);
  for (Cycles d : demands) per_demand.try_push(d);
  expect_same_state(batched.export_state(), per_demand.export_state());
  expect_matches_segment_batch(batched, demands);
}

TEST(OnlineBatchPush, HugeDemandsKeptThroughCompactionStayExact) {
  // max K = 4: the buffer holds 5 totals plus 1024 slack. Three kMax/3
  // demands land just before a compaction, which must keep counting them:
  // the next batch's windows sum past int64 and need the 128-bit path.
  const std::vector<EventCount> ks{1, 4};
  common::Rng rng(1207);
  std::vector<Cycles> demands = stream(rng, 1020, 0);
  for (int i = 0; i < 3; ++i) demands.push_back(kMax / 3);
  for (Cycles d : stream(rng, 8, 0)) demands.push_back(d);
  OnlineWorkloadExtractor batched(ks), per_demand(ks);
  batched.try_push_all(std::span(demands).first(1020));
  batched.try_push_all(std::span(demands).subspan(1020, 3));
  batched.try_push_all(std::span(demands).subspan(1023));
  for (Cycles d : demands) per_demand.try_push(d);
  expect_same_state(batched.export_state(), per_demand.export_state());
  EXPECT_TRUE(batched.health().saturated);

  // The same hazard at random: rare kMax/3 demands in random chunks.
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto mixed = stream(rng, 4000, 2);
    for (auto& d : mixed)
      if (rng.uniform_int(0, 199) == 0) d = kMax / 3;
    OnlineWorkloadExtractor b(ks), p(ks);
    feed_chunked(b, mixed, rng, 40);
    for (Cycles d : mixed) p.try_push(d);
    expect_same_state(b.export_state(), p.export_state());
  }
}

TEST(OnlineBatchPush, MidStreamRestoreResumesBitIdentically) {
  common::Rng rng(1206);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto ks = random_ks(rng, rng.uniform_int(1, 120));
    const auto demands = stream(rng, 1500, 10);
    const auto cut = static_cast<std::size_t>(rng.uniform_int(0, 1500));
    OnlineWorkloadExtractor uninterrupted(ks), first(ks);
    feed_chunked(uninterrupted, demands, rng, 300);
    feed_chunked(first, std::span(demands).first(cut), rng, 300);
    OnlineWorkloadExtractor restored = OnlineWorkloadExtractor::from_state(first.export_state());
    feed_chunked(restored, std::span(demands).subspan(cut), rng, 300);
    expect_same_state(restored.export_state(), uninterrupted.export_state());
  }
}

TEST(OnlineBatchPush, PushAllAppliesTheCleanPrefixThenThrows) {
  OnlineWorkloadExtractor ex({2});
  EXPECT_THROW(ex.push_all(std::vector<Cycles>{4, 6, -1, 9}), DomainError);
  EXPECT_EQ(ex.events_seen(), 2);
  EXPECT_EQ(ex.health().quarantined, 0);
  EXPECT_EQ(ex.upper().value(2), 10);
}

TEST(OnlineExtractorState, WindowSumThatDisagreesWithTheRingIsRejected) {
  OnlineWorkloadExtractor ex({1, 3, 8});
  ex.try_push_all(std::vector<Cycles>{5, 1, 4, 1, 5, 9, 2, 6, 5, 3});
  ASSERT_NO_THROW(OnlineWorkloadExtractor::from_state(ex.export_state()));
  for (std::size_t i = 0; i < 3; ++i) {
    OnlineExtractorState bad = ex.export_state();
    bad.window_sum[i].lo += 1;
    EXPECT_THROW(OnlineWorkloadExtractor::from_state(bad), DomainError) << "window " << i;
  }
  // A ring edit the window sums cover is caught the same way.
  OnlineExtractorState bad = ex.export_state();
  bad.ring[(bad.ring_pos + bad.ring.size() - 1) % bad.ring.size()] += 1;
  EXPECT_THROW(OnlineWorkloadExtractor::from_state(bad), DomainError);
}

TEST(OnlineExtractorState, ExtremaThatExcludeTheCurrentWindowAreRejected) {
  OnlineWorkloadExtractor ex({1, 4});
  ex.try_push_all(std::vector<Cycles>{7, 7, 7, 7, 1, 1, 1, 1});  // current 4-window: 4
  OnlineExtractorState bad = ex.export_state();
  bad.min_sum[1] = bad.window_sum[1];
  bad.min_sum[1].lo += 1;  // min above the closed current window
  EXPECT_THROW(OnlineWorkloadExtractor::from_state(bad), DomainError);

  // After a quarantine nothing is in flight, so the same extrema are fine.
  ex.try_push(-1);
  OnlineExtractorState gap = ex.export_state();
  EXPECT_EQ(gap.clean_run, 0);
  EXPECT_NO_THROW(OnlineWorkloadExtractor::from_state(gap));
}

TEST(OnlineExtractorFootprint, ResidentBytesCoverThePrefixBuffer) {
  // The estimate the serve daemon admits sessions by: at least one 8-byte
  // total per slot of the largest window, growing with the grid.
  const auto small = OnlineWorkloadExtractor::resident_bytes({1, 2, 4});
  const auto big = OnlineWorkloadExtractor::resident_bytes({1, 2, 65536});
  EXPECT_GE(big, 8 * 65537);
  EXPECT_GT(big, small);
  EXPECT_GT(OnlineWorkloadExtractor::resident_bytes({1, 2, 3, 4}), small);
}

}  // namespace
}  // namespace wlc::workload
