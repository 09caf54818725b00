// Tests for wlc::obs: metric exactness under concurrency, snapshot
// serialization, the span tracer, and the CLI's observability surface.
//
// The registry and tracer are process-wide, so every test starts from
// reset_for_testing() / clear_trace_for_testing(); the suite runs these
// tests in one process sequentially, which is exactly the "no concurrent
// instrumentation" contract those helpers require.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace wlc::obs {
namespace {

std::string fixture(const std::string& name) { return std::string(WLC_FIXTURE_DIR "/") + name; }

/// A temp path private to the running test. ctest runs every test as its
/// own process, in parallel, so a fixed file name would be shared between
/// tests that truncate each other's files.
std::string temp_path(const std::string& stem) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "wlc_obs_" + test->test_suite_name() + "." + test->name() + "." +
         stem;
}

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(ObsCounter, ExactAcrossPoolThreadsAndAfterPoolDestruction) {
  registry().reset_for_testing();
  Counter c = registry().counter("test.pool_counter");
  constexpr int kTasks = 200;
  {
    common::ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&c] { c.add(3); });
  }  // workers join here; their cells must be folded into the retired total
  EXPECT_EQ(c.total(), std::int64_t{3} * kTasks);
}

TEST(ObsCounter, HandlesAliasTheSameInstrument) {
  registry().reset_for_testing();
  Counter a = registry().counter("test.alias");
  Counter b = registry().counter("test.alias");
  a.add(5);
  b.add(7);
  EXPECT_EQ(a.total(), 12);
  EXPECT_EQ(b.total(), 12);
}

TEST(ObsGauge, TracksValueAndHighWatermark) {
  registry().reset_for_testing();
  Gauge g = registry().gauge("test.gauge");
  g.add(4);
  g.add(3);
  g.add(-5);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);
  g.set(1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max(), 7);  // watermark is monotone
}

TEST(ObsHistogram, BucketsBoundsAndStats) {
  registry().reset_for_testing();
  const std::int64_t bounds[] = {10, 100};
  Histogram h = registry().histogram("test.hist", bounds);
  h.observe(5);
  h.observe(10);  // bucket i counts v <= bounds[i]: lands in the first bucket
  h.observe(50);
  h.observe(500);  // past the last bound: overflow bucket
  const MetricsSnapshot snap = registry().snapshot();
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& r) { return r.name == "test.hist"; });
  ASSERT_NE(it, snap.histograms.end());
  const auto& row = *it;
  ASSERT_EQ(row.bounds, (std::vector<std::int64_t>{10, 100}));
  EXPECT_EQ(row.counts, (std::vector<std::int64_t>{2, 1, 1}));
  EXPECT_EQ(row.count, 4);
  EXPECT_EQ(row.sum, 565);
  EXPECT_EQ(row.min, 5);
  EXPECT_EQ(row.max, 500);
}

TEST(ObsHistogram, QuantileInterpolationGolden) {
  // Hand-computed linear interpolation: bucket i spans (bounds[i-1],
  // bounds[i]], the target rank is q*count, and the estimate interpolates
  // inside the crossing bucket.
  registry().reset_for_testing();
  const std::int64_t bounds[] = {10, 100};
  Histogram h = registry().histogram("test.quant", bounds);
  for (std::int64_t v : {2, 4, 6, 8, 10}) h.observe(v);        // bucket 0
  for (std::int64_t v : {20, 40, 60, 80, 100}) h.observe(v);   // bucket 1
  const MetricsSnapshot snap = registry().snapshot();
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& r) { return r.name == "test.quant"; });
  ASSERT_NE(it, snap.histograms.end());
  // p50: rank 5 falls exactly at the end of bucket 0 → its upper edge.
  EXPECT_DOUBLE_EQ(it->quantile(0.50), 10.0);
  // p90: rank 9 is 4/5 into bucket 1 → 10 + 0.8 * (100 - 10) = 82.
  EXPECT_DOUBLE_EQ(it->quantile(0.90), 82.0);
  // The extremes clamp to the observed min/max, not to bucket edges.
  EXPECT_DOUBLE_EQ(it->quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(it->quantile(1.0), 100.0);
}

TEST(ObsHistogram, QuantileOverflowBucketInterpolatesToObservedMax) {
  registry().reset_for_testing();
  const std::int64_t bounds[] = {10};
  Histogram h = registry().histogram("test.quant_over", bounds);
  h.observe(5);
  h.observe(500);  // overflow bucket: spans (10, observed max]
  const MetricsSnapshot snap = registry().snapshot();
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& r) { return r.name == "test.quant_over"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_DOUBLE_EQ(it->quantile(1.0), 500.0);
  // Rank 1.5 is halfway into the overflow bucket: 10 + 0.5 * (500 - 10).
  EXPECT_DOUBLE_EQ(it->quantile(0.75), 255.0);
  // Empty histograms answer 0 rather than poisoning downstream math.
  EXPECT_DOUBLE_EQ(MetricsSnapshot::HistogramRow{}.quantile(0.5), 0.0);
}

TEST(ObsHistogram, ExemplarTracksSlowestBucketAndItsSpan) {
  registry().reset_for_testing();
  clear_trace_for_testing();
  set_tracing_enabled(true);
  const std::int64_t bounds[] = {10, 100};
  Histogram h = registry().histogram("test.exemplar", bounds);
  {
    WLC_TRACE_SPAN("test.slow_path");
    h.observe(500);  // overflow bucket, inside the span
  }
  const MetricsSnapshot first = registry().snapshot();
  const auto row = [](const MetricsSnapshot& s) {
    return *std::find_if(s.histograms.begin(), s.histograms.end(),
                         [](const auto& r) { return r.name == "test.exemplar"; });
  };
  const auto r1 = row(first);
  EXPECT_EQ(r1.exemplar_bucket, 2);  // the overflow bucket
  EXPECT_NE(r1.exemplar_span, 0u);
  // A faster sample never displaces the slowest-bucket exemplar...
  h.observe(3);
  const auto r2 = row(registry().snapshot());
  EXPECT_EQ(r2.exemplar_bucket, 2);
  EXPECT_EQ(r2.exemplar_span, r1.exemplar_span);
  // ...but another sample in the same slowest bucket refreshes the span.
  {
    WLC_TRACE_SPAN("test.slow_path_again");
    h.observe(900);
  }
  const auto r3 = row(registry().snapshot());
  EXPECT_EQ(r3.exemplar_bucket, 2);
  EXPECT_NE(r3.exemplar_span, r1.exemplar_span);
  set_tracing_enabled(false);
  clear_trace_for_testing();
}

TEST(ObsHistogram, ExactUnderConcurrentObservation) {
  registry().reset_for_testing();
  Histogram h = registry().histogram("test.mt_hist", default_latency_bounds_us());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(i % 97);
    });
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = registry().snapshot();
  const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                               [](const auto& r) { return r.name == "test.mt_hist"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->count, std::int64_t{kThreads} * kPerThread);
}

TEST(ObsHistogram, SnapshotQuantilesAreSafeUnderConcurrentObservation) {
  // Snapshot-and-read while writers hammer observe(): quantile() works on
  // the snapshot copy, so every read must be race-free (the TSan CI lane
  // pins this) and internally consistent (count == Σ counts).
  registry().reset_for_testing();
  Histogram h = registry().histogram("test.live_quant", default_latency_bounds_us());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t)
    writers.emplace_back([&h, &stop] {
      std::int64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h.observe(v % 1000);
        ++v;
      }
    });
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = registry().snapshot();
    const auto it = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                                 [](const auto& r) { return r.name == "test.live_quant"; });
    ASSERT_NE(it, snap.histograms.end());
    std::int64_t total = 0;
    for (const std::int64_t c : it->counts) total += c;
    EXPECT_EQ(total, it->count);
    const double p50 = it->quantile(0.50);
    const double p99 = it->quantile(0.99);
    EXPECT_LE(p50, p99);
    if (it->count > 0) {
      EXPECT_GE(p50, static_cast<double>(it->min));
      EXPECT_LE(p99, static_cast<double>(it->max));
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// --- Exporters: Prometheus text exposition and the JSON decoder ----------

TEST(ObsExport, PrometheusTextExposition) {
  registry().reset_for_testing();
  registry().counter("requests.served").add(7);
  Gauge g = registry().gauge("pool.depth");
  g.set(9);
  g.set(4);
  const std::int64_t bounds[] = {10, 100};
  Histogram h = registry().histogram("frame.us", bounds);
  h.observe(5);
  h.observe(50);
  h.observe(500);
  const std::string prom = to_prometheus(registry().snapshot());

  EXPECT_NE(prom.find("# TYPE wlc_requests_served_total counter\n"
                      "wlc_requests_served_total 7\n"),
            std::string::npos);
  EXPECT_NE(prom.find("wlc_pool_depth 4\n"), std::string::npos);
  EXPECT_NE(prom.find("wlc_pool_depth_max 9\n"), std::string::npos);
  // Cumulative le-buckets, the +Inf bucket equal to the total count, and
  // the conventional _sum/_count pair.
  EXPECT_NE(prom.find("wlc_frame_us_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(prom.find("wlc_frame_us_bucket{le=\"100\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("wlc_frame_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("wlc_frame_us_sum 555\n"), std::string::npos);
  EXPECT_NE(prom.find("wlc_frame_us_count 3\n"), std::string::npos);
}

TEST(ObsExport, JsonRoundTripsThroughDecoder) {
  registry().reset_for_testing();
  registry().counter("a.count").add(11);
  registry().gauge("b.gauge").set(-3);
  const std::int64_t bounds[] = {10, 100};
  Histogram h = registry().histogram("c.hist", bounds);
  for (std::int64_t v : {2, 4, 6, 8, 10, 20, 40, 60, 80, 100}) h.observe(v);
  const MetricsSnapshot orig = registry().snapshot();

  const MetricsSnapshot decoded = decode_metrics_json(orig.to_json());
  ASSERT_EQ(decoded.counters.size(), orig.counters.size());
  EXPECT_EQ(decoded.counters[0].name, "a.count");
  EXPECT_EQ(decoded.counters[0].value, 11);
  ASSERT_EQ(decoded.gauges.size(), orig.gauges.size());
  EXPECT_EQ(decoded.gauges[0].value, -3);
  ASSERT_EQ(decoded.histograms.size(), 1u);
  const auto& row = decoded.histograms[0];
  EXPECT_EQ(row.bounds, orig.histograms[0].bounds);
  EXPECT_EQ(row.counts, orig.histograms[0].counts);
  EXPECT_EQ(row.count, orig.histograms[0].count);
  EXPECT_EQ(row.sum, orig.histograms[0].sum);
  EXPECT_EQ(row.min, orig.histograms[0].min);
  EXPECT_EQ(row.max, orig.histograms[0].max);
  // Quantiles recompute identically from the decoded buckets.
  EXPECT_DOUBLE_EQ(row.quantile(0.90), orig.histograms[0].quantile(0.90));
}

TEST(ObsExport, DecoderAcceptsStatsEnvelopeAndUnknownFields) {
  registry().reset_for_testing();
  registry().counter("x.y").add(5);
  const std::string doc = "{\"schema_version\": 1, \"uptime_s\": 12, \"pool\": {\"live\": 0},\n"
                          "\"future_field\": [1, {\"nested\": true}],\n"
                          "\"metrics\": " + registry().snapshot().to_json() + "}";
  const MetricsSnapshot snap = decode_metrics_json(doc);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "x.y");
  EXPECT_EQ(snap.counters[0].value, 5);
}

TEST(ObsExport, SchemaMismatchIsADistinctError) {
  const std::string doc =
      "{\"schema_version\": 99, \"counters\": {}, \"gauges\": {}, \"histograms\": {}}";
  try {
    decode_metrics_json(doc);
    FAIL() << "expected SchemaMismatchError";
  } catch (const SchemaMismatchError& e) {
    EXPECT_EQ(e.found(), 99);
    EXPECT_EQ(e.expected(), MetricsSnapshot::kSchemaVersion);
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos);
  }
  // Malformed JSON is a ParseError, not a schema problem.
  EXPECT_THROW(decode_metrics_json("{\"counters\": {"), ParseError);
  // Well-formed JSON that is not a metrics document at all.
  EXPECT_THROW(decode_metrics_json("{\"schema_version\": 1}"), ParseError);
}

TEST(ObsPool, InstrumentationCountsTasksAndDrainsQueue) {
  registry().reset_for_testing();
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  {
    common::ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), kTasks);
  const MetricsSnapshot snap = registry().snapshot();
  std::int64_t tasks = -1, queue_depth = -1, workers = -1, run_count = -1;
  for (const auto& c : snap.counters)
    if (c.name == "pool.tasks") tasks = c.value;
  for (const auto& g : snap.gauges) {
    if (g.name == "pool.queue_depth") queue_depth = g.value;
    if (g.name == "pool.workers") workers = g.value;
  }
  for (const auto& h : snap.histograms)
    if (h.name == "pool.task_run_us") run_count = h.count;
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(queue_depth, 0);  // fully drained
  EXPECT_EQ(workers, 0);      // all exited
  EXPECT_EQ(run_count, kTasks);
}

TEST(ObsSnapshot, JsonIsWellFormedAndNameSorted) {
  registry().reset_for_testing();
  registry().counter("b.second").add(2);
  registry().counter("a.first").add(1);
  registry().gauge("g.level").set(9);
  const std::int64_t bounds[] = {1};
  registry().histogram("h.lat", bounds).observe(3);
  const std::string json = registry().snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_LT(json.find("\"a.first\""), json.find("\"b.second\""));
  EXPECT_NE(json.find("\"g.level\": {\"value\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [1]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [0,1]"), std::string::npos);
}

TEST(ObsTracer, RecordsSpansFromMultipleThreadsIntoOneTrace) {
  clear_trace_for_testing();
  set_tracing_enabled(true);
  {
    WLC_TRACE_SPAN("test.main_span");
    common::ThreadPool pool(2);
    // Rendezvous: each task waits until both workers hold one, so both
    // worker threads are guaranteed to record a span (a fast worker could
    // otherwise drain the whole queue alone).
    std::atomic<int> arrived{0};
    for (int i = 0; i < 2; ++i)
      pool.submit([&arrived] {
        WLC_TRACE_SPAN("test.worker_span");
        arrived.fetch_add(1);
        while (arrived.load() < 2) std::this_thread::yield();
      });
  }
  set_tracing_enabled(false);
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_EQ(trace.front(), '[');
  EXPECT_NE(trace.find("\"test.main_span\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.worker_span\""), std::string::npos);
  EXPECT_NE(trace.find("\"pool.task\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // One thread_name metadata event per thread that recorded spans: the main
  // thread plus both workers.
  EXPECT_GE(count_occurrences(trace, "\"thread_name\""), 3);
  EXPECT_EQ(dropped_span_count(), 0u);
}

TEST(ObsTracer, DisabledSpansRecordNothing) {
  clear_trace_for_testing();
  ASSERT_FALSE(tracing_enabled());
  { WLC_TRACE_SPAN("test.should_not_appear"); }
  std::ostringstream os;
  write_chrome_trace(os);
  EXPECT_EQ(os.str().find("test.should_not_appear"), std::string::npos);
  EXPECT_EQ(os.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsTracer, RingOverflowDropsOldestAndCounts) {
  clear_trace_for_testing();
  set_tracing_enabled(true);
  constexpr int kSpans = 20000;  // > ring capacity (16384)
  for (int i = 0; i < kSpans; ++i) {
    WLC_TRACE_SPAN("test.flood");
  }
  set_tracing_enabled(false);
  EXPECT_GT(dropped_span_count(), 0u);
  std::ostringstream os;
  write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"test.flood\""), std::string::npos);
  clear_trace_for_testing();
  EXPECT_EQ(dropped_span_count(), 0u);
}

// --- CLI observability surface --------------------------------------------

TEST(ObsCli, PrimaryOutputIsByteIdenticalWithAndWithoutObsFlags) {
  // --metrics-out/--trace-out must never perturb the analysis stream.
  const std::string path = fixture("polling_clean.csv");
  const std::string mpath = temp_path("m.json");
  const std::string tpath = temp_path("t.json");
  std::ostringstream plain_out, plain_err, obs_out, obs_err;
  ASSERT_EQ(cli::run({"extract", path, "--threads", "2"}, plain_out, plain_err), 0)
      << plain_err.str();
  ASSERT_EQ(cli::run({"extract", path, "--threads", "2", "--metrics-out", mpath, "--trace-out",
                      tpath},
                     obs_out, obs_err),
            0)
      << obs_err.str();
  EXPECT_EQ(plain_out.str(), obs_out.str());
  EXPECT_EQ(plain_err.str(), obs_err.str());
  std::remove(mpath.c_str());
  std::remove(tpath.c_str());
}

TEST(ObsCli, MetricsOutCapturesPipelineCounters) {
  registry().reset_for_testing();
  const std::string path = fixture("polling_clean.csv");
  const std::string mpath = temp_path("metrics.json");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"extract", path, "--threads", "2", "--metrics-out", mpath}, out, err), 0)
      << err.str();
  std::ifstream f(mpath);
  ASSERT_TRUE(f.good());
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"extract.windows_scanned\""), std::string::npos);
  EXPECT_NE(json.find("\"extract.grid_entries\""), std::string::npos);
  EXPECT_NE(json.find("\"trace.rows_kept\": 20"), std::string::npos);
  EXPECT_NE(json.find("\"pool.tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"pool.task_wait_us\""), std::string::npos);
  std::remove(mpath.c_str());
}

TEST(ObsCli, TraceOutRecordsSpansFromAtLeastTwoThreads) {
  clear_trace_for_testing();
  const std::string path = fixture("polling_clean.csv");
  const std::string tpath = temp_path("trace.json");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"extract", path, "--threads", "4", "--trace-out", tpath}, out, err), 0)
      << err.str();
  EXPECT_FALSE(tracing_enabled());  // run() disarms tracing on the way out
  std::ifstream f(tpath);
  ASSERT_TRUE(f.good());
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"cli.load\""), std::string::npos);      // main thread
  EXPECT_NE(trace.find("\"pool.task\""), std::string::npos);     // workers
  EXPECT_NE(trace.find("\"extract.upper\""), std::string::npos);
  EXPECT_NE(trace.find("\"trace.parse_csv\""), std::string::npos);
  EXPECT_GE(count_occurrences(trace, "\"thread_name\""), 2);
  std::remove(tpath.c_str());
}

TEST(ObsCli, ReportPrintsMetricSnapshot) {
  registry().reset_for_testing();
  const std::string path = fixture("polling_clean.csv");
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"report", path, "--threads", "2"}, out, err), 0) << err.str();
  const std::string s = out.str();
  EXPECT_NE(s.find("20 events ingested"), std::string::npos);
  EXPECT_NE(s.find("counters:"), std::string::npos);
  EXPECT_NE(s.find("gauges:"), std::string::npos);
  EXPECT_NE(s.find("histograms:"), std::string::npos);
  EXPECT_NE(s.find("extract.windows_scanned"), std::string::npos);
  EXPECT_NE(s.find("pool.tasks"), std::string::npos);
}

TEST(ObsCli, ReportAcceptsMetricsJsonInPlaceOfATrace) {
  registry().reset_for_testing();
  registry().counter("offline.count").add(42);
  const std::string path = temp_path("report_in.json");
  {
    std::ofstream f(path);
    f << registry().snapshot().to_json();
  }
  std::ostringstream out, err;
  ASSERT_EQ(cli::run({"report", path}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("metric snapshot decoded from"), std::string::npos);
  EXPECT_NE(out.str().find("offline.count"), std::string::npos);
  EXPECT_NE(out.str().find("42"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsCli, ReportOnMismatchedSchemaVersionExitsTwo) {
  const std::string path = temp_path("report_bad.json");
  {
    std::ofstream f(path);
    f << "{\"schema_version\": 99, \"counters\": {}, \"gauges\": {}, \"histograms\": {}}\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(cli::run({"report", path}, out, err), 2);
  EXPECT_NE(err.str().find("schema_version 99"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsCli, StatsNeedsConnectAndAKnownFormat) {
  std::ostringstream out, err;
  EXPECT_EQ(cli::run({"stats"}, out, err), 2);  // no trace positional required
  EXPECT_NE(err.str().find("--connect"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(cli::run({"stats", "--connect", "unix:/nowhere", "--format", "xml"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("--format"), std::string::npos);
}

TEST(ObsCli, UnwritableObsOutputPathIsAUsageError) {
  const std::string path = fixture("polling_clean.csv");
  std::ostringstream out, err;
  EXPECT_EQ(cli::run({"extract", path, "--metrics-out", "/nonexistent/dir/m.json"}, out, err), 2);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace wlc::obs
