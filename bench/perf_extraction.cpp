// PERF — google-benchmark microbenchmarks of trace analysis: workload-curve
// and arrival-curve extraction, dense versus compacted k-grids (the cost
// side of the DESIGN.md §5(1) ablation; the tightness side is printed by
// tab_fmin_sizing), the serial-vs-parallel extraction engine, the gap-engine
// ladder (per-k oracle scans vs the shared sliding-window index vs the
// streaming fallback — all bit-identical, so the ratios are pure speedup),
// and trace ingestion (strict CSV parsing vs the memory-mapped columnar
// format), capped by the end-to-end pair: load + γᵘ/γˡ on a 2M-row trace
// with a 64-entry grid, before (CSV + oracle) and after (columnar + shared
// index), and the online extractor's batched push (per-demand cost at the
// serve daemon's grid). tools/run_benchmarks.sh records the JSON trajectory in
// BENCH_extraction.json; the parallel paths are bit-identical to serial, so
// these measure pure scheduling overhead/speedup.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "trace/arrival_extract.h"
#include "trace/columnar.h"
#include "trace/io.h"
#include "trace/kgrid.h"
#include "workload/extract.h"
#include "workload/online_extract.h"

namespace {

using namespace wlc;

trace::DemandTrace demand_trace(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  trace::DemandTrace d;
  d.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    d.push_back(rng.bernoulli(0.1) ? rng.uniform_int(3000, 5000) : rng.uniform_int(200, 900));
  return d;
}

trace::TimestampTrace timestamp_trace(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  trace::TimestampTrace ts{0.0};
  for (std::size_t i = 1; i < n; ++i)
    ts.push_back(ts.back() +
                 (rng.bernoulli(0.3) ? rng.uniform(1e-5, 1e-4) : rng.uniform(1e-4, 1e-3)));
  return ts;
}

/// A ~`entries`-point log-spaced k-grid over [1, n] — the fixed 64-entry
/// grid shape of the end-to-end benches (duplicates collapse by +1 stepping,
/// so small n yields fewer entries, never duplicates).
std::vector<std::int64_t> log_grid(std::int64_t n, int entries) {
  std::vector<std::int64_t> ks;
  const double r = std::pow(static_cast<double>(n), 1.0 / (entries - 1));
  double v = 1.0;
  for (int i = 0; i < entries; ++i) {
    const auto k = std::max<std::int64_t>(ks.empty() ? 1 : ks.back() + 1,
                                          static_cast<std::int64_t>(std::llround(v)));
    if (k > n) break;
    ks.push_back(k);
    v *= r;
  }
  return ks;
}

trace::EventTrace event_trace(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  trace::EventTrace events;
  events.reserve(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.bernoulli(0.3) ? rng.uniform(1e-5, 1e-4) : rng.uniform(1e-4, 1e-3);
    events.push_back({t, static_cast<int>(i % 3),
                      rng.bernoulli(0.1) ? rng.uniform_int(3000, 5000)
                                         : rng.uniform_int(200, 900)});
  }
  return events;
}

/// The 2M-row fixture files for the ingestion and end-to-end benches,
/// written once per process into the temp directory.
constexpr std::size_t kBigRows = 2'000'000;

const trace::EventTrace& big_events() {
  static const trace::EventTrace events = event_trace(kBigRows, 21);
  return events;
}

const std::string& big_csv_path() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "wlc_bench_trace.csv").string();
    std::ofstream f(p);
    trace::write_event_trace_csv(f, big_events());
    return p;
  }();
  return path;
}

const std::string& big_columnar_path() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "wlc_bench_trace.wlccol").string();
    std::string err;
    if (!trace::write_columnar_file(p, big_events(), &err)) std::perror(err.c_str());
    return p;
  }();
  return path;
}

void BM_ExtractUpperGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::DemandTrace d = demand_trace(n, 11);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  for (auto _ : state) benchmark::DoNotOptimize(workload::extract_upper(d, ks));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExtractUpperGrid)->Range(4096, 65536)->Complexity();

void BM_ExtractUpperDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::DemandTrace d = demand_trace(n, 12);
  for (auto _ : state)
    benchmark::DoNotOptimize(workload::extract_upper_dense(d, static_cast<EventCount>(n)));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExtractUpperDense)->Range(512, 8192)->Complexity(benchmark::oNSquared);

void BM_ArrivalExtractGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::TimestampTrace ts = timestamp_trace(n, 13);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  for (auto _ : state) benchmark::DoNotOptimize(trace::extract_upper_arrival(ts, ks));
}
BENCHMARK(BM_ArrivalExtractGrid)->Range(4096, 65536);

// --- Gap-engine ladder -----------------------------------------------------
// Same trace/grid as BM_ExtractUpperGrid, one bench per engine. All three
// produce bit-identical curves (pinned by the rmq suite), so the ratios are
// pure kernel speedup: per-k oracle scans are O(n·|grid|), the shared index
// answers each entry by block-bound pruning off one O(n log n) build, the
// streaming kernel does one fused pass for all entries.

void BM_ExtractUpperGridOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::DemandTrace d = demand_trace(n, 11);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  for (auto _ : state) benchmark::DoNotOptimize(workload::extract_upper_oracle(d, ks));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExtractUpperGridOracle)->Range(4096, 65536)->Complexity();

void BM_ExtractUpperGridStreaming(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::DemandTrace d = demand_trace(n, 11);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  for (auto _ : state)
    benchmark::DoNotOptimize(workload::extract_upper(d, ks, nullptr, nullptr, nullptr,
                                                     common::GapEngine::Streaming));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExtractUpperGridStreaming)->Range(4096, 65536)->Complexity();

void BM_ArrivalExtractGridOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::TimestampTrace ts = timestamp_trace(n, 13);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::minspans_oracle(ts, ks));
    benchmark::DoNotOptimize(trace::maxspans_oracle(ts, ks));
  }
}
BENCHMARK(BM_ArrivalExtractGridOracle)->Range(4096, 65536);

// --- Trace ingestion: strict CSV vs memory-mapped columnar -----------------

void BM_TraceLoadCsv(benchmark::State& state) {
  const std::string& path = big_csv_path();
  for (auto _ : state) {
    std::ifstream f(path);
    benchmark::DoNotOptimize(
        trace::read_event_trace_csv(f, trace::ParsePolicy::Strict, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBigRows));
}
BENCHMARK(BM_TraceLoadCsv)->Unit(benchmark::kMillisecond);

void BM_TraceLoadColumnar(benchmark::State& state) {
  const std::string& path = big_columnar_path();
  for (auto _ : state) benchmark::DoNotOptimize(trace::read_columnar_trace(path));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBigRows));
}
BENCHMARK(BM_TraceLoadColumnar)->Unit(benchmark::kMillisecond);

// --- End to end: the acceptance pair ---------------------------------------
// 2M-row trace, 64-entry log-spaced grid, load + γᵘ + γˡ. "Before" is the
// seed pipeline (CSV parse, per-k oracle scans); "after" is this PR's
// (mapped columnar load, shared sliding-window index). The after/before
// ratio is the headline number BENCH_extraction.json tracks.

void BM_EndToEndCsvOracle(benchmark::State& state) {
  const std::string& path = big_csv_path();
  const auto ks = log_grid(static_cast<std::int64_t>(kBigRows), 64);
  for (auto _ : state) {
    std::ifstream f(path);
    const trace::EventTrace events =
        trace::read_event_trace_csv(f, trace::ParsePolicy::Strict, nullptr);
    const trace::DemandTrace d = trace::demands_of(events);
    benchmark::DoNotOptimize(workload::extract_upper_oracle(d, ks));
    benchmark::DoNotOptimize(workload::extract_lower_oracle(d, ks));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBigRows));
}
BENCHMARK(BM_EndToEndCsvOracle)->Unit(benchmark::kMillisecond);

void BM_EndToEndColumnarShared(benchmark::State& state) {
  const std::string& path = big_columnar_path();
  const auto ks = log_grid(static_cast<std::int64_t>(kBigRows), 64);
  for (auto _ : state) {
    // The production analysis path: extraction columns come straight from
    // the mapped file (read_columnar_columns), no AoS event materialization.
    trace::DemandTrace d;
    trace::read_columnar_columns(path, {}, &d, nullptr);
    benchmark::DoNotOptimize(workload::extract_upper(d, ks, nullptr, nullptr, nullptr,
                                                     common::GapEngine::SharedIndex));
    benchmark::DoNotOptimize(workload::extract_lower(d, ks, nullptr, nullptr, nullptr,
                                                     common::GapEngine::SharedIndex));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBigRows));
}
BENCHMARK(BM_EndToEndColumnarShared)->Unit(benchmark::kMillisecond);

// Parallel engine: same trace/grid as BM_ExtractUpperGrid, k-grid fanned
// across a pool of range(1) threads. The n=65536 / 4-thread point against
// the serial BM_ExtractUpperGrid/65536 baseline is the speedup the perf
// trajectory tracks.
void BM_ExtractUpperGridParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::DemandTrace d = demand_trace(n, 11);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  wlc::common::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(workload::extract_upper(d, ks, pool));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExtractUpperGridParallel)
    ->ArgsProduct({{4096, 16384, 65536}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

void BM_ArrivalExtractGridParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const trace::TimestampTrace ts = timestamp_trace(n, 13);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  wlc::common::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(trace::extract_upper_arrival(ts, ks, pool));
}
BENCHMARK(BM_ArrivalExtractGridParallel)
    ->ArgsProduct({{16384, 65536}, {1, 2, 4}})
    ->ArgNames({"n", "threads"});

// Batched API: 8 medium traces per iteration, fanned one-task-per-trace.
// The serial baseline runs the identical per-trace extractions in a loop.
std::vector<trace::DemandTrace> batch_traces(std::size_t count, std::size_t n) {
  std::vector<trace::DemandTrace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) traces.push_back(demand_trace(n, 100 + i));
  return traces;
}

void BM_ExtractBatchSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto traces = batch_traces(8, n);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  for (auto _ : state)
    for (const auto& d : traces) {
      benchmark::DoNotOptimize(workload::extract_upper(d, ks));
      benchmark::DoNotOptimize(workload::extract_lower(d, ks));
    }
}
BENCHMARK(BM_ExtractBatchSerial)->Arg(16384);

void BM_ExtractBatchParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto traces = batch_traces(8, n);
  const auto ks = trace::make_kgrid(
      {.max_k = static_cast<std::int64_t>(n), .dense_limit = 256, .growth = 1.2});
  wlc::common::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(workload::extract_batch(traces, ks, pool));
}
BENCHMARK(BM_ExtractBatchParallel)->ArgsProduct({{16384}, {1, 2, 4}})->ArgNames({"n", "threads"});

// --- Online extractor: per-demand cost of a Push ---------------------------
// The serve daemon's hot path: one OnlineWorkloadExtractor fed chunks of
// range(0) demands through try_push_all, on the serve grid (dense 512,
// growth 1.02 up to k = 65536: 757 window sizes) and on a 64-entry log grid.
// items_per_second is demands/s, so 1e9 / it is the ns per demand.
void online_push_bench(benchmark::State& state, const std::vector<std::int64_t>& ks) {
  const auto chunk = static_cast<std::size_t>(state.range(0));
  const trace::DemandTrace d = demand_trace(1 << 18, 15);
  workload::OnlineWorkloadExtractor ex{std::vector<EventCount>(ks)};
  ex.try_push_all(d);  // warm: every window closed, the prefix buffer wrapped
  std::size_t pos = 0;
  for (auto _ : state) {
    if (pos + chunk > d.size()) pos = 0;
    benchmark::DoNotOptimize(ex.try_push_all(std::span(d).subspan(pos, chunk)));
    pos += chunk;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(chunk));
}

void BM_OnlinePushServeGrid(benchmark::State& state) {
  online_push_bench(state, trace::make_kgrid({.max_k = 65536, .dense_limit = 512, .growth = 1.02}));
}
BENCHMARK(BM_OnlinePushServeGrid)->Arg(1)->Arg(128)->Arg(4096);

void BM_OnlinePushLogGrid(benchmark::State& state) {
  online_push_bench(state, log_grid(65536, 64));
}
BENCHMARK(BM_OnlinePushLogGrid)->Arg(1)->Arg(128)->Arg(4096);

void BM_WorkloadCurveEval(benchmark::State& state) {
  const trace::DemandTrace d = demand_trace(8192, 14);
  const auto ks = trace::make_kgrid({.max_k = 8192, .dense_limit = 256, .growth = 1.2});
  const workload::WorkloadCurve g = workload::extract_upper(d, ks);
  EventCount k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.value(k));
    k = (k + 37) % 20000;
  }
}
BENCHMARK(BM_WorkloadCurveEval);

}  // namespace

BENCHMARK_MAIN();
