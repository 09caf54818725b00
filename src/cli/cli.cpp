#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <variant>

#include "common/atomic_file.h"
#include "common/error.h"
#include "common/faultfs.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "curve/compact.h"
#include "curve/engine.h"
#include "curve/op_cache.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "rtc/gpc.h"
#include "rtc/sizing.h"
#include "runtime/runtime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/components.h"
#include "trace/arrival_extract.h"
#include "trace/columnar.h"
#include "trace/io.h"
#include "trace/kgrid.h"
#include "validate/validate.h"
#include "workload/extract.h"

namespace wlc::cli {

namespace {

/// Bad flag value: reported with the usage text and exit code 2 (unlike
/// analysis errors, which exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string command;
  std::string trace_path;
  std::map<std::string, std::string> flags;

  /// The flag's value as a finite double. The whole value must parse —
  /// "--threads abc" and trailing garbage like "--threads 4x" are usage
  /// errors naming the flag, not raw std::stod exceptions.
  std::optional<double> number(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return std::nullopt;
    const std::string& raw = it->second;
    double v{};
    const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), v);
    if (res.ec != std::errc{} || res.ptr != raw.data() + raw.size() || !std::isfinite(v))
      throw UsageError("invalid numeric value for --" + key + ": '" + raw + "'");
    return v;
  }

  /// The flag's value as an integer; fractional values ("--threads 2.5")
  /// are rejected, not truncated.
  std::optional<std::int64_t> integer(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return std::nullopt;
    const std::string& raw = it->second;
    std::int64_t v{};
    const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), v);
    if (res.ec != std::errc{} || res.ptr != raw.data() + raw.size())
      throw UsageError("--" + key + " expects an integer, got '" + raw + "'");
    return v;
  }

  std::string text(const std::string& key, std::string fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? std::move(fallback) : it->second;
  }
};

std::optional<Options> parse(const std::vector<std::string>& argv, std::ostream& err) {
  if (argv.empty()) {
    err << usage();
    return std::nullopt;
  }
  Options o;
  o.command = argv[0];
  // `serve` runs a daemon and `stats` interrogates one — neither analyzes a
  // trace, so they are the subcommands without the trace positional.
  std::size_t first_flag = 1;
  if (o.command != "serve" && o.command != "stats") {
    if (argv.size() < 2) {
      err << usage();
      return std::nullopt;
    }
    o.trace_path = argv[1];
    first_flag = 2;
  }
  for (std::size_t i = first_flag; i < argv.size(); ++i) {
    if (argv[i].rfind("--", 0) != 0) {
      err << "malformed flag: " << argv[i] << "\n" << usage();
      return std::nullopt;
    }
    const std::string key = argv[i].substr(2);
    // --key=value and "--key value" are equivalent everywhere.
    if (const auto eq = key.find('='); eq != std::string::npos) {
      if (eq == 0) {
        err << "malformed flag: " << argv[i] << "\n" << usage();
        return std::nullopt;
      }
      o.flags[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    if (key == "strict" || key == "lenient" || key == "no-fast-paths" ||
        key == "keep-state" || key == "watchdog-abort") {  // boolean flags
      o.flags.emplace(key, "1");
      continue;
    }
    if (i + 1 >= argv.size()) {
      err << "malformed flag: " << argv[i] << "\n" << usage();
      return std::nullopt;
    }
    o.flags[key] = argv[++i];
  }
  return o;
}

/// "2" / "2.5s" / "500ms" → seconds. The whole value must parse and be a
/// positive finite number; anything else is a usage error naming the flag.
double parse_duration_seconds(const std::string& raw, const std::string& flag) {
  std::string_view sv = raw;
  double scale = 1.0;
  if (sv.size() >= 2 && sv.substr(sv.size() - 2) == "ms") {
    scale = 1e-3;
    sv.remove_suffix(2);
  } else if (!sv.empty() && sv.back() == 's') {
    sv.remove_suffix(1);
  }
  double v{};
  const auto res = std::from_chars(sv.data(), sv.data() + sv.size(), v);
  if (res.ec != std::errc{} || res.ptr != sv.data() + sv.size() || !std::isfinite(v) || v <= 0.0)
    throw UsageError("--" + flag + " expects a positive duration like '2', '2.5s' or '500ms', got '" +
                     raw + "'");
  return v * scale;
}

/// The runtime knobs shared by every subcommand: deadline, budgets, and the
/// budget reaction, plus where to write the degradation report. Built once
/// per run; the deadline is armed here, so it measures wall time from flag
/// parsing to completion.
struct RuntimeControls {
  runtime::RunPolicy policy;
  runtime::DegradationReport degradation;
  std::optional<std::string> degradation_out;
  bool active = false;  ///< any runtime flag present

  /// null when no runtime flag was given, so unflagged runs take the
  /// historical zero-overhead path.
  const runtime::RunPolicy* policy_or_null() const { return active ? &policy : nullptr; }
  runtime::DegradationReport* degradation_or_null() {
    return active ? &degradation : nullptr;
  }
};

RuntimeControls runtime_controls(const Options& o) {
  RuntimeControls c;
  if (const auto it = o.flags.find("timeout"); it != o.flags.end()) {
    const double secs = parse_duration_seconds(it->second, "timeout");
    c.policy.deadline = runtime::Deadline::after(
        std::chrono::duration_cast<runtime::Deadline::Clock::duration>(
            std::chrono::duration<double>(secs)));
    c.active = true;
  }
  const auto positive = [&](const std::string& key) -> std::int64_t {
    const auto v = o.integer(key);
    if (!v) return 0;
    if (*v < 1) throw UsageError("--" + key + " must be >= 1, got " + std::to_string(*v));
    c.active = true;
    return *v;
  };
  c.policy.budget.max_grid_points = positive("max-grid");
  c.policy.budget.max_trace_rows = positive("max-rows");
  c.policy.budget.max_resident_bytes = positive("max-bytes");
  if (const auto it = o.flags.find("on-budget"); it != o.flags.end()) {
    if (it->second == "degrade")
      c.policy.on_budget = runtime::OnBudget::Degrade;
    else if (it->second != "fail")
      throw UsageError("--on-budget expects 'fail' or 'degrade', got '" + it->second + "'");
    c.active = true;
  }
  if (const auto it = o.flags.find("degradation-out"); it != o.flags.end()) {
    c.degradation_out = it->second;
    c.active = true;
  }
  // Degradation (grid coarsening, row/event shedding) only exists along the
  // extraction pipeline; for the other subcommands a budget can only mean
  // fail-fast, so asking them to degrade is a contradiction we reject
  // rather than silently treat as fail.
  const bool has_degradation_path = o.command == "extract" || o.command == "curves" ||
                                    o.command == "report" || o.command == "convert-trace";
  if (!has_degradation_path) {
    if (c.policy.on_budget == runtime::OnBudget::Degrade)
      throw UsageError("--on-budget=degrade is not supported by subcommand '" + o.command +
                       "', which has no degradation path (supported: extract, curves, report, "
                       "convert-trace); use --on-budget=fail or drop the flag");
    if (c.degradation_out)
      throw UsageError("--degradation-out is not supported by subcommand '" + o.command +
                       "', which has no degradation path (supported: extract, curves, report, "
                       "convert-trace)");
  }
  return c;
}

/// Applies --curve-cache / --no-fast-paths to the process-global curve
/// engine. Always re-applied from defaults, so in-process callers (the test
/// suite) cannot leak one run's settings into the next; the cache contents
/// themselves are harmless to share (entries are bit-identical to
/// recomputation) but are cleared too, keeping runs deterministic. Cache
/// residency counts against the --max-bytes budget like any other resident
/// memory, so the budget clamps the capacity.
void apply_curve_engine_flags(const Options& o, const RuntimeControls& rc) {
  curve::engine::Config cfg;
  cfg.fast_paths = o.flags.count("no-fast-paths") == 0;
  curve::engine::set_config(cfg);
  std::size_t capacity = curve::OpCache::kDefaultCapacityBytes;
  if (const auto v = o.integer("curve-cache")) {
    if (*v < 0)
      throw UsageError("--curve-cache must be >= 0 bytes, got " + std::to_string(*v));
    capacity = static_cast<std::size_t>(*v);
  }
  const std::int64_t max_bytes = rc.policy.budget.max_resident_bytes;
  if (max_bytes > 0 && capacity > static_cast<std::size_t>(max_bytes))
    capacity = static_cast<std::size_t>(max_bytes);
  curve::OpCache::global().set_capacity_bytes(capacity);
  curve::OpCache::global().clear();
}

/// --no-fast-paths forces the per-k oracle scans in extraction too, not just
/// the dense curve kernels — one flag, every fast path off. Results are
/// bit-identical either way (the rmq suite pins it); the flag exists so a
/// surprising number can be re-derived with only the reference kernels in
/// the loop.
common::GapEngine gap_engine(const Options& o) {
  return o.flags.count("no-fast-paths") ? common::GapEngine::Oracle : common::GapEngine::Auto;
}

/// Reads the trace at `path` in whichever format it is: files opening with
/// the WLCCOL magic go through the mapped columnar decoder, everything else
/// through strict CSV. Budgets/cancellation in `ropts` apply to both.
/// Returns false (with the message already printed) when the file cannot be
/// opened; parse faults and budget/cancel trips propagate as exceptions.
bool read_trace_any_format(const std::string& path, const trace::ReadOptions& ropts,
                           trace::EventTrace* events, std::ostream& err) {
  if (trace::sniff_columnar(path)) {
    *events = trace::read_columnar_trace(path, ropts);
    return true;
  }
  std::ifstream file(path);
  if (!file) {
    err << "cannot open trace file: " << path << "\n";
    return false;
  }
  *events = trace::read_event_trace_csv(file, trace::ParsePolicy::Strict, nullptr, ropts);
  return true;
}

struct LoadedTrace {
  std::size_t rows = 0;   ///< events analyzed (after any row budget)
  double duration = 0.0;  ///< last event timestamp [s]
  /// Row-level records, materialized only when the command needs them (the
  /// simulator replays individual events); the analysis commands work from
  /// the extracted curves plus rows/duration, which lets the columnar path
  /// feed extraction straight from the mapped columns with no AoS copy.
  trace::EventTrace events;
  workload::WorkloadCurve gamma_u;
  workload::WorkloadCurve gamma_l;
  trace::EmpiricalArrivalCurve arr_u;
  trace::EmpiricalArrivalCurve arr_l;
  workload::ExtractStats stats;
};

/// --threads N (alias --jobs N), defaulting to the hardware concurrency.
/// Extraction is bit-identical at every thread count, so the flag is purely
/// a throughput knob (tests/cli_test.cpp pins the byte-identity). Must be a
/// whole number: "--threads 2.5" is rejected, not silently truncated.
unsigned requested_threads(const Options& o) {
  const auto t = o.integer("threads");
  const auto j = o.integer("jobs");
  const std::int64_t v =
      t.value_or(j.value_or(static_cast<std::int64_t>(common::hardware_threads())));
  WLC_REQUIRE(v >= 1, "--threads/--jobs must be >= 1");
  return static_cast<unsigned>(v);
}

std::optional<LoadedTrace> load(const Options& o, RuntimeControls& rc, std::ostream& err,
                                bool need_events = false) {
  WLC_TRACE_SPAN("cli.load");
  const runtime::RunPolicy* pol = rc.policy_or_null();
  trace::ReadOptions ropts;
  ropts.source_name = o.trace_path;  // parse faults name the file, not "a stream"
  ropts.policy = pol;
  ropts.degradation = rc.degradation_or_null();
  trace::EventTrace events;
  trace::DemandTrace demands;
  trace::TimestampTrace ts;
  try {
    if (!need_events && trace::sniff_columnar(o.trace_path)) {
      // Analysis commands read the two extraction columns straight from the
      // mapping — no AoS event vector, no per-row copies.
      trace::read_columnar_columns(o.trace_path, ropts, &demands, &ts);
    } else {
      if (!read_trace_any_format(o.trace_path, ropts, &events, err)) return std::nullopt;
      demands = trace::demands_of(events);
      ts = trace::timestamps_of(events);
    }
  } catch (const CancelledError&) {
    throw;  // exit 6, handled in run()
  } catch (const BudgetExceededError&) {
    throw;  // exit 7, handled in run()
  } catch (const std::exception& e) {
    err << "bad trace file: " << e.what() << "\n";
    return std::nullopt;
  }
  if (ts.empty() || !std::is_sorted(ts.begin(), ts.end())) {
    err << "trace must be non-empty and time-ordered\n";
    return std::nullopt;
  }
  const auto n = static_cast<std::int64_t>(ts.size());
  const auto dense = static_cast<std::int64_t>(o.number("dense").value_or(512.0));
  const double growth = o.number("growth").value_or(1.02);
  auto ks = trace::make_kgrid({.max_k = n, .dense_limit = dense, .growth = growth});
  // Grid budget is applied once, here; the extracts below run with the grid
  // axis dropped so they cannot re-shed what was already coarsened.
  ks = runtime::apply_grid_budget(std::move(ks), pol, rc.degradation_or_null(),
                                  "analysis of '" + o.trace_path + "'");
  runtime::RunPolicy inner;
  const runtime::RunPolicy* ip = nullptr;
  if (pol) {
    inner = *pol;
    inner.budget.max_grid_points = 0;
    ip = &inner;
  }
  common::ThreadPool pool(requested_threads(o));
  workload::ExtractStats stats;
  auto* deg = rc.degradation_or_null();
  const common::GapEngine eng = gap_engine(o);
  return LoadedTrace{
      static_cast<std::size_t>(n),
      ts.back(),
      std::move(events),
      workload::extract_upper(demands, ks, pool, &stats, ip, deg, eng),
      workload::extract_lower(demands, ks, pool, nullptr, ip, deg, eng),
      trace::extract_upper_arrival(ts, ks, pool, ip, eng),
      trace::extract_lower_arrival(ts, ks, pool, ip, eng),
      stats};
}

void write_curves(const LoadedTrace& t, const std::string& prefix, std::ostream& out) {
  // Atomic (temp + fsync + rename): an interrupt or crash mid-write never
  // leaves a torn half-CSV behind — the signal-handling contract (exit 6
  // with whole files or no files) depends on this.
  std::ostringstream gamma;
  gamma << "k,gamma_l,gamma_u\n";
  for (const auto& [k, v] : t.gamma_u.points())
    gamma << k << ',' << t.gamma_l.value(k) << ',' << v << '\n';
  std::ostringstream arrival;
  trace::write_arrival_curve_csv(arrival, t.arr_u);
  std::string werr;
  if (!common::atomic_write_file(prefix + ".gamma.csv", gamma.str(), &werr) ||
      !common::atomic_write_file(prefix + ".arrival.csv", arrival.str(), &werr))
    throw DomainError("cannot write curve files under prefix '" + prefix + "': " + werr);
  out << "wrote " << prefix << ".gamma.csv and " << prefix << ".arrival.csv\n";
}

int cmd_curves(const Options& o, const LoadedTrace& t, std::ostream& out) {
  common::Table table({"quantity", "value"});
  table.add_row({"events", common::fmt_i(static_cast<long long>(t.rows))});
  table.add_row({"duration [s]", common::fmt_f(t.duration, 6)});
  table.add_row({"WCET = γᵘ(1) [cycles]", common::fmt_i(t.gamma_u.wcet())});
  table.add_row({"BCET = γˡ(1) [cycles]", common::fmt_i(t.gamma_l.bcet())});
  table.add_row({"long-run demand [cycles/event]", common::fmt_f(t.gamma_u.long_run_demand(), 1)});
  table.add_row({"peak arrival rate [events/s]",
                 common::fmt_f(static_cast<double>(t.arr_u.eval(1e-3)) / 1e-3, 1)});
  table.add_row({"long-run rate [events/s]", common::fmt_f(t.arr_u.long_run_rate(), 1)});
  table.print(out);
  if (t.stats.clamped_ks > 0)
    out << "note: " << t.stats.clamped_ks
        << " requested window sizes exceed the trace length and were clamped; the\n"
           "curve's exact range ends at k = "
        << t.gamma_u.max_k() << " (block extension beyond)\n";
  if (o.flags.count("out")) write_curves(t, o.text("out", "trace"), out);
  return 0;
}

/// The PWL error budget of `compact`: --compact-eps (absolute cycles) and
/// --compact-rel (relative). Default: exact (eps = 0) — the compact form
/// re-encodes the curve bit-for-bit and the table shows the lossless
/// reduction.
curve::CompactBudget compact_budget_flags(const Options& o) {
  curve::CompactBudget budget;
  if (const auto v = o.number("compact-eps")) {
    if (*v < 0) throw UsageError("--compact-eps must be >= 0, got " + o.flags.at("compact-eps"));
    budget.eps_abs = *v;
  }
  if (const auto v = o.number("compact-rel")) {
    if (*v < 0) throw UsageError("--compact-rel must be >= 0, got " + o.flags.at("compact-rel"));
    budget.eps_rel = *v;
  }
  return budget;
}

int cmd_compact(const Options& o, const LoadedTrace& t, std::ostream& out) {
  const curve::CompactBudget budget = compact_budget_flags(o);
  // Compaction grid: one sample per breakpoint index (dt = 1), values in
  // cycles (exact in double up to 2^53) — the grid of the snapshot v2 tier
  // block.
  const auto index_curve = [](const std::vector<workload::WorkloadCurve::Point>& pts) {
    std::vector<double> v;
    v.reserve(pts.size());
    for (const auto& p : pts) v.push_back(static_cast<double>(p.second));
    return curve::DiscreteCurve(std::move(v), 1.0);
  };
  const curve::DiscreteCurve dense_u = index_curve(t.gamma_u.points());
  const curve::DiscreteCurve dense_l = index_curve(t.gamma_l.points());
  const curve::CompactCurve cu = curve::CompactCurve::compact_upper(dense_u, budget);
  const curve::CompactCurve cl = curve::CompactCurve::compact_lower(dense_l, budget);

  common::Table table({"curve", "points", "knots", "reduction", "max error [cycles]"});
  const auto row = [&](const char* name, const curve::CompactCurve& c) {
    table.add_row({name, common::fmt_i(static_cast<long long>(c.dense_size())),
                   common::fmt_i(static_cast<long long>(c.size())),
                   common::fmt_f(c.reduction(), 1) + "x", common::fmt_f(c.max_error(), 3)});
  };
  row("gamma_u (rounded up)", cu);
  row("gamma_l (rounded down)", cl);
  table.print(out);
  out << "budget: eps_abs " << budget.eps_abs << ", eps_rel " << budget.eps_rel
      << " (error <= eps_abs + eps_rel*|value| at every point; gamma_u never\n"
         "under-approximated, gamma_l never over-approximated)\n";

  if (o.flags.count("out") > 0) {
    std::ostringstream csv;
    csv << "curve,index,y,slope\n";
    const auto dump = [&](const char* name, const curve::CompactCurve& c) {
      for (const curve::CompactCurve::Knot& k : c.knots())
        csv << name << ',' << k.i << ',' << common::fmt_f(k.y, 17) << ','
            << common::fmt_f(k.slope, 17) << '\n';
    };
    dump("gamma_u", cu);
    dump("gamma_l", cl);
    const std::string path = o.text("out", "trace") + ".pwl.csv";
    std::string werr;
    if (!common::atomic_write_file(path, csv.str(), &werr))
      throw DomainError("cannot write knot file '" + path + "': " + werr);
    out << "wrote " << path << "\n";
  }
  return 0;
}

int cmd_size_buffer(const Options& o, const LoadedTrace& t, const RuntimeControls& rc,
                    std::ostream& out, std::ostream& err) {
  const auto b = o.number("buffer");
  if (!b || *b < 0) {
    err << "size-buffer needs --buffer <events>\n";
    return 2;
  }
  const Hertz fg = rtc::min_frequency_workload(t.arr_u, t.gamma_u, static_cast<EventCount>(*b),
                                               rc.policy_or_null());
  const Hertz fw = rtc::min_frequency_wcet(t.arr_u, t.gamma_u.wcet(), static_cast<EventCount>(*b));
  common::Table table({"model", "minimum clock [MHz]"});
  table.add_row({"workload curves (eq. 9)", common::fmt_f(fg / 1e6, 2)});
  table.add_row({"WCET only (eq. 10)", common::fmt_f(fw / 1e6, 2)});
  table.print(out);
  out << "savings: " << common::fmt_pct(1.0 - fg / fw) << "\n";
  return 0;
}

/// GPC bounds of the trace's task on a dedicated PE: the trace's arrival
/// curves are converted to cycle demand through its own workload curves
/// (Fig. 4) and pushed through one greedy-processing-component step against
/// the constant-rate service --mhz. This is the curve-algebra-heavy
/// subcommand: the convolutions route through the shape-aware engine, so
/// --curve-cache / --no-fast-paths are observable here (results are
/// bit-identical either way; only the timings move).
int cmd_bounds(const Options& o, const LoadedTrace& t, std::ostream& out, std::ostream& err) {
  const auto mhz = o.number("mhz");
  if (!mhz || *mhz <= 0) {
    err << "bounds needs --mhz <clock>\n";
    return 2;
  }
  const double horizon = std::max(t.duration, t.arr_u.last_breakpoint());
  const std::size_t n = static_cast<std::size_t>(o.number("grid").value_or(512.0));
  if (n < 2 || horizon <= 0.0) {
    err << "bounds needs a trace with a positive time span and --grid >= 2\n";
    return 2;
  }
  const double dt = horizon / static_cast<double>(n - 1);

  // Event → cycle conversion on the grid (same rounding as rtc::mpa).
  std::vector<double> up(n), lo(n), beta(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = dt * static_cast<double>(i);
    up[i] = static_cast<double>(t.gamma_u.value(t.arr_u.eval(x)));
    lo[i] = static_cast<double>(t.gamma_l.value(t.arr_l.eval(x)));
    beta[i] = *mhz * 1e6 * x;
  }
  const rtc::StreamBounds demand{curve::DiscreteCurve(std::move(up), dt),
                                 curve::DiscreteCurve(std::move(lo), dt)};
  const curve::DiscreteCurve service(std::move(beta), dt);
  const rtc::GpcResult r = rtc::analyze_gpc(demand, rtc::ResourceBounds{service, service});

  common::Table table({"bound", "value"});
  table.add_row({"backlog [cycles]", common::fmt_f(std::max(0.0, r.backlog), 1)});
  table.add_row({"delay [ms]", common::fmt_f(r.delay * 1e3, 3)});
  const double util = service[n - 1] > 0.0 ? demand.upper[n - 1] / service[n - 1] : 0.0;
  table.add_row({"utilization (γᵘ/β over horizon)", common::fmt_pct(util)});
  table.print(out);
  return 0;
}

int cmd_size_delay(const Options& o, const LoadedTrace& t, std::ostream& out, std::ostream& err) {
  const auto ms = o.number("deadline-ms");
  if (!ms || *ms <= 0) {
    err << "size-delay needs --deadline-ms <milliseconds>\n";
    return 2;
  }
  const Hertz f = rtc::min_frequency_for_delay(t.arr_u, t.gamma_u, *ms * 1e-3);
  out << "minimum clock for a " << common::fmt_f(*ms, 3) << " ms per-event deadline: "
      << common::fmt_f(f / 1e6, 2) << " MHz\n";
  return 0;
}

int cmd_report(const LoadedTrace& t, std::ostream& out) {
  out << "pipeline ran: " << t.rows
      << " events ingested, curves + arrival bounds extracted\n"
         "metric snapshot of this run (JSON via --metrics-out):\n";
  obs::registry().snapshot().print(out);
  return 0;
}

int cmd_simulate(const Options& o, const LoadedTrace& t, std::ostream& out, std::ostream& err) {
  const auto mhz = o.number("mhz");
  if (!mhz || *mhz <= 0) {
    err << "simulate needs --mhz <clock>\n";
    return 2;
  }
  const auto capacity = static_cast<std::int64_t>(o.number("capacity").value_or(0.0));
  const sim::PipelineStats s = sim::run_fifo_pipeline(t.events, *mhz * 1e6, capacity);
  common::Table table({"metric", "value"});
  table.add_row({"completed", common::fmt_i(s.completed)});
  table.add_row({"max backlog [events]", common::fmt_i(s.max_backlog)});
  table.add_row({"overflows", common::fmt_i(s.overflows)});
  table.add_row({"worst latency [ms]", common::fmt_f(s.max_latency * 1e3, 3)});
  table.add_row({"utilization", common::fmt_pct(s.utilization)});
  table.print(out);
  return 0;
}

// Exit codes of the `validate` subcommand (documented in usage()).
constexpr int kExitValid = 0;
constexpr int kExitParseError = 3;
constexpr int kExitUnsound = 4;
constexpr int kExitDegraded = 5;
// Global runtime-control exit codes (any subcommand, documented in usage()).
constexpr int kExitCancelled = 6;  ///< cancel token tripped or --timeout expired
constexpr int kExitBudget = 7;     ///< a budget axis exceeded under --on-budget=fail

int cmd_validate(const Options& o, RuntimeControls& rc, std::ostream& out, std::ostream& err) {
  if (o.flags.count("strict") && o.flags.count("lenient")) {
    err << "validate: --strict and --lenient are mutually exclusive\n";
    return 2;
  }
  const auto policy =
      o.flags.count("lenient") ? trace::ParsePolicy::Lenient : trace::ParsePolicy::Strict;

  trace::ReadOptions ropts;
  ropts.source_name = o.trace_path;
  ropts.policy = rc.policy_or_null();
  trace::ParseReport report;
  trace::EventTrace events;
  const bool columnar = trace::sniff_columnar(o.trace_path);
  if (columnar && policy == trace::ParsePolicy::Lenient) {
    // The columnar checksum covers the whole payload, so damage cannot be
    // attributed to (and shed as) single rows — there is nothing lenient
    // mode could keep.
    err << "validate: --lenient does not apply to columnar traces (whole-file checksum); "
           "convert to CSV first to salvage rows\n";
    return 2;
  }
  try {
    if (columnar) {
      events = trace::read_columnar_trace(o.trace_path, ropts);
      report.rows_total = report.rows_kept = events.size();
    } else {
      std::ifstream file(o.trace_path);
      if (!file) {
        err << "cannot open trace file: " << o.trace_path << "\n";
        return 2;
      }
      events = trace::read_event_trace_csv(file, policy, &report, ropts);
    }
  } catch (const CancelledError&) {
    throw;
  } catch (const BudgetExceededError&) {
    throw;
  } catch (const Error& e) {
    err << "rejected: " << e.detail() << "\n";
    return kExitParseError;
  }
  if (events.empty()) {
    err << "rejected: no usable rows (" << report.to_string() << ")\n";
    return kExitParseError;
  }

  validate::Report vr = validate::check_event_trace(events);
  try {
    const auto n = static_cast<std::int64_t>(events.size());
    const auto dense = static_cast<std::int64_t>(o.number("dense").value_or(512.0));
    const double growth = o.number("growth").value_or(1.02);
    const auto ks = trace::make_kgrid({.max_k = n, .dense_limit = dense, .growth = growth});
    const runtime::RunPolicy* pol = rc.policy_or_null();
    const common::GapEngine eng = gap_engine(o);
    const auto demands = trace::demands_of(events);
    const auto ts = trace::timestamps_of(events);
    const auto gu = workload::extract_upper(demands, ks, nullptr, pol, nullptr, eng);
    const auto gl = workload::extract_lower(demands, ks, nullptr, pol, nullptr, eng);
    const auto au = trace::extract_upper_arrival(ts, ks, pol, eng);
    const auto al = trace::extract_lower_arrival(ts, ks, pol, eng);
    vr.merge(validate::check_workload_curve(gu));
    vr.merge(validate::check_workload_curve(gl));
    vr.merge(validate::check_workload_pair(gu, gl));
    vr.merge(validate::check_empirical_arrival_curve(au));
    vr.merge(validate::check_empirical_arrival_curve(al));
    vr.merge(validate::check_empirical_arrival_pair(au, al));
  } catch (const CancelledError&) {
    throw;
  } catch (const BudgetExceededError&) {
    throw;
  } catch (const Error& e) {
    err << "unsound: extraction refused: " << e.detail() << "\n";
    return kExitUnsound;
  }

  common::Table table({"quantity", "value"});
  table.add_row({"rows kept", common::fmt_i(static_cast<long long>(report.rows_kept))});
  table.add_row({"rows dropped", common::fmt_i(static_cast<long long>(report.rows_dropped()))});
  table.add_row({"soundness violations", common::fmt_i(static_cast<long long>(vr.size()))});
  table.print(out);

  if (!vr.ok()) {
    err << "unsound:\n" << vr.to_string() << "\n";
    return kExitUnsound;
  }
  if (!report.clean()) {
    out << "degraded: " << report.to_string() << "\n"
        << "surviving rows are sound; bounds certify the kept rows only\n";
    return kExitDegraded;
  }
  out << "trace is well-formed and extracted curves are sound\n";
  return kExitValid;
}

/// `convert-trace <in> --out <file>`: converts between the CSV and WLCCOL
/// columnar representations, direction decided by sniffing the input's
/// magic. Both writes are atomic; the CSV side uses max_digits10 formatting,
/// so columnar → CSV → columnar reproduces the payload bit for bit (the
/// fault-injection suite pins the round-trip). Reading honors the usual
/// runtime controls — under --max-rows with --on-budget=degrade the
/// conversion keeps the budgeted prefix and reports what was shed.
int cmd_convert_trace(const Options& o, RuntimeControls& rc, std::ostream& out,
                      std::ostream& err) {
  const auto it = o.flags.find("out");
  if (it == o.flags.end()) {
    err << "convert-trace needs --out <file>\n";
    return 2;
  }
  trace::ReadOptions ropts;
  ropts.source_name = o.trace_path;
  ropts.policy = rc.policy_or_null();
  ropts.degradation = rc.degradation_or_null();
  const bool from_columnar = trace::sniff_columnar(o.trace_path);
  trace::EventTrace events;
  try {
    if (!read_trace_any_format(o.trace_path, ropts, &events, err)) return 2;
  } catch (const CancelledError&) {
    throw;
  } catch (const BudgetExceededError&) {
    throw;
  } catch (const std::exception& e) {
    err << "bad trace file: " << e.what() << "\n";
    return 2;
  }
  std::string werr;
  if (from_columnar) {
    std::ostringstream csv;
    trace::write_event_trace_csv(csv, events);
    if (!common::atomic_write_file(it->second, csv.str(), &werr)) {
      err << "cannot write " << it->second << ": " << werr << "\n";
      return 1;
    }
  } else if (!trace::write_columnar_file(it->second, events, &werr)) {
    err << "cannot write " << it->second << ": " << werr << "\n";
    return 1;
  }
  out << "converted " << events.size() << " rows "
      << (from_columnar ? "columnar -> csv" : "csv -> columnar") << ", wrote " << it->second
      << "\n";
  return 0;
}

int cmd_serve(const Options& o, RuntimeControls& rc, std::ostream& out, std::ostream& err) {
  const auto listen = o.flags.find("listen");
  if (listen == o.flags.end()) {
    err << "serve needs --listen <unix:/path | host:port | :port>\n";
    return 2;
  }
  serve::ServerConfig cfg;
  cfg.listen = listen->second;
  serve::SessionConfig& sc = cfg.sessions;
  sc.state_dir = o.text("state-dir", "");
  if (const auto v = o.integer("max-sessions")) {
    if (*v < 1) throw UsageError("--max-sessions must be >= 1, got " + std::to_string(*v));
    sc.limits.max_sessions = *v;
  }
  // The pool reuses the global budget spellings: under serve, --max-grid
  // bounds the summed tracked grid points across live sessions and
  // --max-bytes their estimated resident bytes.
  sc.limits.max_grid_points = rc.policy.budget.max_grid_points;
  sc.limits.max_resident_bytes = rc.policy.budget.max_resident_bytes;
  const std::string admit = o.text("admit", "reject");
  if (admit == "degrade")
    sc.admission = serve::AdmissionPolicy::Degrade;
  else if (admit == "queue")
    sc.admission = serve::AdmissionPolicy::Queue;
  else if (admit != "reject")
    throw UsageError("--admit expects 'reject', 'degrade' or 'queue', got '" + admit + "'");
  if (const auto it = o.flags.find("queue-timeout"); it != o.flags.end())
    sc.queue_timeout = std::chrono::milliseconds(
        static_cast<std::int64_t>(parse_duration_seconds(it->second, "queue-timeout") * 1e3));
  if (const auto v = o.integer("snapshot-every")) {
    if (*v < 0) throw UsageError("--snapshot-every must be >= 0, got " + std::to_string(*v));
    sc.snapshot_every = *v;
  }
  if (const auto it = o.flags.find("snapshot-interval"); it != o.flags.end())
    cfg.snapshot_interval = std::chrono::milliseconds(
        static_cast<std::int64_t>(parse_duration_seconds(it->second, "snapshot-interval") * 1e3));
  cfg.request_log.path = o.text("request-log", "");
  if (const auto v = o.number("slow-ms")) {
    if (*v < 0) throw UsageError("--slow-ms must be >= 0, got " + o.flags.at("slow-ms"));
    cfg.request_log.slow_us = static_cast<std::int64_t>(*v * 1e3);
  }
  if (const auto v = o.integer("request-log-max-bytes")) {
    if (*v < 0)
      throw UsageError("--request-log-max-bytes must be >= 0 (0 = never rotate), got " +
                       std::to_string(*v));
    cfg.request_log.max_bytes = *v;
  }
  if (const auto v = o.number("watchdog-ms")) {
    if (*v <= 0) throw UsageError("--watchdog-ms must be > 0, got " + o.flags.at("watchdog-ms"));
    cfg.watchdog = std::chrono::milliseconds(static_cast<std::int64_t>(*v));
  }
  if (o.flags.count("watchdog-abort") > 0) {
    if (cfg.watchdog.count() == 0)
      throw UsageError("--watchdog-abort requires --watchdog-ms <threshold>");
    cfg.watchdog_abort = true;
  }
  cfg.drain_to = o.text("drain-to", "");

  try {
    serve::parse_address(cfg.listen);  // surface a bad spec as a usage error
  } catch (const Error& e) {
    throw UsageError("--listen: " + e.message());
  }
  if (!cfg.drain_to.empty()) {
    try {
      serve::parse_address(cfg.drain_to);
    } catch (const Error& e) {
      throw UsageError("--drain-to: " + e.message());
    }
  }
  serve::Server server(cfg, err);
  server.start();
  out << "serving on " << server.address().to_string() << "\n";
  out.flush();
  // A SIGTERM/SIGINT (routed into the policy token by main) or an expired
  // --timeout stops the reactor, which drains: buffered requests answered,
  // replies flushed, every live session snapshotted. That is the *intended*
  // exit for a daemon, so it returns 0 — unlike the one-shot commands,
  // where a signal aborts an analysis mid-flight and exits 6.
  return server.run(rc.policy);
}

int cmd_serve_client(const Options& o, RuntimeControls& rc, std::ostream& out, std::ostream& err) {
  const std::string connect = o.text("connect", "");
  if (connect.empty()) {
    err << "serve-client needs --connect <unix:/path | host:port>\n";
    return 2;
  }
  const std::string session = o.text("session", "");
  if (!serve::valid_identifier(session)) {
    err << "serve-client needs --session <id> ([A-Za-z0-9_.-], 1..128 chars, no leading dot)\n";
    return 2;
  }
  const std::string tenant = o.text("tenant", "default");
  if (!serve::valid_identifier(tenant)) {
    err << "--tenant must match [A-Za-z0-9_.-], 1..128 chars, no leading dot\n";
    return 2;
  }
  const std::int64_t chunk = o.integer("chunk").value_or(512);
  if (chunk < 1) throw UsageError("--chunk must be >= 1, got " + std::to_string(chunk));
  const std::int64_t throttle_ms = o.integer("throttle-ms").value_or(0);
  double retry_secs = 0.0;
  if (const auto it = o.flags.find("retry-for"); it != o.flags.end())
    retry_secs = parse_duration_seconds(it->second, "retry-for");
  serve::RetryPolicy rpolicy;
  if (const auto v = o.integer("retry-budget")) {
    if (*v < 0)
      throw UsageError("--retry-budget must be >= 0 (0 = unlimited), got " + std::to_string(*v));
    rpolicy.budget = static_cast<int>(*v);
  }
  if (const auto v = o.integer("retry-seed"))
    rpolicy.seed = static_cast<std::uint64_t>(*v);

  trace::ReadOptions ropts;
  ropts.source_name = o.trace_path;
  ropts.policy = rc.policy_or_null();
  trace::EventTrace events;
  try {
    if (!read_trace_any_format(o.trace_path, ropts, &events, err)) return 2;
  } catch (const CancelledError&) {
    throw;
  } catch (const BudgetExceededError&) {
    throw;
  } catch (const std::exception& e) {
    err << "bad trace file: " << e.what() << "\n";
    return 2;
  }
  if (events.empty()) {
    err << "trace must be non-empty\n";
    return 2;
  }
  const std::vector<Cycles> demands = trace::demands_of(events);
  const auto n = static_cast<std::int64_t>(demands.size());
  const auto dense = static_cast<std::int64_t>(o.number("dense").value_or(512.0));
  const double growth = o.number("growth").value_or(1.02);
  const auto ks = trace::make_kgrid({.max_k = n, .dense_limit = dense, .growth = growth});

  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(retry_secs));
  // --connect takes a comma-separated failover list; each reconnect sweep
  // tries every address (preferred first) with decorrelated-jitter backoff
  // between sweeps, bounded by --retry-budget sweeps and the --retry-for
  // deadline.
  const std::vector<std::string> addresses = serve::split_address_list(connect);
  if (addresses.empty()) {
    err << "serve-client needs --connect <unix:/path | host:port>[,addr...]\n";
    return 2;
  }
  std::optional<serve::FailoverClient> client_slot;
  try {
    client_slot.emplace(addresses, rpolicy);
  } catch (const Error& e) {
    throw UsageError("--connect: " + e.message());
  }
  serve::FailoverClient& client = *client_slot;

  // Connect (or reconnect) and Open — which doubles as resume: the reply's
  // events_seen is the stream position to continue from, which is what
  // makes a crash-recovered analysis bit-identical to an uninterrupted
  // one. Retries cover an unreachable daemon, explicit backpressure, and a
  // Redirect from a draining daemon (re-aim the list and try the named
  // peer), until the --retry-for window or --retry-budget runs out.
  serve::OpenReply open;
  const auto connect_and_open = [&]() -> int {
    for (;;) {
      if (rc.active) rc.policy.checkpoint("serve-client connect");
      if (!client.connected() && !client.connect_until(give_up)) {
        err << "giving up on " << connect << ": " << client.error() << "\n";
        return 1;
      }
      serve::Reply reply;
      if (client.call(serve::OpenRequest{serve::kProtocolVersion, session, tenant, ks}, &reply)) {
        if (const auto* ok = std::get_if<serve::OpenReply>(&reply)) {
          open = *ok;
          return 0;
        }
        if (const auto* redirect = std::get_if<serve::RedirectReply>(&reply)) {
          err << "redirected to " << redirect->address << " (" << redirect->reason << ")\n";
          try {
            client.follow_redirect(redirect->address);
          } catch (const Error& e) {
            err << "refusing redirect to '" << redirect->address << "': " << e.message() << "\n";
            return 1;
          }
          continue;  // connect_until now tries the redirect target first
        }
        if (const auto* rej = std::get_if<serve::RejectReply>(&reply)) {
          if (rej->retry_after_ms <= 0) {
            err << "rejected (" << serve::to_string(rej->code) << "): " << rej->reason << "\n";
            return 1;
          }
          err << "backpressure (" << serve::to_string(rej->code) << "): " << rej->reason
              << ", retrying in " << rej->retry_after_ms << " ms\n";
          const auto wait = std::chrono::milliseconds(rej->retry_after_ms);
          if (std::chrono::steady_clock::now() + wait >= give_up) {
            err << "giving up on " << connect << ": backpressure persisted\n";
            return 1;
          }
          std::this_thread::sleep_for(wait);
          continue;
        }
        if (const auto* e = std::get_if<serve::ErrReply>(&reply)) {
          err << "daemon error: " << e->message << "\n";
          return 1;
        }
        err << "unexpected reply to Open\n";
        return 1;
      }
      // Transport failure: the connection was dropped; loop to reconnect
      // (connect_until enforces the deadline and budget).
    }
  };

  if (const int rcode = connect_and_open(); rcode != 0) return rcode;
  if (open.degraded)
    out << "note: daemon coarsened the grid to fit its pool (" << open.ks_used.size() << " of "
        << ks.size() << " points); bounds stay sound, only looser\n";
  if (open.resumed && open.events_seen > 0)
    out << "resumed session '" << session << "' at event " << open.events_seen << "\n";

  auto pos = static_cast<std::size_t>(open.events_seen);
  if (pos > demands.size()) {
    err << "daemon has seen " << pos << " events but the trace has only " << demands.size()
        << "; refusing to resume a different stream\n";
    return 1;
  }
  while (pos < demands.size()) {
    if (rc.active) rc.policy.checkpoint("serve-client push");
    const std::size_t take = std::min(static_cast<std::size_t>(chunk), demands.size() - pos);
    serve::PushRequest push;
    push.session_id = session;
    push.demands.assign(demands.begin() + static_cast<std::ptrdiff_t>(pos),
                        demands.begin() + static_cast<std::ptrdiff_t>(pos + take));
    serve::Reply reply;
    if (!client.call(push, &reply)) {
      err << "connection lost (" << client.error() << "), resuming\n";
      if (const int rcode = connect_and_open(); rcode != 0) return rcode;
      pos = static_cast<std::size_t>(open.events_seen);
      continue;
    }
    if (const auto* ok = std::get_if<serve::PushReply>(&reply)) {
      pos = static_cast<std::size_t>(ok->events_seen);
    } else if (const auto* rej = std::get_if<serve::RejectReply>(&reply)) {
      err << "push rejected (" << serve::to_string(rej->code) << "): " << rej->reason << "\n";
      return 1;
    } else {
      err << "unexpected reply to Push\n";
      return 1;
    }
    if (throttle_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
  }

  const auto call_resumed = [&](const serve::Request& req, serve::Reply* reply) -> bool {
    if (client.call(req, reply)) return true;
    if (connect_and_open() != 0) return false;
    return client.call(req, reply);
  };

  serve::Reply reply;
  if (!call_resumed(serve::QueryRequest{session}, &reply)) {
    err << "query failed: " << client.error() << "\n";
    return 1;
  }
  const auto* curves = std::get_if<serve::CurveReply>(&reply);
  if (curves == nullptr) {
    err << "unexpected reply to Query\n";
    return 1;
  }
  common::Table table({"quantity", "value"});
  table.add_row({"events accepted", common::fmt_i(curves->accepted)});
  table.add_row({"events quarantined", common::fmt_i(curves->quarantined)});
  table.add_row({"windows reset", common::fmt_i(curves->windows_reset)});
  if (curves->ready && !curves->upper.empty()) {
    // points() carry the (0, 0) origin; the WCET/BCET anchor is k = 1.
    const auto at_k1 = [](const std::vector<std::pair<EventCount, Cycles>>& pts) -> Cycles {
      for (const auto& [k, v] : pts)
        if (k == 1) return v;
      return 0;
    };
    table.add_row({"WCET = γᵘ(1) [cycles]", common::fmt_i(at_k1(curves->upper))});
    table.add_row({"BCET = γˡ(1) [cycles]", common::fmt_i(at_k1(curves->lower))});
    table.add_row({"grid points", common::fmt_i(static_cast<long long>(curves->upper.size()))});
  }
  table.print(out);
  if (!curves->ready) out << "note: not enough events yet for the smallest window\n";
  if (curves->saturated) out << "note: extractor saturated; bounds are clamped conservatively\n";

  if (o.flags.count("out") && curves->ready) {
    const std::string path = o.text("out", "serve") + ".gamma.csv";
    std::ostringstream csv;
    csv << "k,gamma_l,gamma_u\n";
    for (std::size_t i = 0; i < curves->upper.size(); ++i) {
      const Cycles lower_v = i < curves->lower.size() ? curves->lower[i].second : 0;
      csv << curves->upper[i].first << ',' << lower_v << ',' << curves->upper[i].second << '\n';
    }
    std::string werr;
    if (!common::atomic_write_file(path, csv.str(), &werr)) {
      err << "cannot write " << path << ": " << werr << "\n";
      return 2;
    }
    out << "wrote " << path << "\n";
  }

  const bool keep = o.flags.count("keep-state") > 0;
  if (call_resumed(serve::CloseRequest{session, !keep}, &reply)) {
    if (const auto* closed = std::get_if<serve::CloseReply>(&reply))
      out << "closed session '" << session << "' after " << closed->events_seen << " events"
          << (keep ? " (snapshot kept)" : "") << "\n";
  }
  return 0;
}

/// `stats --connect ADDR [--format table|json|prom]`: one Stats frame to a
/// live daemon, rendered three ways. `json` prints the versioned document
/// verbatim (uptime, pool, sessions, tenants, metrics); `table` and `prom`
/// decode the embedded metrics snapshot — through the same tolerant decoder
/// external scrapers would use, so a schema drift fails loudly here (exit 2)
/// instead of silently in a dashboard.
int cmd_stats(const Options& o, std::ostream& out, std::ostream& err) {
  const std::string connect = o.text("connect", "");
  if (connect.empty()) {
    err << "stats needs --connect <unix:/path | host:port>\n";
    return 2;
  }
  const std::string format = o.text("format", "table");
  if (format != "table" && format != "json" && format != "prom")
    throw UsageError("--format expects 'table', 'json' or 'prom', got '" + format + "'");

  serve::Client client;
  if (!client.connect(connect)) {
    err << "cannot connect to " << connect << ": " << client.error() << "\n";
    return 1;
  }
  serve::Reply reply;
  if (!client.call(serve::StatsRequest{}, &reply)) {
    err << "stats request failed: " << client.error() << "\n";
    return 1;
  }
  const auto* stats = std::get_if<serve::StatsReply>(&reply);
  if (stats == nullptr) {
    if (const auto* e = std::get_if<serve::ErrReply>(&reply))
      err << "daemon error: " << e->message << "\n";
    else
      err << "unexpected reply to Stats\n";
    return 1;
  }
  if (format == "json") {
    out << stats->json;
    return 0;
  }
  try {
    const obs::MetricsSnapshot snap = obs::decode_metrics_json(stats->json);
    if (format == "prom")
      out << obs::to_prometheus(snap);
    else
      snap.print(out);
  } catch (const obs::SchemaMismatchError& e) {
    err << "stats: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "stats: daemon sent an undecodable document: " << e.detail() << "\n";
    return 2;
  }
  return 0;
}

/// `report` also accepts a metrics JSON document where the trace positional
/// goes — a --metrics-out file or a captured `stats --format json` reply —
/// and pretty-prints it without running any pipeline. Sniffed by the leading
/// '{': neither the CSV header nor the WLCCOL magic can start that way.
/// Returns nullopt when the file is not JSON (the trace path proceeds).
std::optional<int> cmd_report_metrics_json(const Options& o, std::ostream& out,
                                           std::ostream& err) {
  std::ifstream file(o.trace_path, std::ios::binary);
  if (!file) return std::nullopt;  // load() reports the open failure uniformly
  int first = file.peek();
  while (first == ' ' || first == '\n' || first == '\r' || first == '\t') {
    file.get();
    first = file.peek();
  }
  if (first != '{') return std::nullopt;
  std::ostringstream buf;
  buf << file.rdbuf();
  try {
    const obs::MetricsSnapshot snap = obs::decode_metrics_json(buf.str());
    out << "metric snapshot decoded from " << o.trace_path << ":\n";
    snap.print(out);
    return 0;
  } catch (const obs::SchemaMismatchError& e) {
    err << "report: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "report: " << e.detail() << "\n";
    return 2;
  }
}

int dispatch(const Options& opts, RuntimeControls& rc, std::ostream& out, std::ostream& err) {
  // First checkpoint before any work: an already-expired --timeout (or a
  // pre-cancelled token) trips deterministically here, not file-dependent
  // rows into ingestion.
  if (rc.active) rc.policy.checkpoint("command dispatch");
  apply_curve_engine_flags(opts, rc);
  // Chaos knob: arm the seeded syscall fault plan before any I/O happens.
  // The CLI validates loudly (exit 2 on a bad grammar or a plan given to a
  // WLC_FAULT_DISABLE build) where the WLC_FAULT_SPEC env path, meant for
  // wrapping arbitrary binaries, ignores malformed specs silently.
  if (const auto it = opts.flags.find("fault-spec"); it != opts.flags.end()) {
    try {
      common::faultfs::install_spec(it->second);
    } catch (const Error& e) {
      throw UsageError("--fault-spec: " + e.message());
    }
  }
  if (opts.command == "serve") return cmd_serve(opts, rc, out, err);
  if (opts.command == "serve-client") return cmd_serve_client(opts, rc, out, err);
  if (opts.command == "stats") return cmd_stats(opts, out, err);
  if (opts.command == "validate") return cmd_validate(opts, rc, out, err);
  if (opts.command == "convert-trace") return cmd_convert_trace(opts, rc, out, err);
  if (opts.command == "report") {
    if (const auto rcode = cmd_report_metrics_json(opts, out, err)) return *rcode;
  }
  // Only the simulator replays row-level events; every other command works
  // from the extracted curves, so columnar traces skip the AoS copy.
  const auto loaded = load(opts, rc, err, opts.command == "simulate");
  if (!loaded) return 2;
  if (opts.command == "curves" || opts.command == "extract") return cmd_curves(opts, *loaded, out);
  if (opts.command == "compact") return cmd_compact(opts, *loaded, out);
  if (opts.command == "report") return cmd_report(*loaded, out);
  if (opts.command == "size-buffer") return cmd_size_buffer(opts, *loaded, rc, out, err);
  if (opts.command == "size-delay") return cmd_size_delay(opts, *loaded, out, err);
  if (opts.command == "bounds") return cmd_bounds(opts, *loaded, out, err);
  if (opts.command == "simulate") return cmd_simulate(opts, *loaded, out, err);
  err << "unknown command: " << opts.command << "\n" << usage();
  return 2;
}

/// Writes --metrics-out / --trace-out files after the command ran. Analysis
/// stdout is already complete by now, so the instrumented and plain runs
/// stay byte-identical on the primary stream.
int write_observability_outputs(const Options& o, std::ostream& err) {
  if (const auto it = o.flags.find("metrics-out"); it != o.flags.end()) {
    std::string werr;
    if (!common::atomic_write_file(it->second, obs::registry().snapshot().to_json(), &werr)) {
      err << "cannot open metrics output file: " << it->second << " (" << werr << ")\n";
      return 2;
    }
  }
  if (const auto it = o.flags.find("trace-out"); it != o.flags.end()) {
    std::ostringstream buf;
    obs::write_chrome_trace(buf);
    std::string werr;
    if (!common::atomic_write_file(it->second, buf.str(), &werr)) {
      err << "cannot open trace output file: " << it->second << " (" << werr << ")\n";
      return 2;
    }
  }
  return 0;
}

/// Writes --degradation-out after the command ran (or was aborted). The
/// report is written on the cancelled/budget exit paths too — an aborted
/// run's report says what had been shed before the trip, and its "aborted"
/// field says why the run stopped.
int write_degradation_output(const RuntimeControls& rc, std::ostream& err) {
  if (!rc.degradation_out) return 0;
  std::string werr;
  if (!common::atomic_write_file(*rc.degradation_out, rc.degradation.to_json() + "\n", &werr)) {
    err << "cannot open degradation output file: " << *rc.degradation_out << " (" << werr << ")\n";
    return 2;
  }
  return 0;
}

}  // namespace

std::string usage() {
  return "usage: wlc_analyze <command> <trace.csv> [flags]\n"
         "  extract      <trace.csv> [--dense N] [--growth G] [--out prefix]\n"
         "               [--threads N | --jobs N]\n"
         "               extract workload + arrival curves, print a summary.\n"
         "               extraction fans the k-grid across a thread pool\n"
         "               (default: hardware concurrency); output is\n"
         "               bit-identical at every thread count\n"
         "  curves       alias of extract (kept for compatibility)\n"
         "  compact      <trace.csv> [--compact-eps E] [--compact-rel R] [--out prefix]\n"
         "               [extract flags]\n"
         "               fit bounded-error piecewise-linear forms of the\n"
         "               workload curves (gamma_u rounded up, gamma_l down, so\n"
         "               the compact curves stay conservative) and report knot\n"
         "               counts, point reduction, and achieved max error.\n"
         "               default budget is exact (eps = 0, bit-identical\n"
         "               re-expansion); --out writes <prefix>.pwl.csv knots\n"
         "  report       <trace.csv | metrics.json> [extract flags]\n"
         "               run the extraction pipeline, then pretty-print the\n"
         "               run's metric snapshot (counters, gauges, latency\n"
         "               histograms with p50/p90/p99) instead of the curve\n"
         "               summary. given a metrics JSON file instead of a\n"
         "               trace (a --metrics-out file or a captured\n"
         "               'stats --format json' reply), pretty-prints it\n"
         "               directly; a schema_version mismatch exits 2\n"
         "  size-buffer  <trace.csv> --buffer <events>\n"
         "               minimum clock so a FIFO of that size never overflows (eq. 9/10)\n"
         "  size-delay   <trace.csv> --deadline-ms <ms>\n"
         "               minimum clock meeting a per-event deadline\n"
         "  bounds       <trace.csv> --mhz <clock> [--grid N]\n"
         "               GPC backlog/delay bounds of the trace's task on a\n"
         "               dedicated PE at that clock (curve algebra end to end)\n"
         "  simulate     <trace.csv> --mhz <clock> [--capacity <events>]\n"
         "               replay the trace through the FIFO + PE pipeline\n"
         "  serve        --listen <unix:/path | host:port | :port> [--state-dir DIR]\n"
         "               [--max-sessions N] [--max-grid N] [--max-bytes N]\n"
         "               [--admit reject|degrade|queue] [--queue-timeout D]\n"
         "               [--snapshot-every N] [--snapshot-interval D] [--timeout D]\n"
         "               [--request-log FILE] [--slow-ms N] [--request-log-max-bytes N]\n"
         "               [--watchdog-ms N] [--watchdog-abort] [--drain-to ADDR]\n"
         "               run the analysis daemon: concurrent streaming sessions\n"
         "               over TCP or a Unix socket, admission control on the\n"
         "               session/grid/byte pool (reject = explicit backpressure,\n"
         "               degrade = coarsen the grid soundly, queue = hold Opens\n"
         "               until capacity or deadline), crash-safe snapshots in\n"
         "               --state-dir, recovery on restart. SIGTERM/SIGINT drain\n"
         "               gracefully (exit 0).\n"
         "               --request-log appends one JSONL record per handled\n"
         "               frame (tenant, opcode, bytes, latency µs, admission\n"
         "               outcome); --slow-ms keeps only records at or above\n"
         "               that latency; the log rotates once to FILE.1 past\n"
         "               --request-log-max-bytes (default 64 MiB, 0 = never).\n"
         "               --watchdog-ms arms a monitor thread that counts any\n"
         "               reactor stall longer than N ms under\n"
         "               serve.reactor.stall, naming the frame in flight;\n"
         "               --watchdog-abort escalates detection to abort() for\n"
         "               a debuggable core.\n"
         "               --drain-to names a peer daemon: the graceful drain\n"
         "               hands live sessions to it (Migrate frames, cursor-\n"
         "               exact) and parked Opens get a Redirect instead of a\n"
         "               queue-timeout rejection; a failed hand-off falls\n"
         "               back to the disk snapshot.\n"
         "  stats        --connect <unix:/path | host:port> [--format table|json|prom]\n"
         "               ask a live daemon for its stats document: uptime,\n"
         "               pool occupancy, per-session and per-tenant state and\n"
         "               the full metric snapshot (with p50/p90/p99 latency\n"
         "               quantiles). 'table' pretty-prints the metrics,\n"
         "               'json' prints the versioned document verbatim,\n"
         "               'prom' emits Prometheus text exposition. a\n"
         "               schema_version mismatch exits 2\n"
         "  serve-client <trace.csv> --connect ADDR[,ADDR...] --session ID\n"
         "               [--tenant T] [--chunk N] [--throttle-ms N] [--retry-for D]\n"
         "               [--retry-budget N] [--retry-seed N]\n"
         "               [--dense N] [--growth G] [--out prefix] [--keep-state]\n"
         "               stream the trace to a daemon and print the session's\n"
         "               curves; reconnects and resumes (bit-identically) within\n"
         "               --retry-for after daemon restarts or backpressure.\n"
         "               --connect accepts a comma-separated failover list:\n"
         "               reconnect sweeps try every address with decorrelated-\n"
         "               jitter backoff between sweeps (seeded by --retry-seed),\n"
         "               give up after --retry-budget failed sweeps (0 =\n"
         "               deadline-only), and follow a draining daemon's\n"
         "               Redirect to the peer holding the migrated session\n"
         "  convert-trace <trace> --out FILE\n"
         "               convert between the CSV and WLCCOL columnar binary\n"
         "               trace formats (direction decided by sniffing the\n"
         "               input's magic). the columnar format is checksummed,\n"
         "               memory-mapped on read, and loads without parsing —\n"
         "               convert once, analyze many times. the write is\n"
         "               atomic; the round-trip is lossless\n"
         "  validate     <trace.csv> [--strict | --lenient] [--dense N] [--growth G]\n"
         "               check the trace and its extracted curves against the\n"
         "               soundness invariants (monotone/additive curves, ordered\n"
         "               finite trace). --strict (default) rejects the first bad\n"
         "               row; --lenient drops bad rows and reports them.\n"
         "               exit codes: 0 valid, 2 usage, 3 rejected input,\n"
         "               4 soundness violation, 5 valid but rows were dropped\n"
         "global flags (every command; --key value and --key=value both work):\n"
         "  --curve-cache BYTES  capacity of the curve-operation memo cache\n"
         "                       (default 16 MiB; 0 disables). results are\n"
         "                       bit-identical with or without the cache\n"
         "  --no-fast-paths      disable the shape-aware curve kernels\n"
         "                       (dense kernel everywhere) and the shared\n"
         "                       sliding-window extraction index (per-k\n"
         "                       oracle scans instead).\n"
         "                       diagnostic only — results are bit-identical\n"
         "  --fault-spec SPEC    arm deterministic syscall fault injection\n"
         "                       (chaos testing), e.g. 'seed=42;read:eintr,p=0.2;\n"
         "                       fsync:enospc,count=1'. ops: read write open\n"
         "                       accept fsync; kinds: eintr short enospc emfile\n"
         "                       delay. also honored as WLC_FAULT_SPEC in the\n"
         "                       environment. usage error if the build compiled\n"
         "                       it out (WLC_FAULT_DISABLE)\n"
         "  --metrics-out FILE   write this run's metric snapshot as JSON\n"
         "  --trace-out FILE     record scoped spans and write Chrome\n"
         "                       trace-event JSON (open in chrome://tracing\n"
         "                       or ui.perfetto.dev)\n"
         "runtime controls (every command):\n"
         "  --timeout D          abort once D of wall time has elapsed; D is\n"
         "                       '2', '2.5s' or '500ms'. exit code 6\n"
         "  --max-grid N         budget: at most N k-grid points\n"
         "  --max-rows N         budget: at most N trace rows ingested\n"
         "  --max-bytes N        budget: at most N resident bytes per extraction\n"
         "  --on-budget MODE     'fail' (default): exceeding a budget aborts\n"
         "                       with exit code 7. 'degrade': shed work instead\n"
         "                       (coarser grid / truncated trace) and report\n"
         "                       what was shed; bounds stay sound for the\n"
         "                       analyzed subset. only extract/curves/report/\n"
         "                       convert-trace have a degradation path;\n"
         "                       elsewhere degrade mode is a usage error\n"
         "  --degradation-out FILE  write the degradation report as JSON\n"
         "                       (also written when a timeout aborts the run,\n"
         "                       with \"aborted\" naming the cause)\n"
         "exit codes: 0 ok, 1 error, 2 usage, 3-5 validate (above),\n"
         "            6 cancelled (--timeout expired or SIGINT/SIGTERM; outputs\n"
         "              are atomic — whole files or no files, never torn),\n"
         "            7 budget exceeded under fail\n"
         "trace format: CSV with header 'time,type,demand', or the WLCCOL\n"
         "              columnar binary (see convert-trace). every command\n"
         "              sniffs the magic and accepts either transparently\n";
}

int run(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err) {
  return run(argv, out, err, nullptr);
}

int run(const std::vector<std::string>& argv, std::ostream& out, std::ostream& err,
        const runtime::CancelToken* interrupt) {
  const auto opts = parse(argv, err);
  if (!opts) return 2;
  // Span recording costs a clock read per span, so it is armed only when a
  // trace sink was actually requested (and disarmed again for in-process
  // callers like the test suite).
  const bool tracing = opts->flags.count("trace-out") > 0;
  RuntimeControls controls;
  int rc;
  try {
    controls = runtime_controls(*opts);  // may throw UsageError; before tracing arms
    if (interrupt != nullptr && interrupt->armed()) {
      // SIGINT/SIGTERM (armed by main around this call) ride the same
      // cooperative-cancel path as --timeout: checkpoints throw
      // CancelledError, every output file is written atomically or not at
      // all, and one-shot commands exit 6. The serve daemon instead treats
      // the signal as its shutdown request and drains to exit 0.
      controls.policy.token = interrupt->child();
      controls.active = true;
    }
    if (tracing) obs::set_tracing_enabled(true);
    rc = dispatch(*opts, controls, out, err);
  } catch (const UsageError& e) {
    if (tracing) obs::set_tracing_enabled(false);
    err << e.what() << "\n" << usage();
    return 2;
  } catch (const CancelledError& e) {
    if (tracing) obs::set_tracing_enabled(false);
    controls.degradation.aborted =
        e.reason() == CancelledError::Reason::Deadline ? "deadline" : "cancelled";
    err << "cancelled: " << e.detail() << "\n";
    const int deg_rc = write_degradation_output(controls, err);
    const int obs_rc = write_observability_outputs(*opts, err);
    return deg_rc != 0 ? deg_rc : obs_rc != 0 ? obs_rc : kExitCancelled;
  } catch (const BudgetExceededError& e) {
    if (tracing) obs::set_tracing_enabled(false);
    controls.degradation.aborted = "budget:" + e.axis();
    err << "budget exceeded (" << e.axis() << "): " << e.detail() << "\n";
    const int deg_rc = write_degradation_output(controls, err);
    const int obs_rc = write_observability_outputs(*opts, err);
    return deg_rc != 0 ? deg_rc : obs_rc != 0 ? obs_rc : kExitBudget;
  } catch (const std::exception& e) {
    if (tracing) obs::set_tracing_enabled(false);
    err << "error: " << e.what() << "\n";
    return 1;
  }
  if (tracing) obs::set_tracing_enabled(false);
  if (controls.degradation.degraded())
    out << "degraded: " << controls.degradation.to_string() << "\n";
  const int deg_rc = write_degradation_output(controls, err);
  const int obs_rc = write_observability_outputs(*opts, err);
  if (deg_rc != 0) return deg_rc;
  return obs_rc != 0 ? obs_rc : rc;
}

}  // namespace wlc::cli
