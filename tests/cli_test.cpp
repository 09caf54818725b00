#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "trace/io.h"

namespace wlc::cli {
namespace {

/// A temp path private to the running test. ctest runs every test as its
/// own process, in parallel, so a fixed file name would be shared between
/// tests that truncate each other's files.
std::string temp_path(const std::string& stem) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "wlc_cli_" + test->test_suite_name() + "." + test->name() + "." +
         stem;
}

/// Writes a bursty demo trace to a temp file; returns its path.
std::string write_demo_trace() {
  const std::string path = temp_path("trace.csv");
  common::Rng rng(321);
  trace::EventTrace events;
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += rng.bernoulli(0.3) ? rng.uniform(0.0002, 0.002) : rng.uniform(0.01, 0.05);
    events.push_back({t, 0, rng.uniform_int(100, 900)});
  }
  std::ofstream f(path);
  trace::write_event_trace_csv(f, events);
  return path;
}

TEST(Cli, UsageOnBadInvocations) {
  std::ostringstream out, err;
  EXPECT_EQ(run({}, out, err), 2);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
  err.str("");
  EXPECT_EQ(run({"curves"}, out, err), 2);
  err.str("");
  EXPECT_EQ(run({"frobnicate", write_demo_trace()}, out, err), 2);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
  err.str("");
  EXPECT_EQ(run({"curves", "/nonexistent/file.csv"}, out, err), 2);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
  err.str("");
  EXPECT_EQ(run({"curves", write_demo_trace(), "--dense"}, out, err), 2);  // dangling flag
}

TEST(Cli, CurvesSummaryAndExport) {
  const std::string path = write_demo_trace();
  const std::string prefix = temp_path("out");
  std::ostringstream out, err;
  ASSERT_EQ(run({"curves", path, "--out", prefix}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("WCET"), std::string::npos);
  EXPECT_NE(out.str().find("long-run demand"), std::string::npos);
  std::ifstream gamma(prefix + ".gamma.csv");
  ASSERT_TRUE(gamma.good());
  std::string header;
  std::getline(gamma, header);
  EXPECT_EQ(header, "k,gamma_l,gamma_u");
  std::ifstream arrival(prefix + ".arrival.csv");
  ASSERT_TRUE(arrival.good());
  std::remove((prefix + ".gamma.csv").c_str());
  std::remove((prefix + ".arrival.csv").c_str());
}

TEST(Cli, SizeBufferReportsBothModels) {
  const std::string path = write_demo_trace();
  std::ostringstream out, err;
  ASSERT_EQ(run({"size-buffer", path, "--buffer", "10"}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("workload curves"), std::string::npos);
  EXPECT_NE(out.str().find("WCET only"), std::string::npos);
  EXPECT_NE(out.str().find("savings"), std::string::npos);
  // Missing flag is a usage error.
  std::ostringstream err2;
  EXPECT_EQ(run({"size-buffer", path}, out, err2), 2);
}

TEST(Cli, SizeDelayAndSimulate) {
  const std::string path = write_demo_trace();
  std::ostringstream out, err;
  ASSERT_EQ(run({"size-delay", path, "--deadline-ms", "5"}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("minimum clock"), std::string::npos);
  std::ostringstream out2;
  ASSERT_EQ(run({"simulate", path, "--mhz", "1", "--capacity", "50"}, out2, err), 0)
      << err.str();
  EXPECT_NE(out2.str().find("max backlog"), std::string::npos);
  EXPECT_NE(out2.str().find("utilization"), std::string::npos);
}

std::string fixture(const std::string& name) { return std::string(WLC_FIXTURE_DIR "/") + name; }

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Cli, BoundsIsByteIdenticalWithoutFastPathsAndRunsNoDenseCall) {
  // One GPC step against β = 364.4 MHz·Δ on a 4,096-point grid. β's rounded
  // increments wobble, so only the near-convex kernel keeps its four
  // operator calls off the dense route. The memo cache is off, so each run
  // computes every call.
  const std::string path = write_demo_trace();
  const std::string metrics = temp_path("metrics.json");
  const std::vector<std::string> args = {"bounds", path, "--grid", "4096", "--mhz", "364.4",
                                         "--curve-cache", "0"};
  obs::registry().reset_for_testing();
  std::vector<std::string> with_metrics = args;
  with_metrics.insert(with_metrics.end(), {"--metrics-out", metrics});
  std::ostringstream fast, dense, err;
  ASSERT_EQ(run(with_metrics, fast, err), 0) << err.str();
  std::vector<std::string> no_fast = args;
  no_fast.push_back("--no-fast-paths");
  ASSERT_EQ(run(no_fast, dense, err), 0) << err.str();
  EXPECT_NE(fast.str().find("backlog [cycles]"), std::string::npos);
  EXPECT_EQ(fast.str(), dense.str());

  std::ifstream f(metrics);
  ASSERT_TRUE(f.good());
  std::stringstream json;
  json << f.rdbuf();
  EXPECT_NE(json.str().find("\"curve.dispatch.fast\": 6,"), std::string::npos) << json.str();
  EXPECT_NE(json.str().find("\"curve.dispatch.dense\": 0,"), std::string::npos) << json.str();
  std::remove(metrics.c_str());
}

TEST(Cli, ExtractIsThreadCountInvariant) {
  // The parallel engine promises bit-identical curves at every thread
  // count; at the CLI boundary that means byte-identical stdout and
  // byte-identical exported CSVs between --threads 1 and --threads 4.
  const std::string path = fixture("polling_clean.csv");
  const std::string p1 = temp_path("t1");
  const std::string p4 = temp_path("t4");
  std::ostringstream out1, err1, out4, err4;
  ASSERT_EQ(run({"extract", path, "--threads", "1", "--out", p1}, out1, err1), 0) << err1.str();
  ASSERT_EQ(run({"extract", path, "--threads", "4", "--out", p4}, out4, err4), 0) << err4.str();
  // Normalize the only intentional difference: the printed output prefix.
  std::string s1 = out1.str(), s4 = out4.str();
  ASSERT_NE(s1.find(p1), std::string::npos);
  s1.replace(s1.find(p1), p1.size(), "PREFIX");
  // p1 appears twice in "wrote PREFIX.gamma.csv and PREFIX.arrival.csv".
  while (s1.find(p1) != std::string::npos) s1.replace(s1.find(p1), p1.size(), "PREFIX");
  while (s4.find(p4) != std::string::npos) s4.replace(s4.find(p4), p4.size(), "PREFIX");
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(slurp(p1 + ".gamma.csv"), slurp(p4 + ".gamma.csv"));
  EXPECT_EQ(slurp(p1 + ".arrival.csv"), slurp(p4 + ".arrival.csv"));
  for (const std::string& p : {p1, p4}) {
    std::remove((p + ".gamma.csv").c_str());
    std::remove((p + ".arrival.csv").c_str());
  }
}

TEST(Cli, ExtractAliasesCurvesAndJobsAliasesThreads) {
  const std::string path = write_demo_trace();
  std::ostringstream out_extract, out_curves, err;
  ASSERT_EQ(run({"extract", path, "--jobs", "2"}, out_extract, err), 0) << err.str();
  ASSERT_EQ(run({"curves", path}, out_curves, err), 0) << err.str();
  EXPECT_EQ(out_extract.str(), out_curves.str());
}

TEST(Cli, ExtractRejectsZeroThreads) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"extract", fixture("polling_clean.csv"), "--threads", "0"}, out, err), 1);
  EXPECT_NE(err.str().find("--threads"), std::string::npos);
}

TEST(Cli, RejectsNonNumericFlagValues) {
  // "--threads abc" used to reach std::stod and die with a raw
  // std::invalid_argument; it must be a usage error naming flag and value.
  const std::string path = fixture("polling_clean.csv");
  std::ostringstream out, err;
  EXPECT_EQ(run({"extract", path, "--threads", "abc"}, out, err), 2);
  EXPECT_NE(err.str().find("--threads"), std::string::npos);
  EXPECT_NE(err.str().find("abc"), std::string::npos);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
  std::ostringstream err2;
  EXPECT_EQ(run({"simulate", path, "--mhz", "fast"}, out, err2), 2);
  EXPECT_NE(err2.str().find("--mhz"), std::string::npos);
  EXPECT_NE(err2.str().find("fast"), std::string::npos);
}

TEST(Cli, RejectsTrailingGarbageInFlagValues) {
  // Partial parses like "4x" or "3.5GHz" must not silently use the prefix.
  const std::string path = fixture("polling_clean.csv");
  std::ostringstream out, err;
  EXPECT_EQ(run({"extract", path, "--threads", "4x"}, out, err), 2);
  EXPECT_NE(err.str().find("4x"), std::string::npos);
  std::ostringstream err2;
  EXPECT_EQ(run({"simulate", path, "--mhz", "3.5GHz"}, out, err2), 2);
  EXPECT_NE(err2.str().find("3.5GHz"), std::string::npos);
  std::ostringstream err3;
  EXPECT_EQ(run({"extract", path, "--dense", "1e3q"}, out, err3), 2);
}

TEST(Cli, RejectsFractionalThreadCounts) {
  // "--threads 2.5" used to truncate to 2; integer flags reject fractions.
  const std::string path = fixture("polling_clean.csv");
  std::ostringstream out, err;
  EXPECT_EQ(run({"extract", path, "--threads", "2.5"}, out, err), 2);
  EXPECT_NE(err.str().find("--threads"), std::string::npos);
  EXPECT_NE(err.str().find("integer"), std::string::npos);
  std::ostringstream err2;
  EXPECT_EQ(run({"extract", path, "--jobs", "2.5"}, out, err2), 2);
  EXPECT_NE(err2.str().find("--jobs"), std::string::npos);
}

TEST(CliValidate, CleanTraceExitsZero) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"validate", fixture("polling_clean.csv")}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("sound"), std::string::npos);
  // Also via the temp-file demo trace, with explicit --strict.
  std::ostringstream out2, err2;
  EXPECT_EQ(run({"validate", write_demo_trace(), "--strict"}, out2, err2), 0) << err2.str();
}

TEST(CliValidate, StrictRejectsEveryCorruptionFixture) {
  for (const char* name : {"corrupt_garbage.csv", "corrupt_nonfinite.csv",
                           "corrupt_unordered.csv", "corrupt_negative.csv",
                           "corrupt_overflow.csv"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"validate", fixture(name)}, out, err), 3) << name;
    EXPECT_NE(err.str().find("rejected:"), std::string::npos) << name;
  }
}

TEST(CliValidate, LenientDegradesOnCorruptionFixtures) {
  for (const char* name : {"corrupt_garbage.csv", "corrupt_nonfinite.csv",
                           "corrupt_unordered.csv", "corrupt_negative.csv",
                           "corrupt_overflow.csv"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run({"validate", fixture(name), "--lenient"}, out, err), 5) << name << err.str();
    EXPECT_NE(out.str().find("degraded:"), std::string::npos) << name;
    EXPECT_NE(out.str().find("kept rows only"), std::string::npos) << name;
  }
}

TEST(CliValidate, UnsoundExtractionExitsFour) {
  // Two near-max demands parse fine but the 2-window sum overflows Cycles —
  // extraction must refuse rather than report a wrapped "bound".
  std::ostringstream out, err;
  EXPECT_EQ(run({"validate", fixture("unsound_extraction.csv")}, out, err), 4);
  EXPECT_NE(err.str().find("unsound"), std::string::npos);
}

TEST(CliValidate, UsageErrors) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"validate", fixture("polling_clean.csv"), "--strict", "--lenient"}, out, err), 2);
  EXPECT_NE(err.str().find("mutually exclusive"), std::string::npos);
  std::ostringstream err2;
  EXPECT_EQ(run({"validate", "/nonexistent/file.csv"}, out, err2), 2);
}

TEST(Cli, RejectsMalformedTrace) {
  const std::string path = temp_path("bad.csv");
  std::ofstream(path) << "not,a,trace\n1,2\n";
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", path}, out, err), 2);
  EXPECT_NE(err.str().find("bad trace file"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ParseErrorsNameTheInputFile) {
  // The load path passes the trace path as ReadOptions::source_name, so a
  // strict-mode rejection points at the file, not an anonymous stream.
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", fixture("corrupt_garbage.csv")}, out, err), 2);
  EXPECT_NE(err.str().find("corrupt_garbage.csv"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("line 12"), std::string::npos) << err.str();
}

TEST(CliRuntime, KeyEqualsValueSyntaxWorks) {
  const std::string path = write_demo_trace();
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", path, "--dense=64", "--threads=2"}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("WCET"), std::string::npos);
}

TEST(CliRuntime, TimeoutAbortsWithExitSixAndReportsDeadline) {
  const std::string path = write_demo_trace();
  const std::string deg = temp_path("deg_timeout.json");
  std::ostringstream out, err;
  // 1 µs wall budget: the first checkpoint (command dispatch) trips before
  // any ingestion, deterministically on any machine.
  EXPECT_EQ(run({"report", path, "--timeout", "0.000001", "--on-budget", "degrade",
                 "--degradation-out", deg},
                out, err),
            6)
      << err.str();
  EXPECT_NE(err.str().find("cancelled:"), std::string::npos);
  std::ifstream f(deg);
  ASSERT_TRUE(f.good());
  std::stringstream json;
  json << f.rdbuf();
  EXPECT_NE(json.str().find("\"aborted\": \"deadline\""), std::string::npos) << json.str();
  EXPECT_NE(json.str().find("\"degraded\": true"), std::string::npos);
  std::remove(deg.c_str());
}

TEST(CliRuntime, TimeoutTripIsVisibleInMetricsSnapshot) {
  const std::string path = write_demo_trace();
  const std::string metrics = temp_path("runtime_metrics.json");
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", path, "--timeout=0.000001", "--metrics-out", metrics}, out, err), 6);
  std::ifstream f(metrics);
  ASSERT_TRUE(f.good());
  std::stringstream json;
  json << f.rdbuf();
  EXPECT_NE(json.str().find("runtime.deadline_trips"), std::string::npos) << json.str();
  std::remove(metrics.c_str());
}

TEST(CliRuntime, GridBudgetFailExitsSeven) {
  const std::string path = write_demo_trace();  // 200 events -> grid > 4 points
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", path, "--max-grid", "4"}, out, err), 7) << err.str();
  EXPECT_NE(err.str().find("budget exceeded"), std::string::npos);
  EXPECT_NE(err.str().find("grid_points"), std::string::npos);
}

TEST(CliRuntime, GridBudgetDegradeSucceedsAndReports) {
  const std::string path = write_demo_trace();
  const std::string deg = temp_path("deg_grid.json");
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", path, "--max-grid", "4", "--on-budget", "degrade",
                 "--degradation-out", deg},
                out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("degraded:"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("k-grid coarsened"), std::string::npos);
  std::ifstream f(deg);
  ASSERT_TRUE(f.good());
  std::stringstream json;
  json << f.rdbuf();
  EXPECT_NE(json.str().find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.str().find("\"aborted\": \"\""), std::string::npos);  // completed, not aborted
  std::remove(deg.c_str());
}

TEST(CliRuntime, RowBudgetFailAndDegrade) {
  const std::string path = write_demo_trace();  // 200 data rows
  std::ostringstream out, err;
  EXPECT_EQ(run({"curves", path, "--max-rows", "50"}, out, err), 7) << err.str();
  EXPECT_NE(err.str().find("trace_rows"), std::string::npos);

  std::ostringstream out2, err2;
  EXPECT_EQ(run({"curves", path, "--max-rows=50", "--on-budget=degrade"}, out2, err2), 0)
      << err2.str();
  EXPECT_NE(out2.str().find("degraded:"), std::string::npos);
  EXPECT_NE(out2.str().find("50 of 200 trace rows"), std::string::npos) << out2.str();
}

TEST(CliRuntime, UsageErrorsForBadRuntimeFlags) {
  const std::string path = write_demo_trace();
  for (const std::vector<std::string>& argv : std::vector<std::vector<std::string>>{
           {"curves", path, "--timeout", "abc"},
           {"curves", path, "--timeout", "0"},
           {"curves", path, "--timeout", "-2s"},
           {"curves", path, "--timeout", "2x"},
           {"curves", path, "--max-grid", "0"},
           {"curves", path, "--max-rows", "-5"},
           {"curves", path, "--on-budget", "explode"},
       }) {
    std::ostringstream out, err;
    EXPECT_EQ(run(argv, out, err), 2) << argv.back() << ": " << err.str();
    EXPECT_NE(err.str().find("usage:"), std::string::npos);
  }
}

TEST(CliRuntime, DegradeModeRejectedWhereNoDegradationPathExists) {
  const std::string path = write_demo_trace();
  for (const char* cmd : {"simulate", "size-buffer", "size-delay", "validate"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run({cmd, path, "--on-budget=degrade"}, out, err), 2) << cmd;
    // The diagnostic names both the flag and the offending subcommand.
    EXPECT_NE(err.str().find("--on-budget=degrade"), std::string::npos) << cmd;
    EXPECT_NE(err.str().find(cmd), std::string::npos) << cmd;
    std::ostringstream out2, err2;
    EXPECT_EQ(run({cmd, path, "--degradation-out", "/tmp/x.json"}, out2, err2), 2) << cmd;
    EXPECT_NE(err2.str().find("--degradation-out"), std::string::npos) << cmd;
  }
}

TEST(CliRuntime, BudgetFailOnNonDegradableSubcommandExitsSeven) {
  // Fail-mode budgets are legal everywhere; only *degrade* needs a path.
  const std::string path = write_demo_trace();
  std::ostringstream out, err;
  EXPECT_EQ(run({"simulate", path, "--mhz", "100", "--max-rows", "10"}, out, err), 7)
      << err.str();
}

TEST(CliServe, UsageErrors) {
  {
    std::ostringstream out, err;  // serve without --listen
    EXPECT_EQ(run({"serve"}, out, err), 2);
    EXPECT_NE(err.str().find("--listen"), std::string::npos);
  }
  {
    std::ostringstream out, err;  // unparsable listen address
    EXPECT_EQ(run({"serve", "--listen", "not-an-address"}, out, err), 2);
  }
  {
    std::ostringstream out, err;  // unknown admission policy
    EXPECT_EQ(run({"serve", "--listen", ":0", "--admit", "explode"}, out, err), 2);
    EXPECT_NE(err.str().find("--admit"), std::string::npos);
  }
  {
    std::ostringstream out, err;  // serve takes no trace positional
    EXPECT_EQ(run({"serve", write_demo_trace(), "--listen", ":0"}, out, err), 2);
  }
  {
    std::ostringstream out, err;  // serve-client needs --connect and --session
    EXPECT_EQ(run({"serve-client", write_demo_trace()}, out, err), 2);
    EXPECT_NE(err.str().find("--connect"), std::string::npos);
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(run({"serve-client", write_demo_trace(), "--connect", "unix:/tmp/x"},
                  out, err), 2);
    EXPECT_NE(err.str().find("--session"), std::string::npos);
  }
  {
    std::ostringstream out, err;  // session ids double as snapshot file stems
    EXPECT_EQ(run({"serve-client", write_demo_trace(), "--connect", "unix:/tmp/x",
                   "--session", "../escape"},
                  out, err), 2);
  }
}

TEST(CliServe, UsageTextCoversServing) {
  std::ostringstream out, err;
  EXPECT_EQ(run({}, out, err), 2);
  EXPECT_NE(err.str().find("serve"), std::string::npos);
  EXPECT_NE(err.str().find("serve-client"), std::string::npos);
}

}  // namespace
}  // namespace wlc::cli
