#!/usr/bin/env python3
"""Unit tests for tools/compare_bench.py (pairwise gate + history mode).

Every test shells out to the script exactly the way CI does, so exit codes
and stderr wording — the two things other tooling keys on — are what is
asserted, not internals. Registered with CTest as `compare_bench_py`
(label `tools`) from tools/CMakeLists.txt; also runnable directly:

    python3 tools/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def bench_json(times_ns, num_cpus=8, mhz=3000):
    """Minimal google-benchmark JSON with a host-identifying context."""
    return {
        "context": {"num_cpus": num_cpus, "mhz_per_cpu": mhz},
        "benchmarks": [
            {"name": name, "run_type": "iteration",
             "real_time": ns, "cpu_time": ns, "time_unit": "ns"}
            for name, ns in sorted(times_ns.items())
        ],
    }


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="cmp_bench_")
        self.addCleanup(self.tmp.cleanup)

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def write(self, name, data):
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as f:
            json.dump(data, f)
        return p

    def run_tool(self, *argv):
        return subprocess.run(
            [sys.executable, SCRIPT, *argv],
            capture_output=True, text=True, cwd=self.tmp.name)

    # ---- pairwise mode ----------------------------------------------------

    def test_same_host_regression_exits_1(self):
        base = self.write("base.json", bench_json({"bm_conv": 100.0}))
        cand = self.write("cand.json", bench_json({"bm_conv": 150.0}))
        r = self.run_tool(base, cand, "--threshold", "0.10")
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        self.assertNotIn("host mismatch", r.stderr)

    def test_same_host_within_threshold_exits_0(self):
        base = self.write("base.json", bench_json({"bm_conv": 100.0}))
        cand = self.write("cand.json", bench_json({"bm_conv": 105.0}))
        r = self.run_tool(base, cand, "--threshold", "0.10")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_host_mismatch_warns_exactly_once_and_does_not_gate(self):
        base = self.write("base.json", bench_json({"bm_conv": 100.0},
                                                  num_cpus=8))
        cand = self.write("cand.json", bench_json({"bm_conv": 200.0},
                                                  num_cpus=64))
        r = self.run_tool(base, cand, "--threshold", "0.10")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stderr.count("host mismatch"), 1, r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_fail_on_host_mismatch_gates_anyway(self):
        base = self.write("base.json", bench_json({"bm_conv": 100.0},
                                                  num_cpus=8))
        cand = self.write("cand.json", bench_json({"bm_conv": 200.0},
                                                  num_cpus=64))
        r = self.run_tool(base, cand, "--fail-on-host-mismatch")
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertEqual(r.stderr.count("host mismatch"), 1, r.stderr)

    def test_missing_baseline_is_report_only_exit_0(self):
        cand = self.write("cand.json", bench_json({"bm_conv": 100.0}))
        r = self.run_tool(self.path("nonexistent.json"), cand)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no usable baseline", r.stderr)

    def test_malformed_candidate_exits_2(self):
        base = self.write("base.json", bench_json({"bm_conv": 100.0}))
        cand = self.path("broken.json")
        with open(cand, "w", encoding="utf-8") as f:
            f.write("{not json")
        r = self.run_tool(base, cand)
        self.assertEqual(r.returncode, 2, r.stderr)

    # ---- history mode -----------------------------------------------------

    def record(self, bench_path, commit, hist="hist.jsonl"):
        return self.run_tool("history", bench_path, "--record",
                             "--commit", commit,
                             "--history-file", self.path(hist))

    def test_history_record_appends_jsonl_entry(self):
        bench = self.write("bench.json", bench_json({"bm_conv": 100.0}))
        r = self.record(bench, "abc123")
        self.assertEqual(r.returncode, 0, r.stderr)
        with open(self.path("hist.jsonl"), encoding="utf-8") as f:
            entries = [json.loads(line) for line in f if line.strip()]
        self.assertEqual(len(entries), 1)
        self.assertEqual(entries[0]["commit"], "abc123")
        self.assertEqual(entries[0]["source"], "bench.json")
        self.assertEqual(entries[0]["times_ns"], {"bm_conv": 100.0})

    def test_history_render_flags_consecutive_regression_report_only(self):
        b1 = self.write("bench.json", bench_json({"bm_conv": 100.0}))
        self.record(b1, "c1")
        b2 = self.write("bench.json", bench_json({"bm_conv": 170.0}))
        self.record(b2, "c2")
        r = self.run_tool("history", b2, "--history-file",
                          self.path("hist.jsonl"), "--threshold", "0.10")
        self.assertEqual(r.returncode, 0, r.stderr)  # never gates
        self.assertIn("REGRESSION", r.stderr)
        self.assertIn("c1", r.stdout)
        self.assertIn("c2", r.stdout)
        self.assertIn("+70%", r.stdout)

    def test_history_deltas_only_between_rows_of_one_host(self):
        # Two hosts interleaved: each host's rows form their own trajectory,
        # and no delta is ever taken across hosts.
        for i, (cpus, ns) in enumerate(((8, 100.0), (64, 1000.0),
                                        (8, 200.0), (64, 1100.0))):
            b = self.write("bench.json",
                           bench_json({"bm_conv": ns}, num_cpus=cpus))
            self.record(b, f"c{i}")
        r = self.run_tool("history", self.path("bench.json"),
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertNotIn("host mismatch", r.stderr)
        self.assertIn("host: num_cpus=8", r.stdout)
        self.assertIn("host: num_cpus=64", r.stdout)
        self.assertIn("+100%", r.stdout)  # c0 -> c2
        self.assertIn("+10%", r.stdout)   # c1 -> c3
        self.assertNotIn("+900%", r.stdout)  # c0 -> c1 would cross hosts
        self.assertNotIn("-80%", r.stdout)   # c1 -> c2 would cross hosts

    def test_history_empty_file_warns_and_exits_0(self):
        bench = self.write("bench.json", bench_json({"bm_conv": 100.0}))
        r = self.run_tool("history", bench,
                          "--history-file", self.path("absent.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no history", r.stderr)

    def test_history_filters_by_source_file(self):
        b1 = self.write("curve.json", bench_json({"bm_conv": 100.0}))
        self.record(b1, "c1")
        b2 = self.write("extract.json", bench_json({"bm_window": 50.0}))
        self.record(b2, "c1")
        r = self.run_tool("history", b1,
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("bm_conv", r.stdout)
        self.assertNotIn("bm_window", r.stdout)

    def test_history_last_limits_rendered_runs(self):
        for i in range(5):
            b = self.write("bench.json", bench_json({"bm_conv": 100.0 + i}))
            self.record(b, f"commit{i}")
        r = self.run_tool("history", self.path("bench.json"),
                          "--history-file", self.path("hist.jsonl"),
                          "--last", "2")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertNotIn("commit2", r.stdout)
        self.assertIn("commit3", r.stdout)
        self.assertIn("commit4", r.stdout)

    # ---- history of benchmark/run.sh results --------------------------------

    def e2e_results(self, name, values, host=None, traced_value=None,
                    sha="0123456789abcdef"):
        """A results.json with one untraced serve-stream run per value."""
        host = host or {"nproc": 4, "cpu_model": "Test CPU", "state_fs": "ext4"}

        def run(v, trace):
            return {"workload": "serve-stream", "trace": trace, "host": host,
                    "metrics": {
                        "op_ms_tail": {"value": v, "unit": "ms", "samples": 9},
                        "peak_rss_mb": {"value": 40.0, "unit": "MB",
                                        "samples": 0}}}
        runs = [run(v, 0) for v in values]
        if traced_value is not None:
            runs.append(run(traced_value, 1))
        return self.write(name, {"schema_version": 1, "git_sha": sha,
                                 "runs": runs})

    def history_entries(self, hist="hist.jsonl"):
        with open(self.path(hist), encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]

    def test_history_records_benchmark_medians_and_host(self):
        res = self.e2e_results("results.json", [5.0, 3.0, 4.0],
                               traced_value=100.0)
        r = self.run_tool("history", res, "--record",
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        (entry,) = self.history_entries()
        self.assertEqual(entry["source"], "benchmark")
        self.assertEqual(entry["commit"], "0123456")  # from git_sha
        self.assertEqual(entry["host"],
                         "nproc=4 cpu_model=Test CPU state_fs=ext4")
        # The traced run is left out: it times the tracer as well.
        self.assertEqual(entry["values"]["serve-stream op_ms_tail"], 4.0)
        self.assertEqual(entry["units"]["serve-stream op_ms_tail"], "ms")
        self.assertEqual(entry["runs"], {"serve-stream": 3})

    def test_history_pools_benchmark_result_files(self):
        a = self.e2e_results("a.json", [1.0, 2.0])
        b = self.e2e_results("b.json", [9.0])
        r = self.run_tool("history", a, b, "--record", "--commit", "head",
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        (entry,) = self.history_entries()
        self.assertEqual(entry["commit"], "head")
        self.assertEqual(entry["values"]["serve-stream op_ms_tail"], 2.0)

    def test_history_benchmark_trajectory_is_per_host(self):
        other = {"nproc": 1, "cpu_model": "Test CPU", "state_fs": "ext4"}
        for name, values, host in (("p.json", [5.0], None),
                                   ("x.json", [50.0], other),
                                   ("c.json", [2.0], None)):
            path = self.e2e_results(name, values, host=host)
            r = self.run_tool("history", path, "--record", "--commit", name,
                              "--history-file", self.path("hist.jsonl"))
            self.assertEqual(r.returncode, 0, r.stderr)
        # A google-benchmark stream in the same file is a different source.
        self.record(self.write("bench.json", bench_json({"bm_conv": 1.0})),
                    "g1")
        r = self.run_tool("history", self.path("c.json"),
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("serve-stream op_ms_tail", r.stdout)
        self.assertIn("2 ms -60%+", r.stdout)  # p.json -> c.json, same host
        self.assertNotIn("bm_conv", r.stdout)
        self.assertIn("2 host(s)", r.stdout)

    def traced_results(self, name, layer_values, host=None, untraced=5.0):
        """A results.json with one untraced gpc-bounds run and one traced run
        per value of rtc.gpc_ms; serve.frame_us_p50 is a layer the workload
        does not have (no samples)."""
        host = host or {"nproc": 4, "cpu_model": "Test CPU", "state_fs": "ext4"}

        def run(trace, metrics, layers=None):
            r = {"workload": "gpc-bounds", "trace": trace, "host": host,
                 "metrics": metrics}
            if layers is not None:
                r["layers"] = layers
            return r
        runs = [run(0, {"op_ms_p50": {"value": untraced, "unit": "ms",
                                      "samples": 9}})]
        for v in layer_values:
            runs.append(run(1, {"op_ms_p50": {"value": 1000.0, "unit": "ms",
                                              "samples": 9}},
                            {"rtc.gpc_ms": {"value": v, "unit": "ms",
                                            "samples": 22},
                             "curve.dispatch.dense": {"value": 4 if v > 10 else 0,
                                                      "unit": "count",
                                                      "samples": 22},
                             "curve.dispatch.fast": {"value": 2 if v > 10 else 6,
                                                     "unit": "count",
                                                     "samples": 22},
                             "serve.frame_us_p50": {"value": 0, "unit": "us",
                                                    "samples": 0}}))
        return self.write(name, {"schema_version": 1, "git_sha": "feedface",
                                 "runs": runs})

    def test_history_records_layer_medians_of_traced_runs(self):
        res = self.traced_results("results.json", [60.0, 50.0, 70.0])
        r = self.run_tool("history", res, "--record",
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        (entry,) = self.history_entries()
        # End-to-end medians still come from the untraced run alone.
        self.assertEqual(entry["values"], {"gpc-bounds op_ms_p50": 5.0})
        self.assertEqual(entry["layers"], {"gpc-bounds rtc.gpc_ms": 60.0,
                                           "gpc-bounds curve.dispatch.dense": 4.0,
                                           "gpc-bounds curve.dispatch.fast": 2.0})
        self.assertEqual(entry["layer_units"]["gpc-bounds rtc.gpc_ms"], "ms")
        self.assertEqual(entry["traced_runs"], {"gpc-bounds": 3})

    def test_history_without_traced_runs_records_no_layers(self):
        res = self.e2e_results("results.json", [5.0, 3.0])
        r = self.run_tool("history", res, "--record",
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        (entry,) = self.history_entries()
        self.assertNotIn("layers", entry)
        self.assertNotIn("per-layer", r.stdout)

    def test_history_renders_layer_trajectory_on_same_host_rows_only(self):
        other = {"nproc": 1, "cpu_model": "Test CPU", "state_fs": "ext4"}
        for name, layers, host in (("p.json", [60.0], None),
                                   ("x.json", [6.0], other),
                                   ("c.json", [2.4], None)):
            path = self.traced_results(name, layers, host=host)
            r = self.run_tool("history", path, "--record", "--commit", name,
                              "--history-file", self.path("hist.jsonl"))
            self.assertEqual(r.returncode, 0, r.stderr)
        r = self.run_tool("history", self.path("c.json"),
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertEqual(r.stdout.count("per-layer medians of traced runs"), 2)
        self.assertIn("gpc-bounds rtc.gpc_ms", r.stdout)
        self.assertIn("2.4 ms -96%+", r.stdout)  # p.json -> c.json, same host
        self.assertNotIn("-90%", r.stdout)       # p.json -> x.json crosses hosts
        self.assertNotIn("-60%", r.stdout)       # x.json -> c.json too
        self.assertIn("0 count -100%+", r.stdout)
        # BENCHMARK.json says more fast dispatches is better.
        self.assertIn("6 count +200%+", r.stdout)
        self.assertNotIn("REGRESSION", r.stderr)

    def test_history_rejects_a_results_file_without_runs(self):
        bad = self.write("results.json", {"runs": [{"no": "workload"}]})
        r = self.run_tool("history", bad, "--record",
                          "--history-file", self.path("hist.jsonl"))
        self.assertEqual(r.returncode, 2, r.stderr)


if __name__ == "__main__":
    unittest.main()
