#!/usr/bin/env python3
"""Diff two google-benchmark JSON files (e.g. BENCH_extraction.json from
tools/run_benchmarks.sh) and flag regressions.

Benchmarks are matched by name; times are normalized to nanoseconds before
comparison, so the two files may use different time units. A benchmark is a
regression when its candidate time exceeds the baseline by more than
--threshold (relative, default 0.10 = 10 %). Exit status: 0 when no
regression (or --no-fail), 1 when at least one benchmark regressed, 2 on
malformed input.

Host provenance matters: the wlc_env envelope and google-benchmark context
carry num_cpus/CPU info. When they differ, cross-host timing diffs are
noise, so the comparison prints a loud warning and downgrades itself to
report-only — regressions are listed but the exit status stays 0 (pass
--fail-on-host-mismatch to gate anyway). On a matching host the gate is
blocking, which is what lets CI run this without continue-on-error.

A missing or empty *baseline* is not an error: a fresh clone (or a CI cache
miss) has no BENCH_*.json yet, and failing the pipeline for that would force
every new checkout to hand-seed baselines. In that case the candidate is
printed report-only with a warning and the exit status is 0. A broken
*candidate* still exits 2 — that file was just produced by the run being
gated, so it should never be missing or malformed.

Regression *tracking* (as opposed to one-shot gating) lives in the history
mode: `compare_bench.py history <bench.json> --record` appends one JSONL
entry (commit, host, per-benchmark times) to a committed history file, and
`compare_bench.py history <bench.json> --last N` renders the per-benchmark
trajectory across the last N recorded commits of each host, flagging
consecutive-commit slowdowns beyond the threshold. Rows are keyed on their
host: a delta is only ever taken between consecutive rows from the same
host. The end-to-end results of benchmark/run.sh (bench-out/results.json,
or several per-run `wlc_e2e --out` files, pooled) are recorded as source
"benchmark": per-workload medians of the four end-to-end metrics, with the
host. History rendering is always report-only — gating stays with the
pairwise mode CI already runs (and with benchmark/compare.py).

Usage: tools/compare_bench.py baseline.json candidate.json
           [--threshold 0.10] [--metric real_time|cpu_time] [--no-fail]
           [--fail-on-host-mismatch]
       tools/compare_bench.py history bench.json|results.json... [--history-file F]
           [--record] [--commit SHA] [--last N] [--threshold T] [--metric M]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# The host-mismatch warning prints at most once per run.
_host_mismatch_warned = False


def warn_host_mismatch(a: str, b: str) -> None:
    global _host_mismatch_warned
    if _host_mismatch_warned:
        return
    _host_mismatch_warned = True
    print(f"WARNING: host mismatch — [{a}] vs [{b}]; "
          "timing diffs may be noise", file=sys.stderr)


def die(msg: str) -> None:
    """Malformed input is exit 2, distinct from exit 1 = real regression."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"error: cannot read benchmark JSON '{path}': {e}")
    if "benchmarks" not in data:
        die(f"error: '{path}' has no 'benchmarks' array "
            "(not a google-benchmark JSON file?)")
    return data


def usable_baseline(path: str) -> bool:
    """True when `path` exists, parses, and carries at least one benchmark.
    Anything else (absent, empty file, truncated JSON, no 'benchmarks',
    empty 'benchmarks' array) means there is nothing to gate against."""
    if not os.path.exists(path):
        return False
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError):
        return False
    return bool(data.get("benchmarks"))


def times_ns(data: dict, metric: str) -> dict[str, float]:
    """Map benchmark name -> time in ns. Aggregate runs (repetitions) keep
    only the mean; raw runs are used as-is."""
    out: dict[str, float] = {}
    for b in data["benchmarks"]:
        name = b.get("name", "")
        run_type = b.get("run_type", "iteration")
        if run_type == "aggregate":
            if b.get("aggregate_name") != "mean":
                continue
            name = b.get("run_name", name)
        if metric not in b:
            continue
        unit = _UNIT_NS.get(b.get("time_unit", "ns"))
        if unit is None:
            die(f"error: unknown time_unit '{b.get('time_unit')}' "
                f"in benchmark '{name}'")
        out[name] = float(b[metric]) * unit
    return out


def host_id(data: dict) -> str:
    ctx = data.get("context", {})
    env = data.get("wlc_env", {})
    cpus = ctx.get("num_cpus", env.get("num_cpus", "?"))
    mhz = ctx.get("mhz_per_cpu", "?")
    return f"num_cpus={cpus} mhz_per_cpu={mhz}"


def fmt_ns(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def current_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# End-to-end results of benchmark/run.sh (bench-out/results.json, or the
# per-run `wlc_e2e --out` files) are recorded under this source name. Their
# entries carry per-workload medians of the end-to-end metrics under
# "values" ("<workload> <metric>" -> median) with their units, instead of
# google-benchmark's "times_ns".
BENCHMARK_SOURCE = "benchmark"
E2E_METRICS = ("setup_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")


def values_key(e2e: bool) -> str:
    """Where an entry keeps its numbers."""
    return "values" if e2e else "times_ns"


def load_history(path: str, source: str) -> list[dict]:
    """Entries for `source` (bench file basename, or "benchmark"), oldest
    first. Lines that don't parse or belong to another source are skipped,
    so one history file can interleave several streams."""
    entries: list[dict] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                e = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(e, dict) and e.get("source") == source \
                    and isinstance(e.get(values_key(source == BENCHMARK_SOURCE)), dict):
                entries.append(e)
    return entries


def load_e2e_runs(paths: list[str]) -> list[dict]:
    """Untraced run records of benchmark result files (traced runs time the
    tracer too, so their end-to-end numbers are not comparable)."""
    runs: list[dict] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            die(f"error: cannot read benchmark results '{path}': {e}")
        records = doc.get("runs") if isinstance(doc, dict) else None
        if not isinstance(records, list) or not all(
                isinstance(r, dict) and "workload" in r for r in records):
            die(f"error: '{path}' has no 'runs' list of workload records "
                "(not a benchmark/run.sh result file?)")
        runs += [r for r in records if not r.get("trace")]
    if not runs:
        die("error: no untraced benchmark runs in " + ", ".join(paths))
    return runs


def e2e_host_id(runs: list[dict]) -> str:
    hosts = {json.dumps(r.get("host", {}), sort_keys=True) for r in runs}
    if len(hosts) > 1:
        die("error: the benchmark results come from more than one host")
    h = runs[0].get("host", {})
    return (f"nproc={h.get('nproc', '?')} cpu_model={h.get('cpu_model', '?')} "
            f"state_fs={h.get('state_fs', '?')}")


def e2e_entry(runs: list[dict], commit: str) -> dict:
    """Per-workload medians of the end-to-end metrics, with the host."""
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in runs:
        for name in E2E_METRICS:
            m = r.get("metrics", {}).get(name)
            if isinstance(m, dict) and isinstance(m.get("value"), (int, float)):
                key = f"{r['workload']} {name}"
                samples.setdefault(key, []).append(float(m["value"]))
                units[key] = str(m.get("unit", ""))
    counts: dict[str, int] = {}
    for r in runs:
        counts[r["workload"]] = counts.get(r["workload"], 0) + 1
    return {
        "commit": commit,
        "host": e2e_host_id(runs),
        "metric": "median",
        "source": BENCHMARK_SOURCE,
        "runs": counts,
        "units": units,
        "values": {k: statistics.median(v) for k, v in samples.items()},
    }


def results_commit(paths: list[str]) -> str | None:
    """Short git sha recorded in the first result file, if any."""
    try:
        with open(paths[0], "r", encoding="utf-8") as f:
            sha = json.load(f).get("git_sha")
    except (OSError, json.JSONDecodeError, AttributeError):
        return None
    if not isinstance(sha, str) or not sha or sha == "unknown":
        return None
    head, _, dirty = sha.partition("-")
    return head[:7] + (f"-{dirty}" if dirty else "")


def is_e2e_results(path: str) -> bool:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(doc, dict) and isinstance(doc.get("runs"), list)


def render_trajectory(entries: list[dict], key: str, fmt, threshold: float
                      ) -> tuple[int, int]:
    """Prints one host's table; returns (rows, consecutive regressions)."""
    names = sorted({n for e in entries for n in e[key]})
    commits = [str(e.get("commit", "?"))[:16] for e in entries]
    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  " + "  ".join(f"{c:>16}" for c in commits))
    flagged = 0
    for name in names:
        cells, prev = [], None
        for e in entries:
            v = e[key].get(name)
            if v is None:
                cell = "—"
            elif prev is None:
                cell = fmt(e, name, v)
            else:
                delta = (v - prev) / prev if prev > 0 else 0.0
                mark = ""
                if delta > threshold:
                    mark = "!"
                    flagged += 1
                elif delta < -threshold:
                    mark = "+"
                cell = f"{fmt(e, name, v)} {delta:+.0%}{mark}"
            cells.append(f"{cell:>16}")
            if v is not None:
                prev = v
        print(f"{name:<{width}}  " + "  ".join(cells))
    return len(names), flagged


def history_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="compare_bench.py history",
        description="Track benchmark results across commits in a JSONL file")
    ap.add_argument("bench", nargs="+",
                    help="google-benchmark JSON file for this run, or one or "
                         "more benchmark/run.sh result files (source "
                         f"'{BENCHMARK_SOURCE}': their runs are pooled)")
    ap.add_argument("--history-file", default="BENCH_history.jsonl",
                    help="committed JSONL trajectory (default "
                         "BENCH_history.jsonl next to the bench file's cwd)")
    ap.add_argument("--record", action="store_true",
                    help="append this run to the history file")
    ap.add_argument("--commit", default=None,
                    help="commit id to record (default: the result file's "
                         "git_sha, else git rev-parse HEAD)")
    ap.add_argument("--last", type=int, default=10,
                    help="render the last N recorded runs per host "
                         "(default 10)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="consecutive-commit slowdown flagged as REGRESSION")
    ap.add_argument("--metric", choices=("real_time", "cpu_time"),
                    default="real_time")
    args = ap.parse_args(argv)
    if args.threshold < 0:
        ap.error("--threshold must be >= 0")
    if args.last < 1:
        ap.error("--last must be >= 1")

    e2e = is_e2e_results(args.bench[0])
    if not e2e and len(args.bench) > 1:
        ap.error("only benchmark/run.sh result files can be pooled")
    source = BENCHMARK_SOURCE if e2e else os.path.basename(args.bench[0])
    key = values_key(e2e)

    if args.record:
        if e2e:
            commit = args.commit or results_commit(args.bench) or current_commit()
            entry = e2e_entry(load_e2e_runs(args.bench), commit)
        else:
            bench_data = load(args.bench[0])
            entry = {
                "commit": args.commit or current_commit(),
                "host": host_id(bench_data),
                "metric": args.metric,
                "source": source,
                "times_ns": times_ns(bench_data, args.metric),
            }
        with open(args.history_file, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"recorded {len(entry[key])} benchmark(s) from "
              f"'{source}' at commit {entry['commit']} into "
              f"'{args.history_file}'")
    elif not e2e:
        load(args.bench[0])  # a broken bench file is still exit 2

    entries = load_history(args.history_file, source)
    if not entries:
        print(f"WARNING: no history for '{source}' in "
              f"'{args.history_file}'; record runs with --record",
              file=sys.stderr)
        return 0

    # One trajectory per host: a delta between rows from different hosts
    # measures the hosts, not the commits, so none is ever computed.
    by_host: dict[str, list[dict]] = {}
    for e in entries:
        by_host.setdefault(str(e.get("host")), []).append(e)

    def fmt(e: dict, name: str, v: float) -> str:
        if e2e:
            return f"{v:.4g} {e.get('units', {}).get(name, '')}".rstrip()
        return fmt_ns(v)

    runs = rows = flagged = 0
    for host, trajectory in by_host.items():
        trajectory = trajectory[-args.last:]
        print(f"host: {host}")
        n, f = render_trajectory(trajectory, key, fmt, args.threshold)
        print()
        runs += len(trajectory)
        rows = max(rows, n)
        flagged += f

    what = "median" if e2e else args.metric
    print(f"{runs} run(s) on {len(by_host)} host(s), {rows} benchmark(s); "
          f"{flagged} consecutive-run REGRESSION(s) beyond "
          f"{args.threshold:.0%} on {what} (same-host rows only; history is "
          "report-only, gating happens in the pairwise mode)")
    if flagged:
        print(f"REGRESSION: {flagged} consecutive-run slowdown(s) beyond "
              f"{args.threshold:.0%}", file=sys.stderr)
    return 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "history":
        return history_main(sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative slowdown that counts as a regression "
                         "(default 0.10 = 10%%)")
    ap.add_argument("--metric", choices=("real_time", "cpu_time"),
                    default="real_time")
    ap.add_argument("--no-fail", action="store_true",
                    help="always exit 0 (report-only mode)")
    ap.add_argument("--fail-on-host-mismatch", action="store_true",
                    help="gate on regressions even when the baseline and "
                         "candidate hosts differ (default: report-only)")
    args = ap.parse_args()
    if args.threshold < 0:
        ap.error("--threshold must be >= 0")

    if not usable_baseline(args.baseline):
        cand_data = load(args.candidate)
        cand = times_ns(cand_data, args.metric)
        print(f"WARNING: no usable baseline at '{args.baseline}' "
              "(missing, unparsable, or zero benchmarks); report-only, "
              "nothing to gate against", file=sys.stderr)
        width = max((len(n) for n in sorted(cand)), default=4)
        print(f"{'benchmark':<{width}}  {'candidate':>10}")
        for name in sorted(cand):
            print(f"{name:<{width}}  {fmt_ns(cand[name]):>10}")
        print(f"\n{len(cand)} benchmark(s), no baseline — exit 0 "
              "(save this candidate as the next baseline)")
        return 0

    base_data = load(args.baseline)
    cand_data = load(args.candidate)
    base = times_ns(base_data, args.metric)
    cand = times_ns(cand_data, args.metric)

    base_host, cand_host = host_id(base_data), host_id(cand_data)
    same_host = base_host == cand_host
    if not same_host:
        warn_host_mismatch(base_host, cand_host)

    common = sorted(set(base) & set(cand))
    added = sorted(set(cand) - set(base))
    removed = sorted(set(base) - set(cand))

    regressions = []
    width = max((len(n) for n in common), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'candidate':>10}  delta")
    for name in common:
        b, c = base[name], cand[name]
        delta = (c - b) / b if b > 0 else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            marker = "  improved"
        print(f"{name:<{width}}  {fmt_ns(b):>10}  {fmt_ns(c):>10}  "
              f"{delta:+7.1%}{marker}")

    for name in added:
        print(f"{name:<{width}}  {'—':>10}  {fmt_ns(cand[name]):>10}  new")
    for name in removed:
        print(f"{name:<{width}}  {fmt_ns(base[name]):>10}  {'—':>10}  removed")
    if not common:
        print("warning: no common benchmarks between the two files",
              file=sys.stderr)

    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} on {args.metric}; worst: "
              f"{worst[0]} ({worst[1]:+.1%})", file=sys.stderr)
        if args.no_fail:
            return 0
        if not same_host and not args.fail_on_host_mismatch:
            print("cross-host timings: reporting only, not failing "
                  "(use --fail-on-host-mismatch to gate)", file=sys.stderr)
            return 0
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%} on {args.metric} "
          f"({len(common)} compared, {len(added)} new, {len(removed)} removed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
