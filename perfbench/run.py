#!/usr/bin/env python3
"""Run one workload of the AVF end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Builds perfbench/ (and the AVF libraries under src/) in Release into
.bench_build/ if needed, then runs whole rounds of the workload, each in a
fresh process so process-wide caches and memos start cold the same way
every time, for about --seconds seconds (at least three rounds).  The first
round also runs the expensive output checks after its measurements.

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json
(the median over rounds).  With --trace 1 untraced and traced rounds
alternate; the result holds every per-layer metric (the median over traced
rounds) plus the tracing overhead, and the last traced round's spans are
written to .bench_build/traces/ as Chrome trace-event JSON.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is 0 when the rounds ran (even
if an output check failed: correct is then false), and non-zero without a
result when the build or a round could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "avf_perfbench"

MIN_ROUNDS = 3
# Whole run (after the build) must end well inside 180 s.
DEADLINE_S = 150.0
# A round's outputs that must repeat exactly in every fresh process.
DETERMINISTIC_KEYS = ("items", "attempted", "failed", "sim_response_p50_s",
                      "sim_response_p99_s", "sim_response_samples")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "avf_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_round(workload, seed, full_checks, trace_file, timeout):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--full-checks", "1" if full_checks else "0"]
    if trace_file is not None:
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} round did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} round printed no result (exit {proc.returncode})")
    if proc.returncode != 0 or "error" in result:
        fail(f"{workload} round failed: {result.get('error', proc.returncode)}")
    return result


def end_to_end(round_result):
    run_s = round_result["run_s"]
    return {
        "setup_s": round_result["setup_s"],
        "run_s": run_s,
        "items_per_s": round_result["items"] / run_s,
        "peak_rss_mb": round_result["peak_rss_mb"],
        "sim_response_p50_s": round_result["sim_response_p50_s"],
        "sim_response_p99_s": round_result["sim_response_p99_s"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    build()

    start = time.monotonic()
    traced = bool(args.trace)
    trace_file = None
    if traced:
        (BUILD_DIR / "traces").mkdir(exist_ok=True)
        trace_file = (BUILD_DIR / "traces" /
                      f"{args.workload}-seed{args.seed}.json")
    rounds, traced_rounds = [], []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        count = len(rounds) + len(traced_rounds)
        # Trace mode splits its rounds between the two kinds; per-layer
        # metrics carry no bound, so two of each suffice there.
        untraced_done = len(rounds) >= (2 if traced else MIN_ROUNDS)
        traced_done = not traced or len(traced_rounds) >= 2
        if untraced_done and traced_done and elapsed + longest > args.seconds:
            break
        if count > 0 and elapsed + longest > DEADLINE_S:
            break
        # Trace mode alternates untraced and traced rounds so both see the
        # same machine conditions.
        use_trace = traced and count % 2 == 1
        t0 = time.monotonic()
        result = run_round(args.workload, args.seed, full_checks=count == 0,
                           trace_file=trace_file if use_trace else None,
                           timeout=max(10.0, 175.0 - elapsed))
        # The first round also runs the expensive checks; later rounds
        # estimate how long the next one takes.
        took = time.monotonic() - t0
        longest = took if count == 1 else max(longest, took)
        (traced_rounds if use_trace else rounds).append(result)

    everything = rounds + traced_rounds
    failures = sorted({f for r in everything for f in r["check_failures"]})
    for key in DETERMINISTIC_KEYS:
        if len({r[key] for r in everything}) != 1:
            failures.append(f"rounds in fresh processes disagree on {key}")
    correct = not failures and all(r["checks_run"] > 0 for r in everything)

    metrics = {}
    if not traced:
        per_round = [end_to_end(r) for r in rounds]
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in per_round]
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}
    else:
        untraced_run = statistics.median(r["run_s"] for r in rounds)
        traced_run = statistics.median(r["run_s"] for r in traced_rounds)
        extra = {"trace.untraced_run_s": untraced_run,
                 "trace.traced_run_s": traced_run,
                 "trace.overhead_ratio": traced_run / untraced_run}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in extra:
                value = extra[name]
            else:
                values = [r["layers"].get(name) for r in traced_rounds]
                if None in values:
                    fail(f"round did not report per-layer metric {name}")
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": m["unit"]}

    mode = "traced" if traced else "untraced"
    print(f"{args.workload} seed={args.seed}: {len(rounds)} untraced + "
          f"{len(traced_rounds)} traced rounds, {mode} medians")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  layer counters (last round): "
          + json.dumps(everything[-1]["layers"], sort_keys=True))
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    if traced:
        print(f"  trace written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
