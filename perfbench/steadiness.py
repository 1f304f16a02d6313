#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Runs every workload --runs times per set (seeds 1, 2, ..., --runs, the
same seeds in every set), each run through perfbench/run.py with --trace 0
and BENCHMARK.json's run_seconds, exactly as a regression check would.  For
every end-to-end metric it prints each set's median and quartiles and the
quartile spread (q3 - q1) / median, then says whether

  * every spread stays within the metric's bound (and whether it stays
    below a third of it, the steadiness target),
  * each later set's median is not worse than the first set's by more than
    the bound, and
  * the share of failed operations is exactly the same in every set.

Raw per-run results go to .bench_build/steadiness.json.  Exit status is 0
when every condition holds and 1 otherwise.
"""

import argparse
from fractions import Fraction
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` (<= 0: not worse)."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    # results[set][workload] = list of run results, in seed order.
    results = []
    for set_index in range(args.sets):
        per_workload = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, seconds)
                per_workload[w].append(r)
                values = " ".join(f"{k}={v['value']:.5g}"
                                  for k, v in r["metrics"].items())
                print(f"set {set_index + 1} {w} seed {seed}: "
                      f"correct={r['correct']} {values}", flush=True)
        results.append(per_workload)
    out = ROOT / ".bench_build" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    ok = True
    print()
    for w in workloads:
        print(f"== {w}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for set_index, per_workload in enumerate(results):
                values = [r["metrics"][name]["value"] for r in per_workload[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                verdict = "ok"
                if spread > bound:
                    verdict = "TOO WIDE"
                    ok = False
                elif spread > bound / 3:
                    verdict = "within bound, above bound/3"
                print(f"  {name:20s} set {set_index + 1}: median {med:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                      f"(bound {bound}) {verdict}")
            for set_index in range(1, len(medians)):
                drift = worse_by(m, medians[0], medians[set_index])
                flag = "ok" if drift <= bound else "WORSE THAN BOUND"
                if drift > bound:
                    ok = False
                print(f"  {name:20s} set {set_index + 1} vs set 1: worse by "
                      f"{drift:+.4f} {flag}")
        shares = set()
        for per_workload in results:
            attempted = sum(r["attempted"] for r in per_workload[w])
            failed = sum(r["failed"] for r in per_workload[w])
            shares.add(Fraction(failed, attempted))
        correct = all(r["correct"] for per in results for r in per[w])
        print(f"  failed share equal across sets: {len(shares) == 1}; "
              f"all runs correct: {correct}")
        ok = ok and len(shares) == 1 and correct
    print("\nSTEADY" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
