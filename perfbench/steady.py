"""Run the benchmark repeatedly on one commit and report how steady it is.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads random --save a.json
    python3 perfbench/steady.py --runs 10 --save b.json --compare a.json

Runs `command` from BENCHMARK.json once per seed and workload (seeds
first-seed, first-seed+1, ...; workloads alternate within a seed), each
for `run_seconds`.  For every workload and metric it prints the median,
the quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median, and flags a spread above the metric's bound.
--compare checks that two sets of runs of the same code agree: it flags
a median that moved, either way, by more than the bound from the median
in an earlier saved set.  fail_ratio is failed / attempted over all
runs of a workload, and the run length is the wall time of one whole
run, set-up and warm-up included.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    length = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), length


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(spec, runs, old):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    for workload, result in runs.items():
        failed, attempted = result["failed"], result["attempted"]
        lengths = result["lengths"]
        print(f"{workload}: {len(result['seeds'])} runs, fail_ratio "
              f"{failed / attempted:.4f} ({failed}/{attempted}), run length "
              f"{min(lengths):.1f}-{max(lengths):.1f} s")
        for name, values in result["values"].items():
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            note = ""
            if bound is not None and spread > bound:
                note += " SPREAD OVER BOUND"
                flagged += 1
            before = old.get(workload, {}).get("values", {}).get(name)
            if before and bound is not None:
                shift = median / statistics.median(before) - 1
                moved = abs(shift) > bound
                note += f"  vs saved {shift:+.2%}" + (
                    " MOVED MORE THAN BOUND" if moved else "")
                flagged += moved
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:34s} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}  bound "
                  f"{bound_text}{note}")
    return flagged


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the values here")
    parser.add_argument("--compare", type=Path, help="an earlier --save file")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs = {w: {"seeds": [], "lengths": [], "attempted": 0, "failed": 0,
                "values": {}}
            for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result, length = run_once(spec, workload, seed, args.trace)
            entry = runs[workload]
            entry["seeds"].append(seed)
            entry["lengths"].append(length)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                entry["values"].setdefault(name, []).append(metric["value"])
            shown = ", ".join(f"{n}={m['value']:.6g}"
                              for n, m in result["metrics"].items())
            print(f"seed {seed} {workload}: "
                  f"{'traced' if args.trace else shown}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1))
    old = json.loads(args.compare.read_text()) if args.compare else {}
    flagged = report(spec, runs, old)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
