"""Benchmark of the growcount CLI, in-process, one workload per process.

    python3 perfbench/run.py --workload path --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  Every CLI call goes through `growcount.cli.main(argv)` with
stdin, stdout and stderr swapped for in-memory buffers.  With --trace 0
the run reports the end-to-end metrics: the median time of each verb
over repeated rounds (after a small warm-up), their sum as pipeline_s
(scaled to a nominal core speed on interpreter-bound workloads, see
probe), the median set-up time of fresh interpreters, scaled to a
nominal launch speed (see REFERENCE_LAUNCH), and the peak RSS.  With --trace 1 it alternates
untraced and traced rounds and reports per-layer metrics from spans
(see tracing.py), the tracing overhead and exact counts, all in wall
seconds.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full run record goes
to perfbench/results/.  See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, bit_counts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
HASH_SEED = "0"
MIN_ROUNDS = 3
SETUP_LAUNCHES = 15
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import growcount.cli\n"
    "growcount.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)
# The same kind of work on code outside the repository: a fresh
# interpreter imports the standard modules growcount.cli pulls in and
# builds a parser.  Launched right after each set-up child, it is slowed
# by what slows that child, so the ratio of the two is steady.
REFERENCE_LAUNCH = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import argparse, dataclasses, fractions, json, math, pathlib, typing\n"
    "argparse.ArgumentParser().add_subparsers().add_parser('verb')\n"
    "print(time.perf_counter() - t0)\n"
)
# About the best times of REFERENCE_LAUNCH and of probe() on the box
# the bounds were set on (2-core x86-64 VM, CPython 3.11.7); they only
# fix the scale.
NOMINAL_LAUNCH_S = 0.022
NOMINAL_PROBE_S = 0.0033
PROBE_SAMPLES = 10   # probe() calls before each round and after the last

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = {
    "core.bonds": "count",
    "core.w_bits": "bit",
    "core.n_bits": "bit",
    "cli.out_bytes": "B",
    "core.rss_b_per_bond": "B/bond",
    "analytics.points": "count",
    "analytics.certified_ratio": "ratio",
    "bethe.trees": "count",
    "bethe.sequences": "count",
    "verify.checks_ok": "count",
    "src.lines": "count",
    "trace.spans": "count",
}


_PROBE_INTS = list(range(1024))
_PROBE_BIG = 3 ** 14_000


def probe() -> float:
    """Seconds for a fixed piece of interpreter work, the best of two.

    A third each of a small-int loop, tuple and dict churn, and a
    big-integer multiply and divide.  The core speed of the box the
    bounds were set on changes by a fifth or more for minutes at a time,
    as other tenants load it, and a run mostly sits in one such spell.
    Every timed run records probes around its rounds; only workloads
    marked interpreter_bound are scaled by them (see workloads.py).
    """
    best = float("inf")
    gc.disable()   # a collection would scan the whole heap, which varies
    try:
        for _ in range(2):
            start = time.perf_counter()
            x = 0
            for i in range(12_000):
                x = _PROBE_INTS[(x + i) & 1023] ^ (i & 255)
            table = {}
            for i in range(8_000):
                table[i, i & 7] = (i, x)
            (_PROBE_BIG * (_PROBE_BIG + x)) // (_PROBE_BIG + 1)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Runner:
    """Calls growcount.cli.main in-process and keeps the books."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None      # set during traced rounds
        self.attempted = 0
        self.failed = 0
        self.failures = []      # the first few messages
        self.calls = []         # (verb, seconds) this round
        self.out_bytes = 0      # stdout bytes in the current round
        self.outputs = {}       # (argv, input sha256) -> output sha256

    def call(self, verb, argv, stdin="", expect=0, check=None, warm=False):
        """Run one CLI call; return its stdout ("" if it failed to run)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
        tracer = None if warm else self.tracer
        start = time.perf_counter()
        try:
            if tracer:
                tracer.recording = True
            code = self.cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code
        except Exception:   # a broken program is a failed call, not a crash
            code = None
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.recording = False
            sys.stdin, sys.stdout, sys.stderr = saved
        text = out.getvalue()
        if not warm:
            self.calls.append((verb, elapsed))
            self.out_bytes += len(text)
        self._judge(verb, argv, stdin, text, err.getvalue(), code, expect,
                    check)
        return text

    def _judge(self, verb, argv, stdin, text, err, code, expect, check):
        problem = None
        if code != expect:
            problem = f"{verb}: exit {code}, expected {expect}: {err[-300:]}"
        elif check is not None:
            try:
                problem = check(text, err)
            except Exception as exc:   # malformed output fails its check
                problem = f"{verb}: check raised {exc!r}"
        digest = sha256(text)
        key = (" ".join(argv), sha256(stdin))
        if problem is None and self.outputs.setdefault(key, digest) != digest:
            problem = f"{verb}: output differs between identical calls"
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problem)

    def round(self, workload, index) -> list:
        """Round `index` of the workload; (verb, seconds) per call."""
        gc.collect()
        self.calls, self.out_bytes = [], 0
        workload.round(self, index)
        return self.calls


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def over_budget(start: float, rounds: int, seconds: float) -> bool:
    """Would one more round of average length end past the budget?"""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds > seconds


def launch(code: str) -> float:
    """Seconds a fresh interpreter running `code` reports on its stdout.

    The child may write bytecode even where the environment says not
    to, so that set-up times an import from bytecode, as an installed
    package does, rather than compiling the sources at every launch.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def measure_setup(launches: int) -> list:
    """Import growcount.cli and build its parser in fresh interpreters.

    Returns (seconds, reference seconds) per launch; see
    REFERENCE_LAUNCH.  Launch cost on the box the bounds were set on
    moves by half within minutes; the ratio to the reference launch next
    to it moved by a sixth.
    """
    launch(SETUP_CODE)   # the first launch may write bytecode
    return [(launch(SETUP_CODE), launch(REFERENCE_LAUNCH))
            for _ in range(launches)]


def setup_seconds(samples) -> float:
    """Median set-up time at the reference launch's nominal speed."""
    return NOMINAL_LAUNCH_S * statistics.median(s / r for s, r in samples)


def src_lines() -> int:
    """Non-blank, non-comment lines of the package sources."""
    return sum(
        1
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def git_commit():
    """The checked-out commit, read from .git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(workload, runner, seconds):
    """Rounds, probe() samples around them, and RSS per bond."""
    rounds, probes = [], []
    start = time.perf_counter()
    base_rss = max_rss_kb()
    while len(rounds) < MIN_ROUNDS or not over_budget(start, len(rounds),
                                                      seconds):
        probes += [probe() for _ in range(PROBE_SAMPLES)]
        rounds.append(runner.round(workload, len(rounds)))
        if len(rounds) == 1:
            first_rss = max_rss_kb()
    probes += [probe() for _ in range(PROBE_SAMPLES)]
    return rounds, probes, rss_per_bond(workload, base_rss, first_rss)


def median_per_verb(rounds) -> dict:
    """Sum over each verb's calls of the call's median over rounds.

    Every round makes the same calls in the same order.
    """
    verbs = {}
    for i, (verb, _) in enumerate(rounds[0]):
        verbs[verb] = verbs.get(verb, 0.0) + statistics.median(
            r[i][1] for r in rounds)
    return verbs


def rss_per_bond(workload, base_kb, after_kb) -> float:
    bonds = workload.counts.get("core.bonds", 0)
    return (after_kb - base_kb) * 1024 / bonds if bonds else 0.0


def traced_run(workload, runner, seconds):
    """Alternate untraced and traced rounds; per-layer medians and counts."""
    tracer = Tracer()
    for name in tracer.missing:
        print(f"trace: {name} not found; its metrics are left out",
              file=sys.stderr)
    base_rss = max_rss_kb()
    # a first round pays for first-touch memory; it is not compared
    runner.round(workload, 0)
    per_bond = rss_per_bond(workload, base_rss, max_rss_kb())
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or not over_budget(start, len(plain), seconds):
        # the untraced and the traced round of a pair share their inputs
        index = len(plain) + 1
        plain.append(sum(t for _, t in runner.round(workload, index)))
        first = len(tracer.spans)
        with tracer.installed():
            runner.tracer = tracer
            try:
                traced.append(sum(t for _, t in
                                  runner.round(workload, index)))
            finally:
                runner.tracer = None
        values = tracer.layer_values(first)
        values["trace.spans"] = len(tracer.spans) - first
        layers.append(values)
    metrics = {name: statistics.median(r[name] for r in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    for name in COUNT_UNITS:   # counts of layers this workload never reaches
        metrics.setdefault(name, 0)
    metrics.update(workload.counts)
    metrics.update(bit_counts(workload.last_count))
    metrics["cli.out_bytes"] = runner.out_bytes
    metrics["core.rss_b_per_bond"] = per_bond
    metrics["src.lines"] = src_lines()
    detail = {"untraced_round_s": plain, "traced_round_s": traced,
              "missing": tracer.missing}
    return metrics, detail, tracer.spans


def unit_of(name: str) -> str:
    if name in COUNT_UNITS or name in END_TO_END_UNITS:
        return COUNT_UNITS.get(name) or END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import growcount from src/ beside this directory, or return None."""
    if not (SRC / "growcount" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import growcount.analytics
    import growcount.cli
    import growcount.core
    import growcount.generators
    if not Path(growcount.__file__).resolve().is_relative_to(SRC):
        return None
    return growcount


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # a fixed hash seed makes set and dict order, and so timings,
        # repeat across processes
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *argv], env)
    program = load_program()
    if program is None:
        print(f"error: no growcount package under {SRC}", file=sys.stderr)
        return 2
    # one core for this process and its set-up children: the timed work
    # does not migrate between cores, which change speed independently,
    # and each set-up launch shares its core with its reference launch
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "load_before": os.getloadavg(),
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "commit": git_commit(),
    }
    workload = WORKLOADS[args.workload](args.seed, program)
    runner = Runner(program.cli)
    setup = [] if args.trace else measure_setup(SETUP_LAUNCHES)
    workload.warmup(runner)
    spans = None
    if args.trace:
        metrics, detail, spans = traced_run(workload, runner, args.seconds)
        record["trace_detail"] = detail
        lines = [f"  {name:34s} {value:.6g} {unit_of(name)}"
                 for name, value in metrics.items()]
    else:
        rounds, probes, per_bond = timed_run(workload, runner, args.seconds)
        wall = median_per_verb(rounds)
        scale = (NOMINAL_PROBE_S / statistics.median(probes)
                 if workload.interpreter_bound else 1.0)
        verbs = {verb: t * scale for verb, t in wall.items()}
        metrics = {
            "pipeline_s": sum(verbs.values()),
            "setup_s": setup_seconds(setup),
            "peak_rss_mb": max_rss_kb() / 1024,
        }
        record.update(rounds=rounds, probes=probes, setup_samples=setup,
                      rss_b_per_bond=per_bond)
        lines = [f"  {verb + '_s':12s} {t:10.4f} s  (wall {wall[verb]:.4f} s, "
                 f"median of {len(rounds)} rounds)"
                 for verb, t in verbs.items()]
        lines += [f"  {name:12s} {value:10.4f} {unit_of(name)}"
                  for name, value in metrics.items()]
        setup_wall = statistics.median(s for s, _ in setup)
        lines.append(f"  wall_s       {sum(wall.values()):10.4f} s  "
                     f"setup wall {setup_wall:.4f} s")
    fail_ratio = runner.failed / runner.attempted
    lines.append(f"  fail_ratio   {fail_ratio:10.4f}    "
                 f"({runner.failed}/{runner.attempted})")
    record.update(
        load_after=os.getloadavg(), metrics=metrics,
        attempted=runner.attempted, failed=runner.failed,
        failures=runner.failures,
        outputs=[[argv, digest] for (argv, _), digest in
                 runner.outputs.items()])
    save_record(record, spans)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"Python {record['python']} ({record['implementation']}), "
          f"{record['nproc']} cpus, load {record['load_before'][0]:.2f}")
    print("\n".join(lines))
    for problem in runner.failures:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


def save_record(record, spans):
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        origin = spans[0][1] if spans else 0.0
        rows = [[name, start - origin, end - origin, parent]
                for name, start, end, parent in spans]
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(rows))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
