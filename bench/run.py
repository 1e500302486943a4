"""linkopt benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload reference_datasets --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; linkopt is imported from ``src/``
and the CLI runs as ``python3 -c 'from linkopt.cli import main; ...'`` in a
fresh interpreter with ``src`` on ``PYTHONPATH``.  Scratch files go to
``.bench_work/``.  Everything runs in this one process, without threads;
child interpreters run one at a time.

With ``--trace 0`` the run measures in rounds, for about ``--seconds`` and
at least three rounds:

- ``setup_s``: one fresh interpreter running ``import linkopt;
  linkopt.default_config()``;
- ``cli_s`` and ``peak_rss_mb``: the workload's CLI invocations, each in a
  fresh interpreter, timed together; the peak resident set is the largest
  ``ru_maxrss`` among them;
- ``compute_s``: in-process compute passes through the public API, for
  about as long as the round's set-up and CLI children took.  One untimed
  pass runs first.

Each time is the median of its samples, each divided by a reference timed
around it, times the reference's nominal time (see ``REFERENCE_CHILD``);
the peak resident set is the median of its samples.  With ``--trace 1`` the
run alternates untraced and traced passes and reports the per-layer metrics
of ``tracing.py``, the tracing overhead and the error rate.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import json
import math
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import GateError, WORK, SRC  # noqa: E402

MIN_ROUNDS = 3
TRACED_PASSES = 3
IMPORT_SAMPLES = 3
# (percentile, share of the samples beyond it)
TAIL_LADDER = ((99.9, 0.001), (99.0, 0.01), (90.0, 0.1), (75.0, 0.25), (50.0, 0.5))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p, beyond in TAIL_LADDER:
        if n * beyond >= 10.0:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, minimum, sample count and the tail percentile the count
    supports."""
    if not values:
        return f"{name}: no samples"
    text = (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"min {min(values):.6g} {unit}, n={len(values)}")
    p = tail_percentile(len(values))
    if p is None:
        return text + ", no tail percentile (fewer than 20 samples)"
    return text + f", p{p:g} {percentile(values, p):.6g} {unit}"


class Counter:
    """Attempted and failed operations of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, action, what: str, new: bool = True):
        """Run an operation, or with ``new=False`` the check of one already
        counted; an exception counts it failed and returns None."""
        self.attempted += new
        try:
            return action()
        except GateError as exc:
            self.failed += 1
            print(f"gate failure: {exc}", file=sys.stderr)
        except Exception as exc:  # the run must go on and report the failure
            self.failed += 1
            print(f"{what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def compute_pass(workload, counter: Counter, tracer=None) -> float:
    """One pass of the workload's operations; returns the timed seconds.

    With a tracer, its spans cover the operations.  Checks run after the
    pass, outside the timing and the tracer.
    """
    checks = []
    elapsed = 0.0
    with tracer.installed() if tracer else contextlib.nullcontext():
        for op in workload.pass_ops():
            if tracer is not None:
                tracer.current_op += 1
            start = time.perf_counter()
            check = counter.attempt(op, "operation")
            elapsed += time.perf_counter() - start
            if check is not None:
                checks.append(check)
    for check in checks:
        counter.attempt(check, "check", new=False)
    return elapsed


# On a shared 2-CPU virtual machine, Python ran 1.3 to 2 times slower for
# tens of seconds at a time, and CPU time slowed as much as wall time, so
# whole runs landed in a slow phase.  Each timing sample is therefore divided
# by a reference timed just before and just after it, and a metric is the
# median of those ratios times the reference's nominal time.  Child
# interpreters are referred to a fresh interpreter importing the scipy
# modules linkopt imports; in-process passes to a pure-Python kernel.
# Neither reference runs linkopt code, so a change to linkopt moves only the
# numerators.
REFERENCE_CHILD = "import scipy.integrate, scipy.optimize, scipy.special"
REFERENCE_CHILD_S = 0.6
REFERENCE_KERNEL_S = 0.010
KERNEL_SAMPLES = 5

_KERNEL_INI = "\n".join(
    f"[section{i}]\nkey_a = {i * 0.5!r}\nkey_b = text {i}\nkey_c = {i}\n"
    for i in range(12))
_KERNEL_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    return math.sqrt(x) * y + {i}.5\n" for i in range(40))


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _mix(x: float, y: float) -> float:
    return math.exp(-x / y) + math.log1p(x) * math.sqrt(y)


def kernel_seconds() -> float:
    """Time of a fixed kernel made of the kinds of work the workloads do:
    float math in small functions over frozen dataclasses, INI parsing,
    compiling source and writing CSV rows."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(1, 6000):
        pair = _Pair(i * 0.5, i + 1.0)
        acc += _mix(pair.a, pair.b)
        table[i & 255] = pair
    for _ in range(6):
        configparser.ConfigParser(interpolation=None).read_string(_KERNEL_INI)
    compile(_KERNEL_SOURCE, "<kernel>", "exec")
    writer = csv.writer(io.StringIO())
    for i in range(1500):
        writer.writerow([f"{i * 1.1:.10g}", "row", f"{math.log10(i + 1):.10g}"])
    return time.perf_counter() - start


def kernel_reference() -> float:
    return statistics.median(kernel_seconds() for _ in range(KERNEL_SAMPLES))


def child_reference() -> float:
    run = workloads.run_child(["-c", REFERENCE_CHILD], "reference")
    if run.exit_code != 0:
        raise RuntimeError(f"reference interpreter: exit code {run.exit_code}")
    return run.seconds


def referred(pairs: list[tuple[float, float]], nominal: float) -> float:
    """Median of sample / reference over (sample, reference) pairs, times
    the reference's nominal time."""
    if not pairs:
        return math.nan
    return statistics.median(sample / ref for sample, ref in pairs) * nominal


def measure(workload, seconds: float, counter: Counter) -> dict:
    """End-to-end metrics; each time sample is paired with its reference."""
    setup, cli, compute, rss = [], [], [], []
    counter.attempt(workloads.run_setup, "setup")  # warms the file cache
    child_reference()
    compute_pass(workload, counter)  # first pass: lazy set-up, not timed
    deadline = time.perf_counter() + seconds
    kernel_before = kernel_reference()
    rounds = 0
    round_seconds = 0.0
    # A round starts only if it can end by the deadline, judged by the last.
    while rounds < MIN_ROUNDS or time.perf_counter() + round_seconds < deadline:
        round_start = time.perf_counter()
        rounds += 1
        child_a = child_reference()
        run = counter.attempt(workloads.run_setup, "setup")
        child_b = child_reference()
        runs = [counter.attempt(invoke, "CLI") for invoke in
                workload.cli_invocations(rounds)]
        child_c = child_reference()
        if run is not None:
            setup.append((run.seconds, (child_a + child_b) / 2))
        runs = [r for r in runs if r is not None]
        if runs:
            cli.append((sum(r.seconds for r in runs), (child_b + child_c) / 2))
            rss.append(max(r.peak_rss_mb for r in runs))
        # Compute passes get as long as the measured children took.
        budget = sum(r.seconds for r in runs) + (run.seconds if run else 0.0)
        spent = 0.0
        while spent < max(budget, 1.0):
            elapsed = compute_pass(workload, counter)
            kernel_after = kernel_reference()
            compute.append((elapsed, (kernel_before + kernel_after) / 2))
            kernel_before = kernel_after
            spent += elapsed
        round_seconds = time.perf_counter() - round_start

    for name, pairs, unit in (("setup_s", setup, "s"), ("cli_s", cli, "s"),
                              ("compute_s", compute, "s")):
        print(describe(f"{name} (as measured)", [p[0] for p in pairs], unit))
        print(describe(f"{name} reference", [p[1] for p in pairs], unit))
    print(describe("peak_rss_mb", rss, "MB"))
    if isinstance(workload, workloads.PointQueries):
        print(describe("query_ms (as measured)",
                       [1e3 * t for t in workload.query_seconds], "ms"))
        print(f"point_queries: {workload.feasible} of {workload.solved} answers "
              f"feasible; batch 0 digest "
              f"{'checked' if workload.digest_checked else 'not in the table'}")
    return {
        "setup_s": (referred(setup, REFERENCE_CHILD_S), "s"),
        "cli_s": (referred(cli, REFERENCE_CHILD_S), "s"),
        "compute_s": (referred(compute, REFERENCE_KERNEL_S), "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else math.nan, "MB"),
    }


IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times(stderr: str) -> tuple[float, float, float]:
    """(scipy, linkopt own, linkopt cumulative) seconds from -X importtime.

    scipy's share is the cumulative time of each outermost ``scipy*`` entry,
    which includes what scipy imports in turn (numpy among it).
    """
    entries = []
    for line in stderr.splitlines():
        match = IMPORT_LINE.match(line)
        if match:
            self_us, cum_us, indent, name = match.groups()
            entries.append((int(self_us), int(cum_us), len(indent), name))
    scipy_us = 0
    linkopt_self_us = 0
    linkopt_cum_us = 0
    # Entries are listed children first; an entry is outermost scipy when no
    # enclosing entry (a later one at a smaller indent) is scipy too.
    enclosing: list[tuple[int, str]] = []
    for self_us, cum_us, depth, name in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        inside_scipy = any(n.split(".")[0] == "scipy" for _, n in enclosing)
        if name.split(".")[0] == "scipy" and not inside_scipy:
            scipy_us += cum_us
        if name.split(".")[0] == "linkopt":
            linkopt_self_us += self_us
            if name == "linkopt":
                linkopt_cum_us = cum_us
        enclosing.append((depth, name))
    return scipy_us / 1e6, linkopt_self_us / 1e6, linkopt_cum_us / 1e6


def measure_imports(counter: Counter) -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        def probe():
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import linkopt"],
                capture_output=True, text=True, cwd=WORK, env=workloads.child_env(),
            )
            if proc.returncode != 0:
                raise GateError(f"import linkopt: exit code {proc.returncode}")
            return import_times(proc.stderr)
        result = counter.attempt(probe, "import probe")
        if result is not None:
            samples.append(result)
    med = [statistics.median(s[i] for s in samples) if samples else math.nan
           for i in range(3)]
    return {
        "import.scipy_s": (med[0], "s"),
        "import.linkopt_self_s": (med[1], "s"),
        "import.linkopt_cumulative_s": (med[2], "s"),
    }


def measure_traced(workload, seconds: float, counter: Counter) -> dict:
    metrics = measure_imports(counter)
    tracer = tracing.Tracer()
    compute_pass(workload, counter)  # first pass: lazy set-up, not timed
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    # Untraced passes fill the run; the first few alternate with the traced
    # ones, whose spans all stay in memory.
    while len(traced) < TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(compute_pass(workload, counter))
        if len(traced) < TRACED_PASSES:
            traced.append(compute_pass(workload, counter, tracer))
    for name in sorted(set(tracer.missing)):
        print(f"traced function {name} not found; reported as 0", file=sys.stderr)
    print(describe("compute_s untraced", untraced, "s"))
    print(describe("compute_s traced", traced, "s"))
    print(f"spans recorded: {len(tracer.start)} in {len(traced)} traced passes")
    metrics.update(tracer.layer_metrics(len(traced)))
    metrics["trace.overhead_s"] = (min(traced) - min(untraced), "s")
    metrics["error_rate"] = (counter.failed / max(counter.attempted, 1), "ratio")
    tracer.write_spans(WORK / f"spans-{workload.name}.tsv")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linkopt" / "__init__.py").is_file():
        print(f"error: no linkopt sources under {SRC}; run from the root of a "
              f"linkopt checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload](args.seed)
    counter = Counter()
    if args.trace:
        metrics = measure_traced(workload, args.seconds, counter)
    else:
        metrics = measure(workload, args.seconds, counter)
    correct = counter.failed == 0 and all(
        math.isfinite(value) for value, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
