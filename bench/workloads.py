"""The benchmark's three workloads, their inputs and their correctness gate.

Every workload is driven only through linkopt's public entry points:
``linkopt.cli.main`` in-process, the ``linkopt`` CLI in a fresh interpreter,
``parse_config`` and ``joint_optimize``.

- ``reference_datasets``: ``sweep`` and ``lifetime`` on the default scenario,
  the paper's figure data (3 amplifiers x 79 distances).  Bound by the
  optimizer layer; ``lifetime`` adds one OQPSK-only baseline solve per point.
- ``point_queries``: a seeded stream of independent single-point queries, each
  with its own generated INI text, distance and amplifier.  The queries share
  no work, so a cache or warm start keyed on the reference grid gets nothing;
  it is the only workload whose config parsing does real work, and it
  reaches retransmission caps (0, 4, 5) the reference scenario never uses.
- ``validate``: the 17-check oracle battery plus the PER error table, the only
  workload that runs quadrature and golden-section search.

Run ``python3 bench/workloads.py digests FIRST LAST`` to print the reference
digests of ``point_queries`` for seeds FIRST..LAST as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS_PATH = Path(__file__).resolve().parent / "query_digests.json"

# Outputs of the default scenario, measured with Python 3.11.7 and scipy 1.17.1.
SWEEP_SHA256 = "3f3f3a9aabe2436019dc610ad0e2068f60a6ababf62cef4ee672982d171c36a1"
LIFETIME_SHA256 = "8b9667a87b76b3c345272f3c115ca44e3e1cf6c32edbdf44a1402db35e043383"
PER_TABLE_SHA256 = "5b98033d26abe1d7c5ad916f8532a1f7314be7e9cc1e60f47d1f3ec297a507c7"
VALIDATE_SUMMARY = "checks: 17/17 passed"

# Exit codes of the CLI that are a valid answer: 0 success, 2 only infeasible.
OK_EXIT_CODES = (0, 2)

CLI_BOOT = "import sys; from linkopt.cli import main; sys.exit(main())"
SETUP_BOOT = "import linkopt; linkopt.default_config()"

# Short passes give many samples per run; the cost of a 300-query pass
# varies by about 5 % between batches, through the query mix.
QUERIES_PER_PASS = 300
DIGEST_QUERIES = 300
PAS = ("cpa", "tpa", "etpa")


class GateError(Exception):
    """An output that does not match the correctness gate."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not old else f"{SRC}{os.pathsep}{old}"
    return env


@dataclass
class ChildRun:
    seconds: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def run_child(args: list[str], tag: str) -> ChildRun:
    """Run one fresh interpreter to completion; wall time and peak RSS.

    The child's stdout goes to a file (no pipe to drain) and its rusage is
    taken from ``os.wait4`` so that only this child is counted.
    """
    out_path = WORK / f"{tag}.stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=subprocess.DEVNULL,
            cwd=WORK, env=child_env(),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds=seconds,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8"),
    )


def run_cli(args: list[str], tag: str) -> ChildRun:
    run = run_child(["-c", CLI_BOOT, *args], tag)
    if run.exit_code not in OK_EXIT_CODES:
        raise GateError(f"linkopt {' '.join(args)}: exit code {run.exit_code}")
    return run


def run_setup() -> ChildRun:
    run = run_child(["-c", SETUP_BOOT], "setup")
    if run.exit_code != 0:
        raise GateError(f"setup interpreter: exit code {run.exit_code}")
    return run


def call_main(args: list[str]) -> str:
    """``linkopt.cli.main`` in-process; returns what it wrote to stdout."""
    from linkopt.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    if code not in OK_EXIT_CODES:
        raise GateError(f"main({args}): exit code {code}")
    return buffer.getvalue()


def check_hash(path: Path, expected: str, what: str) -> None:
    got = sha256_file(path)
    if got != expected:
        raise GateError(f"{what}: sha256 {got} != {expected}")


# --------------------------------------------------------------------------
# Workloads.  ``pass_ops()`` gives one compute pass as a list of operations;
# each runs its timed work and returns an untimed check, which the harness
# calls after the pass.  ``cli_invocations(sample)`` gives the CLI children
# of one ``cli_s`` sample; each runs and checks one child.


class ReferenceDatasets:
    """Default-scenario ``sweep`` and ``lifetime`` CSVs, checked by hash."""

    name = "reference_datasets"

    def __init__(self, seed: int):
        # The default scenario has no free input: the seed changes nothing.
        pass

    def pass_ops(self) -> list:
        return [self._command("sweep", SWEEP_SHA256),
                self._command("lifetime", LIFETIME_SHA256)]

    @staticmethod
    def _command(command: str, expected: str):
        def op():
            path = WORK / f"{command}.csv"
            call_main([command, "--out", str(path)])
            return lambda: check_hash(path, expected, f"{command} CSV")
        return op

    def cli_invocations(self, sample: int) -> list:
        return [self._child("sweep", SWEEP_SHA256),
                self._child("lifetime", LIFETIME_SHA256)]

    @staticmethod
    def _child(command: str, expected: str):
        def invoke() -> ChildRun:
            run = run_cli([command, "--out", f"cli_{command}.csv"], f"cli_{command}")
            check_hash(WORK / f"cli_{command}.csv", expected, f"CLI {command} CSV")
            return run
        return invoke


class Validate:
    """The oracle battery with the PER error table, checked by summary and hash."""

    name = "validate"

    def __init__(self, seed: int):
        # The battery draws its random instances from fixed internal seeds.
        pass

    def pass_ops(self) -> list:
        def op():
            path = WORK / "per_table.csv"
            stdout = call_main(["validate", "--out", str(path)])

            def check() -> None:
                check_validate_output(stdout, "validate")
                check_hash(path, PER_TABLE_SHA256, "PER error table")
            return check
        return [op]

    def cli_invocations(self, sample: int) -> list:
        def invoke() -> ChildRun:
            run = run_cli(["validate", "--out", "cli_per_table.csv"], "cli_validate")
            check_validate_output(run.stdout, "CLI validate")
            check_hash(WORK / "cli_per_table.csv", PER_TABLE_SHA256,
                       "CLI PER error table")
            return run
        return [invoke]


def check_validate_output(text: str, what: str) -> None:
    lines = text.strip().splitlines()
    if not lines or lines[-1] != VALIDATE_SUMMARY:
        last = lines[-1] if lines else "<no output>"
        raise GateError(f"{what}: last line {last!r} != {VALIDATE_SUMMARY!r}")


# --------------------------------------------------------------------------
# point_queries


@dataclass(frozen=True)
class Query:
    ini: str
    distance_m: float
    pa: str


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generate_queries(seed: int, batch: int, count: int) -> list[Query]:
    """Batch ``batch`` of the query stream of ``seed``; the same pair gives
    the same queries.

    Ranges, and why:
    - p0 1-100 mW, log-uniform: around the 10 mW reference cap, from links
      that are power-starved at short range to ones never capped.
    - kappa 2.5-4: free-space-like to cluttered indoor path loss.
    - bandwidth 3-100 kHz, log-uniform: narrow-band sensor radios; bandwidth
      scales both the noise floor and the bit rate.
    - header 16-128 bits: from a bare preamble to an addressed MAC header;
      sets the payload overhead the payload optimum trades against.
    - target PER 1e-4 to 1e-2, log-uniform: around the 1e-3 reference.
    - retransmission cap 0-5: includes 0 (a single attempt) and caps up to
      6 candidates per scheme, which the reference scenario never reaches.
    - distance 2-80 m: the reference sweep range.
    The amplifier cycles cpa, tpa, etpa so that every batch holds the same
    mix of the slow (TPA) and fast solvers.
    """
    rng = random.Random(f"linkopt-bench:{seed}:{batch}")
    queries = []
    for i in range(count):
        p0_mw = _log_uniform(rng, 1.0, 100.0)
        kappa = rng.uniform(2.5, 4.0)
        bandwidth_khz = _log_uniform(rng, 3.0, 100.0)
        n_h_bits = rng.randint(16, 128)
        target_per = _log_uniform(rng, 1e-4, 1e-2)
        max_retx = rng.randint(0, 5)
        distance = round(rng.uniform(2.0, 80.0), 3)
        ini = (
            f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
            f"bandwidth_khz = {bandwidth_khz!r}\n\n"
            f"[packet]\nn_h_bits = {n_h_bits}\n\n"
            f"[qos]\ntarget_per = {target_per!r}\n"
            f"max_retransmissions = {max_retx}\n"
        )
        queries.append(Query(ini, distance, PAS[i % len(PAS)]))
    return queries


def solve_query(query: Query):
    """One query through the public API: ``parse_config`` + ``joint_optimize``."""
    import linkopt

    config = linkopt.parse_config(query.ini)
    link = replace(config.link_template, distance_m=query.distance_m)
    point = linkopt.joint_optimize(
        link, config.qos, config.pa_models[linkopt.PaVariant(query.pa)],
        config.modulations, config.n_h, delta=config.delta,
        circuit_power=config.circuit_power,
    )
    return config, link, point


def result_line(query: Query, point) -> str:
    """One query's result, formatted like the CSVs (``.10g``)."""
    def g(value):
        return "" if value is None else f"{value:.10g}"

    return ",".join([
        g(query.distance_m), query.pa,
        point.scheme.name if point.feasible else "",
        g(point.gamma_bar), g(point.n_p), g(point.tau_r), g(point.energy),
        g(point.p_t), g(point.p_pa), point.binding.value,
        str(point.feasible).lower(),
    ])


def check_point(query: Query, config, link, point) -> None:
    """Invariants every answer must meet, feasible or not."""
    import linkopt

    if not point.feasible:
        if point.binding is not linkopt.Binding.INFEASIBLE or not point.failure_reasons:
            raise GateError(f"{query}: infeasible marker without reasons")
        return
    if point.scheme not in config.modulations:
        raise GateError(f"{query}: scheme {point.scheme.name} not enabled")
    if not 0 <= point.tau_r <= config.qos.max_retransmissions:
        raise GateError(f"{query}: tau {point.tau_r} outside the cap")
    if point.n_p < 1 or not (math.isfinite(point.energy) and point.energy > 0.0):
        raise GateError(f"{query}: degenerate point n_p={point.n_p} "
                        f"energy={point.energy}")
    bound = linkopt.QosSpec(config.qos.target_per, point.tau_r).per_attempt_bound
    per = linkopt.per_rayleigh(point.scheme, config.n_h + point.n_p, point.gamma_bar)
    if per > bound * (1.0 + 1e-9):
        raise GateError(f"{query}: PER {per:.6g} above the bound {bound:.6g}")
    pa = config.pa_models[linkopt.PaVariant(query.pa)]
    cap = min(link.p0_w, pa.p_t_max / point.scheme.papr)
    if point.p_t > cap * (1.0 + 1e-9):
        raise GateError(f"{query}: p_t {point.p_t:.6g} W above the cap {cap:.6g} W")


def batch_digest(seed: int) -> str:
    """SHA-256 over the result lines of the first queries of batch 0."""
    digest = hashlib.sha256()
    for query in generate_queries(seed, 0, DIGEST_QUERIES):
        _, _, point = solve_query(query)
        digest.update((result_line(query, point) + "\n").encode())
    return digest.hexdigest()


def load_reference_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class PointQueries:
    """A stream of independent single-point queries.

    Each compute pass takes the next batch of the stream, so no pass repeats
    an earlier one.  Every answer is checked against the invariants; the
    start of batch 0 is also checked against the seed's reference digest
    when the table holds the seed.
    """

    name = "point_queries"

    def __init__(self, seed: int):
        self.seed = seed
        self.batch = 0
        self.query_seconds: list[float] = []
        self.feasible = 0
        self.solved = 0
        self.reference = load_reference_digests().get(str(seed))
        self.digest_checked = False

    def pass_ops(self) -> list:
        queries = generate_queries(self.seed, self.batch, QUERIES_PER_PASS)
        digest = hashlib.sha256()
        ops = [self._query_op(q, digest if i < DIGEST_QUERIES else None)
               for i, q in enumerate(queries)]
        if self.batch == 0 and self.reference is not None:
            ops.append(lambda: lambda: self._check_digest(digest))
        self.batch += 1
        return ops

    def _query_op(self, query: Query, digest):
        def op():
            start = time.perf_counter()
            config, link, point = solve_query(query)
            self.query_seconds.append(time.perf_counter() - start)

            def check() -> None:
                if digest is not None:
                    digest.update((result_line(query, point) + "\n").encode())
                check_point(query, config, link, point)
                self.solved += 1
                self.feasible += point.feasible
            return check
        return op

    def _check_digest(self, digest) -> None:
        got = digest.hexdigest()
        if got != self.reference:
            raise GateError(f"point_queries seed {self.seed}: batch 0 digest "
                            f"{got} != {self.reference}")
        self.digest_checked = True

    def cli_invocations(self, sample: int) -> list:
        """One ``optimize`` child on a fresh query; the amplifier cycles with
        the sample.

        The child's output must equal in-process ``main`` on the same
        arguments, whose answer must also meet the invariants.
        """
        queries = generate_queries(self.seed, -1 - sample, len(PAS))
        return [self._cli_query(queries[sample % len(PAS)], "cli_query")]

    @staticmethod
    def _cli_query(query: Query, tag: str):
        def invoke() -> ChildRun:
            ini = WORK / f"{tag}.ini"
            ini.write_text(query.ini, encoding="utf-8")
            args = ["--config", str(ini), "optimize",
                    "--distance", repr(query.distance_m), "--pa", query.pa]
            run = run_cli(args, tag)
            check_point(query, *solve_query(query))
            expected = call_main(args)
            if run.stdout != expected:
                raise GateError(f"CLI optimize {query}: output differs from "
                                f"in-process main")
            return run
        return invoke


WORKLOADS = {w.name: w for w in (ReferenceDatasets, PointQueries, Validate)}


def _print_digests(first: int, last: int) -> None:
    sys.path.insert(0, str(SRC))
    digests = {str(seed): batch_digest(seed) for seed in range(first, last + 1)}
    json.dump(digests, sys.stdout, indent=0, sort_keys=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "digests":
        sys.exit("usage: python3 bench/workloads.py digests FIRST LAST")
    _print_digests(int(sys.argv[2]), int(sys.argv[3]))
