"""Command-line interface: optimize, sweep, lifetime and validate.

All dataset outputs are CSV (RFC-4180 quoting, LF line endings, ``.``
decimal separator); plotting is left to external tooling.  Exit codes:
0 success, 1 usage or config error (or a reader that closed the output pipe
early), 2 only infeasible results, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import Sequence, TextIO

from .config import ScenarioConfig, check_distance, default_config, load_config
from .energy import PaVariant
from .errors import ConfigError, LinkoptError
from .lifetime import lifetime
from .optimizer import best_point, candidate_tables, select_best

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _db(value: float) -> float:
    return 10.0 * math.log10(value)


def _dbm(value_w: float) -> float:
    return 10.0 * math.log10(value_w * 1e3)


def _parse_pa_list(text: str) -> list[PaVariant]:
    variants = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            variants.append(PaVariant(token))
        except ValueError:
            raise ConfigError(
                f"--pa: unknown amplifier model {token!r}; "
                f"expected cpa, tpa or etpa"
            ) from None
    if not variants:
        raise ConfigError("--pa: no amplifier model given")
    if len(set(variants)) < len(variants):
        twice = sorted({v.value for v in variants if variants.count(v) > 1})
        raise ConfigError(f"--pa: listed more than once: {twice}")
    return variants


def _open_out(path: str | None) -> tuple[TextIO, str | None]:
    """The ``--out`` stream of every command, and the file it replaces when
    the command succeeds: stdout for ``-`` or no path; for a new or regular
    file, a temporary file beside it, so that a failing command leaves the
    file as it was; anything else, a device or a pipe, written in place."""
    if path is None or path == "-":
        return sys.stdout, None
    target = os.path.realpath(path)
    try:
        if os.path.exists(target):
            if not os.path.isfile(target):
                return open(path, "w", encoding="utf-8", newline=""), None
            open(target, "a").close()  # fails where writing it would
        # A killed run whose pid is reused leaves a name taken; take the next.
        temp, n = f"{target}.{os.getpid()}.tmp", 0
        while True:
            try:
                out = open(temp, "x", encoding="utf-8", newline="")
                break
            except FileExistsError:
                n += 1
                temp = f"{target}.{os.getpid()}.{n}.tmp"
    except OSError as exc:
        raise ConfigError(
            f"--out: cannot write {path!r} ({exc.strerror or exc})"
        ) from None
    if os.path.exists(target):
        os.chmod(temp, os.stat(target).st_mode & 0o7777)
    return out, target


def cmd_optimize(config: ScenarioConfig, distance: float, variant: PaVariant,
                 out: TextIO) -> int:
    """Solve one distance and print the operating point."""
    [(_, _, table)] = _tables(config, (variant,), (distance,), ())
    point = select_best(table)
    out.write(f"distance_m: {_fmt(distance)}\n")
    out.write(f"pa_model: {variant.value}\n")
    out.write(f"feasible: {str(point.feasible).lower()}\n")
    out.write(f"binding: {point.binding.value}\n")
    if point.feasible:
        out.write(f"modulation: {point.scheme.name}\n")
        out.write(f"snr_db: {_fmt(_db(point.gamma_bar))}\n")
        out.write(f"p_t_dbm: {_fmt(_dbm(point.p_t))}\n")
        out.write(f"p_pa_mw: {_fmt(point.p_pa * 1e3)}\n")
        out.write(f"payload_bits: {point.n_p}\n")
        out.write(f"retransmissions: {point.tau_r}\n")
        out.write(f"energy_j_per_bit: {_fmt(point.energy)}\n")
        return EXIT_OK
    for reason in point.failure_reasons:
        out.write(f"reason: {reason}\n")
    return EXIT_INFEASIBLE


SWEEP_COLUMNS = [
    "distance_m", "pa_model", "modulation", "snr_db", "p_t_dbm", "p_pa_mw",
    "payload_bits", "retransmissions", "energy_j_per_bit", "binding",
    "feasible",
]


def _tables(config: ScenarioConfig, variants: Sequence[PaVariant],
            distances: Sequence[float], keep_best_of: tuple):
    """:func:`candidate_tables` of the config at ``distances``, amplifiers
    by name, good only for the best point of each table and of each scheme
    in ``keep_best_of``."""
    return candidate_tables(
        config.link_template, distances, config.qos,
        [config.pa_models[v] for v in sorted(variants, key=lambda v: v.value)],
        config.modulations, config.n_h, delta=config.delta,
        circuit_power=config.circuit_power, keep_best_of=keep_best_of,
    )


def cmd_sweep(config: ScenarioConfig, variants: Sequence[PaVariant],
              out: TextIO) -> int:
    """Emit the distance-sweep dataset for the selected amplifier models."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    any_feasible = False
    for d, pa, table in _tables(config, variants, config.distances(), ()):
        point = best_point(table)
        if point is None:
            writer.writerow([_fmt(d), pa.variant.value, *[""] * 7,
                             "infeasible", "false"])
            continue
        any_feasible = True
        writer.writerow([
            _fmt(d),
            pa.variant.value,
            point.scheme.name,
            _fmt(_db(point.gamma_bar)),
            _fmt(_dbm(point.p_t)),
            _fmt(point.p_pa * 1e3),
            _fmt(point.n_p),
            _fmt(point.tau_r),
            _fmt(point.energy),
            point.binding.value,
            "true",
        ])
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


LIFETIME_COLUMNS = [
    "distance_m", "pa_model", "lifetime_s", "baseline_lifetime_s",
    "gain_percent",
]


def _lifetime_rows(config: ScenarioConfig, variants: Sequence[PaVariant]):
    """One (distance, amplifier, best, baseline) per row, None if infeasible.

    The baseline is one of the config's own scheme objects, so its best point
    is selected by identity from the same candidate table as the overall best.
    """
    baseline = config.baseline_scheme()
    for d, pa, table in _tables(config, variants, config.distances(),
                                (baseline,)):
        base = best_point(c for c in table if c.scheme is baseline)
        yield d, pa.variant, best_point(table), base


def cmd_lifetime(config: ScenarioConfig, variants: Sequence[PaVariant],
                 out: TextIO) -> int:
    """Emit lifetime and gain over the OQPSK-only baseline per distance.

    Every row is computed before the header is written, so a lifetime
    outside the range of a double writes nothing."""
    rows = []
    any_feasible = False
    for d, variant, best, base in _lifetime_rows(config, variants):
        life = None if best is None else lifetime(best, config.duty)
        base_life = None if base is None else lifetime(base, config.duty)
        gain = None
        if life is not None and base_life is not None:
            # lifetime_gain's own expression, on the two lifetimes above.
            gain = 100.0 * (life - base_life) / base_life
        any_feasible = any_feasible or life is not None
        rows.append([
            _fmt(d),
            variant.value,
            _fmt(life),
            _fmt(base_life),
            _fmt(gain),
        ])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LIFETIME_COLUMNS)
    writer.writerows(rows)
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def cmd_validate(config: ScenarioConfig, out: TextIO,
                 table: TextIO | None) -> int:
    """Run the oracle cross-check battery, writing the PER error table to
    ``table`` (if any) before the summary; nonzero exit on any failure."""
    # The solve commands never load the battery.
    from .validation import BatteryRun, run_all_checks, write_per_error_table

    run = BatteryRun(config)
    results = run_all_checks(run)
    for result in results:
        out.write(result.line() + "\n")
    if table is not None:
        write_per_error_table(run, table)
    failed = [r for r in results if not r.passed]
    out.write(f"checks: {len(results) - len(failed)}/{len(results)} passed\n")
    return EXIT_VALIDATION if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkopt",
        description=(
            "Energy-optimal wireless link parameters (modulation, SNR, "
            "payload, retransmissions) under reliability and amplifier "
            "constraints."
        ),
    )
    parser.add_argument(
        "--config", metavar="PATH",
        help="scenario config file (INI); built-in defaults when omitted",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="solve a single distance")
    p_opt.add_argument("--distance", type=float, required=True, metavar="M")
    p_opt.add_argument("--pa", default="cpa", metavar="MODEL",
                       help="amplifier model: cpa, tpa or etpa")
    p_opt.add_argument("--out", metavar="PATH", help="output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="distance sweep dataset (CSV)")
    p_sweep.add_argument("--pa", default="cpa,tpa,etpa", metavar="MODELS",
                         help="comma-separated amplifier models")
    p_sweep.add_argument("--out", metavar="PATH")

    p_life = sub.add_parser("lifetime", help="battery lifetime dataset (CSV)")
    p_life.add_argument("--pa", default="cpa,tpa,etpa", metavar="MODELS")
    p_life.add_argument("--out", metavar="PATH")

    p_val = sub.add_parser("validate", help="run the oracle cross-checks")
    p_val.add_argument("--out", metavar="PATH",
                       help="also write the PER relative-error table CSV here")
    return parser


def _run(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else default_config()
    if args.command == "validate":
        command = lambda out: cmd_validate(
            config, sys.stdout, None if args.out is None else out)
    elif args.command == "optimize":
        variants = _parse_pa_list(args.pa)
        if len(variants) != 1:
            raise ConfigError("optimize takes exactly one --pa model")
        check_distance(config.link_template, args.distance, "--distance")
        command = lambda out: cmd_optimize(
            config, args.distance, variants[0], out)
    else:
        variants = _parse_pa_list(args.pa)
        dataset = {"sweep": cmd_sweep, "lifetime": cmd_lifetime}[args.command]
        command = lambda out: dataset(config, variants, out)
    # --out is opened before anything is solved, so an unusable path fails
    # first.
    out, target = _open_out(args.out)
    try:
        code = command(out)
    except BaseException:
        if target is not None:
            out.close()
            os.remove(out.name)
        raise
    finally:
        if out is not sys.stdout:
            out.close()
    if target is not None:
        os.replace(out.name, target)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        # Flush here, so that a closed pipe raises inside this try.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`linkopt sweep | head -1`).  Send
        # what is still buffered to devnull, so that the flush at exit
        # cannot fail again (the recipe in the `signal` module's docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_USAGE
    except LinkoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
