"""Command-line interface: optimize, sweep, lifetime and validate.

All dataset outputs are CSV (RFC-4180 quoting, LF line endings, ``.``
decimal separator); plotting is left to external tooling.  Exit codes:
0 success, 1 usage or config error, 2 only infeasible results, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from typing import Sequence, TextIO

from .config import ScenarioConfig, check_distance, default_config, load_config
from .energy import PaVariant
from .errors import ConfigError, LinkoptError
from .lifetime import lifetime, lifetime_gain
from .optimizer import candidate_table, joint_optimize, select_best
from .validation import run_all_checks, write_per_error_table

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


def _db(value: float | None) -> float | None:
    if value is None:
        return None
    return 10.0 * math.log10(value)


def _dbm(value_w: float | None) -> float | None:
    if value_w is None:
        return None
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
    return variants


def _open_out(path: str | None) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8", newline="")


def _sweep_rows(config: ScenarioConfig, variants: Sequence[PaVariant]):
    """One row per (distance, amplifier); deterministic order."""
    distances = config.distances()
    for d in distances:
        for variant in sorted(variants, key=lambda v: v.value):
            pa = config.pa_models[variant]
            link = replace(config.link_template, distance_m=d)
            point = joint_optimize(
                link, config.qos, pa, config.modulations, config.n_h,
                delta=config.delta, circuit_power=config.circuit_power,
            )
            yield d, variant, point


def cmd_optimize(config: ScenarioConfig, distance: float, variant: PaVariant,
                 out: TextIO) -> int:
    """Solve one distance and print the operating point."""
    link = replace(config.link_template, distance_m=distance)
    pa = config.pa_models[variant]
    point = joint_optimize(
        link, config.qos, pa, config.modulations, config.n_h,
        delta=config.delta, circuit_power=config.circuit_power,
    )
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


def cmd_sweep(config: ScenarioConfig, variants: Sequence[PaVariant],
              out: TextIO) -> int:
    """Emit the distance-sweep dataset for the selected amplifier models."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    any_feasible = False
    for d, variant, point in _sweep_rows(config, variants):
        any_feasible = any_feasible or point.feasible
        writer.writerow([
            _fmt(d),
            variant.value,
            point.scheme.name if point.feasible else "",
            _fmt(_db(point.gamma_bar)),
            _fmt(_dbm(point.p_t)),
            _fmt(point.p_pa * 1e3 if point.p_pa is not None else None),
            _fmt(point.n_p),
            _fmt(point.tau_r),
            _fmt(point.energy),
            point.binding.value,
            str(point.feasible).lower(),
        ])
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


LIFETIME_COLUMNS = [
    "distance_m", "pa_model", "lifetime_s", "baseline_lifetime_s",
    "gain_percent",
]


def _lifetime_rows(config: ScenarioConfig, variants: Sequence[PaVariant]):
    """One (distance, amplifier, best point, baseline point) per row.

    The baseline scheme is one of the enabled ones, so its best point is
    selected from the same candidate table as the overall best.
    """
    baseline = config.baseline_scheme()
    for d in config.distances():
        link = replace(config.link_template, distance_m=d)
        for variant in sorted(variants, key=lambda v: v.value):
            table = candidate_table(
                link, config.qos, config.pa_models[variant], config.modulations,
                config.n_h, delta=config.delta,
                circuit_power=config.circuit_power,
            )
            base = select_best(c for c in table if c.scheme == baseline)
            yield d, variant, select_best(table), base


def cmd_lifetime(config: ScenarioConfig, variants: Sequence[PaVariant],
                 out: TextIO) -> int:
    """Emit lifetime and gain over the OQPSK-only baseline per distance."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LIFETIME_COLUMNS)
    any_feasible = False
    for d, variant, best, base in _lifetime_rows(config, variants):
        life = lifetime(best, config.duty) if best.feasible else None
        base_life = lifetime(base, config.duty) if base.feasible else None
        gain = None
        if best.feasible and base.feasible:
            gain = lifetime_gain(best, base, config.duty)
        any_feasible = any_feasible or life is not None
        writer.writerow([
            _fmt(d),
            variant.value,
            _fmt(life),
            _fmt(base_life),
            _fmt(gain),
        ])
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def cmd_validate(config: ScenarioConfig, out: TextIO,
                 table_path: str | None) -> int:
    """Run the oracle cross-check battery; nonzero exit on any failure."""
    results = run_all_checks(config)
    for result in results:
        out.write(result.line() + "\n")
    if table_path is not None:
        write_per_error_table(config, table_path)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        if args.command == "optimize":
            variants = _parse_pa_list(args.pa)
            if len(variants) != 1:
                raise ConfigError("optimize takes exactly one --pa model")
            check_distance(config.link_template, args.distance, "--distance")
            out = _open_out(args.out)
            try:
                return cmd_optimize(config, args.distance, variants[0], out)
            finally:
                if out is not sys.stdout:
                    out.close()
        if args.command == "sweep":
            out = _open_out(args.out)
            try:
                return cmd_sweep(config, _parse_pa_list(args.pa), out)
            finally:
                if out is not sys.stdout:
                    out.close()
        if args.command == "lifetime":
            out = _open_out(args.out)
            try:
                return cmd_lifetime(config, _parse_pa_list(args.pa), out)
            finally:
                if out is not sys.stdout:
                    out.close()
        if args.command == "validate":
            return cmd_validate(config, sys.stdout, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LinkoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
