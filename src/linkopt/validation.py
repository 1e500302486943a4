"""Self-validation battery: every closed form checked against its oracle.

Each check pairs an analytic route with an independent numeric one
(quadrature, golden-section search and bisection from :mod:`linkopt.oracles`,
or a brute-force grid here) and reports the measured residual against a
fixed threshold.  Every check is called as
``check(run)`` with one :class:`BatteryRun`, whose ``config`` is the
scenario; it yields the ``(residual, where)`` of each instance it checks,
and :func:`_worst` reduces them to its result within the call.  The CLI
``validate`` subcommand runs the whole battery and fails on any regression;
the same checks back the acceptance test suite.
"""

from __future__ import annotations

import csv
import functools
import math
import random
from dataclasses import dataclass, replace
from typing import TextIO

from . import optimizer as opt
from . import oracles
from .config import ScenarioConfig
from .energy import (
    PaModel,
    PaVariant,
    avg_transmissions,
    e0,
    energy_coefficients,
    pa_efficiency,
)
from .per import (
    ModulationScheme,
    QosSpec,
    payload_max,
    per_rayleigh,
    snr_min,
    waterfall_threshold,
)

PACKET_SIZES = (120, 512, 1024, 10048)
ERROR_TABLE_SIZES = (120, 1024, 10048)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check."""

    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"{self.name},{status},residual={self.residual:.3e},"
            f"threshold={self.threshold:.3e}"
        )
        if self.detail:
            out += f",{self.detail}"
        return out


def _worst(name, threshold, gaps, floor=0.0) -> CheckResult:
    """A check's result from the ``(residual, where)`` of each instance: the
    first largest residual above ``floor`` and its place, or ``no instances``.
    A nan residual ranks above every number, so the first one fails the
    check with residual nan.  A ValueError or ArithmeticError raised while
    the pairs are made (a scenario the oracle cannot evaluate) fails the
    check with residual inf and the error as its detail."""
    worst, where, seen = floor, "", False
    try:
        for residual, at in gaps:
            seen = True
            if residual > worst or (math.isnan(residual) and not math.isnan(worst)):
                worst, where = residual, at
    except (ValueError, ArithmeticError) as exc:
        worst, where = math.inf, f"{type(exc).__name__}: {exc}"
    else:
        if not seen:
            where = "no instances"
    return CheckResult(name, worst <= threshold, worst, threshold, where)


def _check(name: str, threshold: float, floor: float = 0.0):
    """Make a generator of ``(residual, where)`` pairs the check
    ``check(run) -> CheckResult``, which runs it through :func:`_worst`."""
    def decorate(gaps):
        @functools.wraps(gaps)
        def check(run):
            return _worst(name, threshold, gaps(run), floor)
        return check
    return decorate


# The grid of the feasibility-prefix check and the distances of the
# conditioning checks; one sweep of the battery builds the tables of both.
PREFIX_DISTANCES = tuple(float(d) for d in range(2, 90, 2))
CONDITIONING_DISTANCES = (5.0, 15.0, 25.0, 35.0, 45.0)


class BatteryRun:
    """Oracle work shared by the checks of one battery run.

    ``cmd_validate`` makes one per call, and every check reads its scenario
    from ``config``.  :meth:`quad` memoizes the quadrature oracles and runs
    them all on one :class:`oracles.AwgnPerCurve` per scheme and packet
    size, so each quadrature node is evaluated once per run.  The tables
    the conditioning and feasibility-prefix checks read are built in one
    sweep over the sorted union of :data:`PREFIX_DISTANCES` and
    :data:`CONDITIONING_DISTANCES`, and streamed: the run keeps of them only
    the conditioned points and, at each distance of the prefix grid, which
    schemes have a feasible entry.  A ValueError or ArithmeticError the
    sweep raises reaches each check that reads it.  Nothing outlives the
    run, and no candidate table outlives the sweep or check that builds it.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._curves: dict = {}
        self._quad: dict = {}
        self._swept = None

    def quad(self, integral, scheme: ModulationScheme, n_bits: int,
             *args) -> float:
        """``integral(curve, *args, quad_epsrel, quad_epsabs)`` on the run's
        AWGN PER curve of ``scheme`` and ``n_bits``, once per run."""
        key = (integral, scheme, n_bits, *args)
        if key not in self._quad:
            curve = self._curves.get((scheme, n_bits))
            if curve is None:
                curve = oracles.AwgnPerCurve(scheme, n_bits)
                self._curves[scheme, n_bits] = curve
            config = self.config
            self._quad[key] = integral(
                curve, *args, config.quad_epsrel, config.quad_epsabs
            )
        return self._quad[key]

    def tables(self, distances, keep_best_of=None):
        """:func:`optimizer.candidate_tables` of the scenario at
        ``distances``, whole or bounded for selection by ``keep_best_of``."""
        config = self.config
        return opt.candidate_tables(
            config.link_template, distances, config.qos,
            config.pa_models.values(), config.modulations, config.n_h,
            delta=config.delta, circuit_power=config.circuit_power,
            keep_best_of=keep_best_of,
        )

    def _sweep(self) -> tuple[list, list]:
        """``(conditioned points, feasibility flags)`` of the run's one
        sweep of whole tables, made on the first call."""
        if self._swept is None:
            prefix = frozenset(PREFIX_DISTANCES)
            conditioning = frozenset(CONDITIONING_DISTANCES)
            schemes = self.config.modulations
            conditioned, flags = [], []
            for d, pa, table in self.tables(sorted(prefix | conditioning)):
                if d in conditioning:
                    conditioned += [(d, pa, c.point)
                                    for c in table if c.point is not None]
                if d in prefix:
                    # Table schemes are the config's own objects: identity,
                    # not the dataclass __eq__.
                    feasible = {id(c.scheme) for c in table
                                if c.point is not None}
                    flags.append((d, pa, [id(s) in feasible for s in schemes]))
            self._swept = conditioned, flags
        return self._swept

    def conditioned_points(self) -> list:
        """``(distance, pa, point)`` of every feasible candidate at
        :data:`CONDITIONING_DISTANCES`, in table order."""
        return self._sweep()[0]

    def feasibility_flags(self) -> list:
        """``(distance, pa, flags)`` at each distance of
        :data:`PREFIX_DISTANCES` and each amplifier, distance-major:
        ``flags[i]`` says whether ``config.modulations[i]`` has a feasible
        entry in that table."""
        return self._sweep()[1]


@_check("waterfall_closed_vs_numeric", 0.03)
def check_waterfall_closed_vs_numeric(run: BatteryRun):
    """Gumbel-mean threshold against adaptive quadrature, all schemes."""
    for scheme in run.config.modulations:
        for n in PACKET_SIZES:
            numeric = run.quad(oracles.AwgnPerCurve.threshold, scheme, n)
            closed = waterfall_threshold(scheme, n)
            yield abs(closed - numeric) / numeric, f"{scheme.name}/N={n}"


@_check("per_error_vs_bound", 0.02)
def check_per_error_vs_bound(run: BatteryRun):
    """Closed-form PER error tracks the numeric upper bound's error.

    Compares relative errors against the exact Rayleigh-average PER for
    16QAM over 10..40 dB; the two routes must stay within 2 percentage
    points of each other.
    """
    for n, snr_db, exact, err_closed, err_bound in _per_errors(run, 2):
        gap = abs(err_closed / exact - err_bound / exact)
        yield gap, f"N={n}/snr={snr_db}dB"


def _scheme_like_16qam(config: ScenarioConfig) -> ModulationScheme:
    for scheme in config.modulations:
        if scheme.name == "16QAM":
            return scheme
    return config.modulations[-1]


def _per_errors(run: BatteryRun, snr_step: int):
    """``(N, SNR dB, exact PER, |closed form - exact|, |bound - exact|)`` for
    16QAM at :data:`ERROR_TABLE_SIZES` and 10..40 dB."""
    scheme = _scheme_like_16qam(run.config)
    for n in ERROR_TABLE_SIZES:
        w_closed = waterfall_threshold(scheme, n)
        w_num = run.quad(oracles.AwgnPerCurve.threshold, scheme, n)
        for snr_db in range(10, 41, snr_step):
            g = 10.0 ** (snr_db / 10.0)
            exact = run.quad(
                oracles.AwgnPerCurve.rayleigh_average, scheme, n, g
            )
            yield (n, snr_db, exact, abs(-math.expm1(-w_closed / g) - exact),
                   abs(-math.expm1(-w_num / g) - exact))


@_check("per_monotonicity", 0.0)
def check_per_monotonicity(run: BatteryRun):
    """PER strictly decreasing in SNR and increasing in packet size."""
    sizes = (64, 256, 1024, 4096)
    snrs = [10.0 ** (db / 10.0) for db in range(2, 42, 2)]
    for scheme in run.config.modulations:
        for n in sizes:
            values = [per_rayleigh(scheme, n, g) for g in snrs]
            for lo, hi in zip(values[1:], values):
                yield lo - hi, ""
        for g in snrs:
            values = [per_rayleigh(scheme, n, g) for n in sizes]
            for lo, hi in zip(values, values[1:]):
                yield lo - hi, ""


@_check("exact_below_bound", 1e-9, floor=-math.inf)
def check_exact_below_bound(run: BatteryRun):
    """Exact Rayleigh PER never exceeds the numeric-threshold bound."""
    for scheme in run.config.modulations:
        for n in (120, 1024):
            w_num = run.quad(oracles.AwgnPerCurve.threshold, scheme, n)
            for snr_db in (5, 15, 25, 35):
                g = 10.0 ** (snr_db / 10.0)
                exact = run.quad(
                    oracles.AwgnPerCurve.rayleigh_average, scheme, n, g
                )
                bound = -math.expm1(-w_num / g)
                yield exact - bound, f"{scheme.name}/N={n}/snr={snr_db}dB"


@_check("snr_min_roundtrip", 1e-9)
def check_snr_min_roundtrip(run: BatteryRun):
    """per_rayleigh(snr_min) returns the per-attempt bound exactly."""
    config = run.config
    qos = config.qos
    for scheme in config.modulations:
        for n_p in (100, 976, 5000):
            g = snr_min(scheme, config.n_h, n_p, qos)
            back = per_rayleigh(scheme, config.n_h + n_p, g)
            yield abs(back - qos.per_attempt_bound) / qos.per_attempt_bound, ""


@_check("payload_max_roundtrip", 1e-12)
def check_payload_max_roundtrip(run: BatteryRun):
    """payload_max is the floor-inverse of the PER constraint in packet size."""
    config = run.config
    bound = config.qos.per_attempt_bound
    for scheme in config.modulations:
        for snr_db in (12, 20, 28):
            g = 10.0 ** (snr_db / 10.0)
            n_max = payload_max(scheme, config.n_h, g, config.qos)
            if n_max <= 0 or n_max >= 10**9:
                continue
            at = per_rayleigh(scheme, config.n_h + n_max, g)
            above = per_rayleigh(scheme, config.n_h + n_max + 1, g)
            excess = at / bound - 1.0 if at > bound * (1.0 + 1e-12) else 0.0
            yield max(excess, 1.0 if above <= bound else 0.0), ""


def _random_instances(config: ScenarioConfig, count: int, seed: int):
    rng = random.Random(seed)
    schemes = config.modulations
    variants = list(config.pa_models)
    for _ in range(count):
        scheme = rng.choice(schemes)
        pa = config.pa_models[rng.choice(variants)]
        d = rng.uniform(1.0, 80.0)
        n_p = rng.randrange(16, 2000)
        link = replace(config.link_template, distance_m=d)
        yield scheme, pa, link, n_p


def _step(coeffs, scheme, n_h, gamma_cap, n_p):
    """One step of the solver's payload map capped at ``gamma_cap``, with no
    reliability floor (``log_keep = -inf``); an ArithmeticError carrying the
    map's reason when it rejects ``n_p``."""
    result = opt.payload_map(coeffs, scheme, n_h, gamma_cap)(n_p, -math.inf)
    if result.__class__ is str:
        raise ArithmeticError(f"n_p={n_p}: {result}")
    return result


def _snr_optimum(coeffs, scheme, n_p, n_h):
    """The solver's unconstrained SNR optimum: :func:`_step` with no cap."""
    return _step(coeffs, scheme, n_h, math.inf, n_p)[0]


@_check("snr_optima_vs_golden", 1e-6)
def check_snr_optima_vs_golden(run: BatteryRun):
    """The payload map's unconstrained SNR optimum against golden-section
    argmin."""
    config = run.config
    for scheme, pa, link, n_p in _random_instances(config, 60, 20240):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        f, w0 = oracles._energy_curve_snr(coeffs, scheme, n_p, config.n_h)
        star = _snr_optimum(coeffs, scheme, n_p, config.n_h)
        numeric = oracles.golden_section_min_relative(f, w0 * 1e-3, star * 1e3, 1e-9)
        where = f"{scheme.name}/{pa.variant.value}/d={link.distance_m:.1f}"
        yield abs(star - numeric) / numeric, where


@_check("payload_optima_vs_golden", 1.0)
def check_payload_optima_vs_golden(run: BatteryRun):
    """The payload map's payload optimum against golden-section argmin.

    The map is built with the sampled SNR as its power cap and stepped with
    no reliability floor, so it conditions to the cap unless the
    unconstrained SNR optimum lies below it; the search runs at the SNR the
    step returns.
    """
    config = run.config
    rng = random.Random(20242)
    for scheme, pa, link, n_p in _random_instances(config, 40, 20241):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        cap = 10.0 ** rng.uniform(1.2, 3.2)
        g, _, wanted = _step(coeffs, scheme, config.n_h, cap, n_p)
        numeric = math.floor(oracles.golden_payload(coeffs, scheme, config.n_h, g))
        # Floored like the numeric side: the solver's floor at convergence.
        gap = abs(max(1, math.floor(wanted)) - numeric)
        yield gap, f"{scheme.name}/{pa.variant.value}"


@_check("tpa_root_crosscheck", 1e-9)
def check_tpa_root_crosscheck(run: BatteryRun):
    """The payload map's TPA SNR optimum against bisection of its cubic.

    The optimum is ``x^2`` for the positive root ``x`` of the stationarity
    cubic ``x^3 + p x + q = 0`` with ``p = -2 w0`` and ``q = p (b/a) rho``.
    """
    config = run.config
    pa = config.pa_models[PaVariant.TPA]
    for scheme, _, link, n_p in _random_instances(config, 40, 20242):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        n = config.n_h + n_p
        p = -2.0 * waterfall_threshold(scheme, n)
        numeric = oracles.cubic_root_bisection(
            p, p * (coeffs.b_coeff / coeffs.a_coeff * (n_p / n))
        ) ** 2
        root = _snr_optimum(coeffs, scheme, n_p, config.n_h)
        yield abs(numeric - root) / root, "instances=40"


@_check("pa_efficiency_saturation", 1e-12)
def check_pa_saturation(run: BatteryRun):
    """Efficiency law identities at and below the designed maximum power."""
    for pa in run.config.pa_models.values():
        yield abs(pa_efficiency(pa, pa.p_t_max) - pa.eta_max), ""
        if pa.variant is PaVariant.TPA:
            yield abs(pa_efficiency(pa, pa.p_t_max / 4.0) - pa.eta_max / 2.0), ""
        if pa.variant is PaVariant.ETPA:
            expected = pa.eta_max * (1.0 + pa.etpa_c) / 2.0
            yield abs(pa_efficiency(pa, pa.etpa_c * pa.p_t_max) - expected), ""


@_check("e0_pa_ordering", 0.0, floor=-math.inf)
def check_e0_ordering(run: BatteryRun):
    """Per-attempt energy ordering TPA >= ETPA >= CPA at matched settings.

    Holds when all variants share eta_max and p_t_max and operate backed off
    from saturation; the grid keeps the transmit power within the regulatory
    cap, far below the amplifier maximum.
    """
    config = run.config
    base = config.pa_models[PaVariant.ETPA]
    models = {
        v: PaModel(v, base.eta_max, base.p_t_max, base.etpa_c) for v in PaVariant
    }
    for scheme in config.modulations:
        p_c = config.circuit_power[scheme.circuit_power_class]
        for d in (5.0, 15.0, 40.0):
            link = replace(config.link_template, distance_m=d)
            cap = opt.snr_max(link, scheme, models[PaVariant.ETPA])
            for frac in (0.05, 0.3, 0.9):
                g = cap * frac
                values = {}
                for variant, pa in models.items():
                    coeffs = energy_coefficients(pa, scheme, link, p_c)
                    values[variant] = e0(coeffs, 512, config.n_h, g)
                yield values[PaVariant.ETPA] - values[PaVariant.TPA], ""
                yield values[PaVariant.CPA] - values[PaVariant.ETPA], ""


@_check("avg_transmissions_limits", 1e-12)
def check_avg_transmissions(run: BatteryRun):
    """Truncated-retransmission count limits and monotonicity."""
    yield abs(avg_transmissions(0.0, 3) - 1.0), ""
    yield abs(avg_transmissions(0.5, 1) - 1.5), ""
    p_req = run.config.qos.per_attempt_bound
    yield abs(avg_transmissions(p_req, None) - 1.0 / (1.0 - p_req)), ""
    prev = 0.0
    for i in range(1, 20):
        value = avg_transmissions(i / 20.0, 3)
        yield prev - value, ""
        prev = value


@_check("argmin_scale_invariance", 1e-9)
def check_scale_invariance(run: BatteryRun):
    """Joint scaling of both energy coefficients never moves any argmin.

    Scaling noise density, power cap, amplifier maximum and circuit power by
    a common factor multiplies every (A, B) pair by that factor while
    leaving the SNR window untouched, so the selected modulation and the
    optimal SNR must not move.  The tables at 5, 20 and 45 m, unscaled and
    scaled, are built bounded for selection (``keep_best_of=()``), which
    selects what whole tables select.
    """
    config = run.config
    factor = 7.3
    for scheme, pa, link, n_p in _random_instances(config, 20, 20243):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        scaled = replace(
            coeffs,
            a_coeff=coeffs.a_coeff * factor,
            b_coeff=coeffs.b_coeff * factor,
        )
        a = _snr_optimum(coeffs, scheme, n_p, config.n_h)
        b = _snr_optimum(scaled, scheme, n_p, config.n_h)
        yield abs(a - b) / a, ""
    link = config.link_template
    distances = (5.0, 20.0, 45.0)
    scaled = opt.candidate_tables(
        replace(link, n0=link.n0 * factor, p0_w=link.p0_w * factor),
        distances, config.qos,
        [replace(pa, p_t_max=pa.p_t_max * factor)
         for pa in config.pa_models.values()],
        config.modulations, config.n_h, delta=config.delta,
        circuit_power={k: v * factor for k, v in config.circuit_power.items()},
        keep_best_of=(),
    )
    unscaled = run.tables(distances, keep_best_of=())
    for (d, pa, table), (_, _, scaled_table) in zip(unscaled, scaled):
        one, other = opt.select_best(table), opt.select_best(scaled_table)
        same = (
            one.feasible == other.feasible
            and (one.scheme.name if one.feasible else None)
            == (other.scheme.name if other.feasible else None)
        )
        if not same:
            yield 1.0, f"selection moved at {pa.variant.value}/d={d}"


@_check("multistart_agreement", 1e-6)
def check_multistart_agreement(run: BatteryRun):
    """Random payload initializations converge to one fixed point.

    Covers every amplifier at 8 m and 20 m, ten starts each, every start
    solved by the per-candidate solve of ``candidate_tables``:
    ``optimizer._solve_candidate`` on the scheme's ``_law_setup`` at the
    distance's path gain.
    ``candidate_tables`` starts each candidate's solve from its payload at
    the previous distance of a sweep, else cold, which is only sound while
    each candidate has a single fixed point.  An (amplifier, distance) whose
    payload ceiling at the config's cap is below one bit is skipped: its
    solve is rejected before a start is read, so no two starts can disagree
    there.  Any other rejected start fails the check with its reason.
    """
    config = run.config
    scheme = _scheme_like_16qam(config)
    p_c = config.circuit_power[scheme.circuit_power_class]
    template = config.link_template
    rng = random.Random(20244)
    for variant, pa in config.pa_models.items():
        law = opt._scheme_law(template, pa, scheme, p_c)
        for d in (8.0, 20.0):
            setup = opt._law_setup(law, template.gain_at(d), config.n_h)
            if len(setup) > 2 and payload_max(
                    scheme, config.n_h, setup[6], config.qos) < 1:
                continue
            energies = []
            for _ in range(10):
                candidate, *_ = opt._solve_candidate(
                    setup, config.qos, config.delta, rng.uniform(1.0, 5000.0)
                )
                if candidate.point is None:
                    yield math.inf, f"{variant.value}/d={d}: {candidate.reason}"
                    return
                energies.append(candidate.point.energy)
            spread = (max(energies) - min(energies)) / min(energies)
            yield spread, f"{variant.value}/d={d}"


@_check("conditioning_snr_min", 1e-9)
def check_conditioning_snr_min(run: BatteryRun):
    """Where the reliability floor binds, the PER equals the bound exactly."""
    config = run.config
    for d, pa, point in run.conditioned_points():
        if point.binding is not opt.Binding.SNR_MIN_BOUND:
            continue
        bound = QosSpec(config.qos.target_per, point.tau_r).per_attempt_bound
        p = per_rayleigh(point.scheme, point.n_p + config.n_h, point.gamma_bar)
        yield abs(p - bound) / bound, f"{pa.variant.value}/d={d}"


@_check("conditioning_snr_max", 1e-12)
def check_conditioning_snr_max(run: BatteryRun):
    """Where the power cap binds, the transmit power equals the cap exactly.

    Payload-capped points sit on the reliability boundary of the floored
    payload ceiling, a granularity step below the cap, so they only need to
    respect the cap rather than meet it.
    """
    for d, pa, point in run.conditioned_points():
        cap = min(run.config.link_template.p0_w, pa.p_t_max / point.scheme.papr)
        if point.binding is opt.Binding.SNR_MAX_BOUND:
            yield abs(point.p_t - cap) / cap, f"{pa.variant.value}/d={d}"
        elif point.binding is opt.Binding.PAYLOAD_MAX_BOUND:
            yield max(0.0, point.p_t - cap) / cap, f"{pa.variant.value}/d={d}"


@_check("feasibility_prefix", 0.0)
def check_feasibility_prefix(run: BatteryRun):
    """Once a scheme goes infeasible with distance it stays infeasible.

    Reads the run's feasibility flags over :data:`PREFIX_DISTANCES`.  The
    residual of each feasible entry is the count of violations so far.
    """
    violations = 0
    seen_infeasible = set()
    for _, pa, flags in run.feasibility_flags():
        for i, feasible in enumerate(flags):
            if not feasible:
                seen_infeasible.add((pa.variant, i))
                continue
            violations += (pa.variant, i) in seen_infeasible
            yield float(violations), ""


ALL_CHECKS = (
    check_waterfall_closed_vs_numeric,
    check_per_error_vs_bound,
    check_per_monotonicity,
    check_exact_below_bound,
    check_snr_min_roundtrip,
    check_payload_max_roundtrip,
    check_snr_optima_vs_golden,
    check_payload_optima_vs_golden,
    check_tpa_root_crosscheck,
    check_pa_saturation,
    check_e0_ordering,
    check_avg_transmissions,
    check_scale_invariance,
    check_multistart_agreement,
    check_conditioning_snr_min,
    check_conditioning_snr_max,
    check_feasibility_prefix,
)


def run_all_checks(run: BatteryRun) -> list[CheckResult]:
    """Run every oracle cross-check against the run's scenario."""
    return [check(run) for check in ALL_CHECKS]


def write_per_error_table(run: BatteryRun, out: TextIO) -> None:
    """CSV of PER relative-error curves for 16QAM at three packet sizes,
    written to the text stream ``out``.

    Columns: packet size, SNR, and the relative errors of the closed-form
    approximation and of the numeric-threshold bound against the exact
    Rayleigh-average PER.
    """
    name = _scheme_like_16qam(run.config).name
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["modulation", "n_bits", "snr_db", "re_closed_pct", "re_bound_pct"])
    for n, snr_db, exact, err_closed, err_bound in _per_errors(run, 1):
        re_closed = 100.0 * err_closed / exact
        re_bound = 100.0 * err_bound / exact
        writer.writerow([name, n, snr_db, f"{re_closed:.10g}", f"{re_bound:.10g}"])
