"""Self-validation battery: every closed form checked against its oracle.

Each check pairs an analytic route with an independent numeric one
(quadrature, golden-section search, brute-force grids) and reports the
measured residual against a fixed threshold.  The CLI ``validate``
subcommand runs the whole battery and fails on any regression; the same
checks back the acceptance test suite.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, replace

from . import optimizer as opt
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
    per_rayleigh_bound_numeric,
    per_rayleigh_exact,
    snr_min,
    waterfall_threshold,
    waterfall_threshold_numeric,
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


def _result(name, residual, threshold, detail=""):
    return CheckResult(name, residual <= threshold, residual, threshold, detail)


def check_waterfall_closed_vs_numeric(config: ScenarioConfig) -> CheckResult:
    """Gumbel-mean threshold against adaptive quadrature, all schemes."""
    worst = 0.0
    where = ""
    for scheme in config.modulations:
        for n in PACKET_SIZES:
            numeric = waterfall_threshold_numeric(
                scheme, n, config.quad_epsrel, config.quad_epsabs
            )
            closed = waterfall_threshold(scheme, n)
            rel = abs(closed - numeric) / numeric
            if rel > worst:
                worst, where = rel, f"{scheme.name}/N={n}"
    return _result("waterfall_closed_vs_numeric", worst, 0.03, where)


def check_per_error_vs_bound(config: ScenarioConfig) -> CheckResult:
    """Closed-form PER error tracks the numeric upper bound's error.

    Compares relative errors against the exact Rayleigh-average PER for
    16QAM over 10..40 dB; the two routes must stay within 2 percentage
    points of each other.
    """
    scheme = _scheme_like_16qam(config)
    worst = 0.0
    where = ""
    for n in ERROR_TABLE_SIZES:
        w_closed = waterfall_threshold(scheme, n)
        w_num = waterfall_threshold_numeric(
            scheme, n, config.quad_epsrel, config.quad_epsabs
        )
        for snr_db in range(10, 41, 2):
            g = 10.0 ** (snr_db / 10.0)
            exact = per_rayleigh_exact(
                scheme, n, g, config.quad_epsrel, config.quad_epsabs
            )
            re_closed = abs(-math.expm1(-w_closed / g) - exact) / exact
            re_bound = abs(-math.expm1(-w_num / g) - exact) / exact
            gap = abs(re_closed - re_bound)
            if gap > worst:
                worst, where = gap, f"N={n}/snr={snr_db}dB"
    return _result("per_error_vs_bound", worst, 0.02, where)


def _scheme_like_16qam(config: ScenarioConfig) -> ModulationScheme:
    for scheme in config.modulations:
        if scheme.name == "16QAM":
            return scheme
    return config.modulations[-1]


def check_per_monotonicity(config: ScenarioConfig) -> CheckResult:
    """PER strictly decreasing in SNR and increasing in packet size."""
    worst = 0.0
    sizes = (64, 256, 1024, 4096)
    snrs = [10.0 ** (db / 10.0) for db in range(2, 42, 2)]
    for scheme in config.modulations:
        for n in sizes:
            values = [per_rayleigh(scheme, n, g) for g in snrs]
            for lo, hi in zip(values[1:], values):
                worst = max(worst, lo - hi)
        for g in snrs:
            values = [per_rayleigh(scheme, n, g) for n in sizes]
            for lo, hi in zip(values, values[1:]):
                worst = max(worst, lo - hi)
    return _result("per_monotonicity", worst, 0.0)


def check_exact_below_bound(config: ScenarioConfig) -> CheckResult:
    """Exact Rayleigh PER never exceeds the numeric-threshold bound."""
    worst = -math.inf
    where = ""
    for scheme in config.modulations:
        for n in (120, 1024):
            for snr_db in (5, 15, 25, 35):
                g = 10.0 ** (snr_db / 10.0)
                exact = per_rayleigh_exact(
                    scheme, n, g, config.quad_epsrel, config.quad_epsabs
                )
                bound = per_rayleigh_bound_numeric(scheme, n, g)
                excess = exact - bound
                if excess > worst:
                    worst, where = excess, f"{scheme.name}/N={n}/snr={snr_db}dB"
    return _result("exact_below_bound", worst, 1e-9, where)


def check_snr_min_roundtrip(config: ScenarioConfig) -> CheckResult:
    """per_rayleigh(snr_min) returns the per-attempt bound exactly."""
    worst = 0.0
    qos = config.qos
    for scheme in config.modulations:
        for n_p in (100, 976, 5000):
            g = snr_min(scheme, config.n_h, n_p, qos)
            back = per_rayleigh(scheme, config.n_h + n_p, g)
            worst = max(
                worst, abs(back - qos.per_attempt_bound) / qos.per_attempt_bound
            )
    return _result("snr_min_roundtrip", worst, 1e-9)


def check_payload_max_roundtrip(config: ScenarioConfig) -> CheckResult:
    """payload_max is the floor-inverse of the PER constraint in packet size."""
    qos = config.qos
    bad = 0.0
    for scheme in config.modulations:
        for snr_db in (12, 20, 28):
            g = 10.0 ** (snr_db / 10.0)
            n_max = payload_max(scheme, config.n_h, g, qos)
            if n_max <= 0 or n_max >= 10**9:
                continue
            at = per_rayleigh(scheme, config.n_h + n_max, g)
            above = per_rayleigh(scheme, config.n_h + n_max + 1, g)
            if at > qos.per_attempt_bound * (1.0 + 1e-12):
                bad = max(bad, at / qos.per_attempt_bound - 1.0)
            if above <= qos.per_attempt_bound:
                bad = max(bad, 1.0)
    return _result("payload_max_roundtrip", bad, 1e-12)


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


def _energy_curve_snr(coeffs, scheme, n_p, n_h):
    w0 = waterfall_threshold(scheme, n_h + n_p)

    def f(g):
        if coeffs.pa_variant is PaVariant.TPA:
            attempt = coeffs.a_coeff * math.sqrt(g) + coeffs.b_coeff * n_p / (
                n_h + n_p
            )
        else:
            attempt = coeffs.a_coeff * g + coeffs.b_coeff * n_p / (n_h + n_p)
        return opt._exp_or_inf(w0 / g) * attempt

    return f, w0


def check_snr_optima_vs_golden(
    config: ScenarioConfig, count: int = 60, seed: int = 20240
) -> CheckResult:
    """Closed-form optimal SNR against golden-section argmin."""
    worst = 0.0
    where = ""
    for scheme, pa, link, n_p in _random_instances(config, count, seed):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        f, w0 = _energy_curve_snr(coeffs, scheme, n_p, config.n_h)
        if coeffs.pa_variant is PaVariant.TPA:
            star = opt.optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p, config.n_h)
        else:
            star = opt.optimal_snr_quadratic(coeffs, w0, n_p, config.n_h)
        numeric = opt.golden_section_min_relative(f, w0 * 1e-3, star * 1e3, 1e-9)
        rel = abs(star - numeric) / numeric
        if rel > worst:
            worst = rel
            where = f"{scheme.name}/{pa.variant.value}/d={link.distance_m:.1f}"
    return _result("snr_optima_vs_golden", worst, 1e-6, where)


def check_payload_optima_vs_golden(
    config: ScenarioConfig, count: int = 40, seed: int = 20241
) -> CheckResult:
    """Closed-form / numeric payload optimum against golden-section argmin."""
    worst = 0.0
    where = ""
    rng = random.Random(seed + 1)
    for scheme, pa, link, _ in _random_instances(config, count, seed):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        g = 10.0 ** rng.uniform(1.2, 3.2)
        curve = lambda n_p: opt._packet_energy_unbounded(
            coeffs, scheme, config.n_h, g, n_p
        )
        hi = 16.0
        while curve(hi) <= curve(hi / 2.0) and hi < 1e9:
            hi *= 2.0
        numeric = opt.golden_section_min(curve, 1.0, hi, 1e-4)
        if coeffs.pa_variant is PaVariant.TPA:
            analytic = opt.optimal_payload_tpa(coeffs, scheme, config.n_h, g)
        else:
            analytic = opt.optimal_payload_quadratic(coeffs, scheme, config.n_h, g)
        gap = abs(analytic - math.floor(numeric))
        if gap > worst:
            worst = gap
            where = f"{scheme.name}/{pa.variant.value}"
    return _result("payload_optima_vs_golden", worst, 1.0, where)


def cubic_root_bisection(p: float, q: float) -> float:
    """Positive root of ``x^3 + p x + q`` (p < 0, q <= 0) by plain bisection.

    The root lies in ``[sqrt(-p), 2 (sqrt(-p) + cbrt(-q))]``, where the cubic
    changes sign once; halving runs until the bracket is two adjacent floats.
    """
    f = lambda x: x * (x * x + p) + q
    lo = math.sqrt(-p)
    hi = 2.0 * (lo + (-q) ** (1.0 / 3.0))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


def check_tpa_root_crosscheck(
    config: ScenarioConfig, count: int = 40, seed: int = 20242
) -> CheckResult:
    """Closed-form TPA cubic root against bisection of the same cubic."""
    worst = 0.0
    pa = config.pa_models[PaVariant.TPA]
    for scheme, _, link, n_p in _random_instances(config, count, seed):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        w0 = waterfall_threshold(scheme, config.n_h + n_p)
        p, q = opt._tpa_cubic(coeffs, w0, scheme.k_eff, n_p, config.n_h)
        numeric = cubic_root_bisection(p, q) ** 2
        root = opt.optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p, config.n_h)
        worst = max(worst, abs(numeric - root) / root)
    return _result("tpa_root_crosscheck", worst, 1e-9, f"instances={count}")


def check_pa_saturation(config: ScenarioConfig) -> CheckResult:
    """Efficiency law identities at and below the designed maximum power."""
    worst = 0.0
    for pa in config.pa_models.values():
        worst = max(worst, abs(pa_efficiency(pa, pa.p_t_max) - pa.eta_max))
        if pa.variant is PaVariant.TPA:
            worst = max(
                worst,
                abs(pa_efficiency(pa, pa.p_t_max / 4.0) - pa.eta_max / 2.0),
            )
        if pa.variant is PaVariant.ETPA:
            expected = pa.eta_max * (1.0 + pa.etpa_c) / 2.0
            worst = max(
                worst,
                abs(pa_efficiency(pa, pa.etpa_c * pa.p_t_max) - expected),
            )
    return _result("pa_efficiency_saturation", worst, 1e-12)


def check_e0_ordering(config: ScenarioConfig) -> CheckResult:
    """Per-attempt energy ordering TPA >= ETPA >= CPA at matched settings.

    Holds when all variants share eta_max and p_t_max and operate backed off
    from saturation; the grid keeps the transmit power within the regulatory
    cap, far below the amplifier maximum.
    """
    base = config.pa_models[PaVariant.ETPA]
    models = {
        v: PaModel(v, base.eta_max, base.p_t_max, base.etpa_c) for v in PaVariant
    }
    worst = -math.inf
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
                worst = max(
                    worst,
                    values[PaVariant.ETPA] - values[PaVariant.TPA],
                    values[PaVariant.CPA] - values[PaVariant.ETPA],
                )
    return _result("e0_pa_ordering", worst, 0.0)


def check_avg_transmissions(config: ScenarioConfig) -> CheckResult:
    """Truncated-retransmission count limits and monotonicity."""
    worst = 0.0
    worst = max(worst, abs(avg_transmissions(0.0, 3) - 1.0))
    worst = max(worst, abs(avg_transmissions(0.5, 1) - 1.5))
    p_req = config.qos.per_attempt_bound
    worst = max(worst, abs(avg_transmissions(p_req, None) - 1.0 / (1.0 - p_req)))
    prev = 0.0
    for i in range(1, 20):
        p = i / 20.0
        value = avg_transmissions(p, 3)
        worst = max(worst, prev - value)
        prev = value
    return _result("avg_transmissions_limits", worst, 1e-12)


def check_scale_invariance(config: ScenarioConfig) -> CheckResult:
    """Joint scaling of both energy coefficients never moves any argmin.

    Scaling noise density, power cap, amplifier maximum and circuit power by
    a common factor multiplies every (A, B) pair by that factor while
    leaving the SNR window untouched, so the selected modulation and the
    optimal SNR must not move.
    """
    factor = 7.3
    worst = 0.0
    detail = ""
    for scheme, pa, link, n_p in _random_instances(config, 20, 20243):
        p_c = config.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(pa, scheme, link, p_c)
        w0 = waterfall_threshold(scheme, config.n_h + n_p)
        scaled = replace(
            coeffs,
            a_coeff=coeffs.a_coeff * factor,
            b_coeff=coeffs.b_coeff * factor,
        )
        if pa.variant is PaVariant.TPA:
            a = opt.optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p, config.n_h)
            b = opt.optimal_snr_tpa(scaled, w0, scheme.k_eff, n_p, config.n_h)
        else:
            a = opt.optimal_snr_quadratic(coeffs, w0, n_p, config.n_h)
            b = opt.optimal_snr_quadratic(scaled, w0, n_p, config.n_h)
        worst = max(worst, abs(a - b) / a)
    for variant, pa in config.pa_models.items():
        for d in (5.0, 20.0, 45.0):
            link = replace(config.link_template, distance_m=d)
            base = opt.joint_optimize(
                link, config.qos, pa, config.modulations, config.n_h,
                delta=config.delta, circuit_power=config.circuit_power,
            )
            scaled_link = replace(
                link, n0=link.n0 * factor, p0_w=link.p0_w * factor
            )
            scaled_pa = replace(pa, p_t_max=pa.p_t_max * factor)
            scaled_pc = {
                k: v * factor for k, v in config.circuit_power.items()
            }
            other = opt.joint_optimize(
                scaled_link, config.qos, scaled_pa, config.modulations,
                config.n_h, delta=config.delta, circuit_power=scaled_pc,
            )
            same = (
                base.feasible == other.feasible
                and (base.scheme.name if base.feasible else None)
                == (other.scheme.name if other.feasible else None)
            )
            if not same:
                worst = max(worst, 1.0)
                detail = f"selection moved at {variant.value}/d={d}"
    return _result("argmin_scale_invariance", worst, 1e-9, detail)


def check_multistart_agreement(config: ScenarioConfig) -> CheckResult:
    """Random payload initializations converge to one fixed point."""
    link = replace(config.link_template, distance_m=8.0)
    pa = config.pa_models[PaVariant.CPA]
    scheme = _scheme_like_16qam(config)
    p_c = config.circuit_power[scheme.circuit_power_class]
    qos = QosSpec(config.qos.target_per, config.qos.max_retransmissions)
    rng = random.Random(20244)
    energies = []
    for _ in range(10):
        point, reason = opt.solve_candidate(
            link, qos, pa, scheme, p_c, config.n_h,
            delta=config.delta, n_p_init=rng.uniform(1.0, 5000.0),
        )
        if point is None:
            return _result("multistart_agreement", math.inf, 1e-6, reason or "")
        energies.append(point.energy)
    spread = (max(energies) - min(energies)) / min(energies)
    return _result("multistart_agreement", spread, 1e-6)


def _conditioned_points(config: ScenarioConfig):
    for variant, pa in config.pa_models.items():
        for d in (5.0, 15.0, 25.0, 35.0, 45.0):
            link = replace(config.link_template, distance_m=d)
            point = opt.joint_optimize(
                link, config.qos, pa, config.modulations, config.n_h,
                delta=config.delta, circuit_power=config.circuit_power,
            )
            if point.feasible:
                yield variant, d, link, pa, point


def check_conditioning_snr_min(config: ScenarioConfig) -> CheckResult:
    """Where the reliability floor binds, the PER equals the bound exactly."""
    worst = 0.0
    where = ""
    for variant, d, link, pa, point in _conditioned_points(config):
        if point.binding is not opt.Binding.SNR_MIN_BOUND:
            continue
        qos_t = QosSpec(config.qos.target_per, point.tau_r)
        p = per_rayleigh(point.scheme, point.n_p + config.n_h, point.gamma_bar)
        rel = abs(p - qos_t.per_attempt_bound) / qos_t.per_attempt_bound
        if rel > worst:
            worst, where = rel, f"{variant.value}/d={d}"
    return _result("conditioning_snr_min", worst, 1e-9, where)


def check_conditioning_snr_max(config: ScenarioConfig) -> CheckResult:
    """Where the power cap binds, the transmit power equals the cap exactly.

    Payload-capped points sit on the reliability boundary of the floored
    payload ceiling, a granularity step below the cap, so they only need to
    respect the cap rather than meet it.
    """
    worst = 0.0
    where = ""
    for variant, d, link, pa, point in _conditioned_points(config):
        cap = min(link.p0_w, pa.p_t_max / point.scheme.papr)
        if point.binding is opt.Binding.SNR_MAX_BOUND:
            rel = abs(point.p_t - cap) / cap
        elif point.binding is opt.Binding.PAYLOAD_MAX_BOUND:
            rel = max(0.0, point.p_t - cap) / cap
        else:
            continue
        if rel > worst:
            worst, where = rel, f"{variant.value}/d={d}"
    return _result("conditioning_snr_max", worst, 1e-12, where)


def check_feasibility_prefix(config: ScenarioConfig) -> CheckResult:
    """Once a scheme goes infeasible with distance it stays infeasible."""
    distances = [float(d) for d in range(2, 90, 2)]
    violations = 0
    for variant, pa in config.pa_models.items():
        for scheme in config.modulations:
            points = opt.sweep_distance(
                config.link_template, distances, config.qos, pa, (scheme,),
                config.n_h, delta=config.delta,
                circuit_power=config.circuit_power,
            )
            seen_infeasible = False
            for point in points:
                if not point.feasible:
                    seen_infeasible = True
                elif seen_infeasible:
                    violations += 1
    return _result("feasibility_prefix", float(violations), 0.0)


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


def run_all_checks(config: ScenarioConfig) -> list[CheckResult]:
    """Run every oracle cross-check against the given scenario."""
    return [check(config) for check in ALL_CHECKS]


def write_per_error_table(config: ScenarioConfig, path: str) -> None:
    """CSV of PER relative-error curves for 16QAM at three packet sizes.

    Columns: packet size, SNR, and the relative errors of the closed-form
    approximation and of the numeric-threshold bound against the exact
    Rayleigh-average PER.
    """
    scheme = _scheme_like_16qam(config)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["modulation", "n_bits", "snr_db", "re_closed_pct", "re_bound_pct"]
        )
        for n in ERROR_TABLE_SIZES:
            w_closed = waterfall_threshold(scheme, n)
            w_num = waterfall_threshold_numeric(
                scheme, n, config.quad_epsrel, config.quad_epsabs
            )
            for snr_db in range(10, 41):
                g = 10.0 ** (snr_db / 10.0)
                exact = per_rayleigh_exact(
                    scheme, n, g, config.quad_epsrel, config.quad_epsabs
                )
                re_closed = 100.0 * abs(-math.expm1(-w_closed / g) - exact) / exact
                re_bound = 100.0 * abs(-math.expm1(-w_num / g) - exact) / exact
                writer.writerow(
                    [
                        scheme.name,
                        n,
                        snr_db,
                        f"{re_closed:.10g}",
                        f"{re_bound:.10g}",
                    ]
                )
