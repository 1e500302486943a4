"""Energy-optimal link parameters under reliability and power constraints.

Closed-form unconstrained optima for the average SNR (quadratic root for
CPA/ETPA; for TPA the positive root of a depressed cubic, taken in
trigonometric or Cardano form and polished by one Newton step), closed-form
and numeric payload optima, SNR conditioning against the reliability floor
and the transmit-power ceiling, and the joint search over modulation order
and retransmission cap that alternates the SNR and payload updates to a
fixed point.  The solver path uses only the standard library.

Sign conventions: the cubic solved for the TPA optimum is written against the
scaled threshold ``k_eff * w0`` (the threshold with its decay constant
multiplied back in); with that convention its root is the exact stationary
point of the TPA energy curve, which the golden-section oracle confirms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .energy import (
    EnergyCoefficients,
    LinkBudget,
    PaModel,
    PaVariant,
    avg_transmissions,
    e0,
    energy_coefficients,
    pa_power,
    path_gain,
    transmit_power,
)
from .errors import DegeneratePayloadError
from .per import (
    EULER_GAMMA,
    CircuitClass,
    ModulationScheme,
    QosSpec,
    payload_max,
    per_rayleigh,
    snr_min,
    waterfall_threshold,
)

# Table defaults for combined TX+RX circuit power, watts.
DEFAULT_CIRCUIT_POWER: Mapping[CircuitClass, float] = {
    CircuitClass.MQAM: 0.310,
    CircuitClass.MFSK: 0.265,
}

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _exp_or_inf(x: float) -> float:
    """exp(x) saturating to +inf instead of raising on overflow."""
    if x > 700.0:
        return math.inf
    return math.exp(x)


class Binding(Enum):
    """Which constraint pinned the operating point."""

    UNCONSTRAINED = "unconstrained"
    SNR_MIN_BOUND = "snr_min"
    SNR_MAX_BOUND = "snr_max"
    PAYLOAD_MAX_BOUND = "payload_max"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class OperatingPoint:
    """A solved link configuration, or an infeasibility marker.

    For infeasible results ``feasible`` is False, ``binding`` is
    ``Binding.INFEASIBLE``, the numeric fields are None and
    ``failure_reasons`` lists one diagnostic per rejected candidate.
    """

    scheme: ModulationScheme | None
    gamma_bar: float | None
    n_p: int | None
    tau_r: int | None
    energy: float | None
    p_t: float | None
    p_pa: float | None
    feasible: bool
    binding: Binding
    failure_reasons: tuple[str, ...] = ()


def snr_max(
    link: LinkBudget, scheme: ModulationScheme, pa: PaModel | None = None
) -> float:
    """Maximum achievable average SNR under the transmit-power limits.

    The effective power cap is ``min(p0, p_t_max / papr)``: the regulatory
    limit and the amplifier peak-power headroom for the active waveform.
    Without a PA model only the regulatory limit applies.
    """
    cap = link.p0_w
    if pa is not None:
        cap = min(cap, pa.p_t_max / scheme.papr)
    return cap / (link.bandwidth_hz * link.n0 * path_gain(link))


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Argmin of a unimodal scalar function by golden-section search.

    Returns a point within absolute distance `tol` of the minimizer; when
    the minimum sits on the bracket edge the edge itself is returned.
    Raises ValueError on bracket inconsistency: a non-finite comparison or a
    search that stalls in the interior above both endpoint values, either of
    which means the function was not unimodal on [lo, hi].
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    y_lo, y_hi = f(lo), f(hi)
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        if math.isnan(yc) or math.isnan(yd):
            raise ValueError(
                f"golden section saw a non-finite value near [{a:.6g}, {b:.6g}]"
            )
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = f(d)
    x, y = (c, yc) if yc < yd else (d, yd)
    best_y, best_x = min((y, x), (y_lo, lo), (y_hi, hi), key=lambda t: t[0])
    if best_y < y and a - lo > tol and hi - b > tol:
        raise ValueError(
            f"golden section stalled at f({x:.6g}) = {y:.6g}, above both "
            f"endpoints; function does not look unimodal on [{lo:.6g}, {hi:.6g}]"
        )
    return best_x


def golden_section_min_relative(
    f: Callable[[float], float], lo: float, hi: float, rel_tol: float
) -> float:
    """Golden-section argmin to a relative tolerance via log reparameterization.

    Searching over ln(x) makes the absolute tolerance of the inner search a
    relative tolerance on x and keeps a positive unimodal problem unimodal,
    so wide brackets spanning many decades stay cheap.
    """
    if lo <= 0.0:
        raise ValueError(f"need lo > 0 for relative search, got {lo}")
    u = golden_section_min(
        lambda t: f(math.exp(t)), math.log(lo), math.log(hi), rel_tol
    )
    return math.exp(u)


def optimal_snr_quadratic(
    coeffs: EnergyCoefficients, omega0: float, n_p: float, n_h: int
) -> float:
    """Unconstrained energy-optimal SNR for CPA or ETPA coefficients.

    Positive root of the stationarity quadratic of the unbounded-
    retransmission energy curve; always at or above the waterfall threshold.
    """
    if coeffs.pa_variant is PaVariant.TPA:
        raise ValueError("quadratic SNR optimum applies to CPA/ETPA only")
    rho = n_p / (n_h + n_p) if n_p > 0 else 0.0
    ratio = coeffs.b_coeff / coeffs.a_coeff
    return omega0 / 2.0 + math.sqrt(omega0 * (omega0 / 4.0 + ratio * rho))


def _tpa_cubic(
    coeffs: EnergyCoefficients, omega0: float, k_eff: float, n_p: float, n_h: int
) -> tuple[float, float]:
    """Monic coefficients (p, q) of the TPA stationarity cubic in sqrt(SNR).

    The cubic ``A k_eff x^3 - 2 A w x - 2 w B rho = 0`` with the scaled
    threshold ``w = k_eff * omega0`` reduces to ``x^3 + p x + q = 0``.
    """
    rho = n_p / (n_h + n_p) if n_p > 0 else 0.0
    b = coeffs.b_coeff / coeffs.a_coeff * rho
    return -2.0 * omega0, -2.0 * omega0 * b


def _depressed_cubic_root(p: float, q: float) -> float:
    """Positive root of ``x^3 + p x + q = 0`` for ``p < 0`` and ``q <= 0``.

    With three real roots (``(q/2)^2 + (p/3)^3 <= 0``) the largest is the
    trigonometric one; otherwise Cardano's real root is written as
    ``u - p / (3 u)`` with ``u = cbrt(-q/2 + sqrt(disc))``, a sum of two
    non-negative terms, so nothing cancels (Numerical Recipes, section 5.6).
    One Newton step then polishes the root to the last bits.  The positive
    root is simple and well conditioned for these signs.

    Raises:
        ArithmeticError: when the polished residual exceeds 1e-12 of the
            size of the cubic's terms.
    """
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    if disc <= 0.0:
        r = math.sqrt(-p / 3.0)
        cos3t = min(max(-0.5 * q / (r * r * r), -1.0), 1.0)
        x = 2.0 * r * math.cos(math.acos(cos3t) / 3.0)
    else:
        u = (-0.5 * q + math.sqrt(disc)) ** (1.0 / 3.0)
        x = u - p / (3.0 * u)
    x -= (x * (x * x + p) + q) / (3.0 * x * x + p)
    scale = abs(x) ** 3 + abs(p * x) + abs(q)
    residual = abs(x * (x * x + p) + q)
    if residual > 1e-12 * scale:
        raise ArithmeticError(
            f"TPA cubic residual {residual:.3g} above 1e-12 * scale {scale:.3g}"
        )
    return x


def optimal_snr_tpa(
    coeffs: EnergyCoefficients,
    omega0: float,
    k_eff: float,
    n_p: float,
    n_h: int,
) -> float:
    """Unconstrained energy-optimal SNR for TPA coefficients.

    The stationarity condition is a depressed cubic in sqrt(SNR) with
    exactly one positive root, solved in closed form by
    :func:`_depressed_cubic_root`.
    """
    if coeffs.pa_variant is not PaVariant.TPA:
        raise ValueError("cubic SNR optimum applies to TPA coefficients only")
    p, q = _tpa_cubic(coeffs, omega0, k_eff, n_p, n_h)
    x = _depressed_cubic_root(p, q)
    return x * x


def constrain_snr(
    gamma_star: float, gamma_min: float, gamma_max: float
) -> tuple[float | None, Binding]:
    """Condition an unconstrained optimum against the SNR window.

    Returns the selected SNR and which constraint (if any) is binding;
    ``(None, Binding.INFEASIBLE)`` when the window is empty.  Infeasibility
    is a value here, not an error.
    """
    if gamma_min <= 0.0 or gamma_max <= 0.0:
        raise ValueError("gamma_min and gamma_max must be > 0")
    if gamma_min > gamma_max:
        return None, Binding.INFEASIBLE
    if gamma_star < gamma_min:
        return gamma_min, Binding.SNR_MIN_BOUND
    if gamma_star > gamma_max:
        return gamma_max, Binding.SNR_MAX_BOUND
    return gamma_star, Binding.UNCONSTRAINED


def _payload_continuous_quadratic(
    coeffs: EnergyCoefficients, scheme: ModulationScheme, n_h: int, gamma_bar: float
) -> float:
    """Real-valued payload stationary point for CPA/ETPA coefficients."""
    k = scheme.k_eff
    g = gamma_bar
    ratio = coeffs.b_coeff / coeffs.a_coeff
    radicand = k * k * g * g + 2.0 * k * g + 4.0 * ratio * k + 1.0
    return n_h * g * ((k * g - 1.0) + math.sqrt(radicand)) / (2.0 * (g + ratio))


def _payload_continuous_tpa(
    coeffs: EnergyCoefficients, scheme: ModulationScheme, n_h: int, gamma_bar: float
) -> float:
    """Real-valued payload stationary point for TPA coefficients."""
    k = scheme.k_eff
    g = gamma_bar
    a, b = coeffs.a_coeff, coeffs.b_coeff
    sq = math.sqrt(g)
    radicand = a * a * g * (k * g - 1.0) ** 2 + 4.0 * a * k * g * sq * (a * sq + b)
    return (
        n_h
        * (a * sq * (k * g - 1.0) + math.sqrt(radicand))
        / (2.0 * (a * sq + b))
    )


def optimal_payload_quadratic(
    coeffs: EnergyCoefficients, scheme: ModulationScheme, n_h: int, gamma_bar: float
) -> int:
    """Unconstrained energy-optimal payload for CPA/ETPA at fixed SNR.

    Positive root of the payload stationarity quadratic, floored to an
    integer bit count.
    """
    if coeffs.pa_variant is PaVariant.TPA:
        raise ValueError("quadratic payload optimum applies to CPA/ETPA only")
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    value = math.floor(_payload_continuous_quadratic(coeffs, scheme, n_h, gamma_bar))
    if value < 1:
        raise DegeneratePayloadError(
            f"optimal payload degenerate ({value} bits) at gamma_bar={gamma_bar:.4g}"
        )
    return value


def _packet_energy_unbounded(
    coeffs: EnergyCoefficients,
    scheme: ModulationScheme,
    n_h: int,
    gamma_bar: float,
    n_p: float,
) -> float:
    """Unbounded-retransmission energy per bit at a real-valued payload."""
    n = n_h + n_p
    w0 = (math.log(n * scheme.c_eff) + EULER_GAMMA) / scheme.k_eff
    overhead = n / n_p
    if coeffs.pa_variant is PaVariant.TPA:
        attempt = overhead * coeffs.a_coeff * math.sqrt(gamma_bar) + coeffs.b_coeff
    else:
        attempt = overhead * coeffs.a_coeff * gamma_bar + coeffs.b_coeff
    return _exp_or_inf(w0 / gamma_bar) * attempt


def optimal_payload_tpa(
    coeffs: EnergyCoefficients,
    scheme: ModulationScheme,
    n_h: int,
    gamma_bar: float,
    n_p_hi: float | None = None,
) -> int:
    """Energy-optimal payload for TPA at fixed SNR, by direct minimization.

    Golden-section search over the real-valued payload is the authoritative
    route here; the legacy radical expression
    (:func:`tpa_payload_diagnostic`) is self-referential and kept only as a
    diagnostic.  The search bracket grows until the energy curve turns
    upward, then the result is floored.
    """
    if coeffs.pa_variant is not PaVariant.TPA:
        raise ValueError("TPA payload optimum needs TPA coefficients")
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    f = lambda n_p: _packet_energy_unbounded(coeffs, scheme, n_h, gamma_bar, n_p)
    if n_p_hi is None:
        n_p_hi = 16.0
        while f(n_p_hi) <= f(n_p_hi / 2.0) and n_p_hi < 1e12:
            n_p_hi *= 2.0
    if n_p_hi <= 1.0:
        raise DegeneratePayloadError(
            f"empty payload interval [1, {n_p_hi:.4g}] at gamma_bar={gamma_bar:.4g}"
        )
    value = math.floor(golden_section_min(f, 1.0, n_p_hi, 1e-3))
    if value < 1:
        raise DegeneratePayloadError(
            f"optimal payload degenerate at gamma_bar={gamma_bar:.4g}"
        )
    # Integer argmin: unimodality makes the better floor neighbour optimal.
    if f(value + 1) < f(value):
        value += 1
    return value


def tpa_payload_diagnostic(
    coeffs: EnergyCoefficients,
    scheme: ModulationScheme,
    n_h: int,
    gamma_bar: float,
    n_p: float,
) -> float:
    """Literal legacy radical for the TPA payload optimum.

    The published expression references the payload on both sides, so it can
    only be evaluated at a trial ``n_p``; flipping the sign of its
    ``n_p^2`` term and evaluating at ``n_h`` reproduces the true stationary
    point (see :func:`_payload_continuous_tpa`).  Kept for diagnostics only.
    """
    k = scheme.k_eff
    g = gamma_bar
    a, b = coeffs.a_coeff, coeffs.b_coeff
    if g <= (b / a) ** 2:
        raise ValueError(
            f"diagnostic requires gamma_bar > (B/A)^2 = {(b / a) ** 2:.4g}"
        )
    sq = math.sqrt(g)
    kappa = a * k * g * g - b * k * g * sq - a * g + b * sq
    radicand = (
        4.0 * a * k * n_h * n_h * g * (a * g - b * sq) * (g - (b / a) ** 2)
        - n_p * n_p * kappa * kappa
    )
    if radicand < 0.0:
        raise ValueError("negative radicand in legacy payload expression")
    return (n_h * kappa + math.sqrt(radicand)) / (2.0 * a * (g - (b / a) ** 2))


def solve_candidate(
    link: LinkBudget,
    qos: QosSpec,
    pa: PaModel,
    scheme: ModulationScheme,
    p_c: float,
    n_h: int,
    delta: float = 1e-6,
    n_p_init: float = 0.0,
    max_iter: int = 100,
) -> tuple[OperatingPoint | None, str | None]:
    """Alternating SNR/payload optimization for one (modulation, QoS) pair.

    Runs the fixed-point iteration: unconstrained optimal SNR at the current
    payload, conditioning against the reliability floor and power ceiling,
    then the optimal payload at the conditioned SNR, capped at the largest
    payload the link can carry at full power.  The payload stays real-valued
    during the iteration and is floored once at convergence.

    Returns ``(point, None)`` on success or ``(None, reason)`` when the
    candidate is infeasible or the iteration fails to converge.
    """
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    coeffs = energy_coefficients(pa, scheme, link, p_c)
    return _solve_candidate(
        link, qos, pa, scheme, coeffs, snr_max(link, scheme, pa), n_h,
        delta, n_p_init, max_iter,
    )


def _solve_candidate(
    link: LinkBudget,
    qos: QosSpec,
    pa: PaModel,
    scheme: ModulationScheme,
    coeffs: EnergyCoefficients,
    gamma_cap: float,
    n_h: int,
    delta: float,
    n_p_init: float,
    max_iter: int,
) -> tuple[OperatingPoint | None, str | None]:
    """:func:`solve_candidate` given the scheme's coefficients and SNR cap.

    Neither ``coeffs`` nor ``gamma_cap`` depends on the retransmission cap,
    so :func:`candidate_table` works them out once per scheme.

    The fixed-point loop writes the waterfall threshold, the quadratic SNR
    optimum, the TPA cubic's coefficients and both payload optima inline.
    Each expression keeps the operands and evaluation order of its public
    counterpart (:func:`~linkopt.per.waterfall_threshold`,
    :func:`optimal_snr_quadratic`, :func:`_tpa_cubic`,
    :func:`_payload_continuous_quadratic`, :func:`_payload_continuous_tpa`),
    so every iterate is bit-identical to theirs; the per-step call overhead
    is what is saved.  Those functions remain the reference implementations:
    the oracle battery checks them, and a test pins this loop to a solver
    written with them.  The step after convergence runs once and calls them.
    """
    ceiling = payload_max(scheme, n_h, gamma_cap, qos)
    if ceiling < 1:
        return None, (
            f"{scheme.name}/tau={qos.max_retransmissions}: no payload meets the "
            f"PER bound at full power (snr_max={gamma_cap:.4g})"
        )
    if gamma_cap <= 0.0:
        raise ValueError("gamma_min and gamma_max must be > 0")

    c_eff = scheme.c_eff
    k_eff = scheme.k_eff
    a = coeffs.a_coeff
    b = coeffs.b_coeff
    ratio = b / a
    log_keep = math.log1p(-qos.per_attempt_bound)
    tpa = coeffs.pa_variant is PaVariant.TPA
    cap = float(ceiling)
    log, sqrt = math.log, math.sqrt

    n_p = float(n_p_init)
    gamma_prev: float | None = None
    g: float | None = None
    converged = False
    for _ in range(max_iter):
        n_bits = n_h + n_p
        n_c = n_bits * c_eff
        if n_c <= 1.0:
            # c_eff <= 1, so every packet shorter than one bit lands here.
            if n_bits < 1:
                raise ValueError(f"n_bits must be >= 1, got {n_bits}")
            return None, (
                f"{scheme.name}/tau={qos.max_retransmissions}: packet of "
                f"{n_bits:.0f} bits below the waterfall regime"
            )
        w0 = (log(n_c) + EULER_GAMMA) / k_eff
        rho = n_p / n_bits if n_p > 0 else 0.0
        if tpa:
            p = -2.0 * w0
            x = _depressed_cubic_root(p, p * (ratio * rho))
            gamma_star = x * x
        else:
            gamma_star = w0 / 2.0 + sqrt(w0 * (w0 / 4.0 + ratio * rho))
        gamma_floor = -w0 / log_keep
        if gamma_floor <= 0.0:
            raise ValueError("gamma_min and gamma_max must be > 0")
        if gamma_floor > gamma_cap:
            return None, (
                f"{scheme.name}/tau={qos.max_retransmissions}: snr_min "
                f"{gamma_floor:.4g} exceeds snr_max {gamma_cap:.4g} "
                f"at N={n_bits:.0f}"
            )
        if gamma_star < gamma_floor:
            g = gamma_floor
        elif gamma_star > gamma_cap:
            g = gamma_cap
        else:
            g = gamma_star
        if tpa:
            sq = sqrt(g)
            kg1 = k_eff * g - 1.0
            a_sq_b = a * sq + b
            radicand = a * a * g * kg1 ** 2 + 4.0 * a * k_eff * g * sq * a_sq_b
            wanted = n_h * (a * sq * kg1 + sqrt(radicand)) / (2.0 * a_sq_b)
        else:
            radicand = (
                k_eff * k_eff * g * g + 2.0 * k_eff * g + 4.0 * ratio * k_eff + 1.0
            )
            wanted = (
                n_h * g * ((k_eff * g - 1.0) + sqrt(radicand)) / (2.0 * (g + ratio))
            )
        n_p = min(max(wanted, 1.0), cap)
        if gamma_prev is not None and abs(g - gamma_prev) <= delta:
            converged = True
            break
        gamma_prev = g
    if not converged:
        residual = (
            abs(g - gamma_prev)
            if g is not None and gamma_prev is not None
            else math.inf
        )
        return None, (
            f"{scheme.name}/tau={qos.max_retransmissions}: no convergence "
            f"within {max_iter} iterations (last residual {residual:.3g})"
        )

    # Freeze the payload to bits and re-condition once at the integer point.
    n_p_int = max(1, min(math.floor(n_p), ceiling))
    n_bits = n_h + n_p_int
    w0 = waterfall_threshold(scheme, n_bits)
    if tpa:
        gamma_star = optimal_snr_tpa(coeffs, w0, k_eff, n_p_int, n_h)
        payload_optimum = _payload_continuous_tpa
    else:
        gamma_star = optimal_snr_quadratic(coeffs, w0, n_p_int, n_h)
        payload_optimum = _payload_continuous_quadratic
    gamma_floor = snr_min(scheme, n_h, n_p_int, qos)
    selected, binding = constrain_snr(gamma_star, gamma_floor, gamma_cap)
    if selected is None:
        return None, (
            f"{scheme.name}/tau={qos.max_retransmissions}: infeasible after "
            f"payload flooring"
        )
    wanted = payload_optimum(coeffs, scheme, n_h, selected)
    if n_p_int >= ceiling and wanted > cap:
        binding = Binding.PAYLOAD_MAX_BOUND
    p = per_rayleigh(scheme, n_bits, selected)
    energy = avg_transmissions(p, qos.max_retransmissions) * e0(
        coeffs, n_p_int, n_h, selected
    )
    p_t = transmit_power(selected, link)
    point = OperatingPoint(
        scheme=scheme,
        gamma_bar=selected,
        n_p=n_p_int,
        tau_r=qos.max_retransmissions,
        energy=energy,
        p_t=p_t,
        p_pa=pa_power(pa, scheme, p_t),
        feasible=True,
        binding=binding,
    )
    return point, None


def _tau_candidates(qos: QosSpec) -> Sequence[int]:
    if qos.max_retransmissions < 1:
        return (0,)
    return range(1, qos.max_retransmissions + 1)


class Candidate(NamedTuple):
    """One (modulation, retransmission cap) entry of the candidate table.

    Exactly one of ``point`` (a feasible operating point) and ``reason``
    (why the candidate was rejected) is set.
    """

    scheme: ModulationScheme
    tau: int
    point: OperatingPoint | None
    reason: str | None


def candidate_table(
    link: LinkBudget,
    qos: QosSpec,
    pa: PaModel,
    modulation_set: Iterable[ModulationScheme],
    n_h: int,
    delta: float = 1e-6,
    circuit_power: Mapping[CircuitClass, float] | None = None,
) -> list[Candidate]:
    """Solve every (modulation, tau) pair of the joint search once.

    Modulations are visited by ascending order, then name, and caps in
    ascending order; :func:`select_best` relies on that order for ties.
    Each pair gets the same result as :func:`solve_candidate` with its
    defaults; the energy coefficients and the SNR cap are worked out once
    per modulation and the QoS spec once per cap.
    """
    mods = sorted(modulation_set, key=lambda m: (m.bits_per_symbol, m.name))
    if not mods:
        raise ValueError("modulation_set must not be empty")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    p_c_map = DEFAULT_CIRCUIT_POWER if circuit_power is None else circuit_power
    specs = [QosSpec(qos.target_per, tau) for tau in _tau_candidates(qos)]
    table = []
    for scheme in mods:
        coeffs = energy_coefficients(
            pa, scheme, link, p_c_map[scheme.circuit_power_class]
        )
        gamma_cap = snr_max(link, scheme, pa)
        for spec in specs:
            point, reason = _solve_candidate(
                link, spec, pa, scheme, coeffs, gamma_cap, n_h, delta,
                n_p_init=0.0, max_iter=100,
            )
            table.append(Candidate(scheme, spec.max_retransmissions, point, reason))
    return table


def select_best(candidates: Iterable[Candidate]) -> OperatingPoint:
    """Lowest-energy feasible point of a candidate table, in table order.

    A later candidate replaces the best so far only when its energy is lower
    by more than 1e-9 relative, so ties keep the earlier entry.  When nothing
    is feasible the returned marker carries one reason per candidate.
    """
    best: OperatingPoint | None = None
    reasons: list[str] = []
    for candidate in candidates:
        point = candidate.point
        if point is None:
            reasons.append(candidate.reason)
        elif best is None or point.energy < best.energy * (1.0 - 1e-9):
            best = point
    if best is None:
        return OperatingPoint(
            scheme=None,
            gamma_bar=None,
            n_p=None,
            tau_r=None,
            energy=None,
            p_t=None,
            p_pa=None,
            feasible=False,
            binding=Binding.INFEASIBLE,
            failure_reasons=tuple(reasons),
        )
    return best


def joint_optimize(
    link: LinkBudget,
    qos: QosSpec,
    pa: PaModel,
    modulation_set: Iterable[ModulationScheme],
    n_h: int,
    delta: float = 1e-6,
    circuit_power: Mapping[CircuitClass, float] | None = None,
) -> OperatingPoint:
    """Exhaustive search over modulations and retransmission caps.

    Every (modulation, tau) pair runs the alternating fixed-point solver;
    the feasible point with the lowest truncated-retransmission energy wins.
    Ties within 1e-9 relative prefer the lower modulation order, then the
    smaller retransmission cap.  When nothing is feasible the returned
    marker carries one reason per rejected candidate.
    """
    return select_best(candidate_table(
        link, qos, pa, modulation_set, n_h, delta=delta,
        circuit_power=circuit_power,
    ))


def sweep_distance(
    link_template: LinkBudget,
    distances: Sequence[float],
    qos: QosSpec,
    pa: PaModel,
    modulation_set: Iterable[ModulationScheme],
    n_h: int,
    delta: float = 1e-6,
    circuit_power: Mapping[CircuitClass, float] | None = None,
) -> list[OperatingPoint]:
    """Joint optimization at each distance; infeasible points are values.

    Order-preserving and deterministic: each distance is solved
    independently of every other, so results do not depend on evaluation
    order.
    """
    mods = tuple(modulation_set)
    points = []
    for d in distances:
        if d <= 0.0:
            raise ValueError(f"distances must be positive, got {d}")
        link = replace(link_template, distance_m=d)
        points.append(
            joint_optimize(
                link, qos, pa, mods, n_h, delta=delta, circuit_power=circuit_power
            )
        )
    return points
