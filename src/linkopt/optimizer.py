"""Energy-optimal link parameters under reliability and power constraints.

Closed-form unconstrained optima for the average SNR (quadratic root for
CPA/ETPA; for TPA the positive root of a depressed cubic, taken in
trigonometric or Cardano form and polished by one Newton step), closed-form
payload optima, SNR conditioning against the reliability floor and the
transmit-power ceiling, and the joint search over modulation order and
retransmission cap that alternates the SNR and payload updates to a fixed
point, at one distance or swept over many.  The solver path uses only the
standard library.

Sign conventions: the cubic solved for the TPA optimum is written against the
scaled threshold ``k_eff * w0`` (the threshold with its decay constant
multiplied back in); with that convention its root is the exact stationary
point of the TPA energy curve, which the numeric oracle in
:mod:`linkopt.validation` confirms.
"""

from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .energy import (
    EnergyCoefficients,
    LinkBudget,
    PaModel,
    PaVariant,
    energy_coefficients,
    energy_per_bit,
    pa_power,
    transmit_power,
)
from .per import EULER_GAMMA, CircuitClass, ModulationScheme, QosSpec, payload_max

# Payload-map evaluations allowed per candidate before it is rejected.
MAX_ITER = 100


class Binding(Enum):
    """Which constraint pinned the operating point."""

    UNCONSTRAINED = "unconstrained"
    SNR_MIN_BOUND = "snr_min"
    SNR_MAX_BOUND = "snr_max"
    PAYLOAD_MAX_BOUND = "payload_max"
    INFEASIBLE = "infeasible"


class OperatingPoint(NamedTuple):
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


def snr_max(link: LinkBudget, scheme: ModulationScheme, pa: PaModel) -> float:
    """Maximum achievable average SNR under the transmit-power limits.

    The effective power cap is ``min(p0, p_t_max / papr)``: the regulatory
    limit and the amplifier peak-power headroom for the active waveform.
    """
    cap = min(link.p0_w, pa.p_t_max / scheme.papr)
    return cap / (link.bandwidth_hz * link.n0 * link.path_gain)


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


def payload_map(
    coeffs: EnergyCoefficients, scheme: ModulationScheme, n_h: int, gamma_cap: float
) -> Callable[[float, float], tuple[float, Binding, float] | str]:
    """One pass of the alternation for one scheme, as ``step(n_p, log_keep)``.

    ``log_keep`` is ``QosSpec.log_keep``, ``log1p(-per_attempt_bound)``,
    through which alone the retransmission cap enters.  ``step`` returns
    ``(gamma, binding, wanted)``: the unconstrained SNR optimum at payload
    ``n_p`` conditioned against the reliability floor and ``gamma_cap``, the
    constraint that bound it, and the real-valued payload optimum at that
    SNR.  When the map rejects ``n_p`` it returns the reason instead, which
    names no candidate.

    With ``w0`` the waterfall threshold at ``N = n_h + n_p`` bits and
    ``rho = n_p / N``, the SNR optimum is the positive root of
    ``g^2 - w0 g - w0 (b/a) rho = 0`` for CPA and ETPA, and the square of
    the positive root of ``x^3 - 2 w0 x - 2 w0 (b/a) rho = 0`` for TPA
    (:func:`_depressed_cubic_root`).  The payload optimum is the positive
    root of the payload stationarity condition of the unbounded-
    retransmission energy at the conditioned SNR.  These are the only copies
    of those closed forms: the solver iterates this map, and the oracle
    battery in :mod:`linkopt.validation` checks it.  With
    ``gamma_cap = math.inf`` and ``log_keep = -math.inf`` (no floor) the
    step returns the unconstrained SNR optimum.
    """
    c_eff = scheme.c_eff
    k_eff = scheme.k_eff
    a = coeffs.a_coeff
    b = coeffs.b_coeff
    ratio = b / a
    tpa = coeffs.pa_variant is PaVariant.TPA
    log, sqrt = math.log, math.sqrt

    def step(n_p: float, log_keep: float):
        n_bits = n_h + n_p
        n_c = n_bits * c_eff
        if n_c <= 1.0:
            # c_eff <= 1, so every packet shorter than one bit lands here.
            if n_bits < 1:
                raise ValueError(f"n_bits must be >= 1, got {n_bits}")
            return f"packet of {n_bits:.0f} bits below the waterfall regime"
        w0 = (log(n_c) + EULER_GAMMA) / k_eff
        rho = n_p / n_bits if n_p > 0 else 0.0
        if tpa:
            p = -2.0 * w0
            try:
                x = _depressed_cubic_root(p, p * (ratio * rho))
            except ArithmeticError as exc:  # overflow, underflow or a lost root
                return ("payload map outside the range of a double "
                        f"(the TPA cubic raised {type(exc).__name__})")
            gamma_star = x * x
        else:
            gamma_star = w0 / 2.0 + sqrt(w0 * (w0 / 4.0 + ratio * rho))
        # w0 >= EULER_GAMMA / k_eff > 0 and log_keep < 0, so the floor is > 0.
        gamma_floor = -w0 / log_keep
        if gamma_floor > gamma_cap:
            return (
                f"snr_min {gamma_floor:.4g} exceeds snr_max {gamma_cap:.4g} "
                f"at N={n_bits:.0f}"
            )
        if gamma_star < gamma_floor:
            g, binding = gamma_floor, Binding.SNR_MIN_BOUND
        elif gamma_star > gamma_cap:
            g, binding = gamma_cap, Binding.SNR_MAX_BOUND
        else:
            g, binding = gamma_star, Binding.UNCONSTRAINED
        if tpa:
            sq = sqrt(g)
            kg1 = k_eff * g - 1.0
            a_sq_b = a * sq + b
            radicand = a * a * g * kg1 ** 2 + 4.0 * a * k_eff * g * sq * a_sq_b
            return g, binding, n_h * (a * sq * kg1 + sqrt(radicand)) / (2.0 * a_sq_b)
        radicand = k_eff * k_eff * g * g + 2.0 * k_eff * g + 4.0 * ratio * k_eff + 1.0
        return g, binding, (
            n_h * g * ((k_eff * g - 1.0) + sqrt(radicand)) / (2.0 * (g + ratio))
        )

    return step


class Candidate(NamedTuple):
    """One (modulation, retransmission cap) entry of the candidate table.

    Exactly one of ``point`` (a feasible operating point) and ``reason``
    (why the candidate was rejected) is set.
    """

    scheme: ModulationScheme
    tau: int
    point: OperatingPoint | None
    reason: str | None


# Table entries are built as ``namedtuple._make`` builds them, skipping the
# generated Python-level ``__new__``.  ``tuple.__new__`` does not check the
# field count, so each call gives every field in order; TestTableEntries in
# tests/test_optimizer.py checks the entries.
_new = tuple.__new__


def _rejected(scheme: ModulationScheme, qos: QosSpec, reason: str) -> Candidate:
    """The table entry of a rejected candidate, its reason prefixed with the
    scheme and cap: every rejection of a solve is made here."""
    tau = qos.max_retransmissions
    reason = f"{scheme.name}/tau={tau}: {reason}"
    return _new(Candidate, (scheme, tau, None, reason))


def _scheme_setup(
    link: LinkBudget, pa: PaModel, scheme: ModulationScheme, p_c: float, n_h: int
) -> tuple:
    """``(scheme, link, pa, n_h, coeffs, gamma_cap, step)``: what every solve
    of one scheme shares and no retransmission cap changes, or ``(scheme,
    reason)`` when the coefficients or the SNR cap leave the doubles."""
    try:
        coeffs = energy_coefficients(pa, scheme, link, p_c)
    except (ValueError, ArithmeticError) as exc:
        return scheme, f"energy coefficients outside the range of a double ({exc})"
    gamma_cap = snr_max(link, scheme, pa)
    if gamma_cap == 0.0:
        return scheme, (
            "SNR cap outside the range of a double (snr_max underflows to 0)"
        )
    step = payload_map(coeffs, scheme, n_h, gamma_cap)
    return scheme, link, pa, n_h, coeffs, gamma_cap, step


def _solve_candidate(
    setup: tuple, qos: QosSpec, delta: float, n_p_init: float
) -> tuple[Candidate, float]:
    """Alternating SNR/payload optimization for one (modulation, QoS) pair
    on the scheme's :func:`_scheme_setup`: the fixed point of the payload
    map, capped at the largest payload the link carries at full power.

    The iteration runs from ``n_p_init`` (lowered to that cap), taking a
    secant step on ``map(n) - n`` through its last two evaluations while the
    steps contract and a plain step otherwise, until a step moves the
    payload by at most ``delta`` relative, within ``MAX_ITER`` map
    evaluations (read when called); one more step at the floored payload
    gives the point's SNR, binding and payload optimum.
    Returns ``(candidate, n_p)``: the table entry, a rejection when the set-up
    was rejected or the candidate is infeasible, leaves the range of a double
    or fails to converge, and the converged payload, 0.0 without convergence.
    """
    if len(setup) == 2:
        return _rejected(setup[0], qos, setup[1]), 0.0
    scheme, link, pa, n_h, coeffs, gamma_cap, step = setup
    ceiling = payload_max(scheme, n_h, gamma_cap, qos)
    if ceiling < 1:
        return _rejected(scheme, qos, "no payload meets the PER bound at full "
                         f"power (snr_max={gamma_cap:.4g})"), 0.0

    log_keep = qos.log_keep
    cap = float(ceiling)

    # The secant method on h(n) = map(n) - n, the map n_p -> n_p' (>= 1) of one
    # loop pass: after the first, each pass runs at the secant point of the
    # last two evaluations clamped to [1, ceiling], or at the last map value
    # (the plain iterate) if the steps grow or the map rejects that point.
    # After plain steps p0 -> p1 -> p2 the secant point is their Aitken point;
    # it is written from p0 so that it is Aitken's expression then.  The
    # clamps and distances are written as comparisons that give what
    # min/max/abs give for every float, nan included (max(nan, 1.0) is nan).
    n_p = float(n_p_init)
    if n_p > cap:
        n_p = cap
    last: float | None = None  # the previous evaluated payload
    last_move = 0.0  # and its step map(last) - last, clamped as nxt is
    fallback: float | None = None
    residual = math.inf
    for _ in range(MAX_ITER):
        result = step(n_p, log_keep)
        if result.__class__ is str:
            if fallback is not None:
                n_p, fallback = fallback, None
                continue
            return _rejected(scheme, qos, result), 0.0
        nxt = result[2]
        nxt = 1.0 if nxt < 1.0 else cap if nxt > cap else nxt
        move = nxt - n_p
        residual = move if move >= 0.0 else -move
        if residual <= delta * nxt:
            n_p = nxt
            break
        if last is not None and residual < (
            last_move if last_move >= 0.0 else -last_move
        ):
            # Contracting steps make the denominator non-zero and the point
            # finite; growing ones would extrapolate away from the root.
            secant = last - last_move * (n_p - last) / (move - last_move)
            secant = 1.0 if secant < 1.0 else cap if secant > cap else secant
            last, last_move, n_p, fallback = n_p, move, secant, nxt
        else:
            last, last_move, n_p, fallback = n_p, move, nxt, None
    else:
        # Finite inputs give nan only through an overflow to infinity.
        return _rejected(scheme, qos, (
            "payload map outside the range of a double (a step overflowed to "
            "an undefined value)" if math.isnan(residual) else
            f"no convergence within {MAX_ITER} iterations "
            f"(last residual {residual:.3g})"
        )), 0.0

    # Freeze the payload to bits (n_p is in [1, ceiling]) and take one more
    # pass at the integer point.
    n_p_int = math.floor(n_p)
    result = step(n_p_int, log_keep)
    if result.__class__ is str:
        return _rejected(scheme, qos, result), n_p
    selected, binding, wanted = result
    if n_p_int >= ceiling and wanted > cap:
        binding = Binding.PAYLOAD_MAX_BOUND
    tau = qos.max_retransmissions
    p_t = transmit_power(selected, link)
    return _new(Candidate, (scheme, tau, _new(OperatingPoint, (
        scheme, selected, n_p_int, tau,
        energy_per_bit(coeffs, scheme, n_p_int, n_h, selected, qos), p_t,
        pa_power(pa, scheme, p_t), True, binding, (),
    )), None)), n_p


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
    *,
    delta: float,
    circuit_power: Mapping[CircuitClass, float],
) -> OperatingPoint:
    """Exhaustive search over modulations and retransmission caps.

    :func:`select_best` of the one table :func:`candidate_tables` builds at
    ``link``'s distance for ``pa``: the feasible (modulation, tau) pair with
    the lowest truncated-retransmission energy, ties within 1e-9 relative
    going to the lower modulation order, then the smaller cap, or a marker
    with one reason per rejected candidate.
    """
    [(_, _, table)] = candidate_tables(
        link, (link.distance_m,), qos, (pa,), modulation_set, n_h,
        delta=delta, circuit_power=circuit_power,
    )
    return select_best(table)


def candidate_tables(
    link_template: LinkBudget,
    distances: Iterable[float],
    qos: QosSpec,
    pa_models: Iterable[PaModel],
    modulation_set: Iterable[ModulationScheme],
    n_h: int,
    *,
    delta: float,
    circuit_power: Mapping[CircuitClass, float],
) -> Iterator[tuple[float, PaModel, list[Candidate]]]:
    """Yield ``(distance, pa, table)``, distance-major, amplifiers in the
    given order: the one builder of candidate tables.

    A table holds one :class:`Candidate` per (modulation, tau) pair, by
    ascending modulation order, then name, then cap (caps 1 to
    ``max_retransmissions``, or 0 alone); :func:`select_best` relies on that
    order for ties.  The inputs are checked once, when the first table is
    asked for; a distance <= 0 raises ValueError when the sweep reaches it.
    :func:`_scheme_setup` runs once per scheme and table.  Each candidate's
    solve starts at its own converged payload from the previous distance of
    the sweep; without one (the first distance, or no convergence there), at
    the previous cap's converged payload at this distance, or 0: the map
    depends on the cap only through the SNR floor and the payload ceiling,
    which grows with the cap.  Where each candidate has one fixed point, as
    ``check_multistart_agreement`` checks, the start does not change the
    outcome, so no table depends on which distances are swept: a sweep's
    tables equal the single-distance tables, as the equality tests in
    ``tests/test_solver_reference.py`` check on the default grid, on random
    grids and across a distance where 16QAM/TPA has a second, unstable fixed
    point.
    """
    pas = tuple(pa_models)
    mods = sorted(modulation_set, key=lambda m: (m.bits_per_symbol, m.name))
    if not mods:
        raise ValueError("modulation_set must not be empty")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be > 0 and finite, got {delta}")
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    # Cap 0 too would select the same point at all 237 default sweep points.
    top = qos.max_retransmissions
    specs = [QosSpec(qos.target_per, tau) for tau in range(min(top, 1), top + 1)]
    # The converged payload of each table entry of each amplifier at the
    # previous distance, in yield order; 0.0 (no convergence, or no previous
    # distance) marks no start.
    starts = [0.0] * (len(pas) * len(mods) * len(specs))
    for d in distances:
        if d <= 0.0:
            raise ValueError(f"distances must be positive, got {d}")
        link = (link_template if d == link_template.distance_m
                else replace(link_template, distance_m=d))
        k = 0
        for pa in pas:
            table = []
            for scheme in mods:
                p_c = circuit_power[scheme.circuit_power_class]
                setup = _scheme_setup(link, pa, scheme, p_c, n_h)
                n_p = 0.0
                for spec in specs:
                    candidate, n_p = _solve_candidate(
                        setup, spec, delta, starts[k] or n_p
                    )
                    starts[k] = n_p
                    k += 1
                    table.append(candidate)
            yield d, pa, table
