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
:mod:`linkopt.oracles` confirms.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .energy import (
    EnergyCoefficients,
    LinkBudget,
    PaModel,
    PaVariant,
    a_coeff_at,
    check_coefficients,
    coefficient_law,
    energy_per_bit,
    pa_power,
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


def snr_cap_law(
    link: LinkBudget, scheme: ModulationScheme, pa: PaModel
) -> tuple[float, float]:
    """``(cap, B n0)``: the maximum achievable average SNR on ``link``'s
    budget at path gain ``g_d`` is ``cap / (B n0 g_d)`` (:func:`_snr_cap`).

    The effective power cap is ``min(p0, p_t_max / papr)``: the regulatory
    limit and the amplifier peak-power headroom for the active waveform.
    """
    return min(link.p0_w, pa.p_t_max / scheme.papr), link.bandwidth_hz * link.n0


def _snr_cap(law: tuple[float, float], g_d: float) -> float:
    """:func:`snr_cap_law`'s ``law`` at path gain ``g_d``; ValueError with a
    candidate table's reason where ``B n0 g_d`` underflows to 0."""
    b_n0_g_d = law[1] * g_d
    if b_n0_g_d == 0.0:
        raise ValueError(_SNR_CAP_OUT_OF_RANGE("B n0 g_d"))
    return law[0] / b_n0_g_d


def snr_max(link: LinkBudget, scheme: ModulationScheme, pa: PaModel) -> float:
    """Maximum achievable average SNR under the transmit-power limits:
    :func:`_snr_cap` at the link's path gain."""
    return _snr_cap(snr_cap_law(link, scheme, pa), link.gain_at(link.distance_m))


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

    Exactly one of ``point`` (a feasible operating point) and ``rejection``
    (why the candidate was rejected) is set.  A rejection is kept as data, a
    finished string (the rare reasons of a payload map or a solve) or a
    callable and its arguments: a template's ``str.format``, or
    :func:`_bounded_whole`; :attr:`reason` renders its text.
    """

    scheme: ModulationScheme
    tau: int
    point: OperatingPoint | None
    rejection: tuple | str | None

    @property
    def reason(self) -> str | None:
        """``"{scheme}/tau={tau}: {why}"``, rendered on each access, or None
        for a feasible entry."""
        why = self.rejection
        if why.__class__ is tuple:
            why = why[0](*why[1:])
        return None if why is None else f"{self.scheme.name}/tau={self.tau}: {why}"


# Table entries are built as ``namedtuple._make`` builds them, skipping the
# generated Python-level ``__new__``.  ``tuple.__new__`` does not check the
# field count, so each call gives every field in order; TestTableEntries in
# tests/test_optimizer.py checks the entries.
_new = tuple.__new__


def _rejected(scheme: ModulationScheme, qos: QosSpec, rejection) -> Candidate:
    """The table entry of a rejected solve at ``qos``'s cap."""
    return _new(Candidate, (scheme, qos.max_retransmissions, None, rejection))


# The reasons of a set-up whose energy coefficients raise or fail their
# check, and whose SNR cap or its denominator underflows to 0.
_COEFFICIENTS_OUT_OF_RANGE = (
    "energy coefficients outside the range of a double ({})".format)
_SNR_CAP_OUT_OF_RANGE = (
    "SNR cap outside the range of a double ({} underflows to 0)".format)
# Templates of a cap with no payload meeting its PER bound at the SNR cap,
# and of a cap bounded out of a table (its energy floor, the best energy).
_NO_PAYLOAD = "no payload meets the PER bound at full power (snr_max={:.4g})".format
_BOUNDED_OUT = "bounded out: energy >= {:.4g}, best {:.4g}".format


def _scheme_law(
    link: LinkBudget, pa: PaModel, scheme: ModulationScheme, p_c: float
) -> tuple:
    """``(scheme, link, pa, coefficients, snr_cap)``: what the set-ups of one
    scheme share at every distance of ``link``'s budget, the distance-free
    factors of :func:`coefficient_law` and :func:`snr_cap_law` as numbers,
    or ``(scheme, reason)`` when its coefficients cannot be formed at all."""
    try:
        coefficients = coefficient_law(pa, scheme, link, p_c)
    except (ValueError, ArithmeticError) as exc:
        return scheme, _COEFFICIENTS_OUT_OF_RANGE(exc)
    return scheme, link, pa, coefficients, snr_cap_law(link, scheme, pa)


def _law_setup(
    law: tuple, g_d: float, n_h: int, top_spec: QosSpec | None = None
) -> list | tuple:
    """``[scheme, link, g_d, pa, n_h, ceiling, gamma_cap, a, b, coeffs,
    step]``: what every solve of one scheme at path gain ``g_d`` shares and
    no retransmission cap changes, :func:`a_coeff_at` and :func:`_snr_cap`
    of a :func:`_scheme_law` there, with the payload ceiling at ``top_spec``
    (None without one).  The :class:`EnergyCoefficients` of ``a`` and ``b``
    and their payload map are None until :func:`_solve_candidate` first
    needs them, and are kept here for the scheme's other caps.  Or
    ``(scheme, rejection)`` when the coefficients (checked first), the SNR
    cap or its denominator ``B n0 g_d`` leave the doubles, or when no
    payload meets ``top_spec``'s bound at the SNR cap."""
    if len(law) == 2:
        return law
    scheme, link, pa, coefficients, cap_law = law
    b = coefficients[2]
    try:
        a = a_coeff_at(coefficients, g_d)
        check_coefficients(a, b)
    except (ValueError, ArithmeticError) as exc:
        return scheme, _COEFFICIENTS_OUT_OF_RANGE(exc)
    try:
        gamma_cap = _snr_cap(cap_law, g_d)
    except ValueError as exc:
        return scheme, str(exc)
    if gamma_cap == 0.0:
        return scheme, _SNR_CAP_OUT_OF_RANGE("snr_max")
    ceiling = None if top_spec is None else payload_max(
        scheme, n_h, gamma_cap, top_spec)
    if ceiling is not None and ceiling < 1:
        return scheme, (_NO_PAYLOAD, gamma_cap)
    return [scheme, link, g_d, pa, n_h, ceiling, gamma_cap, a, b, None, None]


def _root_floor(c: float) -> float:
    """A lower bound within 0.3 % on the root ``x > 1`` of ``x - log x = c``:
    Chatzigeorgiou's ``1 + sqrt(2u) + 2u/3``, ``u = c - 1 > 0`` (IEEE Commun.
    Lett. 17(8), 2013), then two steps ``x <- c + log x``, a map that rises
    in ``x`` and fixes the root, so each step stays below it."""
    u = c - 1.0
    return c + math.log(c + math.log(1.0 + math.sqrt(2.0 * u) + u / 1.5))


def _floor_terms(setup: list, log_n_h: float) -> tuple[float, float]:
    """``(g(w1), k)`` of :func:`_energy_floor`, which neither the distance
    nor the cap changes, given ``log_n_h = log(n_h)``."""
    scheme, n_h, tpa = setup[0], setup[4], setup[3].variant is PaVariant.TPA
    w1 = (math.log(max(1.0, (n_h + 1) * scheme.c_eff)) + EULER_GAMMA) / scheme.k_eff
    t = 0.5 + math.log(2.0) if tpa else 1.0  # n_h / s - log(n_h / s)
    c = log_n_h + scheme.log_c_eff + EULER_GAMMA + t
    x = _root_floor(c) if c > t else 0.0
    if tpa:
        return math.sqrt(w1), x and x / math.sqrt((x - 0.5) * scheme.k_eff)
    return w1, x / scheme.k_eff


def _energy_floor(setup: list, qos: QosSpec, ceiling: int, terms: tuple) -> float:
    """A lower bound on the energy of every point a solve of ``setup`` at
    ``qos`` can report, given its payload ceiling ``ceiling`` (>= 1) and
    :func:`_floor_terms`: ``a max((n_h + ceiling) / ceiling g(w1), k) /
    g(lk) + b``, ``lk = -log_keep``, ``g`` the identity for CPA and ETPA and
    ``sqrt`` for TPA.  It falls as the cap grows.

    Such a point (a solve's last step at ``n_p`` in [1, ceiling], or a
    smaller cap's interior point, with a lower ceiling and a higher floor)
    has ``c_eff N > 1`` at ``N = n_h + n_p``, an SNR (capped or not: a floor
    above the cap is rejected) of at least ``w(N) / (k_eff lk)``, ``w(N) =
    log(c_eff N) + EULER_GAMMA``, and one transmission or more, so ``E >= a
    f + b``, ``f = N / n_p g(w(N) / (k_eff lk))``.  Decoupled: ``N / n_p >=
    (n_h + ceiling) / ceiling``, ``w(N) >= k_eff w1 = w(n_h + 1)``, ``log``
    taken as at least 0.  Coupled: with ``s = n_h`` (CPA, ETPA) or ``2 n_h``
    (TPA), ``d log f / dN`` has the sign of ``N - n_h - s w(N) = s (x - log
    x - C)``, ``x = N / s``, ``C = t + w(n_h)``, ``t = n_h / s - log(n_h /
    s)``.  Where ``w(n_h) > 0`` (else ``k = 0``), ``x - log x < C`` on ``n_h
    / s < x < x2``, the root above 1, and ``>`` beyond, so on ``N > n_h``
    ``f`` is least at ``x2``: ``x2 / (k_eff lk)`` or ``x2 / sqrt((x2 - 1/2)
    k_eff lk)`` (TPA), rising with ``x2``; ``k`` takes :func:`_root_floor`."""
    lk = -qos.log_keep
    if setup[3].variant is PaVariant.TPA:
        lk = math.sqrt(lk)
    term, k = (setup[4] + ceiling) / ceiling * terms[0], terms[1]
    return setup[7] * (term if term > k else k) / lk + setup[8]


def _bounded_whole(setup: list, spec: QosSpec, terms: tuple, best: float) -> str:
    """The reason of cap ``spec`` of a scheme bounded out whole against the
    best energy ``best``, worked out when it is read: that of its solve
    where the cap carries no payload at full power, else bounded out at its
    own :func:`_energy_floor`."""
    ceiling = payload_max(setup[0], setup[4], setup[6], spec)
    if ceiling < 1:
        return _NO_PAYLOAD(setup[6])
    return _BOUNDED_OUT(_energy_floor(setup, spec, ceiling, terms), best)


def _solve_candidate(
    setup: tuple, qos: QosSpec, delta: float, n_p_init: float,
    ceiling: int | None = None,
) -> tuple[Candidate, float, bool]:
    """Alternating SNR/payload optimization for one (modulation, QoS) pair
    on the scheme's :func:`_law_setup`: the fixed point of the payload
    map, capped at the largest payload the link carries at full power.

    The iteration runs from ``n_p_init`` (lowered to that cap), taking a
    secant step on ``map(n) - n`` through its last two evaluations while the
    steps contract and a plain step otherwise, until a step moves the
    payload by at most ``delta`` relative, within ``MAX_ITER`` map
    evaluations (read when called); one more step at the floored payload
    gives the point's SNR, binding and payload optimum.  ``ceiling`` is the
    payload ceiling at ``qos`` when the caller has it.  ``n_p_init == 0``
    starts cold, at ten headers (interior optima scale with the header),
    raised where needed to one bit past the edge of the waterfall regime,
    ``c_eff N = 1``, so that no solve starts below it.
    Returns ``(candidate, n_p, interior)``: the table entry, a rejection
    when the set-up was rejected or the candidate is infeasible, leaves the
    range of a double or fails to converge; the converged payload, 0.0
    without convergence; and whether neither the floor nor the ceiling
    bound the last loop evaluation or the integer step.
    """
    if len(setup) == 2:
        return _rejected(setup[0], qos, setup[1]), 0.0, False
    scheme, link, g_d, pa, n_h, _, gamma_cap, a, b, coeffs, step = setup
    if ceiling is None:
        ceiling = payload_max(scheme, n_h, gamma_cap, qos)
    if ceiling < 1:
        return _rejected(scheme, qos, (_NO_PAYLOAD, gamma_cap)), 0.0, False
    if step is None:
        coeffs = setup[9] = EnergyCoefficients(a, b, pa.variant)
        step = setup[10] = payload_map(coeffs, scheme, n_h, gamma_cap)

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
    if n_p == 0.0:
        n_p = max(10.0 * n_h, 1.0 / scheme.c_eff + 1.0 - n_h)
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
            return _rejected(scheme, qos, result), 0.0, False
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
        )), 0.0, False

    interior = result[1] is not Binding.SNR_MIN_BOUND
    # Freeze the payload to bits (n_p is in [1, ceiling]) and take one more
    # pass at the integer point.
    n_p_int = math.floor(n_p)
    result = step(n_p_int, log_keep)
    if result.__class__ is str:
        return _rejected(scheme, qos, result), n_p, False
    selected, binding, wanted = result
    if n_p_int >= ceiling and wanted > cap:
        binding = Binding.PAYLOAD_MAX_BOUND
    tau = qos.max_retransmissions
    # energy.transmit_power's expression, at the set-up's path gain.
    p_t = selected * link.bandwidth_hz * link.n0 * g_d
    try:
        p_pa = pa_power(pa, scheme, p_t)
    except ValueError as exc:
        # p_t <= the cap in exact arithmetic, so only a product that leaves
        # the doubles (say gamma * B = inf) gets here.
        return _rejected(scheme, qos, (
            f"transmit power outside the range of a double ({exc})")), n_p, False
    return _new(Candidate, (scheme, tau, _new(OperatingPoint, (
        scheme, selected, n_p_int, tau,
        energy_per_bit(coeffs, scheme, n_p_int, n_h, selected, qos), p_t,
        p_pa, True, binding, (),
    )), None)), n_p, interior and (
        binding is Binding.UNCONSTRAINED or binding is Binding.SNR_MAX_BOUND)


def best_point(candidates: Iterable[Candidate]) -> OperatingPoint | None:
    """Lowest-energy feasible point of a candidate table, in table order, or
    None when nothing is feasible; no reason is rendered.

    A later candidate replaces the best so far only when its energy is lower
    by more than 1e-9 relative, so ties keep the earlier entry.
    """
    best: OperatingPoint | None = None
    for candidate in candidates:
        point = candidate.point
        if point is not None and (
                best is None or point.energy < best.energy * (1.0 - 1e-9)):
            best = point
    return best


def select_best(candidates: Iterable[Candidate]) -> OperatingPoint:
    """:func:`best_point`, or when nothing is feasible a marker carrying
    the rendered reason of each candidate, the only reasons it renders."""
    table = list(candidates)
    best = best_point(table)
    if best is None:
        return OperatingPoint(*[None] * 7, False, Binding.INFEASIBLE,
                              tuple(c.reason for c in table))
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
    ``link``'s distance for ``pa``, with the candidates that cannot win
    bounded out (``keep_best_of=()``): the feasible (modulation, tau) pair
    with the lowest truncated-retransmission energy, ties within 1e-9
    relative going to the lower modulation order, then the smaller cap, or
    a marker with one reason per rejected candidate.
    """
    [(_, _, table)] = candidate_tables(
        link, (link.distance_m,), qos, (pa,), modulation_set, n_h,
        delta=delta, circuit_power=circuit_power, keep_best_of=(),
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
    keep_best_of: Iterable[ModulationScheme] | None = None,
) -> Iterator[tuple[float, PaModel, list[Candidate]]]:
    """Yield ``(distance, pa, table)``, distance-major, amplifiers in the
    given order: the one builder of candidate tables.

    A table holds one :class:`Candidate` per (modulation, tau) pair, by
    ascending modulation order, then name, then cap (caps 1 to
    ``max_retransmissions``, or 0 alone); :func:`select_best` relies on that
    order for ties.  The inputs are checked once, when the first table is
    asked for; a distance <= 0 raises ValueError when the sweep reaches it.
    A distance enters only through its path gain ``link_template.gain_at(d)``,
    at which each (amplifier, scheme)'s :func:`_scheme_law`, built once per
    call, is evaluated by :func:`_law_setup`; a rejected set-up rejects
    every cap without a map or a solve, and a scheme's first solve builds
    the map its other caps reuse.  A reader that renders no
    :attr:`Candidate.reason` formats no text.  The map depends on the cap
    only through the SNR floor, which falls as the cap grows, and the
    payload ceiling, which rises; so once a cap's solve is ``interior``
    (:func:`_solve_candidate`), each larger cap shares its point, with
    ``tau`` and the energy at its own ``QosSpec``.  A candidate starts at
    its converged (or shared) payload from the previous distance, else
    cold; where each candidate has one fixed point, as
    ``check_multistart_agreement`` checks, a sweep's tables equal the
    single-distance tables (``tests/test_solver_reference.py``).

    With ``keep_best_of`` None every table is whole.  Otherwise a table
    serves only :func:`best_point` of it and of each scheme in
    ``keep_best_of``, which is solved whole, and first (branch and bound):
    the other schemes go in ascending order of their smallest
    :func:`_energy_floor`, that of the largest cap (whose spec is ``qos``),
    and caps in ascending order.  A cap of another scheme whose floor
    exceeds the lowest energy so far by more than 1e-3 relative is not
    solved: its entry is the rejection ``bounded out: energy >= X, best
    Y``, and its sweep start is kept.  When the smallest floor does, so does
    every cap's, and the scheme is bounded out whole with no ceiling or
    floor per cap: :func:`_bounded_whole` works out each reason when it is
    read.  Nothing is bounded out before an entry is feasible, and a NaN
    floor bounds out nothing.  The pick cannot change: the L energies of a
    table leave empty some band one factor ``(1 - 1e-9)^-1`` wide between
    the lowest, E, and ``E (1 - 1e-9)^-(L + 1) < E (1 + 1e-3)`` (L <
    900,000, pigeonhole); every entry below it beats every entry above it by
    more than the 1e-9 tie tolerance, and a bounded-out entry lies above it.
    """
    pas = tuple(pa_models)
    mods = sorted(modulation_set, key=lambda m: (m.bits_per_symbol, m.name))
    if not mods:
        raise ValueError("modulation_set must not be empty")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be > 0 and finite, got {delta}")
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    bounded = keep_best_of is not None
    keep_best_of = tuple(keep_best_of or ())
    whole = [not bounded or m in keep_best_of for m in mods]
    log_n_h = math.log(n_h)
    # Cap 0 too would select the same point at all 237 default sweep points.
    top = qos.max_retransmissions
    caps = [(QosSpec(qos.target_per, tau), tau) for tau in range(min(top, 1), top)]
    caps.append((qos, top))
    n_caps = len(caps)
    laws = [[_scheme_law(link_template, pa, scheme,
                         circuit_power[scheme.circuit_power_class])
             for scheme in mods] for pa in pas]
    terms = [[None] * len(mods) for _ in pas]  # _floor_terms, on first use
    # The converged payload of each table entry of each amplifier at the
    # previous distance, in table order; 0.0 (no convergence, or no previous
    # distance) marks no start.
    starts = [[0.0] * (len(mods) * n_caps) for _ in pas]
    for d in distances:
        if d <= 0.0:
            raise ValueError(f"distances must be positive, got {d}")
        g_d = link_template.gain_at(d)
        for pa, pa_laws, pa_starts, pa_terms in zip(pas, laws, starts, terms):
            # The payload ceiling grows with the cap, so the largest cap's
            # ceiling decides whether any cap of a scheme carries a payload.
            setups = [_law_setup(law, g_d, n_h, qos) for law in pa_laws]
            order = range(len(setups))
            if bounded:
                floors = [-math.inf if w else 0.0 for w in whole]
                for i, s in enumerate(setups):
                    if len(s) > 2 and not whole[i]:
                        t = pa_terms[i] = pa_terms[i] or _floor_terms(s, log_n_h)
                        floors[i] = _energy_floor(s, qos, s[5], t)
                order = sorted(order, key=floors.__getitem__)
            table = [None] * len(pa_starts)
            best = math.inf
            for i in order:
                setup = setups[i]
                k = i * n_caps
                if len(setup) == 2:
                    scheme, rejection = setup
                    for _, tau in caps:
                        table[k] = _new(Candidate, (scheme, tau, None, rejection))
                        pa_starts[k] = 0.0
                        k += 1
                    continue
                scheme, gamma_cap = setup[0], setup[6]
                if not whole[i] and floors[i] > best * (1.0 + 1e-3):
                    for spec, tau in caps:
                        table[k] = _new(Candidate, (scheme, tau, None, (
                            _bounded_whole, setup, spec, pa_terms[i], best)))
                        k += 1
                    continue
                shared = False
                for spec, tau in caps:
                    if shared:
                        point = candidate.point
                        candidate = _new(Candidate, (scheme, tau, point._replace(
                            tau_r=tau, energy=energy_per_bit(
                                setup[9], scheme, point.n_p, n_h,
                                point.gamma_bar, spec)), None))
                    else:
                        ceiling = setup[5] if spec is qos else payload_max(
                            scheme, n_h, gamma_cap, spec)
                        if not whole[i] and ceiling >= 1:
                            bound = _energy_floor(setup, spec, ceiling, pa_terms[i])
                            if bound > best * (1.0 + 1e-3):
                                table[k] = _new(Candidate, (
                                    scheme, tau, None, (_BOUNDED_OUT, bound, best)))
                                k += 1
                                continue
                        candidate, n_p, shared = _solve_candidate(
                            setup, spec, delta, pa_starts[k], ceiling
                        )
                    pa_starts[k] = n_p
                    table[k] = candidate
                    k += 1
                    point = candidate.point
                    if point is not None and point.energy < best:
                        best = point.energy
            yield d, pa, table
