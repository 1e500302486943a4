"""The solver's fixed-point loop against a reference built from the closed forms.

``optimizer._solve_candidate`` writes the waterfall threshold, the SNR optima
and the payload optima inline, and accelerates the payload iteration with
Steffensen's method.  ``reference_map`` below is one evaluation of the same
payload map written with the public closed forms, and
``reference_solve_candidate`` iterates it plainly.

- Every map evaluation of the solver is pinned bit for bit to
  ``reference_map``: a line tracer reads the iterate, the conditioned SNR and
  the next payload of each pass.
- The reference loop is the outcome oracle: where both converge, the two
  must return the same ``(point, reason)`` or raise the same error.  A
  rejection inside the loop quotes the packet size of the iterate it came
  at, which the two iterations need not share.
- ``candidate_table`` starts each retransmission cap at the previous cap's
  payload; every entry must equal a cold ``solve_candidate``.
"""

import inspect
import math
import re
import sys
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt import optimizer
from linkopt.config import parse_config
from linkopt.energy import (
    PaVariant,
    avg_transmissions,
    e0,
    energy_coefficients,
    pa_power,
    transmit_power,
)
from linkopt.errors import OutOfRegimeError
from linkopt.optimizer import (
    Binding,
    OperatingPoint,
    _payload_continuous_quadratic,
    _payload_continuous_tpa,
    candidate_table,
    constrain_snr,
    optimal_snr_quadratic,
    optimal_snr_tpa,
    snr_max,
    solve_candidate,
)
from linkopt.per import QosSpec, payload_max, per_rayleigh, snr_min, waterfall_threshold

# The plain iteration converges linearly; give it room to reach the same
# relative tolerance the accelerated solver stops at.
REFERENCE_MAX_ITER = 2000


def reference_map(coeffs, scheme, qos, n_h, gamma_cap, cap, n_p):
    """One payload-map evaluation with one public closed form per step.

    Returns ``(conditioned SNR, next payload)``, or the rejection text
    (without its ``scheme/tau`` prefix) when the map rejects ``n_p``.
    """
    n_bits = n_h + n_p
    try:
        w0 = waterfall_threshold(scheme, n_bits)
    except OutOfRegimeError:
        return f"packet of {n_bits:.0f} bits below the waterfall regime"
    if coeffs.pa_variant is PaVariant.TPA:
        gamma_star = optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p, n_h)
        payload_optimum = _payload_continuous_tpa
    else:
        gamma_star = optimal_snr_quadratic(coeffs, w0, n_p, n_h)
        payload_optimum = _payload_continuous_quadratic
    gamma_floor = -w0 / math.log1p(-qos.per_attempt_bound)
    if gamma_floor <= 0.0:
        raise ValueError("gamma_min and gamma_max must be > 0")
    if gamma_floor > gamma_cap:
        return (
            f"snr_min {gamma_floor:.4g} exceeds snr_max {gamma_cap:.4g} "
            f"at N={n_bits:.0f}"
        )
    if gamma_star < gamma_floor:
        gamma_req = gamma_floor
    elif gamma_star > gamma_cap:
        gamma_req = gamma_cap
    else:
        gamma_req = gamma_star
    return gamma_req, min(max(payload_optimum(coeffs, scheme, n_h, gamma_req),
                              1.0), cap)


def reference_solve_candidate(link, qos, pa, scheme, p_c, n_h, *, delta,
                              n_p_init=0.0, max_iter=REFERENCE_MAX_ITER):
    """The fixed-point solver as a plain iteration of :func:`reference_map`."""
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    coeffs = energy_coefficients(pa, scheme, link, p_c)
    gamma_cap = snr_max(link, scheme, pa)
    ceiling = payload_max(scheme, n_h, gamma_cap, qos)
    prefix = f"{scheme.name}/tau={qos.max_retransmissions}"
    if ceiling < 1:
        return None, (
            f"{prefix}: no payload meets the PER bound at full power "
            f"(snr_max={gamma_cap:.4g})"
        )
    if gamma_cap <= 0.0:
        raise ValueError("gamma_min and gamma_max must be > 0")
    cap = float(ceiling)

    n_p = min(float(n_p_init), cap)
    residual = math.inf
    for _ in range(max_iter):
        step = reference_map(coeffs, scheme, qos, n_h, gamma_cap, cap, n_p)
        if isinstance(step, str):
            return None, f"{prefix}: {step}"
        residual = abs(step[1] - n_p)
        n_p = step[1]
        if residual <= delta * max(1.0, n_p):
            break
    else:
        return None, (
            f"{prefix}: no convergence within {max_iter} iterations "
            f"(last residual {residual:.3g})"
        )

    n_p_int = max(1, min(math.floor(n_p), ceiling))
    n_bits = n_h + n_p_int
    w0 = waterfall_threshold(scheme, n_bits)
    if coeffs.pa_variant is PaVariant.TPA:
        gamma_star = optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p_int, n_h)
        payload_optimum = _payload_continuous_tpa
    else:
        gamma_star = optimal_snr_quadratic(coeffs, w0, n_p_int, n_h)
        payload_optimum = _payload_continuous_quadratic
    gamma_floor = snr_min(scheme, n_h, n_p_int, qos)
    selected, binding = constrain_snr(gamma_star, gamma_floor, gamma_cap)
    if selected is None:
        return None, f"{prefix}: infeasible after payload flooring"
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


def outcome(solve, *args, **kwargs):
    """The repr of a solver's result, or the type and text of its error.

    ``repr`` writes every float in round-trip form, so equal outcomes are
    equal to the last bit.
    """
    try:
        return repr(solve(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


def _probe_line():
    """Line of ``_solve_candidate`` reached once per completed map evaluation.

    When it runs, the locals ``n_p``, ``g`` and ``nxt`` hold the evaluated
    payload, the conditioned SNR and the map's value there.
    """
    lines, first = inspect.getsourcelines(optimizer._solve_candidate)
    [offset] = [i for i, line in enumerate(lines)
                if line.strip() == "residual = abs(nxt - n_p)"]
    return first + offset


PROBE_LINE = _probe_line()


def traced_evaluations(run):
    """``run()``'s result and the ``(n_p, g, nxt)`` of each map evaluation.

    A line tracer reads the locals of every ``_solve_candidate`` frame at
    :data:`PROBE_LINE`; ``coeffs``, ``scheme``, ``qos``, ``n_h``,
    ``gamma_cap`` and ``cap`` are read with them so that each evaluation
    can be replayed through :func:`reference_map`.
    """
    code = optimizer._solve_candidate.__code__
    evaluations = []

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno == PROBE_LINE:
            f = frame.f_locals
            evaluations.append((
                (f["coeffs"], f["scheme"], f["qos"], f["n_h"], f["gamma_cap"],
                 f["cap"]),
                f["n_p"], f["g"], f["nxt"],
            ))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, evaluations


def scenario(p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx,
             distance, variant):
    """Config, link and amplifier of one point query."""
    cfg = parse_config(
        f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
        f"bandwidth_khz = {bandwidth_khz!r}\n"
        f"[packet]\nn_h_bits = {n_h_bits}\n"
        f"[qos]\ntarget_per = {target_per!r}\n"
        f"max_retransmissions = {max_retx}\n"
    )
    return cfg, replace(cfg.link_template, distance_m=distance), cfg.pa_models[variant]


def table_of(cfg, link, pa):
    return candidate_table(
        link, cfg.qos, pa, cfg.modulations, cfg.n_h, delta=cfg.delta,
        circuit_power=cfg.circuit_power,
    )


def candidate_args(cfg, link, pa, scheme, tau):
    """Positional arguments of ``solve_candidate`` for one table entry."""
    return (link, QosSpec(cfg.qos.target_per, tau), pa, scheme,
            cfg.circuit_power[scheme.circuit_power_class], cfg.n_h)


def converged(text):
    return "no convergence" not in text


def without_iterate(text):
    """An outcome with the packet size of an in-loop rejection masked."""
    return re.sub(r"(packet of |at N=)\d+", r"\1N", text)


QUERY_SPACE = dict(
    p0_mw=st.floats(1.0, 100.0),
    kappa=st.floats(2.5, 4.0),
    bandwidth_khz=st.floats(3.0, 100.0),
    n_h_bits=st.integers(1, 128),
    target_per=st.floats(1e-4, 1e-2),
    max_retx=st.integers(0, 5),
    distance=st.floats(2.0, 80.0),
    variant=st.sampled_from(list(PaVariant)),
)


@settings(max_examples=100, deadline=None)
@given(**QUERY_SPACE, n_p_init=st.floats(-150.0, 1e4),
       max_iter=st.integers(0, 30))
# A TPA interior point, a header too short for the waterfall regime, a start
# below one bit, and a start above the payload ceiling.
@example(10.0, 3.5, 10.0, 48, 1e-3, 3, 10.0, PaVariant.TPA, 0.0, 12)
@example(10.0, 3.5, 10.0, 2, 1e-3, 2, 10.0, PaVariant.CPA, 0.0, 12)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 5.0, PaVariant.ETPA, -60.0, 12)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 20.0, PaVariant.CPA, 371.0, 30)
def test_inline_loop_matches_closed_form_reference(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx, distance,
        variant, n_p_init, max_iter):
    """Each pass of the loop is bit for bit one evaluation of the map."""
    cfg, link, pa = scenario(p0_mw, kappa, bandwidth_khz, n_h_bits,
                             target_per, max_retx, distance, variant)
    table, evaluations = traced_evaluations(lambda: table_of(cfg, link, pa))
    for scheme, tau, _, _ in table:
        _, more = traced_evaluations(lambda: outcome(
            solve_candidate, *candidate_args(cfg, link, pa, scheme, tau),
            delta=cfg.delta, n_p_init=n_p_init, max_iter=max_iter,
        ))
        evaluations += more
    for inputs, n_p, g, nxt in evaluations:
        assert repr(reference_map(*inputs, n_p)) == repr((g, nxt))


@settings(max_examples=100, deadline=None)
@given(**QUERY_SPACE, n_p_init=st.floats(-150.0, 1e4))
@example(10.0, 3.5, 10.0, 48, 1e-3, 3, 10.0, PaVariant.TPA, 0.0)
@example(10.0, 3.5, 10.0, 2, 1e-3, 2, 10.0, PaVariant.CPA, 0.0)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 5.0, PaVariant.ETPA, -60.0)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 20.0, PaVariant.CPA, 371.0)
@example(1.0, 3.0, 3.0, 1, 1e-4, 0, 2.0, PaVariant.CPA, 30.0)
def test_accelerated_loop_matches_plain_reference(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx, distance,
        variant, n_p_init):
    """Same ``(point, reason)`` as the plain iteration, from any start."""
    cfg, link, pa = scenario(p0_mw, kappa, bandwidth_khz, n_h_bits,
                             target_per, max_retx, distance, variant)
    for scheme, tau, point, reason in table_of(cfg, link, pa):
        args = candidate_args(cfg, link, pa, scheme, tau)
        got = repr((point, reason))
        expected = outcome(reference_solve_candidate, *args, delta=cfg.delta)
        if converged(expected) and converged(got):
            assert without_iterate(got) == without_iterate(expected)
        got = outcome(solve_candidate, *args, delta=cfg.delta, n_p_init=n_p_init)
        expected = outcome(reference_solve_candidate, *args, delta=cfg.delta,
                           n_p_init=n_p_init)
        if converged(expected) and converged(got):
            assert without_iterate(got) == without_iterate(expected)


@settings(max_examples=100, deadline=None)
@given(**QUERY_SPACE)
@example(10.0, 3.5, 10.0, 48, 1e-3, 3, 10.0, PaVariant.TPA)
@example(10.0, 3.5, 10.0, 48, 1e-3, 5, 20.0, PaVariant.CPA)
def test_warm_started_table_matches_cold_solves(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx, distance,
        variant):
    """Starting each cap at the previous cap's payload changes no entry."""
    cfg, link, pa = scenario(p0_mw, kappa, bandwidth_khz, n_h_bits,
                             target_per, max_retx, distance, variant)
    table = table_of(cfg, link, pa)
    assert len(table) == len(cfg.modulations) * max(max_retx, 1)
    for scheme, tau, point, reason in table:
        cold = solve_candidate(*candidate_args(cfg, link, pa, scheme, tau),
                               delta=cfg.delta, n_p_init=0.0)
        assert repr((point, reason)) == repr(cold)
