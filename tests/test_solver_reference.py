"""The solver's fixed-point loop against a reference built from the closed forms.

``optimizer._solve_candidate`` writes the waterfall threshold, the SNR optima
and the payload optima inline.  ``reference_solve_candidate`` below is the
same iteration written with the public closed forms, one call per step.  Both
must return the same ``(point, reason)`` bit for bit, or raise the same error,
and pass through the same payload and SNR iterates bit for bit.
"""

import math
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


def reference_solve_candidate(link, qos, pa, scheme, p_c, n_h, *, delta,
                              n_p_init=0.0, max_iter=100):
    """The fixed-point solver written with one public closed form per step."""
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    coeffs = energy_coefficients(pa, scheme, link, p_c)
    gamma_cap = snr_max(link, scheme, pa)
    ceiling = payload_max(scheme, n_h, gamma_cap, qos)
    if ceiling < 1:
        return None, (
            f"{scheme.name}/tau={qos.max_retransmissions}: no payload meets the "
            f"PER bound at full power (snr_max={gamma_cap:.4g})"
        )
    if gamma_cap <= 0.0:
        raise ValueError("gamma_min and gamma_max must be > 0")

    k_eff = scheme.k_eff
    log_keep = math.log1p(-qos.per_attempt_bound)
    tpa = coeffs.pa_variant is PaVariant.TPA
    payload_optimum = _payload_continuous_tpa if tpa else _payload_continuous_quadratic
    cap = float(ceiling)

    n_p = float(n_p_init)
    gamma_prev = None
    gamma_req = None
    residual = math.inf
    converged = False
    for _ in range(max_iter):
        n_bits = n_h + n_p
        try:
            w0 = waterfall_threshold(scheme, n_bits)
        except OutOfRegimeError:
            return None, (
                f"{scheme.name}/tau={qos.max_retransmissions}: packet of "
                f"{n_bits:.0f} bits below the waterfall regime"
            )
        if tpa:
            gamma_star = optimal_snr_tpa(coeffs, w0, k_eff, n_p, n_h)
        else:
            gamma_star = optimal_snr_quadratic(coeffs, w0, n_p, n_h)
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
            gamma_req = gamma_floor
        elif gamma_star > gamma_cap:
            gamma_req = gamma_cap
        else:
            gamma_req = gamma_star
        n_p = min(max(payload_optimum(coeffs, scheme, n_h, gamma_req), 1.0), cap)
        if gamma_prev is not None:
            residual = abs(gamma_req - gamma_prev)
            if residual <= delta:
                converged = True
                break
        gamma_prev = gamma_req
    if not converged:
        return None, (
            f"{scheme.name}/tau={qos.max_retransmissions}: no convergence "
            f"within {max_iter} iterations (last residual {residual:.3g})"
        )

    n_p_int = max(1, min(math.floor(n_p), ceiling))
    n_bits = n_h + n_p_int
    w0 = waterfall_threshold(scheme, n_bits)
    if tpa:
        gamma_star = optimal_snr_tpa(coeffs, w0, k_eff, n_p_int, n_h)
    else:
        gamma_star = optimal_snr_quadratic(coeffs, w0, n_p_int, n_h)
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


def outcome(solve, *args, **kwargs):
    """The repr of a solver's result, or the type and text of its error.

    ``repr`` writes every float in round-trip form, so equal outcomes are
    equal to the last bit.
    """
    try:
        return repr(solve(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


def traced_outcome(solve, code, names, *args, **kwargs):
    """:func:`outcome` and the successive values of two iterate variables.

    A line tracer reads the locals ``names`` (the payload and the conditioned
    SNR) of every frame running ``code`` and keeps each change of their
    pair.  The iterates the final floored payload hides show up here.
    """
    states = []

    def trace_lines(frame, event, arg):
        if event == "line":
            state = tuple(repr(frame.f_locals.get(name)) for name in names)
            if not states or states[-1] != state:
                states.append(state)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = outcome(solve, *args, **kwargs)
    finally:
        sys.settrace(previous)
    return result, states


@settings(max_examples=100, deadline=None)
@given(
    p0_mw=st.floats(1.0, 100.0),
    kappa=st.floats(2.5, 4.0),
    bandwidth_khz=st.floats(3.0, 100.0),
    n_h_bits=st.integers(1, 128),
    target_per=st.floats(1e-4, 1e-2),
    max_retx=st.integers(0, 5),
    distance=st.floats(2.0, 80.0),
    variant=st.sampled_from(list(PaVariant)),
    n_p_init=st.floats(-150.0, 1e4),
    max_iter=st.integers(0, 30),
)
# A TPA interior point, a header too short for the waterfall regime, and a
# start below one bit.
@example(10.0, 3.5, 10.0, 48, 1e-3, 3, 10.0, PaVariant.TPA, 0.0, 12)
@example(10.0, 3.5, 10.0, 2, 1e-3, 2, 10.0, PaVariant.CPA, 0.0, 12)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 5.0, PaVariant.ETPA, -60.0, 12)
def test_inline_loop_matches_closed_form_reference(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx, distance,
        variant, n_p_init, max_iter):
    cfg = parse_config(
        f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
        f"bandwidth_khz = {bandwidth_khz!r}\n"
        f"[packet]\nn_h_bits = {n_h_bits}\n"
        f"[qos]\ntarget_per = {target_per!r}\n"
        f"max_retransmissions = {max_retx}\n"
    )
    link = replace(cfg.link_template, distance_m=distance)
    pa = cfg.pa_models[variant]
    table = candidate_table(
        link, cfg.qos, pa, cfg.modulations, cfg.n_h, delta=cfg.delta,
        circuit_power=cfg.circuit_power,
    )
    assert len(table) == len(cfg.modulations) * max(max_retx, 1)
    for scheme, tau, point, reason in table:
        qos = QosSpec(cfg.qos.target_per, tau)
        p_c = cfg.circuit_power[scheme.circuit_power_class]
        args = (link, qos, pa, scheme, p_c, cfg.n_h)
        assert repr((point, reason)) == outcome(
            reference_solve_candidate, *args, delta=cfg.delta)
        kwargs = dict(delta=cfg.delta, n_p_init=n_p_init, max_iter=max_iter)
        assert traced_outcome(
            solve_candidate, optimizer._solve_candidate.__code__,
            ("n_p", "g"), *args, **kwargs,
        ) == traced_outcome(
            reference_solve_candidate, reference_solve_candidate.__code__,
            ("n_p", "gamma_req"), *args, **kwargs,
        )
