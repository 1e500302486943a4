"""The solver's accelerated fixed-point loop against a plain iteration.

``optimizer._solve_candidate`` finds the fixed point of the payload map
``optimizer.payload_map`` with secant steps on ``map(n) - n`` while the
steps contract.
``reference_solve_candidate`` below iterates the same map plainly, and is
the outcome oracle: where both converge, the two must return the same
``(point, reason)`` or raise the same error.  A rejection inside the loop
quotes the packet size of the iterate it came at, which the two iterations
need not share.  ``candidate_tables`` starts each retransmission cap at the
previous cap's payload, and each candidate of a sweep at its payload from
the previous distance: every entry of a single-distance table must equal a
cold solve, and every table of a sweep must equal the single-distance table
at its distance, on the default grid, on random grids of random configs,
and across a distance where 16QAM/TPA has a second fixed point.
The closed forms inside the map are checked by the oracle battery in
``linkopt.validation``.
"""

import math
import re
from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt import optimizer
from linkopt.config import default_config, parse_config
from linkopt.energy import (
    PaVariant,
    avg_transmissions,
    e0,
    energy_coefficients,
    pa_power,
    transmit_power,
)
from linkopt.optimizer import (
    Binding,
    OperatingPoint,
    candidate_tables,
    payload_map,
    snr_max,
)
from linkopt.per import QosSpec, payload_max, per_rayleigh

# The plain iteration converges linearly; give it room to reach the same
# relative tolerance the accelerated solver stops at.
REFERENCE_MAX_ITER = 2000


def reference_solve_candidate(link, qos, pa, scheme, p_c, n_h, *, delta,
                              n_p_init=0.0, max_iter=REFERENCE_MAX_ITER):
    """The fixed-point solver as a plain iteration of the payload map."""
    if n_h < 1:
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    coeffs = energy_coefficients(pa, scheme, link, p_c)
    gamma_cap = snr_max(link, scheme, pa)
    step = payload_map(coeffs, scheme, n_h, gamma_cap)
    ceiling = payload_max(scheme, n_h, gamma_cap, qos)
    prefix = f"{scheme.name}/tau={qos.max_retransmissions}"
    if ceiling < 1:
        return None, (
            f"{prefix}: no payload meets the PER bound at full power "
            f"(snr_max={gamma_cap:.4g})"
        )
    cap = float(ceiling)
    log_keep = math.log1p(-qos.per_attempt_bound)

    n_p = min(float(n_p_init), cap)
    residual = math.inf
    for _ in range(max_iter):
        result = step(n_p, log_keep)
        if isinstance(result, str):
            return None, f"{prefix}: {result}"
        nxt = min(max(result[2], 1.0), cap)
        residual = abs(nxt - n_p)
        n_p = nxt
        if residual <= delta * max(1.0, n_p):
            break
    else:
        return None, (
            f"{prefix}: no convergence within {max_iter} iterations "
            f"(last residual {residual:.3g})"
        )

    n_p_int = max(1, min(math.floor(n_p), ceiling))
    result = step(n_p_int, log_keep)
    if isinstance(result, str):
        return None, f"{prefix}: {result}"
    selected, binding, wanted = result
    if n_p_int >= ceiling and wanted > cap:
        binding = Binding.PAYLOAD_MAX_BOUND
    p = per_rayleigh(scheme, n_h + n_p_int, selected)
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


def solve_one(link, qos, pa, scheme, p_c, n_h, *, delta, n_p_init=0.0):
    """``(point, reason)`` of ``optimizer._solve_candidate`` on the scheme's
    ``optimizer._scheme_setup``, the solve ``candidate_tables`` runs."""
    return optimizer._solve_candidate(
        optimizer._scheme_setup(link, pa, scheme, p_c, n_h), qos, delta,
        n_p_init)[0][2:]


def outcome(solve, *args, **kwargs):
    """The repr of a solver's result, or the type and text of its error.

    ``repr`` writes every float in round-trip form, so equal outcomes are
    equal to the last bit.
    """
    try:
        return repr(solve(*args, **kwargs))
    except (ValueError, ArithmeticError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


def query_config(p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx,
                 sweep=""):
    """The config of one query, with ``sweep`` appended to its INI text."""
    return parse_config(
        f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
        f"bandwidth_khz = {bandwidth_khz!r}\n"
        f"[packet]\nn_h_bits = {n_h_bits}\n"
        f"[qos]\ntarget_per = {target_per!r}\n"
        f"max_retransmissions = {max_retx}\n" + sweep
    )


def scenario(p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx,
             distance, variant):
    """Config, link and amplifier of one point query."""
    cfg = query_config(p0_mw, kappa, bandwidth_khz, n_h_bits, target_per,
                       max_retx)
    return cfg, replace(cfg.link_template, distance_m=distance), cfg.pa_models[variant]


def table_of(cfg, link, pa):
    [(_, _, table)] = candidate_tables(
        link, (link.distance_m,), cfg.qos, (pa,), cfg.modulations, cfg.n_h,
        delta=cfg.delta, circuit_power=cfg.circuit_power,
    )
    return table


def candidate_args(cfg, link, pa, scheme, tau):
    """Positional arguments of ``solve_one`` for one table entry."""
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
@given(**QUERY_SPACE, n_p_init=st.floats(-150.0, 1e4))
@example(10.0, 3.5, 10.0, 48, 1e-3, 3, 10.0, PaVariant.TPA, 0.0)
@example(10.0, 3.5, 10.0, 2, 1e-3, 2, 10.0, PaVariant.CPA, 0.0)
# Starts below, at and above 1 - n_h: a packet shorter than one bit, which
# the map rejects with an error, a one-bit packet below the waterfall regime,
# and a negative payload that solves.
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 5.0, PaVariant.ETPA, -60.0)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 5.0, PaVariant.ETPA, -47.0)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 5.0, PaVariant.ETPA, -5.0)
@example(10.0, 3.5, 10.0, 48, 1e-3, 1, 20.0, PaVariant.CPA, 371.0)
@example(1.0, 3.0, 3.0, 1, 1e-4, 0, 2.0, PaVariant.CPA, 30.0)
# Converges to a payload whose floor is below the waterfall regime.
@example(1.0, 3.0, 3.0, 3, 0.0078125, 0, 2.0, PaVariant.CPA, 2.0)
def test_accelerated_loop_matches_plain_reference(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx, distance,
        variant, n_p_init):
    """Same ``(point, reason)``, or the same error, as the plain iteration
    from any start."""
    cfg, link, pa = scenario(p0_mw, kappa, bandwidth_khz, n_h_bits,
                             target_per, max_retx, distance, variant)
    for scheme, tau, point, reason in table_of(cfg, link, pa):
        args = candidate_args(cfg, link, pa, scheme, tau)
        got = repr((point, reason))
        expected = outcome(reference_solve_candidate, *args, delta=cfg.delta)
        if converged(expected) and converged(got):
            assert without_iterate(got) == without_iterate(expected)
        got = outcome(solve_one, *args, delta=cfg.delta, n_p_init=n_p_init)
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
        cold = solve_one(*candidate_args(cfg, link, pa, scheme, tau),
                         delta=cfg.delta, n_p_init=0.0)
        assert repr((point, reason)) == repr(cold)


def assert_sweep_matches_point_tables(cfg, pas):
    """Every table of a sweep over ``cfg.distances()`` equals, candidate for
    candidate by ``repr``, the table a single-distance call builds there.
    Returns the number of tables compared."""
    compared = 0
    for d, pa, table in candidate_tables(
        cfg.link_template, cfg.distances(), cfg.qos, pas, cfg.modulations,
        cfg.n_h, delta=cfg.delta, circuit_power=cfg.circuit_power,
    ):
        point_table = table_of(cfg, replace(cfg.link_template, distance_m=d), pa)
        assert len(table) == len(point_table)
        for swept, single in zip(table, point_table):
            assert repr(swept) == repr(single), (d, pa.variant)
        compared += 1
    return compared


def test_default_sweep_tables_match_point_tables():
    """Starting each candidate at its payload from the previous distance
    changes no entry of the 237 default sweep tables."""
    cfg = default_config()
    assert assert_sweep_matches_point_tables(
        cfg, tuple(cfg.pa_models.values())) == 237


SWEEP_SPACE = {k: v for k, v in QUERY_SPACE.items() if k != "distance"}


@settings(max_examples=60, deadline=None)
@given(**SWEEP_SPACE, d_min=st.floats(2.0, 80.0), span=st.floats(0.0, 30.0),
       step=st.floats(0.25, 7.0))
@example(10.0, 3.5, 10.0, 48, 1e-3, 3, PaVariant.TPA, 2.0, 30.0, 0.5)
def test_swept_tables_match_point_tables(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx, variant,
        d_min, span, step):
    """The same on a random grid of a random query config."""
    cfg = query_config(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx,
        f"[sweep]\nd_min_m = {d_min!r}\nd_max_m = {d_min + span!r}\n"
        f"d_step_m = {step!r}\n",
    )
    assert assert_sweep_matches_point_tables(
        cfg, (cfg.pa_models[variant],)) == len(cfg.distances())


def test_sweep_across_a_second_fixed_point_matches_point_tables():
    """16QAM/TPA at this config has an unstable fixed point near 6 bits at
    73.125 m, from which a start at 6 bits drifts without converging.  A
    0.125 m sweep from 60 to 80 m passes that distance, and every table
    still equals the single-distance one."""
    cfg = query_config(
        1.0, 2.60546875, 3.0, 2, 0.003066017267510455, 2,
        "[sweep]\nd_min_m = 60.0\nd_max_m = 80.0\nd_step_m = 0.125\n",
    )
    assert 73.125 in cfg.distances()
    assert assert_sweep_matches_point_tables(
        cfg, (cfg.pa_models[PaVariant.TPA],)) == 161


def test_default_grid_builds_one_map_per_table_and_scheme():
    """A default sweep builds 1,422 maps (79 distances x 3 amplifiers x 6
    schemes)."""
    cfg = default_config()
    maps = []
    build = optimizer.payload_map

    def counting_map(*inputs):
        maps.append(inputs)
        return build(*inputs)

    with mock.patch.object(optimizer, "payload_map", counting_map):
        tables = list(optimizer.candidate_tables(
            cfg.link_template, cfg.distances(), cfg.qos,
            cfg.pa_models.values(), cfg.modulations, cfg.n_h,
            delta=cfg.delta, circuit_power=cfg.circuit_power,
        ))
    assert len(tables) == 79 * 3
    assert len(maps) == len(tables) * len(cfg.modulations) == 1422
