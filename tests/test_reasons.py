"""The rejection reasons of candidate tables, as a reader sees them.

A rejected entry keeps its reason as data and renders the text on access;
these tests pin the rendered text, byte for byte, to SHA-256 digests of the
text the solver wrote when it formatted every reason as it rejected.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt import cli, optimizer
from linkopt.config import default_config, parse_config
from linkopt.energy import PaVariant, energy_coefficients
from linkopt.errors import ConfigError
from linkopt.optimizer import candidate_tables, select_best, snr_max
from linkopt.per import payload_max

CFG = default_config()


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def rendered(tables):
    """One line per entry of ``tables``: its place and its rendered reason
    (``None`` for a feasible entry)."""
    return [f"{d!r} {pa.variant.value} {c.scheme.name} {c.tau} {c.reason}"
            for d, pa, table in tables for c in table]


def test_default_whole_tables():
    """Every entry of the 237 default whole tables."""
    lines = rendered(candidate_tables(
        CFG.link_template, CFG.distances(), CFG.qos, CFG.pa_models.values(),
        CFG.modulations, CFG.n_h, delta=CFG.delta,
        circuit_power=CFG.circuit_power,
    ))
    assert len(lines) == 4266
    assert digest(lines) == (
        "8736cff45eae58a077824f17fd529fbeb96ed09201827de6f6a4ba037aa0279b")


def test_default_sweep_tables():
    """The bounded tables the default ``sweep`` builds."""
    lines = rendered(cli._tables(CFG, list(PaVariant), CFG.distances(), ()))
    assert len(lines) == 4266
    assert digest(lines) == (
        "b50670fc34e8c16e97d44df2cc2c67f2d0f3922db42c6d5a178d23d632fc0f85")


def test_default_lifetime_tables():
    """The bounded tables the default ``lifetime`` builds, which solve the
    baseline whole and first."""
    lines = rendered(cli._tables(CFG, list(PaVariant), CFG.distances(),
                                 (CFG.baseline_scheme(),)))
    assert len(lines) == 4266
    assert digest(lines) == (
        "19ba4550e25384435adb6c9061ed91a89ed6be2a8f611c516744e312d6ceb68b")


def bounded_out_floor(rejection):
    """``(X, Y)`` of a bounded-out entry's ``rejection``, its energy floor
    and the best energy it was compared with, or None for another entry.
    A cap of a scheme bounded out whole defers its floor, at the cap's own
    payload ceiling, to when it is read; it has none where that ceiling is
    below one bit."""
    if rejection.__class__ is not tuple:
        return None
    if rejection[0] is optimizer._BOUNDED_OUT:
        return rejection[1:]
    if rejection[0] is not optimizer._bounded_whole:
        return None
    _, setup, spec, terms, best = rejection
    ceiling = payload_max(setup[0], setup[4], setup[6], spec)
    if ceiling < 1:
        return None
    return optimizer._energy_floor(setup, spec, ceiling, terms), best


def check_bounded_out(bounded, whole):
    """Each bounded-out entry of the tables ``bounded`` holds its energy
    floor X and the best energy Y it was compared with
    (:func:`bounded_out_floor`): X lies more than 1e-3 above Y, Y is the
    energy of a feasible entry of its table, and X is at most the energy of
    the entry in the matching whole table when that is feasible.  Returns
    how many entries were bounded out."""
    count = 0
    for (d, pa, table), (d_whole, pa_whole, entries) in zip(
            bounded, whole, strict=True):
        assert (d, pa) == (d_whole, pa_whole)
        energies = {c.point.energy for c in table if c.point is not None}
        for c, c_whole in zip(table, entries, strict=True):
            assert (c.scheme, c.tau) == (c_whole.scheme, c_whole.tau)
            floor_best = bounded_out_floor(c.rejection)
            if floor_best is None:
                continue
            count += 1
            floor, best = floor_best
            assert floor > best * (1.0 + 1e-3)
            assert best in energies
            if c_whole.point is not None:
                assert floor <= c_whole.point.energy
    return count


def test_bounded_out_entries_of_the_default_commands():
    """The bounded tables of the default ``sweep`` and ``lifetime``."""
    whole = list(cli._tables(CFG, list(PaVariant), CFG.distances(), None))
    counts = [check_bounded_out(
        cli._tables(CFG, list(PaVariant), CFG.distances(), keep_best_of),
        whole) for keep_best_of in ((), (CFG.baseline_scheme(),))]
    assert counts == [1397, 1276]


def test_optimize_stdout_of_an_infeasible_point(capsys):
    """``optimize --distance 500 --pa tpa``: nothing is feasible, and every
    candidate's reason is printed."""
    assert cli.main(["optimize", "--distance", "500", "--pa", "tpa"]) == (
        cli.EXIT_INFEASIBLE)
    out = capsys.readouterr().out
    assert out.count("\nreason: ") == 18
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ff620c0baf39ca37876c2463e70439baac458947e80739cee61a3f2b13aa8398")


def extreme_ini(rng):
    """A config far from the defaults, in which set-ups and solves reject
    candidates for every kind of reason: coefficients or an SNR cap outside
    the range of a double, no payload at full power, a packet below the
    waterfall regime, a payload map outside the range of a double, and
    bounded out."""
    return (
        f"[link]\np0_mw = {10 ** rng.uniform(-300, 3)!r}\n"
        f"kappa = {rng.uniform(1.0, 6.0)!r}\n"
        f"link_margin_db = {rng.uniform(-3000, 3000)!r}\n"
        f"noise_half_psd_dbm_hz = {rng.uniform(-3000, 3000)!r}\n"
        f"bandwidth_khz = {10 ** rng.uniform(-250, 250)!r}\n"
        f"[packet]\nn_h_bits = {rng.choice([1, 2, 8, 48, 500])}\n"
        f"[qos]\ntarget_per = {10 ** rng.uniform(-6, -0.5)!r}\n"
        f"max_retransmissions = {rng.randrange(0, 5)}\n"
        f"[circuit]\npc_mqam_mw = {10 ** rng.uniform(-300, 5)!r}\n"
        f"pc_mfsk_mw = {10 ** rng.uniform(-300, 5)!r}\n"
    )


def tables_of(cfg, distances, keep_best_of):
    """``cfg``'s candidate tables at ``distances``, for every amplifier."""
    return candidate_tables(
        cfg.link_template, distances, cfg.qos, cfg.pa_models.values(),
        cfg.modulations, cfg.n_h, delta=cfg.delta,
        circuit_power=cfg.circuit_power, keep_best_of=keep_best_of,
    )


def extreme_tables(cfg, distances):
    """``cfg``'s whole tables at ``distances``, then its tables bounded for
    selection, then those that solve the baseline whole and first."""
    for keep_best_of in (None, (), (cfg.baseline_scheme(),)):
        yield from tables_of(cfg, distances, keep_best_of)


def seeded_draws():
    """``(draw, cfg, distances)`` of each of 200 seeded draws of
    :func:`extreme_ini` that parses, with three distances from 1 mm to
    10 km."""
    rng = random.Random(30)
    for draw in range(200):
        try:
            cfg = parse_config(extreme_ini(rng))
        except ConfigError:
            continue
        yield draw, cfg, [10 ** rng.uniform(-3, 4) for _ in range(3)]


def test_seeded_extreme_configs():
    """The whole and both kinds of bounded tables of each
    :func:`seeded_draws` config (131 of which parse), as
    :func:`extreme_tables` orders them, and :func:`check_bounded_out` of
    the bounded ones."""
    lines, parsed, bounded_out = [], 0, 0
    for _, cfg, distances in seeded_draws():
        parsed += 1
        whole = list(tables_of(cfg, distances, None))
        lines += rendered(whole)
        for keep_best_of in ((), (cfg.baseline_scheme(),)):
            bounded = list(tables_of(cfg, distances, keep_best_of))
            lines += rendered(bounded)
            bounded_out += check_bounded_out(bounded, whole)
    assert (parsed, len(lines), bounded_out) == (131, 46170, 3106)
    text = "\n".join(lines)
    for fragment in ("energy coefficients outside", "SNR cap outside",
                     "no payload meets", "below the waterfall regime",
                     "payload map outside", "bounded out"):
        assert fragment in text
    assert digest(lines) == (
        "37d701f5cda95ba83fa544453feafd5f5fa44ca4b45ac31ad7863ff3e38c76dd")


def test_snr_cap_denominator_underflow_is_a_rejection():
    """Draw 61 of :func:`test_seeded_extreme_configs`: at 1.3 mm its
    ``B n0 g_d`` underflows to 0 while ``a_coeff`` does not, so the SNR cap
    divides by zero.  :func:`snr_max` raises ValueError with the reason,
    and where the coefficients pass (CPA and ETPA; TPA's ``a_coeff``
    divides by zero too), every scheme is rejected with it, in whole and
    bounded tables alike."""
    [(cfg, d)] = [(cfg, distances[2]) for draw, cfg, distances
                  in seeded_draws() if draw == 61]
    link = replace(cfg.link_template, distance_m=d)
    assert link.bandwidth_hz * link.n0 * link.gain_at(d) == 0.0
    for pa in cfg.pa_models.values():
        with pytest.raises(ValueError) as raised:
            snr_max(link, cfg.baseline_scheme(), pa)
        assert str(raised.value) == (
            "SNR cap outside the range of a double (B n0 g_d underflows to 0)")
    for keep_best_of in (None, (), (cfg.baseline_scheme(),)):
        for _, pa, table in tables_of(cfg, (d,), keep_best_of):
            reasons = {c.reason.split(": ", 1)[1] for c in table}
            assert reasons == {
                "energy coefficients outside the range of a double (float "
                "division by zero)"} if pa.variant is PaVariant.TPA else {
                "SNR cap outside the range of a double (B n0 g_d underflows "
                "to 0)"}


def set_up_text(cfg, d, pa, scheme):
    """The reason a set-up at distance ``d`` gives, computed from the public
    closed forms: coefficients outside the range of a double, else an SNR
    cap or its denominator ``B n0 g_d`` that underflows to 0, else no
    payload at full power."""
    link = replace(cfg.link_template, distance_m=d)
    try:
        energy_coefficients(pa, scheme, link,
                            cfg.circuit_power[scheme.circuit_power_class])
    except (ValueError, ArithmeticError) as exc:
        return f"energy coefficients outside the range of a double ({exc})"
    try:
        gamma_cap = snr_max(link, scheme, pa)
    except ValueError as exc:
        return str(exc)
    if gamma_cap == 0.0:
        return "SNR cap outside the range of a double (snr_max underflows to 0)"
    return f"no payload meets the PER bound at full power (snr_max={gamma_cap:.4g})"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=7)
def test_drawn_extreme_configs(seed):
    """On drawn extreme configs, each reason a set-up gives reads as the
    text formatted from the public closed forms at that distance, and an
    infeasible marker lists its table's reasons in table order."""
    rng = random.Random(seed)
    try:
        cfg = parse_config(extreme_ini(rng))
    except ConfigError:
        return
    distances = [10 ** rng.uniform(-3, 4) for _ in range(3)]
    for d, pa, table in extreme_tables(cfg, distances):
        rejected = [c for c in table if c.point is None]
        assert select_best(rejected).failure_reasons == tuple(
            c.reason for c in rejected)
        for c in rejected:
            prefix = f"{c.scheme.name}/tau={c.tau}: "
            assert c.reason.startswith(prefix)
            text = c.reason[len(prefix):]
            if text.startswith(("energy coefficients", "SNR cap", "no payload")):
                assert text == set_up_text(cfg, d, pa, c.scheme)
