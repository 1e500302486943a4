"""The rejection reasons of candidate tables, as a reader sees them.

A rejected entry keeps its reason as data and renders the text on access;
these tests pin the rendered text, byte for byte, to SHA-256 digests of the
text the solver wrote when it formatted every reason as it rejected.
"""

import hashlib
import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt import cli
from linkopt.config import default_config, parse_config
from linkopt.energy import PaVariant, energy_coefficients
from linkopt.errors import ConfigError
from linkopt.optimizer import candidate_tables, select_best, snr_max

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
        "b44a278e7e61184aa51cb3fcdf4caf9088c029d9b069da118bb469e4d291c9a7")


def test_default_lifetime_tables():
    """The bounded tables the default ``lifetime`` builds, which keep the
    baseline's own best."""
    lines = rendered(cli._tables(CFG, list(PaVariant), CFG.distances(),
                                 (CFG.baseline_scheme(),)))
    assert len(lines) == 4266
    assert digest(lines) == (
        "9ee90889448b949d8412c935044a6a3e76eb67a6b64ef79d5e368027693835ac")


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


def extreme_tables(cfg, distances):
    """``cfg``'s whole tables at ``distances``, then its tables bounded for
    selection, then those that keep the baseline's own best."""
    for keep_best_of in (None, (), (cfg.baseline_scheme(),)):
        yield from candidate_tables(
            cfg.link_template, distances, cfg.qos, cfg.pa_models.values(),
            cfg.modulations, cfg.n_h, delta=cfg.delta,
            circuit_power=cfg.circuit_power, keep_best_of=keep_best_of,
        )


def test_seeded_extreme_configs():
    """The whole and both kinds of bounded tables, at three distances from
    1 mm to 10 km, of 200 seeded draws of :func:`extreme_ini` (131 of which parse)."""
    rng = random.Random(30)
    lines, parsed = [], 0
    for _ in range(200):
        try:
            cfg = parse_config(extreme_ini(rng))
        except ConfigError:
            continue
        parsed += 1
        distances = [10 ** rng.uniform(-3, 4) for _ in range(3)]
        try:
            lines += rendered(extreme_tables(cfg, distances))
        except ArithmeticError as exc:
            # B n0 g_d underflows to 0 in the SNR cap of draw 61 at 1.3 mm.
            lines.append(f"raises {type(exc).__name__}: {exc}")
    assert (parsed, len(lines)) == (131, 46009)
    text = "\n".join(lines)
    for fragment in ("energy coefficients outside", "SNR cap outside",
                     "no payload meets", "below the waterfall regime",
                     "payload map outside", "bounded out"):
        assert fragment in text
    assert digest(lines) == (
        "c3282e1b8e5da6d475546ed600baa84799a966ac08f219651192771b0ddfcc42")


def set_up_text(cfg, d, pa, scheme):
    """The reason a set-up at distance ``d`` gives, computed from the public
    closed forms: coefficients outside the range of a double, else an SNR
    cap that underflows to 0, else no payload at full power."""
    link = replace(cfg.link_template, distance_m=d)
    try:
        energy_coefficients(pa, scheme, link,
                            cfg.circuit_power[scheme.circuit_power_class])
    except (ValueError, ArithmeticError) as exc:
        return f"energy coefficients outside the range of a double ({exc})"
    gamma_cap = snr_max(link, scheme, pa)
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
    try:
        tables = list(extreme_tables(cfg, distances))
    except ArithmeticError:  # an SNR cap whose B n0 g_d underflows to 0
        return
    for d, pa, table in tables:
        rejected = [c for c in table if c.point is None]
        assert select_best(rejected).failure_reasons == tuple(
            c.reason for c in rejected)
        for c in rejected:
            prefix = f"{c.scheme.name}/tau={c.tau}: "
            assert c.reason.startswith(prefix)
            text = c.reason[len(prefix):]
            if text.startswith(("energy coefficients", "SNR cap", "no payload")):
                assert text == set_up_text(cfg, d, pa, c.scheme)
