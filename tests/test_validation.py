"""Tests of what the oracle battery checks, beyond its pass/fail summary."""

import gc
import io
import math
import sys
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from linkopt import cli, optimizer, oracles
from linkopt.config import default_config, parse_config
from linkopt.energy import PaVariant
from linkopt.optimizer import Binding
from linkopt.per import BerForm, CircuitClass, ModulationScheme, payload_max
from linkopt.validation import (
    ALL_CHECKS,
    CONDITIONING_DISTANCES,
    PACKET_SIZES,
    PREFIX_DISTANCES,
    BatteryRun,
    _worst,
    check_conditioning_snr_max,
    check_conditioning_snr_min,
    check_feasibility_prefix,
    check_multistart_agreement,
    check_payload_optima_vs_golden,
    check_scale_invariance,
    check_snr_optima_vs_golden,
    check_tpa_root_crosscheck,
    run_all_checks,
    write_per_error_table,
)
from test_solver_reference import QUERY_SPACE, query_config

CFG = default_config()
# The quadrature tolerances the battery passes to the oracles.
EPSREL, EPSABS = CFG.quad_epsrel, CFG.quad_epsabs


def test_multistart_covers_every_amplifier_at_8_and_20_m(monkeypatch):
    """Ten starts per amplifier and distance, all on one fixed point, each
    solved by the per-candidate solve of the candidate tables."""
    seen = []
    solve = optimizer._solve_candidate
    # The set-up carries the distance as its path gain.
    distance_at = {CFG.link_template.gain_at(d): d for d in (8.0, 20.0)}

    def recording(setup, *args):
        _, _, g_d, pa = setup[:4]
        seen.append((pa.variant, distance_at[g_d]))
        return solve(setup, *args)

    monkeypatch.setattr(optimizer, "_solve_candidate", recording)
    result = check_multistart_agreement(BatteryRun(CFG))
    assert result.passed and result.residual <= 1e-6
    assert Counter(seen) == {
        (variant, d): 10 for variant in CFG.pa_models for d in (8.0, 20.0)
    }


def test_payload_check_reads_the_tpa_closed_form(monkeypatch):
    """The TPA branch checks the solver's payload map: shifting its payload
    optimum by three bits fails the check, which a search-against-search
    check would miss."""
    assert check_payload_optima_vs_golden(BatteryRun(CFG)).passed
    build = optimizer.payload_map

    def shifted(coeffs, *inputs):
        step = build(coeffs, *inputs)
        if coeffs.pa_variant is not PaVariant.TPA:
            return step

        def shifted_step(n_p, log_keep):
            gamma, binding, wanted = step(n_p, log_keep)
            return gamma, binding, wanted + 3.0
        return shifted_step

    monkeypatch.setattr(optimizer, "payload_map", shifted)
    result = check_payload_optima_vs_golden(BatteryRun(CFG))
    assert not result.passed
    assert math.isfinite(result.residual) and result.residual >= 2.0
    assert result.detail.endswith("/tpa")


@pytest.mark.parametrize("check, maps", [
    pytest.param(check, maps, id=check.__name__) for check, maps in (
        (check_snr_optima_vs_golden, 60),
        (check_payload_optima_vs_golden, 40),
        (check_tpa_root_crosscheck, 40),
        # 40 unconstrained optima, then one map per scheme of its 18
        # bounded candidate tables that a solve reaches (20 of 108).
        (check_scale_invariance, 60),
    )
])
def test_closed_form_checks_read_the_solvers_payload_map(monkeypatch, check,
                                                         maps):
    """The checks of the SNR and payload optima build the map the solver
    iterates, one per instance, so they check the only copy of those
    closed forms."""
    built = []
    build = optimizer.payload_map

    def counting(*inputs):
        built.append(inputs)
        return build(*inputs)

    monkeypatch.setattr(optimizer, "payload_map", counting)
    assert check(BatteryRun(CFG)).passed
    assert len(built) == maps


def test_validate_does_each_oracle_once_per_call(monkeypatch):
    """One validate call makes 161 distinct integrals and 165 candidate
    tables, and evaluates the AWGN PER 5,760 times: once at each of the
    5,586 nodes of the 266 distinct panels of its 24 curves, and 174 times
    in their cutoff searches.  A second call redoes all of it: nothing
    persists."""
    calls = Counter()

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return counted

    monkeypatch.setattr(oracles, "_checked_quad",
                        counting("quad", oracles._checked_quad))
    monkeypatch.setattr(oracles, "awgn_per",
                        counting("awgn_per", oracles.awgn_per))
    pers = oracles._awgn_pers

    def counting_pers(scheme, n_bits, gammas):
        calls["awgn_per"] += len(gammas)
        return pers(scheme, n_bits, gammas)

    monkeypatch.setattr(oracles, "_awgn_pers", counting_pers)
    tables = optimizer.candidate_tables

    def counting_tables(*args, **kwargs):
        for item in tables(*args, **kwargs):
            calls["table"] += 1
            yield item

    monkeypatch.setattr(optimizer, "candidate_tables", counting_tables)
    for _ in range(2):
        calls.clear()
        code = cli.cmd_validate(CFG, io.StringIO(), io.StringIO())
        assert code == cli.EXIT_OK
        assert calls == {"quad": 161, "table": 165, "awgn_per": 5760}


def test_battery_memo_holds_each_panel_once_and_dies_with_the_run():
    """The quadrature checks and the PER table share 24 curves holding 266
    panels, and only the run refers to them."""
    run = BatteryRun(CFG)
    run_all_checks(run)
    write_per_error_table(run, io.StringIO())
    curves = list(run._curves.values())
    assert len(curves) == 24
    assert sum(len(curve._panels) for curve in curves) == 266
    ref = weakref.ref(curves[0])
    del run, curves
    gc.collect()
    assert ref() is None


def _shared_and_standalone(scheme, n_bits, snrs):
    """Each oracle value of one packet from one run's shared curve, and the
    same value from a standalone call, threshold first."""
    run = BatteryRun(CFG)
    threshold = oracles.AwgnPerCurve.threshold
    average = oracles.AwgnPerCurve.rayleigh_average
    shared = [run.quad(threshold, scheme, n_bits)]
    shared += [run.quad(average, scheme, n_bits, g) for g in snrs]
    alone = [oracles.waterfall_threshold_numeric(scheme, n_bits, EPSREL,
                                                 EPSABS)]
    alone += [oracles.per_rayleigh_exact(scheme, n_bits, g, EPSREL, EPSABS)
              for g in snrs]
    return shared, alone


TABLE_SNRS = [10.0 ** (db / 10.0) for db in range(10, 41)]


@pytest.mark.parametrize("scheme", CFG.modulations, ids=lambda s: s.name)
@pytest.mark.parametrize("n_bits", PACKET_SIZES)
def test_shared_curve_values_equal_standalone_oracles(scheme, n_bits):
    """The battery's shared-curve threshold and Rayleigh averages at the
    PER table's SNRs are bit-identical to the standalone oracles."""
    shared, alone = _shared_and_standalone(scheme, n_bits, TABLE_SNRS)
    assert shared == alone


@pytest.mark.parametrize("scheme, n_bits, snrs", [
    # Deep fades: the Rayleigh integral splits below the cutoff.
    (ModulationScheme("BPSK", 1, BerForm.GAUSSIAN_Q, 1.0, 2.0, 1.0,
                      CircuitClass.MQAM), 1000, (1e-4, 0.05)),
    # The exponential BER law at c_m = 1.
    (ModulationScheme("UNIT", 1, BerForm.EXPONENTIAL, 1.0, 1.0, 1.0,
                      CircuitClass.MFSK), 1, (0.05, 0.5, 3.0, 40.0, 1e4)),
], ids=["split_below_cutoff", "unit_exponential"])
def test_shared_curve_values_equal_standalone_off_the_battery(scheme, n_bits,
                                                              snrs):
    assert 60.0 * min(snrs) < oracles.AwgnPerCurve(scheme, n_bits).cutoff
    shared, alone = _shared_and_standalone(scheme, n_bits, snrs)
    assert shared == alone


def test_checks_alone_match_the_shared_run():
    """Each check with its own BatteryRun reports the same line as inside
    run_all_checks, where the checks share one."""
    shared = run_all_checks(BatteryRun(CFG))
    assert len(shared) == len(ALL_CHECKS) == 17
    for check, result in zip(ALL_CHECKS, shared):
        assert check(BatteryRun(CFG)).line() == result.line()


def test_conditioning_checks_see_every_bound_candidate():
    """The conditioning checks take every feasible candidate at 5..45 m, not
    only the winners (none of which binds the reliability floor), and both
    report where their worst residual is."""
    run = BatteryRun(CFG)
    bindings = Counter(point.binding for _, _, point in run.conditioned_points())
    assert bindings[Binding.SNR_MIN_BOUND] == 48
    assert bindings[Binding.SNR_MAX_BOUND] + bindings[Binding.PAYLOAD_MAX_BOUND] == 43
    for check in (check_conditioning_snr_min, check_conditioning_snr_max):
        result = check(run)
        assert result.passed and result.residual > 0.0
        assert result.detail.endswith("/d=25.0")


def test_worst_keeps_the_first_largest_residual():
    assert _worst("x", 1.0, iter([(0.5, "a"), (2.0, "b"), (2.0, "c")])).line() == (
        "x,FAIL,residual=2.000e+00,threshold=1.000e+00,b"
    )
    assert _worst("x", 1.0, iter([])).detail == "no instances"
    for gaps in ([(math.nan, "a")], [(0.5, "b"), (math.nan, "a")],
                 [(math.nan, "a"), (2.0, "b"), (math.nan, "c")]):
        assert _worst("x", 1.0, iter(gaps)).line() == (
            "x,FAIL,residual=nan,threshold=1.000e+00,a"
        )

    def failing():
        yield 0.5, "a"
        raise ArithmeticError("overflow")
    assert _worst("x", 1.0, failing()).line() == (
        "x,FAIL,residual=inf,threshold=1.000e+00,ArithmeticError: overflow"
    )


@pytest.mark.parametrize("forced", [0, 1])
def test_feasibility_prefix_counts_a_scheme_feasible_again(monkeypatch, forced):
    """A scheme made infeasible at 2 m and feasible again further out is a
    violation at every later distance of the prefix grid where it is
    feasible.  The battery's one sweep also builds the tables at 5, 15, 25,
    35 and 45 m for the conditioning checks; those are not on the grid and
    do not count."""
    tables = optimizer.candidate_tables
    seen = []

    def force_infeasible(link, distances, *args, **kwargs):
        again = 0
        for d, pa, table in tables(link, distances, *args, **kwargs):
            scheme = table[0].scheme
            if d == 2.0 and forced:
                table = [
                    c._replace(point=None, rejection="forced") if c.scheme is scheme
                    else c for c in table
                ]
            elif d > 2.0 and d in PREFIX_DISTANCES and any(
                c.scheme is scheme and c.point is not None for c in table
            ):
                again += 1
            yield d, pa, table
        seen.append(again)

    monkeypatch.setattr(optimizer, "candidate_tables", force_infeasible)
    result = check_feasibility_prefix(BatteryRun(CFG))
    assert result.residual == (seen[0] if forced else 0.0)
    assert result.passed == (not forced)
    assert seen[0] > 0


def assert_sweep_matches_separate_tables(cfg):
    """The run's feasibility flags equal ``select_best(...).feasible`` of
    each scheme's entries of the whole single-distance table at each
    distance of the prefix grid, and its conditioned points equal, by
    ``repr``, those of a separate sweep over the conditioning distances."""
    run = BatteryRun(cfg)
    expected = [
        (d, pa.variant, [
            optimizer.select_best(c for c in table if c.scheme is s).feasible
            for s in cfg.modulations])
        for distance in PREFIX_DISTANCES
        for d, pa, table in cfg.tables((distance,), cfg.pa_models.values())
    ]
    assert [(d, pa.variant, flags)
            for d, pa, flags in run.feasibility_flags()] == expected
    separate = [(d, pa, c.point)
                for d, pa, table in cfg.tables(CONDITIONING_DISTANCES,
                                               cfg.pa_models.values())
                for c in table if c.point is not None]
    assert repr(run.conditioned_points()) == repr(separate)


def test_sweep_matches_separate_tables_default():
    assert_sweep_matches_separate_tables(CFG)


@settings(max_examples=4, deadline=None)
@given(**{k: v for k, v in QUERY_SPACE.items()
          if k not in ("distance", "variant")})
def test_sweep_matches_separate_tables_random_configs(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx):
    assert_sweep_matches_separate_tables(query_config(
        p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx))


def test_sweep_matches_separate_tables_second_fixed_point_config():
    """The config where 16QAM/TPA has a second, unstable fixed point near
    73 m with a 2-bit header."""
    assert_sweep_matches_separate_tables(query_config(
        1.0, 2.60546875, 3.0, 2, 0.003066017267510455, 2))


def test_default_validate_solves(monkeypatch):
    """One default validate call solves 1,183 candidates: 1,071 in the
    battery's one sweep of 147 whole tables, 52 in the 18 bounded
    scale-invariance tables (82 with a bound per cap alone, 90 with the
    decoupled energy floor) and 60 multistart starts."""
    calls = Counter()
    solve = optimizer._solve_candidate

    def counting(*args):
        calls[sys._getframe(1).f_code.co_name] += 1
        return solve(*args)

    monkeypatch.setattr(optimizer, "_solve_candidate", counting)
    sweep = BatteryRun._sweep

    def counting_sweep(run):
        before = calls["candidate_tables"]
        swept = sweep(run)
        calls["sweep"] += calls["candidate_tables"] - before
        return swept

    monkeypatch.setattr(BatteryRun, "_sweep", counting_sweep)
    code = cli.cmd_validate(CFG, io.StringIO(), io.StringIO())
    assert code == cli.EXIT_OK
    assert calls == {"candidate_tables": 1123, "sweep": 1071,
                     "check_multistart_agreement": 60}


def test_sweep_error_fails_each_check_that_reads_it(monkeypatch):
    """An error the sweep raises fails the two conditioning checks and the
    feasibility-prefix check, each under its own name; the other checks,
    which build no table at 46 m, pass."""
    tables = optimizer.candidate_tables

    def failing(link, distances, *args, **kwargs):
        for d, pa, table in tables(link, distances, *args, **kwargs):
            if d == 46.0:
                raise ArithmeticError("overflow at 46 m")
            yield d, pa, table

    monkeypatch.setattr(optimizer, "candidate_tables", failing)
    failed = {result.name: result.line()
              for result in run_all_checks(BatteryRun(CFG))
              if not result.passed}
    assert failed == {
        name: f"{name},FAIL,residual=inf,threshold={threshold:.3e},"
              "ArithmeticError: overflow at 46 m"
        for name, threshold in (("conditioning_snr_min", 1e-9),
                                ("conditioning_snr_max", 1e-12),
                                ("feasibility_prefix", 0.0))
    }


@pytest.mark.parametrize("text", [
    "[qos]\nmax_retransmissions = 0\n", "[link]\nkappa = 6\n",
], ids=["no_retransmissions", "kappa_6"])
def test_multistart_skips_a_distance_with_no_payload(text):
    """16QAM carries no payload at full power at 20 m for CPA in both
    configs; the multistart check skips that pair and the battery passes."""
    cfg = parse_config(text)
    scheme = next(s for s in cfg.modulations if s.name == "16QAM")
    cpa = cfg.pa_models[PaVariant.CPA]
    gamma_cap = optimizer.snr_max(
        replace(cfg.link_template, distance_m=20.0), scheme, cpa)
    assert payload_max(scheme, cfg.n_h, gamma_cap, cfg.qos) < 1
    results = run_all_checks(BatteryRun(cfg))
    assert [r.line() for r in results if not r.passed] == []


def test_multistart_fails_on_any_other_rejection(monkeypatch):
    """A start the solve rejects for any other reason still fails."""
    monkeypatch.setattr(optimizer, "MAX_ITER", 1)
    result = check_multistart_agreement(BatteryRun(CFG))
    assert not result.passed and result.residual == math.inf
    assert "no convergence within 1 iterations" in result.detail


def test_loosest_quadrature_tolerance_passes():
    """``quad_epsrel`` at its largest accepted value, 1e-6, meets the
    oracles' error-estimate bound: the battery passes."""
    cfg = parse_config("[tolerance]\nquad_epsrel = 1e-6\n")
    results = run_all_checks(BatteryRun(cfg))
    assert [r.line() for r in results if not r.passed] == []
