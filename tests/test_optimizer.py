"""Tests for the closed-form optima, conditioning and the joint search."""

import math
import random
import statistics
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt import optimizer
from linkopt.config import default_config, parse_config
from linkopt.errors import ConfigError
from linkopt.energy import (
    LinkBudget,
    PaModel,
    PaVariant,
    energy_coefficients,
    transmit_power,
)
from linkopt.optimizer import (
    Binding,
    Candidate,
    OperatingPoint,
    _depressed_cubic_root,
    candidate_tables,
    joint_optimize,
    payload_map,
    select_best,
    snr_max,
)
from linkopt.per import (
    EULER_GAMMA,
    CircuitClass,
    QosSpec,
    payload_max,
    per_rayleigh,
    snr_min,
    waterfall_threshold,
)
from linkopt.oracles import (
    _packet_energy_unbounded,
    cubic_root_bisection,
    golden_payload,
    golden_section_min,
    golden_section_min_relative,
)
from linkopt.validation import _snr_optimum as snr_optimum
from test_cli import CUSTOM_SCHEME_SPACE, custom_scheme_ini
from test_query_digests import WORKLOADS
from test_reasons import seeded_draws

CFG = default_config()
MODS = {m.name: m for m in CFG.modulations}
CPA = CFG.pa_models[PaVariant.CPA]
TPA = CFG.pa_models[PaVariant.TPA]
ETPA = CFG.pa_models[PaVariant.ETPA]


def link_at(d):
    return replace(CFG.link_template, distance_m=d)


def solve_one(link, qos, pa, scheme, p_c, n_h, *, delta, n_p_init=0.0):
    """``(point, reason)`` of the per-candidate solve that candidate_tables
    runs, on the scheme's set-up at the link's path gain."""
    setup = optimizer._law_setup(optimizer._scheme_law(link, pa, scheme, p_c),
                                 link.gain_at(link.distance_m), n_h)
    candidate = optimizer._solve_candidate(setup, qos, delta, n_p_init)[0]
    return candidate.point, candidate.reason


def rejections_matching_solves(cfg, distances, pas):
    """The reasons of the rejected entries of ``cfg``'s candidate tables at
    ``distances``, each asserted equal to the reason :func:`solve_one` gives
    for that candidate on its own."""
    reasons = []
    for d, pa, table in cfg.tables(distances, pas):
        link = replace(cfg.link_template, distance_m=d)
        for candidate in table:
            scheme, tau, reason = (candidate.scheme, candidate.tau,
                                   candidate.reason)
            if reason is not None:
                assert solve_one(
                    link, QosSpec(cfg.qos.target_per, tau), pa, scheme,
                    cfg.circuit_power[scheme.circuit_power_class], cfg.n_h,
                    delta=cfg.delta,
                )[1] == reason
                reasons.append(reason)
    return reasons


# Configs whose tables reject candidates for each reason a set-up or a solve
# gives: ``(config, distances or None for the config's sweep, amplifier
# variants, a reason fragment some entry must carry)``.  No config text
# parses to a circuit power of 0 W, so that one is set on the default
# config; the other extreme configs are those of tests/test_cli.py with the
# same ids, whose b_coeff_underflow is
# test_coefficients_outside_double_range_match_the_table.
REJECTION_TABLES = {
    "default_grid": (CFG, None, tuple(PaVariant),
                     "no payload meets the PER bound"),
    "tpa_a_coeff_division_by_zero": (
        parse_config("[link]\nlink_margin_db = -3000\n"), (1e-3,),
        (PaVariant.TPA,), "(float division by zero)"),
    "snr_cap_underflow": (
        parse_config("[link]\np0_mw = 1e-300\nnoise_half_psd_dbm_hz = 2900\n"),
        (10.0,), (PaVariant.CPA,), "(snr_max underflows to 0)"),
    "tpa_a_coeff_inf_over_inf": (
        parse_config("[link]\nbandwidth_khz = 4.661332057150907e-187\n"
                     "noise_half_psd_dbm_hz = 1428.4039761280337\n"
                     "link_margin_db = 2172.6444256628347\n"),
        (1809.9699226692878,), (PaVariant.TPA,),
        "(TPA a_coeff overflows: inf / inf)"),
    "circuit_power_underflow": (
        replace(CFG, circuit_power={**CFG.circuit_power, CircuitClass.MQAM: 0.0}),
        (10.0, 40.0), tuple(PaVariant), "(p_c must be > 0, got 0.0)"),
    "cpa_ratio_inf": (
        parse_config("[link]\nlink_margin_db = -3000\n"), (0.1,),
        (PaVariant.CPA,), "(a step overflowed to an undefined value)"),
    # The SNR cap is near 1e308, so gamma * B overflows in the transmit
    # power although the power itself is below the cap.
    "transmit_power_overflow": (
        parse_config("[link]\nkappa = 1\ng1_db = 0\nlink_margin_db = -66\n"
                     "noise_half_psd_dbm_hz = -3000\nbandwidth_khz = 0.01\n"
                     "p0_mw = 1\n[circuit]\npc_mqam_mw = 1\npc_mfsk_mw = 1\n"
                     "[qos]\ntarget_per = 0.1\n"
                     "max_retransmissions = 0\n[sweep]\nd_min_m = 0.01\n"),
        (0.01,), (PaVariant.CPA,),
        "transmit power outside the range of a double (BPSK peak power inf W"),
}


def payload_step(coeffs, scheme, n_h, g, n_p=976):
    """``(SNR, binding, payload optimum)`` of the payload map held at ``g``.

    The map is capped at ``g`` with its reliability floor 1e-12 below, so
    the step conditions to within 1e-12 of ``g`` from either side and
    returns the real-valued payload optimum at that SNR.
    """
    log_keep = -waterfall_threshold(scheme, n_h + n_p) / (g * (1.0 - 1e-12))
    return payload_map(coeffs, scheme, n_h, g)(n_p, log_keep)


def tpa_cubic(coeffs, scheme, n_p, n_h):
    """``(p, q)`` of the TPA stationarity cubic ``x^3 + p x + q = 0`` in
    ``x = sqrt(SNR)``: ``p = -2 w0`` and ``q = p (b/a) rho``."""
    p = -2.0 * waterfall_threshold(scheme, n_h + n_p)
    return p, p * (coeffs.b_coeff / coeffs.a_coeff * (n_p / (n_h + n_p)))


def sweep(distances, pa, modulations=CFG.modulations):
    """The best point at each distance, from the distance loop."""
    return [select_best(table) for _, _, table in candidate_tables(
        CFG.link_template, distances, CFG.qos, (pa,), modulations, CFG.n_h,
        delta=CFG.delta, circuit_power=CFG.circuit_power,
    )]


def snr_energy_curve(coeffs, scheme, n_p, n_h):
    """Unbounded-retransmission energy against SNR at fixed payload."""
    w0 = waterfall_threshold(scheme, n_h + n_p)
    rho = n_p / (n_h + n_p)

    def f(g):
        if coeffs.pa_variant is PaVariant.TPA:
            attempt = coeffs.a_coeff * math.sqrt(g) + coeffs.b_coeff * rho
        else:
            attempt = coeffs.a_coeff * g + coeffs.b_coeff * rho
        return math.exp(min(w0 / g, 700.0)) * attempt

    return f, w0


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x = golden_section_min(lambda t: (t - 3.0) ** 2, 0.0, 10.0, 1e-8)
        assert x == pytest.approx(3.0, abs=1e-7)

    def test_tolerance_contract(self):
        """Halving the tolerance at least halves the bracket error bound."""
        target = lambda t: (t - math.pi) ** 2
        for tol in (1e-2, 1e-4, 1e-6):
            x = golden_section_min(target, 0.0, 10.0, tol)
            assert abs(x - math.pi) <= tol

    def test_evaluation_count_bound(self):
        """No more evaluations than the golden-ratio contraction needs."""
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return (t - 2.5) ** 2

        lo, hi, tol = 0.0, 10.0, 1e-6
        golden_section_min(counted, lo, hi, tol)
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        bound = math.ceil(math.log((hi - lo) / tol) / math.log(1.0 / ratio))
        assert calls <= bound + 4  # two seed points, two endpoint probes

    def test_boundary_minimum_returns_edge(self):
        """Monotone objectives resolve to the better bracket edge."""
        assert golden_section_min(lambda t: t, 0.0, 10.0, 1e-4) == 0.0
        assert golden_section_min(lambda t: -t, 0.0, 10.0, 1e-4) == 10.0
        concave = golden_section_min(
            lambda t: -((t - 3.0) ** 2), 0.0, 10.0, 1e-4
        )
        assert concave == 10.0

    def test_non_finite_values_detected(self):
        """A NaN inside the bracket is a bracket inconsistency."""
        def poisoned(t):
            return math.nan if 2.0 < t < 8.0 else (t - 1.0) ** 2

        with pytest.raises(ValueError, match="non-finite"):
            golden_section_min(poisoned, 0.0, 10.0, 1e-4)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda t: t, 1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            golden_section_min(lambda t: t, 0.0, 1.0, 0.0)

    def test_log_domain_relative_search(self):
        x = golden_section_min_relative(
            lambda t: (math.log(t) - 2.0) ** 2, 1e-6, 1e9, 1e-9
        )
        assert x == pytest.approx(math.exp(2.0), rel=1e-6)


class TestSnrMax:
    def test_distance_power_law(self):
        a = snr_max(link_at(10.0), MODS["4QAM"], CPA)
        b = snr_max(link_at(20.0), MODS["4QAM"], CPA)
        assert a / b == pytest.approx(2.0 ** 3.5, rel=1e-12)

    def test_regulatory_cap_when_headroom_slack(self):
        """With ample amplifier headroom only the p0 limit matters."""
        link = link_at(10.0)
        scheme = MODS["BPSK"]
        expected = link.p0_w / (
            link.bandwidth_hz * link.n0 * link.gain_at(10.0)
        )
        assert snr_max(link, scheme, CPA) == pytest.approx(expected, rel=1e-12)

    def test_peak_headroom_binds_for_high_papr(self):
        pa = PaModel(PaVariant.ETPA, 0.8, 0.02)
        scheme = MODS["64QAM"]
        link = link_at(10.0)
        capped = snr_max(link, scheme, pa)
        uncapped = link.p0_w / (link.bandwidth_hz * link.n0 * link.gain_at(10.0))
        assert capped == pytest.approx(
            uncapped * (pa.p_t_max / scheme.papr) / link.p0_w, rel=1e-12
        )

    def test_far_range_below_reliability_floor(self):
        """At 70 m the fixed-payload SNR floor exceeds the power cap."""
        scheme = MODS["4QAM"]
        floor = snr_min(scheme, CFG.n_h, 976, CFG.qos)
        assert snr_max(link_at(70.0), scheme, CPA) < floor
        assert snr_max(link_at(10.0), scheme, CPA) > floor


class TestOptimalSnrQuadratic:
    def test_degenerate_radical_returns_threshold(self):
        """With a vanishing circuit term the optimum sits on the threshold."""
        coeffs = energy_coefficients(CPA, MODS["4QAM"], link_at(10.0), 0.31)
        tiny = replace(coeffs, b_coeff=coeffs.a_coeff * 1e-15)
        w0 = waterfall_threshold(MODS["4QAM"], 1024)
        assert snr_optimum(tiny, MODS["4QAM"], 976, 48) == pytest.approx(
            w0, rel=1e-6
        )

    @pytest.mark.parametrize("pa", [CPA, ETPA], ids=["cpa", "etpa"])
    @pytest.mark.parametrize("d", [3.0, 10.0, 25.0])
    @pytest.mark.parametrize("name", ["OQPSK", "4QAM", "16QAM", "64QAM"])
    def test_matches_golden_section(self, pa, d, name):
        scheme = MODS[name]
        coeffs = energy_coefficients(pa, scheme, link_at(d), 0.31)
        n_p = 976
        star = snr_optimum(coeffs, scheme, n_p, 48)
        f, w0 = snr_energy_curve(coeffs, scheme, n_p, 48)
        numeric = golden_section_min_relative(f, w0 * 1e-3, w0 * 1e9, 1e-9)
        assert star == pytest.approx(numeric, rel=1e-6)

    def test_dominant_circuit_asymptote(self):
        """For a huge circuit term the optimum grows like its square root."""
        coeffs = energy_coefficients(CPA, MODS["4QAM"], link_at(5.0), 0.31)
        w0 = waterfall_threshold(MODS["4QAM"], 1024)
        rho = 976 / 1024
        big = replace(coeffs, b_coeff=coeffs.a_coeff * 1e9)
        star = snr_optimum(big, MODS["4QAM"], 976, 48)
        assert star == pytest.approx(math.sqrt(w0 * 1e9 * rho), rel=1e-3)


class TestOptimalSnrTpa:
    def test_vanishing_circuit_term_limit(self):
        """With no circuit energy the root sits at twice the threshold."""
        coeffs = energy_coefficients(TPA, MODS["16QAM"], link_at(10.0), 0.31)
        tiny = replace(coeffs, b_coeff=coeffs.a_coeff * 1e-15)
        scheme = MODS["16QAM"]
        w0 = waterfall_threshold(scheme, 1024)
        assert snr_optimum(tiny, scheme, 976, 48) == pytest.approx(
            2.0 * w0, rel=1e-6
        )

    @pytest.mark.parametrize("d", [2.0, 8.0, 20.0])
    @pytest.mark.parametrize("name", ["OQPSK", "16QAM", "64QAM"])
    def test_matches_golden_section(self, d, name):
        scheme = MODS[name]
        coeffs = energy_coefficients(TPA, scheme, link_at(d), 0.31)
        n_p = 512
        star = snr_optimum(coeffs, scheme, n_p, 48)
        f, w0 = snr_energy_curve(coeffs, scheme, n_p, 48)
        numeric = golden_section_min_relative(f, w0 * 1e-3, w0 * 1e9, 1e-9)
        assert star == pytest.approx(numeric, rel=1e-6)

    @staticmethod
    def _root_against_bisection(coeffs, scheme):
        """Discriminant of the 16QAM cubic and the root's error to bisection."""
        p, q = tpa_cubic(coeffs, scheme, 976, 48)
        root = snr_optimum(coeffs, scheme, 976, 48)
        numeric = cubic_root_bisection(p, q) ** 2
        return (q / 2.0) ** 2 + (p / 3.0) ** 3, abs(root - numeric) / numeric

    @pytest.mark.parametrize("d", [2.0, 5.0, 10.0])
    def test_explicit_radical_crosscheck(self, d):
        """At short range the cubic has one real root: Cardano's branch."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(d), 0.31)
        disc, error = self._root_against_bisection(coeffs, scheme)
        assert disc > 0.0
        assert error <= 1e-9

    def test_radical_condition_fails_far_out(self):
        """At long range the cubic has three real roots: trigonometric branch."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(30.0), 0.31)
        disc, error = self._root_against_bisection(coeffs, scheme)
        assert disc <= 0.0
        assert error <= 1e-9

    def test_radical_absent_when_condition_fails(self):
        """A vanishing circuit term also takes the trigonometric branch."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(10.0), 0.31)
        tiny = replace(coeffs, b_coeff=coeffs.a_coeff * 1e-12)
        disc, error = self._root_against_bisection(tiny, scheme)
        assert disc <= 0.0
        assert error <= 1e-9


def _negative_log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: -(10.0 ** e))


class TestDepressedCubicRoot:
    @settings(max_examples=400, deadline=None)
    @given(
        p=_negative_log_uniform(-30.0, 30.0),
        q=st.one_of(st.just(0.0), _negative_log_uniform(-30.0, 30.0)),
    )
    @example(p=-3.0, q=-2.0)      # zero discriminant: roots 2, -1, -1
    @example(p=-1.0, q=-1e6)      # Cardano branch
    @example(p=-1e6, q=-1.0)      # trigonometric branch
    @example(p=-4.0, q=0.0)       # n_p = 0: root sqrt(-p)
    def test_positive_root_matches_bisection(self, p, q):
        x = _depressed_cubic_root(p, q)
        assert x > 0.0
        scale = x ** 3 + abs(p * x) + abs(q)
        assert abs(x * (x * x + p) + q) <= 1e-12 * scale
        assert x == pytest.approx(cubic_root_bisection(p, q), rel=1e-12)


class TestConstrainSnr:
    """The payload map's conditioning of the SNR optimum: 4QAM, CPA, 976
    payload bits, at the default QoS."""

    @staticmethod
    def _step(d, gamma_cap=None):
        scheme = MODS["4QAM"]
        link = link_at(d)
        coeffs = energy_coefficients(CPA, scheme, link, 0.31)
        if gamma_cap is None:
            gamma_cap = snr_max(link, scheme, CPA)
        step = payload_map(coeffs, scheme, CFG.n_h, gamma_cap)
        return step(976, math.log1p(-CFG.qos.per_attempt_bound)), coeffs

    def test_interior_optimum_kept(self):
        (gamma, binding, _), coeffs = self._step(10.0)
        assert binding is Binding.UNCONSTRAINED
        assert gamma == snr_optimum(coeffs, MODS["4QAM"], 976, CFG.n_h)

    def test_floor_binds(self):
        (gamma, binding, _), _ = self._step(36.0)
        assert binding is Binding.SNR_MIN_BOUND
        floor = snr_min(MODS["4QAM"], CFG.n_h, 976, CFG.qos)
        assert gamma == pytest.approx(floor, rel=1e-12)

    def test_cap_binds(self):
        (gamma, binding, _), _ = self._step(10.0, gamma_cap=100.0)
        assert (gamma, binding) == (100.0, Binding.SNR_MAX_BOUND)

    def test_empty_window_is_infeasible_value(self):
        """The map returns the rejection as a value, not an error."""
        result, _ = self._step(70.0)
        assert result.startswith("snr_min ")
        assert " exceeds snr_max " in result

    def test_fixed_payload_regimes_across_distance(self):
        """4QAM at 976 payload bits walks optimum, floor, infeasible."""
        seen = []
        for d in (10.0, 36.0, 70.0):
            result, _ = self._step(d)
            seen.append(
                Binding.INFEASIBLE if isinstance(result, str) else result[1]
            )
        assert seen == [
            Binding.UNCONSTRAINED, Binding.SNR_MIN_BOUND, Binding.INFEASIBLE,
        ]


class TestOptimalPayloadQuadratic:
    @pytest.mark.parametrize("name", ["OQPSK", "16QAM", "64QAM"])
    @pytest.mark.parametrize("snr_db", [16, 24, 32])
    def test_matches_golden_section(self, name, snr_db):
        scheme = MODS[name]
        coeffs = energy_coefficients(ETPA, scheme, link_at(10.0), 0.31)
        g, _, star = payload_step(coeffs, scheme, 48, 10.0 ** (snr_db / 10.0))
        numeric = golden_payload(coeffs, scheme, 48, g)
        assert abs(math.floor(star) - math.floor(numeric)) <= 1

    def test_linear_in_overhead(self):
        """The continuous stationary point is homogeneous in the overhead."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        one = payload_step(coeffs, scheme, 48, 300.0)[2]
        two = payload_step(coeffs, scheme, 96, 300.0)[2]
        assert two == pytest.approx(2.0 * one, rel=1e-12)
        assert abs(math.floor(two) - 2 * math.floor(one)) <= 1

    def test_high_snr_growth_rate(self):
        """payload / overhead approaches k_eff * snr for large SNR."""
        scheme = MODS["OQPSK"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        g, _, value = payload_step(coeffs, scheme, 48, 1e7)
        assert value / 48 == pytest.approx(scheme.k_eff * g, rel=1e-2)

    def test_degenerate_payload_below_one_bit(self):
        """A huge circuit term at low SNR pushes the optimum below one bit;
        the solver's clamp to [1, ceiling] takes it to one bit."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(ETPA, scheme, link_at(2.0), 0.31)
        inflated = replace(coeffs, b_coeff=coeffs.a_coeff * 1e8)
        g, binding, wanted = payload_step(inflated, scheme, 48, 20.0)
        assert (g, binding) == (20.0, Binding.SNR_MAX_BOUND)
        assert 0.0 < wanted < 1.0

    def test_scaled_coefficients_keep_numeric_argmin(self):
        """Scaling both coefficients moves energies, never the argmin."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        scaled = replace(
            coeffs, a_coeff=coeffs.a_coeff * 13.7, b_coeff=coeffs.b_coeff * 13.7
        )
        f_base, w0 = snr_energy_curve(coeffs, scheme, 976, 48)
        f_scaled, _ = snr_energy_curve(scaled, scheme, 976, 48)
        base = golden_section_min_relative(f_base, w0 * 1e-3, w0 * 1e9, 1e-9)
        other = golden_section_min_relative(f_scaled, w0 * 1e-3, w0 * 1e9, 1e-9)
        assert other == pytest.approx(base, rel=1e-7)


class TestOptimalPayloadTpa:
    def test_local_optimality_at_one_bit(self):
        """The better floor neighbour of the numeric argmin is integer-optimal."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(10.0), 0.31)
        g = 10.0 ** 2.2
        f = lambda n_p: _packet_energy_unbounded(coeffs, scheme, 48, g, n_p)
        star = math.floor(golden_payload(coeffs, scheme, 48, g))
        if f(star + 1) < f(star):
            star += 1
        assert f(star) <= f(star - 1) + 1e-18
        assert f(star) <= f(star + 1) + 1e-18

    def test_matches_stationary_point(self):
        """Numeric search agrees with the payload stationarity root."""
        scheme = MODS["64QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(6.0), 0.31)
        for snr_db in (20, 28, 34):
            g, _, analytic = payload_step(coeffs, scheme, 48,
                                          10.0 ** (snr_db / 10.0))
            numeric = math.floor(golden_payload(coeffs, scheme, 48, g))
            assert abs(numeric - math.floor(analytic)) <= 1

    def test_cpa_limit_model_swap(self):
        """Run the numeric machinery on CPA-form energy: the quadratic wins."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        g, _, analytic = payload_step(coeffs, scheme, 48, 10.0 ** 2.4)
        numeric = math.floor(golden_payload(coeffs, scheme, 48, g))
        assert abs(numeric - math.floor(analytic)) <= 1

    def test_diagnostic_sign_flip_recovers_optimum(self):
        """Replacing the -n_p^2 radicand term with +n_h^2 gives the optimum.

        Documents the relation between the legacy self-referential radical
        and the true stationary point the numeric route converges to.
        """
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(10.0), 0.31)
        g, _, stationary = payload_step(coeffs, scheme, 48, 10.0 ** 2.6)
        a, b, k = coeffs.a_coeff, coeffs.b_coeff, scheme.k_eff
        sq = math.sqrt(g)
        kappa = a * k * g * g - b * k * g * sq - a * g + b * sq
        radicand = (
            4.0 * a * k * 48 * 48 * g * (a * g - b * sq) * (g - (b / a) ** 2)
            + 48 * 48 * kappa * kappa
        )
        flipped = (48 * kappa + math.sqrt(radicand)) / (
            2.0 * a * (g - (b / a) ** 2)
        )
        assert flipped == pytest.approx(stationary, rel=1e-9)
        assert abs(math.floor(flipped) - math.floor(
            golden_payload(coeffs, scheme, 48, g)
        )) <= 1


class TestSolveCandidate:
    def test_interior_fixed_point_satisfies_both_stationarities(self):
        """At an interior fixed point both updates are self-consistent."""
        scheme = MODS["64QAM"]
        link = link_at(5.0)
        qos = QosSpec(CFG.qos.target_per, 2)
        point, reason = solve_one(
            link, qos, CPA, scheme, 0.31, CFG.n_h, delta=CFG.delta
        )
        assert reason is None and point.feasible
        assert point.binding is Binding.UNCONSTRAINED
        coeffs = energy_coefficients(CPA, scheme, link, 0.31)
        snr_again = snr_optimum(coeffs, scheme, point.n_p, CFG.n_h)
        assert snr_again == pytest.approx(point.gamma_bar, rel=1e-9)
        _, _, payload_again = payload_step(
            coeffs, scheme, CFG.n_h, point.gamma_bar, point.n_p
        )
        assert abs(payload_again - point.n_p) <= 1.0

    def test_multistart_agreement(self):
        """Ten random payload seeds land on the same fixed point."""
        scheme = MODS["16QAM"]
        link = link_at(8.0)
        qos = QosSpec(CFG.qos.target_per, 3)
        rng = random.Random(7)
        energies = set()
        for _ in range(10):
            point, reason = solve_one(
                link, qos, ETPA, scheme, 0.31, CFG.n_h,
                delta=CFG.delta, n_p_init=rng.uniform(1.0, 4000.0),
            )
            assert reason is None
            energies.add(round(point.energy, 18))
        assert len(energies) == 1

    def test_infeasible_far_range(self):
        point, reason = solve_one(
            link_at(70.0), QosSpec(0.001, 3), CPA, MODS["4QAM"], 0.31, CFG.n_h,
            delta=CFG.delta,
        )
        assert point is None
        assert "PER bound" in reason or "snr_min" in reason

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_non_convergence_reports_last_step(self, monkeypatch, max_iter):
        """The reason carries the last map evaluation's payload step, inf
        before any evaluation, and the joint search reports it alike."""
        monkeypatch.setattr(optimizer, "MAX_ITER", max_iter)
        link, scheme = link_at(5.0), MODS["64QAM"]
        qos = QosSpec(CFG.qos.target_per, 2)
        point, reason = solve_one(link, qos, CPA, scheme, 0.31, CFG.n_h,
                                        delta=CFG.delta)
        assert point is None
        assert f"no convergence within {max_iter} iterations" in reason
        residual = float(reason.rsplit("last residual ", 1)[1].rstrip(")"))
        if max_iter == 0:
            assert residual == math.inf
        else:
            assert CFG.delta < residual < math.inf
        joint = joint_optimize(link, qos, CPA, (scheme,), CFG.n_h,
                               delta=CFG.delta,
                               circuit_power={scheme.circuit_power_class: 0.31})
        assert reason in joint.failure_reasons

    def test_start_above_payload_ceiling_is_lowered_to_it(self):
        """A start above the ceiling solves like a cold start; unclamped,
        its first SNR floor would exceed the power cap."""
        scheme = MODS["NCFSK"]
        link = link_at(20.0)
        qos = QosSpec(CFG.qos.target_per, 1)
        p_c = CFG.circuit_power[scheme.circuit_power_class]
        assert payload_max(scheme, CFG.n_h, snr_max(link, scheme, CPA), qos) == 268
        args = (link, qos, CPA, scheme, p_c, CFG.n_h)
        cold = solve_one(*args, delta=CFG.delta)
        assert cold[0] is not None
        assert repr(solve_one(*args, delta=CFG.delta, n_p_init=371.0)) == repr(cold)

    def test_infinite_start_solves_as_the_ceiling(self):
        scheme = MODS["64QAM"]
        link = link_at(5.0)
        qos = QosSpec(CFG.qos.target_per, 2)
        ceiling = payload_max(scheme, CFG.n_h, snr_max(link, scheme, CPA), qos)
        args = (link, qos, CPA, scheme, 0.31, CFG.n_h)
        at_ceiling = solve_one(*args, delta=CFG.delta, n_p_init=ceiling)
        assert at_ceiling[0] is not None
        assert repr(solve_one(*args, delta=CFG.delta, n_p_init=math.inf)) == (
            repr(at_ceiling)
        )

    @pytest.mark.parametrize("start", [-150.0, -48.0, -math.inf])
    def test_start_below_one_bit_packet_rejected(self, start):
        """A start whose packet is shorter than one bit raises in the first
        step of the payload map; the lowest start allowed, ``1 - n_h``,
        solves to a rejection."""
        args = (link_at(10.0), CFG.qos, CPA, MODS["4QAM"], 0.31, CFG.n_h)
        with pytest.raises(ValueError, match=(
            rf"n_bits must be >= 1, got {CFG.n_h + start}"
        )):
            solve_one(*args, delta=CFG.delta, n_p_init=start)
        assert solve_one(*args, delta=CFG.delta, n_p_init=-47.0) == (
            None, "4QAM/tau=3: packet of 1 bits below the waterfall regime"
        )

    def test_floored_payload_below_waterfall_regime_is_rejected(self):
        """A payload that converges inside the waterfall regime can floor
        out of it; the integer step then rejects it as the loop would."""
        cfg = parse_config(
            "[link]\np0_mw = 1\nkappa = 3\nbandwidth_khz = 3\n"
            "[packet]\nn_h_bits = 3\n"
            "[qos]\ntarget_per = 0.0078125\nmax_retransmissions = 0\n"
        )
        scheme = {m.name: m for m in cfg.modulations}["BPSK"]
        args = (replace(cfg.link_template, distance_m=2.0), cfg.qos,
                cfg.pa_models[PaVariant.CPA], scheme,
                cfg.circuit_power[scheme.circuit_power_class], cfg.n_h)
        assert solve_one(*args, delta=cfg.delta, n_p_init=2.0) == (
            None, "BPSK/tau=0: packet of 4 bits below the waterfall regime"
        )

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
    def test_delta_outside_positive_finite_range_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be > 0 and finite"):
            joint_optimize(link_at(10.0), CFG.qos, CPA, CFG.modulations,
                           CFG.n_h, delta=delta,
                           circuit_power=CFG.circuit_power)

    def test_coefficients_outside_double_range_match_the_table(self):
        """A scheme whose coefficients leave the range of a double is a
        rejection with the same reason from a solve on its own as in its
        candidate table, although the SNR cap there carries no payload
        either: the coefficients are checked before the payload ceiling."""
        cfg = parse_config(
            "[link]\nbandwidth_khz = 3.9e251\n[circuit]\npc_mqam_mw = 4.8e-299\n"
        )
        rejected = rejections_matching_solves(
            cfg, (10.0, 20.0), (cfg.pa_models[PaVariant.CPA],))
        reasons = {r.split(":", 1)[1] for r in rejected}
        assert reasons == {
            " energy coefficients outside the range of a double "
            "(b_coeff must be positive finite, got 0.0)",
            " no payload meets the PER bound at full power "
            "(snr_max=1.018e-247)",
            " no payload meets the PER bound at full power "
            "(snr_max=9.001e-249)",
        }

    @pytest.mark.parametrize("cfg, distances, variants, reason",
                             REJECTION_TABLES.values(), ids=REJECTION_TABLES)
    def test_rejections_match_solves_on_their_own(self, cfg, distances,
                                                  variants, reason):
        """Each rejected table entry has the reason a solve of its candidate
        on its own gives: whether the set-up, the largest cap's payload
        ceiling or the solve rejected it."""
        rejected = rejections_matching_solves(
            cfg, distances or cfg.distances(),
            [cfg.pa_models[v] for v in variants])
        assert any(reason in r for r in rejected)

    @settings(max_examples=40, deadline=None)
    @given(**CUSTOM_SCHEME_SPACE)
    def test_custom_scheme_rejections_match_the_table(self, distance, pa,
                                                      **draw):
        """The same on short sweeps of a custom scheme's config, each
        spanning a factor of 11 in distance and so, often, the distance
        beyond which a scheme carries no payload."""
        try:
            cfg = parse_config(custom_scheme_ini(**draw))
        except ConfigError:
            return
        rejections_matching_solves(
            cfg, [distance * 2.0 ** (i / 2) for i in range(8)],
            [cfg.pa_models[PaVariant(pa)]])

    def test_reliability_floor_point_sits_on_bound(self):
        """Where the floor binds the realized PER equals the bound."""
        scheme = MODS["64QAM"]
        qos = QosSpec(CFG.qos.target_per, 3)
        point, reason = solve_one(
            link_at(10.0), qos, CPA, scheme, 0.31, CFG.n_h, delta=CFG.delta
        )
        assert reason is None
        assert point.binding is Binding.SNR_MIN_BOUND
        realized = per_rayleigh(scheme, CFG.n_h + point.n_p, point.gamma_bar)
        assert realized == pytest.approx(qos.per_attempt_bound, rel=1e-9)


class TestJointOptimize:
    def test_selects_high_order_at_short_range(self):
        point = joint_optimize(
            link_at(5.0), CFG.qos, CPA, CFG.modulations, CFG.n_h,
            delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert point.feasible
        assert point.scheme.name == "64QAM"
        assert point.p_t <= CFG.link_template.p0_w * (1 + 1e-12)

    def test_infeasible_marker_lists_reasons(self):
        point = joint_optimize(
            link_at(70.0), CFG.qos, CPA, (MODS["4QAM"],), CFG.n_h,
            delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert not point.feasible
        assert point.binding is Binding.INFEASIBLE
        assert len(point.failure_reasons) == CFG.qos.max_retransmissions

    def test_empty_modulation_set_rejected(self):
        """An empty set is the first error reported, before a bad delta."""
        for delta in (CFG.delta, math.nan):
            with pytest.raises(ValueError,
                               match="modulation_set must not be empty"):
                joint_optimize(
                    link_at(10.0), CFG.qos, CPA, (), CFG.n_h,
                    delta=delta, circuit_power=CFG.circuit_power,
                )

    def test_headerless_packet_rejected(self):
        with pytest.raises(ValueError, match="n_h must be >= 1"):
            joint_optimize(
                link_at(10.0), CFG.qos, CPA, CFG.modulations, 0,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )

    def test_tpa_selects_lower_order_than_etpa_midrange(self):
        """The square-root-law amplifier downgrades modulation earlier."""
        for d in (5.0, 15.0):
            tpa_point = joint_optimize(
                link_at(d), CFG.qos, TPA, CFG.modulations, CFG.n_h,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            etpa_point = joint_optimize(
                link_at(d), CFG.qos, ETPA, CFG.modulations, CFG.n_h,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            assert (
                tpa_point.scheme.bits_per_symbol
                < etpa_point.scheme.bits_per_symbol
            )

    def test_tpa_interior_point_satisfies_cubic_stationarity(self):
        """An unconstrained TPA point sits on the root of its cubic."""
        point = joint_optimize(
            link_at(3.0), CFG.qos, TPA, CFG.modulations, CFG.n_h,
            delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert point.binding is Binding.UNCONSTRAINED
        scheme = point.scheme
        p_c = CFG.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(TPA, scheme, link_at(3.0), p_c)
        p, q = tpa_cubic(coeffs, scheme, point.n_p, CFG.n_h)
        again = cubic_root_bisection(p, q) ** 2
        assert again == pytest.approx(point.gamma_bar, rel=1e-9)

    def test_exact_ties_prefer_earlier_candidate(self):
        """Duplicated schemes give identical energies; the first name wins."""
        twin_a = replace(MODS["16QAM"], name="A16QAM")
        twin_b = replace(MODS["16QAM"], name="B16QAM")
        point = joint_optimize(
            link_at(15.0), CFG.qos, ETPA, (twin_b, twin_a), CFG.n_h,
            delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert point.feasible
        assert point.scheme.name == "A16QAM"

    def test_scale_invariance_of_selection(self):
        """Scaling every power figure jointly never moves the selection."""
        factor = 7.3
        for d in (5.0, 20.0, 40.0):
            link = link_at(d)
            base = joint_optimize(
                link, CFG.qos, ETPA, CFG.modulations, CFG.n_h,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            scaled = joint_optimize(
                replace(link, n0=link.n0 * factor, p0_w=link.p0_w * factor),
                CFG.qos,
                replace(ETPA, p_t_max=ETPA.p_t_max * factor),
                CFG.modulations, CFG.n_h, delta=CFG.delta,
                circuit_power={
                    k: v * factor for k, v in CFG.circuit_power.items()
                },
            )
            assert base.feasible == scaled.feasible
            if base.feasible:
                assert base.scheme.name == scaled.scheme.name
                assert base.n_p == scaled.n_p
                assert scaled.energy == pytest.approx(
                    base.energy * factor, rel=1e-9
                )


class TestSweepDistance:
    def test_row_count_and_order(self):
        distances = [2.0, 5.0, 11.0, 47.0, 75.0]
        points = sweep(distances, CPA)
        assert len(points) == len(distances)

    def test_infeasible_tail_is_data_not_error(self):
        points = sweep([60.0, 70.0, 80.0], CPA, (MODS["4QAM"],))
        assert all(not p.feasible for p in points)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            sweep([1.0, 0.0], CPA)

    def test_feasibility_horizon_is_prefix(self):
        distances = [float(d) for d in range(2, 82, 4)]
        for pa in (CPA, TPA, ETPA):
            points = sweep(distances, pa)
            flags = [p.feasible for p in points]
            assert flags == sorted(flags, reverse=True)

    def test_points_independent_of_sweep_context(self):
        """Each sweep row equals a standalone solve at that distance."""
        distances = [4.0, 12.0, 28.0]
        swept = sweep(distances, ETPA)
        for d, point in zip(distances, swept):
            alone = joint_optimize(
                link_at(d), CFG.qos, ETPA, CFG.modulations, CFG.n_h,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            assert alone == point

    def test_etpa_payload_ramp_inside_16qam_band(self):
        """Payload plateaus early in the 16QAM band, then climbs steeply."""
        distances = [13.0, 15.0, 17.0, 19.0, 21.0, 23.0]
        points = sweep(distances, ETPA)
        by_d = dict(zip(distances, points))
        assert all(p.scheme.name == "16QAM" for p in points)
        plateau = by_d[15.0].n_p
        assert abs(by_d[13.0].n_p - plateau) <= 0.1 * plateau
        assert by_d[23.0].n_p >= 1.5 * plateau
        assert by_d[23.0].n_p > by_d[21.0].n_p > by_d[19.0].n_p

    def test_transmit_power_matches_snr(self):
        points = sweep([5.0, 15.0, 30.0], ETPA)
        for d, point in zip([5.0, 15.0, 30.0], points):
            assert point.p_t == pytest.approx(
                transmit_power(point.gamma_bar, link_at(d)), rel=1e-12
            )


class TestCandidateTables:
    def test_distance_major_and_equal_to_joint_optimize(self):
        """Tables come distance-major, amplifiers in the given order, and
        each one selects what a standalone solve at that point returns."""
        distances = [3.0, 17.0, 60.0]
        pas = [TPA, CPA, ETPA]
        tables = list(CFG.tables(distances, pas))
        assert [(d, pa) for d, pa, _ in tables] == [
            (d, pa) for d in distances for pa in pas
        ]
        for d, pa, table in tables:
            alone = joint_optimize(
                link_at(d), CFG.qos, pa, CFG.modulations, CFG.n_h,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            assert select_best(table) == alone

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_rejects_non_positive_distance(self, bad):
        tables = CFG.tables([4.0, bad], [CPA])
        with pytest.raises(ValueError, match="distances must be positive"):
            list(tables)


class TestEnergyFloor:
    """``_energy_floor``, the bound by which a table bounded for selection
    skips a solve, lies at or below the energy of every feasible entry of
    whole tables, and its coupled term is what tightens it."""

    @staticmethod
    def floor_over_energy(cfg, distances, pas, coupled=True):
        """``_energy_floor / energy`` of each feasible entry of ``cfg``'s
        whole tables, the floor given the entry's set-up and cap (without
        its coupled term when ``coupled`` is False)."""
        ratios = []
        for d, pa, table in cfg.tables(distances, pas):
            for scheme, tau, point, _ in table:
                if point is None:
                    continue
                setup = optimizer._law_setup(optimizer._scheme_law(
                    cfg.link_template, pa, scheme,
                    cfg.circuit_power[scheme.circuit_power_class],
                ), cfg.link_template.gain_at(d), cfg.n_h)
                spec = QosSpec(cfg.qos.target_per, tau)
                ceiling = payload_max(scheme, cfg.n_h, setup[6], spec)
                w1, k = optimizer._floor_terms(setup, math.log(cfg.n_h))
                ratios.append(optimizer._energy_floor(
                    setup, spec, ceiling, (w1, k if coupled else 0.0))
                    / point.energy)
        return ratios

    def test_default_tables(self):
        """The 1,824 feasible entries of the default whole tables: the
        median ratio rises from 0.870 without the coupled term to 0.904."""
        args = (CFG, CFG.distances(), CFG.pa_models.values())
        ratios = self.floor_over_energy(*args)
        decoupled = self.floor_over_energy(*args, coupled=False)
        assert len(ratios) == 1824
        assert max(ratios) <= 1.0 + 1e-12
        assert all(r >= r0 for r, r0 in zip(ratios, decoupled))
        assert round(statistics.median(decoupled), 3) == 0.870
        assert round(statistics.median(ratios), 3) == 0.904

    def test_point_query_batch(self):
        """Batch 1 of the benchmark's point-query stream of seed 1."""
        ratios = []
        for query in WORKLOADS.generate_queries(1, 1, 300):
            config = parse_config(query.ini)
            ratios += self.floor_over_energy(
                config, (query.distance_m,),
                (config.pa_models[PaVariant(query.pa)],))
        assert len(ratios) == 2254
        assert max(ratios) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n_h", [*range(1, 17), 256])
    def test_header_sizes(self, n_h):
        """The default whole tables under all three amplifiers with headers
        of 1 to 16 bits and 256 bits, where the coupled term is dropped for
        the schemes with ``c_eff n_h`` at or below ``exp(-EULER_GAMMA)``."""
        cfg = replace(CFG, n_h=n_h)
        ratios = self.floor_over_energy(cfg, cfg.distances()[::3],
                                        cfg.pa_models.values())
        assert ratios and max(ratios) <= 1.0 + 1e-12

    @staticmethod
    def set_ups_with_falling_floors(cfg, distances):
        """How many of ``cfg``'s set-ups at ``distances`` carry a payload
        at its largest cap, after checking that each one's payload ceilings
        rise with the cap and its energy floors, at the caps with a ceiling
        of one bit or more, fall with it, as computed in floating point.  A
        table bounds a scheme out whole on its largest cap's floor, which
        relies on the second."""
        top = cfg.qos.max_retransmissions
        specs = [QosSpec(cfg.qos.target_per, tau)
                 for tau in range(min(top, 1), top + 1)]
        count = 0
        for d in distances:
            for pa in cfg.pa_models.values():
                for scheme in cfg.modulations:
                    setup = optimizer._law_setup(optimizer._scheme_law(
                        cfg.link_template, pa, scheme,
                        cfg.circuit_power[scheme.circuit_power_class]),
                        cfg.link_template.gain_at(d), cfg.n_h, specs[-1])
                    if len(setup) == 2:
                        continue
                    count += 1
                    terms = optimizer._floor_terms(setup, math.log(cfg.n_h))
                    ceilings = [payload_max(scheme, cfg.n_h, setup[6], spec)
                                for spec in specs]
                    assert ceilings == sorted(ceilings)
                    floors = [optimizer._energy_floor(setup, spec, c, terms)
                              for spec, c in zip(specs, ceilings) if c >= 1]
                    assert not any(lower > higher for higher, lower
                                   in zip(floors, floors[1:]))
        return count

    def test_floors_fall_with_the_cap(self):
        """On the default grid and on the seeded extreme configs of
        ``tests/test_reasons.py``."""
        assert self.set_ups_with_falling_floors(CFG, CFG.distances()) == 753
        counts = [self.set_ups_with_falling_floors(cfg, distances)
                  for _, cfg, distances in seeded_draws()]
        assert (len(counts), sum(counts)) == (131, 2001)

    @pytest.mark.parametrize("pa", [CPA, TPA, ETPA], ids=lambda pa: pa.variant.value)
    def test_floor_at_the_threshold_bounds_out_nothing(self, monkeypatch, pa):
        """A floor of exactly ``best (1 + 1e-3)`` bounds out neither a cap
        nor a whole scheme: with the winning scheme's floors 0, so that it
        is solved first, and every other floor that threshold against the
        lowest energy of the whole table, the bounded table at 20 m equals
        the whole one."""
        [(_, _, whole)] = CFG.tables((20.0,), (pa,))
        best = min((c.point for c in whole if c.point is not None),
                   key=lambda point: point.energy)
        threshold = best.energy * (1.0 + 1e-3)
        monkeypatch.setattr(optimizer, "_energy_floor", lambda setup, *_: (
            0.0 if setup[0] is best.scheme else threshold))
        [(_, _, bounded)] = CFG.tables((20.0,), (pa,), ())
        assert bounded == whole

    def test_coupled_term_dropped_only_outside_its_proof(self):
        """``k`` is 0 exactly where ``w(n_h) = log(c_eff n_h) + EULER_GAMMA
        <= 0``, so with a 1-bit header for the default schemes of small
        ``c_eff``, and positive at the default header."""
        g_d = CFG.link_template.gain_at(10.0)
        for n_h in (1, 2, CFG.n_h):
            for pa in CFG.pa_models.values():
                for scheme in CFG.modulations:
                    setup = optimizer._law_setup(optimizer._scheme_law(
                        CFG.link_template, pa, scheme,
                        CFG.circuit_power[scheme.circuit_power_class]),
                        g_d, n_h)
                    _, k = optimizer._floor_terms(setup, math.log(n_h))
                    w_h = math.log(scheme.c_eff * n_h) + EULER_GAMMA
                    assert (k > 0.0) is (w_h > 0.0)
        assert any(math.log(m.c_eff) + EULER_GAMMA <= 0.0
                   for m in CFG.modulations)

    def test_root_floor_against_bisection(self):
        """The floor ``_floor_terms`` takes on the root ``x > 1`` of ``x -
        log x = c`` (its ``k`` under CPA at ``k_eff = 1``) lies at or below
        the root, found by bisection on ``e = x - 1`` (``e - log1p(e) = c -
        1`` keeps its digits near ``c = 1``), and within 1e-2 of it
        relative, over ``c`` in (1, 50].  Below ``c - 1 = 1e-6`` the bound's
        gap, about ``(2 (c - 1))^1.5 / 36``, falls toward the rounding of
        the root itself, so the grid starts there."""
        def root(c):
            lo, hi = 0.0, 2.0 * c + 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid - math.log1p(mid) < c - 1.0:
                    lo = mid
                else:
                    hi = mid
            return 1.0 + hi

        cs = [1.0 + 10.0 ** -e for e in range(1, 7)]
        cs += [1.0 + 49.0 * i / 2000 for i in range(1, 2001)]
        scheme = SimpleNamespace(c_eff=1.0, log_c_eff=0.0, k_eff=1.0)
        setup = [scheme, None, None, CFG.pa_models[PaVariant.CPA], 1]
        for c in cs:
            log_n_h = c - 1.0 - EULER_GAMMA
            c = log_n_h + scheme.log_c_eff + EULER_GAMMA + 1.0  # as summed there
            x, (_, bound) = root(c), optimizer._floor_terms(setup, log_n_h)
            assert 1.0 < bound <= x
            assert bound >= x * (1.0 - 1e-2)

    @settings(max_examples=60, deadline=None)
    @given(
        p0_mw=st.floats(1.0, 100.0), kappa=st.floats(2.5, 4.0),
        bandwidth_khz=st.floats(3.0, 100.0), n_h=st.integers(1, 256),
        target_per=st.floats(1e-4, 1e-2), tau=st.integers(0, 5),
        distance=st.floats(2.0, 80.0), pa=st.sampled_from(list(PaVariant)),
    )
    def test_point_query_like_configs(self, p0_mw, kappa, bandwidth_khz, n_h,
                                      target_per, tau, distance, pa):
        """Configs drawn as the benchmark's point queries are, with headers
        of 1 to 256 bits: the floor of every feasible whole-table entry lies
        at or below its energy."""
        config = parse_config(
            f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
            f"bandwidth_khz = {bandwidth_khz!r}\n"
            f"[packet]\nn_h_bits = {n_h}\n"
            f"[qos]\ntarget_per = {target_per!r}\n"
            f"max_retransmissions = {tau}\n")
        ratios = self.floor_over_energy(config, (distance,),
                                        (config.pa_models[pa],))
        assert all(r <= 1.0 + 1e-12 for r in ratios)


class TestDefaultPassWork:
    def test_solves_maps_evaluations_and_specs(self, monkeypatch):
        """One default pass sets up 1,422 (distance, amplifier, scheme)
        triples.  669 of them carry no payload at full power under the
        largest cap, so every cap is rejected with no coefficients, map or
        solve; the other 753 build one ``EnergyCoefficients`` and one map
        each, on their first solve, and solve 1,755 candidates with 3,718 loop evaluations (6,474
        when every distance starts cold) and 1,320 integer passes; the other
        504 of their 2,259 candidates share the interior point of a smaller
        cap, with no solve.  The QoS spec of each of the 2 caps below the
        caller's is built once, the path gain is evaluated once per
        distance, 79 times, and ``log1p(-per_attempt_bound)`` once per spec
        built, 2 times.  No
        ``LinkBudget`` is built: a distance reaches the set-ups only as its
        path gain."""
        calls = Counter()
        solved = set()
        solve, build, spec, coefficients = (
            optimizer._solve_candidate, optimizer.payload_map,
            optimizer.QosSpec, optimizer.EnergyCoefficients)
        gain_at, log1p = LinkBudget.gain_at, math.log1p
        check_link = LinkBudget.__post_init__

        def counting_solve(setup, *args):
            calls["solve"] += 1
            # The set-up carries the distance as its path gain, one per
            # distance of the grid.
            scheme, _, g_d, pa = setup[:4]
            solved.add((g_d, pa.variant, scheme.name))
            return solve(setup, *args)

        def counting_map(*inputs):
            calls["map"] += 1
            step = build(*inputs)

            def counted(n_p, log_keep):
                calls["integer" if isinstance(n_p, int) else "loop"] += 1
                return step(n_p, log_keep)
            return counted

        def counting_spec(*args):
            calls["spec"] += 1
            return spec(*args)

        def counting_coefficients(*args):
            calls["coefficients"] += 1
            return coefficients(*args)

        def counting_gain(*args):
            calls["gain"] += 1
            return gain_at(*args)

        def counting_log1p(x):
            calls["log1p"] += 1
            return log1p(x)

        def counting_link(link):
            calls["link"] += 1
            check_link(link)

        monkeypatch.setattr(optimizer, "_solve_candidate", counting_solve)
        monkeypatch.setattr(optimizer, "payload_map", counting_map)
        monkeypatch.setattr(optimizer, "QosSpec", counting_spec)
        monkeypatch.setattr(optimizer, "EnergyCoefficients",
                            counting_coefficients)
        monkeypatch.setattr(LinkBudget, "gain_at", counting_gain)
        monkeypatch.setattr(math, "log1p", counting_log1p)
        monkeypatch.setattr(LinkBudget, "__post_init__", counting_link)
        entries = sum(len(table) for _, _, table in CFG.tables(
            CFG.distances(), CFG.pa_models.values()))
        assert calls == {"solve": 1755, "map": 753, "coefficients": 753,
                         "loop": 3718, "integer": 1320, "spec": 2, "gain": 79,
                         "log1p": 2}
        assert calls["link"] == 0
        set_ups = entries // CFG.qos.max_retransmissions
        assert (entries, set_ups) == (4266, 1422)
        assert set_ups - len(solved) == 669


    @staticmethod
    def count_solves_and_evaluations(monkeypatch):
        """A Counter of candidate solves and payload-map evaluations, integer
        steps included, made from here on."""
        calls = Counter()
        solve, build = optimizer._solve_candidate, optimizer.payload_map

        def counting_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counting_map(*inputs):
            step = build(*inputs)

            def counted(*args):
                calls["evaluation"] += 1
                return step(*args)
            return counted

        monkeypatch.setattr(optimizer, "_solve_candidate", counting_solve)
        monkeypatch.setattr(optimizer, "payload_map", counting_map)
        return calls

    def test_default_grid_one_distance_at_a_time(self, monkeypatch):
        """The 237 default tables built one distance at a time, as
        ``joint_optimize`` and ``optimize`` build them, so that every solve
        starts cold: 1,755 solves and 7,794 map evaluations (2,259 and
        10,257 with a start of 0 and a solve per cap)."""
        calls = self.count_solves_and_evaluations(monkeypatch)
        for d in CFG.distances():
            for _ in CFG.tables((d,), CFG.pa_models.values()):
                pass
        assert calls == {"solve": 1755, "evaluation": 7794}

    @staticmethod
    def point_query_batches(keep_best_of):
        """Batches 1 to 3 of the benchmark's point-query stream of seed 1,
        one single-distance table per query."""
        for batch in (1, 2, 3):
            for query in WORKLOADS.generate_queries(1, batch, 300):
                config = parse_config(query.ini)
                for _ in config.tables(
                    (query.distance_m,),
                    (config.pa_models[PaVariant(query.pa)],), keep_best_of,
                ):
                    pass

    def test_point_query_batches(self, monkeypatch):
        """:meth:`point_query_batches` with whole tables: 5,630 solves and
        28,002 map evaluations (7,979 and 37,352 with a start of 0 and a
        solve per cap)."""
        calls = self.count_solves_and_evaluations(monkeypatch)
        self.point_query_batches(None)
        assert calls == {"solve": 5630, "evaluation": 28002}

    def test_point_query_batches_bounded(self, monkeypatch):
        """The same with the tables bounded for selection, as
        ``joint_optimize`` builds them: 1,646 solves and 8,322 map
        evaluations (2,406 and 8,322 with a bound per cap alone, 2,790 and
        10,861 with the decoupled energy floor)."""
        calls = self.count_solves_and_evaluations(monkeypatch)
        self.point_query_batches(())
        assert calls == {"solve": 1646, "evaluation": 8322}

    def test_default_sweep_bounded(self, monkeypatch):
        """The default sweep with the tables bounded for selection, as
        ``sweep`` builds them: 482 solves and 1,635 map evaluations (814
        and 1,635 with a bound per cap alone, 934 and 2,277 with the
        decoupled energy floor, 1,755 and 5,038 for whole tables)."""
        calls = self.count_solves_and_evaluations(monkeypatch)
        for _ in CFG.tables(CFG.distances(), CFG.pa_models.values(), ()):
            pass
        assert calls == {"solve": 482, "evaluation": 1635}


class TestTableEntries:
    """The solve builds its entries with ``tuple.__new__``, which does not
    check how many fields it is given; every entry must still be a whole
    ``Candidate``, and every feasible point a whole ``OperatingPoint``."""

    @staticmethod
    def check(tables):
        kinds = Counter()
        for table in tables:
            for entry in table:
                assert type(entry) is Candidate
                assert len(entry) == len(Candidate._fields)
                point = entry.point
                kinds[point is None] += 1
                if point is not None:
                    assert type(point) is OperatingPoint
                    assert len(point) == len(OperatingPoint._fields) == 10
                    assert point.failure_reasons == ()
        assert kinds[True] and kinds[False]

    def test_default_tables(self):
        tables = [table for _, _, table in CFG.tables(
            CFG.distances(), CFG.pa_models.values())]
        assert len(tables) == 237
        self.check(tables)

    def test_point_query_batch(self):
        tables = []
        for query in WORKLOADS.generate_queries(0, 0, 300):
            config = parse_config(query.ini)
            [(_, _, table)] = config.tables(
                (query.distance_m,), (config.pa_models[PaVariant(query.pa)],))
            tables.append(table)
        self.check(tables)


class TestOperatingPoint:
    def test_repr_of_a_default_point(self):
        point = joint_optimize(
            link_at(20.0), CFG.qos, CPA, CFG.modulations, CFG.n_h,
            delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert repr(point) == (
            "OperatingPoint(scheme=ModulationScheme(name='16QAM', "
            "bits_per_symbol=4, ber_form=<BerForm.GAUSSIAN_Q: 'gaussian_q'>, "
            "c_m=0.75, k_m=0.8, papr=14.25, "
            "circuit_power_class=<CircuitClass.MQAM: 'mqam'>), "
            "gamma_bar=53.1090363249008, n_p=325, tau_r=3, "
            "energy=1.3174822340358124e-05, p_t=0.0015128762377444292, "
            "p_pa=0.026948107984822642, feasible=True, "
            "binding=<Binding.SNR_MIN_BOUND: 'snr_min'>, failure_reasons=())"
        )

    def test_equal_and_hashed_alike_across_solves(self):
        args = (link_at(10.0), CFG.qos, CPA, MODS["64QAM"], 0.31, CFG.n_h)
        one, _ = solve_one(*args, delta=CFG.delta)
        two, _ = solve_one(*args, delta=CFG.delta)
        assert one is not two
        assert one == two and hash(one) == hash(two)

    def test_fields_cannot_be_assigned(self):
        point = select_best([])
        with pytest.raises(AttributeError):
            point.energy = 1.0


class TestRandomizedOracleEquivalence:
    def test_closed_forms_match_numeric_argmin(self):
        """Randomized instances: closed-form optima equal search optima."""
        rng = random.Random(424242)
        schemes = list(CFG.modulations)
        pas = [CPA, TPA, ETPA]
        for _ in range(60):
            scheme = rng.choice(schemes)
            pa = rng.choice(pas)
            link = link_at(rng.uniform(1.0, 80.0))
            n_p = rng.randrange(16, 2000)
            p_c = CFG.circuit_power[scheme.circuit_power_class]
            coeffs = energy_coefficients(pa, scheme, link, p_c)
            star = snr_optimum(coeffs, scheme, n_p, CFG.n_h)
            f, w0 = snr_energy_curve(coeffs, scheme, n_p, CFG.n_h)
            numeric = golden_section_min_relative(f, w0 * 1e-3, w0 * 1e9, 1e-9)
            assert star == pytest.approx(numeric, rel=1e-6)
