"""Tests for the closed-form optima, conditioning and the joint search."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt.config import default_config
from linkopt.energy import (
    PaModel,
    PaVariant,
    energy_coefficients,
    path_gain,
    transmit_power,
)
from linkopt.optimizer import (
    Binding,
    _depressed_cubic_root,
    _packet_energy_unbounded,
    _payload_continuous_quadratic,
    _payload_continuous_tpa,
    _tpa_cubic,
    constrain_snr,
    golden_section_min,
    golden_section_min_relative,
    joint_optimize,
    optimal_payload_quadratic,
    optimal_payload_tpa,
    optimal_snr_quadratic,
    optimal_snr_tpa,
    snr_max,
    solve_candidate,
    sweep_distance,
    tpa_payload_diagnostic,
)
from linkopt.per import QosSpec, per_rayleigh, snr_min, waterfall_threshold
from linkopt.validation import cubic_root_bisection

CFG = default_config()
MODS = {m.name: m for m in CFG.modulations}
CPA = CFG.pa_models[PaVariant.CPA]
TPA = CFG.pa_models[PaVariant.TPA]
ETPA = CFG.pa_models[PaVariant.ETPA]


def link_at(d):
    return replace(CFG.link_template, distance_m=d)


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
            link.bandwidth_hz * link.n0 * path_gain(link)
        )
        assert snr_max(link, scheme, CPA) == pytest.approx(expected, rel=1e-12)
        assert snr_max(link, scheme) == pytest.approx(expected, rel=1e-12)

    def test_peak_headroom_binds_for_high_papr(self):
        pa = PaModel(PaVariant.ETPA, 0.8, 0.02)
        scheme = MODS["64QAM"]
        link = link_at(10.0)
        capped = snr_max(link, scheme, pa)
        uncapped = snr_max(link, scheme)
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
        assert optimal_snr_quadratic(tiny, w0, 976, 48) == pytest.approx(
            w0, rel=1e-6
        )

    @pytest.mark.parametrize("pa", [CPA, ETPA], ids=["cpa", "etpa"])
    @pytest.mark.parametrize("d", [3.0, 10.0, 25.0])
    @pytest.mark.parametrize("name", ["OQPSK", "4QAM", "16QAM", "64QAM"])
    def test_matches_golden_section(self, pa, d, name):
        scheme = MODS[name]
        coeffs = energy_coefficients(pa, scheme, link_at(d), 0.31)
        n_p = 976
        star = optimal_snr_quadratic(
            coeffs, waterfall_threshold(scheme, n_p + 48), n_p, 48
        )
        f, w0 = snr_energy_curve(coeffs, scheme, n_p, 48)
        numeric = golden_section_min_relative(f, w0 * 1e-3, w0 * 1e9, 1e-9)
        assert star == pytest.approx(numeric, rel=1e-6)

    def test_dominant_circuit_asymptote(self):
        """For a huge circuit term the optimum grows like its square root."""
        coeffs = energy_coefficients(CPA, MODS["4QAM"], link_at(5.0), 0.31)
        w0 = waterfall_threshold(MODS["4QAM"], 1024)
        rho = 976 / 1024
        big = replace(coeffs, b_coeff=coeffs.a_coeff * 1e9)
        star = optimal_snr_quadratic(big, w0, 976, 48)
        assert star == pytest.approx(math.sqrt(w0 * 1e9 * rho), rel=1e-3)

    def test_rejects_tpa_coefficients(self):
        coeffs = energy_coefficients(TPA, MODS["4QAM"], link_at(5.0), 0.31)
        with pytest.raises(ValueError):
            optimal_snr_quadratic(coeffs, 5.0, 976, 48)


class TestOptimalSnrTpa:
    def test_vanishing_circuit_term_limit(self):
        """With no circuit energy the root sits at twice the threshold."""
        coeffs = energy_coefficients(TPA, MODS["16QAM"], link_at(10.0), 0.31)
        tiny = replace(coeffs, b_coeff=coeffs.a_coeff * 1e-15)
        scheme = MODS["16QAM"]
        w0 = waterfall_threshold(scheme, 1024)
        assert optimal_snr_tpa(tiny, w0, scheme.k_eff, 976, 48) == pytest.approx(
            2.0 * w0, rel=1e-6
        )

    @pytest.mark.parametrize("d", [2.0, 8.0, 20.0])
    @pytest.mark.parametrize("name", ["OQPSK", "16QAM", "64QAM"])
    def test_matches_golden_section(self, d, name):
        scheme = MODS[name]
        coeffs = energy_coefficients(TPA, scheme, link_at(d), 0.31)
        n_p = 512
        w0 = waterfall_threshold(scheme, n_p + 48)
        star = optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p, 48)
        f, _ = snr_energy_curve(coeffs, scheme, n_p, 48)
        numeric = golden_section_min_relative(f, w0 * 1e-3, w0 * 1e9, 1e-9)
        assert star == pytest.approx(numeric, rel=1e-6)

    @staticmethod
    def _root_against_bisection(coeffs, scheme):
        """Discriminant of the 16QAM cubic and the root's error to bisection."""
        w0 = waterfall_threshold(scheme, 1024)
        p, q = _tpa_cubic(coeffs, w0, scheme.k_eff, 976, 48)
        root = optimal_snr_tpa(coeffs, w0, scheme.k_eff, 976, 48)
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

    def test_rejects_non_tpa_coefficients(self):
        coeffs = energy_coefficients(CPA, MODS["4QAM"], link_at(5.0), 0.31)
        with pytest.raises(ValueError):
            optimal_snr_tpa(coeffs, 5.0, 1.1196, 976, 48)


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
    def test_interior_optimum_kept(self):
        assert constrain_snr(50.0, 10.0, 100.0) == (50.0, Binding.UNCONSTRAINED)

    def test_floor_binds(self):
        assert constrain_snr(5.0, 10.0, 100.0) == (10.0, Binding.SNR_MIN_BOUND)

    def test_cap_binds(self):
        assert constrain_snr(500.0, 10.0, 100.0) == (100.0, Binding.SNR_MAX_BOUND)

    def test_empty_window_is_infeasible_value(self):
        selected, binding = constrain_snr(50.0, 100.0, 10.0)
        assert selected is None
        assert binding is Binding.INFEASIBLE

    def test_fixed_payload_regimes_across_distance(self):
        """4QAM at 976 payload bits walks optimum, floor, infeasible."""
        scheme = MODS["4QAM"]
        qos = CFG.qos
        floor = snr_min(scheme, CFG.n_h, 976, qos)
        w0 = waterfall_threshold(scheme, 976 + CFG.n_h)
        seen = []
        for d in (10.0, 36.0, 70.0):
            link = link_at(d)
            coeffs = energy_coefficients(CPA, scheme, link, 0.31)
            cap = snr_max(link, scheme, CPA)
            if floor > cap:
                seen.append(Binding.INFEASIBLE)
                continue
            star = optimal_snr_quadratic(coeffs, w0, 976, CFG.n_h)
            seen.append(constrain_snr(star, floor, cap)[1])
        assert seen == [
            Binding.UNCONSTRAINED, Binding.SNR_MIN_BOUND, Binding.INFEASIBLE,
        ]


class TestOptimalPayloadQuadratic:
    @pytest.mark.parametrize("name", ["OQPSK", "16QAM", "64QAM"])
    @pytest.mark.parametrize("snr_db", [16, 24, 32])
    def test_matches_golden_section(self, name, snr_db):
        scheme = MODS[name]
        coeffs = energy_coefficients(ETPA, scheme, link_at(10.0), 0.31)
        g = 10.0 ** (snr_db / 10.0)
        star = optimal_payload_quadratic(coeffs, scheme, 48, g)
        f = lambda n_p: _packet_energy_unbounded(coeffs, scheme, 48, g, n_p)
        hi = 16.0
        while f(hi) <= f(hi / 2.0):
            hi *= 2.0
        numeric = golden_section_min(f, 1.0, hi, 1e-4)
        assert abs(star - math.floor(numeric)) <= 1

    def test_linear_in_overhead(self):
        """The continuous stationary point is homogeneous in the overhead."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        one = _payload_continuous_quadratic(coeffs, scheme, 48, 300.0)
        two = _payload_continuous_quadratic(coeffs, scheme, 96, 300.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)
        floored_one = optimal_payload_quadratic(coeffs, scheme, 48, 300.0)
        floored_two = optimal_payload_quadratic(coeffs, scheme, 96, 300.0)
        assert abs(floored_two - 2 * floored_one) <= 1

    def test_high_snr_growth_rate(self):
        """payload / overhead approaches k_eff * snr for large SNR."""
        scheme = MODS["OQPSK"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        g = 1e7
        value = _payload_continuous_quadratic(coeffs, scheme, 48, g)
        assert value / 48 == pytest.approx(scheme.k_eff * g, rel=1e-2)

    def test_degenerate_payload_raises(self):
        """A huge circuit term at low SNR pushes the optimum below one bit."""
        from linkopt.errors import DegeneratePayloadError

        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(ETPA, scheme, link_at(2.0), 0.31)
        inflated = replace(coeffs, b_coeff=coeffs.a_coeff * 1e8)
        with pytest.raises(DegeneratePayloadError):
            optimal_payload_quadratic(inflated, scheme, 48, 20.0)

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
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(10.0), 0.31)
        g = 10.0 ** 2.2
        star = optimal_payload_tpa(coeffs, scheme, 48, g)
        f = lambda n_p: _packet_energy_unbounded(coeffs, scheme, 48, g, n_p)
        assert f(star) <= f(star - 1) + 1e-18
        assert f(star) <= f(star + 1) + 1e-18

    def test_matches_stationary_point(self):
        """Numeric search agrees with the payload stationarity root."""
        scheme = MODS["64QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(6.0), 0.31)
        for snr_db in (20, 28, 34):
            g = 10.0 ** (snr_db / 10.0)
            numeric = optimal_payload_tpa(coeffs, scheme, 48, g)
            analytic = _payload_continuous_tpa(coeffs, scheme, 48, g)
            assert abs(numeric - math.floor(analytic)) <= 1

    def test_cpa_limit_model_swap(self):
        """Run the numeric machinery on CPA-form energy: the quadratic wins."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(CPA, scheme, link_at(10.0), 0.31)
        g = 10.0 ** 2.4
        f = lambda n_p: _packet_energy_unbounded(coeffs, scheme, 48, g, n_p)
        hi = 16.0
        while f(hi) <= f(hi / 2.0):
            hi *= 2.0
        numeric = math.floor(golden_section_min(f, 1.0, hi, 1e-4))
        assert abs(numeric - optimal_payload_quadratic(coeffs, scheme, 48, g)) <= 1

    def test_diagnostic_guard_and_self_reference(self):
        """The legacy radical needs the SNR guard and a trial payload."""
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(10.0), 0.31)
        guard = (coeffs.b_coeff / coeffs.a_coeff) ** 2
        with pytest.raises(ValueError, match="gamma_bar"):
            tpa_payload_diagnostic(coeffs, scheme, 48, guard * 0.5, 500.0)
        value = tpa_payload_diagnostic(coeffs, scheme, 48, guard * 50.0, 0.0)
        assert math.isfinite(value)

    def test_diagnostic_sign_flip_recovers_optimum(self):
        """Replacing the -n_p^2 radicand term with +n_h^2 gives the optimum.

        Documents the relation between the legacy self-referential radical
        and the true stationary point the numeric route converges to.
        """
        scheme = MODS["16QAM"]
        coeffs = energy_coefficients(TPA, scheme, link_at(10.0), 0.31)
        g = 10.0 ** 2.6
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
        assert flipped == pytest.approx(
            _payload_continuous_tpa(coeffs, scheme, 48, g), rel=1e-9
        )
        assert abs(math.floor(flipped) - optimal_payload_tpa(
            coeffs, scheme, 48, g
        )) <= 1


class TestSolveCandidate:
    def test_interior_fixed_point_satisfies_both_stationarities(self):
        """At an interior fixed point both updates are self-consistent."""
        scheme = MODS["64QAM"]
        link = link_at(5.0)
        qos = QosSpec(CFG.qos.target_per, 2)
        point, reason = solve_candidate(
            link, qos, CPA, scheme, 0.31, CFG.n_h, delta=CFG.delta
        )
        assert reason is None and point.feasible
        assert point.binding is Binding.UNCONSTRAINED
        coeffs = energy_coefficients(CPA, scheme, link, 0.31)
        w0 = waterfall_threshold(scheme, CFG.n_h + point.n_p)
        snr_again = optimal_snr_quadratic(coeffs, w0, point.n_p, CFG.n_h)
        assert snr_again == pytest.approx(point.gamma_bar, rel=1e-9)
        payload_again = _payload_continuous_quadratic(
            coeffs, scheme, CFG.n_h, point.gamma_bar
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
            point, reason = solve_candidate(
                link, qos, ETPA, scheme, 0.31, CFG.n_h,
                delta=CFG.delta, n_p_init=rng.uniform(1.0, 4000.0),
            )
            assert reason is None
            energies.add(round(point.energy, 18))
        assert len(energies) == 1

    def test_infeasible_far_range(self):
        point, reason = solve_candidate(
            link_at(70.0), QosSpec(0.001, 3), CPA, MODS["4QAM"], 0.31, CFG.n_h
        )
        assert point is None
        assert "PER bound" in reason or "snr_min" in reason

    def test_reliability_floor_point_sits_on_bound(self):
        """Where the floor binds the realized PER equals the bound."""
        scheme = MODS["64QAM"]
        qos = QosSpec(CFG.qos.target_per, 3)
        point, reason = solve_candidate(
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
        with pytest.raises(ValueError):
            joint_optimize(
                link_at(10.0), CFG.qos, CPA, (), CFG.n_h,
                circuit_power=CFG.circuit_power,
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
        """An unconstrained TPA point sits on the cubic root exactly."""
        point = joint_optimize(
            link_at(3.0), CFG.qos, TPA, CFG.modulations, CFG.n_h,
            delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert point.binding is Binding.UNCONSTRAINED
        scheme = point.scheme
        p_c = CFG.circuit_power[scheme.circuit_power_class]
        coeffs = energy_coefficients(TPA, scheme, link_at(3.0), p_c)
        w0 = waterfall_threshold(scheme, CFG.n_h + point.n_p)
        again = optimal_snr_tpa(coeffs, w0, scheme.k_eff, point.n_p, CFG.n_h)
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
        points = sweep_distance(
            CFG.link_template, distances, CFG.qos, CPA, CFG.modulations,
            CFG.n_h, delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        assert len(points) == len(distances)

    def test_infeasible_tail_is_data_not_error(self):
        points = sweep_distance(
            CFG.link_template, [60.0, 70.0, 80.0], CFG.qos, CPA,
            (MODS["4QAM"],), CFG.n_h, delta=CFG.delta,
            circuit_power=CFG.circuit_power,
        )
        assert all(not p.feasible for p in points)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            sweep_distance(
                CFG.link_template, [1.0, 0.0], CFG.qos, CPA,
                CFG.modulations, CFG.n_h, circuit_power=CFG.circuit_power,
            )

    def test_feasibility_horizon_is_prefix(self):
        distances = [float(d) for d in range(2, 82, 4)]
        for pa in (CPA, TPA, ETPA):
            points = sweep_distance(
                CFG.link_template, distances, CFG.qos, CPA, CFG.modulations,
                CFG.n_h, delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            flags = [p.feasible for p in points]
            assert flags == sorted(flags, reverse=True)

    def test_points_independent_of_sweep_context(self):
        """Each sweep row equals a standalone solve at that distance."""
        distances = [4.0, 12.0, 28.0]
        swept = sweep_distance(
            CFG.link_template, distances, CFG.qos, ETPA, CFG.modulations,
            CFG.n_h, delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        for d, point in zip(distances, swept):
            alone = joint_optimize(
                link_at(d), CFG.qos, ETPA, CFG.modulations, CFG.n_h,
                delta=CFG.delta, circuit_power=CFG.circuit_power,
            )
            assert alone == point

    def test_etpa_payload_ramp_inside_16qam_band(self):
        """Payload plateaus early in the 16QAM band, then climbs steeply."""
        distances = [13.0, 15.0, 17.0, 19.0, 21.0, 23.0]
        points = sweep_distance(
            CFG.link_template, distances, CFG.qos, ETPA, CFG.modulations,
            CFG.n_h, delta=CFG.delta, circuit_power=CFG.circuit_power,
        )
        by_d = dict(zip(distances, points))
        assert all(p.scheme.name == "16QAM" for p in points)
        plateau = by_d[15.0].n_p
        assert abs(by_d[13.0].n_p - plateau) <= 0.1 * plateau
        assert by_d[23.0].n_p >= 1.5 * plateau
        assert by_d[23.0].n_p > by_d[21.0].n_p > by_d[19.0].n_p

    def test_transmit_power_matches_snr(self):
        points = sweep_distance(
            CFG.link_template, [5.0, 15.0, 30.0], CFG.qos, ETPA,
            CFG.modulations, CFG.n_h, delta=CFG.delta,
            circuit_power=CFG.circuit_power,
        )
        for d, point in zip([5.0, 15.0, 30.0], points):
            assert point.p_t == pytest.approx(
                transmit_power(point.gamma_bar, link_at(d)), rel=1e-12
            )


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
            w0 = waterfall_threshold(scheme, n_p + CFG.n_h)
            if pa.variant is PaVariant.TPA:
                star = optimal_snr_tpa(coeffs, w0, scheme.k_eff, n_p, CFG.n_h)
            else:
                star = optimal_snr_quadratic(coeffs, w0, n_p, CFG.n_h)
            f, _ = snr_energy_curve(coeffs, scheme, n_p, CFG.n_h)
            numeric = golden_section_min_relative(f, w0 * 1e-3, w0 * 1e9, 1e-9)
            assert star == pytest.approx(numeric, rel=1e-6)
