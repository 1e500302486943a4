"""Tests for the Rayleigh-fading PER model and reliability bounds."""

import io
import math
from operator import mul

import pytest

from linkopt import oracles
from linkopt.config import default_config
from linkopt.errors import OutOfRegimeError
from linkopt.oracles import (
    awgn_per,
    ber,
    per_rayleigh_exact,
    waterfall_threshold_numeric,
)
from linkopt.per import (
    EULER_GAMMA,
    MAX_RETRANSMISSIONS,
    BerForm,
    CircuitClass,
    ModulationScheme,
    QosSpec,
    default_modulations,
    papr_mqam_bounded,
    papr_mqam_growing,
    payload_max,
    per_rayleigh,
    snr_min,
    waterfall_threshold,
)

BPSK = ModulationScheme("BPSK", 1, BerForm.GAUSSIAN_Q, 1.0, 2.0, 1.0,
                        CircuitClass.MQAM)
NCFSK = ModulationScheme("NCFSK", 1, BerForm.EXPONENTIAL, 0.5, 0.5, 1.0,
                         CircuitClass.MFSK)
# Unit exponential BER law: the waterfall integral is exactly 1 for N=1.
UNIT_EXP = ModulationScheme("UNIT", 1, BerForm.EXPONENTIAL, 1.0, 1.0, 1.0,
                            CircuitClass.MFSK)
QAM16 = ModulationScheme("16QAM", 4, BerForm.GAUSSIAN_Q, 0.75, 0.8, 1.8,
                         CircuitClass.MQAM)

QOS = QosSpec(target_per=0.001, max_retransmissions=3)

# The quadrature tolerances the battery passes to the oracles.
EPSREL = default_config().quad_epsrel
EPSABS = default_config().quad_epsabs


class TestModulationScheme:
    """Constructor invariants and the fitted exponential constants."""

    def test_gaussian_q_effective_constants(self):
        """Q-form laws map onto the fitted exponential constants."""
        assert BPSK.c_eff == pytest.approx(0.2114)
        assert BPSK.k_eff == pytest.approx(1.1196)

    def test_exponential_constants_pass_through(self):
        assert NCFSK.c_eff == 0.5
        assert NCFSK.k_eff == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c_m=0.0), dict(c_m=1.5), dict(k_m=0.0),
            dict(papr=0.5), dict(bits_per_symbol=0),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(
            name="X", bits_per_symbol=1, ber_form=BerForm.GAUSSIAN_Q,
            c_m=1.0, k_m=2.0, papr=1.0,
            circuit_power_class=CircuitClass.MQAM,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            ModulationScheme(**base)

    def test_default_table_names_and_paprs(self):
        mods = {m.name: m for m in default_modulations()}
        assert set(mods) == {"NCFSK", "BPSK", "OQPSK", "4QAM", "16QAM", "64QAM"}
        assert mods["OQPSK"].papr == pytest.approx(2.138)
        assert mods["4QAM"].papr == pytest.approx(papr_mqam_growing(4))
        bounded = {m.name: m for m in default_modulations("bounded")}
        assert bounded["4QAM"].papr == pytest.approx(1.0)
        assert bounded["64QAM"].papr == pytest.approx(papr_mqam_bounded(64))

    def test_mqam_ber_constants(self):
        mods = {m.name: m for m in default_modulations()}
        assert mods["16QAM"].c_m == pytest.approx(0.75)
        assert mods["16QAM"].k_m == pytest.approx(0.8)
        assert mods["64QAM"].c_m == pytest.approx(4 * (1 - 1 / 8) / 6)
        assert mods["64QAM"].k_m == pytest.approx(18 / 63)

    def test_unknown_papr_formula(self):
        with pytest.raises(ValueError, match="PAPR"):
            default_modulations("other")


class TestQosSpec:
    def test_per_attempt_bound_cached(self):
        assert QOS.per_attempt_bound == pytest.approx(0.1778279410038923, rel=1e-12)

    @pytest.mark.parametrize("target_per", [1e-9, 0.001, 0.3, 0.999])
    def test_log_keep_set_with_the_bound(self, target_per):
        """``log_keep`` is ``log1p(-per_attempt_bound)`` bit for bit, and
        equality, hash and repr read only the fields."""
        for tau in (0, 1, 3, MAX_RETRANSMISSIONS):
            spec = QosSpec(target_per, tau)
            assert spec.log_keep.hex() == math.log1p(
                -spec.per_attempt_bound).hex()
            twin = QosSpec(target_per, tau)
            assert spec == twin and hash(spec) == hash(twin)
        assert repr(QOS) == ("QosSpec(target_per=0.001, max_retransmissions=3, "
                             "per_attempt_bound=0.1778279410038923)")

    def test_bound_between_target_and_one(self):
        assert QOS.target_per < QOS.per_attempt_bound < 1.0

    def test_bound_increases_with_retransmissions(self):
        bounds = [
            QosSpec(0.001, tau).per_attempt_bound for tau in range(5)
        ]
        assert bounds == sorted(bounds)
        assert bounds[0] == pytest.approx(0.001)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            QosSpec(0.0, 3)
        with pytest.raises(ValueError):
            QosSpec(1.0, 3)
        with pytest.raises(ValueError):
            QosSpec(0.001, -1)

    def test_retransmission_cap_bounded(self):
        """A table solves one candidate per cap, so the cap is bounded."""
        assert QosSpec(0.001, MAX_RETRANSMISSIONS).per_attempt_bound < 1.0
        with pytest.raises(ValueError, match=(
            f"^max_retransmissions: must be <= {MAX_RETRANSMISSIONS}, "
            f"got {MAX_RETRANSMISSIONS + 1}$"
        )):
            QosSpec(0.001, MAX_RETRANSMISSIONS + 1)


class TestBer:
    def test_bpsk_at_zero_snr_is_half(self):
        """Q(0) = 1/2."""
        assert ber(BPSK, 0.0) == pytest.approx(0.5)

    def test_ncfsk_at_zero_snr_is_half(self):
        assert ber(NCFSK, 0.0) == pytest.approx(0.5)

    def test_bpsk_at_10(self):
        """Q(sqrt(20)), frozen from a direct complementary-error evaluation."""
        assert ber(BPSK, 10.0) == pytest.approx(3.87210821552205e-06, rel=1e-9)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            ber(BPSK, -0.1)

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= ber(NCFSK, 0.0) <= 1.0
        assert ber(BPSK, 1e9) >= 0.0


class TestAwgnPer:
    def test_single_bit_packet_equals_ber(self):
        for g in (0.0, 1.0, 5.0, 20.0):
            assert awgn_per(BPSK, 1, g) == pytest.approx(ber(BPSK, g), rel=1e-12)

    def test_high_snr_limit_is_zero(self):
        assert awgn_per(QAM16, 1024, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_bpsk_kilobit_at_10(self):
        assert awgn_per(BPSK, 1000, 10.0) == pytest.approx(
            0.0038646287387014834, rel=1e-9
        )

    def test_monotone_in_packet_size(self):
        values = [awgn_per(BPSK, n, 8.0) for n in (10, 100, 1000, 10000)]
        assert values == sorted(values)

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            awgn_per(BPSK, 0, 1.0)


class TestWaterfallThreshold:
    def test_log_cancellation_point(self):
        """At N c_eff = exp(1 - euler_gamma) the threshold is exactly 1/k_eff."""
        n_bits = 1000
        tuned = ModulationScheme(
            "X", 1, BerForm.EXPONENTIAL, math.exp(1.0 - EULER_GAMMA) / n_bits,
            1.7, 1.0, CircuitClass.MFSK,
        )
        assert waterfall_threshold(tuned, n_bits) == pytest.approx(
            1.0 / tuned.k_eff, rel=1e-12
        )

    def test_bpsk_kilobit_value(self):
        assert waterfall_threshold(BPSK, 1000) == pytest.approx(
            5.297398837386273, rel=1e-12
        )

    def test_strictly_increasing_in_packet_size(self):
        values = [waterfall_threshold(BPSK, n) for n in (100, 500, 2000, 9000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_of_regime_guard(self):
        with pytest.raises(OutOfRegimeError):
            waterfall_threshold(BPSK, 4)  # 4 * 0.2114 < 1

    def test_numeric_integral_of_unit_exponential_is_one(self):
        """For a single bit with unit exponential BER the integral is exact."""
        assert waterfall_threshold_numeric(
            UNIT_EXP, 1, EPSREL, EPSABS
        ) == pytest.approx(1.0, rel=1e-9)

    def test_non_decaying_integrand_raises(self):
        """A BER law that never decays cannot reach the cutoff floor."""
        from linkopt.errors import QuadratureError

        stuck = ModulationScheme(
            "STUCK", 1, BerForm.EXPONENTIAL, 0.5, 1e-15, 1.0,
            CircuitClass.MFSK,
        )
        with pytest.raises(QuadratureError, match="does not decay"):
            waterfall_threshold_numeric(stuck, 1000, EPSREL, EPSABS)

    def test_numeric_value_16qam_small_packet(self):
        assert waterfall_threshold_numeric(QAM16, 120, EPSREL, EPSABS) == pytest.approx(
            7.857082729931548, rel=1e-8
        )

    @pytest.mark.parametrize("scheme", default_modulations())
    @pytest.mark.parametrize("n_bits", [120, 1024])
    def test_closed_form_tracks_numeric(self, scheme, n_bits):
        numeric = waterfall_threshold_numeric(scheme, n_bits, EPSREL, EPSABS)
        closed = waterfall_threshold(scheme, n_bits)
        assert abs(closed - numeric) / numeric <= 0.03


class TestPerRayleigh:
    def test_vanishes_at_high_snr(self):
        assert per_rayleigh(BPSK, 1000, 1e12) == pytest.approx(0.0, abs=1e-9)

    def test_equals_one_minus_inv_e_at_threshold(self):
        w0 = waterfall_threshold(BPSK, 1000)
        assert per_rayleigh(BPSK, 1000, w0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )

    def test_matches_numeric_threshold_route(self):
        g = 10.0 ** 2.5
        approx = per_rayleigh(QAM16, 1024, g)
        w_num = waterfall_threshold_numeric(QAM16, 1024, EPSREL, EPSABS)
        bound = -math.expm1(-w_num / g)
        assert abs(approx - bound) / bound <= 0.03

    def test_strictly_decreasing_in_snr(self):
        snrs = [10.0 ** (db / 10.0) for db in range(5, 40, 3)]
        values = [per_rayleigh(QAM16, 512, g) for g in snrs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_packet_size(self):
        values = [per_rayleigh(QAM16, n, 200.0) for n in (64, 256, 1024, 4096)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_non_positive_snr_rejected(self):
        with pytest.raises(ValueError):
            per_rayleigh(BPSK, 1000, 0.0)

    def test_explicit_packet_size_factorization(self):
        """Equals 1 - N^(-1/(k g)) exp(-(ln c + euler)/(k g)) identically."""
        for n, g in ((120, 12.0), (1024, 300.0), (10048, 4500.0)):
            k_g = QAM16.k_eff * g
            explicit = 1.0 - n ** (-1.0 / k_g) * math.exp(
                -(math.log(QAM16.c_eff) + EULER_GAMMA) / k_g
            )
            assert per_rayleigh(QAM16, n, g) == pytest.approx(
                explicit, rel=1e-12
            )


class TestPerRayleighExact:
    def test_single_bit_exponential_closed_form(self):
        """One exponential-law bit integrates to c / (1 + k gamma_bar)."""
        for g in (0.5, 3.0, 40.0):
            assert per_rayleigh_exact(UNIT_EXP, 1, g, EPSREL, EPSABS) == pytest.approx(
                1.0 / (1.0 + g), rel=1e-8
            )

    def test_deep_fade_limit_is_one(self):
        assert per_rayleigh_exact(BPSK, 1000, 1e-4, EPSREL, EPSABS) == (
            pytest.approx(1.0, rel=1e-6)
        )
        assert per_rayleigh_exact(BPSK, 1000, 0.05, EPSREL, EPSABS) == (
            pytest.approx(1.0, rel=1e-6)
        )

    @pytest.mark.parametrize("n_bits", [120, 1024])
    @pytest.mark.parametrize("snr_db", [10, 20, 30])
    def test_upper_bound_property(self, n_bits, snr_db):
        """The numeric-threshold expression upper-bounds the exact average."""
        g = 10.0 ** (snr_db / 10.0)
        exact = per_rayleigh_exact(QAM16, n_bits, g, EPSREL, EPSABS)
        w_num = waterfall_threshold_numeric(QAM16, n_bits, EPSREL, EPSABS)
        bound = -math.expm1(-w_num / g)
        assert exact <= bound * (1.0 + 1e-9)

    def test_nan_mean_snr_rejected(self):
        with pytest.raises(ValueError, match="gamma_bar"):
            per_rayleigh_exact(QAM16, 120, math.nan, 1e-10, 1e-14)

    def test_infinite_mean_snr_averages_to_zero(self):
        assert per_rayleigh_exact(QAM16, 120, math.inf, EPSREL, EPSABS) == 0.0

    def test_approximation_close_to_bound_at_20db(self):
        g = 10.0 ** 2.0
        exact = per_rayleigh_exact(QAM16, 1024, g, EPSREL, EPSABS)
        approx = per_rayleigh(QAM16, 1024, g)
        assert abs(approx - exact) / exact <= 0.05


def panel(f):
    """The scalar integrand `f` as a panel integrand of the QK21 driver."""
    return lambda centre, half: [f(centre + half * x) for x in oracles._NODES]


def reference_qk21(f, a, b):
    """QK21 on one panel with every sum over all 21 nodes, the Gauss sum
    with its zero weights and the sum of ``|f|`` always taken: the formula
    ``oracles._qk21`` shortens."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = f(centre, half)
    kronrod = sum(map(mul, oracles._KRONROD, values))
    mean = 0.5 * kronrod
    width = abs(half)
    res_abs = sum(map(mul, oracles._KRONROD, map(abs, values))) * width
    res_asc = sum(map(mul, oracles._KRONROD,
                      [abs(v - mean) for v in values])) * width
    err = abs((kronrod - sum(map(mul, oracles._GAUSS, values))) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    return kronrod * half, max(oracles._ROUNDOFF * res_abs, err)


@pytest.fixture
def panels_against_reference(monkeypatch):
    """A list of the panels ``oracles._qk21`` evaluates from here on, each
    result checked against :func:`reference_qk21`: equal value and error,
    and equal reprs, so equal to the last bit, sign of zero included."""
    qk21 = oracles._qk21
    panels = []

    def comparing(f, a, b):
        got, expected = qk21(f, a, b), reference_qk21(f, a, b)
        assert got == expected and repr(got) == repr(expected), (a, b)
        panels.append((a, b))
        return got

    monkeypatch.setattr(oracles, "_qk21", comparing)
    return panels


class TestGaussKronrod:
    """The standard-library adaptive QK21 rule behind both oracles."""

    @pytest.mark.parametrize("f, lo, hi", [
        (math.sin, 0.0, 20.0),
        (lambda x: 1.0 if math.floor(x * 7.3) % 2 else -1.0, 0.0, 1.0),
        (lambda x: float(math.floor(x * 1e9) % 2), 0.0, 1.0),
        (lambda x: x ** 31, -1.0, 1.0),
        (lambda x: -0.0 if x < 0.3 else math.exp(-x) - 0.5, 0.0, 2.0),
        (lambda x: -1.0 / math.sqrt(x), 0.0, 1.0),
    ], ids=["sine", "signed_square_wave", "square_wave", "x31", "signed_zero",
            "negative_singular"])
    def test_panel_equals_the_full_sums(self, panels_against_reference, f, lo,
                                        hi):
        """Integrands of either sign, or both, on every panel the adaptive
        rule evaluates."""
        oracles._gauss_kronrod(panel(f), lo, hi, EPSREL, EPSABS)
        assert panels_against_reference

    def test_panels_of_a_default_validate_equal_the_full_sums(
            self, panels_against_reference):
        """Every panel of one default validate call, PER table included:
        the 1,707 panels its 161 integrals split into."""
        from linkopt import cli

        out = io.StringIO()
        code = cli.cmd_validate(default_config(), out, io.StringIO())
        assert code == cli.EXIT_OK
        assert len(panels_against_reference) == 1707

    def test_rule_is_exact_to_its_degree(self):
        """Over [-1, 1], the Gauss weights integrate x^d exactly up to
        degree 19 and the Kronrod weights up to degree 31."""
        for weights, degree in ((oracles._GAUSS, 19), (oracles._KRONROD, 31)):
            for d in range(degree + 1):
                exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
                got = math.fsum(w * x ** d for w, x in zip(weights, oracles._NODES))
                assert abs(got - exact) <= 2e-16

    @pytest.mark.parametrize("f,lo,hi,expected", [
        (math.exp, 0.0, 1.0, math.e - 1.0),
        (lambda x: x ** 31, 0.0, 1.0, 1.0 / 32.0),  # exact on one panel
        (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),  # singular at 0
        (lambda x: math.exp(-x), 0.0, 700.0, -math.expm1(-700.0)),
    ], ids=["exp", "x31", "inverse_sqrt", "exp_decay"])
    def test_known_integrals(self, f, lo, hi, expected):
        """Each meets the default tolerance, and its error estimate covers
        the true error."""
        value, abserr = oracles._gauss_kronrod(panel(f), lo, hi, EPSREL,
                                               EPSABS)
        assert abserr <= EPSREL * abs(value)
        assert abs(value - expected) <= abserr

    @pytest.mark.parametrize("scheme", [NCFSK, UNIT_EXP])
    def test_single_bit_exponential_law(self, scheme):
        """One exponential-law bit averages to c / (1 + k gamma_bar); the
        truncated tail beyond the AWGN cutoff is below 1e-13 of it."""
        for g in (0.05, 0.5, 3.0, 40.0, 1e4):
            expected = scheme.c_m / (1.0 + scheme.k_m * g)
            assert per_rayleigh_exact(scheme, 1, g, EPSREL, EPSABS) == pytest.approx(
                expected, rel=1e-12
            )

    def test_unreachable_tolerance_raises(self):
        """A square wave too fine for 400 panels stops there, and the error
        estimate guard turns the result into a QuadratureError."""
        from linkopt.errors import QuadratureError

        calls = []

        def square_wave(x):
            calls.append(x)
            return float(math.floor(x * 1e9) % 2)

        value, abserr = oracles._gauss_kronrod(panel(square_wave), 0.0, 1.0,
                                               1e-10, 1e-14)
        assert len(calls) == 21 * (2 * oracles.QUAD_PANELS - 1)
        assert abserr > 1e-6 * abs(value)
        with pytest.raises(QuadratureError, match="error estimate"):
            oracles._checked_quad(panel(square_wave), 0.0, 1.0, "square wave",
                                  EPSREL, EPSABS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integral_raises(self, bad):
        """A nan or infinite integral raises, although a nan value or
        estimate compares False against every bound."""
        from linkopt.errors import QuadratureError

        with pytest.raises(QuadratureError, match="error estimate"):
            oracles._checked_quad(panel(lambda x: bad), 0.0, 1.0, "constant",
                                  EPSREL, EPSABS)

    @pytest.mark.parametrize("scheme", default_modulations() + (NCFSK, UNIT_EXP))
    @pytest.mark.parametrize("n_bits", [1, 120, 10048])
    def test_curve_is_awgn_per_bit_for_bit(self, scheme, n_bits):
        """A panel of the curve holds its 21 QK21 nodes and awgn_per at
        each, bit for bit."""
        curve = oracles.AwgnPerCurve(scheme, n_bits)
        for i in range(40):
            centre, half = 10.0 ** (i / 5.0 - 4.0), 10.0 ** (i / 5.0 - 4.5)
            gammas, pers = curve.panel(centre, half)
            assert gammas == [centre + half * x for x in oracles._NODES]
            assert pers == [awgn_per(scheme, n_bits, g) for g in gammas]
            assert curve.panel(centre, half) == (gammas, pers)

    @pytest.mark.parametrize("scheme", default_modulations() + (NCFSK, UNIT_EXP))
    @pytest.mark.parametrize("n_bits", [1, 120, 10048])
    def test_rayleigh_integrand_is_weighted_curve_bit_for_bit(
        self, monkeypatch, scheme, n_bits
    ):
        """Every panel the Rayleigh average integrates equals the curve
        times the Rayleigh density at each node, bit for bit."""
        integrands = []
        quad = oracles._checked_quad

        def recording(f, *args):
            integrands.append(f)
            return quad(f, *args)

        monkeypatch.setattr(oracles, "_checked_quad", recording)
        for gamma_bar in (0.3, 10.0, 3162.2776601683795):
            integrands.clear()
            per_rayleigh_exact(scheme, n_bits, gamma_bar, EPSREL, EPSABS)
            assert integrands
            for f in integrands:
                for i in range(40):
                    centre = 10.0 ** (i / 10.0 - 2.0)
                    gammas = [centre + 0.5 * centre * x for x in oracles._NODES]
                    assert f(centre, 0.5 * centre) == [
                        awgn_per(scheme, n_bits, g) * math.exp(-g / gamma_bar)
                        / gamma_bar for g in gammas
                    ]

    def test_battery_integrals_match_scipy(self, monkeypatch):
        """Every integral of the threshold and PER-table oracles agrees with
        QUADPACK's own QAGS to 1e-12 relative where it exceeds epsabs."""
        integrate = pytest.importorskip("scipy.integrate")
        from linkopt import validation
        from linkopt.config import default_config

        quadrature = oracles._gauss_kronrod
        seen = []

        def recording(f, lo, hi, epsrel, epsabs):
            value, abserr = quadrature(f, lo, hi, epsrel, epsabs)
            seen.append((f, lo, hi, epsrel, epsabs, value))
            return value, abserr

        monkeypatch.setattr(oracles, "_gauss_kronrod", recording)
        cfg = default_config()
        validation.check_waterfall_closed_vs_numeric(validation.BatteryRun(cfg))
        validation.check_per_error_vs_bound(validation.BatteryRun(cfg))
        validation.check_exact_below_bound(validation.BatteryRun(cfg))
        validation.write_per_error_table(validation.BatteryRun(cfg),
                                         io.StringIO())
        assert len(seen) == 233
        for f, lo, hi, epsrel, epsabs, value in seen:
            # The scalar view of a panel integrand: a panel of zero width
            # holds its centre 21 times.
            reference = integrate.quad(
                lambda x: f(x, 0.0)[10], lo, hi,
                epsabs=epsabs, epsrel=epsrel, limit=400,
            )[0]
            if abs(reference) > epsabs:
                assert value == pytest.approx(reference, rel=1e-12, abs=0.0)
            else:
                assert abs(value - reference) <= epsabs


class TestMonteCarloCrossCheck:
    """Fading-draw simulation backs up the quadrature oracle independently."""

    def test_exact_per_matches_simulated_average(self):
        import random

        rng = random.Random(90210)
        draws = 200_000
        for gamma_bar in (10.0, 100.0):
            total = 0.0
            for _ in range(draws):
                g = rng.expovariate(1.0 / gamma_bar)
                total += awgn_per(QAM16, 1024, g)
            simulated = total / draws
            integrated = per_rayleigh_exact(QAM16, 1024, gamma_bar, EPSREL, EPSABS)
            sigma = math.sqrt(integrated * (1.0 - integrated) / draws)
            assert abs(simulated - integrated) <= 5.0 * sigma + 1e-6


class TestRequiredPer:
    def test_table_case(self):
        assert QOS.per_attempt_bound == pytest.approx(0.1778279410038923, rel=1e-12)

    def test_no_retransmissions(self):
        assert QosSpec(0.004, 0).per_attempt_bound == pytest.approx(0.004)

    def test_square_root_case(self):
        assert QosSpec(0.01, 1).per_attempt_bound == pytest.approx(0.1)


class TestSnrMin:
    def test_roundtrip_through_per(self):
        """snr_min is the exact inverse of the PER curve at the bound."""
        for n_p in (100, 976, 4000):
            g = snr_min(QAM16, 48, n_p, QOS)
            assert per_rayleigh(QAM16, 48 + n_p, g) == pytest.approx(
                QOS.per_attempt_bound, rel=1e-9
            )

    def test_packet_doubling_shift(self):
        """Doubling the packet adds ln(2) / (-k_eff ln(1 - bound))."""
        g1 = snr_min(BPSK, 0, 1000, QOS)
        g2 = snr_min(BPSK, 0, 2000, QOS)
        shift = math.log(2.0) / (-BPSK.k_eff * math.log1p(-QOS.per_attempt_bound))
        assert g2 - g1 == pytest.approx(shift, rel=1e-12)


class TestPayloadMax:
    def test_roundtrip_within_one_bit(self):
        """per(payload_max) respects the bound; one more bit violates it."""
        for snr_db in (16, 19, 22):
            g = 10.0 ** (snr_db / 10.0)
            n_max = payload_max(QAM16, 48, g, QOS)
            assert 1 <= n_max < 10 ** 9
            assert per_rayleigh(QAM16, 48 + n_max, g) <= QOS.per_attempt_bound
            assert (
                per_rayleigh(QAM16, 48 + n_max + 1, g) > QOS.per_attempt_bound
            )

    def test_inverse_of_snr_min(self):
        n_p = 976
        g = snr_min(QAM16, 48, n_p, QOS)
        assert payload_max(QAM16, 48, g, QOS) == n_p

    def test_bisection_oracle(self):
        """Brute-force bisection over the packet size finds the same payload."""
        mods = {m.name: m for m in default_modulations()}
        scheme = mods["4QAM"]
        g = 40.0
        lo, hi = 1, 10 ** 7
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if per_rayleigh(scheme, 48 + mid, g) <= QOS.per_attempt_bound:
                lo = mid
            else:
                hi = mid - 1
        assert abs(payload_max(scheme, 48, g, QOS) - lo) <= 1

    def test_header_alone_can_exceed_the_bound(self):
        """Below the header's own SNR floor no payload can be carried."""
        g = 10.0 ** 1.4
        assert payload_max(QAM16, 48, g, QOS) == 0
        assert per_rayleigh(QAM16, 48, g) > QOS.per_attempt_bound

    def test_infeasible_payload_reports_zero(self):
        assert payload_max(QAM16, 48, 1e-6, QOS) == 0

    def test_saturation_for_enormous_snr(self):
        assert payload_max(QAM16, 48, 1e9, QOS) >= 10 ** 12


class TestQFitSanity:
    def test_fit_tracks_q_function_at_moderate_snr(self):
        """The exponential fit stays within 10% of Q(sqrt(2 g)) at g = 5."""
        g = 5.0
        fitted = 0.2114 * math.exp(-0.5598 * 2.0 * g)
        exact = ber(BPSK, g)
        assert abs(fitted - exact) / exact <= 0.10
