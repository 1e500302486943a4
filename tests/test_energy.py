"""Tests for amplifier efficiency laws and the per-bit energy model."""

import math
import random

import pytest

from linkopt import optimizer
from linkopt.energy import (
    EnergyCoefficients,
    LinkBudget,
    PaModel,
    PaVariant,
    avg_transmissions,
    bit_rate,
    e0,
    energy_coefficients,
    energy_per_bit,
    pa_efficiency,
    pa_power,
    transmit_power,
)
from linkopt.errors import PeakPowerError
from linkopt.per import (
    BerForm,
    CircuitClass,
    ModulationScheme,
    QosSpec,
    per_rayleigh,
)

# Reference link: 1 m, Table defaults; one-sided N0 is twice -174 dBm/Hz.
N0 = 2.0 * 10.0 ** ((-174.0 - 30.0) / 10.0)
LINK1 = LinkBudget(
    distance_m=1.0, kappa=3.5, g1_db=30.0, link_margin_db=40.0,
    n0=N0, bandwidth_hz=1e4, p0_w=0.01,
)

QAM4 = ModulationScheme("4QAM", 2, BerForm.GAUSSIAN_Q, 1.0, 2.0, 1.0,
                        CircuitClass.MQAM)
OQPSK = ModulationScheme("OQPSK", 2, BerForm.GAUSSIAN_Q, 1.0, 2.0, 2.138,
                         CircuitClass.MQAM)

CPA = PaModel(PaVariant.CPA, 0.8, 1.0)
TPA = PaModel(PaVariant.TPA, 0.8, 0.4)
ETPA = PaModel(PaVariant.ETPA, 0.8, 0.25)

QOS = QosSpec(0.001, 3)


def link_at(d):
    return LinkBudget(
        distance_m=d, kappa=3.5, g1_db=30.0, link_margin_db=40.0,
        n0=N0, bandwidth_hz=1e4, p0_w=0.01,
    )


class TestPathGain:
    def test_unit_distance_reference(self):
        """30 dB gain factor plus 40 dB margin is 1e7 at one meter."""
        assert LINK1.gain_at(1.0) == pytest.approx(1e7, rel=1e-12)

    def test_distance_doubling_power_law(self):
        assert LINK1.gain_at(2.0) / LINK1.gain_at(1.0) == pytest.approx(
            2.0 ** 3.5, rel=1e-12
        )

    def test_ten_meters(self):
        assert LINK1.gain_at(10.0) == pytest.approx(1e7 * 10 ** 3.5, rel=1e-12)

    def test_overflowing_power_is_inf(self):
        """``d ** kappa`` beyond the doubles raises OverflowError in Python;
        the gain is inf there, as an overflowing product is."""
        assert LINK1.gain_at(1e200) == math.inf


class TestPaEfficiency:
    @pytest.mark.parametrize("pa", [CPA, TPA, ETPA])
    def test_saturation_gives_eta_max(self, pa):
        assert pa_efficiency(pa, pa.p_t_max) == pytest.approx(pa.eta_max)

    def test_tpa_quarter_power_halves_efficiency(self):
        assert pa_efficiency(TPA, TPA.p_t_max / 4.0) == pytest.approx(
            TPA.eta_max / 2.0
        )

    def test_etpa_at_c_fraction(self):
        p_t = ETPA.etpa_c * ETPA.p_t_max
        expected = ETPA.eta_max * (1.0 + ETPA.etpa_c) / 2.0
        assert pa_efficiency(ETPA, p_t) == pytest.approx(expected)

    def test_cpa_is_flat(self):
        assert pa_efficiency(CPA, 1e-6) == pa_efficiency(CPA, CPA.p_t_max)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pa_efficiency(TPA, 0.0)
        with pytest.raises(ValueError):
            pa_efficiency(TPA, TPA.p_t_max * 1.5)

    def test_never_exceeds_eta_max(self):
        for pa in (TPA, ETPA):
            for frac in (1e-4, 0.01, 0.3, 0.9, 1.0):
                assert pa_efficiency(pa, frac * pa.p_t_max) <= pa.eta_max + 1e-15


class TestTransmitPower:
    def test_linear_in_snr(self):
        p1 = transmit_power(100.0, LINK1)
        p2 = transmit_power(50.0, LINK1)
        assert p1 == pytest.approx(2.0 * p2, rel=1e-12)

    def test_power_cap_roundtrip(self):
        """At the regulatory-cap SNR the transmit power equals the cap."""
        link = link_at(30.0)
        g_max = link.p0_w / (link.bandwidth_hz * link.n0 * link.gain_at(30.0))
        assert transmit_power(g_max, link) == pytest.approx(link.p0_w, rel=1e-12)

    def test_algebraic_inversion_at_20db(self):
        link = link_at(30.0)
        g = 100.0
        p_t = transmit_power(g, link)
        assert p_t / (link.bandwidth_hz * link.n0 * link.gain_at(30.0)) == (
            pytest.approx(g, rel=1e-12)
        )


class TestEnergyCoefficients:
    def test_cpa_unit_efficiency_reduces_to_noise_gain(self):
        """With unit efficiency and PAPR the SNR coefficient is N0 G_d."""
        ideal = PaModel(PaVariant.CPA, 1.0, 1.0)
        coeffs = energy_coefficients(ideal, QAM4, LINK1, 0.31)
        assert coeffs.a_coeff == pytest.approx(N0 * LINK1.gain_at(1.0), rel=1e-12)
        assert coeffs.b_coeff == pytest.approx(0.31 / 2e4, rel=1e-12)

    def test_etpa_degenerates_to_cpa_as_c_vanishes(self):
        tiny = PaModel(PaVariant.ETPA, 0.8, 0.25, etpa_c=1e-12)
        etpa = energy_coefficients(tiny, QAM4, LINK1, 0.31)
        cpa = energy_coefficients(CPA, QAM4, LINK1, 0.31)
        assert etpa.a_coeff == pytest.approx(cpa.a_coeff, rel=1e-9)
        assert etpa.b_coeff == pytest.approx(cpa.b_coeff, rel=1e-9)

    def test_tpa_coefficient_rederivation(self):
        """TPA SNR term re-derived from the amplifier law and symbol energy.

        Per-bit amplifier energy is papr sqrt(p_t p_t_max) / (eta R_b) with
        p_t = snr N0 G_d R_b; the A sqrt(snr) form must reproduce it.
        """
        link = link_at(10.0)
        coeffs = energy_coefficients(TPA, QAM4, link, 0.31)
        r_b = bit_rate(QAM4, link)
        g_d = link.gain_at(10.0)
        for g in (10.0, 250.0, 4e3):
            p_t = g * link.n0 * g_d * r_b
            direct = QAM4.papr * math.sqrt(p_t * TPA.p_t_max) / (
                TPA.eta_max * r_b
            )
            assert coeffs.a_coeff * math.sqrt(g) == pytest.approx(
                direct, rel=1e-12
            )

    @pytest.mark.parametrize("variant", list(PaVariant), ids=lambda v: v.value)
    def test_bit_identical_to_the_expressions_written_out(self, variant):
        """``energy_coefficients``, and the set-up the candidate tables
        evaluate from the same factors, give the coefficients of the
        expressions written out left to right at the link's distance, bit
        for bit, on 500 drawn links, amplifiers and schemes."""
        rng = random.Random(variant.value)
        for _ in range(500):
            scheme = ModulationScheme(
                "M", rng.choice([1, 2, 4, 6]), BerForm.GAUSSIAN_Q, 1.0, 2.0,
                rng.uniform(1.0, 30.0), CircuitClass.MQAM)
            link = LinkBudget(
                distance_m=10 ** rng.uniform(-1, 3), kappa=rng.uniform(2, 5),
                g1_db=rng.uniform(0, 60), link_margin_db=rng.uniform(0, 60),
                n0=10 ** rng.uniform(-22, -18),
                bandwidth_hz=10 ** rng.uniform(3, 7), p0_w=1.0)
            pa = PaModel(variant, rng.uniform(0.05, 1.0),
                         10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-4, -1))
            p_c = 10 ** rng.uniform(-3, 0)
            xi, n0, r_b = scheme.papr, link.n0, bit_rate(scheme, link)
            g_d = link.gain_at(link.distance_m)
            b = p_c / r_b
            if variant is PaVariant.TPA:
                a = xi * n0 * g_d * math.sqrt(pa.p_t_max) / (
                    pa.eta_max * math.sqrt(n0 * g_d * r_b))
            elif variant is PaVariant.CPA:
                a = xi * n0 * g_d / pa.eta_max
            else:
                eta = pa.eta_max * (pa.etpa_c + 1.0)
                a = xi * n0 * g_d / eta
                b = (xi * pa.etpa_c * pa.p_t_max / eta + p_c) / r_b
            coeffs = energy_coefficients(pa, scheme, link, p_c)
            assert (coeffs.a_coeff.hex(), coeffs.b_coeff.hex()) == (
                a.hex(), b.hex())
            setup = optimizer._law_setup(
                optimizer._scheme_law(link, pa, scheme, p_c), g_d, 8)
            assert (setup[7].hex(), setup[8].hex()) == (a.hex(), b.hex())

    def test_circuit_term_uses_bit_rate(self):
        coeffs = energy_coefficients(TPA, QAM4, LINK1, 0.31)
        assert coeffs.b_coeff == pytest.approx(0.31 / 2e4, rel=1e-12)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            EnergyCoefficients(0.0, 1.0, PaVariant.CPA)
        with pytest.raises(ValueError):
            EnergyCoefficients(1.0, -1.0, PaVariant.CPA)


class TestE0:
    def test_zero_overhead_linear_form(self):
        coeffs = energy_coefficients(CPA, QAM4, LINK1, 0.31)
        g = 200.0
        assert e0(coeffs, 1000, 0, g) == pytest.approx(
            coeffs.a_coeff * g + coeffs.b_coeff, rel=1e-12
        )

    def test_overhead_amortized_in_large_payload_limit(self):
        coeffs = energy_coefficients(CPA, QAM4, LINK1, 0.31)
        g = 200.0
        big = e0(coeffs, 10 ** 9, 48, g)
        assert big == pytest.approx(coeffs.a_coeff * g + coeffs.b_coeff, rel=1e-6)

    def test_tpa_sqrt_scaling(self):
        """Quadrupling the SNR doubles only the amplifier term."""
        coeffs = energy_coefficients(TPA, QAM4, LINK1, 0.31)
        g = 100.0
        lo = e0(coeffs, 500, 48, g) - coeffs.b_coeff
        hi = e0(coeffs, 500, 48, 4.0 * g) - coeffs.b_coeff
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_zero_payload_rejected(self):
        coeffs = energy_coefficients(CPA, QAM4, LINK1, 0.31)
        with pytest.raises(ValueError):
            e0(coeffs, 0, 48, 10.0)


class TestAvgTransmissions:
    def test_error_free_channel_sends_once(self):
        assert avg_transmissions(0.0, 3) == 1.0
        assert avg_transmissions(0.0, None) == 1.0

    def test_truncated_geometric_sum(self):
        assert avg_transmissions(0.5, 1) == pytest.approx(1.5)

    def test_unbounded_geometric_mean(self):
        p = 0.1778279410038923
        assert avg_transmissions(p, None) == pytest.approx(
            1.2162904212787584, rel=1e-12
        )

    def test_truncated_below_unbounded(self):
        for p in (0.1, 0.3, 0.6):
            assert avg_transmissions(p, 3) < avg_transmissions(p, None)

    def test_certain_failure_rejected(self):
        with pytest.raises(ValueError):
            avg_transmissions(1.0, 3)


class TestEnergyPerBit:
    def test_compositional_identity(self):
        coeffs = energy_coefficients(CPA, QAM4, link_at(10.0), 0.31)
        g, n_p = 300.0, 976
        p = per_rayleigh(QAM4, n_p + 48, g)
        expected = avg_transmissions(p, QOS.max_retransmissions) * e0(
            coeffs, n_p, 48, g
        )
        assert energy_per_bit(coeffs, QAM4, n_p, 48, g, QOS) == pytest.approx(
            expected, rel=1e-12
        )

    def test_vanishing_per_limit_is_e0(self):
        coeffs = energy_coefficients(CPA, QAM4, link_at(2.0), 0.31)
        g = 1e10
        assert energy_per_bit(coeffs, QAM4, 976, 48, g, QOS) == pytest.approx(
            e0(coeffs, 976, 48, g), rel=1e-8
        )


def sign_changes(values):
    diffs = [b - a for a, b in zip(values, values[1:]) if b != a]
    flips = 0
    for a, b in zip(diffs, diffs[1:]):
        if (a < 0) != (b < 0):
            flips += 1
    return flips


def unbounded_energy(coeffs, n_p, g):
    """Energy per bit with unbounded retransmissions, the curve the
    closed-form optima are derived from."""
    return avg_transmissions(per_rayleigh(QAM4, n_p + 48, g), None) * e0(
        coeffs, n_p, 48, g
    )


class TestUnimodality:
    """The reliability-weighted energy has a single interior minimum."""

    @pytest.mark.parametrize("pa", [CPA, TPA, ETPA])
    def test_energy_unimodal_in_snr(self, pa):
        coeffs = energy_coefficients(pa, QAM4, link_at(10.0), 0.31)
        grid = [10.0 ** (db / 20.0) for db in range(10, 120, 2)]
        values = [unbounded_energy(coeffs, 976, g) for g in grid]
        assert sign_changes(values) <= 1

    @pytest.mark.parametrize("pa", [CPA, TPA, ETPA])
    def test_energy_unimodal_in_payload(self, pa):
        coeffs = energy_coefficients(pa, QAM4, link_at(10.0), 0.31)
        g = 10.0 ** 2.2
        grid = [int(round(1.3 ** k)) for k in range(1, 36)]
        values = [unbounded_energy(coeffs, n_p, g) for n_p in grid]
        assert sign_changes(values) <= 1


class TestPaPower:
    def test_cpa_division(self):
        pa = PaModel(PaVariant.CPA, 0.8, 1.0)
        scheme = ModulationScheme("B", 1, BerForm.GAUSSIAN_Q, 1.0, 2.0, 1.0,
                                  CircuitClass.MQAM)
        assert pa_power(pa, scheme, 0.01) == pytest.approx(0.0125)

    def test_tpa_algebraic_form(self):
        """papr p_t / eta(p_t) collapses to papr sqrt(p_t p_t_max) / eta_max."""
        p_t = 0.004
        expected = OQPSK.papr * math.sqrt(p_t * TPA.p_t_max) / TPA.eta_max
        assert pa_power(TPA, OQPSK, p_t) == pytest.approx(expected, rel=1e-12)

    def test_etpa_at_saturation(self):
        scheme = ModulationScheme("B", 1, BerForm.GAUSSIAN_Q, 1.0, 2.0, 1.0,
                                  CircuitClass.MQAM)
        assert pa_power(ETPA, scheme, ETPA.p_t_max) == pytest.approx(
            ETPA.p_t_max / ETPA.eta_max, rel=1e-12
        )

    def test_peak_headroom_enforced(self):
        with pytest.raises(PeakPowerError):
            pa_power(TPA, OQPSK, TPA.p_t_max / 2.0 + 0.01)


class TestE0Ordering:
    def test_tpa_at_least_etpa_at_least_cpa(self):
        """Per-attempt energy ordering at matched eta and p_t_max settings."""
        shared = {
            PaVariant.CPA: PaModel(PaVariant.CPA, 0.8, 0.25),
            PaVariant.TPA: PaModel(PaVariant.TPA, 0.8, 0.25),
            PaVariant.ETPA: PaModel(PaVariant.ETPA, 0.8, 0.25),
        }
        for d in (5.0, 20.0, 40.0):
            link = link_at(d)
            cap = link.p0_w / (link.bandwidth_hz * link.n0 * link.gain_at(d))
            for frac in (0.05, 0.4, 0.95):
                g = cap * frac
                values = {
                    v: e0(energy_coefficients(pa, QAM4, link, 0.31), 512, 48, g)
                    for v, pa in shared.items()
                }
                assert values[PaVariant.TPA] >= values[PaVariant.ETPA] - 1e-15
                assert values[PaVariant.ETPA] >= values[PaVariant.CPA] - 1e-15
