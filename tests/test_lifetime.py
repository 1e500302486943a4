"""Tests for battery lifetime estimation and gain comparisons."""

import math
import random
from dataclasses import fields, replace

import pytest

from linkopt.config import parse_config
from linkopt.errors import ConfigError
from linkopt.lifetime import DutyProfile, lifetime, lifetime_gain
from linkopt.optimizer import Binding, OperatingPoint

PROFILE = DutyProfile(
    battery_charge_ah=2.0,
    battery_voltage=3.0,
    payload_per_period_bits=5e3,
    period_s=300.0,
)


def point_with_energy(energy):
    return OperatingPoint(
        scheme=None, gamma_bar=100.0, n_p=500, tau_r=3, energy=energy,
        p_t=1e-3, p_pa=2e-3, feasible=True, binding=Binding.UNCONSTRAINED,
    )


INFEASIBLE = OperatingPoint(
    scheme=None, gamma_bar=None, n_p=None, tau_r=None, energy=None,
    p_t=None, p_pa=None, feasible=False, binding=Binding.INFEASIBLE,
    failure_reasons=("16QAM/tau=3: snr_min 40 exceeds snr_max 4",),
)


class TestLifetime:
    def test_energy_budget_conversion(self):
        """2 Ah at 3 V is 21600 J."""
        assert PROFILE.energy_budget_j == pytest.approx(21600.0)

    def test_halved_energy_doubles_lifetime(self):
        assert lifetime(point_with_energy(5e-6), PROFILE) == pytest.approx(
            2.0 * lifetime(point_with_energy(1e-5), PROFILE)
        )

    def test_doubled_report_size_halves_lifetime(self):
        heavy = replace(PROFILE, payload_per_period_bits=1e4)
        assert lifetime(point_with_energy(1e-5), heavy) == pytest.approx(
            lifetime(point_with_energy(1e-5), PROFILE) / 2.0
        )

    def test_closed_form_value(self):
        """Budget / (energy * bits per period) periods of 300 s each."""
        point = point_with_energy(1e-5)
        expected = 21600.0 / (1e-5 * 5e3) * 300.0
        assert lifetime(point, PROFILE) == pytest.approx(expected)

    def test_infeasible_point_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            lifetime(INFEASIBLE, PROFILE)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DutyProfile(0.0, 3.0, 5e3, 300.0)
        with pytest.raises(ValueError):
            DutyProfile(2.0, 3.0, 5e3, -1.0)
        with pytest.raises(ValueError, match="outside the range of a double"):
            DutyProfile(1e300, 1e300, 5e3, 300.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_field_rejected_by_name(self, index, value):
        """nan passes a ``<= 0`` check and inf a budget check that another
        field's nan makes nan; each is rejected here, naming its field."""
        args = [2.0, 3.0, 5e3, 300.0]
        args[index] = value
        name = fields(DutyProfile)[index].name
        with pytest.raises(ValueError,
                           match=f"^{name} must be > 0 and finite, got {value}$"):
            DutyProfile(*args)

    def test_payload_overflowing_to_inf_rejected_with_the_config(self):
        """``payload_kbit`` is finite but its bits overflow: the config is
        rejected as it is read, not when a lifetime comes out as 0 s."""
        with pytest.raises(ConfigError, match=(
                "^duty: payload_per_period_bits must be > 0 and finite, "
                "got inf$")):
            parse_config("[duty]\npayload_kbit = 1e306\n")


class TestLifetimeGain:
    def test_identical_points_gain_zero(self):
        point = point_with_energy(1e-5)
        assert lifetime_gain(point, point, PROFILE) == pytest.approx(0.0)

    def test_gain_is_energy_ratio_minus_one(self):
        optimal = point_with_energy(5e-6)
        baseline = point_with_energy(1.4e-5)
        assert lifetime_gain(optimal, baseline, PROFILE) == pytest.approx(
            100.0 * (1.4e-5 / 5e-6 - 1.0)
        )

    def test_invariant_to_duty_profile(self):
        """Every profile parameter cancels out of the gain."""
        optimal = point_with_energy(6e-6)
        baseline = point_with_energy(1.8e-5)
        reference = lifetime_gain(optimal, baseline, PROFILE)
        rng = random.Random(11)
        for _ in range(8):
            profile = DutyProfile(
                battery_charge_ah=rng.uniform(0.1, 20.0),
                battery_voltage=rng.uniform(1.0, 12.0),
                payload_per_period_bits=rng.uniform(100.0, 1e6),
                period_s=rng.uniform(1.0, 3600.0),
            )
            assert lifetime_gain(optimal, baseline, profile) == pytest.approx(
                reference, rel=1e-12
            )

    def test_infeasible_baseline_names_reason(self):
        with pytest.raises(ValueError, match="snr_min 40 exceeds"):
            lifetime_gain(point_with_energy(1e-5), INFEASIBLE, PROFILE)


class TestLifetimeOverDistance:
    def test_strictly_decreasing_within_a_modulation_band(self):
        """Inside one scheme's optimal band the lifetime falls with range."""
        from linkopt.config import default_config
        from linkopt.energy import PaVariant
        from linkopt.optimizer import candidate_tables, select_best

        cfg = default_config()
        distances = [3.0, 5.0, 7.0, 9.0]  # inside the 64QAM band
        points = [select_best(table) for _, _, table in candidate_tables(
            cfg.link_template, distances, cfg.qos,
            (cfg.pa_models[PaVariant.ETPA],), cfg.modulations, cfg.n_h,
            delta=cfg.delta, circuit_power=cfg.circuit_power,
        )]
        assert all(p.scheme.name == "64QAM" for p in points)
        lifetimes = [lifetime(p, cfg.duty) for p in points]
        assert all(a > b for a, b in zip(lifetimes, lifetimes[1:]))
