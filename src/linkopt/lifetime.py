"""Battery lifetime of a device reporting at the optimized operating point.

Only the communication energy draws on the battery budget; sleep and sensing
currents are out of scope.  Absolute lifetimes depend on the configured
battery voltage, but gain comparisons between operating points cancel every
profile parameter and are voltage-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .optimizer import OperatingPoint


@dataclass(frozen=True)
class DutyProfile:
    """Reporting duty cycle and the battery budget reserved for radio use."""

    battery_charge_ah: float
    battery_voltage: float
    payload_per_period_bits: float
    period_s: float

    def __post_init__(self) -> None:
        for field in (
            "battery_charge_ah",
            "battery_voltage",
            "payload_per_period_bits",
            "period_s",
        ):
            if not 0.0 < (value := getattr(self, field)) < math.inf:
                raise ValueError(f"{field} must be > 0 and finite, got {value}")
        if not math.isfinite(self.energy_budget_j):
            raise ValueError(
                "the energy budget battery_charge_ah * 3600 * battery_voltage "
                f"is outside the range of a double ({self.energy_budget_j:g} J)"
            )

    @property
    def energy_budget_j(self) -> float:
        """Battery energy reserved for communication, joules."""
        return self.battery_charge_ah * 3600.0 * self.battery_voltage


def lifetime(point: OperatingPoint, profile: DutyProfile) -> float:
    """Seconds until the communication energy budget is exhausted; a
    ConfigError naming ``duty`` when that is not a positive finite double."""
    if not point.feasible:
        raise ValueError("no lifetime for an infeasible operating point")
    if point.energy is None or point.energy <= 0.0:
        raise ValueError("operating point has no positive energy figure")
    energy_per_period = point.energy * profile.payload_per_period_bits
    seconds = (profile.energy_budget_j / energy_per_period * profile.period_s
               if energy_per_period > 0.0 else math.inf)
    if not 0.0 < seconds < math.inf:
        raise ConfigError(
            f"duty: the lifetime at {point.energy:.4g} J/bit from battery_ah, "
            f"battery_v, payload_kbit and period_s is outside the range of a "
            f"double ({seconds:g} s)"
        )
    return seconds


def lifetime_gain(
    optimal: OperatingPoint, baseline: OperatingPoint, profile: DutyProfile
) -> float:
    """Percent lifetime extension of `optimal` over `baseline`.

    Reduces to the energy ratio minus one; the duty profile cancels.

    Raises:
        ValueError: when the baseline is infeasible; the message names the
            baseline's failure reasons so callers can see which constraint
            bound it.
    """
    if not baseline.feasible:
        detail = "; ".join(baseline.failure_reasons) or str(baseline.binding.value)
        raise ValueError(f"baseline operating point infeasible: {detail}")
    base = lifetime(baseline, profile)
    return 100.0 * (lifetime(optimal, profile) - base) / base
