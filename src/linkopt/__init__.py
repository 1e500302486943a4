"""Energy-per-bit optimization of reliability-constrained wireless links.

The package models the energy cost of delivering an information bit over a
Rayleigh block-fading link under three power-amplifier efficiency laws, and
jointly selects modulation order, average SNR, payload size and
retransmission cap against a probabilistic reliability target.
"""

from .config import ScenarioConfig, default_config, load_config, parse_config
from .energy import (
    EnergyCoefficients,
    LinkBudget,
    PaModel,
    PaVariant,
    avg_transmissions,
    e0,
    energy_coefficients,
    energy_per_bit,
    pa_efficiency,
    pa_power,
    transmit_power,
)
from .errors import (
    ConfigError,
    LinkoptError,
    OutOfRegimeError,
    PeakPowerError,
    QuadratureError,
)
from .lifetime import DutyProfile, lifetime, lifetime_gain
from .optimizer import (
    Binding,
    OperatingPoint,
    joint_optimize,
    payload_map,
    snr_max,
)
from .per import (
    BerForm,
    CircuitClass,
    ModulationScheme,
    QosSpec,
    default_modulations,
    payload_max,
    per_rayleigh,
    snr_min,
    waterfall_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BerForm",
    "Binding",
    "CircuitClass",
    "ConfigError",
    "DutyProfile",
    "EnergyCoefficients",
    "LinkBudget",
    "LinkoptError",
    "ModulationScheme",
    "OperatingPoint",
    "OutOfRegimeError",
    "PaModel",
    "PaVariant",
    "PeakPowerError",
    "QosSpec",
    "QuadratureError",
    "ScenarioConfig",
    "avg_transmissions",
    "default_config",
    "default_modulations",
    "e0",
    "energy_coefficients",
    "energy_per_bit",
    "joint_optimize",
    "lifetime",
    "lifetime_gain",
    "load_config",
    "pa_efficiency",
    "pa_power",
    "parse_config",
    "payload_map",
    "payload_max",
    "per_rayleigh",
    "snr_max",
    "snr_min",
    "transmit_power",
    "waterfall_threshold",
]
