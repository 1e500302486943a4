"""Power-amplifier models and the energy cost per delivered information bit.

Three amplifier efficiency laws are covered: an idealized constant-efficiency
amplifier (CPA), the traditional square-root law (TPA), and an
envelope-tracking amplifier (ETPA).  Each reduces the per-bit radio energy of
a packet transaction to the two-coefficient form

    E0 = overhead_ratio * A * gamma_bar + B      (CPA, ETPA)
    E0 = overhead_ratio * A * sqrt(gamma_bar) + B  (TPA)

with the coefficients in :class:`EnergyCoefficients`.  The reliability-
weighted metrics multiply E0 by the expected number of transmissions of a
truncated (or unbounded) retransmission scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import PeakPowerError
from .per import ModulationScheme, QosSpec, per_rayleigh


class PaVariant(Enum):
    CPA = "cpa"
    TPA = "tpa"
    ETPA = "etpa"


@dataclass(frozen=True)
class PaModel:
    """A power amplifier: efficiency law plus its designed power limits.

    ``eta_max`` is the peak drain efficiency, reached at ``p_t_max`` for the
    non-ideal variants (and everywhere for CPA).  The average transmit power
    of a waveform with PAPR xi must respect the headroom
    ``p_t <= p_t_max / xi``.
    """

    variant: PaVariant
    eta_max: float
    p_t_max: float
    etpa_c: float = 0.0082

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_max <= 1.0:
            raise ValueError(f"eta_max must be in (0, 1], got {self.eta_max}")
        if self.p_t_max <= 0.0:
            raise ValueError(f"p_t_max must be > 0, got {self.p_t_max}")
        if self.etpa_c <= 0.0:
            raise ValueError(f"etpa_c must be > 0, got {self.etpa_c}")


@dataclass(frozen=True)
class LinkBudget:
    """Distance, path-loss law, noise and the regulatory transmit-power cap.

    ``n0`` is the one-sided noise power density in W/Hz.  Note that data
    sheets usually quote the per-dimension density (N0/2, e.g. -174 dBm/Hz);
    the value stored here is twice that, and misreading it shifts every SNR
    by 3 dB.  The config layer performs the conversion.
    """

    distance_m: float
    kappa: float
    g1_db: float
    link_margin_db: float
    n0: float
    bandwidth_hz: float
    p0_w: float

    def __post_init__(self) -> None:
        if self.distance_m <= 0.0:
            raise ValueError(f"distance_m must be > 0, got {self.distance_m}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.p0_w <= 0.0:
            raise ValueError("p0_w must be > 0")
        if self.n0 <= 0.0:
            raise ValueError("n0 must be > 0")

    def gain_at(self, distance_m: float) -> float:
        """Linear path-loss gain G1 * d^kappa * margin (a loss factor > 1) at
        ``distance_m``, the link's own law at any distance."""
        return (
            10.0 ** (self.g1_db / 10.0)
            * distance_m ** self.kappa
            * 10.0 ** (self.link_margin_db / 10.0)
        )

    # Cached on first use, as ModulationScheme's fitted constants are.
    @cached_property
    def path_gain(self) -> float:
        """The path-loss gain at the link's own distance."""
        return self.gain_at(self.distance_m)


@dataclass(frozen=True)
class EnergyCoefficients:
    """Per-bit energy coefficients of one (amplifier, modulation, link) combo.

    ``a_coeff`` multiplies the SNR term (joules per bit per unit SNR, or per
    unit sqrt-SNR for TPA); ``b_coeff`` is the SNR-independent circuit term
    (joules per bit).
    """

    a_coeff: float
    b_coeff: float
    pa_variant: PaVariant

    def __post_init__(self) -> None:
        if self.a_coeff <= 0.0 or not math.isfinite(self.a_coeff):
            raise ValueError(f"a_coeff must be positive finite, got {self.a_coeff}")
        if self.b_coeff <= 0.0 or not math.isfinite(self.b_coeff):
            raise ValueError(f"b_coeff must be positive finite, got {self.b_coeff}")


def path_gain(link: LinkBudget) -> float:
    """Linear path-loss gain G1 * d^kappa * margin (a loss factor > 1),
    computed once per link."""
    return link.path_gain


def pa_efficiency(pa: PaModel, p_t: float) -> float:
    """Drain efficiency at average output power `p_t`.

    CPA is flat at eta_max; TPA follows the square-root law
    ``eta_max sqrt(p_t / p_t_max)``; ETPA follows
    ``eta_max p_t (1+c) / (p_t + c p_t_max)``.
    """
    if p_t <= 0.0:
        raise ValueError(f"p_t must be > 0, got {p_t}")
    if p_t > pa.p_t_max * (1.0 + 1e-12):
        raise ValueError(
            f"p_t = {p_t:.4g} W exceeds designed maximum {pa.p_t_max:.4g} W"
        )
    if pa.variant is PaVariant.CPA:
        return pa.eta_max
    if pa.variant is PaVariant.TPA:
        return pa.eta_max * math.sqrt(p_t / pa.p_t_max)
    c = pa.etpa_c
    return pa.eta_max * p_t * (1.0 + c) / (p_t + c * pa.p_t_max)


def transmit_power(gamma_bar: float, link: LinkBudget) -> float:
    """Average transmit power sustaining `gamma_bar` over this link."""
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    return gamma_bar * link.bandwidth_hz * link.n0 * link.path_gain


def pa_power(pa: PaModel, scheme: ModulationScheme, p_t: float) -> float:
    """Amplifier supply power ``xi p_t / eta(p_t)`` for the active waveform.

    Raises:
        PeakPowerError: when the waveform peak ``xi * p_t`` exceeds the
            amplifier's designed maximum output power.
    """
    if p_t <= 0.0:
        raise ValueError(f"p_t must be > 0, got {p_t}")
    if scheme.papr * p_t > pa.p_t_max * (1.0 + 1e-12):
        raise PeakPowerError(
            f"{scheme.name} peak power {scheme.papr * p_t:.4g} W exceeds "
            f"{pa.variant.value} maximum {pa.p_t_max:.4g} W"
        )
    return scheme.papr * p_t / pa_efficiency(pa, p_t)


def bit_rate(scheme: ModulationScheme, link: LinkBudget) -> float:
    """PHY bit rate W * log2(M)."""
    return link.bandwidth_hz * scheme.bits_per_symbol


def energy_coefficients(
    pa: PaModel, scheme: ModulationScheme, link: LinkBudget, p_c: float
) -> EnergyCoefficients:
    """Per-bit energy coefficients for one amplifier model.

    `p_c` is the combined transmit plus receive circuit power in watts
    (everything in the RF chain except the amplifier).
    """
    if p_c <= 0.0:
        raise ValueError(f"p_c must be > 0, got {p_c}")
    g_d = link.path_gain
    r_b = bit_rate(scheme, link)
    xi = scheme.papr
    n0 = link.n0
    if pa.variant is PaVariant.CPA:
        a = xi * n0 * g_d / pa.eta_max
        b = p_c / r_b
    elif pa.variant is PaVariant.TPA:
        a = xi * n0 * g_d * math.sqrt(pa.p_t_max) / (
            pa.eta_max * math.sqrt(n0 * g_d * r_b)
        )
        if math.isnan(a):
            raise OverflowError("TPA a_coeff overflows: inf / inf")
        b = p_c / r_b
    else:
        c = pa.etpa_c
        a = xi * n0 * g_d / (pa.eta_max * (c + 1.0))
        b = (xi * c * pa.p_t_max / (pa.eta_max * (c + 1.0)) + p_c) / r_b
    return EnergyCoefficients(a_coeff=a, b_coeff=b, pa_variant=pa.variant)


def e0(coeffs: EnergyCoefficients, n_p: int, n_h: int, gamma_bar: float) -> float:
    """Average energy per information bit for a single transmission attempt."""
    if n_p < 1:
        raise ValueError(f"n_p must be >= 1, got {n_p}")
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    overhead = (n_p + n_h) / n_p
    if coeffs.pa_variant is PaVariant.TPA:
        return overhead * coeffs.a_coeff * math.sqrt(gamma_bar) + coeffs.b_coeff
    return overhead * coeffs.a_coeff * gamma_bar + coeffs.b_coeff


def avg_transmissions(per: float, tau_max: int | None) -> float:
    """Expected transmissions per packet under truncated retransmission.

    ``tau_max`` is the retransmission cap; ``None`` means unbounded, giving
    the plain geometric mean 1 / (1 - per).
    """
    if not 0.0 <= per < 1.0:
        raise ValueError(f"per must be in [0, 1), got {per}")
    if tau_max is None:
        return 1.0 / (1.0 - per)
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    return (1.0 - per ** (tau_max + 1)) / (1.0 - per)


def energy_per_bit(
    coeffs: EnergyCoefficients,
    scheme: ModulationScheme,
    n_p: int,
    n_h: int,
    gamma_bar: float,
    qos: QosSpec,
) -> float:
    """Energy cost per reliably delivered information bit.

    Composes the Rayleigh PER, the expected transmission count under the
    retransmission cap of ``qos`` and the per-attempt energy.
    """
    p = per_rayleigh(scheme, n_p + n_h, gamma_bar)
    return avg_transmissions(p, qos.max_retransmissions) * e0(
        coeffs, n_p, n_h, gamma_bar
    )
