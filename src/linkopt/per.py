"""Packet error rate in Rayleigh block-fading: the types and closed forms.

Closed-form PER approximation built on the waterfall threshold (the integral
of the AWGN PER curve over SNR) and the Gumbel extreme-value expression for
that threshold.  Also derives the reliability bounds that condition the link
optimizer: the minimum average SNR for a PER target and the maximum payload
a link can carry.  The quadrature oracles that check these closed forms live
in :mod:`linkopt.oracles`.

All SNR quantities are linear average SNR per bit unless a name says
otherwise.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import OutOfRegimeError

# Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.57721566490153286

# Fitted constants mapping a Gaussian-Q BER law onto an exponential one of the
# same shape: c Q(sqrt(k g)) ~ 0.2114 c exp(-0.5598 k g).  Used by every
# Rayleigh-fading closed form; the raw constants are kept for AWGN evaluation.
Q_AMPLITUDE_FIT = 0.2114
Q_DECAY_FIT = 0.5598


class BerForm(Enum):
    """Functional form of the bit error rate law b_e(gamma)."""

    EXPONENTIAL = "exponential"   # c * exp(-k * gamma)
    GAUSSIAN_Q = "gaussian_q"     # c * Q(sqrt(k * gamma))


class CircuitClass(Enum):
    """Which circuit-power figure from the scenario config applies."""

    MQAM = "mqam"
    MFSK = "mfsk"


@dataclass(frozen=True)
class ModulationScheme:
    """An uncoded modulation described by its BER law and waveform PAPR.

    Attributes:
        name: identifier, e.g. "16QAM".
        bits_per_symbol: log2 of the constellation size.
        ber_form: exponential or Gaussian-Q BER law.
        c_m: BER amplitude constant, 0 < c_m <= 1.
        k_m: BER decay constant against per-bit SNR, k_m > 0.
        papr: peak-to-average power ratio, linear, >= 1.
        circuit_power_class: circuit-power category for the energy model.
    """

    name: str
    bits_per_symbol: int
    ber_form: BerForm
    c_m: float
    k_m: float
    papr: float
    circuit_power_class: CircuitClass

    def __post_init__(self) -> None:
        if not 0.0 < self.c_m <= 1.0:
            raise ValueError(f"{self.name}: c_m must be in (0, 1], got {self.c_m}")
        if self.k_m <= 0.0:
            raise ValueError(f"{self.name}: k_m must be positive, got {self.k_m}")
        if self.papr < 1.0:
            raise ValueError(f"{self.name}: papr must be >= 1, got {self.papr}")
        if self.bits_per_symbol < 1:
            raise ValueError(f"{self.name}: bits_per_symbol must be >= 1")
        if self.c_eff == 0.0:  # Q_DECAY_FIT > 1/2 keeps k_eff above 0.
            raise ValueError(f"{self.name}: the fit of c_m={self.c_m} underflows to 0")

    # The fitted constants are cached in the instance dict on first use; the
    # solver reads them on every fixed-point iteration.  Equality and hash
    # still compare the declared fields only.
    @cached_property
    def c_eff(self) -> float:
        """Amplitude constant of the fitted exponential BER law."""
        if self.ber_form is BerForm.GAUSSIAN_Q:
            return Q_AMPLITUDE_FIT * self.c_m
        return self.c_m

    @cached_property
    def k_eff(self) -> float:
        """Decay constant of the fitted exponential BER law."""
        if self.ber_form is BerForm.GAUSSIAN_Q:
            return Q_DECAY_FIT * self.k_m
        return self.k_m

    @cached_property
    def log_c_eff(self) -> float:
        """``log(c_eff)``, which every payload ceiling takes."""
        return math.log(self.c_eff)


# Largest retransmission cap accepted.  A table solves one candidate per cap
# and scheme, so the cap bounds its work; the reference cap is 3.
MAX_RETRANSMISSIONS = 100


@dataclass(frozen=True)
class QosSpec:
    """Probabilistic reliability target with a truncated retransmission cap.

    A packet may be sent at most ``max_retransmissions + 1`` times, with a
    cap of at most ``MAX_RETRANSMISSIONS``; the residual failure probability
    after the last attempt must not exceed ``target_per``.  The implied
    per-attempt PER bound is cached in ``per_attempt_bound``; a bound that
    rounds to 1 is rejected, because the payload ceiling takes ``log_keep =
    log1p(-bound)``, which is set with it but is not a field.
    """

    target_per: float
    max_retransmissions: int
    per_attempt_bound: float = None  # type: ignore[assignment]  # derived

    def __post_init__(self) -> None:
        if not 0.0 < self.target_per < 1.0:
            raise ValueError(f"target_per: must be in (0, 1), got {self.target_per}")
        if self.max_retransmissions < 0:
            raise ValueError("max_retransmissions: must be >= 0")
        if self.max_retransmissions > MAX_RETRANSMISSIONS:
            raise ValueError(
                f"max_retransmissions: must be <= {MAX_RETRANSMISSIONS}, "
                f"got {self.max_retransmissions}"
            )
        bound = self.target_per ** (1.0 / (self.max_retransmissions + 1))
        if bound >= 1.0:
            raise ValueError(
                f"target_per: {self.target_per!r} with max_retransmissions "
                f"= {self.max_retransmissions} gives a per-attempt PER bound "
                f"that rounds to 1"
            )
        object.__setattr__(self, "per_attempt_bound", bound)
        object.__setattr__(self, "log_keep", math.log1p(-bound))


def waterfall_threshold(scheme: ModulationScheme, n_bits: int) -> float:
    """Closed-form waterfall threshold via the Gumbel extreme-value mean.

    The AWGN PER curve of an N-bit packet is asymptotically a Gumbel CDF;
    the threshold equals its expected value
    ``(ln(N c_eff) + euler_gamma) / k_eff``.

    Raises:
        OutOfRegimeError: when ``n_bits * c_eff <= 1``, where the Gumbel
            location parameter is non-positive and the asymptotic regime
            does not apply.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    n_c = n_bits * scheme.c_eff
    if n_c <= 1.0:
        raise OutOfRegimeError(
            f"{scheme.name}: packet of {n_bits} bits is below the waterfall "
            f"regime (N * c_eff = {n_c:.4g} <= 1)"
        )
    return (math.log(n_c) + EULER_GAMMA) / scheme.k_eff


def per_rayleigh(scheme: ModulationScheme, n_bits: int, gamma_bar: float) -> float:
    """Closed-form average PER in Rayleigh block-fading.

    Equals ``1 - exp(-w0 / gamma_bar)`` with the Gumbel waterfall threshold
    w0; strictly decreasing in SNR and increasing in packet size.
    """
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    w0 = waterfall_threshold(scheme, n_bits)
    return -math.expm1(-w0 / gamma_bar)


def snr_min(
    scheme: ModulationScheme, n_h: int, n_p: int, qos: QosSpec
) -> float:
    """Minimum average SNR meeting the per-attempt PER bound.

    Exact functional inverse of :func:`per_rayleigh` in SNR for the packet
    ``n_h + n_p``.
    """
    w0 = waterfall_threshold(scheme, n_h + n_p)
    return -w0 / qos.log_keep


# Payload sizes above this are reported as "effectively unlimited"; the
# closed form overflows double precision long before any physical packet.
PAYLOAD_CEILING = 10 ** 15


def payload_max(
    scheme: ModulationScheme, n_h: int, gamma_bar: float, qos: QosSpec
) -> int:
    """Largest payload (bits) carried at `gamma_bar` within the PER bound.

    Exact inverse of :func:`per_rayleigh` in packet size, floored to an
    integer bit count.  Returns 0 when the link cannot carry any payload at
    this SNR, and saturates at ``PAYLOAD_CEILING`` when the bound exceeds
    any physical packet.
    """
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    exponent = (
        -(EULER_GAMMA + gamma_bar * scheme.k_eff * qos.log_keep) - scheme.log_c_eff
    )
    if exponent > 40.0:
        return PAYLOAD_CEILING
    value = math.exp(exponent) - n_h
    if value <= 0.0:
        return 0
    return min(math.floor(value), PAYLOAD_CEILING)


def _mqam_c(order: int) -> float:
    return 4.0 * (1.0 - 1.0 / math.sqrt(order)) / math.log2(order)


def _mqam_k(order: int) -> float:
    return 3.0 * math.log2(order) / (order - 1.0)


def papr_mqam_growing(order: int) -> float:
    """Square-MQAM PAPR approximation that grows with the constellation size.

    ``3 (sqrt(M) - 1/sqrt(M) + 1)``.  The default table uses this variant;
    see :func:`papr_mqam_bounded` for the alternative.
    """
    r = math.sqrt(order)
    return 3.0 * (r - 1.0 / r + 1.0)


def papr_mqam_bounded(order: int) -> float:
    """Square-MQAM PAPR approximation that saturates at 3.

    ``3 (sqrt(M) - 1) / (sqrt(M) + 1)``.  Selectable through the scenario
    config for sensitivity checks.
    """
    r = math.sqrt(order)
    return 3.0 * (r - 1.0) / (r + 1.0)


MQAM_PAPR_FORMULAS = {
    "growing": papr_mqam_growing,
    "bounded": papr_mqam_bounded,
}


def default_modulations(mqam_papr: str = "growing") -> tuple[ModulationScheme, ...]:
    """Default modulation table: NCFSK, BPSK, OQPSK and square MQAM.

    BER constants are the standard per-bit-SNR approximations: coherent
    (O)QPSK/BPSK use Q(sqrt(2 g)); square MQAM uses the nearest-neighbour
    bound; non-coherent FSK uses exp(-g/2)/2.  All overridable via config.
    """
    try:
        papr = MQAM_PAPR_FORMULAS[mqam_papr]
    except KeyError:
        raise ValueError(
            f"unknown MQAM PAPR formula {mqam_papr!r}; "
            f"expected one of {sorted(MQAM_PAPR_FORMULAS)}"
        ) from None
    mods = [
        ModulationScheme(
            "NCFSK", 1, BerForm.EXPONENTIAL, 0.5, 0.5, 1.0, CircuitClass.MFSK
        ),
        ModulationScheme(
            "BPSK", 1, BerForm.GAUSSIAN_Q, 1.0, 2.0, 1.0, CircuitClass.MQAM
        ),
        ModulationScheme(
            "OQPSK", 2, BerForm.GAUSSIAN_Q, 1.0, 2.0, 2.138, CircuitClass.MQAM
        ),
    ]
    for order in (4, 16, 64):
        mods.append(
            ModulationScheme(
                f"{order}QAM",
                int(math.log2(order)),
                BerForm.GAUSSIAN_Q,
                _mqam_c(order),
                _mqam_k(order),
                papr(order),
                CircuitClass.MQAM,
            )
        )
    return tuple(mods)
