"""Packet error rate in Rayleigh block-fading.

Closed-form PER approximation built on the waterfall threshold (the integral
of the AWGN PER curve over SNR), the Gumbel extreme-value expression for that
threshold, and the numerical-integration oracles used to validate both.  Also
derives the reliability bounds that condition the link optimizer: the minimum
average SNR for a PER target and the maximum payload a link can carry.

All SNR quantities are linear average SNR per bit unless a name says
otherwise.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import OutOfRegimeError, QuadratureError

# Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.57721566490153286

# Fitted constants mapping a Gaussian-Q BER law onto an exponential one of the
# same shape: c Q(sqrt(k g)) ~ 0.2114 c exp(-0.5598 k g).  Used by every
# Rayleigh-fading closed form; the raw constants are kept for AWGN evaluation.
Q_AMPLITUDE_FIT = 0.2114
Q_DECAY_FIT = 0.5598

# Adaptive quadrature settings: the integrand cutoff is doubled until the
# AWGN PER falls below CUTOFF_FLOOR, then integrated to the tolerances below.
QUAD_EPSREL = 1e-10
QUAD_EPSABS = 1e-14
CUTOFF_FLOOR = 1e-12


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

    @property
    def c_eff(self) -> float:
        """Amplitude constant of the fitted exponential BER law."""
        if self.ber_form is BerForm.GAUSSIAN_Q:
            return Q_AMPLITUDE_FIT * self.c_m
        return self.c_m

    @property
    def k_eff(self) -> float:
        """Decay constant of the fitted exponential BER law."""
        if self.ber_form is BerForm.GAUSSIAN_Q:
            return Q_DECAY_FIT * self.k_m
        return self.k_m


@dataclass(frozen=True)
class QosSpec:
    """Probabilistic reliability target with a truncated retransmission cap.

    A packet may be sent at most ``max_retransmissions + 1`` times; the
    residual failure probability after the last attempt must not exceed
    ``target_per``.  The implied per-attempt PER bound is cached in
    ``per_attempt_bound``.
    """

    target_per: float
    max_retransmissions: int
    per_attempt_bound: float = None  # type: ignore[assignment]  # derived

    def __post_init__(self) -> None:
        if not 0.0 < self.target_per < 1.0:
            raise ValueError(f"target_per must be in (0, 1), got {self.target_per}")
        if self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be >= 0")
        bound = self.target_per ** (1.0 / (self.max_retransmissions + 1))
        object.__setattr__(self, "per_attempt_bound", bound)


def _q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber(scheme: ModulationScheme, gamma: float) -> float:
    """AWGN bit error rate of `scheme` at linear per-bit SNR `gamma`.

    Evaluates the raw BER law (not the exponential fit), clamped to [0, 1].
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if scheme.ber_form is BerForm.EXPONENTIAL:
        value = scheme.c_m * math.exp(-scheme.k_m * gamma)
    else:
        value = scheme.c_m * _q_function(math.sqrt(scheme.k_m * gamma))
    return min(max(value, 0.0), 1.0)


def awgn_per(scheme: ModulationScheme, n_bits: int, gamma: float) -> float:
    """AWGN packet error rate 1 - (1 - BER)^N for an N-bit uncoded packet."""
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    b = ber(scheme, gamma)
    if b >= 1.0:
        return 1.0
    # expm1/log1p keeps precision when the per-bit error is tiny.
    return -math.expm1(n_bits * math.log1p(-b))


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


def _awgn_cutoff(scheme: ModulationScheme, n_bits: int) -> float:
    """Upper integration limit: doubled until the AWGN PER is negligible."""
    hi = 1.0
    while awgn_per(scheme, n_bits, hi) > CUTOFF_FLOOR:
        hi *= 2.0
        if hi > 1e12:
            raise QuadratureError(
                f"{scheme.name}: AWGN PER does not decay below {CUTOFF_FLOOR} "
                f"by gamma = {hi}"
            )
    return hi


def _checked_quad(
    f,
    lo: float,
    hi: float,
    what: str,
    epsrel: float = QUAD_EPSREL,
    epsabs: float = QUAD_EPSABS,
) -> float:
    # Only the quadrature oracles need scipy; the solver path never loads it.
    from scipy import integrate

    value, abserr = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=400)
    if abserr > max(10.0 * epsabs, 1e-6 * abs(value)):
        raise QuadratureError(
            f"{what}: quadrature error estimate {abserr:.3g} too large for "
            f"value {value:.6g} on [{lo:.3g}, {hi:.3g}]"
        )
    return value


def waterfall_threshold_numeric(
    scheme: ModulationScheme,
    n_bits: int,
    epsrel: float = QUAD_EPSREL,
    epsabs: float = QUAD_EPSABS,
) -> float:
    """Waterfall threshold by adaptive quadrature of the AWGN PER curve.

    This is the validation oracle for :func:`waterfall_threshold`; it
    integrates the exact (un-fitted) AWGN PER over SNR.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    hi = _awgn_cutoff(scheme, n_bits)
    return _checked_quad(
        lambda g: awgn_per(scheme, n_bits, g), 0.0, hi,
        f"waterfall threshold {scheme.name} N={n_bits}",
        epsrel, epsabs,
    )


def per_rayleigh(scheme: ModulationScheme, n_bits: int, gamma_bar: float) -> float:
    """Closed-form average PER in Rayleigh block-fading.

    Equals ``1 - exp(-w0 / gamma_bar)`` with the Gumbel waterfall threshold
    w0; strictly decreasing in SNR and increasing in packet size.
    """
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    w0 = waterfall_threshold(scheme, n_bits)
    return -math.expm1(-w0 / gamma_bar)


def per_rayleigh_bound_numeric(
    scheme: ModulationScheme, n_bits: int, gamma_bar: float
) -> float:
    """Rayleigh PER upper bound using the numerically integrated threshold."""
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    w0 = waterfall_threshold_numeric(scheme, n_bits)
    return -math.expm1(-w0 / gamma_bar)


def per_rayleigh_exact(
    scheme: ModulationScheme,
    n_bits: int,
    gamma_bar: float,
    epsrel: float = QUAD_EPSREL,
    epsabs: float = QUAD_EPSABS,
) -> float:
    """Average PER by numerical integration over the Rayleigh SNR density.

    The real-PER oracle: integrates the exact AWGN PER against the
    exponential density of the instantaneous SNR.  The integral is truncated
    where the AWGN PER falls below ``CUTOFF_FLOOR``; the discarded tail is
    bounded by that floor.
    """
    if gamma_bar <= 0.0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    hi = _awgn_cutoff(scheme, n_bits)
    integrand = (
        lambda g: awgn_per(scheme, n_bits, g) * math.exp(-g / gamma_bar) / gamma_bar
    )
    what = f"exact Rayleigh PER {scheme.name} N={n_bits}"
    # Split where the Rayleigh density concentrates, so deep-fade averages
    # (gamma_bar far below the AWGN cutoff) are not missed by the panels.
    split = min(hi, 60.0 * gamma_bar)
    value = _checked_quad(integrand, 0.0, split, what, epsrel, epsabs)
    if split < hi:
        value += _checked_quad(integrand, split, hi, what, epsrel, epsabs)
    return value


def required_per(qos: QosSpec) -> float:
    """Per-attempt PER bound implied by the reliability target."""
    return qos.per_attempt_bound


def snr_min(
    scheme: ModulationScheme, n_h: int, n_p: int, qos: QosSpec
) -> float:
    """Minimum average SNR meeting the per-attempt PER bound.

    Exact functional inverse of :func:`per_rayleigh` in SNR for the packet
    ``n_h + n_p``.
    """
    w0 = waterfall_threshold(scheme, n_h + n_p)
    return -w0 / math.log1p(-qos.per_attempt_bound)


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
        -(EULER_GAMMA + gamma_bar * scheme.k_eff * math.log1p(-qos.per_attempt_bound))
        - math.log(scheme.c_eff)
    )
    if exponent > 40.0:
        return PAYLOAD_CEILING
    value = math.exp(exponent) - n_h
    if value <= 0.0:
        return 0
    return min(math.floor(value), PAYLOAD_CEILING)


def waterfall_from_coded_constants(k_cap: float, b_cap: float, n_bits: int) -> float:
    """Waterfall threshold from log-linear packet-size constants.

    Schemes whose threshold has been fitted externally as
    ``w0 = k_cap * ln(N) + b_cap`` (the usual parameterization for coded
    transmissions) can reuse every Rayleigh-fading formula here.  The uncoded
    laws correspond to ``k_cap = 1/k_eff`` and
    ``b_cap = (ln(c_eff) + euler_gamma)/k_eff``.
    """
    if k_cap <= 0.0:
        raise ValueError(f"k_cap must be > 0, got {k_cap}")
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    w0 = k_cap * math.log(n_bits) + b_cap
    if w0 <= 0.0:
        raise OutOfRegimeError(
            f"coded constants give non-positive threshold {w0:.4g} at N={n_bits}"
        )
    return w0


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
