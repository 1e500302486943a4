"""Numeric oracles: the independent routes that check the closed forms.

The quadrature oracles integrate the exact (un-fitted) AWGN PER curve, alone
for the waterfall threshold or against the Rayleigh SNR density for the
average PER, with an adaptive 21-point Gauss-Kronrod rule after QUADPACK.
The search oracles find the SNR and payload optima of the energy curves by
golden-section search, and the TPA stationarity root by bisection.

Only the validation battery and the tests run these; the solver never
imports this module.  The functions are pure and thread-safe.  An
:class:`AwgnPerCurve` holds a memo of the panels it has evaluated; it is
owned by the one call or battery run that made it, and nothing is cached
at module level.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from operator import mul
from typing import Callable

from .energy import EnergyCoefficients, PaVariant
from .errors import QuadratureError
from .per import BerForm, ModulationScheme, waterfall_threshold

# The integrand cutoff is doubled until the AWGN PER falls below
# CUTOFF_FLOOR; the callers pass the config's quadrature tolerances.
CUTOFF_FLOOR = 1e-12


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


# QUADPACK's 21-point Gauss-Kronrod rule QK21 (Piessens et al., QUADPACK,
# 1983): the Kronrod abscissae in (0, 1), outermost first, their weights and
# the weight of the centre.  Every second abscissa from the second is also
# one of the embedded 10-point Gauss rule; _WG holds its weights, with 0 at
# the others.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208062052915, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
)
# The rule over all 21 nodes of [-1, 1], left to right.
_NODES = tuple(-x for x in _XGK) + (0.0,) + _XGK[::-1]
_KRONROD = _WGK + (_WGK_CENTRE,) + _WGK[::-1]
_GAUSS = _WG + (0.0,) + _WG[::-1]
# The nonzero Gauss weights, those of the odd nodes.
_GAUSS_ODD = _GAUSS[1::2]
# Round-off floor of a panel's error estimate, relative to its integral of |f|.
_ROUNDOFF = 50.0 * sys.float_info.epsilon
# Most panels one adaptive integral may split into (QUADPACK's ``limit``).
QUAD_PANELS = 400


def _qk21(f, a: float, b: float) -> tuple[float, float]:
    """QK21 on one panel: the Kronrod value and QUADPACK's error estimate.

    The Gauss estimate sums only the 10 nodes of nonzero Gauss weight, the
    odd ones of :data:`_NODES`.  The integral of ``|f|`` that scales the
    round-off floor is the Kronrod sum itself when no value is negative, as
    for every PER and PER density the oracles integrate.  For finite values
    both are bit-identical to the sums over all 21 nodes: each skipped term
    is a zero weight times a value, ±0.0, which leaves a float sum as it
    is, and ``|v| = v`` for ``v >= 0``.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = f(centre, half)
    kronrod = sum(map(mul, _KRONROD, values))
    mean = 0.5 * kronrod
    width = abs(half)
    if min(values) >= 0.0:
        res_abs = kronrod * width
    else:
        res_abs = sum(map(mul, _KRONROD, map(abs, values))) * width
    res_asc = sum(map(mul, _KRONROD, [abs(v - mean) for v in values])) * width
    err = abs((kronrod - sum(map(mul, _GAUSS_ODD, values[1::2]))) * half)
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    return kronrod * half, max(_ROUNDOFF * res_abs, err)


def _gauss_kronrod(f, lo: float, hi: float, epsrel: float, epsabs: float):
    """Adaptive QK21 integral of `f` over [lo, hi]: (value, error estimate).

    The integrand works on whole panels: ``f(centre, half)`` returns its
    values at the 21 nodes ``centre + half * x`` for ``x`` in
    :data:`_NODES`, in that order.  The panel with the largest error
    estimate is bisected until the summed estimate is at most
    ``max(epsabs, epsrel * |value|)`` or there are :data:`QUAD_PANELS`
    panels.  The value is the correctly rounded sum of the panels.  This is
    QUADPACK's QAG scheme; the caller judges the returned estimate.
    """
    value, err = _qk21(f, lo, hi)
    panels = [(-err, lo, hi, value)]
    while err > max(epsabs, epsrel * abs(value)) and len(panels) < QUAD_PANELS:
        neg_err, a, b, part = heappop(panels)
        mid = 0.5 * (a + b)
        left, left_err = _qk21(f, a, mid)
        right, right_err = _qk21(f, mid, b)
        heappush(panels, (-left_err, a, mid, left))
        heappush(panels, (-right_err, mid, b, right))
        value += left + right - part
        err += left_err + right_err + neg_err
    return math.fsum(p[3] for p in panels), -math.fsum(p[0] for p in panels)


def _checked_quad(
    f,
    lo: float,
    hi: float,
    what: str,
    epsrel: float,
    epsabs: float,
) -> float:
    """:func:`_gauss_kronrod` of the panel integrand `f`, raising
    QuadratureError unless the value is finite and the error estimate is
    within ``max(10 epsabs, 1e-6 |value|)``."""
    value, abserr = _gauss_kronrod(f, lo, hi, epsrel, epsabs)
    bound = max(10.0 * epsabs, 1e-6 * abs(value))
    # Written so that a nan value or estimate fails the test too.
    if not (math.isfinite(value) and abserr <= bound):
        raise QuadratureError(
            f"{what}: quadrature error estimate {abserr:.3g} too large for "
            f"value {value:.6g} on [{lo:.3g}, {hi:.3g}]"
        )
    return value


def _awgn_pers(scheme: ModulationScheme, n_bits: int, gammas: list) -> list:
    """:func:`awgn_per` of one packet at each SNR of `gammas`.

    Each value takes the same operations in the same order as
    :func:`awgn_per`, so it is bit-identical; the clamp to [0, 1] is left
    out because ``0 < c_m <= 1`` already keeps the BER there for
    ``gamma >= 0``, the only SNRs the quadrature oracles evaluate.
    """
    c, k = scheme.c_m, scheme.k_m
    expm1, log1p = math.expm1, math.log1p
    if scheme.ber_form is BerForm.EXPONENTIAL:
        exp = math.exp
        return [
            1.0 if (b := c * exp(-k * g)) >= 1.0 else -expm1(n_bits * log1p(-b))
            for g in gammas
        ]
    # The Q-function BER is at most c_m / 2, so it never reaches 1.
    erfc, sqrt = math.erfc, math.sqrt
    root2 = math.sqrt(2.0)
    return [
        -expm1(n_bits * log1p(-(c * (0.5 * erfc(sqrt(k * g) / root2)))))
        for g in gammas
    ]


class AwgnPerCurve:
    """The exact AWGN PER of one packet over SNR, read one QK21 panel at a time.

    The curve finds its integration cutoff once, when it is made.
    :meth:`panel` evaluates the 21 nodes of a panel in one call and keeps
    them keyed on the panel's ``(centre, half)``, the two numbers the nodes
    are computed from.  Every integral of one packet size bisects the same
    dyadic panels of ``[0, cutoff]``, so the integrals that share a curve
    evaluate each node once.  The memo lives as long as the curve: a
    standalone oracle call makes its own, and the validation battery holds
    one per scheme and packet size for one run.
    """

    def __init__(self, scheme: ModulationScheme, n_bits: int):
        self.scheme = scheme
        self.n_bits = n_bits
        self.cutoff = _awgn_cutoff(scheme, n_bits)
        self._panels: dict = {}

    def panel(self, centre: float, half: float) -> tuple[list, list]:
        """The SNRs of the panel's 21 nodes and :func:`awgn_per` at each,
        bit for bit."""
        panel = self._panels.get((centre, half))
        if panel is None:
            gammas = [centre + half * x for x in _NODES]
            panel = (gammas, _awgn_pers(self.scheme, self.n_bits, gammas))
            self._panels[centre, half] = panel
        return panel

    def threshold(self, epsrel: float, epsabs: float) -> float:
        """The curve integrated over ``[0, cutoff]``: the waterfall
        threshold (see :func:`waterfall_threshold_numeric`)."""
        return _checked_quad(
            lambda centre, half: self.panel(centre, half)[1],
            0.0, self.cutoff,
            f"waterfall threshold {self.scheme.name} N={self.n_bits}",
            epsrel, epsabs,
        )

    def rayleigh_average(
        self, gamma_bar: float, epsrel: float, epsabs: float
    ) -> float:
        """The curve averaged over the Rayleigh SNR density of mean
        `gamma_bar` (see :func:`per_rayleigh_exact`)."""
        if not gamma_bar > 0.0:
            raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
        exp = math.exp

        def integrand(centre: float, half: float) -> list:
            gammas, pers = self.panel(centre, half)
            return [p * exp(-g / gamma_bar) / gamma_bar
                    for g, p in zip(gammas, pers)]

        hi = self.cutoff
        what = f"exact Rayleigh PER {self.scheme.name} N={self.n_bits}"
        # Split where the Rayleigh density concentrates, so deep-fade averages
        # (gamma_bar far below the AWGN cutoff) are not missed by the panels.
        split = min(hi, 60.0 * gamma_bar)
        value = _checked_quad(integrand, 0.0, split, what, epsrel, epsabs)
        if split < hi:
            value += _checked_quad(integrand, split, hi, what, epsrel, epsabs)
        return value


def waterfall_threshold_numeric(
    scheme: ModulationScheme,
    n_bits: int,
    epsrel: float,
    epsabs: float,
) -> float:
    """Waterfall threshold by adaptive quadrature of the AWGN PER curve.

    This is the validation oracle for :func:`waterfall_threshold`; it
    integrates the exact (un-fitted) AWGN PER over SNR.
    """
    return AwgnPerCurve(scheme, n_bits).threshold(epsrel, epsabs)


def per_rayleigh_exact(
    scheme: ModulationScheme,
    n_bits: int,
    gamma_bar: float,
    epsrel: float,
    epsabs: float,
) -> float:
    """Average PER by numerical integration over the Rayleigh SNR density.

    The real-PER oracle: integrates the exact AWGN PER against the
    exponential density of the instantaneous SNR.  The integral is truncated
    where the AWGN PER falls below ``CUTOFF_FLOOR``; the discarded tail is
    bounded by that floor.
    """
    return AwgnPerCurve(scheme, n_bits).rayleigh_average(
        gamma_bar, epsrel, epsabs
    )


# Golden-section step fractions of the bracket: 1/phi and 1/phi^2.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _exp_or_inf(x: float) -> float:
    """exp(x) saturating to +inf instead of raising on overflow."""
    if x > 700.0:
        return math.inf
    return math.exp(x)


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Argmin of a unimodal scalar function by golden-section search.

    Returns a point within absolute distance `tol` of the minimizer; when
    the minimum sits on the bracket edge the edge itself is returned.
    Raises ValueError on bracket inconsistency: a non-finite comparison or a
    search that stalls in the interior above both endpoint values, either of
    which means the function was not unimodal on [lo, hi].
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    y_lo, y_hi = f(lo), f(hi)
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = f(c), f(d)
    while h > tol:
        if math.isnan(yc) or math.isnan(yd):
            raise ValueError(
                f"golden section saw a non-finite value near [{a:.6g}, {b:.6g}]"
            )
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = f(d)
    x, y = (c, yc) if yc < yd else (d, yd)
    best_y, best_x = min((y, x), (y_lo, lo), (y_hi, hi), key=lambda t: t[0])
    if best_y < y and a - lo > tol and hi - b > tol:
        raise ValueError(
            f"golden section stalled at f({x:.6g}) = {y:.6g}, above both "
            f"endpoints; function does not look unimodal on [{lo:.6g}, {hi:.6g}]"
        )
    return best_x


def golden_section_min_relative(
    f: Callable[[float], float], lo: float, hi: float, rel_tol: float
) -> float:
    """Golden-section argmin to a relative tolerance via log reparameterization.

    Searching over ln(x) makes the absolute tolerance of the inner search a
    relative tolerance on x and keeps a positive unimodal problem unimodal,
    so wide brackets spanning many decades stay cheap.
    """
    if lo <= 0.0:
        raise ValueError(f"need lo > 0 for relative search, got {lo}")
    u = golden_section_min(
        lambda t: f(math.exp(t)), math.log(lo), math.log(hi), rel_tol
    )
    return math.exp(u)


def _packet_energy_unbounded(
    coeffs: EnergyCoefficients,
    scheme: ModulationScheme,
    n_h: int,
    gamma_bar: float,
    n_p: float,
) -> float:
    """Unbounded-retransmission energy per bit at a real-valued payload."""
    n = n_h + n_p
    w0 = waterfall_threshold(scheme, n)
    overhead = n / n_p
    if coeffs.pa_variant is PaVariant.TPA:
        attempt = overhead * coeffs.a_coeff * math.sqrt(gamma_bar) + coeffs.b_coeff
    else:
        attempt = overhead * coeffs.a_coeff * gamma_bar + coeffs.b_coeff
    return _exp_or_inf(w0 / gamma_bar) * attempt


def golden_payload(
    coeffs: EnergyCoefficients, scheme: ModulationScheme, n_h: int, gamma_bar: float
) -> float:
    """Real-valued payload minimizing the unbounded-retransmission energy.

    Golden-section search to 1e-4 bits over [1, hi], where ``hi`` doubles
    from 16 bits until the energy curve turns upward or reaches 1e9 bits.
    """
    curve = lambda n_p: _packet_energy_unbounded(
        coeffs, scheme, n_h, gamma_bar, n_p
    )
    hi = 16.0
    while curve(hi) <= curve(hi / 2.0) and hi < 1e9:
        hi *= 2.0
    return golden_section_min(curve, 1.0, hi, 1e-4)


def _energy_curve_snr(coeffs, scheme, n_p, n_h):
    """Energy per bit of an ``n_p``-bit payload as a function of the SNR
    (unbounded retransmissions, payload-scaled circuit term), and its w0."""
    w0 = waterfall_threshold(scheme, n_h + n_p)

    def f(g):
        if coeffs.pa_variant is PaVariant.TPA:
            attempt = coeffs.a_coeff * math.sqrt(g) + coeffs.b_coeff * n_p / (
                n_h + n_p
            )
        else:
            attempt = coeffs.a_coeff * g + coeffs.b_coeff * n_p / (n_h + n_p)
        return _exp_or_inf(w0 / g) * attempt

    return f, w0


def cubic_root_bisection(p: float, q: float) -> float:
    """Positive root of ``x^3 + p x + q`` (p < 0, q <= 0) by plain bisection.

    The root lies in ``[sqrt(-p), 2 (sqrt(-p) + cbrt(-q))]``, where the cubic
    changes sign once; halving runs until the bracket is two adjacent floats.
    """
    f = lambda x: x * (x * x + p) + q
    lo = math.sqrt(-p)
    hi = 2.0 * (lo + (-q) ** (1.0 / 3.0))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
