"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in this
module's summary on failure) and asserts the criterion at the tolerance
fixed here; nothing is deferred to later calibration.
"""

import math
import random
from dataclasses import replace

import pytest

from linkopt.config import default_config
from linkopt.energy import PaVariant, energy_coefficients
from linkopt.optimizer import Binding, joint_optimize, payload_map, snr_max
from linkopt.oracles import (
    golden_payload,
    golden_section_min_relative,
    per_rayleigh_exact,
    waterfall_threshold_numeric,
)
from linkopt.per import waterfall_threshold
from linkopt.validation import BatteryRun, _snr_optimum, run_all_checks

CFG = default_config()
MODS = {m.name: m for m in CFG.modulations}
# The quadrature tolerances the battery passes to the oracles.
EPSREL, EPSABS = CFG.quad_epsrel, CFG.quad_epsabs


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def link_at(d):
    return replace(CFG.link_template, distance_m=d)


def optimize_at(d, variant, modulations=None):
    return joint_optimize(
        link_at(d), CFG.qos, CFG.pa_models[variant],
        modulations or CFG.modulations, CFG.n_h,
        delta=CFG.delta, circuit_power=CFG.circuit_power,
    )


@pytest.fixture(scope="module")
def band_sweeps():
    """Optimal modulation per distance on a 0.5 m grid, per amplifier."""
    distances = [2.0 + 0.5 * i for i in range(157)]  # 2 .. 80 m
    out = {}
    for variant in PaVariant:
        points = []
        for d in distances:
            point = optimize_at(d, variant)
            points.append((d, point.scheme.name if point.feasible else None))
        out[variant] = points
    return out


@pytest.fixture(scope="module")
def gain_curves():
    """Lifetime gain (percent) against the OQPSK baseline per distance."""
    baseline_set = (MODS["OQPSK"],)
    out = {}
    for variant in PaVariant:
        curve = []
        for d in CFG.distances():
            best = optimize_at(d, variant)
            base = optimize_at(d, variant, baseline_set)
            if best.feasible and base.feasible:
                gain = 100.0 * (base.energy / best.energy - 1.0)
                curve.append((d, gain))
        out[variant] = curve
    return out


def band_end(points, name):
    end = None
    for d, selected in points:
        if selected == name:
            end = d
    return end


class TestCriterion1:
    def test_waterfall_threshold_accuracy(self):
        """Closed-form threshold within 3% of quadrature for all schemes."""
        worst = 0.0
        where = ""
        for scheme in CFG.modulations:
            for n in (120, 512, 1024, 10048):
                numeric = waterfall_threshold_numeric(scheme, n, EPSREL, EPSABS)
                closed = waterfall_threshold(scheme, n)
                rel = abs(closed - numeric) / numeric
                if rel > worst:
                    worst, where = rel, f"{scheme.name}/N={n}"
        ok = worst <= 0.03
        report(1, "waterfall accuracy", ok, f"max rel err {worst:.4%} at {where}")
        assert ok

    def test_out_of_regime_not_silently_extrapolated(self):
        from linkopt.errors import OutOfRegimeError

        with pytest.raises(OutOfRegimeError):
            waterfall_threshold(MODS["BPSK"], 2)


class TestCriterion2:
    def test_approximation_error_tracks_bound_error(self):
        """16QAM relative error stays within 2 points of the bound's."""
        scheme = MODS["16QAM"]
        worst = 0.0
        where = ""
        for n in (120, 1024, 10048):
            w_closed = waterfall_threshold(scheme, n)
            w_num = waterfall_threshold_numeric(scheme, n, EPSREL, EPSABS)
            for snr_db in range(10, 41, 2):
                g = 10.0 ** (snr_db / 10.0)
                exact = per_rayleigh_exact(scheme, n, g, EPSREL, EPSABS)
                re_closed = abs(-math.expm1(-w_closed / g) - exact) / exact
                re_bound = abs(-math.expm1(-w_num / g) - exact) / exact
                gap = abs(re_closed - re_bound)
                if gap > worst:
                    worst, where = gap, f"N={n}/{snr_db}dB"
        ok = worst <= 0.02
        report(2, "PER error vs bound", ok,
               f"max gap {100 * worst:.3f} pp at {where}")
        assert ok


class TestCriterion3:
    def test_closed_form_optima_match_search_on_200_instances(self):
        """SNR optima to 1e-6 relative, payload optima to one bit."""
        rng = random.Random(3155)
        variants = list(CFG.pa_models.values())
        schemes = list(CFG.modulations)
        worst_snr = 0.0
        worst_payload = 0
        for _ in range(200):
            scheme = rng.choice(schemes)
            pa = rng.choice(variants)
            link = link_at(rng.uniform(1.0, 80.0))
            n_p = rng.randrange(16, 2000)
            p_c = CFG.circuit_power[scheme.circuit_power_class]
            coeffs = energy_coefficients(pa, scheme, link, p_c)
            w0 = waterfall_threshold(scheme, n_p + CFG.n_h)
            rho = n_p / (n_p + CFG.n_h)

            star = _snr_optimum(coeffs, scheme, n_p, CFG.n_h)
            if pa.variant is PaVariant.TPA:
                curve = lambda g: math.exp(min(w0 / g, 700.0)) * (
                    coeffs.a_coeff * math.sqrt(g) + coeffs.b_coeff * rho
                )
            else:
                curve = lambda g: math.exp(min(w0 / g, 700.0)) * (
                    coeffs.a_coeff * g + coeffs.b_coeff * rho
                )
            numeric = golden_section_min_relative(curve, w0 * 1e-3, w0 * 1e9,
                                                  1e-9)
            worst_snr = max(worst_snr, abs(star - numeric) / numeric)

            # Capped at the sampled SNR, the map conditions to it unless the
            # unconstrained optimum lies below; both routes use that SNR.
            g, _, stationary = payload_map(
                coeffs, scheme, CFG.n_h, 10.0 ** rng.uniform(1.2, 3.4)
            )(n_p, -math.inf)
            numeric_payload = math.floor(
                golden_payload(coeffs, scheme, CFG.n_h, g)
            )
            # Stationary points below one bit pin to the one-bit boundary.
            analytic = max(1, math.floor(stationary))
            worst_payload = max(worst_payload,
                                abs(analytic - numeric_payload))
        ok = worst_snr <= 1e-6 and worst_payload <= 1
        report(3, "oracle equivalence", ok,
               f"snr rel {worst_snr:.2e}, payload gap {worst_payload} bit")
        assert worst_snr <= 1e-6
        assert worst_payload <= 1


class TestCriterion4:
    def test_feasibility_triptych(self):
        """Fixed-payload 4QAM: optimum, then floor-bound, then infeasible."""
        scheme = MODS["4QAM"]
        pa = CFG.pa_models[PaVariant.CPA]
        log_keep = math.log1p(-CFG.qos.per_attempt_bound)

        def regime(d):
            """The binding of the solver's payload map at 976 payload bits;
            the map rejects the payload when the floor exceeds the cap."""
            link = link_at(d)
            coeffs = energy_coefficients(pa, scheme, link, 0.31)
            step = payload_map(coeffs, scheme, CFG.n_h, snr_max(link, scheme, pa))
            result = step(976, log_keep)
            if isinstance(result, str):
                assert "exceeds snr_max" in result
                return Binding.INFEASIBLE
            return result[1]

        grid = [2.0 + 0.25 * i for i in range(313)]  # 2 .. 80 m
        regimes = [regime(d) for d in grid]
        sequence = [regimes[0]]
        for r in regimes[1:]:
            if r is not sequence[-1]:
                sequence.append(r)
        floor_start = next(
            (d for d, r in zip(grid, regimes) if r is Binding.SNR_MIN_BOUND),
            None,
        )
        infeasible_start = next(
            (d for d, r in zip(grid, regimes) if r is Binding.INFEASIBLE),
            None,
        )
        ok = (
            sequence == [
                Binding.UNCONSTRAINED, Binding.SNR_MIN_BOUND, Binding.INFEASIBLE,
            ]
            and regime(10.0) is Binding.UNCONSTRAINED
            and regime(70.0) is Binding.INFEASIBLE
            and floor_start is not None and 8.0 < floor_start < 36.0
            and infeasible_start is not None and 24.0 < infeasible_start < 84.0
        )
        report(
            4, "feasibility triptych", ok,
            f"regimes {[r.value for r in sequence]}, floor from "
            f"{floor_start} m, infeasible from {infeasible_start} m",
        )
        assert ok


class TestCriterion5:
    def test_band_structure_and_tpa_range_reduction(self, band_sweeps):
        """Modulation order non-increasing; TPA halves the top-order range."""
        bits = {name: mod.bits_per_symbol for name, mod in MODS.items()}
        cpa = band_sweeps[PaVariant.CPA]
        orders = [bits[name] for _, name in cpa if name is not None]
        non_increasing = all(a >= b for a, b in zip(orders, orders[1:]))

        contiguous = True
        seen = set()
        previous = None
        for _, name in cpa:
            if name != previous:
                if name in seen:
                    contiguous = False
                if name is not None:
                    seen.add(name)
                previous = name

        tpa_end = band_end(band_sweeps[PaVariant.TPA], "64QAM")
        etpa_end = band_end(band_sweeps[PaVariant.ETPA], "64QAM")
        ratio = tpa_end / etpa_end if tpa_end and etpa_end else None
        ok = (
            non_increasing and contiguous
            and ratio is not None and 0.3 <= ratio <= 0.7
        )
        report(
            5, "band structure", ok,
            f"non-increasing={non_increasing}, contiguous={contiguous}, "
            f"64QAM horizon tpa/etpa = {tpa_end}/{etpa_end} = "
            f"{ratio if ratio is None else round(ratio, 3)}",
        )
        assert ok


class TestCriterion6:
    def test_etpa_band_landmarks(self, band_sweeps):
        """64QAM holds to about 11 m and 16QAM to about 24 m under ETPA."""
        points = band_sweeps[PaVariant.ETPA]
        end64 = band_end(points, "64QAM")
        end16 = band_end(points, "16QAM")
        ok = (
            end64 is not None and 11.0 * 0.7 <= end64 <= 11.0 * 1.3
            and end16 is not None and 24.0 * 0.7 <= end16 <= 24.0 * 1.3
        )
        report(6, "ETPA band landmarks", ok,
               f"64QAM to {end64} m (target 11 +-30%), "
               f"16QAM to {end16} m (target 24 +-30%)")
        assert ok


class TestCriterion7:
    def test_lifetime_gains(self, gain_curves):
        """Short-range gains near 180% (CPA) and 125% (ETPA); TPA below ETPA."""
        cpa_peak = max(g for d, g in gain_curves[PaVariant.CPA] if d <= 5.0)
        etpa_peak = max(g for d, g in gain_curves[PaVariant.ETPA] if d <= 5.0)
        tpa = dict(gain_curves[PaVariant.TPA])
        etpa = dict(gain_curves[PaVariant.ETPA])
        dominance = True
        worst_gap = None
        for d, etpa_gain in etpa.items():
            if d not in tpa:
                continue
            if etpa_gain > 1.0 and not tpa[d] < etpa_gain:
                dominance = False
                worst_gap = (d, tpa[d], etpa_gain)
        ok = (
            155.0 <= cpa_peak <= 205.0
            and 100.0 <= etpa_peak <= 150.0
            and dominance
        )
        report(
            7, "lifetime gains", ok,
            f"CPA peak {cpa_peak:.1f}% (target 180 +-25), ETPA peak "
            f"{etpa_peak:.1f}% (target 125 +-25), TPA below ETPA: {dominance}"
            + (f" violated at {worst_gap}" if worst_gap else ""),
        )
        assert ok


class TestCriterion8:
    def test_invariant_suites_all_pass(self):
        """The full oracle cross-check battery stays green."""
        results = run_all_checks(BatteryRun(CFG))
        failed = [r.name for r in results if not r.passed]
        ok = not failed
        report(8, "invariant suites", ok,
               f"{len(results) - len(failed)}/{len(results)} checks passed"
               + (f", failed: {failed}" if failed else ""))
        assert ok
