"""Tests of what the oracle battery checks, beyond its pass/fail summary."""

import math
from collections import Counter

from linkopt import optimizer
from linkopt.config import default_config
from linkopt.validation import (
    check_multistart_agreement,
    check_payload_optima_vs_golden,
)

CFG = default_config()


def test_multistart_covers_every_amplifier_at_8_and_20_m(monkeypatch):
    """Ten starts per amplifier and distance, all on one fixed point."""
    seen = []
    solve = optimizer.solve_candidate

    def recording(link, qos, pa, *args, **kwargs):
        seen.append((pa.variant, link.distance_m))
        return solve(link, qos, pa, *args, **kwargs)

    monkeypatch.setattr(optimizer, "solve_candidate", recording)
    result = check_multistart_agreement(CFG)
    assert result.passed and result.residual <= 1e-6
    assert Counter(seen) == {
        (variant, d): 10 for variant in CFG.pa_models for d in (8.0, 20.0)
    }


def test_payload_check_reads_the_tpa_closed_form(monkeypatch):
    """The TPA branch checks the solver's closed form: shifting it by three
    bits fails the check, which a search-against-search check would miss."""
    assert check_payload_optima_vs_golden(CFG).passed
    closed_form = optimizer._payload_continuous_tpa
    monkeypatch.setattr(
        optimizer, "_payload_continuous_tpa",
        lambda *args: closed_form(*args) + 3.0,
    )
    result = check_payload_optima_vs_golden(CFG)
    assert not result.passed
    assert math.isfinite(result.residual) and result.residual >= 2.0
    assert result.detail.endswith("/tpa")
