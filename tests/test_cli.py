"""Tests for the command-line interface and its CSV contracts."""

import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkopt import cli
from linkopt import optimizer
from linkopt import validation
from linkopt.config import default_config, parse_config
from linkopt.energy import PaVariant
from linkopt.errors import ConfigError
from linkopt.per import MAX_RETRANSMISSIONS, QosSpec, per_rayleigh

SMALL_SWEEP = """\
[sweep]
d_min_m = 4
d_max_m = 20
d_step_m = 4
"""

# One custom scheme next to OQPSK.  With k_m = 1e200 the TPA cubic's root
# misses the cubic by more than its tolerance, with 1e300 its cube underflows
# to 0, and with 1e-300 the payload map rejects every unconstrained step.
ONE_CUSTOM_SCHEME = """\
[modulation.X]
bits_per_symbol = 2
ber_form = exponential
c_m = 1
k_m = {k_m}
papr = 1
circuit_class = mqam
[modulations]
enabled = X, OQPSK
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_SWEEP, encoding="utf-8")
    return str(path)


def run_cli(argv):
    return cli.main(argv)


def child_env():
    """Environment for a child interpreter that imports this linkopt."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestOptimize:
    def test_feasible_point_report(self, capsys):
        code = run_cli(["optimize", "--distance", "10", "--pa", "cpa"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "modulation: 64QAM" in out
        assert "feasible: true" in out
        for field in ("snr_db", "p_t_dbm", "p_pa_mw", "payload_bits",
                      "retransmissions", "energy_j_per_bit", "binding"):
            assert field in out

    def test_infeasible_distance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "qam4.ini"
        path.write_text("[modulations]\nenabled = 4QAM\nbaseline = 4QAM\n",
                        encoding="utf-8")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", "70", "--pa", "cpa",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_INFEASIBLE
        assert "feasible: false" in out
        assert "reason:" in out

    def test_one_bit_header_starts_inside_the_waterfall_regime(
            self, tmp_path, capsys):
        """A one-bit header solves from a packet inside every scheme's
        waterfall regime, not from a one-bit packet below it."""
        path = tmp_path / "one_bit_header.ini"
        path.write_text("[packet]\nn_h_bits = 1\n"
                        "[qos]\nmax_retransmissions = 0\n", encoding="utf-8")
        code = run_cli(["--config", str(path), "optimize", "--distance", "10",
                        "--pa", "tpa"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "modulation: OQPSK\n" in out
        assert "binding: payload_max\n" in out
        assert "below the waterfall regime" not in out

    @pytest.mark.parametrize("text,distance,pa,coefficient", [
        ("[link]\nbandwidth_khz = 3.9e251\n[circuit]\npc_mqam_mw = 4.8e-299\n",
         "10", "cpa", "b_coeff must be positive finite, got 0.0"),
        ("[link]\nlink_margin_db = -3000\n", "1e-3", "tpa",
         "float division by zero"),
    ], ids=["b_coeff_underflow", "tpa_a_coeff_division_by_zero"])
    def test_coefficients_outside_double_range_are_rejections(
            self, tmp_path, capsys, text, distance, pa, coefficient):
        """In-range inputs whose energy coefficients leave the double range
        end in one rejection reason per candidate, not a traceback."""
        path = tmp_path / "extreme.ini"
        path.write_text(text, encoding="utf-8")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", distance,
            "--pa", pa,
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_INFEASIBLE
        assert (f"reason: 16QAM/tau=2: energy coefficients outside the range "
                f"of a double ({coefficient})") in out

    @pytest.mark.parametrize("text,distance,pa", [
        ("[link]\nlink_margin_db = -3000\n", "0.1", "tpa"),
        ("[link]\nlink_margin_db = -3000\n", "0.1", "cpa"),
        ("[link]\nlink_margin_db = -3000\n", "0.01", "cpa"),
        ("[link]\nlink_margin_db = -3000\n", "0.1", "etpa"),
        ("[link]\nlink_margin_db = -3000\n", "0.01", "etpa"),
        ("[link]\np0_mw = 1e-300\nnoise_half_psd_dbm_hz = 2900\n", "10",
         "cpa"),
        ("[link]\nbandwidth_khz = 4.661332057150907e-187\n"
         "noise_half_psd_dbm_hz = 1428.4039761280337\n"
         "link_margin_db = 2172.6444256628347\n", "1809.9699226692878",
         "tpa"),
    ], ids=["tpa_cubic_overflow", "cpa_ratio_inf", "cpa_ratio_inf_1cm",
            "etpa_ratio_inf", "etpa_ratio_inf_1cm", "snr_cap_underflow",
            "tpa_a_coeff_inf_over_inf"])
    def test_solve_outside_double_range_is_a_rejection(
            self, tmp_path, capsys, text, distance, pa):
        """Coefficients in range whose solve overflows or underflows a double
        end in one reason per candidate that says so, never in a traceback
        or a nan."""
        path = tmp_path / "extreme.ini"
        path.write_text(text, encoding="utf-8")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", distance,
            "--pa", pa,
        ])
        out = capsys.readouterr().out
        assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
        assert "nan" not in out
        reasons = [line for line in out.splitlines()
                   if line.startswith("reason: ")]
        assert len(reasons) == 6 * 3
        assert all("outside the range of a double" in r for r in reasons)

    @pytest.mark.parametrize("k_m, raised", [
        ("1e200", "ArithmeticError"), ("1e300", "ZeroDivisionError"),
    ], ids=["residual_above_tolerance", "cube_underflows"])
    def test_tpa_cubic_outside_double_range_is_a_rejection(
            self, tmp_path, capsys, k_m, raised):
        """A scheme whose TPA cubic has no root in doubles is rejected with
        a reason that says so; optimize, sweep and lifetime pick the other
        scheme without a traceback."""
        text = ONE_CUSTOM_SCHEME.format(k_m=k_m)
        cfg = parse_config(text)
        [scheme] = [m for m in cfg.modulations if m.name == "X"]
        point = optimizer.joint_optimize(
            replace(cfg.link_template, distance_m=10.0), cfg.qos,
            cfg.pa_models[PaVariant.TPA], (scheme,), cfg.n_h,
            delta=cfg.delta, circuit_power=cfg.circuit_power,
        )
        assert point.failure_reasons == tuple(
            f"X/tau={tau}: payload map outside the range of a double "
            f"(the TPA cubic raised {raised})" for tau in (1, 2, 3)
        )
        path = tmp_path / "x.ini"
        path.write_text(text, encoding="utf-8")
        for argv in (["optimize", "--distance", "10"], ["sweep"], ["lifetime"]):
            assert run_cli(["--config", str(path), *argv, "--pa", "tpa"]) == (
                cli.EXIT_OK
            )
            captured = capsys.readouterr()
            assert captured.err == "" and "nan" not in captured.out

    def test_malformed_config_exit_and_message(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\nmystery_key = 3\n", encoding="utf-8")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", "10", "--pa", "cpa",
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "link: unknown key 'mystery_key'" in err

    def test_config_not_utf8_exit_and_message(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[link]\np0_mw = 20\n# \xff\n")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", "10", "--pa", "cpa",
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith(
            f"error: cannot read config {str(path)!r}: not UTF-8 text (")

    def test_config_byte_order_mark_skipped(self, tmp_path, capsys):
        text = "[link]\np0_mw = 20\n"
        marked, plain = tmp_path / "marked.ini", tmp_path / "plain.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        plain.write_text(text, encoding="utf-8")
        runs = []
        for path in (marked, plain):
            code = run_cli([
                "--config", str(path), "optimize", "--distance", "10",
                "--pa", "cpa",
            ])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == cli.EXIT_OK and runs[0][1].err == ""

    def test_unknown_pa_rejected(self, capsys):
        code = run_cli(["optimize", "--distance", "10", "--pa", "gaasfet"])
        assert code == cli.EXIT_USAGE
        assert "unknown amplifier" in capsys.readouterr().err

    def test_negative_distance_rejected(self, capsys):
        code = run_cli(["optimize", "--distance", "-4", "--pa", "cpa"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_zero_distance_rejected(self, capsys, value):
        code = run_cli(["optimize", f"--distance={value}", "--pa", "tpa"])
        assert code == cli.EXIT_USAGE
        assert "--distance: must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e90", "1e-200"])
    def test_distance_outside_double_range_rejected(self, capsys, value):
        code = run_cli(["optimize", "--distance", value, "--pa", "cpa"])
        assert code == cli.EXIT_USAGE
        assert "--distance: path loss at" in capsys.readouterr().err

    def test_multiple_pa_models_rejected(self, capsys):
        code = run_cli(["optimize", "--distance", "10", "--pa", "cpa,tpa"])
        assert code == cli.EXIT_USAGE
        assert "exactly one" in capsys.readouterr().err

    def test_target_per_bound_rounding_to_one_rejected(self, tmp_path):
        """A per-attempt bound of 1 used to end in a log1p(-1) traceback."""
        path = tmp_path / "qos.ini"
        path.write_text(
            "[qos]\ntarget_per = 0.9999999999999999\nmax_retransmissions = 1\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "linkopt.cli", "--config", str(path),
             "optimize", "--distance", "10"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == cli.EXIT_USAGE
        assert proc.stderr.startswith("error: qos.target_per: ")
        assert "Traceback" not in proc.stderr

    def test_retransmission_cap_bounded(self, tmp_path, capsys):
        """A cap of 10**12 used to be accepted, and the table built one QoS
        spec per cap before its first solve."""
        path = tmp_path / "qos.ini"
        for cap, expected in ((MAX_RETRANSMISSIONS, cli.EXIT_OK),
                              (MAX_RETRANSMISSIONS + 1, cli.EXIT_USAGE)):
            path.write_text(f"[qos]\nmax_retransmissions = {cap}\n",
                            encoding="utf-8")
            code = run_cli([
                "--config", str(path), "optimize", "--distance", "10",
                "--pa", "cpa",
            ])
            out, err = capsys.readouterr()
            assert code == expected
            if expected == cli.EXIT_OK:
                assert "feasible: true" in out and err == ""
            else:
                assert err.splitlines() == [
                    f"error: qos.max_retransmissions: must be <= "
                    f"{MAX_RETRANSMISSIONS}, got {cap}"
                ]


class TestSweep:
    def test_row_count_and_schema(self, small_config, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code = run_cli([
            "--config", small_config, "sweep", "--pa", "cpa,etpa",
            "--out", str(out_path),
        ])
        assert code == cli.EXIT_OK
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        distances = parse_config(SMALL_SWEEP).distances()
        assert len(rows) == len(distances) * 2
        assert list(rows[0]) == cli.SWEEP_COLUMNS

    def test_deterministic_output(self, small_config, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(["--config", small_config, "sweep", "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_lf_line_endings(self, small_config, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run_cli(["--config", small_config, "sweep", "--out", str(out_path)])
        data = out_path.read_bytes()
        assert b"\r" not in data

    def test_infeasible_rows_are_emitted(self, tmp_path):
        path = tmp_path / "far.ini"
        path.write_text(
            "[sweep]\nd_min_m = 60\nd_max_m = 70\nd_step_m = 5\n"
            "[modulations]\nenabled = 4QAM\nbaseline = 4QAM\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "far.csv"
        code = run_cli(["--config", str(path), "sweep", "--out", str(out_path)])
        assert code == cli.EXIT_INFEASIBLE
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(r["feasible"] == "false" for r in rows)
        assert all(r["binding"] == "infeasible" for r in rows)

    def test_energy_ordering_cpa_at_most_etpa_at_most_tpa(self, tmp_path):
        path = tmp_path / "short.ini"
        path.write_text(
            "[sweep]\nd_min_m = 3\nd_max_m = 9\nd_step_m = 3\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "short.csv"
        run_cli(["--config", str(path), "sweep", "--out", str(out_path)])
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        by_distance = {}
        for row in rows:
            by_distance.setdefault(row["distance_m"], {})[row["pa_model"]] = (
                float(row["energy_j_per_bit"])
            )
        for energies in by_distance.values():
            assert energies["cpa"] <= energies["etpa"] * (1 + 1e-12)
            assert energies["etpa"] <= energies["tpa"] * (1 + 1e-12)


class TestLifetime:
    def test_schema_and_gain_sign(self, small_config, tmp_path):
        out_path = tmp_path / "life.csv"
        code = run_cli([
            "--config", small_config, "lifetime", "--pa", "cpa",
            "--out", str(out_path),
        ])
        assert code == cli.EXIT_OK
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == cli.LIFETIME_COLUMNS
        for row in rows:
            if row["gain_percent"]:
                assert float(row["gain_percent"]) >= -1e-9

    def test_gain_zero_where_baseline_optimal(self, tmp_path):
        path = tmp_path / "far.ini"
        path.write_text(
            "[sweep]\nd_min_m = 30\nd_max_m = 40\nd_step_m = 5\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "far.csv"
        run_cli(["--config", str(path), "lifetime", "--pa", "cpa",
                 "--out", str(out_path)])
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            assert float(row["gain_percent"]) == pytest.approx(0.0, abs=1e-9)

    def test_baseline_not_enabled_fails_before_any_output(self, tmp_path,
                                                          capsys):
        path = tmp_path / "no_base.ini"
        path.write_text("[modulations]\nenabled = 16QAM, 64QAM\n",
                        encoding="utf-8")
        code = run_cli(["--config", str(path), "lifetime"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "modulations.baseline: 'OQPSK' is not in" in captured.err


# SHA-256 of the default `sweep` and `lifetime` CSVs, as recorded in
# bench/README.md.  A change that means to alter results updates both.
REFERENCE_SHA256 = {
    "sweep": "3f3f3a9aabe2436019dc610ad0e2068f60a6ababf62cef4ee672982d171c36a1",
    "lifetime": "8b9667a87b76b3c345272f3c115ca44e3e1cf6c32edbdf44a1402db35e043383",
}

# SHA-256 of the default `validate --out t.csv` stdout and of its PER table.
VALIDATE_STDOUT_SHA256 = (
    "405360e3877be8bfa1b13d956dfece034a32f21fe1d5ba37fe5440dfb21127ac"
)
PER_TABLE_SHA256 = "5b98033d26abe1d7c5ad916f8532a1f7314be7e9cc1e60f47d1f3ec297a507c7"


class TestReferenceDatasets:
    @pytest.mark.parametrize("command", sorted(REFERENCE_SHA256))
    def test_default_csv_byte_identical(self, tmp_path, command):
        path = tmp_path / f"{command}.csv"
        assert run_cli([command, "--out", str(path)]) == cli.EXIT_OK
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == REFERENCE_SHA256[command]

    def test_default_validate_byte_identical(self, tmp_path, capsys):
        """Every residual line of the battery and the PER error table (whose
        hash bench/workloads.py also checks) are pinned."""
        path = tmp_path / "t.csv"
        assert run_cli(["validate", "--out", str(path)]) == cli.EXIT_OK
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == VALIDATE_STDOUT_SHA256
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PER_TABLE_SHA256


def baseline_only(config, link, pa):
    """The baseline point as a separate baseline-only search finds it."""
    return optimizer.joint_optimize(
        link, config.qos, pa, (config.baseline_scheme(),), config.n_h,
        delta=config.delta, circuit_power=config.circuit_power,
    )


def full_search(config, link, pa):
    return optimizer.joint_optimize(
        link, config.qos, pa, config.modulations, config.n_h,
        delta=config.delta, circuit_power=config.circuit_power,
    )


def feasible_or_none(point):
    """``point`` as the lifetime rows give it: None when infeasible, whose
    reasons never reach the lifetime CSV."""
    return point if point.feasible else None


class TestLifetimeSharedTable:
    """lifetime takes its baseline from the full search's candidate table."""

    def test_default_points_match_separate_searches(self):
        cfg = default_config()
        rows = list(cli._lifetime_rows(cfg, list(PaVariant)))
        assert len(rows) == len(cfg.distances()) * len(PaVariant)
        for d, variant, best, base in rows:
            link = replace(cfg.link_template, distance_m=d)
            pa = cfg.pa_models[variant]
            assert best == feasible_or_none(full_search(cfg, link, pa))
            assert base == feasible_or_none(baseline_only(cfg, link, pa))

    @settings(max_examples=60, deadline=None)
    @given(
        p0_mw=st.floats(1.0, 100.0),
        kappa=st.floats(2.5, 4.0),
        bandwidth_khz=st.floats(3.0, 100.0),
        n_h_bits=st.integers(16, 128),
        target_per=st.floats(1e-4, 1e-2),
        max_retx=st.integers(0, 5),
        distance=st.floats(2.0, 80.0),
        variant=st.sampled_from(list(PaVariant)),
        enabled=st.lists(
            st.sampled_from(["NCFSK", "BPSK", "OQPSK", "4QAM", "16QAM", "64QAM"]),
            min_size=1, max_size=6, unique=True,
        ),
        baseline_index=st.integers(0, 5),
    )
    def test_random_points_match_separate_searches(
            self, p0_mw, kappa, bandwidth_khz, n_h_bits, target_per, max_retx,
            distance, variant, enabled, baseline_index):
        cfg = parse_config(
            f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
            f"bandwidth_khz = {bandwidth_khz!r}\n"
            f"[packet]\nn_h_bits = {n_h_bits}\n"
            f"[qos]\ntarget_per = {target_per!r}\n"
            f"max_retransmissions = {max_retx}\n"
            f"[modulations]\nenabled = {', '.join(enabled)}\n"
            f"baseline = {enabled[baseline_index % len(enabled)]}\n"
            f"[sweep]\nd_min_m = {distance!r}\nd_max_m = {distance!r}\n"
        )
        [(d, _, best, base)] = cli._lifetime_rows(cfg, [variant])
        link = replace(cfg.link_template, distance_m=d)
        pa = cfg.pa_models[variant]
        assert best == feasible_or_none(full_search(cfg, link, pa))
        assert base == feasible_or_none(baseline_only(cfg, link, pa))

    def test_default_lifetime_solves_each_candidate_once(self, monkeypatch):
        """No candidate is solved twice, and every entry the lifetime path
        did not bound out reads as its entry of the whole table: 520 solves
        (553 with the baseline in floor order, 885 with a bound per cap
        alone, 1,003 with the decoupled energy floor, 1,755 for whole
        tables), 1,276 entries bounded out (1,243, 1,125), and 2,007
        entries of schemes that no cap can carry a payload on, 332
        caps that carry none of schemes bounded out whole (solved before,
        to the same reason) and 131 sharing the interior point of a smaller
        cap, all built without a solve, make up the 4,266 entries.  The
        baseline is solved whole and first, so none of its entries is
        bounded out."""
        calls, entries = [], {}
        solve, tables = optimizer._solve_candidate, optimizer.candidate_tables
        cfg = default_config()
        # The set-up carries the distance as its path gain.
        distance_at = {cfg.link_template.gain_at(d): d
                       for d in cfg.distances()}

        def counting(setup, qos, *args):
            scheme, _, g_d, pa = setup[:4]
            calls.append((distance_at[g_d], pa.variant, scheme.name,
                          qos.max_retransmissions))
            return solve(setup, qos, *args)

        def recording(*args, **kwargs):
            for d, pa, table in tables(*args, **kwargs):
                for c in table:
                    entries[d, pa.variant, c.scheme.name, c.tau] = c
                yield d, pa, table

        # candidate_tables hands each candidate, with its scheme's set-up, to
        # the per-candidate solve.
        monkeypatch.setattr(optimizer, "_solve_candidate", counting)
        monkeypatch.setattr(optimizer, "candidate_tables", recording)
        cli.cmd_lifetime(cfg, list(PaVariant), io.StringIO())
        monkeypatch.undo()
        points = len(cfg.distances()) * len(PaVariant)
        per_point = len(cfg.modulations) * cfg.qos.max_retransmissions
        assert (points, per_point) == (237, 18)
        assert len(entries) == points * per_point == 4266
        assert len(calls) == len(set(calls)) == 520
        whole = {
            (d, pa.variant, c.scheme.name, c.tau): c
            for d, pa, table in cfg.tables(cfg.distances(),
                                           cfg.pa_models.values())
            for c in table}
        bounded_out = {key for key, c in entries.items()
                       if c.reason is not None and ": bounded out: " in c.reason}
        assert not bounded_out & set(calls)
        assert len(bounded_out) == 1276
        for key in set(entries) - bounded_out:
            assert entries[key].point == whole[key].point
            assert entries[key].reason == whole[key].reason
        unsolved = set(entries) - bounded_out - set(calls)
        rejected = {key for key in unsolved if entries[key].reason is not None}
        deferred = {key for key in rejected
                    if entries[key].rejection[0] is optimizer._bounded_whole}
        assert (len(rejected - deferred), len(deferred),
                len(unsolved - rejected)) == (2007, 332, 131)
        baseline = cfg.baseline_scheme().name
        assert not {key for key in bounded_out if key[2] == baseline}


@pytest.mark.parametrize("command, counts", [
    (cli.cmd_sweep, {"solve": 482, "coefficients": 198, "map": 198,
                     "payload_max": 1814}),
    (cli.cmd_lifetime, {"solve": 520, "coefficients": 248, "map": 248,
                        "payload_max": 1881}),
], ids=["sweep", "lifetime"])
def test_default_dataset_work(monkeypatch, command, counts):
    """A default sweep or lifetime writes no reason, and renders none (each
    formatted 3,719 and 3,567 when a rejection formatted its own text).
    Of the 1,422 (distance, amplifier, scheme) set-ups, only those that
    reach a solve build coefficients and a map: 198 and 248 (263 and 312
    with the decoupled energy floor, 753 each when every set-up with a
    payload built them).  Each set-up computes its largest cap's payload
    ceiling once (4,386 and 4,303 ceilings before), and a scheme bounded out
    whole computes no other: 482 and 520 solves and 1,814 and 1,881
    ceilings (814 and 885, 2,924 and 2,891 with a bound per cap alone;
    ``lifetime`` solved 553 with the baseline in floor order)."""
    calls = Counter()
    reason = optimizer.Candidate.reason

    def counting(name, func):
        def counted(*args):
            calls[name] += 1
            return func(*args)
        return counted

    monkeypatch.setattr(optimizer.Candidate, "reason", property(
        counting("reason", reason.fget)))
    for name, attr in (("solve", "_solve_candidate"),
                       ("coefficients", "EnergyCoefficients"),
                       ("map", "payload_map"), ("payload_max", "payload_max")):
        monkeypatch.setattr(optimizer, attr,
                            counting(name, getattr(optimizer, attr)))
    assert command(default_config(), list(PaVariant), io.StringIO()) == (
        cli.EXIT_OK)
    assert calls == counts


class TestSolveRouting:
    """Every candidate solve is called by the one table builder, or by the
    battery's multistart check."""

    @pytest.mark.parametrize("argv, callers", [
        (["optimize", "--distance", "20"], {"candidate_tables"}),
        (["sweep", "--out", "{out}"], {"candidate_tables"}),
        (["lifetime", "--out", "{out}"], {"candidate_tables"}),
        (["validate"], {"candidate_tables", "check_multistart_agreement"}),
    ], ids=["optimize", "sweep", "lifetime", "validate"])
    def test_callers_of_the_per_candidate_solve(self, monkeypatch, tmp_path,
                                                capsys, argv, callers):
        seen = set()
        solve = optimizer._solve_candidate

        def recording(*args):
            seen.add(sys._getframe(1).f_code.co_name)
            return solve(*args)

        monkeypatch.setattr(optimizer, "_solve_candidate", recording)
        out = str(tmp_path / "out.csv")
        assert run_cli([arg.format(out=out) for arg in argv]) == cli.EXIT_OK
        assert seen == callers


class TestCustomModulationEndToEnd:
    def test_config_defined_scheme_flows_through_optimize(self, tmp_path,
                                                          capsys):
        """A scheme defined only in the config can win the joint search."""
        path = tmp_path / "custom.ini"
        path.write_text(
            "[modulation.WIDE64]\n"
            "bits_per_symbol = 6\n"
            "ber_form = gaussian_q\n"
            "c_m = 0.5833333333333334\n"
            "k_m = 0.2857142857142857\n"
            "papr = 26.625\n"
            "circuit_class = mqam\n"
            "[modulations]\n"
            "enabled = OQPSK, WIDE64\n",
            encoding="utf-8",
        )
        code = run_cli([
            "--config", str(path), "optimize", "--distance", "5",
            "--pa", "etpa",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "modulation: WIDE64" in out


class TestValidate:
    def test_default_config_passes(self, capsys):
        code = run_cli(["validate"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "FAIL" not in out
        lines = [line for line in out.splitlines() if ",PASS," in line]
        assert len(lines) == len(validation.ALL_CHECKS)

    def test_perturbed_closed_form_detected(self, capsys, monkeypatch):
        """A 10% bias in the SNR the payload map returns must trip the
        oracle check."""
        build = optimizer.payload_map

        def biased(*inputs):
            step = build(*inputs)

            def biased_step(n_p, log_keep):
                gamma, binding, wanted = step(n_p, log_keep)
                return 1.1 * gamma, binding, wanted
            return biased_step

        monkeypatch.setattr(optimizer, "payload_map", biased)
        result = validation.check_snr_optima_vs_golden(
            validation.BatteryRun(default_config()))
        assert not result.passed
        assert result.residual > 0.01

    def test_check_error_is_a_fail_line(self, tmp_path, capsys):
        """A config that parse_config accepts but whose energy coefficients
        leave the range of a double fails the checks that raise on it under
        their own names and thresholds, the battery still reports all 17
        checks, and the checks left with nothing to check say so."""
        path = tmp_path / "extreme.ini"
        path.write_text(
            "[link]\nbandwidth_khz = 3.9e251\n[circuit]\npc_mqam_mw = 4.8e-299\n",
            encoding="utf-8",
        )
        code = run_cli(["--config", str(path), "validate"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == len(validation.ALL_CHECKS) + 1 == 18
        assert lines[-1] == "checks: 11/17 passed"
        assert (
            "snr_optima_vs_golden,FAIL,residual=inf,threshold=1.000e-06,"
            "ValueError: b_coeff must be positive finite, got 0.0"
        ) in lines
        assert not any(line.startswith("check_") for line in lines)
        vacuous = [line.split(",")[0] for line in lines
                   if line.endswith(",no instances")]
        assert vacuous == [
            "conditioning_snr_min", "conditioning_snr_max", "feasibility_prefix",
        ]

    def test_payload_map_rejection_fails_the_checks_that_step_it(
            self, tmp_path, capsys):
        """A sampled instance the payload map rejects fails each check that
        steps the map under its own name, with residual inf and the map's
        reason, and the battery still reports all 17 checks."""
        path = tmp_path / "x.ini"
        path.write_text(ONE_CUSTOM_SCHEME.format(k_m="1e-300"), encoding="utf-8")
        code = run_cli(["--config", str(path), "validate"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 18 and lines[-1] == "checks: 11/17 passed"
        stepping = [line for line in lines if line.split(",")[0] in (
            "snr_optima_vs_golden", "payload_optima_vs_golden",
            "tpa_root_crosscheck", "argmin_scale_invariance",
        )]
        assert len(stepping) == 4
        for line in stepping:
            assert ",FAIL,residual=inf," in line
            assert ",ArithmeticError: n_p=" in line
            assert line.endswith(": payload map outside the range of a double "
                                 "(the TPA cubic raised OverflowError)")

    def test_error_table_to_stdout(self, tmp_path, capsys, monkeypatch):
        """``--out -`` writes the table to stdout between the check lines
        and the summary, byte for byte the table ``--out PATH`` writes, and
        makes no file named ``-``."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(["validate", "--out", "table.csv"]) == cli.EXIT_OK
        checks = capsys.readouterr().out.splitlines()
        assert run_cli(["validate", "--out", "-"]) == cli.EXIT_OK
        table = (tmp_path / "table.csv").read_text(encoding="utf-8")
        assert capsys.readouterr().out == "".join(
            line + "\n" for line in checks[:-1]) + table + checks[-1] + "\n"
        assert checks[-1] == "checks: 17/17 passed"
        assert len(table.splitlines()) == 1 + 93
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    def test_error_table_csv(self, tmp_path, capsys):
        out_path = tmp_path / "re.csv"
        config = tmp_path / "fast.ini"
        config.write_text("", encoding="utf-8")
        code = run_cli(["--config", str(config), "validate", "--out",
                        str(out_path)])
        assert code == cli.EXIT_OK
        with open(out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == [
            "modulation", "n_bits", "snr_db", "re_closed_pct", "re_bound_pct",
        ]
        sizes = {int(r["n_bits"]) for r in rows}
        assert sizes == {120, 1024, 10048}
        assert {int(r["snr_db"]) for r in rows} == set(range(10, 41))


class TestUnusableArguments:
    """An --out that cannot be written and a repeated --pa model are config
    errors: exit 1, one line on stderr, nothing solved or written."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--distance", "10"],
        ["sweep"],
        ["lifetime"],
        ["validate"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, argv, where):
        def never(*args, **kwargs):
            raise AssertionError("solved before --out was opened")

        monkeypatch.setattr(optimizer, "candidate_tables", never)
        monkeypatch.setattr(validation, "BatteryRun", never)
        path = tmp_path / "missing" / "x.csv" if where == "missing_directory" \
            else tmp_path
        code = run_cli(argv + ["--out", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(f"error: --out: cannot write {str(path)!r} (")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command,models,twice", [
        ("sweep", "cpa,cpa", "['cpa']"),
        ("lifetime", "tpa,TPA", "['tpa']"),
        ("sweep", "etpa,cpa,tpa, CPA,etpa", "['cpa', 'etpa']"),
    ])
    def test_repeated_pa_model(self, tmp_path, capsys, command, models, twice):
        out_path = tmp_path / "out.csv"
        code = run_cli([command, "--pa", models, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: --pa: listed more than once: {twice}\n"
        assert not out_path.exists()


class TestOutFile:
    def test_existing_file_replaced_through_its_link(self, tmp_path):
        """A command that succeeds replaces the file a link names, with the
        file's permissions, and leaves the link and no temporary file."""
        target = tmp_path / "data" / "sweep.csv"
        target.parent.mkdir()
        target.write_text("old\n", encoding="utf-8")
        target.chmod(0o640)
        link = tmp_path / "out.csv"
        link.symlink_to(target)
        assert run_cli(["sweep", "--pa", "cpa", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8").startswith("distance_m,")
        assert target.stat().st_mode & 0o777 == 0o640
        assert [p.name for p in target.parent.iterdir()] == ["sweep.csv"]

    def test_stale_temporary_file_left_alone(self, tmp_path):
        """A temporary file a killed run left under this pid does not stop
        the command; it takes another name and leaves the stale one."""
        target = tmp_path / "keep.csv"
        stale = tmp_path / f"keep.csv.{os.getpid()}.tmp"
        stale.write_text("stale\n", encoding="utf-8")
        assert run_cli(["sweep", "--pa", "cpa", "--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("distance_m,")
        assert stale.read_text(encoding="utf-8") == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "keep.csv", stale.name]

    def test_pipe_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli(["optimize", "--distance", "10", "--out",
                            str(fifo)]) == cli.EXIT_OK
            assert os.read(reader, 65536).startswith(b"distance_m: 10\n")
        finally:
            os.close(reader)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "linkopt.cli", "optimize",
             "--distance", "5", "--pa", "etpa"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert "modulation:" in proc.stdout

    def test_sweep_writes_csv_to_any_stream(self):
        buffer = io.StringIO()
        cfg = parse_config(SMALL_SWEEP)
        code = cli.cmd_sweep(cfg, [PaVariant.CPA], buffer)
        assert code == cli.EXIT_OK
        header = buffer.getvalue().splitlines()[0]
        assert header == ",".join(cli.SWEEP_COLUMNS)

    def test_solver_path_imports_no_scipy_or_numpy(self, tmp_path):
        """optimize and validate, PER table included, load neither scipy
        nor numpy, optimize leaves the oracle battery, the oracles and
        configparser unloaded, and validate still passes."""
        table = tmp_path / "table.csv"
        script = (
            "import sys\n"
            "from linkopt.cli import main\n"
            "def heavy():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] in ('scipy', 'numpy'))\n"
            "code = main(['optimize', '--distance', '10', '--pa', 'tpa'])\n"
            "print('optimize exit', code, 'heavy modules', heavy())\n"
            "print('battery loaded', 'linkopt.validation' in sys.modules)\n"
            "print('oracles loaded', 'linkopt.oracles' in sys.modules)\n"
            "print('configparser loaded', 'configparser' in sys.modules)\n"
            "code = main(['validate', '--out', sys.argv[1]])\n"
            "print('validate exit', code, 'heavy modules', heavy())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(table)],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "optimize exit 0 heavy modules []" in lines
        assert "battery loaded False" in lines
        assert "oracles loaded False" in lines
        assert "configparser loaded False" in lines
        assert lines[-2:] == [
            "checks: 17/17 passed", "validate exit 0 heavy modules []",
        ]
        assert len(table.read_text(encoding="utf-8").splitlines()) == 1 + 93

    @pytest.mark.parametrize("command", ["sweep", "lifetime"])
    def test_closed_output_pipe_exits_quietly(self, tmp_path, command):
        """A reader that stops after one line, as `| head -1` does, ends the
        command without a traceback.  The output is several times the size
        of a pipe buffer, so writing it must fail once the reader is gone."""
        path = tmp_path / "long.ini"
        path.write_text(
            "[modulations]\nenabled = BPSK\nbaseline = BPSK\n"
            "[sweep]\nd_step_m = 0.05\n",
            encoding="utf-8",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "linkopt.cli", "--config", str(path),
             command],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(),
        )
        try:
            assert proc.stdout.readline().startswith("distance_m,pa_model,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == cli.EXIT_USAGE
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == ""


NON_FINITE_CASES = [
    ("link", "p0_mw", "optimize"),
    ("duty", "period_s", "lifetime"),
    ("tolerance", "delta", "optimize"),
]


class TestNonFiniteConfig:
    """nan and infinities in the config end in a usage error naming the key."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key,command", NON_FINITE_CASES)
    def test_rejected_with_field_path(self, tmp_path, capsys, section, key,
                                      command, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        argv = ["--config", str(path), command, "--out", str(tmp_path / "o")]
        if command == "optimize":
            argv += ["--distance", "10", "--pa", "tpa"]
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert f"{section}.{key}: must be finite" in err
        assert not (tmp_path / "o").exists()


class TestOutOfRangeConfig:
    """Finite values whose unit conversion or lifetime leaves the range of a
    double end in a usage error naming the section: no traceback, and no
    inf or nan in the CSV."""

    @pytest.mark.parametrize("text, message", [
        ("[link]\np0_mw = 1e-322\n", "link: p0_w must be > 0"),
        ("[duty]\nbattery_ah = 1e300\nbattery_v = 1e300\n",
         "duty: the energy budget"),
        ("[duty]\nperiod_s = 1e-320\npayload_kbit = 1e10\n",
         "duty: the lifetime at"),
        ("[duty]\npayload_kbit = 1e-322\n", "duty: the lifetime at"),
        ("[circuit]\npc_mqam_mw = 1e-322\n",
         "circuit.pc_mqam_mw: 1e-322 mW underflows to 0 W\n"),
        ("[circuit]\npc_mfsk_mw = 5e-324\n",
         "circuit.pc_mfsk_mw: 5e-324 mW underflows to 0 W\n"),
    ], ids=["p0_underflow", "battery_energy_overflow", "lifetime_underflow",
            "energy_per_period_underflow", "mqam_circuit_power_underflow",
            "mfsk_circuit_power_underflow"])
    def test_lifetime_rejected_with_section(self, tmp_path, capsys, text,
                                            message):
        path = tmp_path / "range.ini"
        path.write_text(text, encoding="utf-8")
        code = run_cli(["--config", str(path), "lifetime"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.err.startswith(f"error: {message}")
        assert "inf" not in captured.out and "nan" not in captured.out

    @pytest.mark.parametrize("text", [
        "[duty]\nperiod_s = 1e-320\npayload_kbit = 1e10\n",
        "[duty]\npayload_kbit = 1e-322\n",
    ], ids=["lifetime_underflow", "energy_per_period_underflow"])
    def test_lifetime_out_of_range_leaves_no_output_file(self, tmp_path,
                                                         capsys, text):
        """A lifetime found outside the range of a double while solving
        removes the --out file opened for it, which holds no partial CSV."""
        path = tmp_path / "range.ini"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "u.csv"
        code = run_cli(["--config", str(path), "lifetime", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: duty: the lifetime at")
        assert not out.exists()

    def test_lifetime_out_of_range_keeps_an_existing_output_file(
            self, tmp_path):
        """A file that existed is left as it was, whether the lifetime
        underflows or overflows, with no temporary file left beside it."""
        path = tmp_path / "range.ini"
        out = tmp_path / "keep.csv"
        out.write_bytes(b"123456789")
        for text in ("[duty]\npayload_kbit = 1e-322\n",
                     "[duty]\nbattery_ah = 1e300\nbattery_v = 1\n"
                     "period_s = 1e10\n"):
            path.write_text(text, encoding="utf-8")
            code = run_cli(["--config", str(path), "lifetime", "--out",
                            str(out)])
            assert code == cli.EXIT_USAGE
            assert out.read_bytes() == b"123456789"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "keep.csv", "range.ini"]

    def test_lifetime_out_of_range_writes_nothing_to_stdout(self, tmp_path,
                                                            capsys):
        path = tmp_path / "range.ini"
        path.write_text("[duty]\npayload_kbit = 1e-322\n", encoding="utf-8")
        assert run_cli(["--config", str(path), "lifetime"]) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_battery_energy_overflow_leaves_no_output_file(self, tmp_path,
                                                           capsys):
        """The budget is checked with the config, before --out is opened."""
        path = tmp_path / "range.ini"
        path.write_text("[duty]\nbattery_ah = 1e300\nbattery_v = 1e300\n",
                        encoding="utf-8")
        out = tmp_path / "o.csv"
        code = run_cli(["--config", str(path), "lifetime", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: duty: the energy budget battery_charge_ah * 3600 * "
            "battery_voltage is outside the range of a double (inf J)"
        )
        assert not out.exists()


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


CUSTOM_SCHEME_SPACE = dict(
    bits_per_symbol=st.integers(1, 8),
    ber_form=st.sampled_from(["exponential", "gaussian_q"]),
    c_m=st.floats(0.0, 1.0, exclude_min=True),
    k_m=_log_uniform(-300.0, 300.0),
    papr=_log_uniform(0.0, 6.0),
    circuit_class=st.sampled_from(["mqam", "mfsk"]),
    p0_mw=_log_uniform(0.0, 2.0),
    kappa=st.floats(2.5, 4.0),
    bandwidth_khz=_log_uniform(math.log10(3.0), 2.0),
    n_h_bits=st.integers(16, 128),
    target_per=_log_uniform(-4.0, -2.0),
    max_retx=st.integers(0, 5),
    distance=st.floats(2.0, 80.0),
    pa=st.sampled_from(["cpa", "tpa", "etpa"]),
)


def custom_scheme_ini(bits_per_symbol, ber_form, c_m, k_m, papr,
                      circuit_class, p0_mw, kappa, bandwidth_khz, n_h_bits,
                      target_per, max_retx):
    """A config enabling one custom modulation X next to OQPSK, from a draw
    of ``CUSTOM_SCHEME_SPACE`` (without its distance and amplifier)."""
    return (
        f"[modulation.X]\nbits_per_symbol = {bits_per_symbol}\n"
        f"ber_form = {ber_form}\nc_m = {c_m!r}\nk_m = {k_m!r}\n"
        f"papr = {papr!r}\ncircuit_class = {circuit_class}\n"
        f"[modulations]\nenabled = X, OQPSK\n"
        f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
        f"bandwidth_khz = {bandwidth_khz!r}\n"
        f"[packet]\nn_h_bits = {n_h_bits}\n"
        f"[qos]\ntarget_per = {target_per!r}\n"
        f"max_retransmissions = {max_retx}\n"
    )


def assert_point_invariants(config, link, pa, point):
    """A feasible point has a positive finite energy, meets the PER bound of
    its cap and keeps its transmit power under the amplifier's cap, each to
    1e-9 relative."""
    if not point.feasible:
        return
    assert math.isfinite(point.energy) and point.energy > 0.0
    bound = QosSpec(config.qos.target_per, point.tau_r).per_attempt_bound
    per = per_rayleigh(point.scheme, config.n_h + point.n_p, point.gamma_bar)
    assert per <= bound * (1.0 + 1e-9)
    cap = min(link.p0_w, pa.p_t_max / point.scheme.papr)
    assert point.p_t <= cap * (1.0 + 1e-9)


def assert_ends_cleanly(path, text, distance, pa, commands):
    """Write config ``text`` to ``path`` and run each of ``commands`` on it
    (``optimize`` at ``distance`` for amplifier ``pa``, the others writing
    to stdout).  Each ends in exit 0 or 2 (3 too for ``validate``), with
    nothing on stderr and no nan in its output, or in exit 1 with one
    ``error:`` line: never in a traceback.  If the text parses, its
    ``joint_optimize`` point at ``distance`` meets the invariants the
    benchmark's point queries check (:func:`assert_point_invariants`)."""
    path.write_text(text, encoding="utf-8")
    try:
        config = parse_config(text)
    except ConfigError:
        pass
    else:
        link = replace(config.link_template, distance_m=distance)
        model = config.pa_models[PaVariant(pa)]
        assert_point_invariants(config, link, model, optimizer.joint_optimize(
            link, config.qos, model, config.modulations, config.n_h,
            delta=config.delta, circuit_power=config.circuit_power,
        ))
    for command in commands:
        argv = (["optimize", "--distance", repr(distance), "--pa", pa]
                if command == "optimize" else [command, "--out", "-"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(["--config", str(path), *argv])
        lines = out.getvalue().splitlines()
        if code == cli.EXIT_USAGE:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
            continue
        assert err.getvalue() == ""
        if command == "validate":
            assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
            assert lines[-1].startswith("checks: ")
            # The check lines come first; the rest is the PER table.
            lines = lines[len(validation.ALL_CHECKS):-1]
        else:
            assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
        assert not any("nan" in line for line in lines), argv


class TestAnyCustomModulationEndsCleanly:
    """Every command on a config with one custom modulation, drawn over
    many orders of magnitude, ends cleanly, and a feasible point meets its
    invariants (:func:`assert_ends_cleanly`)."""

    @settings(max_examples=25, deadline=None)
    @given(**CUSTOM_SCHEME_SPACE)
    def test_every_command(self, tmp_path_factory, distance, pa, **draw):
        text = custom_scheme_ini(**draw) + (
            f"[sweep]\nd_min_m = {distance!r}\nd_max_m = {distance + 6.0!r}\n"
            f"d_step_m = 3\n"
        )
        assert_ends_cleanly(
            tmp_path_factory.mktemp("custom") / "custom.ini", text, distance,
            pa, ("optimize", "sweep", "lifetime", "validate"))


# [link], [circuit] and [qos] over the ranges the config accepts: decibel
# keys anywhere within +-3000 dB, and positive keys over most of the
# doubles, so that conversions and path gains leave the doubles too.
LINK_CIRCUIT_QOS_SPACE = dict(
    p0_mw=_log_uniform(-320.0, 300.0),
    kappa=_log_uniform(-3.0, 2.0),
    g1_db=st.floats(-3000.0, 3000.0),
    link_margin_db=st.floats(-3000.0, 3000.0),
    noise_half_psd_dbm_hz=st.floats(-3000.0, 3000.0),
    bandwidth_khz=_log_uniform(-300.0, 300.0),
    pc_mqam_mw=_log_uniform(-320.0, 300.0),
    pc_mfsk_mw=_log_uniform(-320.0, 300.0),
    target_per=_log_uniform(-300.0, -1e-9),
    max_retx=st.integers(0, MAX_RETRANSMISSIONS),
    distance=_log_uniform(-3.0, 3.0),
    pa=st.sampled_from(["cpa", "tpa", "etpa"]),
)


class TestAnyLinkCircuitQosEndsCleanly:
    """``optimize``, ``sweep`` and ``lifetime`` on a config whose link,
    circuit and QoS sections are drawn over many orders of magnitude end
    cleanly, and a feasible point meets its invariants
    (:func:`assert_ends_cleanly`)."""

    @settings(max_examples=25, deadline=None)
    @given(**LINK_CIRCUIT_QOS_SPACE)
    def test_solve_commands(self, tmp_path_factory, p0_mw, kappa, g1_db,
                            link_margin_db, noise_half_psd_dbm_hz,
                            bandwidth_khz, pc_mqam_mw, pc_mfsk_mw,
                            target_per, max_retx, distance, pa):
        text = (
            f"[link]\np0_mw = {p0_mw!r}\nkappa = {kappa!r}\n"
            f"g1_db = {g1_db!r}\nlink_margin_db = {link_margin_db!r}\n"
            f"noise_half_psd_dbm_hz = {noise_half_psd_dbm_hz!r}\n"
            f"bandwidth_khz = {bandwidth_khz!r}\n"
            f"[circuit]\npc_mqam_mw = {pc_mqam_mw!r}\n"
            f"pc_mfsk_mw = {pc_mfsk_mw!r}\n"
            f"[qos]\ntarget_per = {target_per!r}\n"
            f"max_retransmissions = {max_retx}\n"
            f"[sweep]\nd_min_m = {distance!r}\n"
            f"d_max_m = {distance * 3.0!r}\nd_step_m = {distance!r}\n"
        )
        assert_ends_cleanly(
            tmp_path_factory.mktemp("link") / "link.ini", text, distance, pa,
            ("optimize", "sweep", "lifetime"))
