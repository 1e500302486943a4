"""Tests for the command-line interface and its CSV contracts."""

import csv
import hashlib
import io
import os
import subprocess
import sys
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

SMALL_SWEEP = """\
[sweep]
d_min_m = 4
d_max_m = 20
d_step_m = 4
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
        path.write_text("[modulations]\nenabled = 4QAM\n", encoding="utf-8")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", "70", "--pa", "cpa",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_INFEASIBLE
        assert "feasible: false" in out
        assert "reason:" in out

    def test_malformed_config_exit_and_message(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[link]\nmystery_key = 3\n", encoding="utf-8")
        code = run_cli([
            "--config", str(path), "optimize", "--distance", "10", "--pa", "cpa",
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "link: unknown key 'mystery_key'" in err

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
            "[modulations]\nenabled = 4QAM\n",
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


# SHA-256 of the default `sweep` and `lifetime` CSVs, as recorded in
# bench/README.md.  A change that means to alter results updates both.
REFERENCE_SHA256 = {
    "sweep": "3f3f3a9aabe2436019dc610ad0e2068f60a6ababf62cef4ee672982d171c36a1",
    "lifetime": "8b9667a87b76b3c345272f3c115ca44e3e1cf6c32edbdf44a1402db35e043383",
}


class TestReferenceDatasets:
    @pytest.mark.parametrize("command", sorted(REFERENCE_SHA256))
    def test_default_csv_byte_identical(self, tmp_path, command):
        path = tmp_path / f"{command}.csv"
        assert run_cli([command, "--out", str(path)]) == cli.EXIT_OK
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == REFERENCE_SHA256[command]


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


class TestLifetimeSharedTable:
    """lifetime takes its baseline from the full search's candidate table."""

    def test_default_points_match_separate_searches(self):
        cfg = default_config()
        rows = list(cli._lifetime_rows(cfg, list(PaVariant)))
        assert len(rows) == len(cfg.distances()) * len(PaVariant)
        for d, variant, best, base in rows:
            link = replace(cfg.link_template, distance_m=d)
            pa = cfg.pa_models[variant]
            assert best == full_search(cfg, link, pa)
            assert base == baseline_only(cfg, link, pa)

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
        assert best == full_search(cfg, link, pa)
        assert base == baseline_only(cfg, link, pa)

    def test_default_lifetime_solves_each_candidate_once(self, monkeypatch):
        calls = []
        solve = optimizer._solve_candidate

        def counting(link, qos, pa, scheme, *args, **kwargs):
            calls.append((link.distance_m, pa.variant, scheme.name,
                          qos.max_retransmissions))
            return solve(link, qos, pa, scheme, *args, **kwargs)

        # candidate_table hands each candidate, with its scheme's set-up, to
        # the per-candidate solve behind solve_candidate.
        monkeypatch.setattr(optimizer, "_solve_candidate", counting)
        cfg = default_config()
        cli.cmd_lifetime(cfg, list(PaVariant), io.StringIO())
        points = len(cfg.distances()) * len(PaVariant)
        per_point = len(cfg.modulations) * cfg.qos.max_retransmissions
        assert (points, per_point) == (237, 18)
        assert len(calls) == len(set(calls)) == points * per_point


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
        """A 10% bias in the quadratic optimum must trip the oracle check."""
        original = optimizer.optimal_snr_quadratic

        def biased(coeffs, omega0, n_p, n_h):
            return 1.1 * original(coeffs, omega0, n_p, n_h)

        monkeypatch.setattr(optimizer, "optimal_snr_quadratic", biased)
        result = validation.check_snr_optima_vs_golden(default_config())
        assert not result.passed
        assert result.residual > 0.01

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

    def test_solver_path_imports_no_scipy_or_numpy(self):
        """optimize loads neither scipy nor numpy; validate still passes."""
        script = (
            "import sys\n"
            "from linkopt.cli import main\n"
            "code = main(['optimize', '--distance', '10', '--pa', 'tpa'])\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] in ('scipy', 'numpy'))\n"
            "print('optimize exit', code, 'heavy modules', heavy)\n"
            "print('validate exit', main(['validate']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "optimize exit 0 heavy modules []" in lines
        assert lines[-2:] == ["checks: 17/17 passed", "validate exit 0"]


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
