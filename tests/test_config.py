"""Tests for scenario config parsing, defaults and rejection diagnostics."""

import pytest

from linkopt.config import (
    DEFAULT_CONFIG_TEXT,
    MAX_SWEEP_POINTS,
    default_config,
    load_config,
    parse_config,
)
from linkopt.energy import PaVariant
from linkopt.errors import ConfigError
from linkopt.per import BerForm, CircuitClass


class TestDefaults:
    """Every default matches the reference parameter table exactly."""

    def setup_method(self):
        self.cfg = default_config()

    def test_link_budget(self):
        link = self.cfg.link_template
        assert link.p0_w == pytest.approx(0.010)
        assert link.kappa == 3.5
        assert link.g1_db == 30.0
        assert link.link_margin_db == 40.0
        assert link.bandwidth_hz == pytest.approx(1e4)

    def test_one_sided_noise_density(self):
        """-174 dBm/Hz per dimension stores as twice that, one-sided."""
        assert self.cfg.link_template.n0 == pytest.approx(
            2.0 * 10.0 ** ((-174.0 - 30.0) / 10.0), rel=1e-12
        )

    def test_circuit_power(self):
        assert self.cfg.circuit_power[CircuitClass.MQAM] == pytest.approx(0.310)
        assert self.cfg.circuit_power[CircuitClass.MFSK] == pytest.approx(0.265)

    def test_amplifiers(self):
        for variant in PaVariant:
            assert self.cfg.pa_models[variant].eta_max == pytest.approx(0.80)
        assert self.cfg.pa_models[PaVariant.ETPA].etpa_c == pytest.approx(0.0082)

    def test_packet_and_qos(self):
        assert self.cfg.n_h == 48
        assert self.cfg.qos.target_per == pytest.approx(0.001)
        assert self.cfg.qos.max_retransmissions == 3

    def test_tolerances(self):
        assert self.cfg.delta == pytest.approx(1e-6)
        assert self.cfg.quad_epsrel == pytest.approx(1e-10)
        assert self.cfg.quad_epsabs == pytest.approx(1e-14)

    def test_duty_profile(self):
        duty = self.cfg.duty
        assert duty.battery_charge_ah == pytest.approx(2.0)
        assert duty.payload_per_period_bits == pytest.approx(5e3)
        assert duty.period_s == pytest.approx(300.0)

    def test_modulation_set_and_baseline(self):
        names = [m.name for m in self.cfg.modulations]
        assert names == ["NCFSK", "BPSK", "OQPSK", "4QAM", "16QAM", "64QAM"]
        assert self.cfg.baseline_name == "OQPSK"
        assert self.cfg.baseline_scheme().papr == pytest.approx(2.138)

    def test_distances_grid(self):
        distances = self.cfg.distances()
        assert distances[0] == 2.0
        assert distances[-1] == 80.0
        assert len(distances) == 79

    def test_default_file_matches_builtin(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text(DEFAULT_CONFIG_TEXT, encoding="utf-8")
        assert load_config(str(path)) == default_config()

    def test_shipped_default_file_round_trips(self):
        """The default.ini at the repo root stays in sync with the code."""
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "default.ini"
        assert path.read_text(encoding="utf-8") == DEFAULT_CONFIG_TEXT
        assert load_config(str(path)) == default_config()


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="radio: unknown section"):
            parse_config("[radio]\nfoo = 1\n")

    def test_unknown_key_with_field_path(self):
        with pytest.raises(ConfigError, match="link: unknown key 'p0_w'"):
            parse_config("[link]\np0_w = 0.01\n")

    def test_bad_number_with_field_path(self):
        with pytest.raises(ConfigError, match="link.kappa: invalid number"):
            parse_config("[link]\nkappa = steep\n")

    def test_bad_qos(self):
        with pytest.raises(ConfigError, match="qos"):
            parse_config("[qos]\ntarget_per = 1.5\n")

    def test_bad_sweep(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config("[sweep]\nd_min_m = 5\nd_max_m = 2\n")

    def test_sweep_grid_bounded(self):
        with pytest.raises(ConfigError, match="sweep.d_step_m"):
            parse_config("[sweep]\nd_step_m = 1e-9\n")
        grid = "[sweep]\nd_min_m = 1\nd_max_m = {}\nd_step_m = 1\n"
        cfg = parse_config(grid.format(MAX_SWEEP_POINTS))
        assert len(cfg.distances()) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match="sweep.d_step_m"):
            parse_config(grid.format(MAX_SWEEP_POINTS + 1))

    def test_zero_header_rejected(self):
        with pytest.raises(ConfigError, match="packet.n_h_bits: must be >= 1"):
            parse_config("[packet]\nn_h_bits = 0\n")

    def test_duplicate_enabled_modulation(self):
        with pytest.raises(ConfigError,
                           match=r"modulations.enabled: listed more than once: \['OQPSK'\]"):
            parse_config("[modulations]\nenabled = OQPSK, BPSK, OQPSK\n")

    @pytest.mark.parametrize("value", ["0", "-2.5"])
    @pytest.mark.parametrize("section,key", [
        ("link", "p0_mw"), ("link", "kappa"), ("link", "bandwidth_khz"),
        ("circuit", "pc_mqam_mw"), ("circuit", "pc_mfsk_mw"),
    ])
    def test_non_positive_rejected_with_field_path(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}: must be > 0"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["1e6", "-1e6", "3001"])
    @pytest.mark.parametrize("key", [
        "g1_db", "link_margin_db", "noise_half_psd_dbm_hz",
    ])
    def test_decibels_out_of_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"link.{key}: must be within"):
            parse_config(f"[link]\n{key} = {value}\n")

    @pytest.mark.parametrize("text,field", [
        ("[sweep]\nd_max_m = 1e90\nd_step_m = 1e86\n", "sweep.d_max_m"),
        ("[link]\nkappa = 400\n", "sweep.d_max_m"),
        ("[sweep]\nd_min_m = 1e-200\n", "sweep.d_min_m"),
        ("[link]\ng1_db = 3000\nlink_margin_db = 3000\n", "sweep.d_min_m"),
    ])
    def test_sweep_end_outside_double_range_rejected(self, text, field):
        with pytest.raises(ConfigError, match=f"{field}: path loss at"):
            parse_config(text)

    def test_unknown_enabled_modulation(self):
        with pytest.raises(ConfigError, match="enabled: unknown scheme '8PSK'"):
            parse_config("[modulations]\nenabled = 8PSK\n")

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError, match="baseline: unknown scheme"):
            parse_config("[modulations]\nbaseline = 1024QAM\n")

    def test_bad_papr_formula(self):
        with pytest.raises(ConfigError, match="mqam_papr_formula"):
            parse_config("[modulations]\nmqam_papr_formula = peaky\n")

    def test_custom_modulation_missing_keys(self):
        with pytest.raises(ConfigError, match="modulation.8PSK: missing keys"):
            parse_config("[modulation.8PSK]\nbits_per_symbol = 3\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("not an ini file at all")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("[link]\np0_mw = 1\np0_mw = 2\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/linkopt.ini")


class TestOverrides:
    def test_papr_formula_switch(self):
        cfg = parse_config("[modulations]\nmqam_papr_formula = bounded\n")
        mods = {m.name: m for m in cfg.modulations}
        assert mods["4QAM"].papr == pytest.approx(1.0)
        assert mods["16QAM"].papr == pytest.approx(1.8)
        assert mods["64QAM"].papr == pytest.approx(3.0 * 7.0 / 9.0)

    def test_growing_papr_default(self):
        mods = {m.name: m for m in default_config().modulations}
        assert mods["4QAM"].papr == pytest.approx(7.5)
        assert mods["16QAM"].papr == pytest.approx(14.25)
        assert mods["64QAM"].papr == pytest.approx(3.0 * (8.0 - 0.125 + 1.0))

    def test_enabled_subset(self):
        cfg = parse_config("[modulations]\nenabled = OQPSK, 64QAM\n")
        assert [m.name for m in cfg.modulations] == ["OQPSK", "64QAM"]

    def test_custom_modulation_section(self):
        text = (
            "[modulation.8PSK]\n"
            "bits_per_symbol = 3\n"
            "ber_form = gaussian_q\n"
            "c_m = 0.6667\n"
            "k_m = 1.0548\n"
            "papr = 1.0\n"
            "circuit_class = mqam\n"
            "[modulations]\n"
            "enabled = OQPSK, 8PSK\n"
        )
        cfg = parse_config(text)
        mod = cfg.scheme("8PSK")
        assert mod.bits_per_symbol == 3
        assert mod.ber_form is BerForm.GAUSSIAN_Q
        assert mod.circuit_power_class is CircuitClass.MQAM
        assert mod.k_eff == pytest.approx(0.5598 * 1.0548)

    def test_pa_overrides(self):
        cfg = parse_config("[pa.tpa]\neta_max_pct = 65\np_t_max_mw = 120\n")
        pa = cfg.pa_models[PaVariant.TPA]
        assert pa.eta_max == pytest.approx(0.65)
        assert pa.p_t_max == pytest.approx(0.120)

    def test_distance_grid_step(self):
        cfg = parse_config("[sweep]\nd_min_m = 1\nd_max_m = 2\nd_step_m = 0.25\n")
        assert cfg.distances() == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_scheme_lookup_error(self):
        with pytest.raises(ConfigError, match="no scheme named"):
            default_config().scheme("8PSK")
