"""Tests for scenario config parsing, defaults and rejection diagnostics."""

import ast
import configparser
import io
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkopt import config
from linkopt.config import (
    DEFAULT_CONFIG_TEXT,
    MAX_SWEEP_POINTS,
    ScenarioConfig,
    default_config,
    load_config,
    parse_config,
)
from linkopt.energy import LinkBudget, PaVariant
from linkopt.errors import ConfigError
from linkopt.per import BerForm, CircuitClass
from test_query_digests import WORKLOADS


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
        assert self.cfg.delta == pytest.approx(1e-10)
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

    def test_per_attempt_bound_rounding_to_one_rejected(self):
        """target_per ** (1/2) rounds to 1.0, and log1p(-1) has no value."""
        with pytest.raises(ConfigError, match=r"^qos\.target_per: .* rounds to 1"):
            parse_config(
                "[qos]\ntarget_per = 0.9999999999999999\nmax_retransmissions = 1\n"
            )

    @pytest.mark.parametrize("text,message", [
        ("period_s = inf", "duty.period_s: must be finite, got 'inf'"),
        ("battery_ah = x", "duty.battery_ah: invalid number 'x'"),
    ])
    def test_duty_reader_error_wrapped_once(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(f"[duty]\n{text}\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("value,problem", [
        ("x", "invalid number 'x'"), ("nan", "must be finite, got 'nan'"),
    ])
    @pytest.mark.parametrize("key", sorted(config._DEFAULTS["link"]))
    def test_link_reader_error_wrapped_once(self, key, value, problem):
        with pytest.raises(ConfigError) as info:
            parse_config(f"[link]\n{key} = {value}\n")
        assert str(info.value) == f"link.{key}: {problem}"

    @pytest.mark.parametrize("key,value,problem", [
        ("bits_per_symbol", "x", "invalid integer 'x'"),
        ("ber_form", "x", "expected one of ['exponential', 'gaussian_q'], got 'x'"),
        ("c_m", "nan", "must be finite, got 'nan'"),
        ("k_m", "x", "invalid number 'x'"),
        ("papr", "inf", "must be finite, got 'inf'"),
        ("circuit_class", "x", "expected one of ['mqam', 'mfsk'], got 'x'"),
    ])
    def test_modulation_reader_error_wrapped_once(self, key, value, problem):
        keys = {"bits_per_symbol": "1", "ber_form": "gaussian_q", "c_m": "1",
                "k_m": "1", "papr": "1", "circuit_class": "mqam", key: value}
        with pytest.raises(ConfigError) as info:
            parse_config(ini({"modulation.X": keys}))
        assert str(info.value) == f"modulation.X.{key}: {problem}"

    @pytest.mark.parametrize("name", ["", "A,B", " X", "X ", ",X"])
    def test_scheme_name_enabled_cannot_list_rejected(self, name):
        """modulations.enabled splits at commas and strips each name, so
        such a section could never be listed."""
        keys = dict.fromkeys(sorted(config._MODULATION_KEYS), "1")
        with pytest.raises(ConfigError) as info:
            parse_config(ini({f"modulation.{name}": keys}))
        assert str(info.value) == (
            f"modulation.{name}: modulations.enabled cannot list {name!r}; a "
            f"scheme name is non-empty, with no comma or outer spaces")

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

    @pytest.mark.parametrize("key", ["quad_epsrel", "quad_epsabs"])
    def test_negative_quad_tolerance_rejected(self, key):
        with pytest.raises(ConfigError,
                           match=f"tolerance.{key}: must be >= 0, got -1e-10"):
            parse_config(f"[tolerance]\n{key} = -1e-10\n")

    @pytest.mark.parametrize("epsrel", ["0", "1e-14"])
    def test_unreachable_quad_tolerance_rejected(self, epsrel):
        """QUADPACK's rule: epsabs = 0 needs epsrel >= 50 machine epsilons,
        or every integral would run to its panel limit."""
        with pytest.raises(ConfigError,
                           match="tolerance.quad_epsrel: must be >= 50 machine"):
            parse_config(
                f"[tolerance]\nquad_epsrel = {epsrel}\nquad_epsabs = 0\n"
            )

    @pytest.mark.parametrize("epsrel", ["2e-6", "1e-5", "1"])
    def test_quad_epsrel_the_oracles_cannot_meet_rejected(self, epsrel):
        """The quadrature oracles accept an error estimate of at most 1e-6
        relative, so a looser target is refused before any check runs."""
        with pytest.raises(ConfigError,
                           match="tolerance.quad_epsrel: must be <= 1e-6"):
            parse_config(f"[tolerance]\nquad_epsrel = {epsrel}\n")

    def test_quad_tolerance_edges_accepted(self):
        cfg = parse_config("[tolerance]\nquad_epsrel = 0\nquad_epsabs = 1e-14\n")
        assert (cfg.quad_epsrel, cfg.quad_epsabs) == (0.0, 1e-14)
        cfg = parse_config("[tolerance]\nquad_epsrel = 1e-6\n")
        assert cfg.quad_epsrel == 1e-6
        cfg = parse_config("[tolerance]\nquad_epsrel = 1.2e-14\nquad_epsabs = 0\n")
        assert (cfg.quad_epsrel, cfg.quad_epsabs) == (1.2e-14, 0.0)

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

    def test_sweep_end_rounded_to_zero_rejected(self):
        """d_min_m passes as written but the 1e-9 m grid rounds it to 0."""
        with pytest.raises(
            ConfigError,
            match=r"sweep\.d_min_m as rounded to the 1e-9 m grid: must be "
                  r"positive and finite, got 0\.0",
        ):
            parse_config("[sweep]\nd_min_m = 1e-12\nd_max_m = 2\n")

    def test_baseline_not_enabled_rejected(self):
        with pytest.raises(
            ConfigError,
            match=r"modulations\.baseline: 'OQPSK' is not in "
                  r"modulations\.enabled \(16QAM, 64QAM\)",
        ):
            parse_config("[modulations]\nenabled = 16QAM, 64QAM\n")

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

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\np0_mw = 5\n[link]\nkappa = 3.5\n",
        "[DEFAULT]\nmystery = 1\n",
    ], ids=["key_of_another_section", "unknown_key_alone"])
    def test_default_section_rejected(self, text):
        """configparser copies [DEFAULT] keys into every section, past the
        schema; a non-empty one is refused by name."""
        with pytest.raises(ConfigError, match=r"^DEFAULT: unknown section"):
            parse_config(text)

    def test_empty_default_section_accepted(self):
        config = parse_config("[DEFAULT]\n[link]\np0_mw = 20\n")
        assert config.link_template.p0_w == pytest.approx(0.02)

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("not an ini file at all")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("[link]\np0_mw = 1\np0_mw = 2\n")

    @pytest.mark.parametrize("text,lineno", [
        ("not an ini file at all", 1),
        ("[link]\np0_mw = 1\n\n[link]\n", 4),
        ("[link]\nkappa\n", 2),
        ("[link]\n# note\n = 3\n", 3),
    ], ids=["no_header", "duplicate_section", "valueless_key", "empty_key"])
    def test_syntax_error_names_the_line(self, text, lineno):
        with pytest.raises(ConfigError,
                           match=f"^config syntax error: line {lineno}: "):
            parse_config(text)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config("/nonexistent/linkopt.ini")


class TestDefaultSource:
    """Every default comes from DEFAULT_CONFIG_TEXT, parsed once at import."""

    def test_missing_key_reads_the_parsed_default_table(self, monkeypatch):
        """A named section's missing key reads the table; a section the text
        does not name keeps the default built at import."""
        monkeypatch.setitem(config._DEFAULTS["packet"], "n_h_bits", "64")
        assert parse_config("[packet]\n").n_h == 64
        assert parse_config("").n_h == 48

    def test_default_text_not_parsed_per_call(self, monkeypatch):
        texts = []
        read = config._read_sections

        def spy(text):
            texts.append(text)
            return read(text)

        monkeypatch.setattr(config, "_read_sections", spy)
        default_config()
        parse_config("[packet]\nn_h_bits = 32\n")
        assert texts == ["", "[packet]\nn_h_bits = 32\n"]


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

    def test_custom_modulation_fit_underflow_rejected(self):
        """A Gaussian-Q amplitude in range whose fitted constant rounds to 0
        is a config error, not a domain error in the solve."""
        with pytest.raises(ConfigError, match=(
            "modulation.X: X: the fit of c_m=5e-324 underflows to 0"
        )):
            parse_config(
                "[modulation.X]\nbits_per_symbol = 1\nber_form = gaussian_q\n"
                "c_m = 5e-324\nk_m = 1\npapr = 1\ncircuit_class = mqam\n"
            )

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


def reference_sections(text):
    """The configparser reader that ``config._read_sections`` replaced, kept
    as its oracle."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    if parser.defaults():
        raise ConfigError(
            f"{parser.default_section}: unknown section (its keys would apply "
            f"to every section)"
        )
    return {name: dict(parser[name]) for name in parser.sections()}


def outcome(read, text):
    """Sections and keys in order, or the kind of rejection."""
    try:
        sections = read(text)
    except ConfigError as exc:
        message = str(exc)
        return "syntax" if message.startswith("config syntax error") else message
    return [(name, list(values.items())) for name, values in sections.items()]


def assert_reads_like_configparser(text):
    expected = outcome(reference_sections, text)
    assert outcome(config._read_sections, text) == expected, repr(text)
    if expected == "syntax":
        with pytest.raises(ConfigError, match=r"line \d+"):
            config._read_sections(text)


_NAMES = ["a", "A", "b", "link", "DEFAULT", "default", "x y", "a]", "[a", ""]
_KEYS = ["a", "A", "b", "B", "p0_mw", "P0_MW", "", "x y", "[k", "k]"]
_PADS = ["", " ", "  ", "\t", " \t", "\r", "\x0c", "\xa0"]
_WORDS = st.text(alphabet="aAb1. =:#;[]\t\r\x0c\xa0", max_size=6)


@st.composite
def ini_lines(draw):
    """One line: a header, an option, a valueless key, a comment, a blank or
    free text, each with a random indent (so some continue a value) and a
    random tail."""
    kind = draw(st.sampled_from(
        ["header", "option", "option", "valueless", "comment", "blank", "free"]
    ))
    if kind == "header":
        body = "[" + draw(st.sampled_from(_NAMES)) + "]" + draw(
            st.sampled_from(["", "]", " tail", "=1", "[x]"]))
    elif kind == "option":
        body = draw(st.sampled_from(_KEYS)) + draw(st.sampled_from(
            ["=", ":", " = ", " : ", "= ", " :", "=="])) + draw(_WORDS)
    elif kind == "valueless":
        body = draw(st.sampled_from(_KEYS))
    elif kind == "comment":
        body = draw(st.sampled_from(["#", ";"])) + draw(_WORDS)
    elif kind == "blank":
        body = ""
    else:
        body = draw(_WORDS)
    return draw(st.sampled_from(_PADS)) + body + draw(st.sampled_from(_PADS))


class TestReaderOracle:
    """``_read_sections`` reads exactly what configparser reads."""

    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(ini_lines(), max_size=12), tail=st.booleans())
    @example(lines=["[DEFAULT]", "k = 1", "[DEFAULT]", "K = 2"], tail=False)
    def test_generated_texts(self, lines, tail):
        assert_reads_like_configparser("\n".join(lines) + "\n" * tail)

    def test_shipped_defaults(self):
        root = Path(__file__).resolve().parent.parent
        assert_reads_like_configparser(DEFAULT_CONFIG_TEXT)
        assert_reads_like_configparser(
            (root / "default.ini").read_text(encoding="utf-8"))

    def test_every_string_in_the_tests(self):
        """Every string literal under tests/, each INI text among them."""
        texts = set()
        for path in Path(__file__).resolve().parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            texts.update(node.value for node in ast.walk(tree)
                         if isinstance(node, ast.Constant)
                         and isinstance(node.value, str))
        assert len(texts) > 100
        for text in sorted(texts):
            assert_reads_like_configparser(text)

    def test_point_query_texts(self):
        """Batch 0 of seeds 0-39 of the benchmark's point queries."""
        texts = [query.ini for seed in range(40)
                 for query in WORKLOADS.generate_queries(seed, 0, 300)]
        assert len(texts) == 12_000
        for text in texts:
            assert_reads_like_configparser(text)

    @pytest.mark.parametrize("text,expected", [
        ("[s]\nk = a\n\n  b\n\n\n", {"s": {"k": "a\n\nb"}}),
        ("[s]\nk = a\n  # c\n\tb\n", {"s": {"k": "a\nb"}}),
        ("[a]]x\nK: v = w\n", {"a]": {"k": "v = w"}}),
        ("[s]\nk = a\r\n", {"s": {"k": "a"}}),
        ("[s]\nk = a\x0cb\n", {"s": {"k": "a\x0cb"}}),
        ("[DEFAULT]\n[DEFAULT]\n[s]\n", {"s": {}}),
        ("[s]\nk = a\n\n# c\n\n  b\n", {"s": {"k": "a\n\n\nb"}}),
        ("[s]\nk = a\n\n\nj = b\n", {"s": {"k": "a", "j": "b"}}),
        ("[s]\n  k = a\n    b\n  j = c\n", {"s": {"k": "a\nb", "j": "c"}}),
    ], ids=["blank_lines_in_value", "comment_in_value", "last_bracket",
            "crlf", "form_feed_not_a_line_break", "empty_default_twice",
            "blank_lines_and_comment_in_value", "blank_lines_before_next_key",
            "indented_first_key"])
    def test_examples(self, text, expected):
        assert config._read_sections(text) == expected
        assert reference_sections(text) == expected


# Values per key: valid ones first, then ones its builder rejects.  Among
# the valid [link] values, kappa = 400 and g1_db = link_margin_db = 3000 put
# the path gain at a sweep end outside the doubles, which only the sweep
# builder sees.
_VALID = {
    "p0_mw": ["10", "22.1", "1e-300"], "kappa": ["3.5", "2.9", "400"],
    "g1_db": ["30", "3000", "-20"], "link_margin_db": ["40", "3000", "0"],
    "noise_half_psd_dbm_hz": ["-174", "-3000"], "bandwidth_khz": ["10", "8.2"],
    "n_h_bits": ["48", "1", "126"], "target_per": ["0.001", "0.02"],
    "max_retransmissions": ["3", "0", "5", "100"],
    "pc_mqam_mw": ["310", "1"], "pc_mfsk_mw": ["265", "12"],
    "eta_max_pct": ["80", "35"], "p_t_max_mw": ["1000", "40"], "c": ["0.0082"],
    "enabled": ["NCFSK, BPSK, OQPSK, 4QAM, 16QAM, 64QAM", "OQPSK, X", "OQPSK"],
    "baseline": ["OQPSK", "X"], "mqam_papr_formula": ["growing", "bounded"],
    "d_min_m": ["2", "1", "1e-200"], "d_max_m": ["80", "3", "1e90"],
    "d_step_m": ["1", "0.25", "1e86"], "battery_ah": ["2", "1e3"],
    "battery_v": ["3", "1.5"], "payload_kbit": ["5", "40"],
    "period_s": ["300", "1"], "delta": ["1e-10", "1e-6"],
    "quad_epsrel": ["1e-10", "0"], "quad_epsabs": ["1e-14", "0"],
    "bits_per_symbol": ["3", "1"], "ber_form": ["gaussian_q", "exponential"],
    "c_m": ["0.6667", "1"], "k_m": ["1.0548", "0.3"], "papr": ["1", "4.5"],
    "circuit_class": ["mqam", "mfsk"],
}
_INVALID = ["0", "-1", "inf", "nan", "x", "1e-320", "101", "1.5", "5e-324"]
_SECTIONS = {**config._DEFAULTS, "modulation.X": dict.fromkeys(
    sorted(config._MODULATION_KEYS))}


@st.composite
def named_sections(draw):
    """Some sections in some order, each with some keys and values."""
    names = draw(st.lists(st.sampled_from(sorted(_SECTIONS)), unique=True))
    sections = {}
    for name in names:
        keys = draw(st.lists(st.sampled_from(list(_SECTIONS[name])),
                             unique=True))
        sections[name] = {
            key: draw(st.sampled_from(_INVALID))
            if draw(st.integers(0, 11)) == 0
            else draw(st.sampled_from(_VALID[key]))
            for key in keys
        }
    return sections


def ini(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def parsed(text):
    try:
        return parse_config(text)
    except ConfigError as exc:
        return str(exc)


class TestParseEquivalence:
    """Only the named sections are read again, and nothing else changes."""

    @settings(max_examples=300, deadline=None)
    @given(sections=named_sections())
    @example(sections={"link": {"kappa": "400"}})
    @example(sections={"link": {"g1_db": "3000", "link_margin_db": "3000"}})
    def test_same_as_every_default_written_out(self, sections):
        """A text parses as the same text with every default section and key
        written out, which runs every builder, or both raise one message."""
        full = {name: {**config._DEFAULTS.get(name, {}), **keys}
                for name, keys in sections.items()}
        full.update((name, keys) for name, keys in config._DEFAULTS.items()
                    if name not in sections)
        assert parsed(ini(sections)) == parsed(ini(full))


class TestParseWork:
    """What a parse builds; pins the regression, not the speed."""

    BUILT = ("LinkBudget", "QosSpec", "PaModel", "DutyProfile",
             "ModulationScheme")

    def builds(self, monkeypatch, texts):
        calls = Counter()
        for name in self.BUILT:
            def counting(*args, _build=getattr(config, name), _name=name,
                         **kwargs):
                calls[_name] += 1
                return _build(*args, **kwargs)
            monkeypatch.setattr(config, name, counting)
        for text in texts:
            parse_config(text)
        return calls

    def test_point_query_builds_its_link_and_qos(self, monkeypatch):
        """A query naming [link], [packet] and [qos] builds one LinkBudget
        and one QosSpec; the amplifiers, duty and schemes are the defaults."""
        texts = [query.ini for query in WORKLOADS.generate_queries(0, 0, 30)]
        assert self.builds(monkeypatch, texts) == {
            "LinkBudget": 30, "QosSpec": 30,
        }

    def test_point_query_copies_no_link(self, monkeypatch):
        """The sweep ends' path gains are taken from the parsed link itself:
        a query's one LinkBudget is the only one made."""
        made = Counter()
        init = LinkBudget.__init__

        def counting(self, *args, **kwargs):
            made["LinkBudget"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinkBudget, "__init__", counting)
        for query in WORKLOADS.generate_queries(0, 0, 30):
            parse_config(query.ini)
        assert made == {"LinkBudget": 30}

    def test_point_query_checks_the_default_sweep_ends(self, monkeypatch):
        """A query naming [link] but not [sweep] checks the import-time grid
        ends (2 m and 80 m, both on the 1e-9 m grid) against its link, and
        reads no [sweep] key."""
        checked, read = [], set()
        check, init = config.check_distance, config._Reader.__init__

        def counting_check(link, distance, field):
            checked.append((distance, field))
            check(link, distance, field)

        def recording_init(self, named, section):
            read.add(section)
            init(self, named, section)

        monkeypatch.setattr(config, "check_distance", counting_check)
        monkeypatch.setattr(config._Reader, "__init__", recording_init)
        for query in WORKLOADS.generate_queries(0, 0, 30):
            parse_config(query.ini)
        assert checked == [(2.0, "sweep.d_min_m"), (80.0, "sweep.d_max_m")] * 30
        assert read == {"link", "packet", "qos"}

    @pytest.mark.parametrize("text", [
        "", "[link]\nkappa = 3\n", DEFAULT_CONFIG_TEXT,
        WORKLOADS.generate_queries(0, 0, 1)[0].ini,
    ], ids=["empty", "link", "defaults_written_out", "point_query"])
    def test_config_equals_one_built_by_its_init(self, text):
        """parse_config fills the frozen instance without ScenarioConfig's
        __init__: it holds the same fields, and only those."""
        cfg = parse_config(text)
        built = ScenarioConfig(**vars(cfg))
        assert cfg == built and vars(cfg) == vars(built)

    def test_default_config_builds_nothing(self, monkeypatch):
        assert self.builds(monkeypatch, [""]) == {}

    @pytest.mark.parametrize("text", ["", "[link]\nkappa = 3\n"])
    def test_configs_share_no_mutable_state(self, text):
        changed = parse_config(text)
        changed.pa_models.clear()
        changed.circuit_power.clear()
        fresh = parse_config(DEFAULT_CONFIG_TEXT)
        assert parse_config(text).pa_models == fresh.pa_models
        assert parse_config(text).circuit_power == fresh.circuit_power
