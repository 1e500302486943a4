"""Scenario configuration: parsing, validation and the shipped defaults.

The config is an INI file with nested section names and explicit units in
every key name (``p0_mw``, ``g1_db``, ...), because dB/linear and W/mW
mix-ups are the dominant failure mode in link-budget tooling.  Unknown
sections or keys are rejected with a field-path diagnostic.  Missing keys
take their value from ``DEFAULT_CONFIG_TEXT``, the reference parameter table
of the analysis; that text is the only place a default is written down, and
its sections and keys are the only ones accepted.

The INI syntax is the one ``configparser.ConfigParser(interpolation=None)``
reads, read here by a small line reader:

- the text is split into lines on ``\\n`` only;
- a ``[section]`` header's name runs from the first ``[`` to the last ``]``;
- ``key = value`` or ``key: value`` is split at the first ``=`` or ``:``;
  keys are lower-cased, and keys and values are stripped;
- a line whose first non-blank character is ``#`` or ``;`` is a comment;
- a line indented deeper than its key continues that key's value; blank
  lines inside a value are kept and trailing ones dropped;
- a repeated section, a repeated key within a section, and a line before
  the first header are errors, reported with their line number;
- an empty ``[DEFAULT]`` is accepted, and a non-empty one rejected, because
  ``configparser`` would copy its keys into every other section, past the
  schema.

Note the noise entry: ``noise_half_psd_dbm_hz`` is the per-dimension density
(N0/2, the -174 dBm/Hz figure on data sheets).  The stored one-sided N0 is
twice that value; misreading it would shift every SNR by 3 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .energy import LinkBudget, PaModel, PaVariant
from .errors import ConfigError
from .lifetime import DutyProfile
from .per import (
    MQAM_PAPR_FORMULAS,
    BerForm,
    CircuitClass,
    ModulationScheme,
    QosSpec,
    default_modulations,
)

DEFAULT_CONFIG_TEXT = """\
[link]
p0_mw = 10.0
kappa = 3.5
g1_db = 30.0
link_margin_db = 40.0
noise_half_psd_dbm_hz = -174.0
bandwidth_khz = 10.0

[packet]
n_h_bits = 48

[qos]
target_per = 0.001
max_retransmissions = 3

[circuit]
pc_mqam_mw = 310.0
pc_mfsk_mw = 265.0

[pa.cpa]
eta_max_pct = 80.0
p_t_max_mw = 1000.0

[pa.tpa]
eta_max_pct = 80.0
p_t_max_mw = 400.0

[pa.etpa]
eta_max_pct = 80.0
p_t_max_mw = 250.0
c = 0.0082

[modulations]
enabled = NCFSK, BPSK, OQPSK, 4QAM, 16QAM, 64QAM
baseline = OQPSK
mqam_papr_formula = growing

[sweep]
d_min_m = 2.0
d_max_m = 80.0
d_step_m = 1.0

[duty]
battery_ah = 2.0
battery_v = 3.0
payload_kbit = 5.0
period_s = 300.0

[tolerance]
# delta: relative payload tolerance of the fixed-point solve, which stops once
# a map evaluation moves the payload by at most delta times the new payload.
# Each candidate gets at most 100 map evaluations (optimizer.MAX_ITER). It
# starts from its own payload at the previous distance of a sweep, else from
# ten header lengths, raised to one bit past the waterfall regime's edge if
# that lies further out. A retransmission cap whose smaller cap converged with
# neither the reliability floor nor the payload ceiling binding shares its
# point, without a solve.
delta = 1e-10
# quad_epsrel, quad_epsabs: the relative and absolute error targets of the
# quadrature oracles of `validate`. Each integral must end with an error
# estimate within max(10 quad_epsabs, 1e-6 |value|), so quad_epsrel is at most
# 1e-6; quad_epsabs = 0 needs a quad_epsrel of at least 50 machine epsilons.
quad_epsrel = 1e-10
quad_epsabs = 1e-14
"""


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """INI text as ``{section: {key: raw value}}``, in file order.

    The syntax is the one in the module docstring.

    Raises:
        ConfigError: "config syntax error" with the line number, or a
            non-empty ``[DEFAULT]`` named as an unknown section.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    default: dict[str, list[str]] = {}
    values = None  # the current section's lines per key
    key = None  # the key a continuation line extends
    indent = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and key is not None:
                values[key].append("")
            continue
        level = len(line) - len(line.lstrip())
        if key is not None and level > indent:
            values[key].append(stripped)
            continue
        indent = level
        end = stripped.rfind("]")
        if stripped[0] == "[" and end > 1:
            name = stripped[1:end]
            if name == "DEFAULT":
                values = default
            elif name in sections:
                raise _syntax_error(lineno, f"section {name!r} already exists")
            else:
                values = sections[name] = {}
            key = None
            continue
        if values is None:
            raise _syntax_error(lineno, "no section header before this line")
        equals, colon = stripped.find("="), stripped.find(":")
        cut = equals if colon < 0 or 0 <= equals < colon else colon
        if cut < 0:
            raise _syntax_error(lineno, f"expected 'key = value', got {line!r}")
        key = stripped[:cut].rstrip().lower()
        if not key:
            raise _syntax_error(lineno, f"empty key in {line!r}")
        if key in values:
            raise _syntax_error(lineno, f"key {key!r} already exists")
        values[key] = [stripped[cut + 1:].lstrip()]
    if default:
        raise ConfigError(
            "DEFAULT: unknown section (its keys would apply to every section)"
        )
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
        for name, keys in sections.items()
    }


def _syntax_error(lineno: int, problem: str) -> ConfigError:
    return ConfigError(f"config syntax error: line {lineno}: {problem}")


# Parsed once: every default, and the schema of the fixed sections.
_DEFAULTS = _read_sections(DEFAULT_CONFIG_TEXT)
_Sections = dict[str, dict[str, str]]

# Built once: the built-in schemes by name for each MQAM PAPR formula.  The
# schemes are immutable, so every config shares them (and their cached
# effective coefficients).
_BUILTIN_SCHEMES = {
    formula: {m.name: m for m in default_modulations(formula)}
    for formula in MQAM_PAPR_FORMULAS
}

# Largest sweep grid accepted; the reference grid has 79 points.
MAX_SWEEP_POINTS = 100_000

# Largest magnitude accepted for a dB or dBm figure.  Its linear value then
# lies within 1e-300..1e300, so converting it cannot overflow or underflow.
MAX_ABS_DB = 3000.0

_MODULATION_KEYS = {
    "bits_per_symbol", "ber_form", "c_m", "k_m", "papr", "circuit_class",
}


def _grid_steps(d_min: float, d_max: float, d_step: float) -> int:
    """Steps of the sweep grid; a last step within 1e-9 of d_max counts."""
    return int(math.floor((d_max - d_min) / d_step + 1e-9))


def _grid_point(d_min: float, d_step: float, i: int) -> float:
    """The i-th sweep distance, rounded to 1e-9 m."""
    return round(d_min + i * d_step, 9)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario: domain objects ready for the optimizer."""

    link_template: LinkBudget
    n_h: int
    qos: QosSpec
    circuit_power: dict[CircuitClass, float]
    pa_models: dict[PaVariant, PaModel]
    modulations: tuple[ModulationScheme, ...]
    baseline_name: str
    d_min_m: float
    d_max_m: float
    d_step_m: float
    duty: DutyProfile
    delta: float
    quad_epsrel: float
    quad_epsabs: float

    def distances(self) -> list[float]:
        """Sweep grid, inclusive of both ends up to step rounding."""
        steps = _grid_steps(self.d_min_m, self.d_max_m, self.d_step_m)
        return [_grid_point(self.d_min_m, self.d_step_m, i) for i in range(steps + 1)]

    def scheme(self, name: str) -> ModulationScheme:
        for mod in self.modulations:
            if mod.name == name:
                return mod
        raise ConfigError(f"modulations: no scheme named {name!r}")

    def baseline_scheme(self) -> ModulationScheme:
        return self.scheme(self.baseline_name)


class _Reader:
    """Typed key lookup over one section with field-path errors."""

    def __init__(self, sections: _Sections, section: str):
        self.section = section
        self.values = sections[section]

    def number(self, key: str) -> float:
        raw = self.values[key]
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key}: invalid number {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.section}.{key}: must be finite, got {raw!r}")
        return value

    def positive(self, key: str) -> float:
        value = self.number(key)
        if value <= 0.0:
            raise ConfigError(f"{self.section}.{key}: must be > 0, got {value!r}")
        return value

    def non_negative(self, key: str) -> float:
        value = self.number(key)
        if value < 0.0:
            raise ConfigError(f"{self.section}.{key}: must be >= 0, got {value!r}")
        return value

    def decibels(self, key: str) -> float:
        value = self.number(key)
        if abs(value) > MAX_ABS_DB:
            raise ConfigError(
                f"{self.section}.{key}: must be within +-{MAX_ABS_DB:g} dB, "
                f"got {value!r}"
            )
        return value

    def integer(self, key: str) -> int:
        raw = self.values[key]
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key}: invalid integer {raw!r}"
            ) from None

    def text(self, key: str) -> str:
        return self.values[key].strip()

    def choice(self, key: str, kind: type[Enum]) -> Enum:
        raw = self.text(key)
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key}: expected one of "
                f"{[member.value for member in kind]}, got {raw!r}"
            ) from None


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def check_distance(link: LinkBudget, distance_m: float, field: str) -> None:
    """Reject a link distance the model cannot be evaluated at.

    The distance must be positive and finite.  The path gain of ``link``'s
    law there (its own distance is not read), and the
    noise power referred to the transmitter (bandwidth x N0 x path gain)
    that every SNR is measured against, must be positive finite doubles.

    Raises:
        ConfigError: naming `field` when either condition fails.
    """
    if not (math.isfinite(distance_m) and distance_m > 0.0):
        raise ConfigError(f"{field}: must be positive and finite, got {distance_m}")
    gain = link.gain_at(distance_m)
    noise = link.bandwidth_hz * link.n0 * gain
    if not (0.0 < gain < math.inf and 0.0 < noise < math.inf):
        raise ConfigError(
            f"{field}: path loss at {distance_m:g} m is outside the range of a "
            f"double (link.kappa = {link.kappa:g}, link.g1_db = "
            f"{link.g1_db:g}, link.link_margin_db = {link.link_margin_db:g})"
        )


def _link(sections: _Sections, fields: dict) -> dict:
    link = _Reader(sections, "link")
    noise_half_dbm = link.decibels("noise_half_psd_dbm_hz")
    try:
        link_template = LinkBudget(
            distance_m=1.0,
            kappa=link.positive("kappa"),
            g1_db=link.decibels("g1_db"),
            link_margin_db=link.decibels("link_margin_db"),
            n0=2.0 * _dbm_to_watts(noise_half_dbm),
            bandwidth_hz=link.positive("bandwidth_khz") * 1e3,
            p0_w=link.positive("p0_mw") * 1e-3,
        )
    except ValueError as exc:
        # A positive value can underflow to 0 in the unit conversion.
        raise ConfigError(f"link: {exc}") from None
    return {"link_template": link_template}


def _qos(sections: _Sections, fields: dict) -> dict:
    qos_r = _Reader(sections, "qos")
    target_per = qos_r.number("target_per")
    max_retransmissions = qos_r.integer("max_retransmissions")
    try:
        return {"qos": QosSpec(target_per, max_retransmissions)}
    except ValueError as exc:
        # QosSpec names the field first, as in "target_per: ...".
        raise ConfigError(f"qos.{exc}") from None


def _packet(sections: _Sections, fields: dict) -> dict:
    n_h = _Reader(sections, "packet").integer("n_h_bits")
    if n_h < 1:
        raise ConfigError("packet.n_h_bits: must be >= 1")
    return {"n_h": n_h}


def _circuit(sections: _Sections, fields: dict) -> dict:
    circuit = _Reader(sections, "circuit")
    circuit_power = {}
    for kind, key in ((CircuitClass.MQAM, "pc_mqam_mw"),
                      (CircuitClass.MFSK, "pc_mfsk_mw")):
        milliwatts = circuit.positive(key)
        circuit_power[kind] = watts = milliwatts * 1e-3
        if watts == 0.0:
            raise ConfigError(
                f"circuit.{key}: {milliwatts!r} mW underflows to 0 W")
    return {"circuit_power": circuit_power}


def _pa(sections: _Sections, fields: dict) -> dict:
    pa_models = {}
    for variant in PaVariant:
        pa_r = _Reader(sections, f"pa.{variant.value}")
        kwargs = dict(
            variant=variant,
            eta_max=pa_r.number("eta_max_pct") / 100.0,
            p_t_max=pa_r.number("p_t_max_mw") * 1e-3,
        )
        if variant is PaVariant.ETPA:
            kwargs["etpa_c"] = pa_r.number("c")
        try:
            pa_models[variant] = PaModel(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"pa.{variant.value}: {exc}") from None
    return {"pa_models": pa_models}


def _modulations(sections: _Sections, fields: dict) -> dict:
    mods_r = _Reader(sections, "modulations")
    papr_formula = mods_r.text("mqam_papr_formula")
    if papr_formula not in _BUILTIN_SCHEMES:
        raise ConfigError(
            f"modulations.mqam_papr_formula: unknown MQAM PAPR formula "
            f"{papr_formula!r}; expected one of {sorted(_BUILTIN_SCHEMES)}"
        )
    table = dict(_BUILTIN_SCHEMES[papr_formula])

    for name, values in sections.items():
        if not name.startswith("modulation."):
            continue
        mod_name = name[len("modulation."):]
        r = _Reader(sections, name)
        missing = _MODULATION_KEYS - set(values)
        if missing:
            raise ConfigError(f"{name}: missing keys {sorted(missing)}")
        form = r.choice("ber_form", BerForm)
        circuit_class = r.choice("circuit_class", CircuitClass)
        try:
            table[mod_name] = ModulationScheme(
                name=mod_name,
                bits_per_symbol=r.integer("bits_per_symbol"),
                ber_form=form,
                c_m=r.number("c_m"),
                k_m=r.number("k_m"),
                papr=r.number("papr"),
                circuit_power_class=circuit_class,
            )
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None

    enabled_text = mods_r.text("enabled")
    enabled = [token.strip() for token in enabled_text.split(",") if token.strip()]
    if not enabled:
        raise ConfigError("modulations.enabled: must list at least one scheme")
    if len(set(enabled)) < len(enabled):
        twice = sorted({name for name in enabled if enabled.count(name) > 1})
        raise ConfigError(f"modulations.enabled: listed more than once: {twice}")
    modulations = []
    for name in enabled:
        if name not in table:
            raise ConfigError(
                f"modulations.enabled: unknown scheme {name!r}; define a "
                f"[modulation.{name}] section or use one of {sorted(table)}"
            )
        modulations.append(table[name])

    baseline_name = mods_r.text("baseline")
    if baseline_name not in table:
        raise ConfigError(
            f"modulations.baseline: unknown scheme {baseline_name!r}"
        )
    if baseline_name not in enabled:
        raise ConfigError(
            f"modulations.baseline: {baseline_name!r} is not in "
            f"modulations.enabled ({', '.join(enabled)})"
        )
    return {"modulations": tuple(modulations), "baseline_name": baseline_name}


def _sweep(sections: _Sections, fields: dict) -> dict:
    sweep = _Reader(sections, "sweep")
    d_min = sweep.number("d_min_m")
    d_max = sweep.number("d_max_m")
    d_step = sweep.number("d_step_m")
    if d_min <= 0.0 or d_max < d_min or d_step <= 0.0:
        raise ConfigError(
            f"sweep: need 0 < d_min_m <= d_max_m and d_step_m > 0, got "
            f"({d_min}, {d_max}, {d_step})"
        )
    if (d_max - d_min) / d_step + 1.0 > MAX_SWEEP_POINTS:
        raise ConfigError(
            f"sweep.d_step_m: {d_step} gives more than {MAX_SWEEP_POINTS} "
            f"distances between {d_min} and {d_max} m"
        )
    # The path gain grows with distance, so the two ends bound the grid;
    # distances() rounds them, which can move them (d_min_m = 1e-12 to 0).
    last = _grid_steps(d_min, d_max, d_step)
    link_template = fields["link_template"]
    for field, end, point in (
        ("sweep.d_min_m", d_min, _grid_point(d_min, d_step, 0)),
        ("sweep.d_max_m", d_max, _grid_point(d_min, d_step, last)),
    ):
        check_distance(link_template, end, field)
        if point != end:
            check_distance(
                link_template, point, f"{field} as rounded to the 1e-9 m grid"
            )
    return {"d_min_m": d_min, "d_max_m": d_max, "d_step_m": d_step}


def _duty(sections: _Sections, fields: dict) -> dict:
    duty_r = _Reader(sections, "duty")
    battery_ah = duty_r.number("battery_ah")
    battery_v = duty_r.number("battery_v")
    payload_kbit = duty_r.number("payload_kbit")
    period_s = duty_r.number("period_s")
    try:
        return {"duty": DutyProfile(
            battery_charge_ah=battery_ah,
            battery_voltage=battery_v,
            payload_per_period_bits=payload_kbit * 1e3,
            period_s=period_s,
        )}
    except ValueError as exc:
        raise ConfigError(f"duty: {exc}") from None


def _tolerance(sections: _Sections, fields: dict) -> dict:
    tol = _Reader(sections, "tolerance")
    delta = tol.positive("delta")
    epsrel = tol.non_negative("quad_epsrel")
    epsabs = tol.non_negative("quad_epsabs")
    # The quadrature oracles accept an error estimate of at most 1e-6
    # relative (oracles._checked_quad), which a looser target need not meet.
    if epsrel > 1e-6:
        raise ConfigError(
            f"tolerance.quad_epsrel: must be <= 1e-6, the relative error the "
            f"quadrature oracles accept, got {epsrel!r}"
        )
    # QUADPACK's invalid-input rule: with no absolute tolerance, a relative
    # one below 50 machine epsilons can never be met.
    if epsabs == 0.0 and epsrel < 50.0 * math.ulp(1.0):
        raise ConfigError(
            f"tolerance.quad_epsrel: must be >= 50 machine epsilons "
            f"(1.1e-14) when quad_epsabs = 0, got {epsrel!r}"
        )
    return {"delta": delta, "quad_epsrel": epsrel, "quad_epsabs": epsabs}


# The builders of the config's fields, in the order they run (and raise),
# each with the section groups (a section name up to its first dot) that
# make it run again: the sweep ends are checked against the link.
_BUILDERS = (
    (_link, {"link"}), (_qos, {"qos"}), (_packet, {"packet"}),
    (_circuit, {"circuit"}), (_pa, {"pa"}),
    (_modulations, {"modulations", "modulation"}),
    (_sweep, {"sweep", "link"}), (_duty, {"duty"}), (_tolerance, {"tolerance"}),
)


def _build(named: _Sections, base: dict) -> dict:
    """The fields of `named` laid over the defaults: those of the groups it
    names built again, every other one taken from `base`."""
    sections = {**_DEFAULTS, **{
        name: {**_DEFAULTS.get(name, {}), **values} for name, values in named.items()
    }}
    groups = {name.partition(".")[0] for name in named}
    fields = dict(base)
    for build, triggers in _BUILDERS:
        if not triggers.isdisjoint(groups):
            fields.update(build(sections, fields))
    return fields


# Built once: every field of the default config, each default validated.
_DEFAULT_FIELDS = _build(_DEFAULTS, {})


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from INI text.

    Every section and key of the text is checked against the schema.  The
    defaults were validated once, at import; only the section groups the
    text names (and the sweep, when it names ``[link]``) are read again,
    and every other field is the import-time one.  Each config gets its own
    ``circuit_power`` and ``pa_models`` dicts.
    """
    named = _read_sections(text)
    for name, values in named.items():
        if name in _DEFAULTS:
            allowed = _DEFAULTS[name]
        elif name.startswith("modulation."):
            allowed = _MODULATION_KEYS
        else:
            raise ConfigError(f"{name}: unknown section")
        for key in values:
            if key not in allowed:
                raise ConfigError(f"{name}: unknown key {key!r}")
    fields = _build(named, _DEFAULT_FIELDS)
    fields["circuit_power"] = dict(fields["circuit_power"])
    fields["pa_models"] = dict(fields["pa_models"])
    return ScenarioConfig(**fields)


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def default_config() -> ScenarioConfig:
    """The built-in scenario matching the reference parameter table."""
    return parse_config("")
