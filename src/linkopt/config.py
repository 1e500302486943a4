"""Scenario configuration: parsing, validation and the shipped defaults.

The config is an INI file with nested section names and explicit units in
every key name (``p0_mw``, ``g1_db``, ...), because dB/linear and W/mW
mix-ups are the dominant failure mode in link-budget tooling.  Unknown
sections or keys are rejected with a field-path diagnostic; missing keys
fall back to the defaults below, which reproduce the reference parameter
table of the analysis.

Note the noise entry: ``noise_half_psd_dbm_hz`` is the per-dimension density
(N0/2, the -174 dBm/Hz figure on data sheets).  The stored one-sided N0 is
twice that value; misreading it would shift every SNR by 3 dB.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .energy import LinkBudget, PaModel, PaVariant
from .errors import ConfigError
from .lifetime import DutyProfile
from .per import (
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
delta = 1e-6
quad_epsrel = 1e-10
quad_epsabs = 1e-14
"""

_SCHEMA: dict[str, set[str]] = {
    "link": {
        "p0_mw", "kappa", "g1_db", "link_margin_db",
        "noise_half_psd_dbm_hz", "bandwidth_khz",
    },
    "packet": {"n_h_bits"},
    "qos": {"target_per", "max_retransmissions"},
    "circuit": {"pc_mqam_mw", "pc_mfsk_mw"},
    "pa.cpa": {"eta_max_pct", "p_t_max_mw"},
    "pa.tpa": {"eta_max_pct", "p_t_max_mw"},
    "pa.etpa": {"eta_max_pct", "p_t_max_mw", "c"},
    "modulations": {"enabled", "baseline", "mqam_papr_formula"},
    "sweep": {"d_min_m", "d_max_m", "d_step_m"},
    "duty": {"battery_ah", "battery_v", "payload_kbit", "period_s"},
    "tolerance": {"delta", "quad_epsrel", "quad_epsabs"},
}

# Largest sweep grid accepted; the reference grid has 79 points.
MAX_SWEEP_POINTS = 100_000

_MODULATION_KEYS = {
    "bits_per_symbol", "ber_form", "c_m", "k_m", "papr", "circuit_class",
}


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
    mqam_papr_formula: str = "growing"

    def distances(self) -> list[float]:
        """Sweep grid, inclusive of both ends up to step rounding."""
        count = int(math.floor((self.d_max_m - self.d_min_m) / self.d_step_m + 1e-9))
        return [round(self.d_min_m + i * self.d_step_m, 9) for i in range(count + 1)]

    def scheme(self, name: str) -> ModulationScheme:
        for mod in self.modulations:
            if mod.name == name:
                return mod
        raise ConfigError(f"modulations: no scheme named {name!r}")

    def baseline_scheme(self) -> ModulationScheme:
        return self.scheme(self.baseline_name)


class _Reader:
    """Typed key lookup over one parsed section with field-path errors."""

    def __init__(self, section: str, values: dict[str, str]):
        self.section = section
        self.values = values

    def _get(self, key: str) -> str | None:
        return self.values.get(key)

    def number(self, key: str, default: float) -> float:
        raw = self._get(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key}: invalid number {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.section}.{key}: must be finite, got {raw!r}")
        return value

    def integer(self, key: str, default: int) -> int:
        raw = self._get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{self.section}.{key}: invalid integer {raw!r}"
            ) from None

    def text(self, key: str, default: str) -> str:
        raw = self._get(key)
        return default if raw is None else raw.strip()


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario config from INI text."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    sections: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name in _SCHEMA:
            allowed = _SCHEMA[name]
        elif name.startswith("modulation."):
            allowed = _MODULATION_KEYS
        else:
            raise ConfigError(f"{name}: unknown section")
        for key in parser[name]:
            if key not in allowed:
                raise ConfigError(f"{name}: unknown key {key!r}")
        sections[name] = dict(parser[name])

    def reader(name: str) -> _Reader:
        return _Reader(name, sections.get(name, {}))

    link = reader("link")
    noise_half_dbm = link.number("noise_half_psd_dbm_hz", -174.0)
    link_template = LinkBudget(
        distance_m=1.0,
        kappa=link.number("kappa", 3.5),
        g1_db=link.number("g1_db", 30.0),
        link_margin_db=link.number("link_margin_db", 40.0),
        n0=2.0 * _dbm_to_watts(noise_half_dbm),
        bandwidth_hz=link.number("bandwidth_khz", 10.0) * 1e3,
        p0_w=link.number("p0_mw", 10.0) * 1e-3,
    )

    qos_r = reader("qos")
    try:
        qos = QosSpec(
            target_per=qos_r.number("target_per", 0.001),
            max_retransmissions=qos_r.integer("max_retransmissions", 3),
        )
    except ValueError as exc:
        raise ConfigError(f"qos: {exc}") from None

    n_h = reader("packet").integer("n_h_bits", 48)
    if n_h < 1:
        raise ConfigError("packet.n_h_bits: must be >= 1")

    circuit = reader("circuit")
    circuit_power = {
        CircuitClass.MQAM: circuit.number("pc_mqam_mw", 310.0) * 1e-3,
        CircuitClass.MFSK: circuit.number("pc_mfsk_mw", 265.0) * 1e-3,
    }

    pa_defaults_mw = {PaVariant.CPA: 1000.0, PaVariant.TPA: 400.0,
                      PaVariant.ETPA: 250.0}
    pa_models = {}
    for variant in PaVariant:
        pa_r = reader(f"pa.{variant.value}")
        kwargs = dict(
            variant=variant,
            eta_max=pa_r.number("eta_max_pct", 80.0) / 100.0,
            p_t_max=pa_r.number("p_t_max_mw", pa_defaults_mw[variant]) * 1e-3,
        )
        if variant is PaVariant.ETPA:
            kwargs["etpa_c"] = pa_r.number("c", 0.0082)
        try:
            pa_models[variant] = PaModel(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"pa.{variant.value}: {exc}") from None

    mods_r = reader("modulations")
    papr_formula = mods_r.text("mqam_papr_formula", "growing")
    try:
        table = {m.name: m for m in default_modulations(papr_formula)}
    except ValueError as exc:
        raise ConfigError(f"modulations.mqam_papr_formula: {exc}") from None

    for name, values in sections.items():
        if not name.startswith("modulation."):
            continue
        mod_name = name[len("modulation."):]
        r = _Reader(name, values)
        missing = _MODULATION_KEYS - set(values)
        if missing:
            raise ConfigError(f"{name}: missing keys {sorted(missing)}")
        form_text = r.text("ber_form", "")
        try:
            form = BerForm(form_text)
        except ValueError:
            raise ConfigError(
                f"{name}.ber_form: expected one of "
                f"{[f.value for f in BerForm]}, got {form_text!r}"
            ) from None
        class_text = r.text("circuit_class", "")
        try:
            circuit_class = CircuitClass(class_text)
        except ValueError:
            raise ConfigError(
                f"{name}.circuit_class: expected one of "
                f"{[c.value for c in CircuitClass]}, got {class_text!r}"
            ) from None
        try:
            table[mod_name] = ModulationScheme(
                name=mod_name,
                bits_per_symbol=r.integer("bits_per_symbol", 0),
                ber_form=form,
                c_m=r.number("c_m", 0.0),
                k_m=r.number("k_m", 0.0),
                papr=r.number("papr", 0.0),
                circuit_power_class=circuit_class,
            )
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None

    enabled_text = mods_r.text(
        "enabled", "NCFSK, BPSK, OQPSK, 4QAM, 16QAM, 64QAM"
    )
    enabled = [token.strip() for token in enabled_text.split(",") if token.strip()]
    if not enabled:
        raise ConfigError("modulations.enabled: must list at least one scheme")
    modulations = []
    for name in enabled:
        if name not in table:
            raise ConfigError(
                f"modulations.enabled: unknown scheme {name!r}; define a "
                f"[modulation.{name}] section or use one of {sorted(table)}"
            )
        modulations.append(table[name])

    baseline_name = mods_r.text("baseline", "OQPSK")
    if baseline_name not in table:
        raise ConfigError(
            f"modulations.baseline: unknown scheme {baseline_name!r}"
        )

    sweep = reader("sweep")
    d_min = sweep.number("d_min_m", 2.0)
    d_max = sweep.number("d_max_m", 80.0)
    d_step = sweep.number("d_step_m", 1.0)
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

    duty_r = reader("duty")
    try:
        duty = DutyProfile(
            battery_charge_ah=duty_r.number("battery_ah", 2.0),
            battery_voltage=duty_r.number("battery_v", 3.0),
            payload_per_period_bits=duty_r.number("payload_kbit", 5.0) * 1e3,
            period_s=duty_r.number("period_s", 300.0),
        )
    except ValueError as exc:
        raise ConfigError(f"duty: {exc}") from None

    tol = reader("tolerance")
    delta = tol.number("delta", 1e-6)
    if delta <= 0.0:
        raise ConfigError("tolerance.delta: must be > 0")

    return ScenarioConfig(
        link_template=link_template,
        n_h=n_h,
        qos=qos,
        circuit_power=circuit_power,
        pa_models=pa_models,
        modulations=tuple(modulations),
        baseline_name=baseline_name,
        d_min_m=d_min,
        d_max_m=d_max,
        d_step_m=d_step,
        duty=duty,
        delta=delta,
        quad_epsrel=tol.number("quad_epsrel", 1e-10),
        quad_epsabs=tol.number("quad_epsabs", 1e-14),
        mqam_papr_formula=papr_formula,
    )


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
    return parse_config(DEFAULT_CONFIG_TEXT)
