"""Experiment configuration: INI-style sections of key = value pairs.

Each section fills one dataclass and its keys are that dataclass's
fields, so every key has a documented default and an empty file is a
valid config.  Unknown sections or keys are rejected, `[output]` among
them: the output directory comes only from `--out`.  Stiffnesses are
given in N/cm (the convention of the hardware protocol this mirrors): the
controller's `k_extend` is converted to N/m at parse time, and the sweep
grid is kept in N/cm as `stiffnesses_n_per_cm`.  A hop's touchdown speed,
compression stiffness and seed come only from the `[sweep]` grid.

Each key's domain is declared once, on its dataclass field, and checked
whenever the dataclass is built: a NaN, +-inf or out-of-range value, or
one that breaks a check across keys, is a ConfigError (exit 2) naming
`[section] key`.  The truth takes one RK4 step per sensor period, so
`[sim] sensor_rate_hz` sets the step.  Three checks cross sections and run
once the file is read: the controller's neutral lengths must lie in the leg's
workspace, `[estimation] k_obs` must be below `[sim] sensor_rate_hz` (the
momentum observer's discretization is stable only for dt*k_obs < 1), and
no `[sweep] stiffnesses` value may exceed `[controller] k_extend`.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, fields, replace

from .controller import ControllerConfig
from .errors import NONNEGATIVE, POSITIVE, ConfigError, check_domains, domain
from .estimation import EstimationConfig
from .linkage import LinkageParams
from .terrain import TerrainParams
from .simulator import INTRUSION_RATE_HZ, MAX_TRIAL_SAMPLES, NoiseConfig, SimConfig
from .identification import WeightConfig


def linspace(low: float, high: float, n: int) -> list[float]:
    """`np.linspace(low, high, n)` term for term (i * step + low, the last
    one high) in Python floats, so that checking a config does no numpy
    arithmetic, whose first use in a process costs ~0.16 MB of peak RSS."""
    if n == 1:
        return [low]
    step = (high - low) / (n - 1)
    return [i * step + low for i in range(n - 1)] + [high]


def hop_trial_id(speed: float, kc_n_per_cm: float, seed: int) -> str:
    return f"hop_v{speed:.2f}_kc{kc_n_per_cm:.2f}_s{seed}"


@dataclass(frozen=True)
class SweepConfig:
    """Hop and intrusion grids for the full experiment sweep."""

    speeds: tuple = field(default=(0.5, 0.8, 1.0, 1.2), metadata=NONNEGATIVE)          # touchdown speeds [m/s]
    stiffnesses_n_per_cm: tuple = field(default=(2.50, 3.75, 5.00), metadata=POSITIVE)  # compression stiffness grid
    seeds: tuple = field(default=(0, 1, 2, 3, 4), metadata=NONNEGATIVE)
    intrusion_speed_min: float = field(default=0.022, metadata=POSITIVE)
    intrusion_speed_max: float = field(default=1.1, metadata=domain(0.0, 1e3))  # [m/s]
    intrusion_speed_count: int = field(default=50, metadata=domain(1, 1e4, closed=True))
    intrusion_repeats: int = field(default=3, metadata=domain(1, closed=True))
    intrusion_z_max: float = field(default=0.05, metadata=POSITIVE)

    def __post_init__(self):
        check_domains(self)
        if not self.speeds or not self.stiffnesses_n_per_cm or not self.seeds:
            raise ValueError("speeds, stiffnesses and seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        for name, values, trial_id in (
            ("speeds", self.speeds, lambda v: hop_trial_id(v, 0.0, 0)),
            ("stiffnesses_n_per_cm", self.stiffnesses_n_per_cm, lambda kc: hop_trial_id(0.0, kc, 0)),
        ):
            seen = {}
            for value in values:
                key = trial_id(value)
                if key in seen:
                    raise ValueError(
                        f"{name} {seen[key]!r} and {value!r} are equal at the two decimals of the hop trial ids"
                    )
                seen[key] = value
        if not self.intrusion_speed_min < self.intrusion_speed_max:
            raise ValueError("intrusion_speed_min must be below intrusion_speed_max")
        samples = self.intrusion_z_max / self.intrusion_speed_min * INTRUSION_RATE_HZ
        if samples > MAX_TRIAL_SAMPLES:
            raise ValueError(
                f"intrusion_z_max / intrusion_speed_min gives {samples:g} samples at the rig's "
                f"{INTRUSION_RATE_HZ:g} Hz, above {MAX_TRIAL_SAMPLES:,}"
            )
        speeds = self.intrusion_speeds()
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise ValueError(
                "intrusion_speed_min, intrusion_speed_max and intrusion_speed_count give "
                "a speed grid that does not strictly increase"
            )

    def intrusion_speeds(self) -> list[float]:
        return linspace(self.intrusion_speed_min, self.intrusion_speed_max, self.intrusion_speed_count)


@dataclass
class ExperimentConfig:
    linkage: LinkageParams = field(default_factory=LinkageParams)
    terrain: TerrainParams = field(default_factory=TerrainParams)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    weight: WeightConfig = field(default_factory=WeightConfig)
    estimation: EstimationConfig = field(default_factory=EstimationConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _codec(section: str, name: str, default) -> tuple:
    """(parse, render) of a key: N/cm in the file for the controller's
    extension stiffness, else by the type of the field's default."""
    if section == "controller" and name == "k_extend":
        return (lambda text: float(text) * 100.0), (lambda value: str(value / 100.0))
    if isinstance(default, tuple):
        kind = type(default[0])
        return (
            lambda text: tuple(kind(tok) for tok in text.replace(",", " ").split()),
            lambda value: ", ".join(str(v) for v in value),
        )
    return (_parse_bool if isinstance(default, bool) else type(default)), str


# Section -> key -> (field, parse, render), in file order.  Each key is the
# name of a field of its section's dataclass; the sweep's stiffness grid is
# the one key renamed.
_SCHEMA: dict[str, dict[str, tuple]] = {
    section.name: {
        ("stiffnesses" if f.name == "stiffnesses_n_per_cm" else f.name): (
            f.name, *_codec(section.name, f.name, f.default)
        )
        for f in fields(section.default_factory)
    }
    for section in fields(ExperimentConfig)
}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Raises ConfigError naming the file when it cannot be read as UTF-8
    text, and the offending line/section/key on any parse or validation
    problem.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, or not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    config = ExperimentConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema, values = _SCHEMA[section], {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key [{section}] {key}")
            target, parse, _ = schema[key]
            try:
                values[target] = parse(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}")
        config = with_values(config, section, **values)
    try:
        config.controller.validate_workspace(config.linkage)
    except ValueError as exc:
        raise ConfigError(
            f"[controller] {exc}, which [linkage] l_upper, [linkage] l_lower, "
            "[linkage] theta_min and [linkage] theta_max set"
        )
    if not config.estimation.k_obs * config.sim.sensor_period < 1.0:
        raise ConfigError(
            f"[estimation] k_obs = {config.estimation.k_obs!r} is not below [sim] sensor_rate_hz = "
            f"{config.sim.sensor_rate_hz!r}: the momentum observer's discretization is unstable"
        )
    for kc in config.sweep.stiffnesses_n_per_cm:
        if not kc * 100.0 <= config.controller.k_extend:  # as `simulator.run_hop_trial` checks it
            raise ConfigError(
                f"[sweep] stiffnesses = {kc!r} N/cm is above [controller] "
                f"k_extend = {config.controller.k_extend / 100.0!r} N/cm"
            )
    return config


def with_values(config: ExperimentConfig, section: str, **values) -> ExperimentConfig:
    """`config` with fields of one section replaced.  A value it rejects is a
    ConfigError in which each key of the section that the message names
    reads `[section] key`, so a rule across two keys names both."""
    try:
        return replace(config, **{section: replace(getattr(config, section), **values)})
    except ValueError as exc:
        keys = {name: key for key, (target, _, _) in _SCHEMA[section].items() for name in (key, target)}
        pattern = r"\b(" + "|".join(sorted(keys, key=len, reverse=True)) + r")\b"
        message = re.sub(pattern, lambda m: f"[{section}] {keys[m[1]]}", str(exc))
        raise ConfigError(message if message != str(exc) else f"[{section}] {exc}")


def config_to_text(config: ExperimentConfig) -> str:
    """Render a config back to the file format (SI values; stiffness in N/cm)."""
    lines: list[str] = []
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (target, _, render) in schema.items():
            lines.append(f"{key} = {render(getattr(getattr(config, section), target))}")
        lines.append("")
    return "\n".join(lines)
