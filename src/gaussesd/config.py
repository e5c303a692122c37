"""Run configuration: a plain key-value text format with nested sections
(INI dialect).  Every physics default is explicit in the dumped form, so a
dumped config re-parses to an equivalent run.

The section dataclasses are the only schema.  Their fields give the keys,
``RunConfig()`` gives the defaults, each field's type picks the converter
that parses its value and :func:`format_value` dumps it, so adding a key is
adding one dataclass field.  Field order is dump order.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .channel import ChannelParams
from .errors import ConfigError, DomainError
from .states import GaussianParams, _require_finite

__all__ = ["TimeGrid", "SweepSpec", "OutputSpec", "OracleSpec", "RunConfig",
           "finite_float", "format_value", "parse_config", "parse_config_file", "dump_config"]

SWEEP_VARIABLES = ("z0", "r0", "nu", "t")
OUTPUT_FORMATS = ("csv", "json")
# Largest Fock cutoff per mode of the oracle (gaussesd.fock): its dense
# two-mode matrices are cutoff^2 x cutoff^2.  Defined here so that a config is
# checked without loading the oracle.
MAX_CUTOFF = 32
# Largest [time] n_points and [sweep] steps.  `evolve` holds about 1 kB per
# time point and takes about 20 us per point (2 s and 120 MB at this bound,
# measured on 2 vCPUs); a t sweep a third of the time and half the memory.
# The bound is checked before any grid is built or converted to float.
MAX_POINTS = 100_000
# Largest number of rows of a `sweep`: steps^2 for nu, steps * n_points for z0
# and r0.  A nu row holds about 850 B and takes 5-9 us, a z0 or r0 row about
# 350 B and 3.5-4.5 us (160 MB and 1.8 s, 65 MB and 0.9 s at this bound,
# measured on 2 vCPUs).  It is twice MAX_POINTS, so that a z0 or r0 sweep of
# two values still takes every n_points.  cmd_sweep checks it before any row.
MAX_SWEEP_ROWS = 200_000


@dataclass(frozen=True)
class TimeGrid:
    t_max: float = 30.0
    n_points: int = 301

    def __post_init__(self):
        if not _require_finite("[time] t_max", self.t_max) > 0:
            raise ConfigError(f"[time] t_max must be > 0, got {self.t_max}")
        if not 2 <= self.n_points <= MAX_POINTS:
            raise ConfigError(f"[time] n_points must be in [2, {MAX_POINTS}], got {self.n_points}")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"[sweep] variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if not _require_finite("[sweep] hi", self.hi) > _require_finite("[sweep] lo", self.lo):
            raise ConfigError(f"[sweep] range must be non-degenerate, got [{self.lo}, {self.hi}]")
        if self.variable in ("nu", "t") and self.lo < 0:
            raise ConfigError(f"[sweep] lo must be >= 0 for variable {self.variable}, got {self.lo}")
        if not 2 <= self.steps <= MAX_POINTS:
            raise ConfigError(f"[sweep] steps must be in [2, {MAX_POINTS}], got {self.steps}")
        if not math.isfinite((self.hi - self.lo) * (self.steps - 1)):
            raise ConfigError(f"[sweep] (hi - lo) * (steps - 1) overflows for [{self.lo}, "
                              f"{self.hi}] in {self.steps} steps")

    def values(self) -> list[float]:
        return [self.lo + (self.hi - self.lo) * i / (self.steps - 1) for i in range(self.steps)]


@dataclass(frozen=True)
class OutputSpec:
    path: str = "-"
    format: str = "csv"

    def __post_init__(self):
        if self.format not in OUTPUT_FORMATS:
            raise ConfigError(f"[output] format must be one of {OUTPUT_FORMATS}, got {self.format!r}")


@dataclass(frozen=True)
class OracleSpec:
    cutoff: int = 20
    times: tuple[float, ...] = ()  # empty means derived from the channel

    def __post_init__(self):
        if not 2 <= self.cutoff <= MAX_CUTOFF:
            raise ConfigError(f"[oracle] cutoff must be in [2, {MAX_CUTOFF}], got {self.cutoff}")
        if any(_require_finite("[oracle] times", t) <= 0 for t in self.times):
            raise ConfigError("[oracle] times must all be > 0")


@dataclass(frozen=True)
class RunConfig:
    state: GaussianParams = field(default_factory=lambda: GaussianParams(0.0, 0.0, 0.0))
    channel: ChannelParams = field(default_factory=lambda: ChannelParams.symmetric(0.1))
    time: TimeGrid = field(default_factory=TimeGrid)
    sweep: SweepSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)
    oracle: OracleSpec = field(default_factory=OracleSpec)


# A section whose RunConfig() default is None has every key required.
_SECTIONS = {"state": GaussianParams, "channel": ChannelParams, "time": TimeGrid,
             "sweep": SweepSpec, "output": OutputSpec, "oracle": OracleSpec}


def finite_float(raw: str) -> float:
    """The converter of every float key (and of ``--t-max``)."""
    return _require_finite("value", raw)


def format_value(x) -> str:
    """The one number format of every output: strings as they are, ints in
    full, floats with 12 significant digits and -0.0 written as 0, tuples
    comma-separated."""
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return ", ".join(map(format_value, x))
    if isinstance(x, int):
        return str(x)
    value = float(x)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".12g")


# Converters keyed on the field annotation, which is a string because every
# module that defines a section uses postponed annotations.
_PARSE = {"float": finite_float, "int": int, "str": str.strip,
          "tuple[float, ...]": lambda raw: tuple(map(finite_float, raw.replace(",", " ").split()))}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse configuration text.  Unknown sections or keys, malformed values
    and violated invariants all raise ConfigError with the offending
    section/field named."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{source}: unknown section [{section}]")
        keys = {f.name for f in fields(_SECTIONS[section])}
        unknown = [option for option in parser.options(section) if option not in keys]
        if unknown:
            raise ConfigError(f"{source}: unknown key {unknown[0]!r} in section [{section}]")

    defaults, sections = RunConfig(), {}
    for section, cls in _SECTIONS.items():
        default = getattr(defaults, section)
        if not parser.has_section(section):
            sections[section] = default
            continue
        missing = [f.name for f in fields(cls) if not parser.has_option(section, f.name)]
        if default is None and missing:
            raise ConfigError(f"{source}: [{section}] missing required key {missing[0]!r}")
        values = {}
        for f in fields(cls):
            if f.name not in missing:
                raw = parser.get(section, f.name)
                try:
                    values[f.name] = _PARSE[f.type](raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {f.name}: cannot parse {raw!r}: {exc}") from exc
        try:
            sections[section] = cls(**values) if default is None else replace(default, **values)
        except DomainError as exc:  # _require_finite, GaussianParams and ChannelParams
            raise ConfigError(f"{source}: {exc}") from exc
    return RunConfig(**sections)


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text, source=path)


def dump_config(cfg: RunConfig) -> str:
    """Render a configuration with every default explicit.  The result
    re-parses to an equivalent RunConfig.  Sections and keys come out in
    _SECTIONS and field order, so reordering a dataclass's fields changes the
    dumped bytes."""
    blocks = []
    for section, cls in _SECTIONS.items():
        spec = getattr(cfg, section)
        if spec is not None:
            blocks.append(f"[{section}]\n" + "".join(
                f"{f.name} = {format_value(getattr(spec, f.name))}\n" for f in fields(cls)))
    return "\n".join(blocks)
