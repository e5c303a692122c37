"""Run configuration: a plain key-value text format with nested sections
(INI dialect).  Every physics default is explicit in the dumped form, so a
dumped config re-parses to an equivalent run.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from .channel import ChannelParams
from .errors import ConfigError
from .states import GaussianParams

__all__ = ["TimeGrid", "SweepSpec", "OutputSpec", "OracleSpec", "RunConfig",
           "parse_config", "parse_config_file", "dump_config"]

SWEEP_VARIABLES = ("z0", "r0", "nu", "t")
OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class TimeGrid:
    t_max: float = 30.0
    n_points: int = 301

    def __post_init__(self):
        if not self.t_max > 0:
            raise ConfigError(f"[time] t_max must be > 0, got {self.t_max}")
        if self.n_points < 2:
            raise ConfigError(f"[time] n_points must be >= 2, got {self.n_points}")


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
        if not self.hi > self.lo:
            raise ConfigError(f"[sweep] range must be non-degenerate, got [{self.lo}, {self.hi}]")
        if self.steps < 2:
            raise ConfigError(f"[sweep] steps must be >= 2, got {self.steps}")

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
    dt: float = 0.0  # ignored: the propagator is exact; kept so configs load
    times: tuple[float, ...] = ()  # empty means derived from the channel

    def __post_init__(self):
        if self.cutoff < 2:
            raise ConfigError(f"[oracle] cutoff must be >= 2, got {self.cutoff}")
        if self.dt < 0:
            raise ConfigError(f"[oracle] dt must be >= 0, got {self.dt}")
        if any(t <= 0 for t in self.times):
            raise ConfigError("[oracle] times must all be > 0")


@dataclass(frozen=True)
class RunConfig:
    state: GaussianParams = field(default_factory=lambda: GaussianParams(0.0, 0.0, 0.0))
    channel: ChannelParams = field(default_factory=lambda: ChannelParams.symmetric(0.1))
    time: TimeGrid = field(default_factory=TimeGrid)
    sweep: SweepSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)
    oracle: OracleSpec = field(default_factory=OracleSpec)


_SCHEMA = {
    "state": ("z1", "z2", "r", "nu1", "nu2"),
    "channel": ("gamma1", "gamma2", "nb1", "nb2"),
    "time": ("t_max", "n_points"),
    "sweep": ("variable", "lo", "hi", "steps"),
    "output": ("path", "format"),
    "oracle": ("cutoff", "dt", "times"),
}


def _get(parser, section, option, conv, default):
    if not parser.has_option(section, option):
        return default
    raw = parser.get(section, option)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {option}: cannot parse {raw!r}: {exc}") from exc


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
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for option in parser.options(section):
            if option not in _SCHEMA[section]:
                raise ConfigError(f"{source}: unknown key {option!r} in section [{section}]")

    try:
        state = GaussianParams(
            z1=_get(parser, "state", "z1", float, 0.0),
            z2=_get(parser, "state", "z2", float, 0.0),
            r=_get(parser, "state", "r", float, 0.0),
            nu1=_get(parser, "state", "nu1", float, 0.0),
            nu2=_get(parser, "state", "nu2", float, 0.0),
        )
        channel = ChannelParams(
            gamma1=_get(parser, "channel", "gamma1", float, 0.1),
            gamma2=_get(parser, "channel", "gamma2", float, 0.1),
            nb1=_get(parser, "channel", "nb1", float, 0.0),
            nb2=_get(parser, "channel", "nb2", float, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    time = TimeGrid(
        t_max=_get(parser, "time", "t_max", float, 30.0),
        n_points=_get(parser, "time", "n_points", int, 301),
    )

    sweep = None
    if parser.has_section("sweep"):
        for key in ("variable", "lo", "hi", "steps"):
            if not parser.has_option("sweep", key):
                raise ConfigError(f"{source}: [sweep] missing required key {key!r}")
        sweep = SweepSpec(
            variable=parser.get("sweep", "variable").strip(),
            lo=_get(parser, "sweep", "lo", float, None),
            hi=_get(parser, "sweep", "hi", float, None),
            steps=_get(parser, "sweep", "steps", int, None),
        )

    output = OutputSpec(
        path=_get(parser, "output", "path", str, "-"),
        format=_get(parser, "output", "format", lambda s: s.strip(), "csv"),
    )

    def _times(raw: str) -> tuple[float, ...]:
        items = [s for s in raw.replace(",", " ").split() if s]
        return tuple(float(s) for s in items)

    oracle = OracleSpec(
        cutoff=_get(parser, "oracle", "cutoff", int, 20),
        dt=_get(parser, "oracle", "dt", float, 0.0),
        times=_get(parser, "oracle", "times", _times, ()),
    )
    return RunConfig(state=state, channel=channel, time=time, sweep=sweep,
                     output=output, oracle=oracle)


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text, source=path)


def _fmt_num(x: float) -> str:
    return format(float(x), ".12g")


def dump_config(cfg: RunConfig) -> str:
    """Render a configuration with every default explicit.  The result
    re-parses to an equivalent RunConfig."""
    out = io.StringIO()
    out.write("[state]\n")
    for key in ("z1", "z2", "r", "nu1", "nu2"):
        out.write(f"{key} = {_fmt_num(getattr(cfg.state, key))}\n")
    out.write("\n[channel]\n")
    for key in ("gamma1", "gamma2", "nb1", "nb2"):
        out.write(f"{key} = {_fmt_num(getattr(cfg.channel, key))}\n")
    out.write("\n[time]\n")
    out.write(f"t_max = {_fmt_num(cfg.time.t_max)}\n")
    out.write(f"n_points = {cfg.time.n_points}\n")
    if cfg.sweep is not None:
        out.write("\n[sweep]\n")
        out.write(f"variable = {cfg.sweep.variable}\n")
        out.write(f"lo = {_fmt_num(cfg.sweep.lo)}\n")
        out.write(f"hi = {_fmt_num(cfg.sweep.hi)}\n")
        out.write(f"steps = {cfg.sweep.steps}\n")
    out.write("\n[output]\n")
    out.write(f"path = {cfg.output.path}\n")
    out.write(f"format = {cfg.output.format}\n")
    out.write("\n[oracle]\n")
    out.write(f"cutoff = {cfg.oracle.cutoff}\n")
    out.write(f"dt = {_fmt_num(cfg.oracle.dt)}\n")
    out.write(f"times = {', '.join(_fmt_num(t) for t in cfg.oracle.times)}\n")
    return out.getvalue()
