"""Command-line front end.

Subcommands: evolve, esd, sweep, oracle-check, dump-config.
Exit codes: 0 ok, 2 config error, 3 physics-domain error, 4 oracle failure:
any oracle gate (deviation >= 1e-3 or an errors.OracleError).
All numeric output is rendered by config.format_value; identical
configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields, replace

from . import fock
from .channel import ChannelParams, evolve, sample_trajectory, simon_grid
from .config import (OutputSpec, RunConfig, dump_config, finite_float, format_value,
                     parse_config_file)
from .errors import ConfigError, GaussEsdError, OracleError
from .esd import initial_entanglement_threshold, simon_sign, t_esd_analytic_symmetric, t_esd_numeric
from .states import CovarianceMatrix, GaussianParams


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render_table(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(format_value(cell) for cell in row) for row in rows)
        return "\n".join(lines) + "\n"
    body = ",\n".join(
        "    [" + ", ".join(json.dumps(c) if isinstance(c, str) else format_value(c) for c in row)
        + "]" for row in rows
    )
    cols = ", ".join(f'"{name}"' for name in header)
    return "{\n  \"columns\": [" + cols + "],\n  \"rows\": [\n" + body + "\n  ]\n}\n"


def _load_config(args) -> RunConfig:
    cfg = parse_config_file(args.config) if args.config else RunConfig()
    if args.t_max is not None:
        cfg = replace(cfg, time=replace(cfg.time, t_max=args.t_max))
    output = OutputSpec(path=args.out or cfg.output.path, format=args.format or cfg.output.format)
    return replace(cfg, output=output)


def cmd_evolve(args) -> int:
    cfg = _load_config(args)
    traj = sample_trajectory(cfg.state, cfg.channel, cfg.time.t_max, cfg.time.n_points)
    header = ["t", "n1", "n2", "m1", "m2", "ms", "mc", "S"]
    rows = [
        [t, cm.n1, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc, s]
        for t, cm, s in zip(traj.times, traj.states, traj.simon)
    ]
    _write_text(cfg.output.path, _render_table(header, rows, cfg.output.format))
    return 0


def _analytic_applicable(cfg: RunConfig) -> bool:
    p, ch = cfg.state, cfg.channel
    return (
        p.z1 == p.z2
        and p.nu1 == 0.0
        and p.nu2 == 0.0
        and p.r > 0.0
        and ch.nb1 == 0.0
        and ch.nb2 == 0.0
        and ch.gamma1 == ch.gamma2
    )


def cmd_esd(args) -> int:
    cfg = _load_config(args)
    numeric = t_esd_numeric(cfg.state, cfg.channel, cfg.time.t_max)
    fields = [("kind", numeric.kind.value)]
    if numeric.t_esd is not None:
        fields.append(("t_esd_numeric", numeric.t_esd))

    analytic = None
    if _analytic_applicable(cfg):
        analytic = t_esd_analytic_symmetric(cfg.state.z1, cfg.state.r, cfg.channel.gamma1)
        fields.append(("kind_analytic", analytic.kind.value))
        if analytic.t_esd is not None:
            fields.append(("t_esd_analytic", analytic.t_esd))
        if numeric.t_esd is not None and analytic.t_esd is not None:
            rel = abs(numeric.t_esd - analytic.t_esd) / analytic.t_esd
            fields.append(("relative_difference", rel))
    else:
        fields.append(("kind_analytic", "not-applicable"))

    if cfg.state.z1 == 0.0 and cfg.state.z2 == 0.0:
        r_min = initial_entanglement_threshold(cfg.state.nu1, cfg.state.nu2)
        fields.append(("initial_entanglement_threshold", r_min))

    sys.stdout.write("".join(f"{name}: {format_value(value)}\n" for name, value in fields))
    if cfg.output.path != "-":
        _write_text(cfg.output.path, _render_table(["field", "value"], fields, cfg.output.format))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a [sweep] section in the config")
    sweep = cfg.sweep
    values = sweep.values()
    times = [cfg.time.t_max * i / (cfg.time.n_points - 1) for i in range(cfg.time.n_points)]

    if sweep.variable == "nu":
        header = ["nu1", "nu2", "S0", "sign"]
        states = [replace(cfg.state, nu1=nu1, nu2=nu2) for nu1 in values for nu2 in values]
        keys, times = [[v for v in values for _ in values], values * len(values)], [0.0]
    elif sweep.variable == "t":
        header = ["t", "S", "sign"]
        states, keys, times = [cfg.state], [values], values
    else:
        header = [sweep.variable, "t", "S", "sign"]
        if sweep.variable == "z0":
            states = [replace(cfg.state, z1=v, z2=v) for v in values]
        else:
            states = [replace(cfg.state, r=v) for v in values]
        keys = [[v for v in values for _ in times], times * len(values)]
    s = simon_grid(states, cfg.channel, times).ravel()
    rows = list(zip(*keys, s.tolist(), simon_sign(s).tolist()))

    _write_text(cfg.output.path, _render_table(header, rows, cfg.output.format))
    return 0


# Default verification suite for oracle-check: inside the certified domain
# and passing the strict tail gate at cutoff 20.
DEFAULT_ORACLE_SUITE = (
    (0.0, 0.3, 0.0),
    (0.2, 0.3, 0.25),
    (0.2, 0.5, 0.5),
)
ORACLE_GAMMA = 0.25
ORACLE_GAMMA_T = (0.5, 1.0, 2.0)
ADVISORY_TAIL_TOL = 1e-3


def _oracle_single(p, ch, times, cutoff, tail_tol):
    """Integrate one configuration, returning rows (t, per-moment deviation,
    max deviation) against the closed-form evolution."""
    rows = []
    rho = fock.build_initial_state(p, cutoff, tail_tol=tail_tol)
    t_prev = 0.0
    worst = 0.0
    for t in times:
        rho = fock.integrate(rho, ch, t - t_prev, tail_tol=tail_tol)
        t_prev = t
        got = fock.moments(rho)
        want = evolve(p, ch, t)
        devs = [abs(g - w) for g, w in zip(astuple(got), astuple(want))]
        worst = max(worst, max(devs))
        rows.append([t] + devs + [max(devs)])
    return rows, worst


def cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    cutoff = cfg.oracle.cutoff

    if args.config:
        cases = [(cfg.state, cfg.channel)]
    else:
        cases = [(GaussianParams.symmetric(z, r), ChannelParams.symmetric(ORACLE_GAMMA, nb))
                 for z, r, nb in DEFAULT_ORACLE_SUITE]

    header = ["config", "t"] + [f"dev_{f.name}" for f in fields(CovarianceMatrix)] + ["max_dev"]
    rows = []
    advisory = False
    worst = 0.0
    for idx, (p, ch) in enumerate(cases):
        gamma_max = max(ch.gamma1, ch.gamma2)
        times = sorted(cfg.oracle.times or [gt / gamma_max for gt in ORACLE_GAMMA_T])
        inside = all(fock.in_certified_domain(p, ch, t, cutoff) for t in times)
        tail_tol = fock.TAIL_TOL
        if not inside:
            advisory = True
            tail_tol = ADVISORY_TAIL_TOL
            sys.stderr.write("warning: parameters outside certified domain; output is advisory\n")
        chunk, chunk_worst = _oracle_single(p, ch, times, cutoff, tail_tol)
        worst = max(worst, chunk_worst)
        for row in chunk:
            rows.append([idx] + row)

    table = _render_table(header, rows, cfg.output.format)
    sys.stdout.write(table)
    sys.stdout.write(f"max_deviation: {format_value(worst)}\n")
    if cfg.output.path != "-":
        _write_text(cfg.output.path, table)

    if advisory:
        sys.stdout.write("status: advisory (outside certified domain)\n")
        return 0
    if worst >= 1e-3:
        sys.stdout.write("status: FAIL (deviation >= 1e-3)\n")
        return 4
    sys.stdout.write("status: pass\n")
    return 0


def cmd_dump_config(args) -> int:
    cfg = _load_config(args)
    _write_text(cfg.output.path, dump_config(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussesd",
        description="Two-mode Gaussian states in thermal channels: evolution, "
        "separability, entanglement sudden death.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
        ("evolve", cmd_evolve, "write the evolved moments and Simon value on a time grid"),
        ("esd", cmd_esd, "classify the entanglement decay and report separation times"),
        ("sweep", cmd_sweep, "emit grid data for parameter sweeps"),
        ("oracle-check", cmd_oracle_check, "compare closed forms against the Fock propagator"),
        ("dump-config", cmd_dump_config, "print the fully explicit configuration"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH", help="configuration file")
        p.add_argument("--out", metavar="PATH", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--workers", type=int, default=0,
                       help="accepted and ignored; sweeps run in one process")
        p.add_argument("--t-max", type=finite_float, dest="t_max", help="override [time] t_max")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OracleError as exc:
        sys.stderr.write(f"oracle error: {exc}\n")
        return 4
    except (GaussEsdError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
