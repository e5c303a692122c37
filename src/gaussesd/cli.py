"""Command-line front end.

Subcommands: evolve, esd, sweep, oracle-check, dump-config.
Exit codes: 0 ok, 4 for an oracle deviation >= 1e-3, else the exit_code of the
errors.GaussEsdError raised; any other exception is a fault: traceback, exit 1.
All numeric output is rendered by config.format_value; identical
configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields, replace

from . import fock
from .channel import ChannelParams, _evolve_grid, _uniform_times, evolve, sample_trajectory
from .config import (OutputSpec, RunConfig, dump_config, finite_float, format_value,
                     parse_config_file)
from .errors import ConfigError, GaussEsdError
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


def cmd_esd(args) -> int:
    cfg = _load_config(args)
    p, ch = cfg.state, cfg.channel
    numeric = t_esd_numeric(p, ch, cfg.time.t_max)
    lines = [("kind", numeric.kind.value)]
    if numeric.t_esd is not None:
        lines.append(("t_esd_numeric", numeric.t_esd))

    # the symmetric pure zero-temperature family of t_esd_analytic_symmetric
    if p.r > 0 and (p, ch) == (GaussianParams.symmetric(p.z1, p.r), ChannelParams.symmetric(ch.gamma1)):
        analytic = t_esd_analytic_symmetric(p.z1, p.r, ch.gamma1)
        lines.append(("kind_analytic", analytic.kind.value))
        if analytic.t_esd is not None:
            lines.append(("t_esd_analytic", analytic.t_esd))
        if numeric.t_esd is not None and analytic.t_esd is not None:
            rel = abs(numeric.t_esd - analytic.t_esd) / analytic.t_esd
            lines.append(("relative_difference", rel))
    else:
        lines.append(("kind_analytic", "not-applicable"))

    if p.z1 == 0.0 and p.z2 == 0.0:
        lines.append(("initial_entanglement_threshold", initial_entanglement_threshold(p.nu1, p.nu2)))

    sys.stdout.write("".join(f"{name}: {format_value(value)}\n" for name, value in lines))
    if cfg.output.path != "-":
        _write_text(cfg.output.path, _render_table(["field", "value"], lines, cfg.output.format))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a [sweep] section in the config")
    sweep = cfg.sweep
    values = sweep.values()

    # (z1, z2, r, nu1, nu2) rows for _evolve_grid; SweepSpec has checked the swept values
    p = cfg.state
    if sweep.variable == "nu":
        header = ["nu1", "nu2", "S0", "sign"]
        params = [(p.z1, p.z2, p.r, nu1, nu2) for nu1 in values for nu2 in values]
        keys, times = [[v for v in values for _ in values], values * len(values)], [0.0]
    elif sweep.variable == "t":
        header = ["t", "S", "sign"]
        params, keys, times = [(p.z1, p.z2, p.r, p.nu1, p.nu2)], [values], values
    else:
        header = [sweep.variable, "t", "S", "sign"]
        times = _uniform_times(cfg.time.t_max, cfg.time.n_points)
        if sweep.variable == "z0":
            params = [(v, v, p.r, p.nu1, p.nu2) for v in values]
        else:
            params = [(p.z1, p.z2, v, p.nu1, p.nu2) for v in values]
        keys = [[v for v in values for _ in times], times * len(values)]
    s = _evolve_grid(params, cfg.channel, times)[1].ravel()
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
    for idx, (p, ch) in enumerate(cases):
        gamma_max = max(ch.gamma1, ch.gamma2)
        times = sorted(cfg.oracle.times or [gt / gamma_max for gt in ORACLE_GAMMA_T])
        inside = all(fock.in_certified_domain(p, ch, t, cutoff) for t in times)
        tail_tol = fock.TAIL_TOL
        if not inside:
            advisory = True
            tail_tol = ADVISORY_TAIL_TOL
            sys.stderr.write("warning: parameters outside certified domain; output is advisory\n")
        for t, got, _ in fock.chain(p, ch, times, cutoff, tail_tol):
            devs = [abs(g - w) for g, w in zip(astuple(got), astuple(evolve(p, ch, t)))]
            rows.append([idx, t, *devs, max(devs)])
    worst = max(row[-1] for row in rows)

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
    except GaussEsdError as exc:
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
