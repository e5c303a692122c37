"""Passes, metrics and the host record of the benchmark (see run.py).

Imported by run.py after it has capped the BLAS threads and put the
checkout's ``src`` first on the path.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads
from reference import HostSpeed
from tracing import NullTracer, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MINI_PASS_CAP_S = 60.0


def host_record(cores: int) -> dict:
    """Host and code identity written next to every result."""
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    sources = [f.read_bytes() for f in sorted((SRC / "gaussesd").glob("*.py"))]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": cores,
        "sweep_workers": cores,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_head(),
        "src_gaussesd_sha256": workloads.sha256(b"".join(sources)),
        "src_gaussesd_lines": sum(src.count(b"\n") for src in sources),
    }


def git_head() -> str | None:
    """Commit of the checkout, read from .git without running git; None where
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds(env, wl) -> float:
    """Median wall time of fresh interpreters importing gaussesd and making
    the workload's first call."""
    code = "import gaussesd\n" + wl.setup_code
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(env.python("-c", code), cwd=env.root, env=env.child_env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(wl, rng, seconds, tracer, mini=False):
    """Run ops back to back until ``seconds`` have passed (at a batch
    boundary), or, for a mini pass, until the workload has its sample.
    Failure classes of failed ops go to stderr."""
    traced = isinstance(tracer, Tracer)
    p = workloads.Pass(tracer)
    p.speed = HostSpeed()
    start = time.perf_counter()
    for batch in wl.batches(rng, mini):
        for x in batch:
            op = f"{wl.name}:{p.attempted}"
            c0 = workloads.cpu_seconds()
            t0 = time.perf_counter()
            try:
                with tracer.span(f"{wl.name}.op", op):
                    out = wl.run(x, tracer, op)
                err = None
            except Exception as exc:  # a raised exception is a failed op
                out, err = None, exc
            dt = time.perf_counter() - t0
            dc = workloads.cpu_seconds() - c0
            ok = err is None and wl.check(x, out, p)
            if err is not None:
                p.counts[f"error.{type(err).__name__}"] += 1
                print(f"{wl.name}: op {op} raised {err!r}", file=sys.stderr)
            p.attempted += 1
            p.busy_s += dt
            if ok:
                p.op_s.append(dt)
                p.cpu_s.append(dc)
            else:
                p.failed += 1
            if traced:
                wl.layer_calls(x, out, dt, p, op)
            p.speed.after_op(dt)
        elapsed = time.perf_counter() - start
        if mini:
            if wl.enough(p) or elapsed > MINI_PASS_CAP_S:
                break
        elif elapsed >= seconds:
            break
    if p.failed:
        print(f"{wl.name}: {p.failed} of {p.attempted} ops failed: {dict(p.counts)}",
              file=sys.stderr)
    return p


def ops_per_s(p) -> float:
    return p.correct / p.busy_s


def cpu_s_per_op(p) -> float:
    return sum(p.cpu_s) / max(p.correct, 1)


def end_to_end(wl, p, setup_s) -> dict:
    who = resource.RUSAGE_CHILDREN if wl.name == "recipes" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_ref_s": (ops_per_s(p) / p.speed.wall_scale(), "1/ref_s"),
        "cpu_ref_s_per_op": (cpu_s_per_op(p) * p.speed.cpu_scale(), "ref_s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(base, own, passes, tracer) -> dict:
    d = tracer.durations()
    counts = sum((q.counts for q in passes), Counter())
    values = defaultdict(list)
    for q in passes:
        for key, vals in q.values.items():
            values[key].extend(vals)

    def med(key, scale=1.0):
        return statistics.median(d[key]) * scale

    cli_s = sum(sum(v) for k, v in d.items() if k.startswith("cli."))
    child_s = sum(sum(v) for k, v in d.items() if k.startswith("cli_child."))
    grid_cells = len(workloads.GRID_Z) * workloads.GRID_NT
    roots_ops = d["roots.op"]
    t_num = {k: values[f"t_esd_numeric.{k}"] for k in workloads.Roots.KINDS}
    return {
        "import.gaussesd_s": (statistics.median(values["import.gaussesd"]), "s"),
        "import.gaussesd.fock_s": (statistics.median(values["import.gaussesd.fock"]), "s"),
        "import.numpy_s": (statistics.median(values["import.numpy"]), "s"),
        "cli.evolve_s": (statistics.fmean(d["cli.evolve"]), "s"),
        "cli.sweep_s": (statistics.fmean(d["cli.sweep"]), "s"),
        "cli.esd_s": (statistics.fmean(d["cli.esd"]), "s"),
        "cli.self_s": ((cli_s - child_s) / counts["recipes.invocations"], "s"),
        "config.parse_config_file_us": (med("config.parse_config_file", 1e6), "us"),
        "channel.sample_trajectory_ms": (med("cli_child.evolve", 1e3), "ms"),
        "recipes.invocations": (counts["recipes.invocations"], "count"),
        "channel.evolve_us": (med("channel.evolve", 1e6), "us"),
        "states.simon_criterion_us": (med("states.simon_criterion", 1e6), "us"),
        "states.invariants_us": (med("states.invariants", 1e6), "us"),
        "states.cm_from_params_us": (med("states.cm_from_params", 1e6), "us"),
        "esd.boundary_sweep_s": (med("grid.op"), "s"),
        "esd.boundary_cells_per_s": (grid_cells / med("grid.op"), "1/s"),
        "grid.cells": (len(d["grid.op"]) * grid_cells, "count"),
        "esd.t_esd_numeric_ms.finite": (statistics.median(t_num["FiniteTime"]) * 1e3, "ms"),
        "esd.t_esd_numeric_ms.asymptotic": (statistics.median(t_num["Asymptotic"]) * 1e3, "ms"),
        "esd.t_esd_numeric_ms.separable":
            (statistics.median(t_num["InitiallySeparable"]) * 1e3, "ms"),
        "esd.t_esd_analytic_us": (med("esd.t_esd_analytic_symmetric", 1e6), "us"),
        "esd.overflow_errors": (counts["esd.overflow_errors"], "count"),
        "esd.wrong_kind": (counts["esd.wrong_kind"], "count"),
        "esd.wrong_t": (counts["esd.wrong_t"], "count"),
        "roots.full_domain_fail_ratio": (values["roots.full_domain_fail_ratio"][0], "ratio"),
        "roots.queries": (len(roots_ops), "count"),
        "roots.op_p90_s": (percentile(roots_ops, 90), "s"),
        "fock.build_initial_state_s": (med("fock.build_initial_state"), "s"),
        "fock.integrate_s.gt0.5": (med("fock.integrate.gt0.5"), "s"),
        "fock.integrate_s.gt1": (med("fock.integrate.gt1"), "s"),
        "fock.integrate_s.gt2": (med("fock.integrate.gt2"), "s"),
        "fock.moments_ms": (med("fock.moments", 1e3), "ms"),
        "fock.max_moment_dev": (max(values["fock.max_moment_dev"]), "abs"),
        "fock.tail_population_max": (max(values["fock.tail_population"]), "abs"),
        "fock.cutoff_insufficient": (counts["fock.cutoff_insufficient"], "count"),
        "fock.state_bytes": (16 * workloads.ORACLE_CUTOFF ** 4, "B"),
        "oracle.full_domain_fail_ratio": (values["oracle.full_domain_fail_ratio"][0], "ratio"),
        "oracle.segments": (counts["oracle.segments"], "count"),
        "ops_per_s": (ops_per_s(base), "1/s"),
        "cpu_s_per_op": (cpu_s_per_op(base), "s"),
        "host.ref_unit_ms": (base.speed.unit_s() * 1e3, "ms"),
        "op_p50_s": (statistics.median(base.op_s), "s"),
        "fail_ratio": ((base.failed + own.failed) / (base.attempted + own.attempted), "ratio"),
        "trace.overhead_ratio": (statistics.median(own.op_s) / own.speed.unit_s()
                                 / (statistics.median(base.op_s) / base.speed.unit_s()),
                                 "ratio"),
    }


def measure(env, name, seed, seconds, trace):
    """One workload: returns (correct, attempted, failed, metrics)."""
    index = list(workloads.WORKLOADS).index(name)
    wl = workloads.WORKLOADS[name](env)
    if not trace:
        setup_s = setup_seconds(env, wl)
        wl.warmup()
        p = run_pass(wl, np.random.default_rng([seed, index]), seconds,
                     NullTracer())
        return p.failed == 0, p.attempted, p.failed, end_to_end(wl, p, setup_s)

    wl.warmup()
    base = run_pass(wl, np.random.default_rng([seed, index]), seconds,
                    NullTracer())
    tracer = Tracer()
    own = run_pass(wl, np.random.default_rng([seed, index]), seconds, tracer)
    passes = [own]
    for other_index, other in enumerate(workloads.WORKLOADS):
        if other != name:
            ow = workloads.WORKLOADS[other](env)
            ow.warmup()
            passes.append(run_pass(ow, np.random.default_rng([seed, other_index]),
                                   0, tracer, mini=True))
    probe = workloads.Pass(tracer)
    probe_rng = np.random.default_rng([seed, len(workloads.WORKLOADS)])
    workloads.Roots(env).probe_defects(probe_rng, probe)
    workloads.Oracle(env).probe_defects(probe_rng, probe)
    passes.append(probe)

    out_dir = env.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
    attempted = base.attempted + own.attempted
    failed = base.failed + own.failed
    return failed == 0, attempted, failed, per_layer(base, own, passes, tracer)
