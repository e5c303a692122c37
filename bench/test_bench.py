"""Tests of the benchmark itself: a tiny version of each workload against the
public API, the output checks, span self time and the result format.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gaussesd  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer, percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CORES = len(os.sched_getaffinity(0))


@pytest.fixture
def env():
    child_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return workloads.Env(root=ROOT, cores=CORES, child_env=child_env)


def new_pass():
    return workloads.Pass(NullTracer())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
    d = {name: sum(v) for name, v in tr.durations().items()}
    st = tr.self_times()
    assert st["outer"] == pytest.approx(d["outer"] - d["inner"])
    assert st["inner"] == pytest.approx(d["inner"] - d["leaf"])
    assert [s[3] for s in tr.spans] == [-1, 0, 1]


def test_percentile_nearest_rank():
    assert percentile(range(1, 101), 90) == 90
    assert percentile([5.0], 90) == 5.0


def test_host_speed_runs_its_share_of_op_time_and_scales_by_it():
    speed = reference.HostSpeed()
    speed.after_op(0.0)
    assert speed.units == 0
    speed.after_op(1.0)
    assert speed.wall_s >= reference.SHARE
    assert speed.wall_s < reference.SHARE + 3 * speed.unit_s()
    assert speed.wall_scale() == pytest.approx(reference.REF_UNIT_S * speed.units / speed.wall_s)
    assert speed.cpu_scale() > 0


def test_same_seed_same_inputs(env):
    a = workloads.Roots(env).draw(np.random.default_rng([7, 2]))
    b = workloads.Roots(env).draw(np.random.default_rng([7, 2]))
    assert a["p"] == b["p"] and a["ch"] == b["ch"] and a["t_max"] == b["t_max"]


def test_recipe_invocation_matches_digest_and_check_catches_changes(env):
    wl = workloads.Recipes(env)
    proc = wl.run("fig4", NullTracer(), 0)
    assert wl.check("fig4", proc, new_pass())
    proc.stdout = proc.stdout.replace(b"1", b"2", 1)
    p = new_pass()
    assert not wl.check("fig4", proc, p)
    assert p.counts["recipes.digest_mismatch"] == 1


@pytest.mark.parametrize("zero_temperature", [True, False])
def test_grid_op_passes_and_wrong_signs_fail(env, zero_temperature):
    wl = workloads.Grid(env)
    rng = np.random.default_rng(3)
    while True:
        x = wl.draw(rng)
        if (x["ch"].nb1 == 0.0) == zero_temperature:
            break
    x["t_grid"] = x["t_grid"][:12]  # tiny grid
    x["cells"] = [(i, j % 12) for i, j in x["cells"]]
    signs = wl.run(x, NullTracer(), 0)
    assert wl.check(x, signs, new_pass())
    # flip a judged cell: the zero-temperature rows are all judged, the
    # thermal grids through their sampled cells
    i, j = (0, 0) if zero_temperature else next(
        (i, j) for i, j in x["cells"] if signs[i, j] != 0)
    bad = signs.copy()
    bad[i, j] = -bad[i, j]
    assert not wl.check(x, bad, new_pass())


def test_roots_ops_pass_and_a_wrong_root_fails(env):
    wl = workloads.Roots(env)
    batches = wl.batches(np.random.default_rng(5), mini=False)
    kinds = set()
    for _ in range(40):
        (x,) = next(batches)
        res = wl.run(x, NullTracer(), 0)
        kinds.add(res.kind.value)
        assert wl.check(x, res, new_pass()), x
    assert "FiniteTime" in kinds
    finite = next(x for x in (next(batches)[0] for _ in range(200))
                  if x["ref"][0] == "FiniteTime")
    res = wl.run(finite, NullTracer(), 0)
    wrong = gaussesd.EsdResult(res.kind, res.method, res.t_esd * 1.001)
    p = new_pass()
    assert not wl.check(finite, wrong, p)
    assert p.counts["esd.wrong_t"] == 1


def test_roots_defect_probe_sees_the_overflow():
    x = {
        "symmetric": True,
        "p": gaussesd.GaussianParams.symmetric(0.0, 1.0),
        "ch": gaussesd.ChannelParams.symmetric(0.1),
        "t_max": 5000.0,
    }
    x["ref"] = workloads.reference_root(x)
    assert x["ref"] == ("Asymptotic", None)
    assert workloads.defect_prone(x)
    with pytest.raises(OverflowError):
        gaussesd.t_esd_numeric(x["p"], x["ch"], x["t_max"])


def test_oracle_check_uses_the_deviation_bound(env):
    wl = workloads.Oracle(env)
    x = wl.draw(np.random.default_rng(1))
    g = max(x["ch"].gamma1, x["ch"].gamma2)
    exact = [(gt / g, gaussesd.evolve(x["p"], x["ch"], gt / g), 0.0)
             for gt in workloads.ORACLE_GAMMA_T]
    assert wl.check(x, exact, new_pass())
    t, cm, tail = exact[-1]
    off = gaussesd.CovarianceMatrix(cm.n1 + 2e-3, cm.n2, cm.m1, cm.m2, cm.ms, cm.mc)
    assert not wl.check(x, exact[:-1] + [(t, off, tail)], new_pass())


def test_oracle_draws_stay_out_of_the_tail_gate_corner(env):
    wl = workloads.Oracle(env)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = wl.draw(rng)
        assert x["p"].z1 / 0.4 + x["p"].r / 0.6 <= wl.CORNER
        assert x["ch"].nb1 + x["ch"].nb2 <= 0.5
    corner = gaussesd.GaussianParams.symmetric(0.4, 0.6)
    with pytest.raises(gaussesd.CutoffInsufficient):
        gaussesd.build_initial_state(corner, workloads.ORACLE_CUTOFF)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_untraced_result_has_the_documented_shape():
    proc = run_bench("--workload", "grid", "--seed", "0", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_result_reports_every_layer_metric():
    proc = run_bench("--workload", "roots", "--seed", "0", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc.stdout)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert (ROOT / ".bench_out" / "trace-roots-seed0.json").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
