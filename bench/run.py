"""gaussesd benchmark.

    python3 bench/run.py --workload {recipes,grid,roots,oracle,all} \
        --seed N --seconds S --trace {0,1}

Runs one workload (or all four, one after the other) from the root of a
checkout, against the package in ``src/`` of that checkout.  Inputs come from
the seed only.  One client runs ops back to back (a closed loop) for at least
``--seconds``; every op's output is checked.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  setup_s           median wall time of 5 fresh interpreters running
                    ``import gaussesd`` and the workload's first call
  ops_per_ref_s     correct ops per reference second of op time
  cpu_ref_s_per_op  user+sys CPU of this process and its children per
                    correct op, in reference seconds
  peak_rss_mb       peak resident memory of this process (of the largest
                    child on recipes, where each op is a child process)
A reference second is a second of a host running at a fixed reference speed:
the pass times a fixed kernel between its ops and scales op time by it, which
cancels most of the shared host's drift in speed (see reference.py).  Both
rates are means over the run.  The unscaled ops_per_s and cpu_s_per_op, the
kernel's time and the median op time are per-layer metrics.

``--trace 1`` runs the workload a second time with spans around the
benchmark's calls into each module, runs a small traced pass of every other
workload and the full-domain defect probes, and reports the per-layer metrics
of BENCHMARK.json.  Spans are written to ``.bench_out/`` when the run ends.
Before the result line it prints one line per metric and a host record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recipes", "grid", "roots", "oracle", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussesd" / "__init__.py").is_file() or not (ROOT / "recipes").is_dir():
        print(f"bench: no gaussesd sources and recipes under {ROOT}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)  # before numpy is imported, here and in children
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    import harness  # needs the thread caps and the path above

    module = Path(harness.workloads.gaussesd.__file__).resolve()
    if not module.is_relative_to(SRC):
        print(f"bench: gaussesd imported from {module}, not {SRC}", file=sys.stderr)
        return 2

    env = harness.workloads.Env(root=ROOT, cores=cores, child_env=dict(os.environ))
    names = list(harness.workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: harness.measure(env, n, args.seed, args.seconds, args.trace) for n in names}

    print("host " + json.dumps(harness.host_record(cores), sort_keys=True))
    metrics = {}
    for n, (_ok, _att, _fail, ms) in results.items():
        for metric, (value, unit) in ms.items():
            print(f"{n:8s} {metric:34s} {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{n}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    summary = {
        "correct": all(r[0] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
