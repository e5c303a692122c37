"""Record the sha256 of every recipe's CLI output (the recipes write to stdout).

    PYTHONPATH=src python3 bench/record_digests.py

Run once at the commit whose output is the reference; every ``recipes`` op
of the benchmark is checked against bench/recipe_digests.json.
"""

import json
import os
import sys
from pathlib import Path

from workloads import DIGESTS, Env, invoke_recipe, recipe_names, sha256

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    cores = len(os.sched_getaffinity(0))
    env_vars = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
    env = Env(root=ROOT, cores=cores, child_env=env_vars)
    for name in recipe_names(ROOT):
        proc = invoke_recipe(env, name)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        digests[name] = sha256(proc.stdout)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
