"""Regenerate perfbench/reference.json.

    python3 perfbench/reference.py --seeds 64

Records, for seeds 0..N-1, the total cost of one episode of the fullplan
and receding workloads.  run.py checks every episode of those seeds
against it (relative tolerance 1e-9); other seeds are checked against
the run's own first episode.  Regenerate only from a commit whose
closed-loop decisions are known to be right.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=64)
    args = ap.parse_args()
    table = {}
    for name in ("fullplan", "receding"):
        table[name] = {}
        for seed in range(args.seeds):
            wl = workloads.WORKLOADS[name](seed, tracing.StepProbe())
            table[name][str(seed)] = wl.drive(wl.steps).total_cost
            print(name, seed, table[name][str(seed)], flush=True)
    workloads.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
