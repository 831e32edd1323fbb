"""Run every workload and print all of its metrics in one table.

    python3 perfbench/report.py --seeds 0,1,2 --trace
    python3 perfbench/report.py --seeds 0,1,2 --trace --write perfbench/baseline.json
    python3 perfbench/report.py --workloads receding,certify --seeds 0,1,2,3,4

Each workload runs untraced once per seed, and with --trace once more,
traced, on the first seed.  Runs are sequential child processes of
run.py, so that peak memory is each workload's own.  The table gives
each end-to-end metric's median and spread over the seeds (with its
unit), the output-check verdict with failed_frac, and the per-layer
metrics.  A spread is the interquartile range over the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fullplan", "receding", "distributed", "certify"]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(final JSON line, full record) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated subset of " + ",".join(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write", type=Path, help="also write the results as JSON here")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        attempted = failed = 0
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            result, record = run(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in {**result["metrics"], **record["undeclared"]}.items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        entry = {
            "end_to_end": {
                name: {"median": statistics.median(v), "spread": spread(v),
                       "unit": units[name], "values": v}
                for name, v in values.items()
            },
            "checks": {"attempted": attempted, "failed": failed,
                       "failed_frac": failed / attempted if attempted else 1.0},
            "inputs": record["inputs"],
            "samples": record["samples"],
        }
        summary["environment"] = record["environment"]
        print(f"{workload}: {'PASS' if failed == 0 else 'FAIL'}  attempted {attempted}  "
              f"failed {failed}  failed_frac {entry['checks']['failed_frac']:.6g}")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:<40} {m['median']:>14.6g} {m['unit']:<6} "
                  f"spread {m['spread']:.3f}")
        if args.trace:
            result, record = run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = result["metrics"]
            entry["per_layer_checks"] = {"attempted": result["attempted"],
                                         "failed": result["failed"]}
            entry["self_time_share"] = record["self_time_share"]
            entry["episode_counts"] = record["episode_counts"]
            print(f"  per-layer, traced seed {seeds[0]} "
                  f"({'PASS' if result['correct'] else 'FAIL'}):")
            for name, m in result["metrics"].items():
                print(f"    {name:<38} {m['value']:>14.6g} {m['unit']}")
        summary["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
