"""Run one pathlq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload receding --seed 0 --seconds 40 --trace 0

Workloads: fullplan, receding, distributed, certify (see README.md).
The run repeats set-up and episode on the seed's inputs for about
`--seconds` seconds, checks every output, and prints a table followed by
one JSON line with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, from spans recorded around the package's public
functions (the first third of that run is untraced, for the overhead).
The full record of a run, environment included, is written to
perfbench/out/.
"""

from __future__ import annotations

import os

# One thread for every BLAS and OpenMP pool; must precede importing numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# p99 needs at least ten samples beyond it.
MIN_INTERVALS = 1010
# Measured and recorded, but not declared in BENCHMARK.json: its ten-seed
# spread on the 2-vCPU baseline machine exceeded the largest bound, 0.25.
UNDECLARED = ("step_p99_ms",)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fullplan", "receding", "distributed", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(wl, probe, seconds, min_episodes, min_intervals=0, tracer=None):
    """Run episodes, each after a set-up, for `seconds`.

    Stops once another episode would overrun, but not before the minimum
    numbers of episodes and step intervals are reached.  Records
    every set-up, step interval and certified instance with the speed
    kernel's time next to it (see speed.py).
    """
    phase = {"setups": [], "outcomes": [], "cycle_counts": [], "episode_intervals": [],
             "episode_instances": []}
    first_interval, steps0 = len(probe.intervals), probe.steps
    t_start = time.perf_counter()
    while True:
        n = len(phase["outcomes"])
        if tracer is not None:
            tracer.episode = n
        before = probe.speed_sample()
        seconds_setup = wl.setup()
        phase["setups"].append((seconds_setup, 0.5 * (before + probe.speed_sample())))
        if tracer is not None:
            counts0, dims0 = dict(tracer.counts), len(tracer.hessian_dims)
        i0, j0 = len(probe.intervals), len(probe.instances)
        phase["outcomes"].append(wl.episode())
        phase["episode_intervals"].append(
            (np.array(probe.intervals[i0:]), np.array(probe.kernels[i0:])))
        phase["episode_instances"].append(np.array(probe.instances[j0:]).reshape(-1, 2))
        if tracer is not None:
            phase["cycle_counts"].append({
                **{k: v - counts0.get(k, 0) for k, v in tracer.counts.items()},
                "hessian_dims": sorted(tracer.hessian_dims[dims0:]),
            })
        elapsed = time.perf_counter() - t_start
        n += 1
        enough = (n >= min_episodes
                  and len(probe.intervals) - first_interval >= min_intervals)
        if enough and elapsed * (n + 1) / n > seconds:
            break
    phase["intervals"] = probe.intervals[first_interval:]
    phase["steps"] = probe.steps - steps0
    phase["elapsed"] = elapsed
    phase["wall"] = sum(s for s, _ in phase["setups"]) + sum(o.wall for o in phase["outcomes"])
    check_repeats(phase)
    return phase


def check_repeats(phase) -> None:
    """Exact counts must repeat in every episode; a mismatch is a failure."""
    outcomes = phase["outcomes"]
    cycles = phase["cycle_counts"] or [{} for _ in outcomes]
    first = (outcomes[0].counts, cycles[0])
    for o, cyc in zip(outcomes[1:], cycles[1:]):
        if (o.counts, cyc) != first:
            o.failed = o.ops
            o.errors.append(f"counts {o.counts} {cyc} differ from the first episode's "
                            f"{first[0]} {first[1]}")


def timings(wl, phase, normalize=True) -> dict:
    """The timing metrics of a phase, in seconds.

    With `normalize`, every set-up, interval and instance time is
    rescaled to the kernel's reference speed (speed.py); without, the
    times are as measured.  Rates are medians over the episodes; episodes
    cut short by a failure are left out.
    """
    def scale(seconds, kernel):
        return seconds * speed.REFERENCE_S / kernel if normalize else seconds

    eps = [(o, scale(iv, k)) for o, (iv, k) in zip(phase["outcomes"],
                                                   phase["episode_intervals"])
           if not o.failed and iv.size]
    iv = np.concatenate([e for _, e in eps]) if eps else np.empty(0)
    if not iv.size:
        raise ValueError("no step intervals were measured")
    out = {
        "setup_s": statistics.median(scale(s, k) for s, k in phase["setups"]),
        "steps_per_s": statistics.median(len(e) / float(e.sum()) for _, e in eps),
        "step_p50": float(np.percentile(iv, 50)),
        "step_p99": float(np.percentile(iv, 99)),
    }
    if wl.op == "instance":
        out["instances_per_s"] = statistics.median(
            len(inst) / float(scale(inst[:, 0], inst[:, 1]).sum())
            for o, inst in zip(phase["outcomes"], phase["episode_instances"])
            if not o.failed and len(inst))
    else:
        # An instance is a set-up followed by the episode's steps.
        out["instances_per_s"] = 1.0 / (out["setup_s"] + wl.steps / out["steps_per_s"])
    return out


def rate(wl, phase) -> float:
    """Steps per second, or instances per second on certify."""
    t = timings(wl, phase)
    return t["instances_per_s"] if wl.op == "instance" else t["steps_per_s"]


def end_to_end(wl, phase) -> dict:
    t = timings(wl, phase)
    outs = phase["outcomes"]
    values = {
        "setup_s": (t["setup_s"], "s"),
        "steps_per_s": (t["steps_per_s"], "1/s"),
        "step_p50_ms": (1e3 * t["step_p50"], "ms"),
        "step_p99_ms": (1e3 * t["step_p99"], "ms"),
        "instances_per_s": (t["instances_per_s"], "1/s"),
        "messages_per_step": (
            sum(o.messages for o in outs) / sum(o.steps for o in outs), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> dict:
    """Thread count reported by each bundled OpenBLAS."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    found[Path(lib).name] = int(fn())
                    break
    return found


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_results(wl, tracer, plain, traced, record) -> dict:
    """Per-layer metrics of the traced phase; adds the self-time split to record."""
    import tracing

    table = tracing.SpanTable(tracer)
    harness_messages: dict = {}
    for o in traced["outcomes"]:
        for kind, count in o.harness_messages.items():
            harness_messages[kind] = harness_messages.get(kind, 0) + count
    metrics = tracing.layer_metrics(table, {
        "steps": traced["steps"],
        "rounds": table.calls("harness.run_control_round")
        if table.has("harness.run_control_round") else 0,
        "episodes": len(traced["outcomes"]),
        "wall": traced["wall"],
        "harness_messages": harness_messages,
        "untraced_rate": rate(wl, plain),
        "traced_rate": rate(wl, traced),
    })
    self_s = table.self_by_name()
    record["self_time_share"] = {
        k: v / traced["wall"] for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])
    }
    record["episode_counts"] = traced["cycle_counts"][0]
    record["spans"] = len(table.dur)
    return metrics


def print_table(title, metrics) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathlq" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    probe = tracing.StepProbe()
    wl = workloads.WORKLOADS[args.workload](args.seed, probe)
    # A traced run reports times as measured: its spans are not normalized.
    if not args.trace:
        probe.calibrate = "instance" if wl.op == "instance" else "step"
    patches = tracing.Patches()
    probe.install(patches)
    record = {"environment": environment(args), "inputs": wl.describe()}
    tracer = traced = None
    try:
        if args.trace:
            plain = measure(wl, probe, args.seconds / 3, min_episodes=1)
            tracer = tracing.Tracer(probe)
            tracer.install(patches)
            traced = measure(wl, probe, args.seconds - plain["elapsed"],
                             min_episodes=2, tracer=tracer)
        else:
            plain = measure(wl, probe, args.seconds, min_episodes=5,
                            min_intervals=MIN_INTERVALS)
    finally:
        patches.restore()

    phases = [plain] + ([traced] if args.trace else [])
    outcomes = [o for ph in phases for o in ph["outcomes"]]
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    try:
        metrics = layer_results(wl, tracer, plain, traced, record) if args.trace \
            else end_to_end(wl, plain)
    except (ValueError, ZeroDivisionError) as exc:
        # Nothing usable was measured, e.g. every episode failed.
        metrics = {}
        errors.append(f"metrics not computed: {exc!r}")
    record["undeclared"] = {k: metrics.pop(k) for k in UNDECLARED if k in metrics}
    if not args.trace:
        try:
            record["as_measured"] = timings(wl, plain, normalize=False)
        except (ValueError, ZeroDivisionError):
            pass
    record["samples"] = {
        "intervals": len(plain["intervals"]),
        "kernel_ms": dict(zip(
            ("p5", "p50", "p95"),
            (1e3 * np.percentile(probe.kernels, [5, 50, 95])).tolist()))
        if probe.kernels else {},
        "setups": len(plain["setups"]),
        "episodes": [len(ph["outcomes"]) for ph in phases],
        "elapsed_s": [ph["elapsed"] for ph in phases],
    }
    record["checks"] = {
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "counts": outcomes[0].counts,
        "reference": getattr(wl, "reference_source", None),
        "errors": errors[:20],
    }
    result = {"correct": failed == 0 and attempted > 0 and bool(metrics),
              "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz", {"workload": args.workload, "seed": args.seed})

    for err in errors[:5]:
        print(err, file=sys.stderr)
    print_table(f"{args.workload} seed {args.seed} "
                f"({'per-layer, traced' if args.trace else 'end-to-end'})",
                {**metrics, **record["undeclared"]})
    print(f"  checks: {'PASS' if result['correct'] else 'FAIL'}  attempted {attempted}  "
          f"failed {failed}  failed_frac {record['checks']['failed_frac']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
