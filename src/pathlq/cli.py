"""Command-line drivers: synthesis, simulation, and certification runs.

All experiment input comes from a JSON config file; all output is CSV or
JSON written to the output directory.  Identical config and seed produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import HorizonViolationError, SpecError
from .harness import audit_message_log, run_closed_loop
from .ledger import DisturbancePlan
from .model import GraphSpec, read_number
from .simulate import closed_loop
from .synthesis import params_to_document, synthesize
from .verify import run_differential_suite

SCHEMA_VERSION = 1
# Flags that only some commands read: argparse dest -> those commands.
FLAG_COMMANDS = {
    "no_feedforward": ("simulate",),
    "tee_summary": ("simulate", "compare-ff"),
    "horizon": ("synth", "simulate", "compare-ff", "distributed"),
    "seed": ("simulate", "compare-ff", "verify", "distributed"),
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version = {version!r}, expected {SCHEMA_VERSION}"
        )
    for fld in ("n", "tau", "q", "r", "horizon"):
        if fld not in cfg:
            raise ConfigError(f"{path}: missing required field {fld!r}")
    if "seed" in cfg:
        cfg["seed"] = _seed(cfg["seed"], f"{path}: seed")
    return cfg


def config_spec(cfg: dict) -> GraphSpec:
    try:
        return GraphSpec(**{f: cfg[f] for f in ("n", "tau", "q", "r", "horizon")})
    except SpecError as exc:
        raise ConfigError(f"invalid spec: {exc}") from exc


def _whole(value, what: str) -> int:
    """`value` as an int, if it is a whole number; ConfigError otherwise."""
    x = read_number(value)
    if x is None or not x.is_integer():
        raise ConfigError(f"{what} = {value!r} must be a whole number")
    return int(x)


def _seed(value, what: str) -> int:
    """`value` as a scheduler or suite seed: a whole number >= 0."""
    seed = _whole(value, what)
    if seed < 0:
        raise ConfigError(f"{what} = {seed} must be >= 0")
    return seed


def config_plan(cfg: dict) -> DisturbancePlan:
    records, disturbances = [], cfg.get("disturbances", [])
    if not isinstance(disturbances, list):
        raise ConfigError(f"disturbances must be a list, got {disturbances!r}")
    for i, rec in enumerate(disturbances):
        if not isinstance(rec, dict):
            raise ConfigError(f"disturbances[{i}] must be an object, got {rec!r}")
        for fld in ("node", "start_time", "end_time", "amount_per_step"):
            if fld not in rec:
                raise ConfigError(f"disturbances[{i}]: missing field {fld!r}")
        node, start, end = (
            _whole(rec[fld], f"disturbances[{i}]: {fld}")
            for fld in ("node", "start_time", "end_time")
        )
        if not 0 <= start <= end:
            raise ConfigError(
                f"disturbances[{i}]: need 0 <= start_time <= end_time, got "
                f"{start} and {end}"
            )
        amount = read_number(rec["amount_per_step"])
        if amount is None:
            raise ConfigError(
                f"disturbances[{i}]: amount_per_step = "
                f"{rec['amount_per_step']!r} is not a number"
            )
        records.append({"node": node, "start_time": start, "end_time": end,
                        "amount_per_step": amount})
    return DisturbancePlan.from_records(records)


def load_run(cfg: dict):
    """(spec, plan, steps, params, z0, pipelines0) of a closed-loop config."""
    spec = config_spec(cfg)
    plan = config_plan(cfg)
    steps = _whole(cfg.get("run_length", spec.sigma_total + spec.horizon + 60),
                   "run_length")
    if steps < 0:
        raise ConfigError(f"run_length = {steps} must be >= 0")
    params = synthesize(spec)
    return spec, plan, steps, params, cfg.get("initial_z"), cfg.get("initial_pipelines")


def write_trajectory_csv(path: Path, traj, seed=None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "z", "u", "v", "d", "step_cost", "cum_cost"])
        cum = 0.0
        for t in range(traj.steps):
            cum += float(traj.step_costs[t])
            for i in range(1, traj.spec.n + 1):
                # u is the flow node i releases downstream (u_{i-1}); 0 for node 1.
                u = traj.u[t, i - 2] if i >= 2 else 0.0
                writer.writerow([
                    t, i, repr(float(traj.z[t, i - 1])), repr(float(u)),
                    repr(float(traj.v[t, i - 1])), repr(float(traj.d[t, i - 1])),
                    repr(float(traj.step_costs[t])), repr(cum),
                ])


def cmd_synth(args, cfg: dict, out: Path) -> int:
    spec = config_spec(cfg)
    params = synthesize(spec)
    (out / "params.json").write_text(params_to_document(params))
    print(f"wrote {out / 'params.json'}")
    return 0


def cmd_simulate(args, cfg: dict, out: Path) -> int:
    spec, plan, steps, params, z0, pipes0 = load_run(cfg)
    res = closed_loop(
        spec, params, plan, steps, z0, pipes0, blind=args.no_feedforward
    )
    write_trajectory_csv(out / "trajectory.csv", res.trajectory)
    summary = {
        "seed": cfg.get("seed"),
        "steps": steps,
        "feedforward": not args.no_feedforward,
        "total_cost": res.total_cost,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    if args.tee_summary:
        print(json.dumps(summary))
    print(f"total cost over {steps} steps: {res.total_cost:.6f}")
    return 0


def cmd_compare_ff(args, cfg: dict, out: Path) -> int:
    spec, plan, steps, params, z0, pipes0 = load_run(cfg)
    with_ff = closed_loop(spec, params, plan, steps, z0, pipes0)
    # Baseline: a zero-length announcement horizon (only the current step's
    # disturbance is ever known).
    spec0 = replace(spec, horizon=0)
    without = closed_loop(
        spec0, synthesize(spec0), plan, steps, z0, pipes0, announce=0
    )
    summary = {
        "seed": cfg.get("seed"),
        "steps": steps,
        "cost_feedforward": with_ff.total_cost,
        "cost_no_feedforward": without.total_cost,
    }
    (out / "compare_ff.json").write_text(json.dumps(summary, indent=2))
    if args.tee_summary:
        print(json.dumps(summary))
    print(
        f"feed-forward: {with_ff.total_cost:.6f}   "
        f"H=0 baseline: {without.total_cost:.6f}"
    )
    return 0


def cmd_sweep_horizon(args, cfg: dict, out: Path) -> int:
    spec, plan, steps, _params, z0, pipes0 = load_run(cfg)
    grid = cfg.get("horizon_grid")
    if grid is None:
        grid = list(range(0, spec.sigma_total + 1))
    if not isinstance(grid, list):
        raise ConfigError(f"horizon_grid = {grid!r} must be a list")
    grid = [_whole(h, f"horizon_grid[{i}]") for i, h in enumerate(grid)]
    if any(h < 0 for h in grid):
        raise ConfigError(f"horizon_grid = {grid} must hold horizons >= 0")
    grid = sorted(set(grid) | {0, spec.sigma_total})
    rows = []
    for h in grid:
        spec_h = replace(spec, horizon=h)
        res = closed_loop(
            spec_h, synthesize(spec_h), plan, steps, z0, pipes0, announce=h
        )
        rows.append((h, res.total_cost))
    with open(out / "horizon_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "total_cost"])
        for h, cost in rows:
            writer.writerow([h, repr(cost)])
    for h, cost in rows:
        print(f"H={h:3d}  cost={cost:.6f}")
    return 0


def cmd_verify(args, cfg: dict | None, out: Path) -> int:
    seed = (cfg or {}).get("seed", args.seed or 0)  # main puts --seed in cfg
    count = _whole(cfg.get("verify_instances", 100), "verify_instances") if cfg else 100
    if count < 1:
        raise ConfigError(f"verify_instances = {count} must be >= 1")
    report = run_differential_suite(n_instances=count, seed=seed)
    with open(out / "verify.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "n", "action_rel_err", "cost_rel_err", "tau", "q",
                         "r", "horizon", "z0", "pipelines0", "plan"])
        for r in report.reports:
            inst, spec = r.instance, r.instance.spec
            # json.dumps round-trips every float exactly, so a row replays.
            replay = (spec.tau, spec.q, spec.r, spec.horizon, inst.z0.tolist(),
                      [p.tolist() for p in inst.pipelines0], [*inst.plan.entries.items()])
            writer.writerow([r.index, spec.n, repr(r.action_rel_err),
                             repr(r.cost_rel_err), *map(json.dumps, replay)])
    print(
        f"{count} instances, seed {seed}: max action err "
        f"{report.max_action_err:.3e}, max cost err {report.max_cost_err:.3e} "
        f"(tolerance {report.tolerance:.1e})"
    )
    if not report.passed:
        print("VERIFY FAILED", file=sys.stderr)
        return 1
    print("verify passed")
    return 0


def cmd_distributed(args, cfg: dict, out: Path) -> int:
    spec, plan, steps, params, z0, pipes0 = load_run(cfg)
    rng = np.random.default_rng(cfg.get("seed", 0))  # main puts --seed here
    decisions, log, total = run_closed_loop(
        spec, params, plan, steps, z0, pipes0, rng=rng
    )
    log.write_csv(out / "messages.csv")
    audit = audit_message_log(log, spec)
    print(
        f"{steps} rounds, {len(log.records)} messages, "
        f"total cost {total:.6f}, audit {'pass' if audit.ok else 'FAIL'}"
    )
    if not audit.ok:
        for v in audit.violations[:10]:
            print(f"  {v}", file=sys.stderr)
        return 1
    return 0


HANDLERS = {
    "synth": cmd_synth,
    "simulate": cmd_simulate,
    "compare-ff": cmd_compare_ff,
    "sweep-horizon": cmd_sweep_horizon,
    "verify": cmd_verify,
    "distributed": cmd_distributed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathlq",
        description="Structured LQ control on delayed path graphs",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--horizon", type=int, default=None,
                        help="override the config's planning horizon")
    parser.add_argument("--no-feedforward", action="store_true")
    parser.add_argument("--tee-summary", action="store_true")
    args = parser.parse_args(argv)

    if args.command != "verify" and not args.config:
        parser.error(f"{args.command} requires --config")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    try:
        for dest, commands in FLAG_COMMANDS.items():
            if getattr(args, dest) != parser.get_default(dest) and (
                    args.command not in commands):
                flag = "--" + dest.replace("_", "-")
                raise ConfigError(f"{args.command} does not read {flag}")
        if args.seed is not None:
            _seed(args.seed, "--seed")
        cfg = None
        if args.config:
            cfg = load_config(args.config)
            if args.horizon is not None:
                cfg["horizon"] = args.horizon
            if args.seed is not None:
                cfg["seed"] = args.seed
        return HANDLERS[args.command](args, cfg, out)
    except (ConfigError, SpecError, HorizonViolationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
