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
from .model import GraphSpec, read_whole
from .simulate import closed_loop
from .synthesis import params_to_document, synthesize
from .verify import SETTLING_STEPS, run_differential_suite

SCHEMA_VERSION = 1
# Every field a config may hold; any other key is an error, so a typo is loud.
CONFIG_FIELDS = ("schema_version", "n", "tau", "q", "r", "horizon", "run_length",
                 "initial_z", "initial_pipelines", "disturbances", "seed",
                 "horizon_grid", "verify_instances")
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
    if unknown := [key for key in cfg if key not in CONFIG_FIELDS]:
        raise ConfigError(f"{path}: unknown field {unknown[0]!r}")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version = {version!r}, expected {SCHEMA_VERSION}"
        )
    for fld in ("n", "tau", "q", "r", "horizon"):
        if fld not in cfg:
            raise ConfigError(f"{path}: missing required field {fld!r}")
    if "seed" in cfg:
        cfg["seed"] = _whole(cfg["seed"], f"{path}: seed", 0)
    return cfg


def config_spec(cfg: dict) -> GraphSpec:
    return GraphSpec(**{f: cfg[f] for f in ("n", "tau", "q", "r", "horizon")})


def _whole(value, what: str, least: int) -> int:
    """`value` as an int, if it is a whole number >= least; ConfigError otherwise."""
    x = read_whole(value)
    if x is None:
        raise ConfigError(f"{what} = {value!r} must be a whole number")
    if x < least:
        raise ConfigError(f"{what} = {x} must be >= {least}")
    return x


def config_plan(cfg: dict, last_time: int) -> DisturbancePlan:
    """The config's forecast up to last_time; DisturbancePlan.from_records
    reads each record."""
    disturbances = cfg.get("disturbances", [])
    if not isinstance(disturbances, list):
        raise ConfigError(f"disturbances must be a list, got {disturbances!r}")
    return DisturbancePlan.from_records(disturbances, last_time)


def load_run(cfg: dict, horizons=None):
    """(spec, plan, steps, params, z0, pipelines0) of a closed-loop config.
    The plan may reach the last time that a run at the largest of
    `horizons`, by default the config's horizon, can use."""
    spec = config_spec(cfg)
    settled = spec.sigma_total + spec.horizon + SETTLING_STEPS
    steps = _whole(cfg.get("run_length", settled), "run_length", 0)
    top = spec.horizon if horizons is None else max(horizons)
    plan = config_plan(cfg, steps - 1 + spec.sigma_total + top)
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


def _cost_at_horizon(spec, plan, steps, z0, pipes0, h: int) -> float:
    """Total cost of the closed loop synthesized for horizon h, with every
    entry announced h steps ahead."""
    spec_h = replace(spec, horizon=h)
    return closed_loop(
        spec_h, synthesize(spec_h), plan, steps, z0, pipes0, announce=h
    ).total_cost


def cmd_compare_ff(args, cfg: dict, out: Path) -> int:
    spec, plan, steps, params, z0, pipes0 = load_run(cfg)
    with_ff = closed_loop(spec, params, plan, steps, z0, pipes0).total_cost
    # Baseline: a zero-length announcement horizon (only the current step's
    # disturbance is ever known).
    without = _cost_at_horizon(spec, plan, steps, z0, pipes0, 0)
    summary = {
        "seed": cfg.get("seed"),
        "steps": steps,
        "cost_feedforward": with_ff,
        "cost_no_feedforward": without,
    }
    (out / "compare_ff.json").write_text(json.dumps(summary, indent=2))
    if args.tee_summary:
        print(json.dumps(summary))
    print(f"feed-forward: {with_ff:.6f}   H=0 baseline: {without:.6f}")
    return 0


def cmd_sweep_horizon(args, cfg: dict, out: Path) -> int:
    sigma_total = config_spec(cfg).sigma_total
    grid = cfg.get("horizon_grid")
    if grid is None:
        grid = list(range(0, sigma_total + 1))
    if not isinstance(grid, list):
        raise ConfigError(f"horizon_grid = {grid!r} must be a list")
    grid = {_whole(h, f"horizon_grid[{i}]", 0) for i, h in enumerate(grid)}
    grid |= {0, sigma_total}
    spec, plan, steps, _params, z0, pipes0 = load_run(cfg, grid)
    rows = [(h, _cost_at_horizon(spec, plan, steps, z0, pipes0, h))
            for h in sorted(grid)]
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
    count = _whole((cfg or {}).get("verify_instances", 100), "verify_instances", 1)
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
            _whole(args.seed, "--seed", 0)
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
