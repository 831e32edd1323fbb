"""Seeded differential certification suite against the LQ oracle.

Random instances are drawn over small path graphs, and for each one every
decision of the structured controller's full-plan closed loop, and its
total cost, are compared with the finite-horizon optimum: with the whole
plan known, the closed loop is the open-loop optimum, so every step must
agree.  Used both by the test suite and by the command-line `verify`
subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# init_shifted_sums is not called here: the benchmark's certify set-up
# (perfbench/workloads.py) times it as `verify.init_shifted_sums`.
from .ledger import DisturbancePlan, init_shifted_sums
from .model import GraphSpec, PlantState
from .oracle import (
    build_augmented_system,
    solve_finite_horizon,
    state_vector,
    stationary_riccati,
)
from .simulate import closed_loop
from .synthesis import synthesize

DEFAULT_TOLERANCE = 1e-6
SETTLING_STEPS = 60  # steps run past sigma_N + H, for the closed loop to settle


@dataclass
class Instance:
    """One random certification problem: spec, initial conditions, plan."""

    spec: GraphSpec
    z0: np.ndarray
    pipelines0: tuple[np.ndarray, ...]
    plan: DisturbancePlan


def make_random_instance(
    rng: np.random.Generator,
    n_range=(1, 6),
    tau_range=(1, 4),
    horizon_range=(0, 6),
    weight_range=(0.1, 10.0),
    max_disturbances: int = 5,
) -> Instance:
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    tau = tuple(int(rng.integers(tau_range[0], tau_range[1] + 1)) for _ in range(n - 1))
    horizon = int(rng.integers(horizon_range[0], horizon_range[1] + 1))
    q = tuple(float(x) for x in rng.uniform(*weight_range, n))
    r = tuple(float(x) for x in rng.uniform(*weight_range, n))
    spec = GraphSpec(n=n, tau=tau, q=q, r=r, horizon=horizon)
    z0 = rng.standard_normal(n)
    pipelines0 = tuple(rng.standard_normal(t) for t in tau)
    plan = DisturbancePlan()
    for _ in range(int(rng.integers(0, max_disturbances + 1))):
        i = int(rng.integers(1, n + 1))
        s_max = horizon + spec.sigma_total - spec.sigma[i - 1]
        s = int(rng.integers(0, s_max + 1))
        plan.entries[(i, s)] = float(rng.standard_normal())
    return Instance(spec=spec, z0=z0, pipelines0=pipelines0, plan=plan)


@dataclass
class InstanceReport:
    index: int
    action_rel_err: float
    cost_rel_err: float
    instance: Instance = field(repr=False)


@dataclass
class SuiteReport:
    seed: int
    tolerance: float
    reports: list[InstanceReport] = field(default_factory=list)

    @property
    def max_action_err(self) -> float:
        return max((r.action_rel_err for r in self.reports), default=0.0)

    @property
    def max_cost_err(self) -> float:
        return max((r.cost_rel_err for r in self.reports), default=0.0)

    @property
    def passed(self) -> bool:
        return (
            self.max_action_err <= self.tolerance
            and self.max_cost_err <= self.tolerance
        )


def certify_instance(inst: Instance) -> tuple[float, float]:
    """(action, closed-loop-cost) relative errors vs the oracle: the largest
    difference over every step's inputs, relative to the largest optimal
    input of the run, and the cost difference relative to the cost."""
    spec = inst.spec
    params = synthesize(spec)
    system = build_augmented_system(spec)
    P = stationary_riccati(system)
    T = spec.sigma_total + spec.horizon + SETTLING_STEPS

    x0 = state_vector(system, PlantState.initial(spec, inst.z0, inst.pipelines0))
    sol = solve_finite_horizon(system, x0, inst.plan, T, P)
    res = closed_loop(spec, params, inst.plan, T, inst.z0, inst.pipelines0)
    structured = np.hstack([res.trajectory.u, res.trajectory.v])
    scale = max(float(np.max(np.abs(sol.inputs))), 1e-9)
    action_err = float(np.max(np.abs(structured - sol.inputs))) / scale

    x_T = state_vector(system, res.final_state)
    cl_cost = res.total_cost + float(x_T @ P @ x_T)
    cost_err = abs(cl_cost - sol.cost) / max(abs(sol.cost), 1e-9)
    return action_err, cost_err


def run_differential_suite(
    n_instances: int = 100,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    **instance_kwargs,
) -> SuiteReport:
    rng = np.random.default_rng(seed)
    report = SuiteReport(seed=seed, tolerance=tolerance)
    for idx in range(n_instances):
        inst = make_random_instance(rng, **instance_kwargs)
        action_err, cost_err = certify_instance(inst)
        report.reports.append(InstanceReport(idx, action_err, cost_err, inst))
    return report
