"""Closed-loop simulation of the structured controller.

One loop serves every disturbance-information mode.  The plant sees the
whole plan; the controller learns it through an announcement schedule:
  * full plan (announce=None): every entry is known at t = 0,
  * receding horizon (announce=h): d_i[s] becomes known at max(s - h, 0),
  * blind: nothing is ever announced.
Entries known at t = 0 build the initial windows; later ones enter the
ledger incrementally.  An executor computes each step's decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import control_step
from .errors import SpecError
from .ledger import (
    DisturbancePlan,
    advance_time,
    apply_plan_updates,
    init_shifted_sums,
    validate_horizon,
)
from .model import (
    ControlDecision,
    GraphSpec,
    PlantState,
    Trajectory,
    plant_step,
    read_plant_inputs,
    read_whole,
    stage_cost,
)
from .synthesis import ControllerParams


@dataclass
class SimulationResult:
    trajectory: Trajectory
    total_cost: float  # stage costs over the run only
    decisions: list[ControlDecision]  # views of the trajectory's u, v rows
    final_state: PlantState  # after the last step, pipelines included


class Sequential:
    """The default executor: both sweeps in one process.

    An executor decides each step from the plant state, the windows and
    the known current disturbance, and is handed every ledger message, in
    order, as a (src, dst, shifted time, value) tuple.
    """

    def decide(self, state, windows, d_now, params) -> ControlDecision:
        return control_step(state, windows, d_now, params)[0]

    def ledger(self, messages: list[tuple[int, int, int, float]]) -> None:
        """Nothing is exchanged in one process; drop them."""


def _announcement_schedule(
    spec, plan, announce, blind, d_hist
) -> tuple[DisturbancePlan, tuple[np.ndarray, np.ndarray, np.ndarray], dict[int, dict]]:
    """The entries the controller knows at t = 0, as a plan and as the
    nodes, times and amounts DisturbancePlan.arrays() gives for it, and
    announcement time -> {(node, s): amount} of those it learns later.

    Every entry is checked, even when blind (the ledger checks the horizon
    bound), and each one inside the run is written into d_hist.  Entries
    before t = 0 can never matter to the run and are left out.  A full plan
    is known whole at t = 0: it comes back as the caller's plan, with
    nothing left to announce, and no dict is built.
    """
    nodes, times, values, _ = validate_horizon(plan, spec, now=None)
    inside = (times >= 0) & (times < len(d_hist))
    d_hist[times[inside], nodes[inside] - 1] = values[inside]
    if blind:
        return DisturbancePlan(), (nodes[:0], times[:0], values[:0]), {}
    ahead = np.flatnonzero(times >= 0)
    if announce is None:
        return plan, (nodes[ahead], times[ahead], values[ahead]), {}
    at = np.maximum(times[ahead] - announce, 0)
    order = np.argsort(at, kind="stable")
    at, ahead = at[order], ahead[order]
    first = ahead[: np.searchsorted(at, 1)]
    # One dict per run of equal announcement times, of the amounts as read.
    bounds = np.flatnonzero(np.diff(at, prepend=-1)).tolist() + [len(at)]
    items, ahead = list(zip(plan.entries, values.tolist())), ahead.tolist()
    schedule = {
        int(at[lo]): dict(map(items.__getitem__, ahead[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    }
    known = DisturbancePlan(schedule.pop(0, {}))
    return known, (nodes[first], times[first], values[first]), schedule


def closed_loop(
    spec: GraphSpec,
    params: ControllerParams,
    plan: DisturbancePlan,
    steps: int,
    z0=None,
    pipelines0=None,
    announce: int | None = None,
    blind: bool = False,
    executor=None,
) -> SimulationResult:
    """Run the two-sweep controller for `steps` steps.

    With announce=None the whole plan is known at time zero (it must then
    satisfy the horizon bound outright).  With announce=h, entry d_i[s]
    becomes known at time s - h and enters the ledger incrementally.
    With blind=True the controller never learns the plan.  `executor`
    (default Sequential()) computes each step's decision; one that
    plant_step refuses or that is not finite raises SpecError naming its
    step.  `params` must be synthesized for `spec`, or SpecError is raised.
    """
    params.require_spec(spec)
    if not (type(steps) is int or isinstance(steps, np.integer)):
        raise ValueError(f"steps = {steps!r} must be an integer")
    if steps < 0:
        raise ValueError(f"steps = {steps} must be >= 0")
    if blind and announce is not None:
        raise ValueError(f"announce = {announce} is ignored when blind=True")
    # read_whole refuses text, booleans, lists and fractions; range() the rest.
    if announce is not None and read_whole(announce) not in range(spec.horizon + 1):
        raise ValueError(
            f"announcement horizon {announce!r} must be a whole number in "
            f"0..H = {spec.horizon}"
        )
    if executor is None:
        executor = Sequential()
    n = spec.n
    d_hist = np.zeros((steps, n))
    known, first, schedule = _announcement_schedule(spec, plan, announce, blind, d_hist)
    windows = init_shifted_sums(known, spec, now=0, arrays=first)
    state = PlantState.initial(spec, z0, pipelines0)
    d_blind = np.zeros(n)

    z_hist = np.zeros((steps + 1, n))
    u_hist = np.zeros((steps, max(n - 1, 0)))
    v_hist = np.zeros((steps, n))
    costs = np.zeros(steps)
    f64, u_shape, v_shape = u_hist.dtype, u_hist.shape[1:], v_hist.shape[1:]
    z_hist[0] = state.z
    # One copy of the pre-run flows, cut into the edges' pipelines.
    flows0, sigma = state.flows.copy(), spec.sigma
    init_pipes = tuple(flows0[a:b] for a, b in zip(sigma, sigma[1:]))

    for t in range(steps):
        if t in schedule:
            executor.ledger(apply_plan_updates(windows, known, schedule.pop(t)))
        # Entry d_i[s] is announced at max(s - h, 0) <= s: unless blind,
        # the controller knows the plant's whole row d[t].
        d_known = d_blind if blind else d_hist[t]
        decision = executor.decide(state, windows, d_known, params)
        u, v = decision.u, decision.v
        # Anything but float arrays of the plant's shapes is read first.
        if not (type(u) is type(v) is np.ndarray and u.dtype is v.dtype is f64
                and u.shape == u_shape and v.shape == v_shape):
            try:
                u, v, _ = read_plant_inputs(u, v, d_hist[t], n)
            except SpecError as exc:
                raise SpecError(f"step {t}: the executor's decision: {exc}") from None
        costs[t] = cost = stage_cost(spec, state.z, v)
        u_hist[t] = u
        v_hist[t] = v
        # Not finite where v or u is not, or where u.u overflows (|u| > 1e154).
        if not math.isfinite(cost + u.dot(u)):
            for name, x in (("u", u), ("v", v)):
                bad = np.flatnonzero(~np.isfinite(x))
                if bad.size:
                    raise SpecError(f"step {t}: the executor decided {name}[{bad[0]}] "
                                    f"= {x[bad[0]]}, not a finite number")

        state = plant_step(state, decision, d_hist[t], spec)
        z_hist[t + 1] = state.z
        advance_time(windows)

    traj = Trajectory(
        spec=spec,
        z=z_hist,
        u=u_hist,
        v=v_hist,
        d=d_hist,
        init_pipelines=init_pipes,
        step_costs=costs,
    )
    decisions = [ControlDecision(u=u, v=v) for u, v in zip(u_hist, v_hist)]
    return SimulationResult(
        trajectory=traj, total_cost=float(costs.sum()), decisions=decisions,
        final_state=state,
    )
