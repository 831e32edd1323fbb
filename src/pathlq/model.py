"""Problem instances, delayed plant dynamics, and cost accounting.

The plant is a path graph of N nodes.  Flow on edge i moves quantity from
node i+1 to node i with a transport delay of tau_i steps.  Each node can
also produce or consume locally (v), and is subject to planned external
injections (d).  Levels z and all flows are deviations from equilibrium.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import SpecError


def aggregate_delays(tau: Sequence[int]) -> list[int]:
    """Cumulative delays sigma_1..sigma_N for a delay list of length N-1.

    sigma_k is the total transport delay from node k down to node 1, so
    sigma_1 = 0 and sigma_N is the sum of all edge delays.
    """
    sigma = [0]
    for k, t in enumerate(tau):
        if not float(t).is_integer() or t < 1:
            raise SpecError(f"edge delay tau_{k + 1} = {t} must be an integer >= 1")
        sigma.append(sigma[-1] + int(t))
    return sigma


@dataclass(frozen=True)
class GraphSpec:
    """Immutable problem instance: sizes, delays, weights, planning horizon."""

    n: int
    tau: tuple[int, ...]
    q: tuple[float, ...]
    r: tuple[float, ...]
    horizon: int
    sigma: tuple[int, ...] = field(init=False)
    # q and r as arrays, converted once per spec for stage_cost.  Set here,
    # not on first use: an attribute added to an instance later slows every
    # attribute lookup on it.
    weights: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(aggregate_delays(self.tau)))
        weights = np.array(self.q, dtype=float), np.array(self.r, dtype=float)
        object.__setattr__(self, "weights", weights)

    @property
    def sigma_total(self) -> int:
        return self.sigma[-1]


def validate_spec(raw: Mapping) -> GraphSpec:
    """Build a GraphSpec from a raw mapping, checking every invariant."""
    try:
        n = float(raw["n"])
        tau = [float(t) for t in raw["tau"]]
        q = [float(x) for x in raw["q"]]
        r = [float(x) for x in raw["r"]]
        horizon = float(raw["horizon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed spec: {exc}") from exc
    for name, x in (("n", n), ("horizon", horizon)):
        if not x.is_integer():
            raise SpecError(f"{name} = {x} must be a whole number")
    n, horizon = int(n), int(horizon)

    if n < 1:
        raise SpecError(f"node count n = {n} must be >= 1")
    if len(tau) != n - 1:
        raise SpecError(f"tau has {len(tau)} entries, expected n-1 = {n - 1}")
    if len(q) != n or len(r) != n:
        raise SpecError(f"q and r must each have n = {n} entries")
    for name, w in (("q", q), ("r", r)):
        for i, x in enumerate(w):
            if not (x > 0.0) or not np.isfinite(x):
                raise SpecError(f"{name}_{i + 1} = {x} must be strictly positive")
    if horizon < 0:
        raise SpecError(f"horizon H = {horizon} must be >= 0")
    aggregate_delays(tau)
    return GraphSpec(
        n=n, tau=tuple(int(t) for t in tau), q=tuple(q), r=tuple(r), horizon=horizon
    )


class PlantState:
    """Node levels plus per-edge in-transit buffers at absolute time t.

    pipelines[e] holds the flows already sent on edge e+1 but not yet
    arrived, oldest first: pipelines[e][k] = u_{e+1}[t - tau_{e+1} + k].
    All pipelines live back to back in one buffer, `flows`, edge e+1's
    from offset sigma_{e+1}, so one move shifts them all; `pipelines`
    are views into it.  The buffer ends with one 0.0, the flow in transit
    to node N, which has no incoming edge.
    """

    def __init__(self, t: int, z: np.ndarray, pipelines: Sequence[np.ndarray]):
        lengths = np.array([len(p) for p in pipelines], dtype=int)
        flows = np.concatenate([*pipelines, [0.0]], dtype=float)
        ends = np.cumsum(lengths)
        self._init(t, z, flows, ends - lengths, ends - 1)

    def _init(self, t, z, flows, first, last) -> None:
        self.t = t
        self.z = z
        self.flows = flows
        self._first = first  # each pipeline's first (oldest) slot in flows
        self._last = last  # and its last (newest) one

    def successor(self, z: np.ndarray, flows: np.ndarray) -> "PlantState":
        """The state one step later, with these levels and flows, same edges."""
        nxt = PlantState.__new__(PlantState)
        nxt._init(self.t + 1, z, flows, self._first, self._last)
        return nxt

    @functools.cached_property
    def pipelines(self) -> tuple[np.ndarray, ...]:
        return tuple(self.flows[a : b + 1] for a, b in zip(self._first, self._last))

    @staticmethod
    def initial(spec: GraphSpec, z0=None, pipelines0=None) -> "PlantState":
        try:
            z = np.zeros(spec.n) if z0 is None else np.array(z0, dtype=float)
            pipes = (tuple(np.zeros(t) for t in spec.tau) if pipelines0 is None
                     else tuple(np.asarray(p, dtype=float) for p in pipelines0))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"initial state is not numeric: {exc}") from None
        if z.shape != (spec.n,):
            raise SpecError(f"initial z has shape {z.shape}, expected ({spec.n},)")
        if not np.isfinite(z).all():
            raise SpecError("initial z has a non-finite entry")
        if len(pipes) != spec.n - 1 or any(
            p.shape != (t,) for p, t in zip(pipes, spec.tau)
        ):
            raise SpecError("initial pipelines do not match edge delays")
        if not all(np.isfinite(p).all() for p in pipes):
            raise SpecError("initial pipelines have a non-finite entry")
        return PlantState(t=0, z=z, pipelines=pipes)


@dataclass(frozen=True)
class ControlDecision:
    """Applied flows u_1..u_{N-1} and productions v_1..v_N for one step."""

    u: np.ndarray
    v: np.ndarray


def plant_step(
    state: PlantState, action: ControlDecision, d: np.ndarray, spec: GraphSpec
) -> PlantState:
    """Advance the plant one step under the given action and disturbance.

    z_i[t+1] = z_i[t] - u_{i-1}[t] + u_i[t - tau_i] + v_i[t] + d_i[t],
    with the boundary conventions u_0 = u_N = 0.  Each pipeline shifts by
    one slot and admits the newly sent flow.
    """
    n = spec.n
    u = np.asarray(action.u, dtype=float)
    v = np.asarray(action.v, dtype=float)
    d = np.asarray(d, dtype=float)
    if u.shape != (n - 1,) or v.shape != (n,) or d.shape != (n,):
        raise SpecError(
            f"action/disturbance shapes {u.shape}, {v.shape}, {d.shape} do not "
            f"match n = {n}"
        )
    old = state.flows
    arrivals = np.zeros(n)
    arrivals[:-1] = old[state._first]  # u_{e+1}[t - tau_{e+1}]
    departures = np.zeros(n)
    departures[1:] = u  # node i loses u_{i-1}[t]
    z_next = state.z + arrivals - departures + v + d
    flows = np.empty_like(old)
    flows[:-1] = old[1:]  # every pipeline one slot older; newest slots set next
    flows[state._last] = u
    flows[-1] = 0.0
    return state.successor(z_next, flows)


def stage_cost(spec: GraphSpec, z: np.ndarray, v: np.ndarray) -> float:
    q, r = spec.weights
    return float(np.dot(q, np.square(z)) + np.dot(r, np.square(v)))


@dataclass
class Trajectory:
    """A closed- or open-loop run of T steps.

    z has T+1 rows (levels before and after every step); u, v, d have T
    rows.  init_pipelines keeps the pre-run in-transit flows so shifted
    sums over early times can reach back before t = 0.
    """

    spec: GraphSpec
    z: np.ndarray  # (T+1, N)
    u: np.ndarray  # (T, N-1)
    v: np.ndarray  # (T, N)
    d: np.ndarray  # (T, N)
    init_pipelines: tuple[np.ndarray, ...]
    step_costs: np.ndarray  # (T,)

    @property
    def steps(self) -> int:
        return self.u.shape[0]
