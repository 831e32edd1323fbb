"""Problem instances, delayed plant dynamics, and cost accounting.

The plant is a path graph of N nodes.  Flow on edge i moves quantity from
node i+1 to node i with a transport delay of tau_i steps.  Each node can
also produce or consume locally (v), and is subject to planned external
injections (d).  Levels z and all flows are deviations from equilibrium.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SpecError


def aggregate_delays(tau: Sequence[int]) -> list[int]:
    """Cumulative delays sigma_1..sigma_N for a delay list of length N-1.

    sigma_k is the total transport delay from node k down to node 1, so
    sigma_1 = 0 and sigma_N is the sum of all edge delays.
    """
    sigma = [0]
    for k, t in enumerate(tau):
        x = read_whole(t)
        if x is None or x < 1:
            raise SpecError(f"edge delay tau_{k + 1} = {t} must be an integer >= 1")
        sigma.append(sigma[-1] + x)
    return sigma


def read_number(x) -> float | None:
    """float(x), or None where x is not a number: text and booleans are not."""
    if isinstance(x, (str, bytes, bool, np.bool_)):
        return None
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return None


def read_whole(x) -> int | None:
    """int(x), or None where x is not a whole number by read_number's rule."""
    x = read_number(x)
    return int(x) if x is not None and x.is_integer() else None


def _read_numbers(x) -> np.ndarray:
    """np.asarray(x, dtype=float), refusing by read_number's rule any entry
    that is text or a boolean (ValueError).  A float array is taken as it
    is, with no scan."""
    arr = np.asarray(x, dtype=float)
    if arr is not x:
        for entry in np.array(x, dtype=object).flat:
            if read_number(entry) is None:
                raise ValueError(f"entry {entry!r}")
    return arr


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
        # Tuples, so that a spec built from lists equals one built from tuples.
        for name in ("tau", "q", "r"):
            x = getattr(self, name)
            try:
                if isinstance(x, (str, bytes)):  # not a sequence of characters
                    raise TypeError
                object.__setattr__(self, name, tuple(x))
            except TypeError:
                raise SpecError(f"{name} = {x!r} is not a sequence") from None
        for name in ("n", "horizon"):
            x = getattr(self, name)
            whole = read_whole(x)
            if whole is None:
                raise SpecError(f"{name} = {x} must be a whole number")
            object.__setattr__(self, name, whole)
        n, tau = self.n, self.tau
        if n < 1:
            raise SpecError(f"node count n = {n} must be >= 1")
        if len(tau) != n - 1:
            raise SpecError(f"tau has {len(tau)} entries, expected n-1 = {n - 1}")
        if len(self.q) != n or len(self.r) != n:
            raise SpecError(f"q and r must each have n = {n} entries")
        for name in ("q", "r"):
            # Python floats: float(x) reads x as np.asarray(..., float) would.
            values = getattr(self, name)
            weights = tuple(map(read_number, values))
            for i, (x, w) in enumerate(zip(values, weights)):
                if w is None:
                    raise SpecError(f"{name}_{i + 1} = {x!r} is not a number")
                if not (w > 0.0) or not math.isfinite(w):
                    raise SpecError(f"{name}_{i + 1} = {x} must be strictly positive")
            object.__setattr__(self, name, weights)
        if self.horizon < 0:
            raise SpecError(f"horizon H = {self.horizon} must be >= 0")
        sigma = tuple(aggregate_delays(tau))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tuple(b - a for a, b in zip(sigma, sigma[1:])))
        weights = np.array(self.q, dtype=float), np.array(self.r, dtype=float)
        object.__setattr__(self, "weights", weights)

    @property
    def sigma_total(self) -> int:
        return self.sigma[-1]


class PlantState:
    """Node levels plus per-edge in-transit buffers at absolute time t.

    pipelines[e] holds the flows already sent on edge e+1 but not yet
    arrived, oldest first: pipelines[e][k] = u_{e+1}[t - tau_{e+1} + k].
    All pipelines live back to back in one buffer, `flows`, edge e+1's
    from offset sigma_{e+1}, so one move shifts them all; `pipelines`
    are views into it.  The buffer ends with one 0.0, the flow in transit
    to node N, which has no incoming edge.
    """

    def __init__(self, t: int, z: np.ndarray, flows: np.ndarray, first, last):
        self.t = t
        self.z = z
        self.flows = flows
        # Each pipeline's first (oldest) slot in flows, then node N's closing
        # 0.0: every node's arrival, in node order.
        self._first = first
        self._last = last  # each pipeline's last (newest) slot

    def successor(self, z: np.ndarray, flows: np.ndarray) -> "PlantState":
        """The state one step later, with these levels and flows, same edges."""
        return PlantState(self.t + 1, z, flows, self._first, self._last)

    @functools.cached_property
    def pipelines(self) -> tuple[np.ndarray, ...]:
        return tuple(self.flows[a : b + 1] for a, b in zip(self._first, self._last))

    @staticmethod
    def initial(spec: GraphSpec, z0=None, pipelines0=None) -> "PlantState":
        try:
            z = np.zeros(spec.n) if z0 is None else _read_numbers(z0).copy()
            pipes = (None if pipelines0 is None
                     else [_read_numbers(p) for p in pipelines0])
        except (TypeError, ValueError) as exc:
            raise SpecError(f"initial state is not numeric: {exc}") from None
        if z.shape != (spec.n,):
            raise SpecError(f"initial z has shape {z.shape}, expected ({spec.n},)")
        if not np.isfinite(z).all():
            raise SpecError("initial z has a non-finite entry")
        if pipes is None:
            flows = np.zeros(spec.sigma_total + 1)
        else:
            if [p.shape for p in pipes] != [(t,) for t in spec.tau]:
                raise SpecError("initial pipelines do not match edge delays")
            flows = np.concatenate([*pipes, [0.0]])
            if not np.isfinite(flows).all():
                raise SpecError("initial pipelines have a non-finite entry")
        # Edge e+1's pipeline is flows[sigma_{e+1} : sigma_{e+2}]; the closing
        # 0.0 is flows[sigma_N].
        sigma = np.array(spec.sigma)
        return PlantState(0, z, flows, sigma, sigma[1:] - 1)


@dataclass(frozen=True)
class ControlDecision:
    """Applied flows u_1..u_{N-1} and productions v_1..v_N for one step."""

    u: np.ndarray
    v: np.ndarray


def read_plant_inputs(u, v, d, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, v and d as (n-1,), (n,) and (n,) float arrays by read_number's rule."""
    try:
        u, v, d = _read_numbers(u), _read_numbers(v), _read_numbers(d)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"action or disturbance is not numeric: {exc}") from None
    if u.shape != (n - 1,) or v.shape != (n,) or d.shape != (n,):
        raise SpecError(f"action/disturbance shapes {u.shape}, {v.shape}, {d.shape} "
                        f"do not match n = {n}")
    return u, v, d


def plant_step(
    state: PlantState, action: ControlDecision, d: np.ndarray, spec: GraphSpec
) -> PlantState:
    """Advance the plant one step under the given action and disturbance.

    z_i[t+1] = z_i[t] - u_{i-1}[t] + u_i[t - tau_i] + v_i[t] + d_i[t],
    with the boundary conventions u_0 = u_N = 0.  Each pipeline shifts by
    one slot and admits the newly sent flow.  u, v and d are read by
    read_plant_inputs: text, booleans or a wrong shape raise SpecError,
    and float arrays are taken as they are.
    """
    u, v, d = read_plant_inputs(action.u, action.v, d, spec.n)
    old = state.flows
    # u_{e+1}[t - tau_{e+1}] arrives at node e+1; node N's arrival is the
    # closing 0.0.  Node 1 sends nothing downstream: x - 0.0 is x, bitwise.
    z_next = state.z + old.take(state._first)
    z_next[1:] -= u
    z_next += v
    z_next += d
    flows = np.empty_like(old)
    flows[:-1] = old[1:]  # every pipeline one slot older; newest slots set next
    flows[state._last] = u
    flows[-1] = 0.0
    return state.successor(z_next, flows)


def stage_cost(spec: GraphSpec, z: np.ndarray, v: np.ndarray) -> float:
    q, r = spec.weights
    return float(q.dot(np.square(z)) + r.dot(np.square(v)))


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
