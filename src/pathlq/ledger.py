"""Planned-disturbance schedule and the per-node shifted-sum windows.

Each node i consumes the aggregates D_i[t] = sum_{j<=i} d_j[t - sigma_j]
over its window of shifted times now + sigma_i .. now + sigma_N + H,
kept up to date as time advances and new disturbances are announced.

Every entry is formed as D_i[s] = D_{i-1}[s] + d_i[s - sigma_i] from
D_0 = 0.0: the fixed ascending-node sum, so windows agree bitwise with a
from-scratch recomputation after any interleaving of operations.  Node i
needs only its own forecast and node i-1's value, so an announced entry
travels upstream, i -> i+1, one D-update message per hop.  A time
advance brings in only zero entries and sends nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import HorizonViolationError, LedgerRangeError, SpecError
from .model import GraphSpec


@dataclass
class DisturbancePlan:
    """Sparse schedule of planned disturbances: (node, time) -> amount."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    @staticmethod
    def from_records(records: Iterable[Mapping]) -> "DisturbancePlan":
        """Build a plan from {node, start_time, end_time, amount_per_step}."""
        plan = DisturbancePlan()
        for rec in records:
            node = int(rec["node"])
            for t in range(int(rec["start_time"]), int(rec["end_time"]) + 1):
                plan.entries[(node, t)] = plan.get(node, t) + float(rec["amount_per_step"])
        return plan

    def get(self, node: int, t: int) -> float:
        return self.entries.get((node, t), 0.0)

    def d_now(self, spec: GraphSpec, t: int) -> np.ndarray:
        return np.array([self.get(i, t) for i in range(1, spec.n + 1)])


def validate_horizon(plan: DisturbancePlan, spec: GraphSpec, now: int = 0) -> None:
    """Check every entry's node, and every nonzero entry against the
    planning-horizon bound.

    Relative to the reference time `now`, node i may only carry planned
    disturbances up to H + (sigma_N - sigma_i) steps ahead.
    """
    for (node, t), value in sorted(plan.entries.items()):
        if not 1 <= node <= spec.n:
            raise SpecError(f"disturbance at node {node}: nodes are 1..{spec.n}")
        if value == 0.0:
            continue
        bound = now + spec.horizon + spec.sigma_total - spec.sigma[node - 1]
        if t > bound:
            raise HorizonViolationError(node, t, bound)


def _shifted_sum(plan: DisturbancePlan, spec: GraphSpec, i: int, t: int) -> float:
    """D_i[t] as the fixed ascending-node sum (the one canonical order)."""
    total = 0.0
    for j in range(1, i + 1):
        key = (j, t - spec.sigma[j - 1])
        if key in plan.entries:
            total += plan.entries[key]
    return total


@dataclass
class LedgerMessage:
    """One D-update message, upstream from node src = i to dst = i+1."""

    src: int
    dst: int
    time: int  # the shifted time the payload refers to
    value: float


class ShiftedWindows:
    """Per-node windows of D_i values anchored at the current time.

    Row k of one (N, sigma_N + H + 1) array holds D_{k+1} at shifted
    times now + column; node k+1's window is the row from column sigma_k.
    """

    def __init__(self, spec: GraphSpec, plan: DisturbancePlan, now: int = 0):
        validate_horizon(plan, spec, now)
        self.spec = spec
        self.now = now
        width = spec.sigma_total + spec.horizon + 1
        # d_node by shifted time under a D_0 = 0.0 row: a lone -0.0 sums to 0.0.
        aligned = np.zeros((spec.n + 1, width))
        for (node, t), value in plan.entries.items():
            if 0 <= t - now < width - spec.sigma[node - 1]:
                aligned[node, t - now + spec.sigma[node - 1]] = value
        self._D = np.cumsum(aligned, axis=0)[1:]
        self._rows = np.arange(spec.n)[:, None]

    def slice(self, node: int, length: int) -> np.ndarray:
        """The first `length` entries D_node[now + sigma_node + 0..length-1]."""
        lo = self.spec.sigma[node - 1]
        held = self._D.shape[1] - lo
        if length > held:
            raise LedgerRangeError(
                f"window of node {node} holds {held} entries, {length} requested"
            )
        return self._D[node - 1, lo : lo + length]

    def gather(self, cols: np.ndarray) -> np.ndarray:
        """Entries of every node's row in one index: out[k, j] is
        D_{k+1}[now + cols[k, j]]; node k+1's window starts at column
        sigma_{k+1}."""
        try:
            return self._D[self._rows, cols]
        except IndexError:
            raise LedgerRangeError(
                f"windows end at column {self._D.shape[1] - 1}, "
                f"column {cols.max()} requested"
            ) from None

    def as_arrays(self) -> list[np.ndarray]:
        return [row[lo:].copy() for row, lo in zip(self._D, self.spec.sigma)]


def init_shifted_sums(
    plan: DisturbancePlan, spec: GraphSpec, now: int = 0
) -> ShiftedWindows:
    """Windows satisfying D_i[t] = sum_{j<=i} d_j[t - sigma_j] exactly."""
    return ShiftedWindows(spec, plan, now)


def advance_time(windows: ShiftedWindows) -> list[LedgerMessage]:
    """Shift every window one step forward in time; returns no messages."""
    flat = windows._D.reshape(-1)  # a view: D is C-contiguous
    flat[:-1] = flat[1:]  # one move shifts every row
    # The new tail's entries lie past every bound validate_horizon checked
    # (at set-up and in apply_plan_updates), so are zero: D_0 + (+-0.0) = +0.0.
    windows._D[:, -1] = 0.0
    windows.now += 1
    return []


def apply_plan_updates(
    windows: ShiftedWindows,
    plan: DisturbancePlan,
    changes: Mapping[tuple[int, int], float],
) -> list[LedgerMessage]:
    """Incorporate newly announced disturbance entries.

    `changes` maps (node, absolute time) to the new d value.  Entries must
    lie at or after the current time and inside the horizon bound.  Each
    changed shifted time is formed again from its lowest changed node
    upward, one addition per hop; returns the upstream messages.
    """
    spec = windows.spec
    now = windows.now
    validate_horizon(DisturbancePlan(dict(changes)), spec, now)
    origin: dict[int, int] = {}  # shifted time -> lowest changed node
    for node, t in sorted(changes):
        if t < now:
            raise HorizonViolationError(node, t, now)
        origin.setdefault(t + spec.sigma[node - 1], node)
    plan.entries.update(changes)
    D = windows._D
    messages = []
    for st in sorted(origin):
        c = st - now
        for k in range(origin[st] - 1, spec.n):
            if not spec.sigma[k] <= c < D.shape[1]:
                break  # out of range for this and every node further up
            D[k, c] = (D[k - 1, c] if k else 0.0) + plan.get(k + 1, st - spec.sigma[k])
            if k + 1 < spec.n:
                messages.append(LedgerMessage(k + 1, k + 2, st, float(D[k, c])))
    return messages
