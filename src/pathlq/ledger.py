"""Planned-disturbance schedule and the per-node shifted-sum windows.

Each node i consumes the aggregates D_i[t] = sum_{j<=i} d_j[t - sigma_j].
The ledger stores, per node, the window of D_i values for shifted times
now + sigma_i .. now + sigma_N + H, and maintains it incrementally as
time advances and as new disturbances are announced.

Every stored entry is always the plain ascending-node sum over the
current plan, evaluated in a fixed order, so windows agree bitwise with
a from-scratch recomputation after any interleaving of operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import HorizonViolationError, LedgerRangeError
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
                plan.entries[(node, t)] = plan.entries.get((node, t), 0.0) + float(
                    rec["amount_per_step"]
                )
        return plan

    def get(self, node: int, t: int) -> float:
        return self.entries.get((node, t), 0.0)

    def d_now(self, spec: GraphSpec, t: int) -> np.ndarray:
        return np.array([self.get(i, t) for i in range(1, spec.n + 1)])


def validate_horizon(plan: DisturbancePlan, spec: GraphSpec, now: int = 0) -> None:
    """Check every nonzero entry against the planning-horizon bound.

    Relative to the reference time `now`, node i may only carry planned
    disturbances up to H + (sigma_N - sigma_i) steps ahead.
    """
    for (node, t), value in sorted(plan.entries.items()):
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
    """One neighbor-to-neighbor message of the window-maintenance protocol."""

    kind: str  # "D-shift" (downstream) or "D-update" (upstream)
    src: int
    dst: int
    time: int  # the shifted time the payload refers to
    value: float


class ShiftedWindows:
    """Per-node windows of D_i values anchored at the current time."""

    def __init__(self, spec: GraphSpec, plan: DisturbancePlan, now: int = 0):
        validate_horizon(plan, spec, now)
        self.spec = spec
        self.now = now
        self._win: list[np.ndarray] = []
        for k in range(spec.n):
            lo, hi = self._bounds(k, now)
            self._win.append(
                np.array(
                    [_shifted_sum(plan, spec, k + 1, t) for t in range(lo, hi + 1)]
                )
            )

    def _bounds(self, k: int, now: int) -> tuple[int, int]:
        return now + self.spec.sigma[k], now + self.spec.sigma_total + self.spec.horizon

    def get(self, node: int, t: int) -> float:
        """D_node[t]; raises if t is outside the stored window."""
        k = node - 1
        lo, hi = self._bounds(k, self.now)
        if not (lo <= t <= hi):
            raise LedgerRangeError(
                f"D_{node}[{t}] outside window [{lo}, {hi}] at time {self.now}"
            )
        return float(self._win[k][t - lo])

    def slice(self, node: int, length: int) -> np.ndarray:
        """The first `length` entries D_node[now + sigma_node + 0..length-1]."""
        k = node - 1
        if length > len(self._win[k]):
            raise LedgerRangeError(
                f"window of node {node} holds {len(self._win[k])} entries, "
                f"{length} requested"
            )
        return self._win[k][:length]

    def as_arrays(self) -> list[np.ndarray]:
        return [w.copy() for w in self._win]


def init_shifted_sums(
    plan: DisturbancePlan, spec: GraphSpec, now: int = 0
) -> ShiftedWindows:
    """Windows satisfying D_i[t] = sum_{j<=i} d_j[t - sigma_j] exactly."""
    return ShiftedWindows(spec, plan, now)


def advance_time(
    windows: ShiftedWindows, plan: DisturbancePlan
) -> list[LedgerMessage]:
    """Shift every window one step forward in time.

    Each node's expiring head becomes the downstream neighbor's newest
    usable entry (one downstream message per edge, sent even when zero);
    the last node extends its tail from the plan.  Returns the messages.
    """
    spec = windows.spec
    t0 = windows.now
    messages = []
    for node in range(spec.n, 1, -1):
        k = node - 1
        # Protocol identity: D_{i-1}[t0 + sigma_i] = D_i[t0 + sigma_i] - d_i[t0].
        # The payload is realized as the canonical ascending sum so that
        # stored windows stay bitwise-reproducible.
        t_head = t0 + spec.sigma[k]
        messages.append(
            LedgerMessage(
                kind="D-shift",
                src=node,
                dst=node - 1,
                time=t_head,
                value=_shifted_sum(plan, spec, node - 1, t_head),
            )
        )
    new_now = t0 + 1
    for k in range(spec.n):
        lo, hi = windows._bounds(k, new_now)
        tail = _shifted_sum(plan, spec, k + 1, hi)
        windows._win[k] = np.concatenate([windows._win[k][1:], [tail]])
    windows.now = new_now
    return messages


def apply_plan_updates(
    windows: ShiftedWindows,
    plan: DisturbancePlan,
    changes: Mapping[tuple[int, int], float],
) -> list[LedgerMessage]:
    """Incorporate newly announced disturbance entries.

    `changes` maps (node, absolute time) to the new d value.  Entries must
    lie at or after the current time and inside the horizon bound.  Only
    the affected shifted times are recomputed; the upstream messages the
    protocol would send are returned (none if nothing changed).
    """
    spec = windows.spec
    now = windows.now
    if not changes:
        return []
    for (node, t), _value in sorted(changes.items()):
        if t < now:
            raise HorizonViolationError(node, t, now)
        bound = now + spec.horizon + spec.sigma_total - spec.sigma[node - 1]
        if t > bound and changes[(node, t)] != 0.0:
            raise HorizonViolationError(node, t, bound)
    for (node, t), value in changes.items():
        plan.entries[(node, t)] = value

    # Shifted times whose aggregate changed, per originating node.
    affected: set[int] = set()
    origin: dict[int, int] = {}
    for (node, t) in changes:
        st = t + spec.sigma[node - 1]
        affected.add(st)
        origin[st] = min(origin.get(st, node), node)

    messages = []
    for st in sorted(affected):
        for node in range(origin[st], spec.n + 1):
            k = node - 1
            lo, hi = windows._bounds(k, now)
            if not (lo <= st <= hi):
                break  # out of range for this and every node further up
            windows._win[k][st - lo] = _shifted_sum(plan, spec, node, st)
            if node < spec.n:
                messages.append(
                    LedgerMessage(
                        kind="D-update",
                        src=node,
                        dst=node + 1,
                        time=st,
                        value=float(windows._win[k][st - lo]),
                    )
                )
    return messages
