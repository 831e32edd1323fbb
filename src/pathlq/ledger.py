"""Planned-disturbance schedule and the per-node shifted-sum windows.

Each node i consumes the aggregates D_i[t] = sum_{j<=i} d_j[t - sigma_j]
over its window of shifted times now + sigma_i .. now + sigma_N + H,
kept up to date as time advances and new disturbances are announced.

Every entry is formed as D_i[s] = D_{i-1}[s] + d_i[s - sigma_i] from
D_0 = 0.0: the fixed ascending-node sum, so windows agree bitwise with a
from-scratch recomputation after any interleaving of operations.  Node i
needs only its own forecast and node i-1's value, so an announced entry
travels upstream, i -> i+1, one D-update message per hop.  A time
advance brings in only zero entries and sends nothing, at amortized O(N)
cost: the windows are a view sliding along a buffer twice their size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
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

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, times and amounts of the entries, in insertion order."""
        count = len(self.entries)
        keys = np.fromiter(chain.from_iterable(self.entries), np.int64, 2 * count)
        values = np.fromiter(self.entries.values(), float, count)
        return keys[0::2], keys[1::2], values


def raise_first_offence(spec: GraphSpec, nodes, times, flagged, error) -> None:
    """Raise for the first entry, in (node, t) order, whose node lies
    outside 1..n (SpecError) or which `flagged` marks (`error(index)`)."""
    bad_node = (nodes < 1) | (nodes > spec.n)
    bad = bad_node | flagged
    if bad.any():
        idx = np.flatnonzero(bad)
        i = idx[np.lexsort((times[idx], nodes[idx]))[0]]
        if bad_node[i]:
            raise SpecError(f"disturbance at node {nodes[i]}: nodes are 1..{spec.n}")
        raise error(i)


def nonfinite_entry(node, t, value) -> SpecError:
    """The error for a planned disturbance that is NaN or infinite."""
    return SpecError(f"disturbance at node {node}, time {t} is {value}")


def validate_horizon(plan: DisturbancePlan, spec: GraphSpec, now: int = 0):
    """Check every entry's node and finiteness, and every nonzero entry
    against the planning-horizon bound.

    Relative to the reference time `now`, node i may only carry planned
    disturbances up to H + (sigma_N - sigma_i) steps ahead: entry (i, t)
    lies at window column t - now + sigma_i, past the bound from column
    W = sigma_N + H + 1 on.  Returns plan.arrays() and those columns.
    """
    nodes, times, values = plan.arrays()
    width = spec.sigma_total + spec.horizon + 1
    # A node outside 1..n reads a clipped sigma; its SpecError comes first.
    cols = times - now + np.array(spec.sigma).take(nodes - 1, mode="clip")
    finite = np.isfinite(values)
    raise_first_offence(
        spec, nodes, times, ~finite | ((cols >= width) & (values != 0.0)),
        lambda i: HorizonViolationError(
            int(nodes[i]), int(times[i]), int(times[i] - cols[i]) + width - 1
        ) if finite[i] else nonfinite_entry(nodes[i], times[i], values[i]),
    )
    return nodes, times, values, cols


@dataclass
class LedgerMessage:
    """One D-update message, upstream from node src = i to dst = i+1."""

    src: int
    dst: int
    time: int  # the shifted time the payload refers to
    value: float


class ShiftedWindows:
    """Per-node windows of D_i values anchored at the current time.

    Row i of the (N+1, W) view `_D` of `_buf` holds D_i at shifted times
    now + column (row 0: D_0 = 0.0); node i's window is row i from sigma_i.
    """

    def __init__(self, spec: GraphSpec, plan: DisturbancePlan, now: int = 0):
        nodes, times, values, cols = validate_horizon(plan, spec, now)
        self.spec = spec
        self.now = now
        width = spec.sigma_total + spec.horizon + 1
        self._buf, self._off = np.zeros((spec.n + 1, 2 * width)), 0
        # Summed in place under the D_0 = 0.0 row: a lone -0.0 sums to 0.0.
        front = self._buf[:, :width]
        held = (times >= now) & (cols < width)
        front[nodes[held], cols[held]] = values[held]
        self._D = np.add.accumulate(front, axis=0, out=front)
        self._rows = np.arange(1, spec.n + 1)[:, None]

    def slice(self, node: int, length: int) -> np.ndarray:
        """The first `length` entries D_node[now + sigma_node + 0..length-1]."""
        lo = self.spec.sigma[node - 1]
        held = self._D.shape[1] - lo
        if length > held:
            raise LedgerRangeError(
                f"window of node {node} holds {held} entries, {length} requested"
            )
        return self._D[node, lo : lo + length]

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


def init_shifted_sums(
    plan: DisturbancePlan, spec: GraphSpec, now: int = 0
) -> ShiftedWindows:
    """Windows satisfying D_i[t] = sum_{j<=i} d_j[t - sigma_j] exactly."""
    return ShiftedWindows(spec, plan, now)


def advance_time(windows: ShiftedWindows) -> list[LedgerMessage]:
    """Move every window one step forward in time; returns no messages.

    The view slides one column; every W = sigma_N + H + 1 steps, one
    O(N*W) copy moves it back to the buffer's front: amortized O(N).  The
    +0.0 column it takes in is exact: its entries lie past every bound.
    """
    buf, width, off = windows._buf, windows._D.shape[1], windows._off + 1
    if off == width:
        buf[:, :width] = buf[:, width:]
        buf[:, width:], off = 0.0, 0
    windows._off, windows._D = off, buf[:, off : off + width]
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
    width = windows._D.shape[1]
    origin: dict[int, int] = {}  # shifted time -> lowest changed node
    # validate_horizon's checks, entry by entry: at ~10 changes a step
    # numpy's per-call cost exceeds this loop's.
    for node, t in sorted(changes):
        if not 1 <= node <= spec.n:
            raise SpecError(f"disturbance at node {node}: nodes are 1..{spec.n}")
        if not math.isfinite(changes[node, t]):
            raise nonfinite_entry(node, t, changes[node, t])
        if t < now:
            raise HorizonViolationError(node, t, now)
        st = t + spec.sigma[node - 1]
        if st - now >= width and changes[node, t] != 0.0:
            raise HorizonViolationError(node, t, now + width - 1 - spec.sigma[node - 1])
        origin.setdefault(st, node)
    plan.entries.update(changes)
    D = windows._D
    messages = []
    for st in sorted(origin):
        c = st - now
        for i in range(origin[st], spec.n + 1):
            if not spec.sigma[i - 1] <= c < width:
                break  # out of range for this and every node further up
            D[i, c] = D[i - 1, c] + plan.get(i, st - spec.sigma[i - 1])
            if i < spec.n:
                messages.append(LedgerMessage(i, i + 1, st, float(D[i, c])))
    return messages
