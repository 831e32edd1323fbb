"""Planned-disturbance schedule and the per-node shifted-sum windows.

Each node i consumes the aggregates D_i[t] = sum_{j<=i} d_j[t - sigma_j]
over its window of shifted times now + sigma_i .. now + sigma_N + H,
kept up to date as time advances and new disturbances are announced.

Every entry is formed as D_i[s] = D_{i-1}[s] + d_i[s - sigma_i] from
D_0 = 0.0: the fixed ascending-node sum, so windows agree bitwise with a
from-scratch recomputation after any interleaving of operations.  Node i
needs only its own forecast and node i-1's value, so an announced entry
travels upstream, i -> i+1, one D-update message per hop.  The update
forms each changed shifted time as one column run: a running sum of
Python floats from the lowest changed node up to the last node whose
window holds that time, written back in one slice assignment.  A time
advance brings in only zero entries and sends nothing, at amortized O(N)
cost: the windows are a view sliding along a buffer twice their size.
The rules a planned entry must meet are stated once, in check_placement.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import HorizonViolationError, LedgerRangeError, SpecError
from .model import GraphSpec, read_number, read_whole

RECORD_FIELDS = {"node": read_whole, "start_time": read_whole, "end_time": read_whole,
                 "amount_per_step": read_number}


@dataclass
class DisturbancePlan:
    """Sparse schedule of planned disturbances: (node, time) -> amount."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    @staticmethod
    def from_records(records: Iterable[Mapping]) -> "DisturbancePlan":
        """Build a plan from records of the RECORD_FIELDS, each read by its
        reader; SpecError names records that are not iterable, the first
        record that is not a mapping, the first field that fails, or
        start > end."""
        if not isinstance(records, Iterable):
            raise SpecError(f"disturbance records {records!r} are not iterable")
        plan = DisturbancePlan()
        for i, rec in enumerate(records):
            if not isinstance(rec, Mapping):
                raise SpecError(f"disturbance record {i}: {rec!r} is not a mapping")
            node, start, end, amount = values = [
                read(rec.get(name)) for name, read in RECORD_FIELDS.items()]
            for name, x in zip(RECORD_FIELDS, values):
                if x is None:
                    what = "a number" if name == "amount_per_step" else "a whole number"
                    raise SpecError(f"disturbance record {i}: {name} = "
                                    f"{rec.get(name)!r} is not {what}")
            if start > end:
                raise SpecError(f"disturbance record {i}: start_time = {start} "
                                f"is after end_time = {end}")
            for t in range(start, end + 1):
                plan.entries[(node, t)] = plan.get(node, t) + amount
        return plan

    def get(self, node: int, t: int) -> float:
        return self.entries.get((node, t), 0.0)

    def d_now(self, spec: GraphSpec, t: int) -> np.ndarray:
        return np.array([self.get(i, t) for i in range(1, spec.n + 1)])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, times and amounts of the entries, in insertion order, each
        amount as float() reads it.

        Raises SpecError for the first entry that check_entry rejects; the
        rules for what the entries hold are check_placement's.  One
        strict zip splits the keys into nodes and times, so a key that is
        not a pair fails it, one call converts each column and one every
        amount; the entries are checked one by one only when any of these
        fails or reads an amount as NaN, as numpy reads None.
        """
        entries = self.entries
        try:
            nodes, times = zip(*entries, strict=True) if entries else ((), ())
            nodes, times = array("q", nodes), array("q", times)
            values = np.fromiter(entries.values(), float, len(entries))
        except (TypeError, ValueError, OverflowError):
            values = None
        if values is None or np.isnan(values).any():
            values = np.array(
                [check_entry(key, amount) for key, amount in entries.items()], float
            )
        return np.frombuffer(nodes, np.int64), np.frombuffer(times, np.int64), values


def check_entry(key, amount) -> float:
    """The amount as float(amount) reads it.  Raises SpecError unless key is
    a (node, time) pair of integers that fit in 64 bits, each an int or a
    numpy integer, and float() reads the amount."""
    try:
        node, t = key
        array("q", (node, t))  # converted as arrays() converts every key
    except (TypeError, ValueError, OverflowError):
        raise SpecError(
            f"disturbance key {key!r} is not a (node, time) pair of integers "
            f"within 64 bits (amount {amount!r})"
        ) from None
    try:
        return float(amount)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(
            f"disturbance at node {node}, time {t} is {amount!r}: "
            "not readable as a float"
        ) from None


def check_placement(spec: GraphSpec, node, t, amount: float, now=None) -> None:
    """The rules for a planned entry d_node[t] = amount, stated once.

    Raises SpecError for a node outside 1..n or an amount that is not
    finite and, given the reference time `now`, HorizonViolationError for
    a nonzero amount after now + sigma_N + H - sigma_node, the last time
    node's window holds.  Entries before `now` are the caller's concern.
    """
    if not 1 <= node <= spec.n:
        raise SpecError(f"disturbance at node {node}: nodes are 1..{spec.n}")
    if not math.isfinite(amount):
        raise SpecError(f"disturbance at node {node}, time {t} is {amount}")
    if now is not None and amount != 0.0:
        latest = now + spec.sigma[-1] + spec.horizon - spec.sigma[node - 1]
        if t > latest:
            raise HorizonViolationError(node, t, latest)


def validate_horizon(plan: DisturbancePlan, spec: GraphSpec, now=0, arrays=None):
    """plan.arrays() and the entries' window columns, after check_placement
    has raised for the first offending entry in (node, t) order.

    Entry (i, t) lies at column t - now + sigma_i of node i's window, past
    the bound from column W = sigma_N + H + 1 on.  With now=None no bound
    is checked and no columns are formed: the columns come back as None.
    A caller that holds plan.arrays() already passes them as `arrays`.
    """
    nodes, times, values = plan.arrays() if arrays is None else arrays
    bad = (nodes < 1) | (nodes > spec.n) | ~np.isfinite(values)
    cols = None
    if now is not None:
        # A node outside 1..n reads a clipped sigma; it is flagged already.
        cols = times - now + np.array(spec.sigma).take(nodes - 1, mode="clip")
        bad |= (cols > spec.sigma_total + spec.horizon) & (values != 0.0)
    if bad.any():
        idx = np.flatnonzero(bad)
        i = idx[np.lexsort((times[idx], nodes[idx]))[0]]
        check_placement(spec, int(nodes[i]), int(times[i]), float(values[i]), now)
    return nodes, times, values, cols


class ShiftedWindows:
    """Per-node windows of D_i values anchored at the current time.

    Row i of the (N+1, W) view `_D` of `_buf` holds D_i at shifted times
    now + column (row 0: D_0 = 0.0); node i's window is row i from sigma_i.
    """

    def __init__(
        self, spec: GraphSpec, plan: DisturbancePlan, now: int = 0, arrays=None
    ):
        nodes, times, values, cols = validate_horizon(plan, spec, now, arrays)
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
        if not 1 <= node <= self.spec.n:
            raise LedgerRangeError(f"no node {node}: nodes are 1..{self.spec.n}")
        lo = self.spec.sigma[node - 1]
        held = self._D.shape[1] - lo
        if not (type(length) is int or isinstance(length, np.integer)):
            raise LedgerRangeError(f"window length {length!r} must be an integer")
        if not 0 <= length <= held:
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
    plan: DisturbancePlan, spec: GraphSpec, now: int = 0, arrays=None
) -> ShiftedWindows:
    """Windows satisfying D_i[t] = sum_{j<=i} d_j[t - sigma_j] exactly.

    `arrays`, if given, is plan.arrays(), already computed by the caller;
    entries before `now` may be left out of it."""
    return ShiftedWindows(spec, plan, now, arrays)


def advance_time(windows: ShiftedWindows) -> list:
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
) -> list[tuple[int, int, int, float]]:
    """Incorporate newly announced disturbance entries.

    `changes` maps (node, absolute time) to the new d value, which the plan
    stores as float() reads it.  Entries must lie at or after the current
    time and inside the horizon bound.  Each changed shifted time is formed
    again from its lowest changed node upward, one addition and one
    message per hop; returns the upstream messages as (src, dst, shifted
    time, value): node i sends D_i to i+1.
    """
    spec = windows.spec
    now = windows.now
    width = windows._D.shape[1]
    origin: dict[int, int] = {}  # shifted time -> lowest changed node
    # Checked entry by entry, in (node, t) order as the set-up screen
    # reports: at ~10 changes a step numpy's per-call cost exceeds a loop's.
    try:
        keys = sorted(changes)
    except TypeError:
        keys = list(changes)  # one key is no integer pair; check_entry names it
    amounts = {}
    for key in keys:
        amount = amounts[key] = check_entry(key, changes[key])
        node, t = key
        check_placement(spec, node, t, amount, now)
        if t < now:
            raise HorizonViolationError(node, t, now)
        origin.setdefault(t + spec.sigma[node - 1], node)
    plan.entries.update(amounts)
    D, sigma, get, n = windows._D, spec.sigma, plan.entries.get, spec.n
    messages = []
    for st in sorted(origin):
        c = st - now
        if c >= width:
            continue  # a zero entry past the bound: nothing is held there
        # Nodes lo..hi hold column c: sigma_lo <= c by the checks above,
        # and hi is the last node with sigma_hi <= c.
        lo, hi = origin[st], bisect_right(sigma, c)
        acc = float(D[lo - 1, c])
        vals = []
        for i in range(lo, hi + 1):
            acc += get((i, st - sigma[i - 1]), 0.0)
            vals.append(acc)
            if i < n:
                messages.append((i, i + 1, st, acc))
        D[lo : hi + 1, c] = vals
    return messages
