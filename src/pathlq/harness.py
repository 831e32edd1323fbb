"""Message-passing execution of the two-sweep control law.

MessagePassing is the executor: it holds the nodes (each its parameter
slice), the links between neighbors, which it can take down, the round
counter, the message log and the scheduler's rng.  A control round reads
the step's four per-node measurement columns, each node's tasks only its
own entry, and runs the upstream (delta) and downstream (mu) chains
concurrently under a randomized scheduler; decisions must be independent
of the interleaving and bit-identical to the sequential controller, which
applies the same formulas to all nodes at once over packed parameter
tables.

This is an in-process simulation with explicit queues, not network I/O:
neighbor-only communication is enforced by construction and audited
through the message log.
"""

from __future__ import annotations

import csv
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    combine_delta,
    combine_mu,
    local_flow,
    local_phi,
    local_pi,
    local_production,
    step_inputs,
)
from .errors import RoundAbortError
from .ledger import DisturbancePlan
from .model import ControlDecision, GraphSpec, read_whole
from .simulate import closed_loop
from .synthesis import ControllerParams


@dataclass(slots=True)
class Message:
    round: int
    src: int
    dst: int
    kind: str  # "delta" | "mu" | "D-update"
    value: float
    time: int | None = None  # shifted time of a ledger payload


# dst - src of each kind: delta and the ledger traffic go upstream, mu downstream.
DIRECTION = {"delta": 1, "mu": -1, "D-update": 1}


@dataclass
class MessageLog:
    records: list[Message] = field(default_factory=list)

    def append(self, msg: Message) -> None:
        self.records.append(msg)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "from", "to", "kind", "value"])
            for m in self.records:
                writer.writerow([m.round, m.src, m.dst, m.kind, repr(float(m.value))])


class MessagePassing:
    """closed_loop executor: every step is one message-passing round on a
    path of nodes, node k+1 being params[k], with failable neighbor links.

    Logs each round's sweep messages and the D-update messages the loop
    hands over, each under the round it precedes.
    """

    def __init__(self, spec: GraphSpec, params: ControllerParams,
                 rng: np.random.Generator | None = None):
        params.require_spec(spec)
        if rng is not None and not isinstance(rng, np.random.Generator):
            raise TypeError(f"rng must be a numpy Generator or None, "
                            f"not {type(rng).__name__}")
        self.n = spec.n
        self.params = [params.node_slice(k) for k in range(spec.n)]
        self.failed_links: set[frozenset] = set()
        self.round = 0
        self.log = MessageLog()
        self.rng = rng

    def fail_link(self, a: int, b: int) -> None:
        """Take down the edge between nodes a and b; a round that sends
        over it aborts."""
        ends = read_whole(a), read_whole(b)
        if None in ends or abs(ends[0] - ends[1]) != 1 or not 1 <= min(ends) < self.n:
            raise ValueError(f"{a} <-> {b} is not an edge of a path of {self.n} nodes")
        self.failed_links.add(frozenset(ends))

    def restore_links(self) -> None:
        self.failed_links.clear()

    def _check_link(self, src: int, dst: int) -> None:
        if frozenset((src, dst)) in self.failed_links:
            raise RoundAbortError(f"link {src} <-> {dst} is down; round aborted")

    def decide(self, state, windows, d_now, params) -> ControlDecision:
        flows, dwin, d_last = step_inputs(state, windows, params)
        uvals, dwin = flows.tolist(), dwin.tolist()
        # Node N has no incoming edge, and its window spans the horizon.
        uvals[-1], dwin[-1] = [0.0] * params.tau_eff[-1], d_last.tolist()
        return run_control_round(self, (state.z.tolist(), uvals, dwin, d_now.tolist()))

    def ledger(self, messages: list[tuple[int, int, int, float]]) -> None:
        rnd, append = self.round, self.log.append
        for src, dst, time, value in messages:
            append(Message(rnd, src, dst, "D-update", value, time))


def run_control_round(executor: MessagePassing, measurements) -> ControlDecision:
    """One sample period of `executor`: both sweeps, then local outputs.

    `measurements` is four per-node columns of Python floats and lists of
    them: z, in-transit flows oldest first (uvals), shifted-disturbance
    slices (dwin) and current local disturbances (d); a column without N
    entries raises ValueError naming it.  Rows start at delay slot 0; one
    past tau_eff repeats its last slot and is never read.  Node k+1's
    tasks read entry k of `executor.params` and of each column.
    Decisions do not depend on the interleaving of the two chains.

    Chain c of node k+1 is slot 2k + c: chain 0 folds Phi and sends
    delta up the path, chain 1 folds pi and sends mu down it.  The round
    keeps three lists indexed by slot: `fold` (the local fold), `inbox`
    (the value received; node 1's delta_0 and node N's mu_{N+1} are 0.0)
    and `sent` (the fold combined with the inbox, sent on to the slot two
    places up or down).  The ready list `slots` is sorted and holds a
    slot while its chain has a task whose inputs have all arrived.  Each
    task runs `slots[i]` and then removes and inserts at most one slot
    each, so a round is 4N tasks and O(N) work.  The schedule is one
    float u in [0, 1) per task, from one `executor.rng.random(4 * N)`
    batch drawn at the start of the round: the task runs
    `slots[int(u * len(slots))]`.  Each round thus advances the rng by
    exactly 4N doubles, also when a downed link aborts it, and one rng
    stream always gives the same schedule and message log.  Without an
    rng every task runs `slots[0]` and nothing is drawn.  Messages go to
    `executor.log` under its round number, which an aborted round still
    takes, so a retry logs under the next one.
    """
    params, n, rnd, rng = executor.params, executor.n, executor.round, executor.rng
    z, uvals, dwin, d = measurements
    for name, column in zip(("z", "uvals", "dwin", "d"), measurements):
        if len(column) != n:
            side = "shorter" if len(column) < n else "longer"
            raise ValueError(f"measurement column {name} is {side} than the path: "
                             f"{len(column)} entries for {n} nodes")
    kinds, hops = ("delta", "mu"), (DIRECTION["delta"], DIRECTION["mu"])
    local_folds, combines = (local_phi, local_pi), (combine_delta, combine_mu)
    fold, inbox, sent = [None] * (2 * n), [None] * (2 * n), [None] * (2 * n)
    inbox[0] = inbox[-1] = 0.0
    slots = list(range(2 * n))
    append, failed = executor.log.records.append, executor.failed_links
    draws = rng.random(4 * n).tolist() if rng is not None else [0.0] * (4 * n)
    try:
        for u in draws:
            i = int(u * len(slots))
            s = slots[i]
            c, k = s & 1, s >> 1
            if fold[s] is None:
                fold[s] = local_folds[c](params[k], z[k], uvals[k], dwin[k])
                if inbox[s] is None:
                    del slots[i]
                continue
            sent[s] = value = combines[c](params[k], fold[s], inbox[s])
            del slots[i]
            # A send logs the message and hands its value to the neighbor,
            # whose chain becomes ready if its local fold is done.  Sends go
            # to neighbors only, so a downed edge is all that can stop one.
            dst = k + hops[c]
            if 0 <= dst < n:
                if failed:
                    executor._check_link(k + 1, dst + 1)
                append(Message(rnd, k + 1, dst + 1, kinds[c], value))
                to = 2 * dst + c
                inbox[to] = value
                if fold[to] is not None:
                    insort(slots, to)
    finally:
        executor.round += 1

    delta, mu = inbox[::2], sent[1::2]  # node k+1 got delta_k and sent mu_{k+1}
    flows = [local_flow(params[k], z[k], uvals[k][0], dwin[k][0], delta[k], mu[k], d[k])
             for k in range(1, n)]  # node 1 releases no flow
    v = np.array(list(map(local_production, params, delta, mu)))
    return ControlDecision(u=np.array(flows, dtype=float), v=v)


@dataclass
class AuditReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def audit_message_log(log: MessageLog, spec: GraphSpec) -> AuditReport:
    """Check links, directions and chain causality on a message log.

    Every message goes to a neighbor inside 1..n, in its kind's direction.
    A chain is the messages of one kind in one round (and, for the ledger,
    about one shifted time); in it, a node's message must come after the
    one it received.
    """
    violations = []
    by_round: dict[int, list[Message]] = {}
    for m in log.records:
        if abs(m.src - m.dst) != 1 or not 1 <= min(m.src, m.dst) < spec.n:
            violations.append(f"non-neighbor message {m.src} -> {m.dst} ({m.kind})")
        elif m.kind not in DIRECTION:
            violations.append(f"unknown kind {m.kind}, {m.src} -> {m.dst}")
        elif m.dst - m.src != DIRECTION[m.kind]:
            violations.append(f"{m.kind} sent the wrong way, {m.src} -> {m.dst}")
        by_round.setdefault(m.round, []).append(m)
    for rnd, msgs in by_round.items():
        received = {(m.kind, m.time, m.dst): pos for pos, m in enumerate(msgs)}
        for pos, m in enumerate(msgs):
            if received.get((m.kind, m.time, m.src), -1) > pos:
                violations.append(
                    f"round {rnd}: {m.kind} from {m.src} before {m.kind} to {m.src}"
                )
    return AuditReport(ok=not violations, violations=violations)


def run_closed_loop(
    spec: GraphSpec,
    params: ControllerParams,
    plan: DisturbancePlan,
    steps: int,
    z0=None,
    pipelines0=None,
    rng: np.random.Generator | None = None,
) -> tuple[list[ControlDecision], MessageLog, float]:
    """Full-plan closed loop by message passing, logging all traffic.

    Other announcement modes: closed_loop(..., executor=MessagePassing(...)).
    """
    executor = MessagePassing(spec, params, rng=rng)
    res = closed_loop(spec, params, plan, steps, z0, pipelines0, executor=executor)
    return res.decisions, executor.log, res.total_cost
