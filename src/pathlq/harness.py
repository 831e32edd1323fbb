"""Message-passing execution of the two-sweep control law.

Each node is an isolated unit holding only its own parameter slice,
its own measurements, and two neighbor links.  A control round runs the
upstream (delta) and downstream (mu) chains concurrently under a
randomized scheduler; decisions must be independent of the interleaving
and bit-identical to the sequential controller, which applies the same
formulas to all nodes at once over packed parameter tables.

This is an in-process simulation with explicit queues, not network I/O:
isolation and neighbor-only communication are enforced by construction
and audited through the message log.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .controller import (
    combine_delta,
    combine_mu,
    local_flow,
    local_phi,
    local_pi,
    local_production,
)
from .errors import RoundAbortError
from .ledger import DisturbancePlan, LedgerMessage
from .model import ControlDecision, GraphSpec
from .simulate import closed_loop
from .synthesis import ControllerParams, NodeParams


@dataclass
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
                writer.writerow([m.round, m.src, m.dst, m.kind, repr(m.value)])


@dataclass
class NodeUnit:
    """One controller node: local parameter slice and local measurements."""

    params: NodeParams
    z: float = 0.0
    uvals: np.ndarray | None = None
    dwin: np.ndarray | None = None
    d: float = 0.0
    # sweep intermediates
    phi_val: float | None = None
    pi_val: float | None = None
    delta: float | None = None
    mu: float | None = None
    delta_prev: float | None = None
    mu_next: float | None = None

    @property
    def index(self) -> int:
        return self.params.index

    def reset(self, z: float, uvals: np.ndarray, dwin: np.ndarray, d: float) -> None:
        self.z = float(z)
        self.uvals = np.asarray(uvals, dtype=float)
        self.dwin = np.asarray(dwin, dtype=float)
        self.d = float(d)
        self.phi_val = self.pi_val = self.delta = self.mu = None
        self.delta_prev = 0.0 if self.index == 1 else None
        self.mu_next = None  # set to 0.0 for the last node by the network

    def outputs(self) -> tuple[float | None, float]:
        """(flow released downstream or None for node 1, production)."""
        v = local_production(self.params, self.delta_prev, self.mu)
        if self.index == 1:
            return None, v
        u = local_flow(
            self.params, self.z, float(self.uvals[0]), float(self.dwin[0]),
            self.delta_prev, self.mu, self.d,
        )
        return u, v


class Network:
    """A path of node units with failable neighbor links."""

    def __init__(self, spec: GraphSpec, params: ControllerParams):
        self.spec = spec
        self.n = spec.n
        self.nodes = [NodeUnit(params=params.node_slice(k)) for k in range(spec.n)]
        self.failed_links: set[frozenset] = set()
        self.round = 0

    def fail_link(self, a: int, b: int) -> None:
        self.failed_links.add(frozenset((a, b)))

    def restore_links(self) -> None:
        self.failed_links.clear()

    def _check_link(self, src: int, dst: int) -> None:
        if abs(src - dst) != 1:
            raise RoundAbortError(f"non-neighbor send {src} -> {dst}")
        if self.failed_links and frozenset((src, dst)) in self.failed_links:
            raise RoundAbortError(f"link {src} <-> {dst} is down; round aborted")


def run_control_round(
    network: Network,
    measurements: Iterable[tuple[float, np.ndarray, np.ndarray, float]],
    log: MessageLog | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ControlDecision, MessageLog]:
    """One sample period: both sweeps, then local outputs.

    `measurements` supplies per node (z_i, in-transit flows oldest first,
    shifted-disturbance slice, current local disturbance).  Decisions do
    not depend on the interleaving of the two chains.

    The ready list `slots` is sorted: slot 2k is node k+1's phi -> delta
    chain and slot 2k+1 its pi -> mu chain (node-major, phi/delta first),
    present while that chain has a task whose inputs have all arrived.
    Each task runs `slots[rng.integers(len(slots))]`, or `slots[0]`
    without an rng, then removes and inserts at most one slot each, so
    a round is 4N tasks and O(N) work, and one rng stream always gives
    the same schedule and message log.
    """
    if log is None:
        log = MessageLog()
    nodes = network.nodes
    n = network.n
    rnd = network.round
    for node, (z, uvals, dwin, d) in zip(nodes, measurements):
        node.reset(z, uvals, dwin, d)
    nodes[-1].mu_next = 0.0
    slots = list(range(2 * n))

    def send(src: int, dst: int, kind: str, value: float) -> None:
        network._check_link(src, dst)
        log.append(Message(round=rnd, src=src, dst=dst, kind=kind, value=value))
        node = nodes[dst - 1]
        if kind == "delta":
            node.delta_prev = value
            if node.phi_val is not None:
                bisect.insort(slots, 2 * dst - 2)
        else:
            node.mu_next = value
            if node.pi_val is not None:
                bisect.insort(slots, 2 * dst - 1)

    while slots:
        i = int(rng.integers(len(slots))) if rng is not None else 0
        k, mu_chain = divmod(slots[i], 2)
        node = nodes[k]
        if not mu_chain and node.phi_val is None:
            node.phi_val = local_phi(node.params, node.z, node.uvals, node.dwin)
            if node.delta_prev is None:
                del slots[i]
        elif not mu_chain:
            node.delta = combine_delta(node.params, node.phi_val, node.delta_prev)
            del slots[i]
            if k + 1 < n:
                send(k + 1, k + 2, "delta", node.delta)
        elif node.pi_val is None:
            node.pi_val = local_pi(node.params, node.z, node.uvals, node.dwin)
            if node.mu_next is None:
                del slots[i]
        else:
            node.mu = combine_mu(node.params, node.pi_val, node.mu_next)
            del slots[i]
            if k > 0:
                send(k + 1, k, "mu", node.mu)

    u = np.zeros(max(n - 1, 0))
    v = np.empty(n)
    for k, node in enumerate(nodes):
        flow, prod = node.outputs()
        v[k] = prod
        if flow is not None:
            u[k - 1] = flow
    network.round += 1
    return ControlDecision(u=u, v=v), log


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


@dataclass
class MessagePassing:
    """closed_loop executor: every step is one message-passing round.

    Logs the sweep messages of each round and the D-update messages the
    loop hands over, each under the round it precedes.
    """

    network: Network
    log: MessageLog = field(default_factory=MessageLog)
    rng: np.random.Generator | None = None

    def decide(self, state, windows, d_now, params) -> ControlDecision:
        n = self.network.n
        meas = []
        for k in range(n):
            uvals = state.pipelines[k] if k < n - 1 else np.zeros(params.tau_eff[k])
            meas.append(
                (state.z[k], uvals, windows.slice(k + 1, params.tau_eff[k]), d_now[k])
            )
        decision, _ = run_control_round(self.network, meas, log=self.log, rng=self.rng)
        return decision

    def ledger(self, messages: list[LedgerMessage]) -> None:
        rnd = self.network.round
        for m in messages:
            self.log.append(Message(rnd, m.src, m.dst, "D-update", m.value, m.time))


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
    executor = MessagePassing(Network(spec, params), rng=rng)
    res = closed_loop(spec, params, plan, steps, z0, pipelines0, executor=executor)
    return res.decisions, executor.log, res.total_cost
