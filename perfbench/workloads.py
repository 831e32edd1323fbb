"""The four benchmark workloads: seeded inputs, one set-up, one episode.

Each workload draws all of its inputs from the workload seed once and
then repeats the same episode on them.  The package receives only the
generated spec, plan, initial levels and pipelines.  An episode returns
an `Outcome`; its `counts` must repeat exactly from episode to episode.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pathlq import harness, simulate, synthesis, verify
from pathlq.ledger import DisturbancePlan
from pathlq.model import GraphSpec

perf_counter = time.perf_counter
REFERENCE = Path(__file__).resolve().parent / "reference.json"
COST_RTOL = 1e-9


@dataclass
class Outcome:
    """One episode: operations attempted and failed, and its wall time."""

    ops: int  # closed-loop steps, or certified instances
    failed: int
    wall: float  # seconds: synthesis plus the driver call
    steps: int  # closed-loop steps driven
    messages: int  # protocol messages exchanged over those steps
    counts: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    harness_messages: dict = field(default_factory=dict)


# --- input generation ---------------------------------------------------------

def _spec(rng, n: int, tau, horizon: int) -> GraphSpec:
    q = tuple(float(x) for x in rng.uniform(0.5, 2.0, n))
    r = tuple(float(x) for x in rng.uniform(1.0, 100.0, n))
    return GraphSpec(n=n, tau=tuple(int(t) for t in tau), q=q, r=r, horizon=horizon)


def _initial(rng, spec: GraphSpec):
    z0 = rng.standard_normal(spec.n)
    pipelines0 = tuple(rng.standard_normal(t) for t in spec.tau)
    return z0, pipelines0


def _plan(rng, spec: GraphSpec, density: float) -> DisturbancePlan:
    """A full plan: each admissible (node, time) slot nonzero with
    probability `density`, up to the node's bound H + sigma_N - sigma_i."""
    plan = DisturbancePlan()
    for i in range(1, spec.n + 1):
        last = spec.horizon + spec.sigma_total - spec.sigma[i - 1]
        for s in np.flatnonzero(rng.random(last + 1) < density):
            plan.entries[(i, int(s))] = float(rng.standard_normal())
    return plan


def _stream(rng, spec: GraphSpec, per_time: int, last_time: int) -> DisturbancePlan:
    """`per_time` distinct nodes nonzero at every time 0..last_time, so that
    every step announces the same number of entries."""
    plan = DisturbancePlan()
    for s in range(last_time + 1):
        for k in rng.choice(spec.n, size=per_time, replace=False):
            plan.entries[(int(k) + 1, s)] = float(rng.standard_normal())
    return plan


def _finite(decision) -> bool:
    return bool(np.all(np.isfinite(decision.u)) and np.all(np.isfinite(decision.v)))


def _load_reference(workload: str, seed: int):
    try:
        table = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


# --- closed-loop workloads ------------------------------------------------------

class ClosedLoop:
    """`simulate.closed_loop` on one instance, full plan or announced."""

    op = "step"

    def __init__(self, name, seed, probe, spec, plan, z0, pipelines0, steps,
                 announce=None):
        self.name, self.seed, self.probe = name, seed, probe
        self.spec, self.plan = spec, plan
        self.z0, self.pipelines0 = z0, pipelines0
        self.steps, self.announce = steps, announce
        self.reference_cost = _load_reference(name, seed)
        self.reference_source = "reference.json"
        if self.reference_cost is None:
            self.reference_source = "first episode"

    def describe(self) -> dict:
        s = self.spec
        return {"n": s.n, "horizon": s.horizon, "sigma_N": s.sigma_total,
                "tau_set": sorted(set(s.tau)), "plan_entries": len(self.plan.entries),
                "steps_per_episode": self.steps, "announce": self.announce}

    def drive(self, steps: int):
        params = synthesis.synthesize(self.spec)
        return simulate.closed_loop(
            self.spec, params, self.plan, steps, self.z0, self.pipelines0,
            announce=self.announce,
        )

    def setup(self) -> float:
        t0 = perf_counter()
        self.drive(0)
        return perf_counter() - t0

    def episode(self) -> Outcome:
        messages0 = self.probe.ledger_messages
        t0 = perf_counter()
        try:
            result = self.drive(self.steps)
        except Exception:
            return Outcome(self.steps, self.steps, perf_counter() - t0, self.steps, 0,
                           errors=[traceback.format_exc()])
        wall = perf_counter() - t0
        nonfinite = sum(not _finite(d) for d in result.decisions)
        out = Outcome(self.steps, nonfinite, wall, self.steps,
                      self.probe.ledger_messages - messages0)
        out.counts = {"messages": out.messages, "steps": len(result.decisions)}
        cost = result.total_cost
        if self.reference_cost is None:
            self.reference_cost = cost
        if not abs(cost - self.reference_cost) <= COST_RTOL * abs(self.reference_cost):
            out.failed = self.steps
            out.errors.append(
                f"total cost {cost!r} differs from the reference "
                f"{self.reference_cost!r} ({self.reference_source})"
            )
        return out


def fullplan(seed: int, probe) -> ClosedLoop:
    rng = np.random.default_rng(seed)
    spec = _spec(rng, 200, [3] * 199, 20)
    z0, pipes = _initial(rng, spec)
    plan = _plan(rng, spec, 0.05)
    return ClosedLoop("fullplan", seed, probe, spec, plan, z0, pipes, steps=150)


def receding(seed: int, probe) -> ClosedLoop:
    steps, horizon = 200, 30
    rng = np.random.default_rng(seed)
    spec = _spec(rng, 100, rng.integers(1, 9, 99), horizon)
    z0, pipes = _initial(rng, spec)
    plan = _stream(rng, spec, 10, last_time=steps + horizon)
    return ClosedLoop("receding", seed, probe, spec, plan, z0, pipes, steps,
                      announce=horizon)


# --- message-passing workload -----------------------------------------------------

class Distributed(ClosedLoop):
    """`harness.run_closed_loop` under a seeded random scheduler."""

    def __init__(self, seed: int, probe, steps: int = 150):
        rng = np.random.default_rng(seed)
        spec = _spec(rng, 100, [3] * 99, 20)
        z0, pipes = _initial(rng, spec)
        plan = _plan(rng, spec, 0.05)
        super().__init__("distributed", seed, probe, spec, plan, z0, pipes, steps)
        # Reference decisions of the sequential driver, made before any hook
        # is installed.
        ref = super().drive(steps)
        self.reference = [(d.u.tobytes(), d.v.tobytes()) for d in ref.decisions]
        self.reference_source = "closed_loop decisions"

    def drive(self, steps: int):
        params = synthesis.synthesize(self.spec)
        return harness.run_closed_loop(
            self.spec, params, self.plan, steps, self.z0, self.pipelines0,
            rng=np.random.default_rng(self.seed),
        )

    def episode(self) -> Outcome:
        t0 = perf_counter()
        try:
            decisions, log, _total = self.drive(self.steps)
        except Exception:
            return Outcome(self.steps, self.steps, perf_counter() - t0, self.steps, 0,
                           errors=[traceback.format_exc()])
        wall = perf_counter() - t0
        bad = [
            t for t, d in enumerate(decisions)
            if t >= len(self.reference)
            or (d.u.tobytes(), d.v.tobytes()) != self.reference[t]
            or not _finite(d)
        ]
        out = Outcome(self.steps, len(bad), wall, self.steps, len(log.records))
        if bad:
            out.errors.append(
                f"{len(bad)} decisions differ from closed_loop, first at step {bad[0]}"
            )
        audit = harness.audit_message_log(log, self.spec)
        if not audit.ok:
            out.failed = self.steps
            out.errors.append(f"audit failed: {audit.violations[:3]}")
        kinds: dict[str, int] = {}
        for m in log.records:
            kinds[m.kind] = kinds.get(m.kind, 0) + 1
        out.harness_messages = kinds
        out.counts = {"messages": len(log.records), "rounds": len(decisions),
                      **{f"messages.{k}": v for k, v in sorted(kinds.items())}}
        return out


# --- certification workload --------------------------------------------------------

class Certify:
    """`verify.run_differential_suite` over the suite's own instance family.

    The family is drawn in six strata of equal size, one per node count
    n = 1..6, so that the work in an episode (dominated by the dense
    oracle's n = 6 instances) hardly depends on the seed.
    """

    name = "certify"
    op = "instance"
    per_stratum = 10

    def __init__(self, seed: int, probe):
        self.seed, self.probe = seed, probe
        self.strata = [(seed * 6 + n - 1, n) for n in range(1, 7)]
        self.instances = []
        for suite_seed, n in self.strata:
            rng = np.random.default_rng(suite_seed)
            self.instances += [
                verify.make_random_instance(rng, n_range=(n, n))
                for _ in range(self.per_stratum)
            ]

    def describe(self) -> dict:
        return {"instances": len(self.instances), "strata": self.strata,
                "tolerance": verify.DEFAULT_TOLERANCE}

    def setup(self) -> float:
        """Everything certify_instance computes before its first decision."""
        t0 = perf_counter()
        for inst in self.instances:
            verify.synthesize(inst.spec)
            system = verify.build_augmented_system(inst.spec)
            verify.stationary_riccati(system)
            verify.init_shifted_sums(inst.plan, inst.spec, now=0)
        return perf_counter() - t0

    def episode(self) -> Outcome:
        steps0, messages0 = self.probe.steps, self.probe.ledger_messages
        ops = failed = 0
        errors = []
        t0 = perf_counter()
        for suite_seed, n in self.strata:
            ops += self.per_stratum
            try:
                report = verify.run_differential_suite(
                    n_instances=self.per_stratum, seed=suite_seed, n_range=(n, n)
                )
            except Exception:
                failed += self.per_stratum
                errors.append(traceback.format_exc())
                continue
            bad = [
                r for r in report.reports
                if not (r.action_rel_err <= report.tolerance
                        and r.cost_rel_err <= report.tolerance)
            ]
            failed += len(bad) + self.per_stratum - len(report.reports)
            errors += [f"suite seed {suite_seed}: instance {r.index} {r}" for r in bad]
        steps = self.probe.steps - steps0
        messages = self.probe.ledger_messages - messages0
        out = Outcome(ops, failed, perf_counter() - t0, steps, messages, errors=errors)
        out.counts = {"messages": messages, "steps": steps}
        return out


WORKLOADS = {
    "fullplan": fullplan,
    "receding": receding,
    "distributed": Distributed,
    "certify": Certify,
}
