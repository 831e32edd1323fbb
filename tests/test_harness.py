"""Tests for the message-passing execution harness."""

import numpy as np
import pytest

from pathlq.controller import combine_delta, combine_mu, local_phi, local_pi
from pathlq.errors import RoundAbortError
from pathlq.harness import (
    Message,
    MessageLog,
    MessagePassing,
    Network,
    audit_message_log,
    run_closed_loop,
    run_control_round,
)
from pathlq.ledger import DisturbancePlan, init_shifted_sums
from pathlq.model import ControlDecision, GraphSpec, PlantState
from pathlq.simulate import Sequential, closed_loop
from pathlq.synthesis import synthesize

from diagnostics import of_kind


def _spec(n, tau, horizon, q=None, r=None):
    q = tuple(q) if q is not None else (1.0,) * n
    r = tuple(r) if r is not None else (1.0,) * n
    return GraphSpec(n=n, tau=tuple(tau), q=q, r=r, horizon=horizon)


def _measurements(spec, params, state, windows, plan, t):
    meas = []
    for k in range(spec.n):
        uvals = (
            state.pipelines[k] if k < spec.n - 1 else np.zeros(params.tau_eff[k])
        )
        meas.append(
            (
                state.z[k],
                uvals,
                windows.slice(k + 1, params.tau_eff[k]),
                plan.get(k + 1, t),
            )
        )
    return meas


def _round_once(spec, seed=None, z0=None):
    params = synthesize(spec)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    state = PlantState.initial(spec, z0=z0)
    network = Network(spec, params)
    rng = np.random.default_rng(seed) if seed is not None else None
    return run_control_round(
        network, _measurements(spec, params, state, windows, plan, 0), rng=rng
    )


def test_sweep_message_count_and_payload():
    # One delta up and one mu down per edge, every round, even when all
    # payloads are zero.
    spec = _spec(4, [2, 1, 3], horizon=2)
    decision, log = _round_once(spec)
    assert len(log.records) == 2 * (spec.n - 1)
    assert all(m.value == 0.0 for m in log.records)
    assert sorted((m.kind, m.src, m.dst) for m in log.records) == [
        ("delta", 1, 2),
        ("delta", 2, 3),
        ("delta", 3, 4),
        ("mu", 2, 1),
        ("mu", 3, 2),
        ("mu", 4, 3),
    ]
    assert np.array_equal(decision.u, np.zeros(3))


def test_schedule_randomization_does_not_change_decisions():
    spec = _spec(5, [3, 2, 5, 4], horizon=4)
    base, _ = _round_once(spec, z0=[1.0, -0.5, 2.0, 0.1, -1.2])
    for seed in range(10):
        other, log = _round_once(spec, seed=seed, z0=[1.0, -0.5, 2.0, 0.1, -1.2])
        assert base.u.tobytes() == other.u.tobytes()
        assert base.v.tobytes() == other.v.tobytes()
        assert audit_message_log(log, spec).ok


def test_harness_matches_sequential_bitwise():
    rng = np.random.default_rng(17)
    spec = _spec(4, [2, 3, 1], horizon=3, q=(1.0, 0.4, 2.0, 1.1))
    params = synthesize(spec)
    plan = DisturbancePlan({(2, 1): -0.6, (4, 2): 0.9, (1, 3): 0.2})
    z0 = rng.normal(size=4)
    pipes = [rng.normal(size=t) for t in spec.tau]
    steps = 25

    seq = closed_loop(spec, params, plan, steps, z0, pipes)
    dist, log, total = run_closed_loop(
        spec, params, plan, steps, z0, pipes, rng=np.random.default_rng(99)
    )
    for a, b in zip(seq.decisions, dist):
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()
    assert total == seq.total_cost
    report = audit_message_log(log, spec)
    assert report.ok, report.violations


@pytest.mark.parametrize("mode", [{"announce": 2}, {"blind": True}])
def test_harness_matches_sequential_in_every_mode(mode):
    rng = np.random.default_rng(18)
    spec = _spec(4, [2, 3, 1], horizon=3, q=(1.0, 0.4, 2.0, 1.1))
    params = synthesize(spec)
    plan = DisturbancePlan({(2, 1): -0.6, (4, 6): 0.9, (1, 3): 0.2, (3, 9): 0.5})
    z0 = rng.normal(size=4)
    pipes = [rng.normal(size=t) for t in spec.tau]
    steps = 25

    seq = closed_loop(spec, params, plan, steps, z0, pipes, **mode)
    executor = MessagePassing(Network(spec, params), rng=np.random.default_rng(99))
    dist = closed_loop(spec, params, plan, steps, z0, pipes, executor=executor, **mode)
    for a, b in zip(seq.decisions, dist.decisions):
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()
    assert dist.total_cost == seq.total_cost
    report = audit_message_log(executor.log, spec)
    assert report.ok, report.violations


class RecordingExecutor:
    """Passes every call on to `inner` and keeps the bytes it decides."""

    def __init__(self, inner):
        self.inner = inner
        self.decided = []

    def decide(self, *args):
        decision = self.inner.decide(*args)
        self.decided.append((decision.u.tobytes(), decision.v.tobytes()))
        return decision

    def ledger(self, messages):
        self.inner.ledger(messages)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("executor", ["sequential", "message-passing"])
def test_decisions_are_views_of_the_trajectory(executor, n):
    spec = _spec(n, [2, 3, 1][: n - 1], horizon=2)
    params = synthesize(spec)
    plan = DisturbancePlan({(1, 1): -0.6, (n, 2): 0.9})
    inner = Sequential() if executor == "sequential" else MessagePassing(
        Network(spec, params), rng=np.random.default_rng(5)
    )
    recorder = RecordingExecutor(inner)
    res = closed_loop(spec, params, plan, 12, np.linspace(-1.0, 1.0, n),
                      executor=recorder)
    traj = res.trajectory
    assert len(res.decisions) == len(recorder.decided) == 12
    for t, d in enumerate(res.decisions):
        assert d.u.base is traj.u and d.v.base is traj.v
        assert np.shares_memory(d.v, traj.v[t])
        # An empty row (n = 1) shares no memory with anything.
        assert n == 1 or np.shares_memory(d.u, traj.u[t])
        assert (d.u.tobytes(), d.v.tobytes()) == recorder.decided[t]


def test_announcements_are_logged_as_upstream_updates():
    spec = _spec(3, [1, 2], horizon=2)
    params = synthesize(spec)
    # Announced two steps ahead, at t = 3 and t = 4.
    plan = DisturbancePlan({(1, 5): 0.4, (2, 6): -1.0})
    executor = MessagePassing(Network(spec, params))
    closed_loop(spec, params, plan, 8, announce=2, executor=executor)
    updates = of_kind(executor.log, "D-update")
    assert [(m.round, m.src, m.dst) for m in updates] == [
        (3, 1, 2), (3, 2, 3), (4, 2, 3),
    ]
    assert audit_message_log(executor.log, spec).ok


def test_ledger_traffic_is_logged():
    spec = _spec(3, [1, 2], horizon=1)
    params = synthesize(spec)
    # d_3[1] is known at t = 0 and enters the initial windows; d_1[5] is
    # announced at t = 4 and travels upstream, logged under round 4.
    plan = DisturbancePlan({(3, 1): -1.0, (1, 5): 0.5})
    executor = MessagePassing(Network(spec, params))
    closed_loop(spec, params, plan, 6, announce=1, executor=executor)
    # Time advances send nothing: the ledger traffic is D-updates only.
    ledger = [m for m in executor.log.records if m.kind not in ("delta", "mu")]
    assert [(m.kind, m.round, m.src, m.dst, m.time) for m in ledger] == [
        ("D-update", 4, 1, 2, 5), ("D-update", 4, 2, 3, 5),
    ]
    assert len(executor.log.records) == 2 * (spec.n - 1) * 6 + len(ledger)
    assert audit_message_log(executor.log, spec).ok


def test_audit_flags_downstream_ledger_message():
    spec = _spec(3, [1, 2], horizon=1)
    params = synthesize(spec)
    _, log, _ = run_closed_loop(spec, params, DisturbancePlan(), steps=2)
    log.append(Message(round=2, src=3, dst=2, kind="D-update", value=0.0, time=6))
    report = audit_message_log(log, spec)
    assert not report.ok
    assert "D-update sent the wrong way, 3 -> 2" in report.violations


def test_audit_flags_unknown_kind():
    spec = _spec(3, [1, 2], horizon=1)
    log = MessageLog([Message(round=0, src=1, dst=2, kind="D-shift", value=0.0, time=3)])
    report = audit_message_log(log, spec)
    assert report.violations == ["unknown kind D-shift, 1 -> 2"]


@pytest.mark.parametrize("kind", ["D-update"])
def test_audit_flags_out_of_order_ledger_chain(kind):
    spec = _spec(3, [1, 1], horizon=0)
    # Node 2 forwards before it has node 1's value for the same time.
    log = MessageLog()
    log.append(Message(round=0, src=2, dst=3, kind=kind, value=0.0, time=5))
    log.append(Message(round=0, src=1, dst=2, kind=kind, value=0.0, time=5))
    report = audit_message_log(log, spec)
    assert report.violations == [f"round 0: {kind} from 2 before {kind} to 2"]
    # About two different shifted times, the same order is two chains.
    other = MessageLog(log.records[:1])
    other.append(Message(round=0, src=1, dst=2, kind=kind, value=0.0, time=4))
    assert audit_message_log(other, spec).ok


def test_audit_flags_non_neighbor_message():
    spec = _spec(4, [1, 1, 1], horizon=0)
    _, log = _round_once(spec)
    log.append(Message(round=0, src=1, dst=3, kind="delta", value=0.0))
    report = audit_message_log(log, spec)
    assert not report.ok
    assert any("non-neighbor" in v for v in report.violations)


def test_audit_flags_out_of_order_sweep():
    spec = _spec(3, [1, 1], horizon=0)
    log = MessageLog()
    # delta from node 2 logged before delta from node 1: causality broken.
    log.append(Message(round=0, src=2, dst=3, kind="delta", value=0.0))
    log.append(Message(round=0, src=1, dst=2, kind="delta", value=0.0))
    log.append(Message(round=0, src=3, dst=2, kind="mu", value=0.0))
    log.append(Message(round=0, src=2, dst=1, kind="mu", value=0.0))
    report = audit_message_log(log, spec)
    assert not report.ok


def test_failed_link_aborts_the_round():
    spec = _spec(3, [2, 2], horizon=1)
    params = synthesize(spec)
    network = Network(spec, params)
    network.fail_link(2, 3)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    state = PlantState.initial(spec, z0=[1.0, 0.0, -1.0])
    with pytest.raises(RoundAbortError):
        run_control_round(
            network, _measurements(spec, params, state, windows, plan, 0)
        )
    network.restore_links()
    run_control_round(
        network, _measurements(spec, params, state, windows, plan, 0)
    )


def test_log_csv_round_trip(tmp_path):
    spec = _spec(3, [1, 2], horizon=0)
    _, log = _round_once(spec, z0=[1.0, 2.0, 3.0])
    path = tmp_path / "messages.csv"
    log.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,from,to,kind,value"
    assert len(lines) == 1 + len(log.records)


# --- the scheduler's draw sequence ---------------------------------------------

class RecordingRng:
    """A seeded Generator that records the bound of every `integers` draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bounds = []

    def integers(self, high):
        self.bounds.append(high)
        return self.rng.integers(high)


def reference_round(network, measurements, log, rng):
    """A control round whose scheduler rebuilds the whole ready list with an
    O(N) scan before every task, in node-major, phi/delta-first order."""
    nodes, n, rnd = network.nodes, network.n, network.round
    for node, (z, uvals, dwin, d) in zip(nodes, measurements):
        node.reset(z, uvals, dwin, d)
    nodes[-1].mu_next = 0.0

    def send(src, dst, kind, value):
        network._check_link(src, dst)
        log.append(Message(round=rnd, src=src, dst=dst, kind=kind, value=value))
        if kind == "delta":
            nodes[dst - 1].delta_prev = value
        else:
            nodes[dst - 1].mu_next = value

    def ready():
        tasks = []
        for k, node in enumerate(nodes):
            if node.phi_val is None:
                tasks.append(("phi", k))
            elif node.delta is None and node.delta_prev is not None:
                tasks.append(("delta", k))
            if node.pi_val is None:
                tasks.append(("pi", k))
            elif node.mu is None and node.mu_next is not None:
                tasks.append(("mu", k))
        return tasks

    while tasks := ready():
        kind, k = tasks[int(rng.integers(len(tasks)))] if rng is not None else tasks[0]
        node = nodes[k]
        if kind == "phi":
            node.phi_val = local_phi(node.params, node.z, node.uvals, node.dwin)
        elif kind == "pi":
            node.pi_val = local_pi(node.params, node.z, node.uvals, node.dwin)
        elif kind == "delta":
            node.delta = combine_delta(node.params, node.phi_val, node.delta_prev)
            if k + 1 < n:
                send(k + 1, k + 2, "delta", node.delta)
        else:
            node.mu = combine_mu(node.params, node.pi_val, node.mu_next)
            if k > 0:
                send(k + 1, k, "mu", node.mu)
    u = np.zeros(max(n - 1, 0))
    v = np.empty(n)
    for k, node in enumerate(nodes):
        flow, v[k] = node.outputs()
        if flow is not None:
            u[k - 1] = flow
    network.round += 1
    return ControlDecision(u=u, v=v), log


def _random_round_inputs(n, seed):
    """A spec with mixed delays and weights, and random measurements."""
    rng = np.random.default_rng(seed)
    spec = _spec(n, rng.integers(1, 5, n - 1), horizon=int(rng.integers(0, 4)),
                 q=rng.uniform(0.2, 5.0, n), r=rng.uniform(0.2, 5.0, n))
    params = synthesize(spec)
    meas = [
        (rng.normal(), rng.normal(size=t), rng.normal(size=t), rng.normal())
        for t in params.tau_eff
    ]
    return spec, params, meas


def _records(log):
    return [(m.round, m.src, m.dst, m.kind, repr(m.value)) for m in log.records]


@pytest.mark.parametrize("n", range(1, 13))
def test_ready_list_replays_the_reference_scheduler(n):
    spec, params, meas = _random_round_inputs(n, seed=100 + n)
    for seed in [None, 0, 1, 2, 3, 4]:
        runs = []
        for round_fn in (run_control_round, reference_round):
            rng = RecordingRng(seed) if seed is not None else None
            network, log = Network(spec, params), MessageLog()
            # Three rounds: the rng stream and the round counter carry over.
            decisions = [round_fn(network, meas, log, rng)[0] for _ in range(3)]
            runs.append((decisions, _records(log), rng and rng.bounds))
        (new, new_log, new_bounds), (ref, ref_log, ref_bounds) = runs
        for a, b in zip(new, ref, strict=True):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.v.tobytes() == b.v.tobytes()
        assert new_log == ref_log and len(new_log) == 3 * 2 * (n - 1)
        assert new_bounds == ref_bounds
        if seed is not None:
            assert len(new_bounds) == 3 * 4 * n  # 4n draws per round


def test_downed_link_aborts_after_the_same_records():
    spec, params, meas = _random_round_inputs(7, seed=7)
    for seed in range(6):
        outcomes = []
        for round_fn in (run_control_round, reference_round):
            network = Network(spec, params)
            network.fail_link(4, 5)
            rng, log = RecordingRng(seed), MessageLog()
            with pytest.raises(RoundAbortError, match="is down") as exc:
                round_fn(network, meas, log, rng)
            outcomes.append((str(exc.value), _records(log), rng.bounds))
        assert outcomes[0] == outcomes[1]
