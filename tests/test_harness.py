"""Tests for the message-passing execution harness."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from pathlq import harness
from pathlq.controller import combine_delta, combine_mu, local_phi, local_pi
from pathlq.errors import RoundAbortError, SpecError
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


@pytest.mark.parametrize("a, b", [(1, 3), (2, 2), (0, 1), (3, 4), (2, 9), (-1, 0)])
def test_fail_link_rejects_a_pair_that_is_not_an_edge(a, b):
    # A stored non-edge would never abort a round: the fault would vanish.
    spec = _spec(3, [2, 2], horizon=1)
    network = Network(spec, synthesize(spec))
    with pytest.raises(ValueError, match="not an edge"):
        network.fail_link(a, b)
    assert not network.failed_links
    network.fail_link(3, 2)
    assert network.failed_links == {frozenset((2, 3))}


@pytest.mark.parametrize("other", [
    dict(n=4, tau=(2, 1, 1), q=(1.0,) * 4, r=(1.0,) * 4),
    dict(tau=(1, 2)),
    dict(horizon=3),
    dict(q=(5.0,) * 3),
], ids=["n", "tau", "H", "q"])
def test_network_rejects_params_for_another_spec(other):
    # With n = 4 and n = 3 params, node_slice(3) used to end in an IndexError.
    spec = _spec(3, [2, 1], horizon=2)
    params = synthesize(spec)
    with pytest.raises(SpecError, match="controller parameters synthesized for"):
        Network(replace(spec, **other), params)


def _node_decisions(decision):
    """Node i's (flow released downstream or None, production), i = 1..N,
    as float hex strings so that equal means bitwise equal."""
    flows = [None] + [x.hex() for x in decision.u.tolist()]
    return list(zip(flows, (x.hex() for x in decision.v.tolist())))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("kind, combine", [("delta", "combine_delta"),
                                           ("mu", "combine_mu")])
def test_each_sweep_runs_in_its_own_direction(monkeypatch, kind, combine, k):
    # Node k's delta reaches only nodes k+1..N and its mu only nodes 1..k:
    # a bump of 1.0 to one of them is what node k sends, and every
    # decision outside its reach keeps its bits.
    n = 6
    spec = _spec(n, [2, 1, 4, 1, 3], horizon=2, q=(1.0, 0.4, 2.0, 1.1, 0.7, 3.0),
                 r=(0.5, 1.0, 2.5, 0.8, 1.3, 0.2))
    params = synthesize(spec)
    rng = np.random.default_rng(5)
    meas = [(rng.normal(), rng.normal(size=t).tolist(), rng.normal(size=t).tolist(),
             rng.normal()) for t in params.tau_eff]

    def run():
        log = MessageLog()
        decision, _ = run_control_round(Network(spec, params), meas, log,
                                        np.random.default_rng(9))
        return _node_decisions(decision), {(m.kind, m.src): m.value
                                           for m in log.records}

    base, base_sent = run()
    plain = getattr(harness, combine)

    def bumped(p, fold, received):
        out = plain(p, fold, received)
        return out + 1.0 if p.index == k else out

    monkeypatch.setattr(harness, combine, bumped)
    moved, moved_sent = run()
    if (kind, k) in base_sent:
        assert moved_sent[kind, k] == base_sent[kind, k] + 1.0
    else:
        assert (k, kind) in [(n, "delta"), (1, "mu")]
    reach = range(k + 1, n + 1) if kind == "delta" else range(1, k + 1)
    for i in range(1, n + 1):
        if i not in reach:
            assert moved[i - 1] == base[i - 1], i
    if reach:
        nearest = k + 1 if kind == "delta" else k
        assert moved[nearest - 1][1] != base[nearest - 1][1]


def test_aborted_round_keeps_its_round_number():
    # A retry after restore_links logs under a new round, so the audit does
    # not mix its chains with the aborted attempt's.
    spec, params, meas = _random_round_inputs(4, seed=4)
    network, log = Network(spec, params), MessageLog()
    network.fail_link(3, 4)
    with pytest.raises(RoundAbortError, match="link 3 <-> 4 is down"):
        run_control_round(network, meas, log)
    network.restore_links()
    run_control_round(network, meas, log)
    assert [m.round for m in log.records] == [0, 0] + [1] * 6
    assert network.round == 2
    report = audit_message_log(log, spec)
    assert report.ok, report.violations


def test_round_runs_on_python_floats(monkeypatch):
    # numpy scalars anywhere in a unit make every kernel and message after
    # them run on numpy scalar arithmetic, at about twice the cost.
    results = {name: [] for name in ("local_phi", "local_pi", "combine_delta",
                                     "combine_mu")}

    def recording(name, fn):
        def kernel(*args):
            results[name].append(out := fn(*args))
            return out
        return kernel

    for name in results:
        monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
    spec = _spec(5, [2, 3, 1, 4], horizon=3, q=(1.0, 0.4, 2.0, 1.1, 0.7))
    params = synthesize(spec)
    plan = DisturbancePlan({(2, 4): -0.6, (5, 3): 0.9, (1, 5): 0.2})
    executor = MessagePassing(Network(spec, params), rng=np.random.default_rng(3))
    steps = 4
    closed_loop(spec, params, plan, steps, [1.0, -0.5, 2.0, 0.1, -1.2], announce=2,
                executor=executor)
    assert {m.kind for m in executor.log.records} == {"delta", "mu", "D-update"}
    assert all(type(m.value) is float for m in executor.log.records)
    # Every fold and combine of every round, node N's delta and node 1's
    # mu among them, though neither is ever sent.
    for name, values in results.items():
        assert len(values) == steps * spec.n, name
        assert all(type(x) is float for x in values), name
    for k in range(spec.n):
        node = params.node_slice(k)
        for row in (node.phi, node.gprod):
            assert type(row) is tuple and all(type(x) is float for x in row)


def test_measurements_must_cover_every_node():
    # A short list must not leave a used network's other nodes on last
    # round's inputs, nor a fresh network's on none.
    spec, params, meas = _random_round_inputs(3, seed=3)
    network = Network(spec, params)
    run_control_round(network, meas)
    extra = meas + [meas[-1]]
    for net, bad, message in [(network, meas[:2], "shorter"),
                              (Network(spec, params), meas[:2], "shorter"),
                              (network, extra, "longer")]:
        with pytest.raises(ValueError, match=message):
            run_control_round(net, bad)


def test_log_csv_round_trip(tmp_path):
    spec = _spec(3, [1, 2], horizon=0)
    _, log = _round_once(spec, z0=[1.0, 2.0, 3.0])
    path = tmp_path / "messages.csv"
    log.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,from,to,kind,value"
    assert len(lines) == 1 + len(log.records)


def test_log_csv_values_are_plain_floats(tmp_path):
    spec = _spec(4, [2, 3, 1], horizon=2)
    params = synthesize(spec)
    plan = DisturbancePlan({(1, 4): 0.4, (3, 5): -1.7, (4, 2): 0.3})
    executor = MessagePassing(Network(spec, params), rng=np.random.default_rng(2))
    closed_loop(spec, params, plan, 6, [1.0, -0.5, 2.0, 0.1], announce=2,
                executor=executor)
    log = executor.log
    assert {m.kind for m in log.records} == {"delta", "mu", "D-update"}
    path = tmp_path / "messages.csv"
    log.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(log.records)
    for row, m in zip(rows, log.records):
        # float() parses every field and gives back the logged value's bits.
        assert float(row[4]).hex() == float(m.value).hex()
        assert row[4] == repr(float(m.value))


# --- the scheduler's draw sequence ---------------------------------------------

def reference_round(network, measurements, log, rng):
    """A control round whose scheduler rebuilds the whole ready list with an
    O(N) scan before every task, in node-major, phi/delta-first order, and
    picks a task by one scalar rng.random() draw; an aborted round draws
    the rest of its 4N doubles on the way out.  It keeps each node's chain
    state in its own per-node lists."""
    nodes, n, rnd = network.nodes, network.n, network.round
    for node, (z, uvals, dwin, d) in zip(nodes, measurements):
        node.reset(z, uvals, dwin, d)
    phi, pi, delta, mu = [None] * n, [None] * n, [None] * n, [None] * n
    delta_prev, mu_next = [0.0] + [None] * (n - 1), [None] * (n - 1) + [0.0]

    def send(src, dst, kind, value):
        network._check_link(src, dst)
        log.append(Message(round=rnd, src=src, dst=dst, kind=kind, value=value))
        if kind == "delta":
            delta_prev[dst - 1] = value
        else:
            mu_next[dst - 1] = value

    def ready():
        tasks = []
        for k in range(n):
            if phi[k] is None:
                tasks.append(("phi", k))
            elif delta[k] is None and delta_prev[k] is not None:
                tasks.append(("delta", k))
            if pi[k] is None:
                tasks.append(("pi", k))
            elif mu[k] is None and mu_next[k] is not None:
                tasks.append(("mu", k))
        return tasks

    drawn = 0
    try:
        while tasks := ready():
            if rng is not None:
                kind, k = tasks[int(rng.random() * len(tasks))]
                drawn += 1
            else:
                kind, k = tasks[0]
            node = nodes[k]
            if kind == "phi":
                phi[k] = local_phi(node.params, node.z, node.uvals, node.dwin)
            elif kind == "pi":
                pi[k] = local_pi(node.params, node.z, node.uvals, node.dwin)
            elif kind == "delta":
                delta[k] = combine_delta(node.params, phi[k], delta_prev[k])
                if k + 1 < n:
                    send(k + 1, k + 2, "delta", delta[k])
            else:
                mu[k] = combine_mu(node.params, pi[k], mu_next[k])
                if k > 0:
                    send(k + 1, k, "mu", mu[k])
    finally:
        if rng is not None:
            rng.random(4 * n - drawn)
    u = np.zeros(max(n - 1, 0))
    v = np.empty(n)
    for k, node in enumerate(nodes):
        flow, v[k] = node.outputs(delta_prev[k], mu[k])
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
    # reference_round makes one scalar rng.random call per task; the
    # round's batch must give the same schedule and leave the rng in the
    # same state.
    spec, params, meas = _random_round_inputs(n, seed=100 + n)
    for seed in [None, 0, 1, 2, 3, 4]:
        runs = []
        for round_fn in (run_control_round, reference_round):
            rng = np.random.default_rng(seed) if seed is not None else None
            network, log = Network(spec, params), MessageLog()
            # Three rounds: the rng stream and the round counter carry over.
            decisions = [round_fn(network, meas, log, rng)[0] for _ in range(3)]
            runs.append((decisions, _records(log), rng and rng.bit_generator.state))
        (new, new_log, new_state), (ref, ref_log, ref_state) = runs
        for a, b in zip(new, ref, strict=True):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.v.tobytes() == b.v.tobytes()
        assert new_log == ref_log and len(new_log) == 3 * 2 * (n - 1)
        assert new_state == ref_state


def test_downed_link_aborts_after_the_same_records():
    spec, params, meas = _random_round_inputs(7, seed=7)
    for seed in [None, *range(6)]:
        outcomes = []
        for round_fn in (run_control_round, reference_round):
            network = Network(spec, params)
            network.fail_link(4, 5)
            rng = np.random.default_rng(seed) if seed is not None else None
            log = MessageLog()
            with pytest.raises(RoundAbortError, match="is down") as exc:
                round_fn(network, meas, log, rng)
            outcomes.append(
                (str(exc.value), _records(log), rng and rng.bit_generator.state)
            )
        assert outcomes[0] == outcomes[1]


def test_unseeded_round_runs_the_first_ready_task():
    # slots[0] every time: node 1's delta chain climbs until the downed link.
    spec, params, meas = _random_round_inputs(7, seed=7)
    network = Network(spec, params)
    network.fail_link(4, 5)
    log = MessageLog()
    with pytest.raises(RoundAbortError, match="link 4 <-> 5 is down"):
        run_control_round(network, meas, log)
    assert [(m.round, m.src, m.dst, m.kind) for m in log.records] == [
        (0, 1, 2, "delta"), (0, 2, 3, "delta"), (0, 3, 4, "delta"),
    ]


@pytest.mark.parametrize("n", [1, 7])
def test_a_round_advances_the_rng_by_4n_doubles(n):
    # Completed or aborted, a round leaves the rng where random(4 * n) would.
    spec, params, meas = _random_round_inputs(n, seed=20 + n)
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    network = Network(spec, params)
    run_control_round(network, meas, rng=rng)
    twin.random(4 * n)
    assert rng.bit_generator.state == twin.bit_generator.state
    if n > 1:
        network.fail_link(3, 4)
        with pytest.raises(RoundAbortError, match="is down"):
            run_control_round(network, meas, rng=rng)
        twin.random(4 * n)
        assert rng.bit_generator.state == twin.bit_generator.state


BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.SFC64, np.random.MT19937]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("seed", range(4))
def test_bounded_draws_match_numpy(bit_generator, seed):
    # The round's slot indices int(u * len(slots)), u from one random(4N)
    # batch, are those of one scalar rng.random() per task (reference_round)
    # on every bit generator, through completed and aborted rounds.
    spec, params, meas = _random_round_inputs(6, seed=40 + seed)
    runs = []
    for round_fn in (run_control_round, reference_round):
        rng = np.random.Generator(bit_generator(seed))
        network, log = Network(spec, params), MessageLog()
        decisions = [round_fn(network, meas, log, rng)[0] for _ in range(2)]
        network.fail_link(2, 3)
        with pytest.raises(RoundAbortError, match="is down") as exc:
            round_fn(network, meas, log, rng)
        runs.append((decisions, _records(log), str(exc.value), rng))
    (new, new_log, new_abort, batched), (ref, ref_log, ref_abort, scalar) = runs
    for a, b in zip(new, ref, strict=True):
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()
    assert (new_log, new_abort) == (ref_log, ref_abort)
    np.testing.assert_equal(batched.bit_generator.state, scalar.bit_generator.state)
    # Both streams go on alike.
    assert batched.random(4).tolist() == scalar.random(4).tolist()


def test_the_largest_draw_picks_the_last_slot():
    # u < 1 gives int(u * L) <= L - 1 for every ready-list length L of a
    # round at N up to 1000, so slots[int(u * len(slots))] is never past
    # the end.
    top = float(np.nextafter(1.0, 0.0))
    assert all(int(top * L) == L - 1 for L in range(1, 4 * 1000 + 1))


@pytest.mark.parametrize("mode", [{}, {"announce": 2}], ids=["full-plan", "announce-2"])
@pytest.mark.parametrize("seed", range(4))
def test_the_schedule_only_orders_each_round(mode, seed):
    # Seeded or not, each round sends the same messages with the same
    # payloads: the records sort alike, round by round (the round leads).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    spec = _spec(n, rng.integers(1, 5, n - 1), horizon=int(rng.integers(2, 5)),
                 q=rng.uniform(0.2, 5.0, n), r=rng.uniform(0.2, 5.0, n))
    params = synthesize(spec)
    plan = DisturbancePlan()
    for _ in range(6):
        node = int(rng.integers(1, n + 1))
        bound = spec.horizon + spec.sigma_total - spec.sigma[node - 1]
        plan.entries[(node, int(rng.integers(0, bound + 1)))] = float(rng.normal())
    z0 = rng.normal(size=n)
    pipes = [rng.normal(size=t) for t in spec.tau]
    logs = []
    for scheduler in (None, np.random.default_rng(seed)):
        executor = MessagePassing(Network(spec, params), rng=scheduler)
        closed_loop(spec, params, plan, 12, z0, pipes, executor=executor, **mode)
        logs.append(sorted(
            (m.round, m.src, m.dst, m.kind, m.time, repr(m.value))
            for m in executor.log.records
        ))
    unseeded, seeded = logs
    assert seeded == unseeded and len(seeded) >= 12 * 2 * (n - 1)
