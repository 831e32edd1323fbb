"""Tests for the message-passing execution harness."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from pathlq import controller, harness
from pathlq.controller import combine, local_flow, local_fold, local_production
from pathlq.errors import RoundAbortError, SpecError
from pathlq.harness import (
    Message,
    MessageLog,
    MessagePassing,
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
    """The round's four per-node columns: z, uvals, dwin and d."""
    nodes = range(spec.n)
    uvals = [state.pipelines[k] for k in nodes[:-1]] + [np.zeros(params.tau_eff[-1])]
    dwin = [windows.slice(k + 1, params.tau_eff[k]) for k in nodes]
    return list(state.z), uvals, dwin, [plan.get(k + 1, t) for k in nodes]


def _columns(rows):
    """Per-node (z, uvals, dwin, d) rows as the round's four columns."""
    return tuple(map(list, zip(*rows)))


def _round_once(spec, seed=None, z0=None):
    params = synthesize(spec)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    state = PlantState.initial(spec, z0=z0)
    rng = np.random.default_rng(seed) if seed is not None else None
    executor = MessagePassing(spec, params, rng=rng)
    meas = _measurements(spec, params, state, windows, plan, 0)
    return run_control_round(executor, meas), executor.log


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
    executor = MessagePassing(spec, params, rng=np.random.default_rng(99))
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
        spec, params, rng=np.random.default_rng(5)
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
    executor = MessagePassing(spec, params)
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
    executor = MessagePassing(spec, params)
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
    executor = MessagePassing(spec, params)
    executor.fail_link(2, 3)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    state = PlantState.initial(spec, z0=[1.0, 0.0, -1.0])
    with pytest.raises(RoundAbortError):
        run_control_round(
            executor, _measurements(spec, params, state, windows, plan, 0)
        )
    executor.restore_links()
    run_control_round(
        executor, _measurements(spec, params, state, windows, plan, 0)
    )


@pytest.mark.parametrize("a, b", [
    (1, 3), (2, 2), (0, 1), (3, 4), (2, 9), (-1, 0), (1.5, 2.5), (True, 2),
    (2, np.True_), ("1", "2"), (b"2", 3), (2.5, 1.5),
])
def test_fail_link_rejects_a_pair_that_is_not_an_edge(a, b):
    # A stored non-edge would never abort a round: the fault would vanish.
    spec = _spec(3, [2, 2], horizon=1)
    executor = MessagePassing(spec, synthesize(spec))
    with pytest.raises(ValueError, match="not an edge"):
        executor.fail_link(a, b)
    assert not executor.failed_links
    executor.fail_link(3, 2)
    executor.fail_link(np.int64(2), np.int64(3))
    assert executor.failed_links == {frozenset((2, 3))}


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
        MessagePassing(replace(spec, **other), params)


def _node_decisions(decision):
    """Node i's (flow released downstream or None, production), i = 1..N,
    as float hex strings so that equal means bitwise equal."""
    flows = [None] + [x.hex() for x in decision.u.tolist()]
    return list(zip(flows, (x.hex() for x in decision.v.tolist())))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("kind, name", [("delta", "combine_delta"),
                                        ("mu", "combine_mu")])
def test_each_sweep_runs_in_its_own_direction(monkeypatch, kind, name, k):
    # Node k's delta reaches only nodes k+1..N and its mu only nodes 1..k:
    # a bump of 1.0 to one of them is what node k sends, and every
    # decision outside its reach keeps its bits.
    n = 6
    spec = _spec(n, [2, 1, 4, 1, 3], horizon=2, q=(1.0, 0.4, 2.0, 1.1, 0.7, 3.0),
                 r=(0.5, 1.0, 2.5, 0.8, 1.3, 0.2))
    params = synthesize(spec)
    rng = np.random.default_rng(5)
    meas = _columns([(rng.normal(), rng.normal(size=t).tolist(),
                      rng.normal(size=t).tolist(), rng.normal()) for t in params.tau_eff])
    # Node k's weight on this chain, the object every executor's slot holds.
    own = params.node_slice(k - 1).weights[("delta", "mu").index(kind)]

    def run():
        executor = MessagePassing(spec, params, rng=np.random.default_rng(9))
        decision = run_control_round(executor, meas)
        return _node_decisions(decision), {(m.kind, m.src): m.value
                                           for m in executor.log.records}

    base, base_sent = run()
    plain = getattr(harness, name)

    def bumped(weight, fold, received):
        out = plain(weight, fold, received)
        return out + 1.0 if weight is own else out

    monkeypatch.setattr(harness, name, bumped)
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


def test_both_chains_run_one_fold_and_one_combine():
    # The delta and mu chains differ only in the row and the weight they
    # are given: each chain's kernel names are the controller's two kernels.
    assert harness.local_phi is harness.local_pi is controller.local_fold
    assert harness.combine_delta is harness.combine_mu is controller.combine


# Which of node i's own objects each kernel argument is, or None for a
# value the round computed: first its parameters (its slice, or the row or
# weight of the chain the task runs), then its measurements.
KERNEL_READS = {
    "local_phi": ("rows[0]", "z", "uvals", "dwin"),
    "local_pi": ("rows[1]", "z", "uvals", "dwin"),
    "combine_delta": ("weights[0]", None, None),
    "combine_mu": ("weights[1]", None, None),
    "local_flow": ("slice", "z", "uvals[0]", "dwin[0]", None, None, "d"),
    "local_production": ("slice", None, None),
}


def test_a_round_reads_each_nodes_inputs_only_in_its_own_tasks(monkeypatch):
    # Node i's tasks get node i's own parameter objects and node i's own
    # measurement objects, never a neighbor's: the round shares nothing
    # between nodes but the values they send.
    n = 6
    spec = _spec(n, [2, 1, 4, 1, 3], horizon=2)
    params = synthesize(spec)
    slices = [params.node_slice(k) for k in range(n)]
    calls = []

    def recording(name, fn):
        def kernel(*args):
            calls.append((name, args))
            return fn(*args)
        return kernel

    for name in KERNEL_READS:
        monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        meas = _columns([(rng.normal(), rng.normal(size=t).tolist(),
                          rng.normal(size=t).tolist(), rng.normal())
                         for t in params.tau_eff])
        calls.clear()
        executor = MessagePassing(spec, params, rng=np.random.default_rng(10 + seed))
        run_control_round(executor, meas)
        assert [repr(p) for p in executor.params] == [repr(p) for p in slices]

        def own(i):
            p = executor.params[i - 1]
            z, uvals, dwin, d = (column[i - 1] for column in meas)
            return {"slice": p, "rows[0]": p.rows[0], "rows[1]": p.rows[1],
                    "weights[0]": p.weights[0], "weights[1]": p.weights[1],
                    "z": z, "uvals": uvals, "dwin": dwin, "uvals[0]": uvals[0],
                    "dwin[0]": dwin[0], "d": d}

        ran = []
        for name, args in calls:
            reads = KERNEL_READS[name]
            assert len(args) == len(reads), name
            # The task's node: the one whose parameter object it was given.
            nodes = [i for i in range(1, n + 1) if args[0] is own(i)[reads[0]]]
            assert len(nodes) == 1, (name, nodes)
            i = nodes[0]
            for arg, what in zip(args, reads):
                if what is not None:
                    assert arg is own(i)[what], (name, i, what)
            ran.append((name, i))
        # Every node ran each of its kernels once; node 1 releases no flow.
        assert sorted(ran) == sorted(
            (name, i) for name in KERNEL_READS for i in range(1, n + 1)
            if (name, i) != ("local_flow", 1))


def test_aborted_round_keeps_its_round_number():
    # A retry after restore_links logs under a new round, so the audit does
    # not mix its chains with the aborted attempt's.
    spec, params, meas = _random_round_inputs(4, seed=4)
    executor = MessagePassing(spec, params)
    log = executor.log
    executor.fail_link(3, 4)
    with pytest.raises(RoundAbortError, match="link 3 <-> 4 is down"):
        run_control_round(executor, meas)
    executor.restore_links()
    run_control_round(executor, meas)
    assert [m.round for m in log.records] == [0, 0] + [1] * 6
    assert executor.round == 2
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
    executor = MessagePassing(spec, params, rng=np.random.default_rng(3))
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
        for row in node.rows:
            assert type(row) is tuple and all(type(x) is float for x in row)
        assert all(type(x) is float for x in node.weights)


def test_measurements_must_cover_every_node():
    # A short column must not leave a used executor's other nodes on last
    # round's inputs, nor a fresh executor's on none; a long one must not
    # pass for a longer path.  The error names the column.
    spec, params, meas = _random_round_inputs(3, seed=3)
    used = MessagePassing(spec, params)
    run_control_round(used, meas)
    for c, name in enumerate(["z", "uvals", "dwin", "d"]):
        short, long = list(meas), list(meas)
        short[c], long[c] = meas[c][:2], [*meas[c], meas[c][-1]]
        for executor, bad, message in [(used, short, "shorter"),
                                       (MessagePassing(spec, params), short, "shorter"),
                                       (used, long, "longer")]:
            rounds, records = executor.round, len(executor.log.records)
            with pytest.raises(ValueError, match=f"column {name} is {message}"):
                run_control_round(executor, bad)
            # Nothing ran: no round number taken, no message logged.
            assert (executor.round, len(executor.log.records)) == (rounds, records)


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
    executor = MessagePassing(spec, params, rng=np.random.default_rng(2))
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

def reference_round(executor, measurements):
    """A control round whose scheduler rebuilds the whole ready list with an
    O(N) scan before every task, in node-major, phi/delta-first order, and
    picks a task by one scalar executor.rng.random() draw; an aborted round
    draws the rest of its 4N doubles on the way out.  It keeps each node's
    chain state in its own per-node lists."""
    params, n, rnd, rng = executor.params, executor.n, executor.round, executor.rng
    z, uvals, dwin, d = measurements
    phi, pi, delta, mu = [None] * n, [None] * n, [None] * n, [None] * n
    delta_prev, mu_next = [0.0] + [None] * (n - 1), [None] * (n - 1) + [0.0]

    def send(src, dst, kind, value):
        executor._check_link(src, dst)
        executor.log.append(Message(round=rnd, src=src, dst=dst, kind=kind, value=value))
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
            if kind == "phi":
                phi[k] = local_fold(params[k].rows[0], z[k], uvals[k], dwin[k])
            elif kind == "pi":
                pi[k] = local_fold(params[k].rows[1], z[k], uvals[k], dwin[k])
            elif kind == "delta":
                delta[k] = combine(params[k].weights[0], phi[k], delta_prev[k])
                if k + 1 < n:
                    send(k + 1, k + 2, "delta", delta[k])
            else:
                mu[k] = combine(params[k].weights[1], pi[k], mu_next[k])
                if k > 0:
                    send(k + 1, k, "mu", mu[k])
    finally:
        if rng is not None:
            rng.random(4 * n - drawn)
    u = np.zeros(max(n - 1, 0))
    v = np.empty(n)
    for k in range(n):
        v[k] = local_production(params[k], delta_prev[k], mu[k])
        if k > 0:
            u[k - 1] = local_flow(params[k], z[k], uvals[k][0], dwin[k][0],
                                  delta_prev[k], mu[k], d[k])
    executor.round += 1
    return ControlDecision(u=u, v=v)


def _random_round_inputs(n, seed):
    """A spec with mixed delays and weights, and random measurements."""
    rng = np.random.default_rng(seed)
    spec = _spec(n, rng.integers(1, 5, n - 1), horizon=int(rng.integers(0, 4)),
                 q=rng.uniform(0.2, 5.0, n), r=rng.uniform(0.2, 5.0, n))
    params = synthesize(spec)
    meas = _columns([
        (rng.normal(), rng.normal(size=t), rng.normal(size=t), rng.normal())
        for t in params.tau_eff
    ])
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
            executor = MessagePassing(spec, params, rng=rng)
            # Three rounds: the rng stream and the round counter carry over.
            decisions = [round_fn(executor, meas) for _ in range(3)]
            runs.append((decisions, _records(executor.log),
                         rng and rng.bit_generator.state))
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
            rng = np.random.default_rng(seed) if seed is not None else None
            executor = MessagePassing(spec, params, rng=rng)
            executor.fail_link(4, 5)
            with pytest.raises(RoundAbortError, match="is down") as exc:
                round_fn(executor, meas)
            outcomes.append(
                (str(exc.value), _records(executor.log), rng and rng.bit_generator.state)
            )
        assert outcomes[0] == outcomes[1]


def test_unseeded_round_runs_the_first_ready_task():
    # slots[0] every time: node 1's delta chain climbs until the downed link.
    spec, params, meas = _random_round_inputs(7, seed=7)
    executor = MessagePassing(spec, params)
    executor.fail_link(4, 5)
    with pytest.raises(RoundAbortError, match="link 4 <-> 5 is down"):
        run_control_round(executor, meas)
    assert [(m.round, m.src, m.dst, m.kind) for m in executor.log.records] == [
        (0, 1, 2, "delta"), (0, 2, 3, "delta"), (0, 3, 4, "delta"),
    ]


@pytest.mark.parametrize("n", [1, 7])
def test_a_round_advances_the_rng_by_4n_doubles(n):
    # Completed or aborted, a round leaves the rng where random(4 * n) would.
    spec, params, meas = _random_round_inputs(n, seed=20 + n)
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    executor = MessagePassing(spec, params, rng=rng)
    run_control_round(executor, meas)
    twin.random(4 * n)
    assert rng.bit_generator.state == twin.bit_generator.state
    if n > 1:
        executor.fail_link(3, 4)
        with pytest.raises(RoundAbortError, match="is down"):
            run_control_round(executor, meas)
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
        executor = MessagePassing(spec, params, rng=rng)
        decisions = [round_fn(executor, meas) for _ in range(2)]
        executor.fail_link(2, 3)
        with pytest.raises(RoundAbortError, match="is down") as exc:
            round_fn(executor, meas)
        runs.append((decisions, _records(executor.log), str(exc.value), rng))
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
        executor = MessagePassing(spec, params, rng=scheduler)
        closed_loop(spec, params, plan, 12, z0, pipes, executor=executor, **mode)
        logs.append(sorted(
            (m.round, m.src, m.dst, m.kind, m.time, repr(m.value))
            for m in executor.log.records
        ))
    unseeded, seeded = logs
    assert seeded == unseeded and len(seeded) >= 12 * 2 * (n - 1)


def test_one_executor_serves_two_runs():
    # Rounds number on across runs, so one log holds both; each run still
    # decides as the sequential controller does.
    spec = _spec(4, [2, 3, 1], horizon=3, q=(1.0, 0.4, 2.0, 1.1))
    params = synthesize(spec)
    plan = DisturbancePlan({(2, 1): -0.6, (2, 6): 0.9, (1, 3): 0.2, (3, 4): 0.5})
    executor = MessagePassing(spec, params, rng=np.random.default_rng(8))
    z0 = [1.0, -0.5, 2.0, 0.1]
    for first_round, mode in [(0, {}), (7, {"announce": 2})]:
        seq = closed_loop(spec, params, plan, 7, z0, **mode)
        dist = closed_loop(spec, params, plan, 7, z0, executor=executor, **mode)
        for a, b in zip(seq.decisions, dist.decisions, strict=True):
            assert a.u.tobytes() == b.u.tobytes()
            assert a.v.tobytes() == b.v.tobytes()
        rounds = {m.round for m in executor.log.records if m.round >= first_round}
        assert rounds == set(range(first_round, first_round + 7))
    assert executor.round == 14
    assert of_kind(executor.log, "D-update")
    report = audit_message_log(executor.log, spec)
    assert report.ok, report.violations


@pytest.mark.parametrize("rng, name", [
    (3, "int"), (np.random.RandomState(0), "RandomState"), (np.random.PCG64(0), "PCG64"),
    ("seed", "str"),
])
def test_scheduler_rng_must_be_a_generator(rng, name):
    # It used to pass set-up and fail inside the first round.
    spec = _spec(3, [1, 2], horizon=1)
    with pytest.raises(TypeError, match=f"rng must be a numpy Generator or None, not {name}$"):
        MessagePassing(spec, synthesize(spec), rng=rng)
