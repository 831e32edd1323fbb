"""Tests for the two-sweep online controller."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlq import simulate
from pathlq.controller import (
    combine_delta,
    combine_mu,
    compute_actions,
    control_step,
    downstream_sweep,
    local_flow,
    local_phi,
    local_pi,
    local_production,
    upstream_sweep,
)
from pathlq.errors import LedgerRangeError, SpecError
from pathlq.harness import MessagePassing
from pathlq.ledger import DisturbancePlan, advance_time, init_shifted_sums
from pathlq.model import GraphSpec, PlantState
from pathlq.simulate import Sequential, closed_loop
from pathlq.synthesis import synthesize

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0  # 0.618...


def _state_at(spec, t, z, pipelines):
    """PlantState.initial(spec, z, pipelines), moved to time t."""
    state = PlantState.initial(spec, z, pipelines)
    state.t = t
    return state


def _spec(n, tau, horizon, q=None, r=None):
    q = tuple(q) if q is not None else (1.0,) * n
    r = tuple(r) if r is not None else (1.0,) * n
    return GraphSpec(n=n, tau=tuple(tau), q=q, r=r, horizon=horizon)


def _zero_setup(spec):
    params = synthesize(spec)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    return params, plan, windows


def test_zero_state_gives_zero_action():
    spec = _spec(4, [2, 1, 3], horizon=3)
    params, _plan, windows = _zero_setup(spec)
    state = PlantState.initial(spec)
    decision, sweeps = control_step(state, windows, np.zeros(4), params)
    assert np.array_equal(decision.u, np.zeros(3))
    assert np.array_equal(decision.v, np.zeros(4))
    assert np.array_equal(sweeps.delta, np.zeros(4))
    assert np.array_equal(sweeps.mu, np.zeros(4))


def test_single_node_matches_stationary_scalar_gain():
    # One node, no plan: v = -k z with k = (sqrt(5)-1)/2 for q = r = 1,
    # the stationary gain of x' = x + v with unit weights.
    spec = _spec(1, [], horizon=0)
    params, _plan, windows = _zero_setup(spec)
    state = PlantState.initial(spec, z0=[1.0])
    decision, _ = control_step(state, windows, np.zeros(1), params)
    assert decision.u.size == 0
    assert abs(decision.v[0] + GOLDEN) < 1e-12

    # The gain is state-independent.
    state2 = PlantState.initial(spec, z0=[-3.7])
    decision2, _ = control_step(state2, windows, np.zeros(1), params)
    assert abs(decision2.v[0] - 3.7 * GOLDEN) < 1e-12


def test_pi_unit_delay_example():
    # For tau_i = 1 the pi kernel reduces to z + g(2) * (u_in + D).
    spec = _spec(2, [1], horizon=2)
    params, _plan, windows = _zero_setup(spec)
    p = params.node_slice(0)
    dwin = np.array([0.5])
    got = local_pi(p, 2.0, np.array([0.25]), dwin)
    assert np.isclose(got, 2.0 + p.gprod[1] * 0.75)
    # mu combine is affine in the upstream value with slope b.
    assert combine_mu(p, 1.0, 2.0) == 1.0 + 2.0 * p.b


def test_controller_is_linear_in_state_and_plan():
    rng = np.random.default_rng(3)
    spec = _spec(4, [2, 3, 1], horizon=4)
    params = synthesize(spec)

    def act(scale):
        plan = DisturbancePlan({(2, 3): -0.4 * scale, (4, 1): 0.9 * scale})
        windows = init_shifted_sums(plan, spec)
        z0 = scale * np.array([1.0, -2.0, 0.5, 3.0])
        pipes = [scale * rng0.normal(size=t) for t in spec.tau]
        state = PlantState.initial(spec, z0=z0, pipelines0=pipes)
        decision, _ = control_step(state, windows, plan.d_now(spec, 0), params)
        return np.concatenate([decision.u, decision.v])

    for _ in range(5):
        seed = int(rng.integers(1 << 30))
        rng0 = np.random.default_rng(seed)
        base = act(1.0)
        rng0 = np.random.default_rng(seed)
        scaled = act(-2.5)
        assert np.max(np.abs(scaled - (-2.5) * base)) < 1e-12


def test_sweeps_are_order_independent():
    spec = _spec(5, [3, 2, 5, 4], horizon=5)
    params = synthesize(spec)
    plan = DisturbancePlan({(3, 2): 1.0, (1, 4): -0.3})
    windows = init_shifted_sums(plan, spec)
    rng = np.random.default_rng(11)
    state = PlantState.initial(
        spec,
        z0=rng.normal(size=5),
        pipelines0=[rng.normal(size=t) for t in spec.tau],
    )
    d0 = plan.d_now(spec, 0)
    decision, sweeps = control_step(state, windows, d0, params)
    heads = (
        state.z,
        state.flows.take(params.delay_cols[:, 0], mode="clip"),
        windows.gather(params.delay_cols[:, :1])[:, 0],
        d0,
    )

    delta = upstream_sweep(sweeps.Phi, params)
    mu = downstream_sweep(sweeps.pi, params)
    first = compute_actions(*heads, delta, mu, params)

    mu2 = downstream_sweep(sweeps.pi, params)
    delta2 = upstream_sweep(sweeps.Phi, params)
    second = compute_actions(*heads, delta2, mu2, params)

    for got in (first, second):
        assert got.u.tobytes() == decision.u.tobytes()
        assert got.v.tobytes() == decision.v.tobytes()


def test_policy_is_time_invariant():
    # Same plant state and same relative disturbance pattern at a later
    # time must give the same action.
    spec = _spec(3, [2, 2], horizon=3)
    params = synthesize(spec)
    rng = np.random.default_rng(5)
    z0 = rng.normal(size=3)
    pipes = [rng.normal(size=t) for t in spec.tau]

    def act(t0):
        plan = DisturbancePlan({(2, t0 + 2): -0.8, (1, t0 + 1): 0.4})
        windows = init_shifted_sums(plan, spec, now=t0)
        state = _state_at(spec, t0, z0, pipes)
        decision, _ = control_step(state, windows, plan.d_now(spec, t0), params)
        return decision

    a, b = act(0), act(17)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)


def test_short_window_raises():
    # Windows built for a shorter planning horizon than the controller
    # tables assume cannot serve the needed slices.
    spec = _spec(2, [3], horizon=4)
    params = synthesize(spec)
    short = GraphSpec(n=2, tau=(3,), q=(1.0, 1.0), r=(1.0, 1.0), horizon=1)
    windows = init_shifted_sums(DisturbancePlan(), short)
    state = PlantState.initial(spec, z0=[1.0, 0.0])
    with pytest.raises(LedgerRangeError):
        control_step(state, windows, np.zeros(2), params)


# 1.5 used to run as 2, [1] to end in a bare TypeError, "1" to read as 1,
# True and np.True_ to run as 1.
@pytest.mark.parametrize("announce", [-1, 3, 1.5, [1], "1", True, np.True_])
def test_announcement_horizon_outside_0_to_H_rejected(announce):
    spec = _spec(2, [1], horizon=2)
    params = synthesize(spec)
    plan = DisturbancePlan({(1, 3): 1.0})
    want = f"announcement horizon {announce!r} must be a whole number"
    with pytest.raises(ValueError, match=re.escape(want)):
        closed_loop(spec, params, plan, 6, announce=announce)


def test_negative_step_count_rejected():
    spec = _spec(2, [1], horizon=2)
    with pytest.raises(ValueError, match="steps = -1 must be >= 0"):
        closed_loop(spec, synthesize(spec), DisturbancePlan(), -1)


@pytest.mark.parametrize("steps", [2.5, 2.0, True, "2"])
def test_non_integer_step_count_rejected(steps):
    # 2.5 and True used to end in a bare TypeError from numpy.
    spec = _spec(2, [1], horizon=2)
    with pytest.raises(ValueError, match=f"steps = {steps!r} must be an integer"):
        closed_loop(spec, synthesize(spec), DisturbancePlan(), steps)


def test_numpy_integer_step_count_accepted():
    spec = _spec(2, [1], horizon=2)
    res = closed_loop(spec, synthesize(spec), DisturbancePlan(), np.int64(3))
    assert len(res.decisions) == 3


@pytest.mark.parametrize("announce", [0, 1])
def test_announce_with_blind_rejected(announce):
    # A blind controller learns nothing, so an announcement horizon would be
    # silently ignored.
    spec = _spec(2, [1], horizon=2)
    with pytest.raises(ValueError, match=f"announce = {announce} is ignored when blind"):
        closed_loop(spec, synthesize(spec), DisturbancePlan(), 4,
                    announce=announce, blind=True)


# Each kind of mismatch from n = 3, tau = (2, 1), H = 2, q = r = 1.
MISMATCHES = {
    "q": dict(q=(5.0,) * 3),
    "r": dict(r=(1.0, 2.0, 1.0)),
    "tau": dict(tau=(1, 2)),
    "H": dict(horizon=3),
    "n": dict(n=4, tau=(2, 1, 1), q=(1.0,) * 4, r=(1.0,) * 4),
}


@pytest.mark.parametrize("other", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_params_for_another_spec_rejected(other):
    spec = _spec(3, [2, 1], horizon=2)
    params = synthesize(spec)
    run_spec = replace(spec, **other)
    name = next(iter(other))
    want = f"synthesized for {name} = {getattr(spec, name)} run on {name} = "
    with pytest.raises(SpecError, match=re.escape(want)):
        closed_loop(run_spec, params, DisturbancePlan({(1, 0): 1.0}), 6)
    # An equal spec built apart, from lists too, is the same instance.
    closed_loop(_spec(3, [2, 1], horizon=2), params, DisturbancePlan(), 6)
    lists = GraphSpec(n=3, tau=[2, 1], q=[1.0] * 3, r=[1.0] * 3, horizon=2)
    closed_loop(lists, params, DisturbancePlan(), 6)


@pytest.mark.parametrize("mode", [{}, {"announce": 0}, {"blind": True}],
                         ids=["full-plan", "announce", "blind"])
@pytest.mark.parametrize("key", [(2, 1.5), (2.7, 1), (2.0, 1)])
def test_non_integer_plan_key_rejected_in_every_mode(mode, key):
    # Truncated, (2, 1.5) would run as (2, 1) and (2.7, 1) as node 2.
    spec = _spec(3, [2, 1], horizon=2)
    plan = DisturbancePlan({(1, 0): 0.5, key: 1.0})
    want = f"disturbance key {key!r} is not a (node, time) pair of integers"
    with pytest.raises(SpecError, match=re.escape(want)):
        closed_loop(spec, synthesize(spec), plan, 6, **mode)


@pytest.mark.parametrize("mode", [{}, {"announce": 0}, {"blind": True}],
                         ids=["full-plan", "announce", "blind"])
def test_plan_keys_that_are_not_pairs_rejected_in_every_mode(mode):
    # Flattened, the two keys would run as d_1[2] = 0.5 and d_3[1] = 1.0.
    spec = _spec(3, [2, 1], horizon=2)
    entries = {(1,): 0.5, (2, 3, 1): 1.0}
    plan = DisturbancePlan(dict(entries))
    want = "disturbance key (1,) is not a (node, time) pair of integers"
    with pytest.raises(SpecError, match=re.escape(want)):
        closed_loop(spec, synthesize(spec), plan, 6, **mode)
    assert list(plan.entries.items()) == list(entries.items())


@pytest.mark.parametrize("mode", [{}, {"announce": 0}, {"blind": True}],
                         ids=["full-plan", "announce", "blind"])
@pytest.mark.parametrize("key, amount, want", [
    ((1, 2**70), 1.0, f"key {(1, 2**70)!r} is not a (node, time) pair of integers "
                      "within 64 bits (amount 1.0)"),
    ((2**63, 1), 1.0, f"key {(2**63, 1)!r} is not a (node, time) pair of integers "
                      "within 64 bits (amount 1.0)"),
    ((2, 1), "x", "at node 2, time 1 is 'x': not readable as a float"),
    ((2, 1), 1j, "at node 2, time 1 is 1j: not readable as a float"),
    ((2, 1), None, "at node 2, time 1 is None: not readable as a float"),
], ids=["time-past-int64", "node-past-int64", "text", "complex", "none"])
def test_unreadable_plan_entry_rejected_in_every_mode(mode, key, amount, want):
    spec = _spec(3, [2, 1], horizon=2)
    entries = {(1, 0): 0.5, key: amount, (3, 2): 1.0}
    plan = DisturbancePlan(dict(entries))
    with pytest.raises(SpecError, match=re.escape(want)):
        closed_loop(spec, synthesize(spec), plan, 6, **mode)
    assert list(plan.entries.items()) == list(entries.items())


@pytest.mark.parametrize("mode", [{}, {"announce": 1}, {"blind": True}],
                         ids=["full-plan", "announce", "blind"])
def test_plan_amounts_run_as_float_reads_them(mode):
    # tau = (2, 1): d_3[1] and d_2[2] share shifted time 4.  Announced one
    # step ahead, d_3[1] is known at t = 0 and read back when d_2[2]
    # arrives at t = 1; both are summed as floats.
    spec = _spec(3, [2, 1], horizon=2)
    params = synthesize(spec)
    given = {(1, 0): "0.5", (3, 1): np.float32(0.1), (2, 2): Fraction(1, 3),
             (1, 3): True, (2, 3): "-1.5"}
    runs = [
        closed_loop(spec, params, DisturbancePlan(entries), 6, **mode)
        for entries in (given, {key: float(x) for key, x in given.items()})
    ]
    got, want = (res.trajectory for res in runs)
    for name in ("z", "u", "v", "d"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert runs[0].total_cost == runs[1].total_cost


def test_blind_controller_regulates_initial_imbalance():
    # A controller that never sees the plan still drives the levels toward
    # zero when there are no disturbances.
    spec = _spec(3, [1, 2], horizon=2)
    params = synthesize(spec)
    res = closed_loop(
        spec, params, DisturbancePlan(), 60, z0=[2.0, -1.0, 0.5], blind=True
    )
    assert np.max(np.abs(res.trajectory.z[-1])) < 1e-8


class _Recording(Sequential):
    """The default executor, keeping a copy of each step's known d."""

    def __init__(self):
        self.seen = []

    def decide(self, state, windows, d_now, params):
        self.seen.append(np.array(d_now))
        return super().decide(state, windows, d_now, params)


@pytest.mark.parametrize("mode", [{}, {"announce": 2}, {"blind": True}],
                         ids=["full-plan", "announce", "blind"])
def test_known_disturbance_is_the_plan_row_bitwise(mode):
    # Every entry is known by its own time unless blind, so the executor
    # gets plan.d_now(t) (zeros when blind) and the plant gets plan.d_now(t).
    spec = _spec(3, [1, 2], horizon=2)
    params = synthesize(spec)
    plan = DisturbancePlan({
        (1, 0): 0.3, (2, 2): -0.0, (3, 2): -1.5, (1, 4): 0.25,
        (2, -1): 0.7, (1, 5): 2.0, (3, 9): 0.0,
    })
    steps = 5
    executor = _Recording()
    res = closed_loop(spec, params, plan, steps, executor=executor, **mode)
    assert len(executor.seen) == steps
    for t, got in enumerate(executor.seen):
        true = plan.d_now(spec, t)
        want = np.zeros(spec.n) if mode.get("blind") else true
        assert got.tobytes() == want.tobytes()
        assert res.trajectory.d[t].tobytes() == true.tobytes()



def _rebuilt_final_state(traj):
    """The end-of-run state rebuilt from the trajectory: flow u_e[s] is
    traj.u for s >= 0 and the initial pipeline before."""
    spec, T = traj.spec, traj.steps
    pipes = []
    for e, tau in enumerate(spec.tau):
        flows = np.concatenate([traj.init_pipelines[e], traj.u[:, e]])
        pipes.append(flows[T : T + tau])  # u_e[T - tau .. T - 1]
    return _state_at(spec, T, traj.z[T], pipes)


@pytest.mark.parametrize("n, tau, steps", [
    (4, [3, 1, 2], 0), (4, [3, 1, 2], 2), (4, [3, 1, 2], 25), (1, [], 0), (1, [], 7),
])
def test_final_state_is_the_state_rebuilt_from_the_trajectory(n, tau, steps):
    # steps = 0 and steps < tau leave pre-run flows in the pipelines.
    rng = np.random.default_rng(steps + n)
    spec = _spec(n, tau, horizon=2)
    params = synthesize(spec)
    plan = DisturbancePlan({(n, 1): 0.8, (1, 2): -0.4})
    z0, pipes0 = rng.normal(size=n), [rng.normal(size=t) for t in tau]
    res = closed_loop(spec, params, plan, steps, z0, pipes0)
    got, want = res.final_state, _rebuilt_final_state(res.trajectory)
    assert got.t == want.t == steps
    assert got.z.tobytes() == want.z.tobytes()
    assert [p.tobytes() for p in got.pipelines] == [p.tobytes() for p in want.pipelines]
    if steps:
        state = PlantState.initial(spec, z0, pipes0)
        first, _ = control_step(state, init_shifted_sums(plan, spec, now=0),
                                plan.d_now(spec, 0), params)
        assert res.decisions[0].u.tobytes() == first.u.tobytes()
        assert res.decisions[0].v.tobytes() == first.v.tobytes()


@pytest.mark.parametrize("tau", [(), (1,), (3, 1, 2)], ids=["n1", "tau1", "mixed"])
@pytest.mark.parametrize("steps", [0, 4])
def test_init_pipelines_keep_the_pre_run_flows(tau, steps):
    n = len(tau) + 1
    spec = _spec(n, tau, horizon=2)
    pipes0 = [np.arange(1.0, t + 1.0) * (e + 1) for e, t in enumerate(tau)]
    want = [p.tobytes() for p in pipes0]
    res = closed_loop(spec, synthesize(spec), DisturbancePlan({(n, 1): 0.8}), steps,
                      pipelines0=pipes0)
    got = res.trajectory.init_pipelines
    assert type(got) is tuple and [p.shape for p in got] == [(t,) for t in tau]
    assert [p.tobytes() for p in got] == want
    # Neither the plant's buffer (the initial one when steps = 0) nor the
    # caller's arrays share memory with them.
    res.final_state.flows[:] = -7.0
    for p in pipes0:
        p[:] = -9.0
    assert [p.tobytes() for p in got] == want


def test_full_plan_run_announces_nothing(monkeypatch):
    # With every entry at t <= H, announce=H also knows the whole plan at
    # t = 0; both runs build the same windows and decide bitwise alike.
    calls = []
    monkeypatch.setattr(simulate, "apply_plan_updates",
                        lambda *args: calls.append(args) or [])
    spec = _spec(4, [2, 3, 1], horizon=5)
    params = synthesize(spec)
    rng = np.random.default_rng(3)
    # In no sorted order, one entry before t = 0 and one at t = H.
    plan = DisturbancePlan({(2, -1): 0.7, (4, spec.horizon): -0.3})
    for i, t in zip(rng.integers(1, 5, 12), rng.integers(0, spec.horizon, 12)):
        plan.entries[int(i), int(t)] = float(rng.normal())
    before = dict(plan.entries)
    z0 = rng.normal(size=4)
    runs = [closed_loop(spec, params, plan, 20, z0, announce=a)
            for a in (None, spec.horizon)]
    assert calls == []
    assert plan.entries == before
    full, announced = runs
    for a, b in zip(full.decisions, announced.decisions):
        assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
    costs = np.array([full.total_cost, announced.total_cost])
    assert costs[0].tobytes() == costs[1].tobytes()


def _per_node_step(state, windows, d_now, params):
    """control_step's outputs from the per-node kernels, one node at a time,
    as the message-passing harness computes them."""
    n = params.spec.n
    nodes = [params.node_slice(k) for k in range(n)]
    uvals = [
        state.pipelines[k] if k < n - 1 else np.zeros(params.tau_eff[k])
        for k in range(n)
    ]
    dwin = [windows.slice(k + 1, params.tau_eff[k]) for k in range(n)]
    z = [float(x) for x in state.z]
    Phi = [local_phi(p, z[k], uvals[k], dwin[k]) for k, p in enumerate(nodes)]
    pi = [local_pi(p, z[k], uvals[k], dwin[k]) for k, p in enumerate(nodes)]
    delta, prev = [], 0.0
    for k in range(n):
        prev = combine_delta(nodes[k], Phi[k], prev)
        delta.append(prev)
    mu, nxt = [0.0] * n, 0.0
    for k in range(n - 1, -1, -1):
        nxt = mu[k] = combine_mu(nodes[k], pi[k], nxt)
    delta_prev = [0.0] + delta[:-1]
    u = [
        local_flow(
            nodes[k], z[k], float(uvals[k][0]), float(dwin[k][0]),
            delta_prev[k], mu[k], float(d_now[k]),
        )
        for k in range(1, n)
    ]
    v = [local_production(p, delta_prev[k], mu[k]) for k, p in enumerate(nodes)]
    return [np.array(x, dtype=float) for x in (u, v, Phi, delta, pi, mu)]


def _drawn_values(data, size):
    """size floats, each 0.0, -0.0 or a generic value with all its bits set
    by a seeded generator, so that reordering any sum shows in the result."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    out = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
    kinds = data.draw(st.lists(st.sampled_from("00-xxx"), min_size=size, max_size=size))
    out[[k == "0" for k in kinds]] = 0.0
    out[[k == "-" for k in kinds]] = -0.0
    return out


def _check_packed_step(data, n, tau, horizon):
    """control_step against the per-node kernels and against one
    message-passing round, bitwise, on drawn weights, state, plan, time
    offset, current disturbance and scheduler seed."""
    weights = st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)
    spec = _spec(n, tau, horizon, q=data.draw(weights), r=data.draw(weights))
    params = synthesize(spec)
    values = lambda size: _drawn_values(data, size)
    state = PlantState.initial(spec, values(n), [values(t) for t in spec.tau])
    plan = DisturbancePlan()
    for amount in values(data.draw(st.integers(0, 12))):
        node = data.draw(st.integers(1, n))
        bound = spec.horizon + spec.sigma_total - spec.sigma[node - 1]
        plan.entries[(node, data.draw(st.integers(0, bound)))] = float(amount)
    windows = init_shifted_sums(plan, spec)
    for _ in range(data.draw(st.integers(0, 3))):
        advance_time(windows)
    d_now = values(n)

    decision, sweeps = control_step(state, windows, d_now, params)
    got = [decision.u, decision.v, sweeps.Phi, sweeps.delta, sweeps.pi, sweeps.mu]
    want = _per_node_step(state, windows, d_now, params)
    for name, g, w in zip(["u", "v", "Phi", "delta", "pi", "mu"], got, want):
        assert g.tobytes() == w.tobytes(), name
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    executor = MessagePassing(spec, params, rng=rng)
    round_decision = executor.decide(state, windows, d_now, params)
    assert round_decision.u.tobytes() == decision.u.tobytes()
    assert round_decision.v.tobytes() == decision.v.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_step_equals_the_per_node_kernels_bitwise(data):
    # H up to 30, far past max(tau) = 5: node N's own fold is wider than
    # the packed tables.
    n = data.draw(st.integers(1, 8), label="n")
    tau = data.draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    _check_packed_step(data, n, tau, data.draw(st.integers(0, 30), label="H"))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_packed_step_is_bitwise_when_node_n_is_narrower_than_the_table(data):
    # H = 0 with some tau = 5: node N's single slot sits in a 6-wide table.
    n = data.draw(st.integers(2, 8), label="n")
    tau = data.draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    tau[data.draw(st.integers(0, n - 2))] = 5
    _check_packed_step(data, n, tau, 0)


@pytest.mark.parametrize("horizon", [0, 100])
def test_packed_tables_are_as_wide_as_the_longest_edge_delay(horizon):
    spec = _spec(4, [2, 5, 3], horizon)
    params = synthesize(spec)
    assert params.coef.shape == (2, 4, 5 + 1)
    assert params.delay_cols.shape == (4, 5)
    assert params.coef_last.shape == (2, horizon + 2)
