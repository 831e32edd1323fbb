"""The paper's cost model as exact counts, not seconds.

A full-plan step of the sequential controller is O(N) array work in a
fixed number of calls: the Python work per step must not grow with N.
A message-passing round is 4N tasks of a fixed number of calls each:
its calls grow linearly in N.  Calls are counted with sys.setprofile.
A full-plan step's count is the difference between a 30-step and a
10-step run, so set-up drops out; a round is counted on its own, its
executor built beforehand.  Counts are compared across N, not with a
fixed number, so that another Python or numpy version does not break
the test.  The garbage collector is off while counting: a collection
runs gc.callbacks (hypothesis installs one) and finalizers, whose calls
depend on the allocation history of the whole test session.

Synthesis runs its three chains as Python loops over floats, which make
no calls, and its tables as array code over runs of nodes: its
Python-level calls do not depend on N, and grow linearly in H, one per
P row of each run.  The runs pad each node's P updates at most fourfold,
or by a bounded amount, whatever the spread of the delays.  It stores
O(tau_i) floats per node, so its memory is O(H) in the horizon H, which
only node N's tables span.

Peak allocations are measured with tracemalloc, also with the garbage
collector off.  Synthesis's is compared across H.  A full-plan run's is
compared across N: it grows as N^2, which is the ledger's window buffer,
2(N+1) rows of width sigma_N + H + 1.  A ledger step between two
compactions of that buffer allocates a few small objects, whatever N.

The oracle's stationary Riccati solve is counted in doubling steps: the
smallest RICCATI_MAX_ITER at which the call does not raise.  A step is
one np.linalg.solve, and a call makes two more, one for F and
(R + B'QB)^-1 B' before the loop and one for the residual check after
it.  Its Python-level calls are a + b steps, with one a and one b
whatever the system.
"""

import contextlib
import functools
import gc
import sys
import tracemalloc

import numpy as np

from pathlq import simulate
from pathlq.harness import MessagePassing, run_control_round
from pathlq.ledger import DisturbancePlan, advance_time, init_shifted_sums
from pathlq.model import GraphSpec
from pathlq.oracle import build_augmented_system, stationary_riccati
from pathlq.simulate import closed_loop
from pathlq.synthesis import _JOIN_LIMIT, _batches, params_to_document, synthesize

from diagnostics import certify_family, doubling_steps


def _uniform_spec(n: int, horizon: int, long_edge: int = 3) -> GraphSpec:
    """tau = 3 on every edge but the middle one, which has long_edge."""
    tau = [3] * (n - 1)
    if n > 1:
        tau[(n - 1) // 2] = long_edge
    return GraphSpec(n=n, tau=tuple(tau), q=(1.0,) * n, r=(1.0,) * n,
                     horizon=horizon)


def _full_plan_instance(n: int, density: float = 0.05):
    """tau = 3 on every edge, H = 20, and a plan with about `density` of
    each node's admissible entries set."""
    rng = np.random.default_rng(n)
    spec = _uniform_spec(n, 20)
    entries = {}
    for i in range(1, n + 1):
        last = spec.sigma_total + spec.horizon - spec.sigma[i - 1]
        for t in np.flatnonzero(rng.random(last + 1) < density).tolist():
            entries[(i, t)] = float(rng.standard_normal())
    return spec, synthesize(spec), DisturbancePlan(entries)


@contextlib.contextmanager
def _gc_off():
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc_was_enabled:
            gc.enable()


def _calls(fn, *args, events=("call", "c_call")) -> int:
    """Python and C function calls that fn(*args) makes, or only those of
    the given profile events."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in events:
            calls += 1

    with _gc_off():
        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
    return calls


def _peak_bytes(fn, *args) -> int:
    """The tracemalloc peak of the allocations fn(*args) makes."""
    with _gc_off():
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_calls_per_full_plan_step_do_not_depend_on_n():
    per_step = {}
    for n in (50, 200, 1000):
        instance = _full_plan_instance(n)
        per_step[n] = (_calls(closed_loop, *instance, 30)
                       - _calls(closed_loop, *instance, 10))
    assert len(set(per_step.values())) == 1, per_step


def _round_instance(n: int):
    """An executor without an rng, so a fixed schedule, and one round's
    measurement columns at N = n (tau = 3 on every edge, H = 20)."""
    rng = np.random.default_rng(n)
    spec = _uniform_spec(n, 20)
    params = synthesize(spec)
    uvals, dwin = ([rng.standard_normal(t).tolist() for t in params.tau_eff]
                   for _ in range(2))
    measurements = (rng.standard_normal(n).tolist(), uvals, dwin,
                    rng.standard_normal(n).tolist())
    return MessagePassing(spec, params, rng=None), measurements


def test_calls_per_harness_round_grow_linearly_in_n():
    # calls(N) = a + b N exactly: doubling N from 50 adds twice the calls
    # that doubling it from 25 adds.
    calls = {n: _calls(run_control_round, *_round_instance(n)) for n in (25, 50, 100)}
    assert calls[100] - calls[50] == 2 * (calls[50] - calls[25]), calls


def test_synthesis_memory_grows_linearly_in_the_horizon():
    # Node N's tables span H + 1 delay slots: O(H) rows at most double the
    # peak when H doubles, a stored (H + 1)^2 P table about quadruples it.
    peak = {}
    for horizon in (200, 400, 800):
        peak[horizon] = _peak_bytes(synthesize, _uniform_spec(4, horizon))
    assert peak[400] <= 3 * peak[200] and peak[800] <= 3 * peak[400], peak


def test_python_calls_in_synthesis_do_not_depend_on_n():
    # Per node and delay slot, the chains make no Python-level call, and
    # each run's tables are a fixed number of array calls.  Each P row of
    # a run adds one resumption of p_rows: calls(H) = a + b H, so doubling
    # H from 200 adds twice what doubling it from 100 adds, not more.  One
    # long edge adds a run, whatever N.
    python_calls = functools.partial(_calls, synthesize, events=("call",))
    for long_edge in (3, 40):
        by_n = {n: python_calls(_uniform_spec(n, 20, long_edge))
                for n in (50, 200, 800)}
        assert len(set(by_n.values())) == 1, (long_edge, by_n)
    by_h = {h: python_calls(_uniform_spec(4, h)) for h in (100, 200, 400)}
    assert by_h[400] - by_h[200] <= 2 * (by_h[200] - by_h[100]), by_h


def test_synthesis_runs_pad_at_most_four_times_the_p_updates():
    # A node-by-node loop makes tau_eff^2 P updates at a node, give or take
    # a factor of two; a run of B nodes at width T makes B T^2.  Within a
    # class of delays in (T/2, T], padding at most quadruples them, and a
    # class that joins a wider run adds at most _JOIN_LIMIT.  One long edge
    # among many short ones thus keeps its own run.
    specs = [_uniform_spec(1000, 20, 1000), _uniform_spec(1000, 3000),
             _uniform_spec(300, 30, 250), _uniform_spec(1, 200),
             GraphSpec(n=100, tau=tuple(k % 8 + 1 for k in range(99)),
                       q=(1.0,) * 100, r=(1.0,) * 100, horizon=30)]
    for spec in specs:
        tau_eff = (*spec.tau, spec.horizon + 1)
        runs = _batches(tau_eff, np.array(tau_eff))
        classes = max(tau_eff).bit_length() + 1
        members = sorted(k for nodes, _ in runs for k in nodes.tolist())
        assert members == list(range(spec.n))
        assert 0 < len(runs) <= classes
        padded = sum(len(nodes) * width**2 for nodes, width in runs)
        own = sum(t * t for t in tau_eff)
        assert padded <= 4 * own + _JOIN_LIMIT * (classes - len(runs)), spec


def test_full_plan_memory_grows_as_n_squared():
    # The peak of a 40-step full-plan run is the ledger's window buffer,
    # about 48 N^2 bytes at tau = 3 (0.24, 0.71 and 2.4 MB at N = 50, 100
    # and 200).  Growth in N^2 makes the second doubling add about four
    # times what the first adds, growth in N twice: pin the N^2 form.
    peak = {n: _peak_bytes(closed_loop, *_full_plan_instance(n), 40)
            for n in (50, 100, 200)}
    first, second = peak[100] - peak[50], peak[200] - peak[100]
    assert 3 * first < second <= 4 * first, peak


def _advance(windows, steps: int) -> None:
    for _ in range(steps):
        advance_time(windows)


def test_ledger_steps_allocate_the_same_few_bytes_whatever_n():
    # advance_time slides a view one column along the window buffer and
    # copies it back once every sigma_N + H + 1 steps.  40 steps that cross
    # no copy allocate a few hundred bytes; a copy of the (N+1)-row window
    # in every step would peak at about 8 (N+1) (sigma_N + H + 1) bytes,
    # 69 kB at N = 50.
    peak = {}
    for n in (50, 200):
        spec, _, plan = _full_plan_instance(n)
        assert spec.sigma_total + spec.horizon + 1 > 40
        peak[n] = _peak_bytes(_advance, init_shifted_sums(plan, spec), 40)
    assert max(peak.values()) <= 4096, peak


def test_params_document_grows_linearly_in_the_horizon():
    # params.json holds each node's slice, O(N tau + H) floats: doubling H
    # from 200 adds about what doubling it from 100 adds.  A document of
    # node N's (H + 1)^2 P table adds about four times as much.
    size = {}
    for horizon in (100, 200, 400):
        spec = GraphSpec(n=4, tau=(2, 1, 3), q=(1.0,) * 4, r=(1.0,) * 4,
                         horizon=horizon)
        size[horizon] = len(params_to_document(synthesize(spec)).encode())
    assert size[400] - size[200] <= 2.2 * (size[200] - size[100]), size


def _announced_run(n: int, node: int, lead: int, monkeypatch):
    """The Python calls that one entry d_node[30] = 1.0, announced lead
    steps ahead, adds to a 60-step run at tau = 3, H = 20, and the D-update
    hops that apply_plan_updates returns for it."""
    spec = _uniform_spec(n, 20)
    params = synthesize(spec)
    run = functools.partial(closed_loop, spec, params, steps=60, announce=lead)
    plan = DisturbancePlan({(node, 30): 1.0})
    extra = _calls(run, plan) - _calls(run, DisturbancePlan())
    hops = []

    def recording(*args):
        messages = apply_plan_updates(*args)
        hops.extend(messages)
        return messages

    apply_plan_updates = simulate.apply_plan_updates
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "apply_plan_updates", recording)
        run(plan)
    return extra, len(hops)


def test_calls_per_announcement_hop_are_fixed(monkeypatch):
    # An announced entry travels upstream one D-update per hop, each hop a
    # fixed number of calls: extra calls = a + b hops, with one a and one b
    # whatever N, the entry's node and its lead.  An entry at node N has no
    # node above it, sends no message, and adds one fixed count too.
    by_hops, at_last = {}, set()
    for n in (20, 80):
        for lead in (2, 8, 20):
            for node in (1, n // 2):
                extra, hops = _announced_run(n, node, lead, monkeypatch)
                by_hops.setdefault(hops, set()).add(extra)
            extra, hops = _announced_run(n, n, lead, monkeypatch)
            assert hops == 0, (n, lead)
            at_last.add(extra)
    assert len(at_last) == 1, at_last
    assert 0 not in by_hops and all(len(e) == 1 for e in by_hops.values()), by_hops
    (h0, (e0,)), (h1, (e1,)) = sorted(by_hops.items())[:2]
    b, rem = divmod(e1 - e0, h1 - h0)
    assert rem == 0 and b > 0, by_hops
    a = e0 - b * h0
    assert all(extra == {a + b * hops} for hops, extra in by_hops.items()), by_hops


def _riccati_counts(system, monkeypatch) -> tuple[int, int, int]:
    """(doubling steps, np.linalg.solve calls, Python-level calls) of
    stationary_riccati(system)."""
    steps = doubling_steps(system, monkeypatch)
    solves = 0
    solve = np.linalg.solve

    def counting(*args):
        nonlocal solves
        solves += 1
        return solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", counting)
        stationary_riccati(system)
    return steps, solves, _calls(stationary_riccati, system, events=("call",))


def test_riccati_makes_one_solve_a_step_and_fixed_calls(monkeypatch):
    # An n = 1, H = 0 system and the first three of certify_family(0) with
    # different step counts (4, 5 and 6).  Each call makes steps + 2
    # solves; its Python-level calls are a + b steps, b those of one solve
    # and the convergence test.
    one_node = GraphSpec(n=1, tau=(), q=(1.0,), r=(1.0,), horizon=0)
    by_steps = {}
    for inst in certify_family(0):
        system = build_augmented_system(inst.spec)
        by_steps.setdefault(doubling_steps(system, monkeypatch), system)
    systems = [build_augmented_system(one_node), *list(by_steps.values())[:3]]
    counts = [_riccati_counts(system, monkeypatch) for system in systems]
    assert len({steps for steps, _, _ in counts}) >= 3, counts
    for steps, solves, _ in counts:
        assert solves == steps + 2, counts
    (s0, _, c0), *_, (s1, _, c1) = sorted(counts)
    per_step, rest = divmod(c1 - c0, s1 - s0)
    assert rest == 0, counts
    a = c0 - per_step * s0
    assert all(calls == a + per_step * steps for steps, _, calls in counts), counts
