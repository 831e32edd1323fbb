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
"""

import contextlib
import functools
import gc
import sys
import tracemalloc

import numpy as np

from pathlq.harness import MessagePassing, run_control_round
from pathlq.ledger import DisturbancePlan, advance_time, init_shifted_sums
from pathlq.model import GraphSpec
from pathlq.simulate import closed_loop
from pathlq.synthesis import _JOIN_LIMIT, _batches, synthesize


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
