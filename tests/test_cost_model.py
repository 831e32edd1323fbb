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

Synthesis stores O(tau_i) floats per node, so its memory is O(H) in the
horizon H, which only node N's tables span.  Its peak allocation is
measured with tracemalloc, also with the garbage collector off, and
compared across H.
"""

import contextlib
import gc
import sys
import tracemalloc

import numpy as np

from pathlq.harness import MessagePassing, run_control_round
from pathlq.ledger import DisturbancePlan
from pathlq.model import GraphSpec
from pathlq.simulate import closed_loop
from pathlq.synthesis import synthesize


def _full_plan_instance(n: int, density: float = 0.05):
    """tau = 3 on every edge, H = 20, and a plan with about `density` of
    each node's admissible entries set."""
    rng = np.random.default_rng(n)
    spec = GraphSpec(n=n, tau=(3,) * (n - 1), q=(1.0,) * n, r=(1.0,) * n, horizon=20)
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


def _calls(fn, *args) -> int:
    """Python and C function calls that fn(*args) makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
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
    spec = GraphSpec(n=n, tau=(3,) * (n - 1), q=(1.0,) * n, r=(1.0,) * n, horizon=20)
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
        spec = GraphSpec(n=4, tau=(3,) * 3, q=(1.0,) * 4, r=(1.0,) * 4, horizon=horizon)
        peak[horizon] = _peak_bytes(synthesize, spec)
    assert peak[400] <= 3 * peak[200] and peak[800] <= 3 * peak[400], peak
