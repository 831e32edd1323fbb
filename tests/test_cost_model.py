"""The paper's cost model as exact counts, not seconds.

A full-plan step of the sequential controller is O(N) array work in a
fixed number of calls: the Python work per step must not grow with N.
Calls are counted with sys.setprofile, and a step's count is the
difference between a 30-step and a 10-step run, so set-up drops out.
Counts are compared across N, not with a fixed number, so that another
Python or numpy version does not break the test.
"""

import sys

import numpy as np

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


def _calls(spec, params, plan, steps: int) -> int:
    """Python and C function calls that closed_loop makes over `steps` steps."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        closed_loop(spec, params, plan, steps)
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_full_plan_step_do_not_depend_on_n():
    per_step = {}
    for n in (50, 200, 1000):
        instance = _full_plan_instance(n)
        per_step[n] = _calls(*instance, 30) - _calls(*instance, 10)
    assert len(set(per_step.values())) == 1, per_step
