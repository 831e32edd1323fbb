"""The package attributes that the benchmark's hooks wrap.

perfbench/tracing.py skips a hook whose attribute is gone, and a traced
run then silently drops every per-layer metric that needs it.  These
tests fail instead, when a name the hooks look up is removed or renamed.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from pathlq import controller, harness, oracle, simulate, synthesis, verify
from pathlq.ledger import DisturbancePlan, init_shifted_sums
from pathlq.model import GraphSpec, PlantState
from pathlq.synthesis import synthesize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_one_benchmark_episode_per_workload(tracing):
    # The benchmark calls the package directly, with StepProbe's hooks in
    # place; a change that breaks either fails an episode here.
    import workloads

    for name, make in workloads.WORKLOADS.items():
        patches = tracing.Patches()
        try:
            probe = tracing.StepProbe()
            probe.install(patches)
            workload = make(0, probe)
            workload.setup()
            out = workload.episode()
        finally:
            patches.restore()
        assert out.errors == [] and out.failed == 0 and out.ops > 0, name
        if name in ("fullplan", "receding"):
            # Their episodes fail when the total cost leaves this reference.
            assert workload.reference_source == "reference.json", name


def test_every_span_is_installed(tracing):
    patches = tracing.Patches()
    try:
        tracer = tracing.Tracer(tracing.StepProbe())
        tracer.install(patches)
        assert tracer.installed == set(tracing.SPANS) | {"controller.node_slice"}
    finally:
        patches.restore()


def test_step_probe_wraps_the_driver_hooks(tracing):
    # The harness drives its steps through simulate.closed_loop, so these
    # also time and count the message-passing runs.
    hooks = [
        (simulate, "plant_step"),
        (simulate, "advance_time"),
        (simulate, "apply_plan_updates"),
        (verify, "certify_instance"),
    ]
    originals = [getattr(owner, attr) for owner, attr in hooks]
    patches = tracing.Patches()
    try:
        tracing.StepProbe().install(patches)
        for (owner, attr), original in zip(hooks, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        patches.restore()
    assert [getattr(owner, attr) for owner, attr in hooks] == originals


def test_the_oracle_hooks_wrap_the_oracle_and_read_its_arguments():
    # perfbench/tracing.py wraps the oracle as verify globals and reads the
    # system and T of solve_finite_horizon as its arguments 0 and 3.
    for name in ("build_augmented_system", "stationary_riccati", "solve_finite_horizon"):
        assert getattr(verify, name) is getattr(oracle, name), name
    params = list(inspect.signature(verify.solve_finite_horizon).parameters)
    assert (params[0], params[3]) == ("system", "T")


def test_the_round_calls_every_kernel_through_the_harness(tracing, monkeypatch):
    # controller.kernel_ms_per_round times the kernels as harness globals; a
    # kernel inlined into the round would drop out of it without an error.
    calls = dict.fromkeys(tracing.KERNELS, 0)

    def counting(name, fn):
        def kernel(*args):
            calls[name] += 1
            return fn(*args)
        return kernel

    for name in tracing.KERNELS:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    n = 5
    spec = GraphSpec(n=n, tau=(2, 3, 1, 2), q=(1.0,) * n, r=(1.0,) * n, horizon=2)
    params = synthesize(spec)
    meas = ([1.0] * n, [[0.5] * t for t in params.tau_eff],
            [[0.25] * t for t in params.tau_eff], [0.0] * n)
    executor = harness.MessagePassing(spec, params, rng=np.random.default_rng(0))
    harness.run_control_round(executor, meas)
    assert calls == {name: n - 1 if name == "local_flow" else n
                     for name in tracing.KERNELS}


def _hops(windows, changes) -> int:
    """Edges i -> i+1 an update crosses: from each changed shifted time's
    lowest changed node up to the last node i < N whose window holds it."""
    spec, now = windows.spec, windows.now
    width = spec.sigma_total + spec.horizon + 1
    origin = {}
    for node, t in sorted(changes):
        origin.setdefault(t + spec.sigma[node - 1], node)
    return sum(
        spec.sigma[i - 1] <= st - now < width
        for st, lo in origin.items()
        for i in range(lo, spec.n)
    )


def test_a_receding_loop_returns_one_message_per_hop(monkeypatch):
    # The benchmark counts receding's messages_per_step as the lengths of
    # what simulate.apply_plan_updates returns.
    calls = []
    apply_plan_updates = simulate.apply_plan_updates

    def counted(windows, plan, changes):
        hops = _hops(windows, changes)
        messages = apply_plan_updates(windows, plan, changes)
        calls.append((len(messages), hops))
        return messages

    monkeypatch.setattr(simulate, "apply_plan_updates", counted)
    n = 6
    spec = GraphSpec(n=n, tau=(1, 3, 2, 4, 1), q=(1.0,) * n, r=(1.0,) * n, horizon=4)
    rng = np.random.default_rng(5)
    plan = DisturbancePlan({
        (int(node), t): float(rng.normal())
        for t in range(40) for node in rng.choice(np.arange(1, n + 1), 2, replace=False)
    })
    simulate.closed_loop(spec, synthesize(spec), plan, 30, announce=3)
    assert len(calls) == 30 - 1  # every step but t = 0 announces
    assert all(got == hops for got, hops in calls)
    assert sum(got for got, _ in calls) > 0


def test_control_step_calls_both_sweeps_through_the_controller(monkeypatch):
    # controller.upstream_sweep_ms and downstream_sweep_ms time the sweeps
    # as controller globals.
    calls = {"upstream_sweep": 0, "downstream_sweep": 0}

    def counting(name, fn):
        def sweep(*args):
            calls[name] += 1
            return fn(*args)
        return sweep

    for name in calls:
        monkeypatch.setattr(controller, name, counting(name, getattr(controller, name)))
    spec = GraphSpec(n=4, tau=(2, 1, 3), q=(1.0,) * 4, r=(1.0,) * 4, horizon=2)
    windows = init_shifted_sums(DisturbancePlan({(2, 1): 0.5}), spec)
    state = PlantState.initial(spec, np.ones(4), None)
    simulate.control_step(state, windows, np.zeros(4), synthesize(spec))
    assert calls == {"upstream_sweep": 1, "downstream_sweep": 1}


def test_a_set_up_calls_each_sweep_and_the_window_init_once(monkeypatch):
    # synthesis.sweep_*_ms time the three sweeps as synthesis globals and
    # ledger.init_ms the window init as a simulate global, one call each per
    # set-up (synthesize, then closed_loop with steps=0).
    hooks = {"sweep_gamma_rho": synthesis, "sweep_X_g_b_P": synthesis,
             "sweep_h_and_finalize": synthesis, "init_shifted_sums": simulate}
    calls = dict.fromkeys(hooks, 0)

    def counting(name, fn):
        def hook(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return hook

    for name, owner in hooks.items():
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    spec = GraphSpec(n=4, tau=(2, 1, 3), q=(1.0,) * 4, r=(1.0,) * 4, horizon=2)
    params = synthesis.synthesize(spec)
    assert calls == {**dict.fromkeys(hooks, 1), "init_shifted_sums": 0}
    simulate.closed_loop(spec, params, DisturbancePlan({(2, 1): 0.5}), 0)
    assert calls == dict.fromkeys(hooks, 1)
