"""The package attributes that the benchmark's hooks wrap.

perfbench/tracing.py skips a hook whose attribute is gone, and a traced
run then silently drops every per-layer metric that needs it.  These
tests fail instead, when a name the hooks look up is removed or renamed.
"""

from pathlib import Path

import numpy as np
import pytest

from pathlq import harness, simulate, verify
from pathlq.model import GraphSpec
from pathlq.synthesis import synthesize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


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
    meas = [(1.0, [0.5] * t, [0.25] * t, 0.0) for t in params.tau_eff]
    harness.run_control_round(harness.Network(spec, params), meas,
                              rng=np.random.default_rng(0))
    assert calls == {name: n - 1 if name == "local_flow" else n
                     for name in tracing.KERNELS}
