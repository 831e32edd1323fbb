"""The package attributes that the benchmark's hooks wrap.

perfbench/tracing.py skips a hook whose attribute is gone, and a traced
run then silently drops every per-layer metric that needs it.  These
tests fail instead, when a name the hooks look up is removed or renamed.
"""

from pathlib import Path

import pytest

from pathlq import simulate, verify

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
