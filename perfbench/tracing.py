"""Outside-in hooks for the benchmark.

Every hook wraps a public function of the package at the module (or
class) attribute where a driver looks it up, so the package itself is
never edited and every number is measured from outside it.

* `StepProbe` is the only instrumentation of an untraced run: a
  timestamp at every call into the plant step (the plant's sample clock),
  the time of each certified instance, runs of the speed kernel next to
  them (speed.py) and a count of the ledger messages the sequential
  driver discards.
* `Tracer` records one span per call of the layer functions (name,
  start, end, parent span, episode, step) in memory, writes them out at
  exit and derives the per-layer metrics from them.

An attribute that no longer exists is skipped: the metrics that need it
are then absent from the result instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

import speed
from pathlq import controller, harness, ledger, simulate, synthesis, verify

perf_counter = time.perf_counter


class Patches:
    """Replaced attributes, so that they can be put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> bool:
        """Replace owner.attr by make(original); False if it is absent."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepProbe:
    """Plant-step timestamps, host-speed samples and ledger-message counts.

    An interval is recorded between two plant steps of the same driver
    call (the plant time advances by exactly one between them).

    `calibrate` says where the speed kernel (see speed.py) runs: "step"
    at every plant step, outside the intervals; "instance" before and
    after every certified instance, outside its time; None nowhere.
    Each interval and instance carries, in `kernels` and `instances`,
    the mean kernel time just before and after it, or
    speed.REFERENCE_S when the kernel is not run, so that normalizing
    leaves it as measured.
    """

    def __init__(self, calibrate: str | None = None):
        self.calibrate = calibrate
        self.intervals: list[float] = []
        self.kernels: list[float] = []
        self.instances: list[tuple[float, float]] = []  # (seconds, kernel seconds)
        self.steps = 0
        self.ledger_messages = 0
        self._last_t = -2
        self._last_stamp = 0.0
        self._last_kernel = speed.REFERENCE_S

    def install(self, patches: Patches) -> None:
        for module in (simulate, harness):
            patches.wrap(module, "plant_step", self._plant_step)
        # The message-passing harness logs its ledger messages itself.
        for attr in ("advance_time", "apply_plan_updates"):
            patches.wrap(simulate, attr, self._ledger_call)
        patches.wrap(verify, "certify_instance", self._certify_instance)

    def speed_sample(self) -> float:
        """Kernel time for a unit timed outside the driver calls (a set-up)."""
        return speed.kernel_median() if self.calibrate else speed.REFERENCE_S

    def _plant_step(self, fn):
        @functools.wraps(fn)
        def plant_step(state, *args, **kwargs):
            stamp = perf_counter()
            joined = state.t == self._last_t + 1
            if joined:
                self.intervals.append(stamp - self._last_stamp)
                self.kernels.append(self._last_kernel)
            if self.calibrate == "step":
                k = speed.kernel()
                if joined:
                    self.kernels[-1] = 0.5 * (self.kernels[-1] + k)
                self._last_kernel = k
                stamp = perf_counter()
            self._last_t = state.t
            self._last_stamp = stamp
            self.steps += 1
            return fn(state, *args, **kwargs)

        return plant_step

    def _certify_instance(self, fn):
        @functools.wraps(fn)
        def certify_instance(*args, **kwargs):
            calibrate = self.calibrate == "instance"
            k = speed.kernel() if calibrate else speed.REFERENCE_S
            first = len(self.intervals)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - t0
            if calibrate:
                k = 0.5 * (k + speed.kernel())
                self.kernels[first:] = [k] * (len(self.kernels) - first)
            self.instances.append((seconds, k))
            return result

        return certify_instance

    def _ledger_call(self, fn):
        @functools.wraps(fn)
        def ledger_call(*args, **kwargs):
            messages = fn(*args, **kwargs)
            self.ledger_messages += len(messages)
            return messages

        return ledger_call


# Span name -> (owner, attribute) pairs: every place a driver looks it up.
SPANS = {
    "synthesis.synthesize": [(synthesis, "synthesize"), (verify, "synthesize")],
    "synthesis.sweep_gamma_rho": [(synthesis, "sweep_gamma_rho")],
    "synthesis.sweep_X_g_b_P": [(synthesis, "sweep_X_g_b_P")],
    "synthesis.sweep_h_and_finalize": [(synthesis, "sweep_h_and_finalize")],
    "simulate.closed_loop": [(simulate, "closed_loop"), (verify, "closed_loop")],
    "ledger.init": [
        (simulate, "init_shifted_sums"),
        (harness, "init_shifted_sums"),
        (verify, "init_shifted_sums"),
    ],
    "ledger.advance_time": [(simulate, "advance_time"), (harness, "advance_time")],
    "ledger.apply_plan_updates": [(simulate, "apply_plan_updates")],
    "ledger.plan_d_now": [(ledger.DisturbancePlan, "d_now")],
    "controller.control_step": [(simulate, "control_step"), (verify, "control_step")],
    "controller.upstream_sweep": [(controller, "upstream_sweep")],
    "controller.downstream_sweep": [(controller, "downstream_sweep")],
    "controller.compute_actions": [(controller, "compute_actions")],
    "model.plant_step": [(simulate, "plant_step"), (harness, "plant_step")],
    "model.stage_cost": [(simulate, "stage_cost"), (harness, "stage_cost")],
    "harness.run_closed_loop": [(harness, "run_closed_loop")],
    "harness.run_control_round": [(harness, "run_control_round")],
    "verify.run_differential_suite": [(verify, "run_differential_suite")],
    "verify.certify_instance": [(verify, "certify_instance")],
    "oracle.build_augmented_system": [(verify, "build_augmented_system")],
    "oracle.stationary_riccati": [(verify, "stationary_riccati")],
    "oracle.solve_finite_horizon": [(verify, "solve_finite_horizon")],
}
# The per-node kernels as the harness binds them.
KERNELS = [
    "local_phi", "local_pi", "combine_delta", "combine_mu", "local_flow",
    "local_production",
]
for _kernel in KERNELS:
    SPANS[f"controller.kernel.{_kernel}"] = [(harness, _kernel)]
DRIVERS = ("simulate.closed_loop", "harness.run_closed_loop")


class Tracer:
    """In-memory spans around the package's layer functions."""

    def __init__(self, probe: StepProbe):
        self.probe = probe
        self.names: list[str] = []
        self.installed: set[str] = set()
        self.counts: Counter = Counter()
        self.hessian_dims: list[int] = []
        self.episode = 0
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.step = array("q")
        self.ep = array("i")
        self._stack = [-1]

    def install(self, patches: Patches) -> None:
        notes = {
            "ledger.apply_plan_updates": self._note_updates,
            "oracle.solve_finite_horizon": self._note_hessian,
        }
        for name, places in SPANS.items():
            nid = len(self.names)
            self.names.append(name)
            for owner, attr in places:
                made = patches.wrap(
                    owner, attr, lambda fn: self._span(nid, fn, notes.get(name))
                )
                if made:
                    self.installed.add(name)
        if patches.wrap(synthesis.ControllerParams, "node_slice", self._count):
            self.installed.add("controller.node_slice")

    def _note_updates(self, args, kwargs, result) -> None:
        changes = args[2] if len(args) > 2 else kwargs["changes"]
        self.counts["ledger.updates"] += len(changes)
        self.counts["ledger.update_hops"] += len(result)

    def _note_hessian(self, args, kwargs, result) -> None:
        system = args[0] if args else kwargs["system"]
        T = args[3] if len(args) > 3 else kwargs["T"]
        self.hessian_dims.append(int(T) * int(system.n_inputs))

    def _count(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["controller.node_slice"] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, nid: int, fn, note):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        steps, eps, stack, probe = self.step, self.ep, self._stack, self.probe

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            steps.append(probe.steps)
            eps.append(self.episode)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                note(args, kwargs, result)
            return result

        return span

    def save(self, path, meta: dict) -> None:
        """Write the spans as columns (times in seconds) plus a name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            step=np.frombuffer(self.step, dtype=np.int64),
            episode=np.frombuffer(self.ep, dtype=np.int32),
            meta=np.array(repr(meta)),
        )


class SpanTable:
    """Durations and self times of recorded spans, by name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.dur[has_parent],
            minlength=len(self.dur),
        )
        self.self_time = self.dur - covered

    def has(self, *names: str) -> bool:
        return all(n in self.tracer.installed for n in names)

    def mask(self, name: str) -> np.ndarray:
        return self.name == self.ids[name]

    def calls(self, name: str, under: tuple[str, ...] | None = None) -> int:
        return int(self._select(name, under).sum())

    def median_ms(self, name: str) -> float:
        d = self.dur[self.mask(name)]
        return 1e3 * float(np.median(d)) if d.size else 0.0

    def total(self, name: str, under: tuple[str, ...] | None = None) -> float:
        """Summed duration, optionally only of spans whose parent is named."""
        return float(self.dur[self._select(name, under)].sum())

    def _select(self, name: str, under: tuple[str, ...] | None) -> np.ndarray:
        m = self.mask(name)
        if under is not None:
            parent_name = np.where(self.parent >= 0, self.name[self.parent], -1)
            m &= np.isin(parent_name, [self.ids[u] for u in under])
        return m

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def median_self_ms(self, name: str) -> float:
        s = self.self_time[self.mask(name)]
        return 1e3 * float(np.median(s)) if s.size else 0.0

    def self_by_name(self) -> dict[str, float]:
        """Total self time (s) of every span name that was called."""
        sums = np.bincount(self.name, weights=self.self_time, minlength=len(self.ids))
        return {n: float(sums[i]) for n, i in self.ids.items() if sums[i] > 0}


def _per(x: float, n: int) -> float:
    return x / n if n else 0.0


def layer_metrics(t: SpanTable, phase: dict) -> dict:
    """The per-layer metrics of one traced phase (see README.md).

    `phase` carries what the benchmark itself counted over the phase:
    plant `steps`, harness `rounds`, `episodes`, `wall` (s, set-up and
    episode calls), the harness message counts by kind, and the
    untraced/traced operation rates for the overhead.
    """
    tr = t.tracer
    steps, rounds, episodes = phase["steps"], phase["rounds"], phase["episodes"]
    out: dict[str, dict] = {}

    def put(name, unit, needs, value):
        if t.has(*needs):
            out[name] = {"value": float(value()), "unit": unit}

    def median(name):
        put(f"{name}_ms", "ms", [name], lambda: t.median_ms(name))

    for name in ("synthesis.synthesize", "synthesis.sweep_gamma_rho",
                 "synthesis.sweep_X_g_b_P", "synthesis.sweep_h_and_finalize"):
        median(name)
    median("ledger.init")
    median("ledger.advance_time")
    ledger_work = ("ledger.advance_time", "ledger.apply_plan_updates", "ledger.plan_d_now")
    put("ledger.ms_per_step", "ms", ledger_work, lambda: _per(
        1e3 * sum(t.total(n, under=DRIVERS) for n in ledger_work), steps))
    median("ledger.apply_plan_updates")
    put("ledger.updates_per_step", "count", ["ledger.apply_plan_updates"],
        lambda: _per(tr.counts["ledger.updates"], steps))
    put("ledger.update_hops_per_step", "count", ["ledger.apply_plan_updates"],
        lambda: _per(tr.counts["ledger.update_hops"], steps))
    median("ledger.plan_d_now")
    for name in ("controller.control_step", "controller.upstream_sweep",
                 "controller.downstream_sweep", "controller.compute_actions"):
        median(name)
    put("controller.node_slice_per_step", "count", ["controller.node_slice"],
        lambda: _per(tr.counts["controller.node_slice"], steps))
    kernels = [f"controller.kernel.{k}" for k in KERNELS]
    put("controller.kernel_ms_per_round", "ms", kernels,
        lambda: _per(1e3 * sum(t.total(k) for k in kernels), rounds))
    median("model.plant_step")
    median("model.stage_cost")
    put("simulate.self_ms_per_step", "ms", ["simulate.closed_loop", "model.plant_step"],
        lambda: _per(1e3 * t.self_total("simulate.closed_loop"),
                     t.calls("model.plant_step", under=("simulate.closed_loop",))))
    median("harness.run_control_round")
    put("harness.round_self_ms", "ms", ["harness.run_control_round", *kernels],
        lambda: t.median_self_ms("harness.run_control_round"))
    put("harness.driver_self_ms_per_step", "ms", ["harness.run_closed_loop"],
        lambda: _per(1e3 * t.self_total("harness.run_closed_loop"), rounds))
    for kind in ("delta", "mu", "D-shift", "D-update"):
        out[f"harness.messages_per_step.{kind}"] = {
            "value": _per(phase["harness_messages"].get(kind, 0), rounds),
            "unit": "count",
        }
    for name in ("oracle.solve_finite_horizon", "oracle.stationary_riccati",
                 "oracle.build_augmented_system"):
        median(name)
    dims = tr.hessian_dims
    put("oracle.hessian_dim_p50", "count", ["oracle.solve_finite_horizon"],
        lambda: float(np.median(dims)) if dims else 0.0)
    put("oracle.lu_gflop_computed", "GFLOP", ["oracle.solve_finite_horizon"],
        lambda: _per(sum(2.0 / 3.0 * d**3 for d in dims) / 1e9, episodes))
    median("verify.certify_instance")
    out["trace.overhead_frac"] = {
        "value": phase["untraced_rate"] / phase["traced_rate"] - 1.0,
        "unit": "ratio",
    }
    out["trace.accounted_frac"] = {
        "value": float(t.self_time.sum()) / phase["wall"],
        "unit": "ratio",
    }
    return out

