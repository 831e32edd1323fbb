"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) stating the criterion and the measured quantity, then asserts it
at the stated tolerance.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pathlq.cli import main as cli_main
from pathlq.controller import control_step
from pathlq.harness import audit_message_log, run_closed_loop, run_control_round
from pathlq.ledger import (
    DisturbancePlan,
    advance_time,
    apply_plan_updates,
    init_shifted_sums,
    validate_horizon,
)
from pathlq.model import (
    ControlDecision,
    GraphSpec,
    PlantState,
    plant_step,
)
from pathlq.oracle import (
    build_augmented_system,
    state_vector,
    stationary_riccati,
)
from pathlq.simulate import closed_loop
from pathlq.synthesis import (
    sweep_gamma_rho,
    synthesize,
    terminal_riccati,
)
from pathlq.verify import make_random_instance, run_differential_suite

from diagnostics import (
    check_cost_decomposition,
    gain_closed_loop,
    of_kind,
    stationary_gain,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def report(capfd):
    def _report(line: str) -> None:
        with capfd.disabled():
            print(line)

    return _report


def test_acceptance_1_optimality_certification(report):
    # Structured first actions and closed-loop costs vs the dense oracle,
    # 100 random instances, <= 1e-6 relative, under 60 s.
    t0 = time.perf_counter()
    suite = run_differential_suite(n_instances=100, seed=2024, tolerance=1e-6)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and elapsed < 60.0
    report(
        f"ACCEPTANCE 1 {'PASS' if ok else 'FAIL'}: optimality certification — "
        f"100 instances, max action err {suite.max_action_err:.2e}, "
        f"max cost err {suite.max_cost_err:.2e} (tol 1e-6), {elapsed:.1f} s"
    )
    assert suite.max_action_err <= 1e-6
    assert suite.max_cost_err <= 1e-6
    assert elapsed < 60.0


def test_acceptance_2_stationary_gain_equivalence(report):
    # With no disturbances the structured controller must track the dense
    # stationary gain u = -K x step for step.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        inst = make_random_instance(rng, max_disturbances=0)
        spec = inst.spec
        params = synthesize(spec)
        system = build_augmented_system(spec)
        K = stationary_gain(system)
        x0 = state_vector(
            system, PlantState.initial(spec, inst.z0, inst.pipelines0)
        )
        res = closed_loop(
            spec, params, DisturbancePlan(), 200, inst.z0, inst.pipelines0
        )
        _xs, us = gain_closed_loop(system, K, x0, steps=200)
        for t, dec in enumerate(res.decisions):
            structured = np.concatenate([dec.u, dec.v])
            worst = max(worst, float(np.max(np.abs(structured - us[t]))))
    ok = worst <= 1e-8
    report(
        f"ACCEPTANCE 2 {'PASS' if ok else 'FAIL'}: no-disturbance equivalence "
        f"— 25 instances x 200 steps, max per-step deviation {worst:.2e} "
        f"(tol 1e-8)"
    )
    assert worst <= 1e-8


def test_acceptance_3_synthesis_identities(report):
    rng = np.random.default_rng(11)
    worst_harmonic = 0.0
    worst_fixed_point = 0.0
    interval_ok = True
    for _ in range(25):
        inst = make_random_instance(rng)
        spec = inst.spec
        gamma, rho = sweep_gamma_rho(spec.q, spec.r)
        for k in range(spec.n):
            worst_harmonic = max(
                worst_harmonic,
                abs(1.0 / gamma[k] - sum(1.0 / q for q in spec.q[: k + 1])),
                abs(1.0 / rho[k] - sum(1.0 / r for r in spec.r[: k + 1])),
            )
        x = terminal_riccati(gamma[-1], rho[-1])
        worst_fixed_point = max(
            worst_fixed_point,
            abs(rho[-1] * (x + gamma[-1]) / (x + gamma[-1] + rho[-1]) - x),
        )
        params = synthesize(spec)
        for k in range(spec.n):
            g_vals = params.g[k][2:]
            interval_ok &= bool(np.all((g_vals > 0.0) & (g_vals < 1.0)))
            interval_ok &= bool(np.all((params.P[k] > 0.0) & (params.P[k] < 1.0)))
        interval_ok &= bool(np.all((params.g_cross > 0.0) & (params.g_cross < 1.0)))
    ok = worst_harmonic <= 1e-12 and worst_fixed_point <= 1e-10 and interval_ok
    report(
        f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'}: synthesis identities — "
        f"harmonic residual {worst_harmonic:.2e} (tol 1e-12), terminal "
        f"fixed-point residual {worst_fixed_point:.2e} (tol 1e-10), "
        f"g, P in (0,1): {interval_ok}"
    )
    assert worst_harmonic <= 1e-12
    assert worst_fixed_point <= 1e-10
    assert interval_ok


def test_acceptance_4_shifted_level_invariance(report):
    # S_k[t + sigma_k + 1] does not depend on the internal flows chosen
    # from time t onward, with productions and disturbances held fixed.
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        inst = make_random_instance(rng, n_range=(2, 6))
        spec = inst.spec
        steps = spec.sigma_total + 1
        v_seq = rng.normal(size=(steps, spec.n))
        d_seq = rng.normal(size=(steps, spec.n))

        def run(u_rng):
            state = PlantState.initial(spec, inst.z0, inst.pipelines0)
            zs = [state.z.copy()]
            for t in range(steps):
                action = ControlDecision(
                    u=u_rng.normal(size=spec.n - 1), v=v_seq[t]
                )
                state = plant_step(state, action, d_seq[t], spec)
                zs.append(state.z.copy())
            return np.array(zs)

        z_a = run(np.random.default_rng(1))
        z_b = run(np.random.default_rng(2))
        for k in range(1, spec.n + 1):
            t_eval = spec.sigma[k - 1] + 1  # current time t = 0
            s_a = sum(
                z_a[t_eval - spec.sigma[i - 1], i - 1] for i in range(1, k + 1)
            )
            s_b = sum(
                z_b[t_eval - spec.sigma[i - 1], i - 1] for i in range(1, k + 1)
            )
            worst = max(worst, abs(s_a - s_b))
    ok = worst <= 1e-9
    report(
        f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'}: shifted-level invariance "
        f"under internal flows — 20 instances, max |ΔS_k| {worst:.2e} "
        f"(tol 1e-9)"
    )
    assert worst <= 1e-9


def test_acceptance_5_cost_decompositions(report):
    rng = np.random.default_rng(5)
    worst_level = 0.0
    worst_prod = 0.0
    bound = 0.0
    for _ in range(10):
        inst = make_random_instance(rng, n_range=(1, 4))
        spec = inst.spec
        params = synthesize(spec)
        steps = spec.sigma_total + spec.horizon + 60
        res = closed_loop(
            spec, params, inst.plan, steps, inst.z0, inst.pipelines0
        )
        gamma, rho = sweep_gamma_rho(spec.q, spec.r)
        rep = check_cost_decomposition(res.trajectory, spec, gamma, rho)
        worst_level = max(worst_level, rep.level_residual)
        worst_prod = max(worst_prod, rep.production_residual)
        bound = max(bound, rep.truncation_bound)
    ok = worst_level <= 1e-8 and worst_prod <= 1e-8
    report(
        f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'}: cost decompositions — "
        f"level residual {worst_level:.2e}, production residual "
        f"{worst_prod:.2e} (tol 1e-8), truncation bound {bound:.2e}"
    )
    assert worst_level <= 1e-8
    assert worst_prod <= 1e-8


def test_acceptance_6_window_maintenance_exactness(report):
    # 1000 random interleaved time advances and plan updates; windows must
    # equal a from-scratch recomputation bitwise throughout.
    rng = np.random.default_rng(42)
    spec = GraphSpec(
        n=5, tau=(3, 1, 2, 4), q=(1.0,) * 5, r=(1.0,) * 5, horizon=6
    )
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    events = 0
    exact = True
    for _ in range(1000):
        if rng.random() < 0.4:
            advance_time(windows)
        else:
            node = int(rng.integers(1, spec.n + 1))
            bound = (
                windows.now
                + spec.horizon
                + spec.sigma_total
                - spec.sigma[node - 1]
            )
            t = int(rng.integers(windows.now, bound + 1))
            apply_plan_updates(windows, plan, {(node, t): float(rng.normal())})
        events += 1
        fresh = init_shifted_sums(plan, spec, now=windows.now)
        for i in range(1, spec.n + 1):
            held = spec.sigma_total + spec.horizon + 1 - spec.sigma[i - 1]
            exact &= windows.slice(i, held).tobytes() == fresh.slice(i, held).tobytes()
    report(
        f"ACCEPTANCE 6 {'PASS' if exact else 'FAIL'}: incremental window "
        f"maintenance — {events} interleaved events, bitwise equal to "
        f"recomputation: {exact}"
    )
    assert exact


def test_acceptance_7_distributed_fidelity(report):
    rng = np.random.default_rng(77)
    bitwise = True
    audits = True
    counts = True
    for idx in range(100):
        inst = make_random_instance(rng, n_range=(2, 6))
        spec = inst.spec
        params = synthesize(spec)
        steps = 3
        seq = closed_loop(
            spec, params, inst.plan, steps, inst.z0, inst.pipelines0
        )
        dist, log, _total = run_closed_loop(
            spec, params, inst.plan, steps, inst.z0, inst.pipelines0,
            rng=np.random.default_rng(idx),
        )
        for a, b in zip(seq.decisions, dist):
            bitwise &= a.u.tobytes() == b.u.tobytes()
            bitwise &= a.v.tobytes() == b.v.tobytes()
        audits &= audit_message_log(log, spec).ok
        sweep = of_kind(log, "delta", "mu")
        per_round: dict[int, int] = {}
        for m in sweep:
            per_round[m.round] = per_round.get(m.round, 0) + 1
        counts &= all(c == 2 * (spec.n - 1) for c in per_round.values())
        counts &= len(per_round) == steps

    # Schedule randomization must not change decisions.
    inst = make_random_instance(np.random.default_rng(123), n_range=(3, 6))
    params = synthesize(inst.spec)
    runs = [
        run_closed_loop(
            inst.spec, params, inst.plan, 3, inst.z0, inst.pipelines0,
            rng=np.random.default_rng(seed),
        )[0]
        for seed in (0, 1, 2)
    ]
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            bitwise &= a.u.tobytes() == b.u.tobytes()
            bitwise &= a.v.tobytes() == b.v.tobytes()

    ok = bitwise and audits and counts
    report(
        f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'}: distributed fidelity — "
        f"100 instances bitwise-equal: {bitwise}, audits clean: {audits}, "
        f"2(N-1) sweep messages per round: {counts}"
    )
    assert bitwise and audits and counts


def test_acceptance_8_advance_knowledge_benefit(report, tmp_path):
    rc = cli_main([
        "compare-ff",
        "--config", str(CONFIG_DIR / "feedforward_demo.json"),
        "--out", str(tmp_path),
    ])
    summary = json.loads((tmp_path / "compare_ff.json").read_text())
    with_ff = summary["cost_feedforward"]
    without = summary["cost_no_feedforward"]
    ok = rc == 0 and with_ff < without
    report(
        f"ACCEPTANCE 8 {'PASS' if ok else 'FAIL'}: feed-forward benefit — "
        f"full-horizon cost {with_ff:.6f} < zero-horizon cost {without:.6f}"
    )
    assert rc == 0
    assert with_ff < without


def test_acceptance_9_horizon_sweep_shape(report, tmp_path):
    rc = cli_main([
        "sweep-horizon",
        "--config", str(CONFIG_DIR / "horizon_sweep_demo.json"),
        "--out", str(tmp_path),
    ])
    with open(tmp_path / "horizon_sweep.csv") as fh:
        rows = [(int(r["horizon"]), float(r["total_cost"])) for r in csv.DictReader(fh)]
    costs = dict(rows)
    sigma_total = max(costs)
    ok = rc == 0 and 0 in costs and costs[sigma_total] <= costs[0]
    curve = ", ".join(f"H={h}:{c:.4f}" for h, c in rows)
    report(
        f"ACCEPTANCE 9 {'PASS' if ok else 'FAIL'}: horizon sweep — "
        f"cost(H={sigma_total}) = {costs[sigma_total]:.4f} <= cost(H=0) = "
        f"{costs[0]:.4f}; curve: {curve}"
    )
    assert rc == 0
    assert costs[sigma_total] <= costs[0]
