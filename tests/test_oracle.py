"""Tests for the LQ oracle, its dense reference QP and the shifted-sum diagnostics."""

import ast
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pathlq import oracle
from pathlq.errors import InvalidHorizonError, SpecError
from pathlq.ledger import DisturbancePlan
from pathlq.model import (
    ControlDecision,
    GraphSpec,
    PlantState,
    Trajectory,
    plant_step,
)
from pathlq.oracle import (
    FiniteHorizonSolution,
    build_augmented_system,
    solve_finite_horizon,
    state_vector,
    stationary_riccati,
)
from pathlq.simulate import closed_loop
from pathlq.synthesis import sweep_gamma_rho, synthesize
from pathlq.verify import (
    DEFAULT_TOLERANCE,
    SETTLING_STEPS,
    Instance,
    certify_instance,
    run_differential_suite,
)

from diagnostics import (
    certify_family,
    check_cost_decomposition,
    doubling_steps,
    gain_closed_loop,
    reference_build_augmented_system,
    reference_layout_permutation,
    reference_state_vector,
    reference_stationary_riccati,
    shifted_aggregates,
    stationary_gain,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _spec(n, tau, horizon, q=None, r=None):
    q = tuple(q) if q is not None else (1.0,) * n
    r = tuple(r) if r is not None else (1.0,) * n
    return GraphSpec(n=n, tau=tuple(tau), q=q, r=r, horizon=horizon)


class TestAugmentedSystem:
    def test_dimensions(self):
        sys1 = build_augmented_system(_spec(1, [], horizon=0))
        assert sys1.dim == 1 and sys1.n_inputs == 1
        sys5 = build_augmented_system(_spec(5, [3, 2, 5, 4], horizon=6))
        assert sys5.dim == 5 + 14 and sys5.n_inputs == 4 + 5

    # n = 1 has no edge; with every tau = 1 each slot is both the oldest
    # and the newest; the last edge always ends at index dim - 1.
    @pytest.mark.parametrize("tau", [(), (1, 1, 1), (7,), (2, 1, 3)],
                             ids=["n1", "every-tau-1", "one-edge-tau-7", "mixed"])
    def test_matrix_step_matches_plant_step(self, tau):
        rng = np.random.default_rng(2)
        n = len(tau) + 1
        spec = _spec(n, tau, horizon=2)
        system = build_augmented_system(spec)
        state = PlantState.initial(
            spec,
            z0=rng.normal(size=n),
            pipelines0=[rng.normal(size=t) for t in spec.tau],
        )
        for _ in range(8):
            u = rng.normal(size=n - 1)
            v = rng.normal(size=n)
            d = rng.normal(size=n)
            x = state_vector(system, state)
            x_next = system.A @ x + system.B @ np.concatenate([u, v]) + system.E @ d
            state = plant_step(state, ControlDecision(u=u, v=v), d, spec)
            assert np.max(np.abs(x_next - state_vector(system, state))) < 1e-12

    def test_only_levels_and_productions_cost(self):
        spec = _spec(3, [2, 2], horizon=1)
        system = build_augmented_system(spec)
        assert np.count_nonzero(system.Q) == 3
        assert np.count_nonzero(system.R) == 3
        assert np.allclose(np.diag(system.R)[: spec.n - 1], 0.0)


class TestStationary:
    def test_scalar_golden_ratio(self):
        # x' = x + v with unit weights has the stationary gain (sqrt(5)-1)/2.
        system = build_augmented_system(_spec(1, [], horizon=0))
        P = stationary_riccati(system)
        assert abs(stationary_gain(system, P)[0, 0] - GOLDEN) < 1e-10

    def test_gain_uses_all_flow_inputs(self):
        # Optimal control of the delayed path must actuate the free flows,
        # not just the penalized productions.
        spec = _spec(3, [2, 1], horizon=0, r=(1.0, 5.0, 0.2))
        K = stationary_gain(build_augmented_system(spec))
        flow_rows = K[: spec.n - 1]
        assert np.max(np.abs(flow_rows)) > 1e-6

    def test_non_convergence_reports_the_last_update(self, monkeypatch):
        system = build_augmented_system(_spec(2, [1], horizon=0))
        monkeypatch.setattr(oracle, "RICCATI_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="last update") as info:
            stationary_riccati(system)
        assert float(str(info.value).rsplit(" ", 1)[-1]) > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_doubling_matches_value_iteration_on_the_certify_family(self, seed):
        # Five seeds of twelve instances: the verify suite's 60-instance family.
        for inst in certify_family(seed):
            system = build_augmented_system(inst.spec)
            P_ref = reference_stationary_riccati(system)
            P = stationary_riccati(system)
            assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))

    @pytest.mark.parametrize("tau", [(2, 3, 1), (1,), (4, 4, 4, 4, 4)])
    @pytest.mark.parametrize("ratio", [1e12, 1e9, 1e6, 1e-6, 1e-9, 1e-12])
    def test_doubling_matches_scipy_at_extreme_weights(self, ratio, tau):
        # q = ratio, r = 1: with q = 1, r = 1/ratio scipy's ordqz fails at
        # 1e12 and 1e9 for tau = (4, 4, 4, 4, 4).
        # Both solvers round to about eps / (1 - rho)^2 relative, rho the
        # closed loop's spectral radius: measured differences are at most
        # 3.7e-13 at ratio >= 1e6 (scipy's share; doubling is within 2e-16
        # of a 60-digit solve there), 7.5e-11 at 1e-6, 2.1e-8 at 1e-9 and
        # 3.6e-5 at 1e-12, each under 0.4 eps / (1 - rho)^2.  The bound
        # leaves at least 13x margin at every ratio.
        n = len(tau) + 1
        system = build_augmented_system(
            GraphSpec(n=n, tau=tau, q=(ratio,) * n, r=(1.0,) * n, horizon=3))
        A, B, R = system.A, system.B, system.R
        P_ref = scipy.linalg.solve_discrete_are(A, B, system.Q, R)
        K = np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A)
        rho = np.max(np.abs(np.linalg.eigvals(A - B @ K)))
        P = stationary_riccati(system)
        bound = 1e-11 + 1e-15 / (1.0 - rho) ** 2
        assert np.max(np.abs(P - P_ref)) <= bound * np.max(np.abs(P_ref))

    def test_doubling_takes_four_to_eight_steps_on_the_certify_family(
            self, monkeypatch):
        # 3, 10, 37, 9 and 1 of the 60 systems take 4, 5, 6, 7 and 8 steps.
        steps = [doubling_steps(build_augmented_system(inst.spec), monkeypatch)
                 for seed in range(5) for inst in certify_family(seed)]
        assert len(steps) == 60
        assert 4 <= min(steps) and max(steps) <= 8, steps

    def test_doubling_converges_in_a_dozen_steps(self, monkeypatch):
        # A step count, not a time: doubling takes 4-8 steps on this family
        # (the test above) and 10 on the N = 100 system; value iteration
        # takes 8-73 (median 24) on the family and so fails here.
        monkeypatch.setattr(oracle, "RICCATI_MAX_ITER", 12)
        for seed in range(5):
            for inst in certify_family(seed):
                stationary_riccati(build_augmented_system(inst.spec))
        stationary_riccati(build_augmented_system(_hundred_node_instance().spec))

    def test_closed_loop_is_stable(self):
        rng = np.random.default_rng(9)
        spec = _spec(3, [3, 2], horizon=0, q=(2.0, 0.5, 1.0))
        system = build_augmented_system(spec)
        K = stationary_gain(system)
        x0 = rng.normal(size=system.dim)
        xs, _ = gain_closed_loop(system, K, x0, steps=200)
        assert np.max(np.abs(xs[-1])) < 1e-8 * np.max(np.abs(x0))


class TestFiniteHorizon:
    def test_horizon_too_short_rejected(self):
        spec = _spec(2, [2], horizon=3)
        system = build_augmented_system(spec)
        with pytest.raises(InvalidHorizonError):
            solve_finite_horizon(system, np.zeros(system.dim), DisturbancePlan(), T=5)

    def test_zero_problem_has_zero_cost(self):
        spec = _spec(2, [2], horizon=0)
        system = build_augmented_system(spec)
        sol = solve_finite_horizon(system, np.zeros(system.dim), DisturbancePlan(), 20)
        assert abs(sol.cost) < 1e-12
        assert np.max(np.abs(sol.inputs)) < 1e-9

    def test_perturbing_the_solution_never_helps(self):
        rng = np.random.default_rng(4)
        spec = _spec(3, [1, 2], horizon=2, q=(1.0, 3.0, 0.4), r=(2.0, 1.0, 0.7))
        system = build_augmented_system(spec)
        P = stationary_riccati(system)
        plan = DisturbancePlan({(2, 1): -1.0, (1, 3): 0.5})
        x0 = rng.normal(size=system.dim)
        T = 20
        sol = solve_finite_horizon(system, x0, plan, T, P)

        def total_cost(U):
            x = x0.copy()
            c = 0.0
            for t in range(T):
                c += x @ system.Q @ x + U[t] @ system.R @ U[t]
                x = (
                    system.A @ x
                    + system.B @ U[t]
                    + system.E @ plan.d_now(spec, t)
                )
            return c + x @ P @ x

        base = total_cost(sol.inputs)
        assert abs(base - sol.cost) < 1e-9 * max(1.0, abs(base))
        for _ in range(100):
            pert = sol.inputs + 1e-3 * rng.normal(size=sol.inputs.shape)
            assert total_cost(pert) >= base - 1e-12

    def test_terminal_weight_other_than_the_stationary_one_rejected(self):
        # The constant gain is optimal only under the stationary weight.
        spec = _spec(3, [2, 1], horizon=1)
        system = build_augmented_system(spec)
        P = stationary_riccati(system)
        for P_terminal in (system.Q + np.eye(system.dim), 2.0 * P):
            with pytest.raises(ValueError, match="not the stationary Riccati solution"):
                solve_finite_horizon(system, np.ones(system.dim), DisturbancePlan(), 20,
                                     P_terminal)

    @pytest.mark.parametrize("node", [0, 4, -1])
    def test_plan_node_outside_the_path_rejected(self, node):
        # Also past T, where the entry could not enter d_t anyway.
        spec = _spec(3, [2, 1], horizon=1)
        system = build_augmented_system(spec)
        for t in (2, 50):
            plan = DisturbancePlan({(2, 1): 0.5, (node, t): 1.0})
            with pytest.raises(SpecError, match=f"at node {node}: nodes are 1..3"):
                solve_finite_horizon(system, np.ones(system.dim), plan, 20)

    @pytest.mark.parametrize("amount", [np.nan, np.inf, -np.inf])
    def test_non_finite_plan_amount_rejected(self, amount):
        spec = _spec(3, [2, 1], horizon=1)
        system = build_augmented_system(spec)
        plan = DisturbancePlan({(2, 1): 0.5, (3, 4): amount})
        with pytest.raises(SpecError, match=f"at node 3, time 4 is {amount}"):
            solve_finite_horizon(system, np.ones(system.dim), plan, 20)

    def test_doubling_the_horizon_changes_nothing(self):
        # With the stationary terminal weight, lengthening T beyond the
        # disturbance support leaves cost and first inputs unchanged.
        rng = np.random.default_rng(6)
        spec = _spec(3, [2, 2], horizon=3)
        system = build_augmented_system(spec)
        P = stationary_riccati(system)
        plan = DisturbancePlan({(3, 2): 1.0, (1, 5): -0.6})
        x0 = rng.normal(size=system.dim)
        a = solve_finite_horizon(system, x0, plan, T=30, P_terminal=P)
        b = solve_finite_horizon(system, x0, plan, T=60, P_terminal=P)
        assert abs(a.cost - b.cost) < 1e-9 * max(1.0, abs(a.cost))
        assert np.max(np.abs(a.inputs[0] - b.inputs[0])) < 1e-9


class TestLargeInstance:
    def test_every_decision_of_a_fifty_node_run_is_optimal(self):
        # N = 50, tau in 1..4, H = 10, each admissible plan slot nonzero with
        # probability 5%: dim = 170 here, far past the dense QP's reach.
        rng = np.random.default_rng(0)
        n = 50
        tau = tuple(int(t) for t in rng.integers(1, 5, n - 1))
        q, r = (tuple(float(x) for x in rng.uniform(0.1, 10.0, n)) for _ in "qr")
        spec = GraphSpec(n=n, tau=tau, q=q, r=r, horizon=10)
        plan = DisturbancePlan()
        for i in range(1, n + 1):
            last = spec.horizon + spec.sigma_total - spec.sigma[i - 1]
            for s in np.flatnonzero(rng.random(last + 1) < 0.05):
                plan.entries[(i, int(s))] = float(rng.standard_normal())
        assert len(plan.entries) > 100
        inst = Instance(spec=spec, z0=rng.standard_normal(n),
                        pipelines0=tuple(rng.standard_normal(t) for t in tau), plan=plan)
        action_err, cost_err = certify_instance(inst)
        assert action_err <= 1e-9
        assert cost_err <= 1e-9

    def test_every_decision_of_a_hundred_node_run_is_optimal(self):
        # One point of the medium family: dim = 557, T = 547 here.  Measured
        # errors: 8.5e-10 on the actions and 4.0e-16 on the cost.
        inst = _hundred_node_instance()
        action_err, cost_err = certify_instance(inst)
        assert action_err <= DEFAULT_TOLERANCE
        assert cost_err <= DEFAULT_TOLERANCE


def _hundred_node_instance():
    """N = 100, tau in 1..8, H = 30, q and r log-uniform over 1e-3..1e3 (so
    weight ratios up to 1e+-6), each admissible plan slot nonzero with
    probability 5%."""
    rng = np.random.default_rng(0)
    n = 100
    tau = tuple(int(t) for t in rng.integers(1, 9, n - 1))
    q, r = (tuple(float(x) for x in 10.0 ** rng.uniform(-3.0, 3.0, n)) for _ in "qr")
    spec = GraphSpec(n=n, tau=tau, q=q, r=r, horizon=30)
    plan = DisturbancePlan()
    for i in range(1, n + 1):
        last = spec.horizon + spec.sigma_total - spec.sigma[i - 1]
        for s in np.flatnonzero(rng.random(last + 1) < 0.05):
            plan.entries[(i, int(s))] = float(rng.standard_normal())
    return Instance(spec=spec, z0=rng.standard_normal(n),
                    pipelines0=tuple(rng.standard_normal(t) for t in tau), plan=plan)


REFUSED_SUITES = {
    "no-instances": {"n_instances": 0},
    "negative-instances": {"n_instances": -3},
    "boolean-instances": {"n_instances": True},
    "fractional-instances": {"n_instances": 2.5},
    "text-instances": {"n_instances": "3"},
    "infinite-tolerance": {"tolerance": float("inf")},
    "nan-tolerance": {"tolerance": float("nan")},
    "zero-tolerance": {"tolerance": 0.0},
    "negative-tolerance": {"tolerance": -1e-6},
    "text-tolerance": {"tolerance": "1e-6"},
}


@pytest.mark.parametrize("kwargs", REFUSED_SUITES.values(), ids=REFUSED_SUITES)
def test_a_suite_that_certifies_nothing_is_refused(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} = "):
        run_differential_suite(**kwargs)


def test_a_suite_reads_its_count_and_tolerance_as_numbers():
    suite = run_differential_suite(n_instances=2.0, seed=0, tolerance=1)
    assert [r.index for r in suite.reports] == [0, 1]
    assert suite.tolerance == 1.0 and suite.passed


def test_no_package_module_imports_scipy():
    # scipy is a test dependency only: the oracle needs numpy alone.
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [name for name in imported if name.split(".")[0] == "scipy"], path.name


def test_oracle_imports_no_code_it_certifies():
    # The oracle shares the plant's state layout, and nothing else: not the
    # synthesis, controller or simulation it certifies, nor a private name.
    tree = ast.parse(Path(oracle.__file__).read_text())
    packages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            packages.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "pathlq." if node.level == 1 else "." * node.level
            if node.module:
                packages.add(prefix + node.module)
            else:  # from . import x
                packages.update(prefix + alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_"), node.attr
    own = {p for p in packages if p.split(".")[0] in ("", "pathlq")}
    assert own == {"pathlq.errors", "pathlq.ledger", "pathlq.model"}
    for name in packages - own:
        assert name.split(".")[0] in {"numpy", *sys.stdlib_module_names}, name


class TestShiftedDiagnostics:
    def _optimal_run(self, spec, plan, steps, seed=0):
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=spec.n)
        pipes = [rng.normal(size=t) for t in spec.tau]
        params = synthesize(spec)
        return closed_loop(spec, params, plan, steps, z0, pipes)

    def test_optimal_levels_spread_by_weight(self):
        # Along the optimal trajectory, once t exceeds sigma_k + ... the
        # shifted levels satisfy z_i[t - sigma_i] = (gamma_k / q_i) S_k[t]
        # for every i <= k in the group owning time t.
        spec = _spec(4, [2, 1, 2], horizon=2, q=(1.0, 2.0, 0.5, 3.0))
        plan = DisturbancePlan({(2, 1): -0.7, (4, 0): 0.4})
        res = self._optimal_run(spec, plan, steps=40, seed=13)
        traj = res.trajectory
        gamma, _rho = sweep_gamma_rho(spec.q, spec.r)
        agg = shifted_aggregates(traj, spec)
        worst = 0.0
        settle = spec.sigma_total + spec.horizon  # disturbances active before
        for t in range(settle + 1, 35):
            k = spec.n  # for t > sigma_N the last aggregate owns the time
            for i in range(1, k + 1):
                want = gamma[k - 1] / spec.q[i - 1] * agg.S[(k, t)]
                got = traj.z[t - spec.sigma[i - 1], i - 1]
                worst = max(worst, abs(got - want))
        assert worst < 1e-9

    def test_optimal_productions_spread_by_weight(self):
        # v_i[t - sigma_i] = -(rho_k / r_i) V-target relation: within the
        # owning group all shifted productions are proportional to 1/r_i.
        spec = _spec(3, [2, 3], horizon=1, r=(1.0, 4.0, 0.5))
        plan = DisturbancePlan({(2, 1): 1.0})
        res = self._optimal_run(spec, plan, steps=40, seed=8)
        traj = res.trajectory
        _gamma, rho = sweep_gamma_rho(spec.q, spec.r)
        agg = shifted_aggregates(traj, spec)
        k = spec.n
        settle = spec.sigma_total + spec.horizon
        for t in range(settle, 35):
            target = rho[k - 1] * agg.V[(k, t)]
            for i in range(1, k + 1):
                got = spec.r[i - 1] * traj.v[t - spec.sigma[i - 1], i - 1]
                assert abs(got - target) < 1e-9

    def test_cost_decompositions_hold(self):
        spec = _spec(4, [1, 3, 2], horizon=3, q=(1.0, 0.3, 2.0, 1.5), r=(0.5,) * 4)
        plan = DisturbancePlan({(3, 2): -0.9, (1, 4): 0.6})
        res = self._optimal_run(spec, plan, steps=160, seed=21)
        gamma, rho = sweep_gamma_rho(spec.q, spec.r)
        rep = check_cost_decomposition(res.trajectory, spec, gamma, rho)
        assert rep.level_residual < 1e-8
        assert rep.production_residual < 1e-8

    def test_m_aggregate_is_invariant_under_pure_transport(self):
        # m_k counts the levels up to node k plus the in-transit flow on
        # the edges below, so moving quantity without producing leaves it
        # unchanged while pure levels do change.
        spec = _spec(2, [2], horizon=0)
        params = synthesize(spec)
        res = closed_loop(spec, params, DisturbancePlan(), steps=10, z0=[0.0, 1.0])
        traj = res.trajectory
        # Rebuild the same run with productions forced to zero.
        state = PlantState.initial(spec, z0=[0.0, 1.0])
        z = [state.z.copy()]
        for t in range(10):
            action = ControlDecision(u=traj.u[t].copy(), v=np.zeros(2))
            state = plant_step(state, action, np.zeros(2), spec)
            z.append(state.z.copy())
        transported = Trajectory(
            spec=spec,
            z=np.array(z),
            u=traj.u.copy(),
            v=np.zeros_like(traj.v),
            d=np.zeros_like(traj.d),
            init_pipelines=traj.init_pipelines,
            step_costs=np.zeros(10),
        )
        agg = shifted_aggregates(transported, spec)
        for t in range(11):
            assert abs(agg.m[(2, t)] - 1.0) < 1e-12
        assert np.ptp(transported.z[:, 1]) > 0.1  # the levels themselves moved


# --- reference implementations ------------------------------------------------
# The dense QP that oracle.solve_finite_horizon's recursion replaced, the
# block loop that the QP's array code replaced, and the recursion's former
# per-step d_t stack, open-loop forward pass and cost sum, each kept as it
# was so that the newer code can be checked against it.

def dense_solve_finite_horizon(system, x0, plan, T, P_terminal):
    """The finite-horizon problem as one strictly convex QP in the stacked
    inputs: the states are eliminated through the dynamics and the normal
    equations are solved with partial pivoting, at O((T * m)^3)."""
    spec = system.spec
    A, B, E = system.A, system.B, system.E
    dim, m = system.dim, system.n_inputs
    d_mat = np.stack([plan.d_now(spec, t) for t in range(T)])

    # Free response x_free[t] = A^t x0 + sum_{s<t} A^{t-1-s} E d_s, t = 1..T.
    x_free = np.zeros((T + 1, dim))
    x_free[0] = x0
    for t in range(T):
        x_free[t + 1] = A @ x_free[t] + E @ d_mat[t]

    # Input-to-state map: x_t = x_free[t] + sum_{s<t} A^{t-1-s} B u_s.
    Apow_B = np.zeros((T, dim, m))  # Apow_B[j] = A^j B
    Apow_B[0] = B
    for j in range(1, T):
        Apow_B[j] = A @ Apow_B[j - 1]

    # Weighted rows: sqrt(q) on level coordinates for t = 1..T-1, plus a
    # Cholesky factor of the terminal weight for t = T.  Everything else
    # in the state cost is zero, so those rows are dropped.  Row block t,
    # column block s holds A^{t-1-s} B (zero for s >= t): one strided copy
    # per column block.
    n = spec.n
    sq = np.sqrt(spec.weights[0])
    L_term = np.linalg.cholesky(P_terminal)  # P is PD for these plants
    W_G = np.zeros(((T - 1) * n + dim, T * m))
    blocks = W_G[: (T - 1) * n].reshape(T - 1, n, T, m)
    level = sq[:, None] * Apow_B[:, :n]
    for s in range(T - 1):
        blocks[s:, :, s] = level[: T - 1 - s]
    W_G[(T - 1) * n :] = np.hstack(L_term.T @ Apow_B[::-1])
    w_free = np.concatenate([(sq * x_free[1:T, :n]).ravel(), L_term.T @ x_free[T]])

    H = W_G.T @ W_G
    H[np.arange(T * m), np.arange(T * m)] += np.tile(np.diag(system.R), T)
    f = W_G.T @ w_free

    lu, piv = scipy.linalg.lu_factor(H)
    anorm = np.linalg.norm(H, 1)
    rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if rcond < 1e-12:
        warnings.warn(f"ill-conditioned input Hessian: rcond = {rcond:.3e}")
    U = scipy.linalg.lu_solve((lu, piv), -f).reshape(T, m)

    states = np.zeros((T + 1, dim))
    states[0] = x0
    for t in range(T):
        states[t + 1] = A @ states[t] + B @ U[t] + E @ d_mat[t]
    cost = float(
        sum(states[t] @ system.Q @ states[t] + U[t] @ system.R @ U[t] for t in range(T))
        + states[T] @ P_terminal @ states[T]
    )
    return FiniteHorizonSolution(inputs=U, cost=cost)


def reference_solve_finite_horizon(system, x0, plan, T, P_terminal):
    """The finite-horizon QP with W_G filled one (t, s) block at a time."""
    spec = system.spec
    A, B, E = system.A, system.B, system.E
    dim, m = system.dim, system.n_inputs
    d_mat = np.stack([plan.d_now(spec, t) for t in range(T)])
    x_free = np.zeros((T + 1, dim))
    x_free[0] = x0
    for t in range(T):
        x_free[t + 1] = A @ x_free[t] + E @ d_mat[t]
    Apow_B = np.zeros((T, dim, m))
    Apow_B[0] = B
    for j in range(1, T):
        Apow_B[j] = A @ Apow_B[j - 1]
    n = spec.n
    sq = np.sqrt(np.asarray(spec.q, float))
    L_term = np.linalg.cholesky(P_terminal)
    n_rows = (T - 1) * n + dim
    W_G = np.zeros((n_rows, T * m))
    w_free = np.zeros(n_rows)
    for t in range(1, T):
        rows = slice((t - 1) * n, t * n)
        for s in range(t):
            W_G[rows, s * m : (s + 1) * m] = sq[:, None] * Apow_B[t - 1 - s][:n, :]
        w_free[rows] = sq * x_free[t][:n]
    rows = slice((T - 1) * n, n_rows)
    for s in range(T):
        W_G[rows, s * m : (s + 1) * m] = L_term.T @ Apow_B[T - 1 - s]
    w_free[rows] = L_term.T @ x_free[T]
    H = W_G.T @ W_G
    H[np.arange(T * m), np.arange(T * m)] += np.tile(np.diag(system.R), T)
    f = W_G.T @ w_free
    lu, piv = scipy.linalg.lu_factor(H)
    U = scipy.linalg.lu_solve((lu, piv), -f).reshape(T, m)
    states = np.zeros((T + 1, dim))
    states[0] = x0
    for t in range(T):
        states[t + 1] = A @ states[t] + B @ U[t] + E @ d_mat[t]
    cost = float(
        sum(states[t] @ system.Q @ states[t] + U[t] @ system.R @ U[t] for t in range(T))
        + states[T] @ P_terminal @ states[T]
    )
    return U, cost


def stacked_solve_finite_horizon(system, x0, plan, T, P_terminal):
    """The recursion with d_t stacked from one plan.d_now(spec, t) per step
    and the cost summed as 2T quadratic forms."""
    spec, P = system.spec, P_terminal
    A, B, E = system.A, system.B, system.E
    Minv_Bt = np.linalg.solve(system.R + B.T @ P @ B, B.T)
    K = Minv_Bt @ P @ A
    A_cl = A - B @ K
    d_mat = np.stack([plan.d_now(spec, t) for t in range(T)])
    g = d_mat @ (P @ E).T
    for t in range(T - 2, -1, -1):
        g[t] += g[t + 1] @ A_cl
    feedforward = g @ Minv_Bt.T
    U = np.zeros((T, system.n_inputs))
    states = np.zeros((T + 1, system.dim))
    states[0] = x0
    for t in range(T):
        U[t] = -(K @ states[t]) - feedforward[t]
        states[t + 1] = A @ states[t] + B @ U[t] + E @ d_mat[t]
    cost = float(
        sum(states[t] @ system.Q @ states[t] + U[t] @ system.R @ U[t] for t in range(T))
        + states[T] @ P @ states[T]
    )
    return U, cost


def _reference_flow(traj, edge, t):
    """u_edge[t], reaching into the initial pipeline for t < 0."""
    tau = traj.spec.tau[edge - 1]
    if t >= 0:
        return float(traj.u[t, edge - 1])
    if t >= -tau:
        return float(traj.init_pipelines[edge - 1][tau + t])
    return 0.0


def reference_shifted_aggregates(traj, spec):
    """S, V and m as dicts keyed by (k, t), one Python sum per key."""
    T = traj.steps
    S, V, mm = {}, {}, {}
    for k in range(1, spec.n + 1):
        sig_k = spec.sigma[k - 1]
        for t in range(sig_k, T + 1):
            S[(k, t)] = float(
                sum(traj.z[t - spec.sigma[i - 1], i - 1] for i in range(1, k + 1))
            )
        for t in range(sig_k, T):
            V[(k, t)] = float(
                sum(traj.v[t - spec.sigma[i - 1], i - 1] for i in range(1, k + 1))
            )
        for t in range(0, T + 1):
            total = 0.0
            for i in range(1, k + 1):
                total += traj.z[t, i - 1]
                if i < spec.n:
                    for delta in range(1, spec.tau[i - 1] + 1):
                        total += _reference_flow(traj, i, t - delta)
            mm[(k, t)] = total
    return S, V, mm


def reference_cost_decomposition(traj, spec, gamma, rho):
    """(level_lhs, level_rhs, production_lhs, production_rhs), summed per key."""
    S, V, _m = reference_shifted_aggregates(traj, spec)
    T, n = traj.steps, spec.n
    level_lhs = float(sum(np.dot(spec.q, traj.z[t] ** 2) for t in range(T + 1)))
    level_rhs = float(np.dot(spec.q, traj.z[0] ** 2))
    for i in range(1, n):
        for t in range(spec.sigma[i - 1] + 1, spec.sigma[i] + 1):
            level_rhs += gamma[i - 1] * S[(i, t)] ** 2
    for t in range(spec.sigma[n - 1] + 1, T + 1):
        level_rhs += gamma[n - 1] * S[(n, t)] ** 2
    prod_lhs = float(sum(np.dot(spec.r, traj.v[t] ** 2) for t in range(T)))
    prod_rhs = 0.0
    for i in range(1, n):
        for t in range(spec.sigma[i - 1], spec.sigma[i]):
            prod_rhs += rho[i - 1] * V[(i, t)] ** 2
    for t in range(spec.sigma[n - 1], T):
        prod_rhs += rho[n - 1] * V[(n, t)] ** 2
    return level_lhs, level_rhs, prod_lhs, prod_rhs


def _finite_horizon_problems(seed):
    """(system, x0, plan, T, P) of each instance of certify_family(seed),
    at the verify suite's horizon."""
    for inst in certify_family(seed):
        spec = inst.spec
        system = build_augmented_system(spec)
        x0 = state_vector(system, PlantState.initial(spec, inst.z0, inst.pipelines0))
        T = spec.sigma_total + spec.horizon + SETTLING_STEPS
        yield system, x0, inst.plan, T, stationary_riccati(system)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_system_is_the_former_layout_permuted(self, seed):
        # The plant's layout is the former one, newest slot first, with each
        # edge's slot block reversed: the same system, reordered.
        for inst in certify_family(seed):
            spec = inst.spec
            system = build_augmented_system(spec)
            ref = reference_build_augmented_system(spec)
            perm = reference_layout_permutation(spec)
            square = np.ix_(perm, perm)
            assert np.array_equal(system.A, ref.A[square])
            assert np.array_equal(system.B, ref.B[perm])
            assert np.array_equal(system.E, ref.E[perm])
            assert np.array_equal(system.Q, ref.Q[square])
            assert np.array_equal(system.R, ref.R)
            state = PlantState.initial(spec, inst.z0, inst.pipelines0)
            x0, x0_ref = state_vector(system, state), reference_state_vector(ref, state)
            assert x0.tobytes() == x0_ref[perm].tobytes()
            P, P_ref = stationary_riccati(system), stationary_riccati(ref)
            assert np.max(np.abs(P - P_ref[square])) <= 1e-12 * np.max(np.abs(P_ref))
            T = spec.sigma_total + spec.horizon + SETTLING_STEPS
            U = solve_finite_horizon(system, x0, inst.plan, T, P).inputs
            U_ref = solve_finite_horizon(ref, x0_ref, inst.plan, T, P_ref).inputs
            assert np.max(np.abs(U - U_ref)) <= 1e-12 * np.max(np.abs(U_ref))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_horizon_solution_is_bitwise_the_block_loop(self, seed):
        for problem in _finite_horizon_problems(seed):
            sol = dense_solve_finite_horizon(*problem)
            U, cost = reference_solve_finite_horizon(*problem)
            assert sol.inputs.tobytes() == U.tobytes()
            assert np.float64(sol.cost).tobytes() == np.float64(cost).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_recursion_matches_the_per_step_loops(self, seed):
        # The closed-loop forward pass rounds x_{t+1} = A_cl x_t + w_t,
        # not A x_t + B u_t + E d_t, so the inputs agree to rounding only.
        for problem in _finite_horizon_problems(seed):
            sol = solve_finite_horizon(*problem)
            U, cost = stacked_solve_finite_horizon(*problem)
            assert np.max(np.abs(sol.inputs - U)) <= 1e-13 * np.max(np.abs(U))
            assert abs(sol.cost - cost) <= 1e-13 * abs(cost)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cost_is_the_cost_of_the_returned_inputs(self, seed):
        # The states come from the closed loop, not from the inputs: running
        # the inputs through the open-loop dynamics must give the same cost.
        for system, x0, plan, T, P in _finite_horizon_problems(seed):
            sol = solve_finite_horizon(system, x0, plan, T, P)
            x, cost = x0, 0.0
            for t in range(T):
                u = sol.inputs[t]
                cost += x @ system.Q @ x + u @ system.R @ u
                x = system.A @ x + system.B @ u + system.E @ plan.d_now(system.spec, t)
            cost += x @ P @ x
            assert abs(sol.cost - cost) <= 1e-12 * abs(cost)

    @pytest.mark.parametrize("times", [(), (-3, -1), (60, 75), (0,), (59,), (0, 59),
                                       (-1, 17, 59, 60)],
                             ids=["empty", "before", "after", "first", "last",
                                  "first-and-last", "inside-and-out"])
    def test_backward_pass_reaches_the_plan_s_last_time(self, times):
        # The affine term runs backward only from the last planned time
        # inside 0 <= t < T (here T = 60); a start a step off drops or
        # shifts that time's feedforward.
        rng = np.random.default_rng(11)
        spec = _spec(4, [2, 3, 1], horizon=3, q=(1.0, 0.4, 2.5, 1.2),
                     r=(0.8, 3.0, 1.0, 0.3))
        system = build_augmented_system(spec)
        P = stationary_riccati(system)
        T = 60
        plan = DisturbancePlan({(1 + k % spec.n, t): float(rng.normal())
                                for k, t in enumerate(times)})
        x0 = rng.normal(size=system.dim)
        sol = solve_finite_horizon(system, x0, plan, T, P)
        U, cost = stacked_solve_finite_horizon(system, x0, plan, T, P)
        assert np.max(np.abs(sol.inputs - U)) <= 1e-13 * np.max(np.abs(U))
        assert abs(sol.cost - cost) <= 1e-13 * abs(cost)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_recursion_matches_the_dense_qp(self, seed):
        for problem in _finite_horizon_problems(seed):
            sol = solve_finite_horizon(*problem)
            dense = dense_solve_finite_horizon(*problem)
            scale = np.max(np.abs(dense.inputs))
            assert np.max(np.abs(sol.inputs - dense.inputs)) <= 1e-10 * scale
            assert abs(sol.cost - dense.cost) <= 1e-12 * abs(dense.cost)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_aggregates_and_decomposition_match_the_dict_loops(self, seed):
        for inst in certify_family(seed):
            spec = inst.spec
            params = synthesize(spec)
            settle = spec.sigma_total + spec.horizon
            for steps in (0, 1, 3, settle + 20):
                res = closed_loop(spec, params, inst.plan, steps, inst.z0,
                                  inst.pipelines0)
                self._check(res.trajectory, spec, check_decomposition=steps > settle)

    def test_aggregates_match_the_dict_loops_without_production(self):
        # A pure-transport run, as in the m-invariance test above, with a
        # longer pipeline and nonzero pre-run flows.
        spec = _spec(3, [3, 1], horizon=0)
        rng = np.random.default_rng(5)
        pipes = [rng.normal(size=t) for t in spec.tau]
        state = PlantState.initial(spec, z0=[0.0, 1.0, -0.5], pipelines0=pipes)
        z, u = [state.z.copy()], rng.normal(size=(10, 2))
        for t in range(10):
            state = plant_step(state, ControlDecision(u=u[t], v=np.zeros(3)),
                               np.zeros(3), spec)
            z.append(state.z.copy())
        traj = Trajectory(spec=spec, z=np.array(z), u=u, v=np.zeros((10, 3)),
                          d=np.zeros((10, 3)), init_pipelines=tuple(pipes),
                          step_costs=np.zeros(10))
        self._check(traj, spec, check_decomposition=False)

    @staticmethod
    def _check(traj, spec, check_decomposition):
        agg = shifted_aggregates(traj, spec)
        S, V, m = reference_shifted_aggregates(traj, spec)
        shape = (spec.n + 1, traj.steps + 1)
        for arr, ref, exact in ((agg.S, S, True), (agg.V, V, True), (agg.m, m, False)):
            assert arr.shape == shape
            keyed = np.zeros(shape, dtype=bool)
            for (k, t), want in ref.items():
                keyed[k, t] = True
                if exact:
                    assert arr[k, t] == want
                else:
                    assert abs(arr[k, t] - want) <= 1e-12 * abs(want)
            assert np.array_equal(np.isnan(arr), ~keyed)
        if check_decomposition:
            gamma, rho = sweep_gamma_rho(spec.q, spec.r)
            rep = check_cost_decomposition(traj, spec, gamma, rho)
            got = (rep.level_lhs, rep.level_rhs, rep.production_lhs,
                   rep.production_rhs)
            want = reference_cost_decomposition(traj, spec, gamma, rho)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
