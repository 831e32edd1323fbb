"""Tests for the dense LQ reference solver and the shifted-sum diagnostics."""

import numpy as np
import pytest
import scipy.linalg

from pathlq.errors import InvalidHorizonError
from pathlq.ledger import DisturbancePlan
from pathlq.model import (
    ControlDecision,
    GraphSpec,
    PlantState,
    Trajectory,
    plant_step,
)
from pathlq.oracle import (
    build_augmented_system,
    solve_finite_horizon,
    state_vector,
    stationary_riccati,
)
from pathlq.simulate import closed_loop
from pathlq.synthesis import sweep_gamma_rho, synthesize
from pathlq.verify import SETTLING_STEPS, make_random_instance

from diagnostics import (
    check_cost_decomposition,
    gain_closed_loop,
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

    def test_matrix_step_matches_plant_step(self):
        rng = np.random.default_rng(2)
        spec = _spec(4, [2, 1, 3], horizon=2)
        system = build_augmented_system(spec)
        state = PlantState.initial(
            spec,
            z0=rng.normal(size=4),
            pipelines0=[rng.normal(size=t) for t in spec.tau],
        )
        for _ in range(8):
            u = rng.normal(size=3)
            v = rng.normal(size=4)
            d = rng.normal(size=4)
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

    def test_non_convergence_reports_the_last_update(self):
        system = build_augmented_system(_spec(2, [1], horizon=0))
        with pytest.raises(RuntimeError, match="last update") as info:
            stationary_riccati(system, max_iter=1)
        assert float(str(info.value).rsplit(" ", 1)[-1]) > 0.0

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
# The loops that the array code in oracle.py replaced, kept as they were so
# that the arrays can be checked against them.

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


def _certify_family(seed):
    """Instances of the verify suite's family: n = 1..6, plus H = 0 draws."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        yield make_random_instance(rng, n_range=(n, n))
        yield make_random_instance(rng, n_range=(n, n), horizon_range=(0, 0))


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_horizon_solution_is_bitwise_the_block_loop(self, seed):
        for inst in _certify_family(seed):
            spec = inst.spec
            system = build_augmented_system(spec)
            P = stationary_riccati(system)
            x0 = state_vector(system, PlantState.initial(spec, inst.z0, inst.pipelines0))
            T = spec.sigma_total + spec.horizon + SETTLING_STEPS
            sol = solve_finite_horizon(system, x0, inst.plan, T, P)
            U, cost = reference_solve_finite_horizon(system, x0, inst.plan, T, P)
            assert sol.inputs.tobytes() == U.tobytes()
            assert np.float64(sol.cost).tobytes() == np.float64(cost).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_aggregates_and_decomposition_match_the_dict_loops(self, seed):
        for inst in _certify_family(seed):
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
