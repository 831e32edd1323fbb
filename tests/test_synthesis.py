import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from pathlq import GraphSpec, synthesize
from pathlq.synthesis import (
    ControllerParams,
    params_to_document,
    sweep_gamma_rho,
    terminal_riccati,
)
from pathlq.verify import make_random_instance

from diagnostics import reference_riccati_step, reference_synthesize


class TestGammaRhoSweep:
    def test_harmonic_of_ones(self):
        gamma, _ = sweep_gamma_rho([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert gamma == pytest.approx([1.0, 0.5, 1.0 / 3.0])

    def test_pair(self):
        gamma, _ = sweep_gamma_rho([2.0, 2.0], [1.0, 1.0])
        assert gamma == pytest.approx([2.0, 1.0])

    def test_first_entry_is_first_weight(self, rng):
        q = rng.uniform(0.1, 10, 6)
        r = rng.uniform(0.1, 10, 6)
        gamma, rho = sweep_gamma_rho(q, r)
        assert gamma[0] == q[0] and rho[0] == r[0]

    def test_harmonic_identity(self, rng):
        for _ in range(20):
            q = rng.uniform(0.1, 10, 7)
            r = rng.uniform(0.1, 10, 7)
            gamma, rho = sweep_gamma_rho(q, r)
            for k in range(7):
                assert abs(1 / gamma[k] - np.sum(1 / q[: k + 1])) < 1e-12
                assert abs(1 / rho[k] - np.sum(1 / r[: k + 1])) < 1e-12


class TestTerminalRiccati:
    def test_golden_ratio(self):
        assert terminal_riccati(1.0, 1.0) == pytest.approx(
            (math.sqrt(5) - 1) / 2, abs=1e-12
        )

    def test_exact_value(self):
        assert terminal_riccati(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_fixed_point_residual(self, rng):
        for _ in range(50):
            g, p = rng.uniform(0.05, 20, 2)
            x = terminal_riccati(g, p)
            y = x + g  # the fixed-point variable
            assert abs(y - (y - y**2 / (p + y) + g)) < 1e-10
            assert x > 0


class TestTables:
    def test_tau_one_P_is_single_entry(self):
        spec = GraphSpec(n=2, tau=(1,), q=(1.0, 2.0), r=(3.0, 4.0), horizon=0)
        params = synthesize(spec)
        assert params.P[0].shape == (1, 1)
        assert params.P[0][0, 0] == pytest.approx(params.X[0][0] / params.rho[0])

    def test_simple_substitution(self):
        # One scalar recursion step with X = gamma = rho = 1 gives 2/3, and
        # the corresponding gain value X/(X+gamma) = 1/2.
        assert reference_riccati_step(1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0)
        assert 1.0 / (1.0 + 1.0) == 0.5

    def test_monotone_riccati_convergence(self, rng):
        spec = GraphSpec(
            n=3, tau=(2, 3), q=tuple(rng.uniform(0.1, 10, 3)),
            r=tuple(rng.uniform(0.1, 10, 3)), horizon=12,
        )
        params = synthesize(spec)
        xN = params.X[-1]
        diffs = np.abs(np.diff(xN[::-1]))
        assert np.all(np.diff(diffs) <= 1e-15)  # shrinking updates
        fixed = terminal_riccati(params.gamma[-1], params.rho[-1])
        assert abs(xN[0] - fixed) <= abs(xN[-1] - fixed) + 1e-15

    def test_X_and_g_match_scalar_numeric_dp(self, rng):
        """The X/g tables against stagewise numerical quadratic minimization."""
        for _ in range(5):
            inst = make_random_instance(rng, n_range=(4, 4))
            params = synthesize(inst.spec)
            for k in range(inst.spec.n):
                gamma, rho = params.gamma[k], params.rho[k]
                xk = params.X[k]
                for j in range(len(xk) - 1, 0, -1):
                    # min_x (X(j) + gamma)(a + x)^2 + rho x^2 evaluated at a=1
                    res = minimize_scalar(
                        lambda x: (xk[j] + gamma) * (1 + x) ** 2 + rho * x**2,
                        method="golden",
                    )
                    assert res.fun == pytest.approx(xk[j - 1], abs=1e-8)
                for j in range(2, params.tau_eff[k] + 1):
                    assert params.g[k][j] == pytest.approx(
                        xk[j - 1] / (xk[j - 1] + gamma), abs=1e-14
                    )

    def test_g_and_P_in_unit_interval(self, rng):
        for _ in range(25):
            inst = make_random_instance(rng)
            params = synthesize(inst.spec)
            for k in range(inst.spec.n):
                te = params.tau_eff[k]
                gvals = params.g[k][2 : te + 1]
                assert np.all((gvals > 0) & (gvals < 1))
                assert np.all((params.P[k] > 0) & (params.P[k] < 1))
                assert np.all(params.X[k] > 0)
            assert np.all(params.gamma > 0) and np.all(params.rho > 0)


class TestHSweep:
    def test_h0_is_zero(self, rng):
        inst = make_random_instance(rng)
        params = synthesize(inst.spec)
        assert params.h[0] == 0.0

    def test_single_edge_formula(self, rng):
        spec = GraphSpec(
            n=2, tau=(3,), q=tuple(rng.uniform(0.5, 2, 2)),
            r=tuple(rng.uniform(0.5, 2, 2)), horizon=2,
        )
        params = synthesize(spec)
        te = spec.tau[0]
        expected = params.P[0][te - 1, te - 1] * params.g_cross[0]
        assert params.h[1] == pytest.approx(expected, abs=1e-15)


class TestSynthesize:
    def test_single_node_degenerate(self):
        spec = GraphSpec(n=1, tau=(), q=(2.0,), r=(3.0,), horizon=4)
        params = synthesize(spec)
        assert params.gamma[0] == 2.0 and params.rho[0] == 3.0
        assert len(params.X[0]) == spec.horizon + 2
        assert params.b == [0.0] and params.g_cross.size == 0
        assert params.h == pytest.approx([0.0])

    def test_deterministic(self, rng):
        inst = make_random_instance(rng)
        p1 = synthesize(inst.spec)
        p2 = synthesize(inst.spec)
        assert np.array_equal(p1.gamma, p2.gamma)
        assert all(np.array_equal(a, b) for a, b in zip(p1.X, p2.X))
        for name in ("coef", "coef_last"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name), equal_nan=True)
        assert np.array_equal(p1.h, p2.h)

    def test_serialization_roundtrip_keys(self, five_node_spec):
        import json

        from pathlq.synthesis import params_to_document

        doc = json.loads(params_to_document(synthesize(five_node_spec)))
        assert doc["n"] == 5
        assert len(doc["nodes"]) == 5
        node1 = doc["nodes"][0]
        assert node1["tau_eff"] == 3
        assert "3" in node1["X"] and "2,1" in node1["P"]


def _reference_rows(params, k):
    """Node k+1's gprod and phi entries 1..tau_eff, recomputed one scalar at
    a time from its g, P and h values in synthesis's order of operations."""
    te = params.tau_eff[k]
    gprod = [1.0]
    for m in range(2, te + 1):
        gprod.append(gprod[-1] * params.g[k][m])
    phi = [
        1.0 - params.P[k][te - 1, d - 1]
        - (params.one_minus_p_tau_1[k] * params.h[k] * gprod[d - 1])
        for d in range(1, te + 1)
    ]
    return np.array(gprod), np.array(phi)


@pytest.mark.parametrize("tau, horizon", [
    ((3, 2, 5, 4), 6), ((5,), 0), ((1, 1, 1), 30), ((2, 5, 1, 3, 4), 100), ((), 7),
], ids=["demo", "H0-tau5", "H30-tau1", "H100", "single-node"])
def test_node_slice_rows_match_a_scalar_reference(tau, horizon, rng):
    n = len(tau) + 1
    spec = GraphSpec(n=n, tau=tau, q=tuple(rng.uniform(0.1, 10, n)),
                     r=tuple(rng.uniform(0.1, 10, n)), horizon=horizon)
    params = synthesize(spec)
    for k in range(n):
        phi_row, gprod_row = params.node_slice(k).rows
        gprod, phi = _reference_rows(params, k)
        # The rows are tuples of Python floats; through an array, still bitwise.
        assert np.array(gprod_row[1:]).tobytes() == gprod.tobytes(), k
        assert np.array(phi_row[1:]).tobytes() == phi.tobytes(), k
        # The coefficients of z: phi_i(1) and the empty product.
        assert (phi_row[0], gprod_row[0]) == (phi_row[1], 1.0), k


@pytest.mark.parametrize("tau, horizon", [
    ((3, 2, 5, 4), 6), ((5,), 0), ((1, 1, 1), 30), ((1, 6, 2), 2), ((), 0), ((), 7),
], ids=["demo", "H0-tau5", "H30-tau1", "mixed-H2", "single-node-H0", "single-node"])
def test_node_slice_rows_are_the_packed_terms_cut_at_tau_eff(tau, horizon, rng):
    # Each chain's row holds tau_eff + 1 Python floats: the packed layout's
    # NaN padding past a node's delay stays out of its slice.
    n = len(tau) + 1
    spec = GraphSpec(n=n, tau=tau, q=tuple(rng.uniform(0.1, 10, n)),
                     r=tuple(rng.uniform(0.1, 10, n)), horizon=horizon)
    params = synthesize(spec)
    for k in range(n):
        te = params.tau_eff[k]
        packed = params.coef_last if k == n - 1 else params.coef[:, :, k].T
        for c, row in enumerate(params.node_slice(k).rows):
            assert type(row) is tuple and len(row) == te + 1, (k, c)
            assert all(type(x) is float and not math.isnan(x) for x in row), (k, c)
            assert np.array(row).tobytes() == packed[c, : te + 1].tobytes(), (k, c)


@pytest.mark.parametrize(
    "tau", [(3, 2, 5, 4), (1,), ()], ids=["demo", "two-node", "single-node"]
)
def test_sweep_lists_are_the_coefficient_arrays(tau, rng):
    # The two sweeps read one_minus_p_tau_1 and b as they are stored: one
    # Python float per node, node N's b being its unit's 0.0.
    n = len(tau) + 1
    spec = GraphSpec(n=n, tau=tau, q=tuple(rng.uniform(0.1, 10, n)),
                     r=tuple(rng.uniform(0.1, 10, n)), horizon=3)
    params = synthesize(spec)
    assert len(params.one_minus_p_tau_1) == len(params.b) == n
    assert all(type(x) is float for x in params.one_minus_p_tau_1 + params.b)
    for k in range(n):
        weights = params.node_slice(k).weights
        assert weights == (params.one_minus_p_tau_1[k], params.b[k])
        assert all(type(x) is float for x in weights)
    assert params.b[-1] == 0.0


OUTPUTS = ("a", "c", "one_minus_gamma_q", "x1_over_r", "one_minus_h_prev")


def _reference_outputs(spec, params):
    """The output coefficients of OUTPUTS, one node at a time, in the scalar
    order of operations that synthesize applies over the node axis."""
    out = {name: np.empty(spec.n) for name in OUTPUTS}
    a, c, one_minus_gamma_q, x1_over_r, one_minus_h_prev = out.values()
    gamma, rho = params.gamma, params.rho
    for k in range(spec.n):
        h_prev = params.h[k]
        x1 = params.X[k][0]
        gamma_q = gamma[k] / spec.q[k]
        one_minus_gamma_q[k] = 1.0 - gamma_q
        x1_over_r[k] = x1 / spec.r[k]
        one_minus_h_prev[k] = 1.0 - h_prev
        a[k] = x1_over_r[k] + gamma_q * (1.0 - x1 / rho[k])
        c[k] = (
            -(x1_over_r[k] - gamma[k] * x1 / (spec.q[k] * rho[k])) * one_minus_h_prev[k]
            + gamma_q * h_prev
        )
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_output_coefficients_match_the_scalar_loop(data):
    n = data.draw(st.integers(1, 12))
    tau = data.draw(st.lists(st.integers(1, 8), min_size=n - 1, max_size=n - 1))
    weights = st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
                       min_size=n, max_size=n)
    spec = GraphSpec(n=n, tau=tau, q=data.draw(weights), r=data.draw(weights),
                     horizon=data.draw(st.integers(0, 11)))
    params = synthesize(spec)
    for name, want in _reference_outputs(spec, params).items():
        assert getattr(params, name).tobytes() == want.tobytes(), name


# Tables that are not dataclass fields: the per-node arrays that
# ControllerParams builds on first read.
BUILT_ON_READ = ("X", "g", "P")


def _assert_same_bytes(got: ControllerParams, want: ControllerParams) -> None:
    """Every field and every table of BUILT_ON_READ equal by type, shape,
    dtype and bytes; lists, and the rows of the *_rows lists, must hold
    Python floats and are compared as float arrays."""
    names = [field.name for field in dataclasses.fields(ControllerParams)]
    for name in names + list(BUILT_ON_READ):
        a, b = getattr(got, name), getattr(want, name)
        if name in ("spec", "tau_eff", "tail_start"):
            assert a == b, name
            continue
        assert type(a) is type(b) and len(a) == len(b), name
        if name.endswith("_rows"):
            assert [len(row) for row in a] == [len(row) for row in b], name
            a, b = [x for row in a for x in row], [x for row in b for x in row]
        if isinstance(b, list):
            assert all(type(x) is float for x in a), name
            a, b = np.array(a), np.array(b)
        for x, y in zip(a, b) if isinstance(b, tuple) else [(a, b)]:
            assert type(x) is np.ndarray, name
            assert (x.shape, x.dtype) == (y.shape, y.dtype), name
            assert x.tobytes() == y.tobytes(), name
    assert params_to_document(got) == params_to_document(want)


WEIGHTS = st.one_of(
    st.floats(-6.0, 6.0).map(lambda e: 10.0**e), st.integers(1, 10**6)
)


@st.composite
def _specs(draw):
    """N up to 40, each tau in 1..8 and H up to 50: node N's P table, which
    ControllerParams.P rebuilds through p_rows, is then up to 51 x 51."""
    n = draw(st.integers(1, 40))
    weights = st.lists(WEIGHTS, min_size=n, max_size=n)
    return GraphSpec(n=n, tau=draw(st.lists(st.integers(1, 8), min_size=n - 1,
                                            max_size=n - 1)),
                     q=draw(weights), r=draw(weights), horizon=draw(st.integers(0, 50)))


def _spread_spec(n: int, tau, horizon: int) -> GraphSpec:
    """q from 1e-3 to 1e3 and r from 0.03 to 40, in patterns out of step."""
    return GraphSpec(n=n, tau=tuple(tau), horizon=horizon,
                     q=tuple(10.0 ** (k % 7 - 3) for k in range(n)),
                     r=tuple(2.5 ** (4 - k % 9) for k in range(n)))


@settings(max_examples=80, deadline=None)
@given(_specs())
@example(GraphSpec(n=9, tau=(8, 1, 7, 2, 6, 3, 5, 4),
                   q=(0.5, 2, 1e3, 1.0, 7, 1e-3, 4.0, 1, 2.5e5),
                   r=(3, 1e-4, 1.0, 40, 2.0, 1, 1e5, 0.25, 6), horizon=50))
# The benchmark's shapes: node N's tables then run apart from the others'.
@example(_spread_spec(200, (3,) * 199, 20))
@example(_spread_spec(100, (k % 8 + 1 for k in range(99)), 30))
# One node, and node N's H + 1 terms below, at and above max(tau) = 5.
@example(_spread_spec(1, (), 7))
@example(_spread_spec(1, (), 200))
@example(_spread_spec(4, (5, 2, 4), 3))
@example(_spread_spec(4, (5, 2, 4), 4))
@example(_spread_spec(4, (5, 2, 4), 5))
# One long edge among short ones: its node runs apart, node N with it.
@example(_spread_spec(60, (3,) * 30 + (40,) + (3,) * 28, 20))
def test_synthesize_matches_the_numpy_scalar_sweeps_bitwise(spec):
    _assert_same_bytes(synthesize(spec), reference_synthesize(spec))


def test_integer_weights_synthesize_as_their_float_twin():
    q, r = (3, 1, 7, 2), (10, 250, 1, 4)
    twins = [
        GraphSpec(n=4, tau=(2, 1, 3), q=q, r=r, horizon=5),
        GraphSpec(n=4, tau=(2, 1, 3), q=tuple(map(float, q)),
                  r=np.array(r, dtype=float), horizon=5),
    ]
    _assert_same_bytes(*map(synthesize, twins))
