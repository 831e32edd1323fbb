import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlq import (
    ControlDecision,
    GraphSpec,
    PlantState,
    SpecError,
    aggregate_delays,
    plant_step,
    stage_cost,
)


class TestAggregateDelays:
    def test_five_node(self):
        assert aggregate_delays([3, 2, 5, 4]) == [0, 3, 5, 10, 14]

    def test_three_node(self):
        assert aggregate_delays([2, 2]) == [0, 2, 4]

    def test_single_node(self):
        assert aggregate_delays([]) == [0]

    def test_strictly_increasing(self, rng):
        tau = rng.integers(1, 6, size=8).tolist()
        sigma = aggregate_delays(tau)
        assert sigma[0] == 0
        assert all(b > a for a, b in zip(sigma, sigma[1:]))

    @pytest.mark.parametrize("bad", [[0], [2, -1], [1.5]])
    def test_invalid_delay(self, bad):
        with pytest.raises(SpecError):
            aggregate_delays(bad)


class TestValidateSpec:
    """GraphSpec checks a raw mapping, as a JSON config gives one."""

    def test_well_formed(self):
        spec = GraphSpec(
            **{"n": 5, "tau": [3, 2, 5, 4], "q": [1] * 5, "r": [1] * 5, "horizon": 4}
        )
        assert spec.sigma == (0, 3, 5, 10, 14)

    def test_zero_weight_rejected(self):
        with pytest.raises(SpecError, match="positive"):
            GraphSpec(**{"n": 2, "tau": [1], "q": [1, 0], "r": [1, 1], "horizon": 0})

    def test_zero_nodes_rejected(self):
        with pytest.raises(SpecError, match="n ="):
            GraphSpec(**{"n": 0, "tau": [], "q": [], "r": [], "horizon": 0})

    def test_tau_shape_rejected(self):
        with pytest.raises(SpecError, match="tau"):
            GraphSpec(**{"n": 3, "tau": [1], "q": [1] * 3, "r": [1] * 3, "horizon": 0})


_GOOD = dict(n=2, tau=(1,), q=(1.0, 1.0), r=(1.0, 1.0), horizon=2)


class TestGraphSpec:
    @pytest.mark.parametrize("fields, match", [
        (dict(n=3), "tau has 1 entries, expected n-1 = 2"),
        (dict(n=0, tau=(), q=(), r=()), "node count n = 0"),
        (dict(n=2.5), "n = 2.5 must be a whole number"),
        (dict(q=(1.0,)), "q and r must each have n = 2 entries"),
        (dict(r=(1.0, 1.0, 1.0)), "q and r must each have n = 2 entries"),
        (dict(q=(-1.0, 1.0)), "q_1 = -1.0 must be strictly positive"),
        (dict(r=(1.0, float("nan"))), "r_2 = nan must be strictly positive"),
        (dict(q=(1.0, float("inf"))), "q_2 = inf must be strictly positive"),
        (dict(horizon=-1), "horizon H = -1"),
        (dict(horizon=1.5), "horizon = 1.5 must be a whole number"),
        (dict(tau=(0,)), "tau_1 = 0 must be an integer >= 1"),
        (dict(tau=(1.5,)), "tau_1 = 1.5 must be an integer >= 1"),
        (dict(q=("a", 1.0)), "q_1 = 'a' is not a number"),
        (dict(tau=("x",)), "tau_1 = x must be an integer >= 1"),
        (dict(n=None), "n = None must be a whole number"),
        (dict(tau=None), "tau = None is not a sequence"),
        # Text and booleans are not numbers, although float() reads them.
        (dict(n="2"), "n = 2 must be a whole number"),
        (dict(n=b"2"), "n = b'2' must be a whole number"),
        (dict(n=True, tau=(), q=(1.0,), r=(1.0,)), "n = True must be a whole number"),
        (dict(horizon=True), "horizon = True must be a whole number"),
        (dict(horizon=np.True_), "horizon = True must be a whole number"),
        (dict(horizon="2"), "horizon = 2 must be a whole number"),
        (dict(tau="1"), "tau = '1' is not a sequence"),
        (dict(tau=b"1"), "tau = b'1' is not a sequence"),
        (dict(tau=(True,)), "tau_1 = True must be an integer >= 1"),
        (dict(tau=("1",)), "tau_1 = 1 must be an integer >= 1"),
        (dict(q="11"), "q = '11' is not a sequence"),
        (dict(q=(1.0, "1")), "q_2 = '1' is not a number"),
        (dict(r=(np.True_, 1.0)), "r_1 = np.True_ is not a number"),
        (dict(r=(1.0, b"1")), "r_2 = b'1' is not a number"),
    ], ids=["tau-short", "n-0", "n-fractional", "q-short", "r-long", "q-negative",
            "r-nan", "q-inf", "horizon-negative", "horizon-fractional", "tau-0",
            "tau-fractional", "q-text", "tau-text", "n-none", "tau-none",
            "n-text", "n-bytes", "n-bool", "horizon-bool", "horizon-numpy-bool",
            "horizon-text", "tau-string", "tau-bytes", "tau-entry-bool",
            "tau-entry-text", "q-string", "q-entry-text", "r-entry-numpy-bool",
            "r-entry-bytes"])
    def test_bad_spec_rejected_at_construction(self, fields, match):
        # GraphSpec(n=3, tau=(1,), ...) used to be accepted, and synthesize
        # then failed with a bare IndexError; a negative or NaN weight gave
        # NaN parameters, and a non-numeric field a bare TypeError or
        # ValueError.
        with pytest.raises(SpecError, match=match):
            GraphSpec(**{**_GOOD, **fields})

    def test_whole_floats_stored_as_ints(self):
        spec = GraphSpec(n=3.0, tau=[2.0, 1.0], q=[1.0] * 3, r=[1.0] * 3, horizon=4.0)
        assert (spec.n, spec.tau, spec.horizon) == (3, (2, 1), 4)
        assert all(type(x) is int for x in (spec.n, *spec.tau, spec.horizon))
        assert spec == GraphSpec(n=3, tau=(2, 1), q=(1.0,) * 3, r=(1.0,) * 3, horizon=4)

    def test_weights_stored_as_python_floats(self):
        spec = GraphSpec(n=3, tau=(2, 1), q=[1, np.float32(0.1), 2.5],
                         r=(np.int64(3), 4, np.uint8(1)), horizon=0)
        assert all(type(x) is float for x in (*spec.q, *spec.r))
        for stored, array in zip((spec.q, spec.r), spec.weights):
            assert np.array(stored).tobytes() == array.tobytes()
        assert spec.q == (1.0, float(np.float32(0.1)), 2.5)
        assert spec.r == (3.0, 4.0, 1.0)

class TestInitialState:
    SPEC = GraphSpec(n=4, tau=(2, 3, 1), q=(1.0,) * 4, r=(1.0,) * 4, horizon=1)

    @pytest.mark.parametrize("pipelines, match", [
        ([[0.0, 0.0], [0.0, 0.0, 0.0]], "do not match edge delays"),
        ([[0.0, 0.0], [0.0, 0.0, 0.0], [0.0], [0.0]], "do not match edge delays"),
        ([[0.0, 0.0], [0.0, 0.0], [0.0]], "do not match edge delays"),
        ([[0.0, 0.0], [[0.0], [0.0], [0.0]], [0.0]], "do not match edge delays"),
        ([[0.0, 0.0], [0.0, np.nan, 0.0], [0.0]], "have a non-finite entry"),
        ([[0.0, 0.0], [0.0, 0.0, 0.0], [-np.inf]], "have a non-finite entry"),
    ], ids=["too-few", "too-many", "short", "2-D", "nan-in-middle", "inf-in-last"])
    def test_bad_pipelines_rejected(self, pipelines, match):
        with pytest.raises(SpecError, match=match):
            PlantState.initial(self.SPEC, np.zeros(4), pipelines)

    def test_z_is_checked_before_the_pipelines(self):
        with pytest.raises(SpecError, match="initial z has a non-finite entry"):
            PlantState.initial(self.SPEC, [0.0, np.nan, 0.0, 0.0], [[0.0]])

    @pytest.mark.parametrize("z0, pipelines", [
        (["0.5", "0.1", "0.2", "0.3"], None),
        ([True, False, True, False], None),
        ([0.5, True, 0.0, 0.0], None),
        ([0.5, np.True_, 0.0, 0.0], None),
        ([b"1", 0.0, 0.0, 0.0], None),
        (np.array([True, False, True, True]), None),
        (np.array(["1", "2", "3", "4"]), None),
        (np.zeros(4), [["0.1", "0.2"], [0.0, 0.0, 0.0], [0.0]]),
        (np.zeros(4), [[0.1, 0.2], [0.0, True, 0.0], [0.0]]),
        (np.zeros(4), [[0.1, 0.2], [0.0, 0.0, 0.0], np.array([False])]),
    ], ids=["text-z", "bool-z", "mixed-bool-z", "np-bool-entry-z", "bytes-z",
            "bool-array-z", "text-array-z", "text-pipeline", "mixed-bool-pipeline",
            "bool-array-pipeline"])
    def test_text_and_booleans_are_not_numbers(self, z0, pipelines):
        # np.array(..., float) reads '0.5' as 0.5 and True as 1.0.
        with pytest.raises(SpecError, match="initial state is not numeric"):
            PlantState.initial(self.SPEC, z0, pipelines)

    def test_numbers_of_every_type_are_read(self):
        got = PlantState.initial(
            self.SPEC, [1, np.int64(2), np.float32(0.5), 4.0],
            [np.array([1, 2]), (np.uint8(3), 4.5, 5), np.array([6.0], np.float32)],
        )
        assert got.z.tolist() == [1.0, 2.0, 0.5, 4.0]
        assert got.flows.tolist() == [1.0, 2.0, 3.0, 4.5, 5.0, 6.0, 0.0]

    @pytest.mark.parametrize("tau", [(2, 3, 1), (1,), ()], ids=["n4", "n2", "n1"])
    def test_state_equals_the_constructed_one(self, tau, rng):
        n = len(tau) + 1
        spec = GraphSpec(n=n, tau=tau, q=(1.0,) * n, r=(1.0,) * n, horizon=0)
        z0 = rng.standard_normal(n)
        pipes = [rng.standard_normal(t) for t in tau]
        # The pipelines back to back, then the 0.0 in transit to node N;
        # each one's first and last slot from the running sum of lengths,
        # and the closing 0.0's slot after the first slots.
        lengths = np.array(tau, dtype=int)
        ends = np.cumsum(lengths)
        for given, flows in [
            (None, np.zeros(sum(tau) + 1)),
            ([p.tolist() for p in pipes], np.concatenate([*pipes, [0.0]])),
        ]:
            got = PlantState.initial(spec, z0, given)
            assert got.t == 0 and got.z.tobytes() == z0.tobytes()
            first = np.concatenate((ends - lengths, [ends[-1] if tau else 0]))
            for name, want in [("flows", flows), ("_first", first),
                               ("_last", ends - 1)]:
                a = getattr(got, name)
                assert (a.dtype, a.shape) == (want.dtype, want.shape), name
                assert a.tobytes() == want.tobytes(), name


def _zero_action(spec):
    return ControlDecision(u=np.zeros(spec.n - 1), v=np.zeros(spec.n))


class TestPlantStep:
    def test_equilibrium_fixed_point(self, five_node_spec):
        spec = five_node_spec
        state = PlantState.initial(spec)
        nxt = plant_step(state, _zero_action(spec), np.zeros(spec.n), spec)
        assert nxt.t == 1
        assert np.all(nxt.z == 0)
        assert all(np.all(p == 0) for p in nxt.pipelines)

    def test_single_node_disturbance(self):
        spec = GraphSpec(n=1, tau=(), q=(1.0,), r=(1.0,), horizon=0)
        state = PlantState.initial(spec)
        nxt = plant_step(state, _zero_action(spec), np.array([-1.0]), spec)
        assert nxt.z == pytest.approx([-1.0])

    def test_two_node_transport(self):
        spec = GraphSpec(n=2, tau=(1,), q=(1.0, 1.0), r=(1.0, 1.0), horizon=0)
        state = PlantState.initial(spec, z0=[1.0, 2.0], pipelines0=[[0.3]])
        action = ControlDecision(u=np.array([0.5]), v=np.zeros(2))
        nxt = plant_step(state, action, np.zeros(2), spec)
        # Node 1 receives the in-transit 0.3; node 2 releases 0.5.
        assert nxt.z == pytest.approx([1.3, 1.5])
        assert nxt.pipelines[0] == pytest.approx([0.5])

    def test_dimension_mismatch(self, five_node_spec):
        spec = five_node_spec
        state = PlantState.initial(spec)
        bad = ControlDecision(u=np.zeros(2), v=np.zeros(spec.n))
        with pytest.raises(SpecError):
            plant_step(state, bad, np.zeros(spec.n), spec)

    @pytest.mark.parametrize(
        "u, v, d",
        [
            (["0.5", "1"], [0.0] * 3, [0.0] * 3),
            ([True, False], [0.0] * 3, [0.0] * 3),
            (np.array([True, False]), [0.0] * 3, [0.0] * 3),
            ([0.5, 1.0], [0.0, b"1", 0.0], [0.0] * 3),
            ([0.5, 1.0], [0.0] * 3, ["1", "2", "3"]),
            ([0.5, 1.0], [0.0] * 3, [1.0, np.True_, 0.0]),
        ],
        ids=["text-u", "bool-u", "bool-array-u", "bytes-v", "text-d", "numpy-bool-d"],
    )
    def test_text_and_booleans_rejected(self, u, v, d):
        # np.asarray(..., dtype=float) reads "0.5" as 0.5 and True as 1.0.
        spec = GraphSpec(n=3, tau=(1, 2), q=(1.0,) * 3, r=(1.0,) * 3, horizon=0)
        state = PlantState.initial(spec)
        with pytest.raises(SpecError, match="not numeric"):
            plant_step(state, ControlDecision(u=u, v=v), d, spec)

    def test_numbers_in_lists_run_as_their_float_array(self):
        spec = GraphSpec(n=3, tau=(1, 2), q=(1.0,) * 3, r=(1.0,) * 3, horizon=0)
        state = PlantState.initial(spec, z0=[1.0, -0.0, 2.0], pipelines0=[[0.5], [1, 2]])
        listed = plant_step(state, ControlDecision(u=[1, 0.25], v=[0, -0.0, 3]),
                            [np.float32(0.5), 0, -1], spec)
        arrays = plant_step(
            state,
            ControlDecision(u=np.array([1.0, 0.25]), v=np.array([0.0, -0.0, 3.0])),
            np.array([0.5, 0.0, -1.0]), spec,
        )
        assert listed.z.tobytes() == arrays.z.tobytes()
        assert listed.flows.tobytes() == arrays.flows.tobytes()

    def test_pure_transport_conserves_quantity(self, rng):
        spec = GraphSpec(n=4, tau=(2, 3, 1), q=(1.0,) * 4, r=(1.0,) * 4, horizon=0)
        state = PlantState.initial(
            spec,
            z0=rng.standard_normal(4),
            pipelines0=[rng.standard_normal(t) for t in spec.tau],
        )
        total0 = state.z.sum() + sum(p.sum() for p in state.pipelines)
        for _ in range(10):
            action = ControlDecision(u=rng.standard_normal(3), v=np.zeros(4))
            state = plant_step(state, action, np.zeros(4), spec)
            total = state.z.sum() + sum(p.sum() for p in state.pipelines)
            assert total == pytest.approx(total0, abs=1e-12)

    def test_linearity(self, rng):
        spec = GraphSpec(n=3, tau=(2, 1), q=(1.0,) * 3, r=(1.0,) * 3, horizon=0)

        def rand_triple():
            state = PlantState.initial(
                spec,
                z0=rng.standard_normal(3),
                pipelines0=[rng.standard_normal(t) for t in spec.tau],
            )
            action = ControlDecision(
                u=rng.standard_normal(2), v=rng.standard_normal(3)
            )
            return state, action, rng.standard_normal(3)

        (s1, a1, d1), (s2, a2, d2) = rand_triple(), rand_triple()
        lam = 0.37
        mix_state = PlantState.initial(
            spec,
            lam * s1.z + (1 - lam) * s2.z,
            [lam * p + (1 - lam) * q_ for p, q_ in zip(s1.pipelines, s2.pipelines)],
        )
        mix_action = ControlDecision(
            u=lam * a1.u + (1 - lam) * a2.u, v=lam * a1.v + (1 - lam) * a2.v
        )
        mixed = plant_step(mix_state, mix_action, lam * d1 + (1 - lam) * d2, spec)
        r1 = plant_step(s1, a1, d1, spec)
        r2 = plant_step(s2, a2, d2, spec)
        assert np.allclose(mixed.z, lam * r1.z + (1 - lam) * r2.z, atol=1e-12)
        for pm, p1, p2 in zip(mixed.pipelines, r1.pipelines, r2.pipelines):
            assert np.allclose(pm, lam * p1 + (1 - lam) * p2, atol=1e-12)


class TestStageCost:
    def test_zero_state_costs_nothing(self, five_node_spec):
        spec = five_node_spec
        assert stage_cost(spec, np.zeros(spec.n), np.zeros(spec.n)) == 0.0

    def test_single_node_value(self):
        spec = GraphSpec(n=1, tau=(), q=(1.0,), r=(10.0,), horizon=0)
        assert stage_cost(spec, np.array([2.0]), np.array([1.0])) == pytest.approx(14.0)

    def test_non_negative(self, rng, five_node_spec):
        spec = five_node_spec
        for _ in range(20):
            z, v = rng.standard_normal(spec.n), rng.standard_normal(spec.n)
            assert stage_cost(spec, z, v) >= 0.0


def _concatenate_step(state, action, d):
    """The plant step edge by edge: (z, pipelines) one step later."""
    n = len(state.z)
    arrivals = np.zeros(n)
    arrivals[:-1] = [p[0] for p in state.pipelines]
    departures = np.zeros(n)
    departures[1:] = action.u
    z = state.z + arrivals - departures + action.v + d
    pipes = [np.concatenate([p[1:], [u]]) for p, u in zip(state.pipelines, action.u)]
    return z, pipes


VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flat_shift_equals_the_per_edge_formula_bitwise(data):
    n = data.draw(st.integers(1, 8), label="n")
    tau = data.draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    spec = GraphSpec(n=n, tau=tuple(tau), q=(1.0,) * n, r=(1.0,) * n, horizon=0)
    values = lambda size: np.array(
        data.draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=float
    )
    state = PlantState.initial(spec, values(n), [values(t) for t in tau])
    for step in range(data.draw(st.integers(1, 6), label="steps")):
        action = ControlDecision(u=values(n - 1), v=values(n))
        d = values(n)
        z, pipes = _concatenate_step(state, action, d)
        state = plant_step(state, action, d, spec)
        assert state.t == step + 1
        assert state.z.tobytes() == z.tobytes()
        assert len(state.pipelines) == n - 1
        for got, want in zip(state.pipelines, pipes):
            assert got.tobytes() == want.tobytes()
