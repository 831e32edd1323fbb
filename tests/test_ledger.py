"""Tests for the disturbance plan and the shifted-sum window maintenance."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlq.errors import HorizonViolationError, LedgerRangeError, SpecError
from pathlq.ledger import (
    DisturbancePlan,
    advance_time,
    apply_plan_updates,
    init_shifted_sums,
    validate_horizon,
)
from pathlq.model import GraphSpec
from pathlq.oracle import build_augmented_system, solve_finite_horizon
from pathlq.simulate import closed_loop
from pathlq.synthesis import synthesize

from diagnostics import per_hop_plan_updates


MISSING = object()  # a record field left out


def _spec(n, tau, horizon, q=None, r=None):
    q = tuple(q) if q is not None else (1.0,) * n
    r = tuple(r) if r is not None else (1.0,) * n
    return GraphSpec(n=n, tau=tuple(tau), q=q, r=r, horizon=horizon)


def _shifted_sum(plan, spec, i, t):
    """D_i[t] as the fixed ascending-node sum (the one canonical order)."""
    total = 0.0
    for j in range(1, i + 1):
        key = (j, t - spec.sigma[j - 1])
        if key in plan.entries:
            total += plan.entries[key]
    return total


def _windows(windows):
    """A copy of every node's window, D_i[now + sigma_i .. now + sigma_N + H]."""
    spec = windows.spec
    width = spec.sigma_total + spec.horizon + 1
    return [
        windows.slice(i, width - spec.sigma[i - 1]).copy() for i in range(1, spec.n + 1)
    ]


def _recompute(windows, plan):
    fresh = init_shifted_sums(plan, windows.spec, now=windows.now)
    return _windows(fresh)


def _entry(windows, node, t):
    """D_node[t], read from node's window."""
    return _windows(windows)[node - 1][t - windows.now - windows.spec.sigma[node - 1]]


def _assert_definition(windows, plan):
    """Every window equals _shifted_sum over the plan, byte for byte."""
    spec = windows.spec
    last = windows.now + spec.sigma_total + spec.horizon
    for k, got in enumerate(_windows(windows)):
        times = range(windows.now + spec.sigma[k], last + 1)
        want = np.array([_shifted_sum(plan, spec, k + 1, t) for t in times])
        assert got.tobytes() == want.tobytes()
        assert windows.slice(k + 1, len(got)).tobytes() == want.tobytes()


class TestPlan:
    def test_from_records_expands_ranges(self):
        plan = DisturbancePlan.from_records(
            [{"node": 2, "start_time": 3, "end_time": 5, "amount_per_step": -0.5}]
        )
        assert plan.get(2, 3) == -0.5
        assert plan.get(2, 5) == -0.5
        assert plan.get(2, 6) == 0.0
        assert plan.get(1, 4) == 0.0

    def test_overlapping_records_accumulate(self):
        plan = DisturbancePlan.from_records(
            [
                {"node": 1, "start_time": 0, "end_time": 2, "amount_per_step": 1.0},
                {"node": 1, "start_time": 2, "end_time": 4, "amount_per_step": 0.25},
            ]
        )
        assert plan.get(1, 2) == 1.25

    @pytest.mark.parametrize("field, value, message", [
        ("node", 1.7, "node = 1.7 is not a whole number"),
        ("node", True, "node = True is not a whole number"),
        ("node", "2", "node = '2' is not a whole number"),
        ("start_time", "0", "start_time = '0' is not a whole number"),
        ("start_time", np.bool_(False), "start_time = "),
        ("end_time", 1.9, "end_time = 1.9 is not a whole number"),
        ("amount_per_step", "0.5", "amount_per_step = '0.5' is not a number"),
        ("amount_per_step", True, "amount_per_step = True is not a number"),
        ("amount_per_step", b"1", "amount_per_step = b'1' is not a number"),
        ("end_time", MISSING, "end_time = None is not a whole number"),
    ])
    def test_from_records_reads_each_field_by_the_number_rules(self, field, value,
                                                               message):
        # int() and float() would truncate 1.7 to node 1 and read "0.5" and
        # True as numbers, planning disturbances nobody asked for.
        good = {"node": 1, "start_time": 0, "end_time": 2, "amount_per_step": 1.0}
        bad = {k: v for k, v in dict(good, **{field: value}).items() if v is not MISSING}
        with pytest.raises(SpecError, match=re.escape(f"record 1: {message}")):
            DisturbancePlan.from_records([good, bad])

    @pytest.mark.parametrize("record", [[1, 0, 1, 1.0], None, (("node", 1),), "node"],
                             ids=["list", "None", "pairs", "text"])
    def test_from_records_rejects_a_record_that_is_not_a_mapping(self, record):
        # rec.get used to end in a bare AttributeError.
        good = {"node": 1, "start_time": 0, "end_time": 2, "amount_per_step": 1.0}
        with pytest.raises(SpecError, match=re.escape(
                f"record 1: {record!r} is not a mapping")):
            DisturbancePlan.from_records([good, record])

    @pytest.mark.parametrize("records", [None, 5, 2.5])
    def test_from_records_rejects_records_it_cannot_iterate(self, records):
        # They used to end in a bare TypeError that named no value.
        with pytest.raises(SpecError, match=re.escape(
                f"disturbance records {records!r} are not iterable")):
            DisturbancePlan.from_records(records)

    def test_from_records_rejects_a_start_after_the_end(self):
        # A record that ends before it starts was dropped without a word.
        with pytest.raises(SpecError, match="record 0: start_time = 5 is after "
                                            "end_time = 4"):
            DisturbancePlan.from_records(
                [{"node": 2, "start_time": 5, "end_time": 4, "amount_per_step": 1.0}]
            )

    def test_from_records_reads_whole_numbers_of_every_type(self):
        plan = DisturbancePlan.from_records([
            {"node": np.int64(2), "start_time": 3.0, "end_time": np.float32(4),
             "amount_per_step": np.int32(2)},
            {"node": 2, "start_time": 4, "end_time": 4, "amount_per_step": 0.5},
        ])
        assert plan.entries == {(2, 3): 2.0, (2, 4): 2.5}
        assert all(type(x) is int for key in plan.entries for x in key)
        assert all(type(x) is float for x in plan.entries.values())

    def test_d_now_vector(self):
        spec = _spec(3, [1, 1], horizon=2)
        plan = DisturbancePlan({(2, 7): -1.0})
        assert np.array_equal(plan.d_now(spec, 7), [0.0, -1.0, 0.0])


class TestHorizonBound:
    def test_latest_admissible_entry_per_node(self):
        # sigma = [0, 3, 5] with sigma_N = 5 and H = 4: node i may plan up
        # to H + sigma_N - sigma_i steps ahead.
        spec = _spec(3, [3, 2], horizon=4)
        for node, latest in [(1, 9), (2, 6), (3, 4)]:
            validate_horizon(DisturbancePlan({(node, latest): 1.0}), spec)
            with pytest.raises(HorizonViolationError):
                validate_horizon(DisturbancePlan({(node, latest + 1): 1.0}), spec)

    def test_bound_is_relative_to_now(self):
        spec = _spec(3, [3, 2], horizon=4)
        plan = DisturbancePlan({(3, 14): 1.0})
        with pytest.raises(HorizonViolationError):
            validate_horizon(plan, spec, now=0)
        validate_horizon(plan, spec, now=10)

    def test_zero_entries_are_ignored(self):
        spec = _spec(2, [1], horizon=0)
        validate_horizon(DisturbancePlan({(2, 100): 0.0}), spec)


class TestInitWindows:
    def test_window_extents(self):
        spec = _spec(3, [3, 2], horizon=4)
        windows = init_shifted_sums(DisturbancePlan(), spec)
        # Node i stores shifted times sigma_i .. sigma_N + H.
        assert [len(w) for w in _windows(windows)] == [10, 7, 5]

    def test_shifted_sum_values(self):
        # Two edges of delay 2: sigma = [0, 2, 4].
        spec = _spec(3, [2, 2], horizon=3)
        plan = DisturbancePlan({(1, 1): 0.5, (2, 1): -1.0, (3, 0): 2.0})
        windows = init_shifted_sums(plan, spec)
        # D_1[t] = d_1[t].
        assert _entry(windows, 1, 1) == 0.5
        # D_2[3] = d_1[3] + d_2[1].
        assert _entry(windows, 2, 3) == -1.0
        # D_3[4] = d_1[4] + d_2[2] + d_3[0].
        assert _entry(windows, 3, 4) == 2.0
        # D_3[5] = d_1[5] + d_2[3] + d_3[1] = 0.
        assert _entry(windows, 3, 5) == 0.0

    def test_out_of_window_access_raises(self):
        # sigma = [0, 2]: node 1 holds shifted times 0..3, node 2 holds 2..3.
        spec = _spec(2, [2], horizon=1)
        windows = init_shifted_sums(DisturbancePlan(), spec)
        assert len(windows.slice(1, 4)) == 4
        assert len(windows.slice(2, 2)) == 2
        with pytest.raises(LedgerRangeError):
            windows.slice(1, 5)
        with pytest.raises(LedgerRangeError):
            windows.slice(2, 3)

    @pytest.mark.parametrize("node, length", [(0, 2), (-1, 1), (4, 1)])
    def test_slice_of_a_node_outside_the_path_raises(self, node, length):
        spec = _spec(3, [1, 2], horizon=1)
        windows = init_shifted_sums(DisturbancePlan({(1, 0): 0.5}), spec)
        with pytest.raises(LedgerRangeError, match=f"no node {node}: nodes are 1..3"):
            windows.slice(node, length)

    @pytest.mark.parametrize("length", [-1, -6])
    def test_slice_of_a_negative_length_raises(self, length):
        # slice(1, -1) used to return the window one entry short.
        spec = _spec(3, [2, 1], horizon=2)
        windows = init_shifted_sums(DisturbancePlan({(1, 0): 0.5}), spec)
        assert len(windows.slice(1, 0)) == 0
        with pytest.raises(LedgerRangeError, match=f"6 entries, {length} requested"):
            windows.slice(1, length)

    @pytest.mark.parametrize("length", [2.5, 2.0, True, None])
    def test_slice_of_a_non_integer_length_raises(self, length):
        # slice(1, 2.5) used to end in a bare TypeError, and slice(1, True)
        # returned one entry.
        spec = _spec(3, [2, 1], horizon=2)
        windows = init_shifted_sums(DisturbancePlan({(1, 0): 0.5}), spec)
        with pytest.raises(LedgerRangeError, match=f"{length!r} must be an integer"):
            windows.slice(1, length)
        assert windows.slice(1, np.int64(2)).tolist() == windows.slice(1, 2).tolist()


class TestAdvance:
    def test_shift_identity_two_edges(self):
        # tau = [2, 2], sigma = [0, 2, 4], H = 5: after the step to t = 1
        # every window gains shifted time 1 + 4 + 5 = 10, where node i's
        # own entry d_i[10 - sigma_i] lies one step past its bound at t = 0
        # and so is zero.  The new tails are +0.0, with no message sent.
        spec = _spec(3, [2, 2], horizon=5)
        plan = DisturbancePlan.from_records(
            [
                {"node": 2, "start_time": 0, "end_time": 3, "amount_per_step": -0.4},
                {"node": 1, "start_time": 2, "end_time": 2, "amount_per_step": 1.1},
            ]
        )
        # Nonzero entries at the bounds of t = 0, -0.0 one step past them.
        plan.entries.update({(1, 9): 0.1, (2, 7): 0.2, (3, 5): -0.7})
        plan.entries.update({(1, 10): -0.0, (2, 8): -0.0, (3, 6): -0.0})
        windows = init_shifted_sums(plan, spec)
        assert advance_time(windows) == []
        zero = np.float64(0.0).tobytes()
        for node, window in enumerate(_windows(windows), start=1):
            assert window[-1].tobytes() == zero
            assert np.float64(_shifted_sum(plan, spec, node, 10)).tobytes() == zero
        assert _entry(windows, 3, 9) == (0.1 + 0.2) + -0.7
        _assert_definition(windows, plan)

    def test_no_message_and_zero_tail_on_an_empty_plan(self):
        spec = _spec(4, [1, 2, 3], horizon=2)
        windows = init_shifted_sums(DisturbancePlan(), spec)
        assert advance_time(windows) == []
        assert windows.now == 1
        zero = np.float64(0.0).tobytes()
        assert all(w[-1].tobytes() == zero for w in _windows(windows))

    def test_bitwise_match_after_many_steps(self):
        rng = np.random.default_rng(7)
        spec = _spec(4, [3, 1, 2], horizon=4)
        plan = DisturbancePlan()
        for _ in range(10):
            node = int(rng.integers(1, 5))
            bound = spec.horizon + spec.sigma_total - spec.sigma[node - 1]
            plan.entries[(node, int(rng.integers(0, bound + 1)))] = float(rng.normal())
        validate_horizon(plan, spec)
        windows = init_shifted_sums(plan, spec)
        for _ in range(12):
            advance_time(windows)
            for got, want in zip(_windows(windows), _recompute(windows, plan)):
                assert np.array_equal(got, want)  # bitwise


class TestUpdates:
    def test_update_propagates_upstream(self):
        spec = _spec(3, [2, 2], horizon=5)
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        msgs = apply_plan_updates(windows, plan, {(1, 3): -0.7})
        # d_1[3] affects D_i[3] for every node whose window covers t = 3,
        # i.e. nodes 1 and 2 (node 3's window starts at sigma_3 = 4).
        assert _entry(windows, 1, 3) == -0.7
        assert _entry(windows, 2, 3) == -0.7
        assert [m[:3] for m in msgs] == [(1, 2, 3), (2, 3, 3)]

    def test_update_bitwise_vs_recompute(self):
        rng = np.random.default_rng(21)
        spec = _spec(4, [2, 3, 1], horizon=6)
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        for _ in range(40):
            if rng.random() < 0.5:
                advance_time(windows)
            else:
                node = int(rng.integers(1, 5))
                bound = (
                    windows.now
                    + spec.horizon
                    + spec.sigma_total
                    - spec.sigma[node - 1]
                )
                t = int(rng.integers(windows.now, bound + 1))
                apply_plan_updates(windows, plan, {(node, t): float(rng.normal())})
            for got, want in zip(_windows(windows), _recompute(windows, plan)):
                assert np.array_equal(got, want)  # bitwise

    def test_past_entries_rejected(self):
        spec = _spec(2, [1], horizon=3)
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        for _ in range(4):
            advance_time(windows)
        with pytest.raises(
            HorizonViolationError, match="time 3 is before the current time 4"
        ):
            apply_plan_updates(windows, plan, {(1, 3): 1.0})

    def test_too_far_ahead_rejected(self):
        spec = _spec(2, [1], horizon=3)
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        with pytest.raises(HorizonViolationError):
            apply_plan_updates(windows, plan, {(2, 4): 1.0})

    def test_empty_update_is_a_no_op(self):
        spec = _spec(2, [1], horizon=0)
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        before = _windows(windows)
        assert apply_plan_updates(windows, plan, {}) == []
        for got, want in zip(_windows(windows), before):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("node", [0, 3])
@pytest.mark.parametrize("call", ["init", "update"])
def test_node_outside_1_to_n_rejected(call, node):
    spec = _spec(2, [1], horizon=2)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    before = _windows(windows)
    with pytest.raises(SpecError, match=f"node {node}: nodes are 1..2"):
        if call == "init":
            init_shifted_sums(DisturbancePlan({(node, 1): 1.0}), spec)
        else:
            apply_plan_updates(windows, plan, {(node, 1): 1.0})
    assert plan.entries == {}
    for got, want in zip(_windows(windows), before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("t", [1, 100])  # inside and past the horizon bound
@pytest.mark.parametrize("call", ["init", "update"])
def test_nonfinite_entry_rejected(call, t, value):
    spec = _spec(2, [1], horizon=2)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    before = _windows(windows)
    with pytest.raises(SpecError, match=f"node 2, time {t} is {value}$"):
        if call == "init":
            init_shifted_sums(DisturbancePlan({(1, 0): 1.0, (2, t): value}), spec)
        else:
            apply_plan_updates(windows, plan, {(1, 0): 1.0, (2, t): value})
    assert plan.entries == {}
    for got, want in zip(_windows(windows), before):
        assert got.tobytes() == want.tobytes()


# One offence of each kind: past the horizon bound, NaN, and at no node.
MIXED = {(1, 50): 1.0, (2, 3): np.nan, (3, 0): 1.0}


@pytest.mark.parametrize("call", ["init", "update", "full-plan", "receding",
                                  "blind", "oracle"])
def test_offences_of_every_kind_report_one(call):
    # The ledger checks every rule and reports the first offender in
    # (node, t) order; closed_loop and the oracle screen all entries
    # without the bound first, so the NaN comes before the bound there.
    spec = _spec(2, [1], horizon=2)
    windows = init_shifted_sums(DisturbancePlan(), spec)
    before = _windows(windows)
    plan = DisturbancePlan(dict(MIXED))
    if call in ("init", "update"):
        error, want = HorizonViolationError, "node 1, time 50 violates horizon bound"
    else:
        error, want = SpecError, "disturbance at node 2, time 3 is nan$"
    with pytest.raises(error, match=want):
        if call == "init":
            init_shifted_sums(plan, spec)
        elif call == "update":
            apply_plan_updates(windows, DisturbancePlan(), plan.entries)
        elif call == "oracle":
            system = build_augmented_system(spec)
            solve_finite_horizon(system, np.zeros(system.dim), plan, 20)
        else:
            mode = {"full-plan": {}, "receding": {"announce": 1}, "blind": {"blind": True}}
            closed_loop(spec, synthesize(spec), plan, 6, **mode[call])
    assert plan.entries.keys() == MIXED.keys()
    assert all(plan.entries[k] is MIXED[k] for k in MIXED)
    for got, want in zip(_windows(windows), before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("key", [(2, 1.5), (2.7, 1), (2.0, 1), (1, 2, 3), (2,), ("x", 1)])
@pytest.mark.parametrize("call", ["init", "update"])
def test_non_integer_key_rejected(call, key):
    spec = _spec(2, [1], horizon=2)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    before = _windows(windows)
    want = f"disturbance key {key!r} is not a (node, time) pair of integers"
    with pytest.raises(SpecError, match=re.escape(want)):
        if call == "init":
            init_shifted_sums(DisturbancePlan({(1, 0): 1.0, key: 0.5}), spec)
        else:
            apply_plan_updates(windows, plan, {(1, 0): 1.0, key: 0.5})
    assert plan.entries == {}
    for got, want in zip(_windows(windows), before):
        assert got.tobytes() == want.tobytes()


# Keys that are not pairs but hold two integers per entry between them.
NOT_PAIRS = {
    "one-and-three": ((1,), (2, 1, 1)),
    "three-and-one": ((2, 1, 1), (1,)),
    "four-and-none": ((1, 0, 1, 1), ()),
}


@pytest.mark.parametrize("keys", NOT_PAIRS.values(), ids=NOT_PAIRS)
@pytest.mark.parametrize("call", ["init", "update"])
def test_keys_that_are_not_pairs_rejected_together(call, keys):
    # Flattened, (1,) and (2, 1, 1) would read as the pairs (1, 2), (1, 1).
    # Init checks the entries in insertion order, the update in key order.
    spec = _spec(2, [1], horizon=2)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    before = _windows(windows)
    entries = {(1, 0): 1.0, keys[0]: 0.5, keys[1]: -0.5}
    named = keys[0] if call == "init" else min(keys)
    want = f"disturbance key {named!r} is not a (node, time) pair of integers"
    with pytest.raises(SpecError, match=re.escape(want)):
        if call == "init":
            init_shifted_sums(DisturbancePlan(entries), spec)
        else:
            apply_plan_updates(windows, plan, entries)
    assert plan.entries == {}
    for got, want in zip(_windows(windows), before):
        assert got.tobytes() == want.tobytes()


# id -> (key, amount, the part of the entry at fault)
UNREADABLE = {
    "time-past-int64": ((1, 2**70), 1.0, "key"),
    "node-past-int64": ((-(2**64), 1), 1.0, "key"),
    "text": ((2, 1), "x", "amount"),
    "complex": ((2, 1), 1j, "amount"),
    "none": ((2, 1), None, "amount"),
    "list": ((2, 1), [0.5], "amount"),
    "huge-int": ((2, 1), 10**400, "amount"),
}


@pytest.mark.parametrize("key, amount, fault", UNREADABLE.values(), ids=UNREADABLE)
@pytest.mark.parametrize("call", ["init", "update"])
def test_unreadable_entry_rejected(call, key, amount, fault):
    # One rule on both paths: a key of two 64-bit integers and an amount
    # that float() reads; anything else is named as given.
    spec = _spec(2, [1], horizon=2)
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    before = _windows(windows)
    want = {
        "key": f"disturbance key {key!r} is not a (node, time) pair of integers "
               f"within 64 bits (amount {amount!r})",
        "amount": f"disturbance at node {key[0]}, time {key[1]} is {amount!r}: "
                  "not readable as a float",
    }[fault]
    with pytest.raises(SpecError, match=re.escape(want)):
        if call == "init":
            init_shifted_sums(DisturbancePlan({(1, 0): 1.0, key: amount}), spec)
        else:
            apply_plan_updates(windows, plan, {(1, 0): 1.0, key: amount})
    assert plan.entries == {}
    for got, want in zip(_windows(windows), before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("amount", ["1.5", " -0.25\n", np.float32(0.1), True,
                                    Fraction(1, 3), np.int64(3)],
                         ids=["text", "padded-text", "float32", "bool", "fraction",
                              "int64"])
def test_amounts_are_read_as_float_reads_them(amount):
    spec = _spec(3, [2, 1], horizon=3)
    given = {(1, 2): 0.5, (2, 1): amount, (3, 0): amount}
    floats = {key: float(x) for key, x in given.items()}
    for got, want in zip(DisturbancePlan(given).arrays(),
                         DisturbancePlan(floats).arrays()):
        assert got.tobytes() == want.tobytes()
    # Announced: the hops sum the float, and the plan keeps it.
    runs = []
    for changes in (given, floats):
        plan = DisturbancePlan({(3, 1): 0.25})
        windows = init_shifted_sums(plan, spec)
        messages = apply_plan_updates(windows, plan, changes)
        runs.append((messages, _windows(windows), plan.entries))
    (got_msgs, got_rows, got_entries), (want_msgs, want_rows, want_entries) = runs
    assert repr(got_msgs) == repr(want_msgs)
    assert [row.tobytes() for row in got_rows] == [row.tobytes() for row in want_rows]
    assert got_entries == want_entries
    assert all(type(x) is float for x in got_entries.values())


def test_numpy_integer_keys_read_as_ints():
    spec = _spec(2, [1], horizon=2)
    ints = DisturbancePlan({(1, 0): 1.0, (2, 2): -0.5})
    numpy_ints = DisturbancePlan(
        {(np.int64(1), np.int32(0)): 1.0, (np.int16(2), 2): -0.5}
    )
    for got, want in zip(numpy_ints.arrays(), ints.arrays()):
        assert got.tobytes() == want.tobytes()
    plan = DisturbancePlan()
    windows = init_shifted_sums(plan, spec)
    apply_plan_updates(windows, plan, numpy_ints.entries)
    for got, want in zip(_windows(windows), _windows(init_shifted_sums(ints, spec))):
        assert got.tobytes() == want.tobytes()


ZEROS = st.sampled_from([0.0, -0.0])
AMOUNTS = st.one_of(ZEROS, st.floats(-1e8, 1e8, allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windows_equal_the_definition_bitwise(data):
    # Random sizes and random interleavings of time advances and plan
    # updates, with -0.0 amounts, entries before the current time and
    # zero entries past the horizon bound.
    n = data.draw(st.integers(1, 8), label="n")
    tau = data.draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    spec = _spec(n, tau, horizon=data.draw(st.integers(0, 8), label="H"))

    def draw_entry(now, earliest):
        node = data.draw(st.integers(1, n))
        bound = now + spec.horizon + spec.sigma_total - spec.sigma[node - 1]
        t = data.draw(st.integers(earliest, bound + 3))
        amount = data.draw(AMOUNTS if t <= bound else ZEROS)
        return (node, t), amount

    now = data.draw(st.integers(0, 3), label="now")
    plan = DisturbancePlan(
        dict(draw_entry(now, now - 2) for _ in range(data.draw(st.integers(0, 12))))
    )
    windows = init_shifted_sums(plan, spec, now=now)
    _assert_definition(windows, plan)
    for advance in data.draw(st.lists(st.booleans(), max_size=25), label="ops"):
        if advance:
            advance_time(windows)
        else:
            size = data.draw(st.integers(1, 4))
            changes = dict(draw_entry(windows.now, windows.now) for _ in range(size))
            apply_plan_updates(windows, plan, changes)
        _assert_definition(windows, plan)


def _sent(messages):
    return [(src, dst, time, np.float64(value).tobytes())
            for src, dst, time, value in messages]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_runs_match_the_per_hop_reference(data):
    # Mixed delays; updates that re-announce entries of the plan, carry 0.0
    # or -0.0, land in the last window column W-1 or put a zero past it;
    # and more than W advances in between, so the buffer compacts.
    n = data.draw(st.integers(1, 5), label="n")
    tau = data.draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    spec = _spec(n, tau, horizon=data.draw(st.integers(0, 3), label="H"))
    width = spec.sigma_total + spec.horizon + 1
    plan, ref_plan = DisturbancePlan(), DisturbancePlan()
    windows, ref = init_shifted_sums(plan, spec), init_shifted_sums(ref_plan, spec)

    def changes():
        out = {}
        for _ in range(data.draw(st.integers(1, 4))):
            held = [key for key in plan.entries if key[1] >= windows.now]
            if held and data.draw(st.booleans()):
                node, t = data.draw(st.sampled_from(held))
                col = t - windows.now + spec.sigma[node - 1]
            else:
                node = data.draw(st.integers(1, n))
                lo = spec.sigma[node - 1]
                last = st.just(width - 1)
                col = data.draw(st.one_of(last, st.integers(lo, width + 1)))
                t = windows.now + col - lo
            out[node, t] = data.draw(AMOUNTS if col < width else ZEROS)
        return out

    compacted = False
    for _ in range(width + 1 + data.draw(st.integers(0, width))):
        if data.draw(st.booleans()):
            update = changes()
            got = apply_plan_updates(windows, plan, update)
            assert _sent(got) == _sent(per_hop_plan_updates(ref, ref_plan, update))
            assert windows._buf.tobytes() == ref._buf.tobytes()
        advance_time(windows)
        advance_time(ref)
        compacted |= windows._off == 0
    assert compacted
    assert plan.entries == ref_plan.entries


class TestSlidingWindows:
    """The windows slide along a buffer 2W wide, W = sigma_N + H + 1, and
    move back to its front every W steps (the compaction)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bitwise_across_compactions(self, data):
        # W = 1 (n = 1, H = 0) compacts on every step.
        n = data.draw(st.integers(1, 3), label="n")
        tau = data.draw(st.lists(st.integers(1, 2), min_size=n - 1, max_size=n - 1))
        spec = _spec(n, tau, horizon=data.draw(st.integers(0, 2), label="H"))
        width = spec.sigma_total + spec.horizon + 1

        def changes():
            out = {}
            for _ in range(data.draw(st.integers(1, 3))):
                node = data.draw(st.integers(1, n))
                ahead = spec.horizon + spec.sigma_total - spec.sigma[node - 1]
                t = data.draw(st.integers(windows.now, windows.now + ahead))
                out[(node, t)] = data.draw(AMOUNTS)
            return out

        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        for step in range(1, 2 * width + 2):
            # Updates just before and just after each compaction step, and
            # now and then elsewhere.
            if step % width in (0, 1 % width) or data.draw(st.booleans()):
                apply_plan_updates(windows, plan, changes())
            advance_time(windows)
            for got, want in zip(_windows(windows), _recompute(windows, plan)):
                assert got.tobytes() == want.tobytes()

    def test_lone_negative_zero_reads_positive_zero_across_the_compaction(self):
        spec = _spec(2, [1], horizon=1)  # sigma = [0, 1], W = 3
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        advance_time(windows)
        apply_plan_updates(windows, plan, {(1, 3): -0.0, (2, 2): -0.0})
        zero = np.float64(0.0).tobytes()
        for now in (1, 2, 3, 4):  # the advance to now = 3 compacts
            assert windows.now == now
            assert all(x.tobytes() == zero for w in _windows(windows) for x in w)
            _assert_definition(windows, plan)
            advance_time(windows)

    def test_slice_is_a_view_that_shows_later_updates(self):
        spec = _spec(3, [2, 1], horizon=2)
        plan = DisturbancePlan()
        windows = init_shifted_sums(plan, spec)
        for _ in range(spec.sigma_total + spec.horizon + 1):  # one compaction
            advance_time(windows)
        window = windows.slice(1, 4)
        apply_plan_updates(windows, plan, {(1, windows.now + 2): 0.5})
        assert window.tolist() == [0.0, 0.0, 0.5, 0.0]

    def test_range_errors_unchanged_after_a_compaction(self):
        # sigma = [0, 2]: node 1 holds shifted times now..now+3, node 2
        # holds now+2..now+3.
        spec = _spec(2, [2], horizon=1)
        windows = init_shifted_sums(DisturbancePlan(), spec)
        for _ in range(5):  # W = 4: compacts at the fourth advance
            advance_time(windows)
        assert len(windows.slice(1, 4)) == 4
        with pytest.raises(LedgerRangeError, match="node 1 holds 4 entries, 5 req"):
            windows.slice(1, 5)
        with pytest.raises(LedgerRangeError, match="node 2 holds 2 entries, 3 req"):
            windows.slice(2, 3)
        assert windows.gather(np.array([[3], [3]])).shape == (2, 1)
        with pytest.raises(LedgerRangeError, match="end at column 3, column 4 req"):
            windows.gather(np.array([[0], [4]]))

    def test_certification_runs_cross_the_compaction(self, monkeypatch):
        # certify_instance runs T = sigma_N + H + SETTLING_STEPS > W steps,
        # so the suite's comparison with the oracle covers the compaction.
        from pathlq import simulate
        from pathlq.verify import certify_instance, make_random_instance

        compactions = []

        def advance(windows):
            messages = advance_time(windows)
            compactions.append(windows._off == 0)
            return messages

        monkeypatch.setattr(simulate, "advance_time", advance)
        inst = make_random_instance(np.random.default_rng(3), n_range=(3, 3))
        action_err, cost_err = certify_instance(inst)
        assert any(compactions)
        assert action_err <= 1e-6 and cost_err <= 1e-6
