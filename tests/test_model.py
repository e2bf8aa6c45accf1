"""Valuation constructors, validation, and serialization."""

import enum
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walras import model
from walras.model import (
    ModelError, TruncationBoundsViolated, Violation, add_indicator, dominated,
    instance_from_json, instance_to_json, iter_items, make_additive, make_instance, make_table, make_truncation,
    make_unit_demand, popcount, prices_from_json, prices_to_json,
)

import conftest


def test_popcount_and_iter_items():
    assert popcount(0) == 0
    assert popcount(0b10110) == 3
    assert list(iter_items(0b10110)) == [1, 2, 4]
    assert list(iter_items(0)) == []


def test_unit_demand_table():
    v = make_unit_demand((2, 5, 3))
    assert v.table[0] == 0
    assert v.table[0b010] == 5
    assert v.table[0b011] == 5
    assert v.table[0b111] == 5
    assert v.table[0b101] == 3


def test_additive_table():
    v = make_additive((2, 5, 3))
    assert v.table[0b111] == 10
    assert v.table[0b101] == 5


def lowest_bit_additive(vals):
    """The additive table by the lowest-bit recurrence, one bundle at a time."""
    table = [0] * (1 << len(vals))
    for mask in range(1, 1 << len(vals)):
        low = mask & -mask
        table[mask] = table[mask ^ low] + vals[low.bit_length() - 1]
    return table


def lowest_bit_unit_demand(vals):
    """The unit-demand table by the lowest-bit recurrence."""
    table = [0] * (1 << len(vals))
    for mask in range(1, 1 << len(vals)):
        low = mask & -mask
        table[mask] = max(table[mask ^ low], vals[low.bit_length() - 1])
    return table


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 8), st.integers(2 ** 63, 2 ** 70)),
                min_size=1, max_size=10))
@example([2 ** 63, 2 ** 64 + 1, 3])
def test_singleton_tables_by_doubling(vals):
    m = len(vals)
    add, unit = make_additive(vals), make_unit_demand(vals)
    assert list(add.table) == lowest_bit_additive(vals)
    assert list(unit.table) == lowest_bit_unit_demand(vals)
    for mask in range(1 << m):
        members = [vals[j] for j in iter_items(mask)]
        assert add.table[mask] == sum(members)
        assert unit.table[mask] == max(members, default=0)
    assert add.singletons == unit.singletons == tuple(vals)


def test_item_count_rule_is_shared():
    message = f"item count must be in 1..{model.MAX_ITEMS}, got 0"
    for build in (lambda: make_table(0, [0]), lambda: make_additive(()),
                  lambda: make_unit_demand(()), lambda: make_instance([], []),
                  lambda: instance_from_json('{"items": [], "players": []}')):
        with pytest.raises(ModelError, match=message):
            build()
    with pytest.raises(ModelError, match="got 21"):
        make_unit_demand((1,) * 21)
    with pytest.raises(ModelError, match="item values must be nonnegative"):
        make_additive((1, -1))


def test_make_table_rejects_bad_shape():
    with pytest.raises(ModelError):
        make_table(2, [0, 1, 1])
    with pytest.raises(ModelError):
        make_table(2, [0, 1, 1, "x"])


def test_semantic_violations_reported_not_raised():
    nonzero_empty = make_table(2, [1, 1, 1, 1])
    rep = model.validate(nonzero_empty)
    assert rep is not None and rep.kind == "empty set nonzero"

    # c alone worth 2 but bc worth 1: adding b loses value
    bad = [0, 0, 0, 0, 2, 2, 1, 2]
    assert model.first_monotonicity_violation(bad, 3) is not None
    rep = model.validate(make_table(3, bad))
    assert rep is not None and rep.kind == "not monotone"


def test_is_submodular():
    assert model.is_submodular(make_unit_demand((3, 3)).table, 2)
    assert model.is_submodular(make_additive((1, 2, 3)).table, 3)
    # pure complements: the pair is worth more than the parts combined
    assert not model.is_submodular((0, 0, 0, 2), 2)


def loop_submodular(table, m):
    """is_submodular as one Python test per (bundle, item pair)."""
    for mask in range(1 << m):
        free = [j for j in range(m) if not mask & (1 << j)]
        for a in range(len(free)):
            x = 1 << free[a]
            for b in range(a + 1, len(free)):
                y = 1 << free[b]
                if table[mask | x] + table[mask | y] < table[mask | x | y] + table[mask]:
                    return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_is_submodular_matches_the_pairwise_loop(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    kind = rng.choice(("gs", "ggs2", "mono", "raw"))
    if kind == "gs":
        table = list(conftest.random_gs_valuation(rng, m).table)
    elif kind == "ggs2":
        table = list(conftest.random_ggs2_valuation(rng, m, rng.randint(1, 8)).table)
    elif kind == "mono":
        table = list(conftest.random_monotone_valuation(rng, m).table)
    else:
        table = [rng.randint(-8, 8) for _ in range(1 << m)]
    # a one-entry nudge lands next to the boundary of submodularity
    table[rng.randrange(1 << m)] += rng.choice((-1, 0, 1))
    want = loop_submodular(table, m)
    assert model.is_submodular(table, m) == want
    # past int64 the same test runs on Python integers, and so does a table
    # whose sums of two entries would pass it
    assert model.is_submodular([x << 70 for x in table], m) == want
    assert model.is_submodular([x + 2 ** 62 for x in table], m) == want


# The per-entry loops the array passes replaced, kept as their references.

def loop_first_decrease(table, m):
    """first_monotonicity_violation as one Python test per (mask, item)."""
    for mask in range(1 << m):
        for j in range(m):
            if mask & (1 << j):
                continue
            if table[mask] > table[mask | (1 << j)]:
                return (mask, mask | (1 << j))
    return None


def loop_validate(v, vmax):
    """validate with its range check as one Python test per entry."""
    if v.table[0] != 0:
        return Violation("empty set nonzero", (0,))
    for mask, x in enumerate(v.table):
        if x < 0:
            return Violation("negative value", (mask,))
        if x > vmax:
            return Violation("value above cap", (mask,))
    bad = loop_first_decrease(v.table, v.m)
    return None if bad is None else Violation("not monotone", bad)


def loop_table_entries(table):
    """make_table's type check as one isinstance test per entry."""
    for x in table:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ModelError(f"valuation value must be an integer, got {x!r}")
    return tuple(table)


def loop_truncation(base, k, cap):
    """make_truncation's table, filled one mask at a time and checked by the loops."""
    m = base.m
    table = tuple(base.table[mask] if popcount(mask) < k else cap
                  for mask in range(1 << m))
    bad = loop_first_decrease(table, m)
    if bad is not None:
        raise TruncationBoundsViolated(
            f"truncation is not monotone at masks {bad[0]:#x} < {bad[1]:#x}")
    if not loop_submodular(table, m):
        raise TruncationBoundsViolated("truncation is not submodular")
    return table


# around 2**61, where the array passes switch from int64 to Python integers
OFFSETS = (0, 0, 2 ** 61 - 8, 2 ** 63, 2 ** 70)


def random_table(rng, m):
    """A singleton or random-step table, nudged at a few entries and moved
    up by an offset, so that it breaks the invariants at random places."""
    kind = rng.choice(("unit", "additive", "steps"))
    if kind == "steps":
        table = [0]
        for _ in range(m):
            table += [t + rng.randint(0, 2) for t in table]
    else:
        vals = [rng.randint(0, 8) for _ in range(m)]
        table = list((make_unit_demand if kind == "unit" else make_additive)(vals).table)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        table[rng.randrange(1 << m)] += rng.choice((-2, -1, 1))
    offset = rng.choice(OFFSETS)
    return [x + offset for x in table]


def sizes_on_both_sides(test):
    """Give test (m, seed) for m = 1..10, always including both sides of
    the scan switch (32 | 64 entries) and of the fill switch (512 | 1024)."""
    for m in (5, 6, 9, 10):
        test = example(m, 0)(test)
    return given(st.integers(1, 10), st.integers(0, 2 ** 31 - 1))(test)


@settings(max_examples=150, deadline=None)
@sizes_on_both_sides
def test_monotonicity_scan_matches_the_loop(m, seed):
    rng = random.Random(seed)
    table = random_table(rng, m)
    want = loop_first_decrease(table, m)
    assert model.first_monotonicity_violation(table, m) == want
    assert model.first_monotonicity_violation(tuple(table), m) == want


@settings(max_examples=150, deadline=None)
@sizes_on_both_sides
def test_validate_matches_the_loop(m, seed):
    rng = random.Random(seed)
    table = random_table(rng, m)
    if rng.random() < 0.3:
        table[0] = 0
    vmax = rng.choice((model.DEFAULT_VMAX, max(table) - rng.randint(0, 2), 2 ** 80))
    v = make_table(m, table)
    assert model.validate(v, vmax=vmax) == loop_validate(v, vmax)


class Count(int):
    """An int subclass, which make_table accepts like int."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


BAD_VALUES = (True, False, 1.0, None, "3", np.int64(3))


@settings(max_examples=150, deadline=None)
@sizes_on_both_sides
def test_table_type_check_matches_the_loop(m, seed):
    rng = random.Random(seed)
    table = random_table(rng, m)
    for _ in range(rng.randint(0, 3)):
        table[rng.randrange(1 << m)] = rng.choice((Count(4), Level.HIGH))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        table[rng.randrange(1 << m)] = rng.choice(BAD_VALUES)
    try:
        want = loop_table_entries(table)
    except ModelError as exc:
        with pytest.raises(ModelError) as got:
            make_table(m, table)
        assert str(got.value) == str(exc)
    else:
        assert make_table(m, table).table == want


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_make_table_names_the_first_bad_value(m, bad):
    table = [Count(1)] * (1 << m)
    table[5] = bad
    table[6] = "later"
    with pytest.raises(ModelError) as got:
        make_table(m, table)
    assert str(got.value) == f"valuation value must be an integer, got {bad!r}"


@settings(max_examples=100, deadline=None)
@sizes_on_both_sides
def test_singleton_fills_on_both_sides_of_int64(m, seed):
    # the unit-demand fill runs on int64 while its values stay below 2**61
    # and on Python integers past that
    rng = random.Random(seed)
    top = rng.choice((8, 2 ** 61 // m, 2 ** 61 // m + 1, 2 ** 62, 2 ** 64))
    vals = [rng.randint(0, top) for _ in range(m)]
    assert list(make_additive(vals).table) == lowest_bit_additive(vals)
    assert list(make_unit_demand(vals).table) == lowest_bit_unit_demand(vals)


def test_additive_total_past_int64():
    # every value fits int64, the full bundle's 10 * (2**61 - 1) does not
    vals = [2 ** 61 - 1] * 10
    assert list(make_additive(vals).table) == lowest_bit_additive(vals)


@settings(max_examples=150, deadline=None)
@sizes_on_both_sides
def test_truncation_matches_the_loop(m, seed):
    rng = random.Random(seed)
    vals = [rng.randint(0, 8) for _ in range(m)]
    base = rng.choice((make_unit_demand, make_additive))(vals)
    k = rng.randint(1, m + 1)
    cap = rng.randint(0, base.vmax + 2) + rng.choice((0, 2 ** 70))
    try:
        want = loop_truncation(base, k, cap)
    except TruncationBoundsViolated as exc:
        with pytest.raises(TruncationBoundsViolated) as got:
            make_truncation(base, k, cap)
        assert str(got.value) == str(exc)
    else:
        assert make_truncation(base, k, cap).table == want


@pytest.mark.parametrize("m", [2, 10])
def test_truncation_bounds_messages(m):
    with pytest.raises(TruncationBoundsViolated,
                       match="^truncation is not monotone at masks 0x1 < 0x3$"):
        make_truncation(make_unit_demand((5, 1) + (0,) * (m - 2)), 2, 3)
    with pytest.raises(TruncationBoundsViolated, match="^truncation is not submodular$"):
        make_truncation(make_additive((0,) * m), 2, 2)


def test_instance_vmax_is_read_once():
    inst = make_instance(["x", "y"], [make_table(2, [0, 3, 1, 3]), make_unit_demand((7, 0))])
    assert inst.vmax == 7
    assert inst.__dict__["vmax"] == 7


def test_truncation_basics():
    v = make_truncation(make_unit_demand((2, 2, 4)), 2, 4)
    assert v.table[0b001] == 2
    assert v.table[0b100] == 4
    assert v.table[0b011] == 4
    assert v.table[0b111] == 4


def test_truncation_rejects_complements():
    # singletons worth 0 with a positive cap would make the pair
    # superadditive, which the constructor's submodularity check rejects
    with pytest.raises(ModelError):
        make_truncation(make_additive((0, 0)), 2, 2)


def test_truncation_rejects_cap_below_singleton():
    with pytest.raises(ModelError):
        make_truncation(make_unit_demand((5, 1)), 2, 3)


def test_validate_flags_value_overflow():
    v = make_additive((40, 40))
    assert model.validate(v, vmax=64) is not None


def test_instance_shape():
    inst = make_instance(["x", "y"], [make_unit_demand((1, 2))])
    assert inst.m == 2
    assert inst.n == 1
    assert inst.vmax == 2
    assert inst.zero_prices() == (0, 0)
    assert inst.label_bundle(0b10) == ["y"]


def test_make_instance_rejects_duplicates_and_mismatch():
    with pytest.raises(ModelError):
        make_instance(["x", "x"], [make_unit_demand((1, 2))])
    with pytest.raises(ModelError):
        make_instance(["x"], [make_unit_demand((1, 2))])


def test_prices_helpers():
    p = (1, 2, 3)
    assert add_indicator(p, 0b101) == (2, 2, 4)
    assert add_indicator(p, 0b010, step=3) == (1, 5, 3)
    assert dominated((1, 2), (1, 3))
    assert dominated((1, 2), (1, 2))
    assert not dominated((2, 2), (1, 3))


def test_price_json_round_trip():
    inst = make_instance(["x", "y"], [make_unit_demand((1, 2))])
    p = prices_from_json('{"x": 4, "y": 0}', inst)
    assert p == (4, 0)
    assert prices_to_json(p, inst) == {"x": 4, "y": 0}
    with pytest.raises(ModelError):
        prices_from_json('{"x": 4}', inst)
    with pytest.raises(ModelError):
        prices_from_json('{"x": -1, "y": 0}', inst)
    # two prices plus a unit raise of each must sum inside int64
    top = (2 ** 63 - 1) // 3
    assert prices_from_json({"x": top, "y": top}, inst) == (top, top)
    with pytest.raises(ModelError):
        prices_from_json({"x": top + 1, "y": 0}, inst)


def test_instance_json_round_trip_identity():
    rng = random.Random(5)
    for _ in range(25):
        inst = conftest.random_gs_instance(rng)
        again = instance_from_json(instance_to_json(inst))
        assert again == inst
        assert json.loads(instance_to_json(again)) == json.loads(instance_to_json(inst))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_round_trip_any_generated_instance(seed):
    rng = random.Random(seed)
    kind = rng.choice(("gs", "ggs2", "mono"))
    if kind == "gs":
        inst = conftest.random_gs_instance(rng)
    elif kind == "ggs2":
        inst = conftest.random_ggs2_instance(rng)
    else:
        inst = conftest.random_monotone_instance(rng)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_truncation_spec_recorded():
    v = make_truncation(make_unit_demand((2, 2, 4)), 2, 4)
    assert v.trunc is not None
    assert v.trunc.k == 2
    assert v.trunc.cap == 4
