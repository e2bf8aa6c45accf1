"""Valuation constructors, validation, and serialization."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from walras import model
from walras.model import (
    ModelError, add_indicator, dominated, instance_from_json, instance_to_json,
    iter_items, make_additive, make_instance, make_table, make_truncation,
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
