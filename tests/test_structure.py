"""Structural checkers: GS certification, matroid laws, demand transitions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from walras import demand, model, oracle, structure
from walras.model import make_additive, make_instance, make_table, \
    make_truncation, make_unit_demand

import conftest

seeds = st.integers(0, 2 ** 31 - 1)


def ggs24():
    return make_truncation(make_unit_demand((2, 2, 4)), 2, 4)


def test_grid_certifies_gs_classes():
    assert structure.check_gs_on_grid(make_unit_demand((2, 5, 3))) is None
    assert structure.check_gs_on_grid(make_additive((1, 0, 4))) is None
    assert structure.check_gs_on_grid(
        make_table(3, conftest.assignment_table(3, [[2, 1], [3, 0], [1, 1]]))
    ) is None


def test_grid_witness_on_truncation():
    w = structure.check_gs_on_grid(ggs24())
    assert w is not None
    assert w.bundle == 0b011
    assert w.kept_bundle == 0b010
    assert w.violated_item == 1
    assert structure.gs_witness_holds(ggs24(), w)


def test_reference_price_pair_semantics():
    # doubled coordinates make every half-integer perturbation integral
    doubled = model.Valuation(m=3, table=tuple(2 * x for x in ggs24().table))
    low, high = (0, 2, 4), (4, 2, 4)
    d_low = demand.demand_sets(doubled, low).demand
    d_high = demand.demand_sets(doubled, high).demand
    assert 0b011 in d_low
    assert all(not s >> 1 & 1 for s in d_high), \
        "item b must leave every demand set though its price never moved"


def test_witness_verifier_rejects_fabrication():
    fake = structure.GsWitness(price_low=(0, 0, 0), price_high=(0, 0, 0),
                               bundle=0b001, kept_bundle=0b001,
                               violated_item=0)
    assert not structure.gs_witness_holds(make_unit_demand((1, 1, 1)), fake)


def test_grid_budget_guard():
    with pytest.raises(oracle.BudgetExceeded):
        structure.check_gs_on_grid(make_unit_demand((8,) * 6), budget=100)


def test_single_improvement():
    assert structure.check_single_improvement(make_unit_demand((3, 1)), (0, 0)) is None
    bad = structure.check_single_improvement(ggs24(), (1, 1, 1))
    assert bad is not None
    assert bad.bundle == 0b011


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_single_improvement_holds_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    for v in inst.players:
        assert structure.check_single_improvement(v, p) is None


def test_matroid_checker():
    assert structure.check_matroid_bases((0b001, 0b010, 0b100)) is None
    assert structure.check_matroid_bases((0b011, 0b101, 0b110)) is None

    bad = structure.check_matroid_bases((0b01, 0b10, 0b1100))
    assert bad is not None and bad.kind == "cardinality"

    bad = structure.check_matroid_bases((0b0011, 0b1100))
    assert bad is not None and bad.kind == "exchange"

    with pytest.raises(ValueError):
        structure.check_matroid_bases(())


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_minimal_demand_is_matroid_basis_family_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    for v in inst.players:
        fam = demand.demand_sets(v, p).minimal_demand
        assert structure.check_matroid_bases(fam) is None


def test_transition_anchors():
    rep = structure.classify_transition(make_unit_demand((2, 2, 2)), (0, 1, 1), 0)
    assert rep.kind == "Augmentation"
    assert rep.new_minimal == (1, 2, 4)

    rep = structure.classify_transition(make_unit_demand((2, 2, 2)), (0, 0, 0), 2)
    assert rep.kind == "Restriction"
    assert rep.new_minimal == (1, 2)

    rep = structure.classify_transition(make_additive((1, 2, 1)), (0, 1, 0), 1)
    assert rep.kind == "Deletion"
    assert rep.new_minimal == (5,)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_transitions_always_classified_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    j = rng.randrange(inst.m)
    for v in inst.players:
        rep = structure.classify_transition(v, p, j)
        assert rep.kind in ("Restriction", "Deletion", "Augmentation")
        assert structure.check_matroid_bases(rep.new_minimal) is None


def test_unclassifiable_on_complements():
    # complement pair: demand jumps from {ab} straight to the empty set
    comp = make_table(2, (0, 0, 0, 4))
    with pytest.raises(structure.UnclassifiableTransition):
        structure.classify_transition(comp, (0, 3), 0)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_utility_distance_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    s = conftest.random_bundle(rng, inst.m)
    for v in inst.players:
        rep = structure.check_utility_distance(v, p, s)
        assert rep.ok
        assert rep.gap >= 0


def test_decreasing_marginal():
    inst = make_instance(["a", "b"], [make_additive((2, 3))])
    rep = structure.check_decreasing_marginal(inst, (0, 0), 0, 1)
    assert rep.ok
    assert rep.lhs == rep.rhs == 10
    with pytest.raises(ValueError):
        structure.check_decreasing_marginal(inst, (0, 0), 1, 1)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_decreasing_marginal_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=4)
    if inst.m < 2:
        return
    p = conftest.random_prices(rng, inst, hi=4)
    x, y = rng.sample(range(inst.m), 2)
    assert structure.check_decreasing_marginal(inst, p, x, y).ok


def test_ggs_membership():
    rep = structure.is_ggs_member(ggs24(), 2, 4)
    assert rep.member
    assert rep.reason == "completion found"
    assert rep.completion == (0, 2, 2, 4, 4, 4, 6, 6)

    const = structure.is_ggs_member(make_table(2, (0, 3, 3, 3)), 1, 3)
    assert const.member

    comp = structure.is_ggs_member(make_table(2, (0, 0, 0, 2)), 2, 2)
    assert not comp.member
    assert comp.reason == "no substitutes completion found"

    off_cap = structure.is_ggs_member(make_table(2, (0, 1, 1, 5)), 2, 4)
    assert not off_cap.member
    assert off_cap.reason == "large bundle off the cap"

    tall = structure.is_ggs_member(make_table(2, (0, 5, 1, 4)), 2, 4)
    assert not tall.member
    assert tall.reason == "small bundle above the cap"


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_generated_truncations_are_members(seed):
    rng = random.Random(seed)
    v = conftest.random_ggs2_valuation(rng, rng.randint(2, 3), rng.randint(1, 5))
    cap = v.table[-1]
    assert structure.is_ggs_member(v, 2, cap).member
