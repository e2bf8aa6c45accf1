"""Structural checkers: GS certification, matroid laws, demand transitions."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walras import demand, ggs2, model, oracle, structure
from walras.model import add_indicator, make_additive, make_instance, make_table, \
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


def c_order_gs_witness(v):
    """check_gs_on_grid as it scanned before the grid became m-dimensional:
    a flat grid with the last item moving fastest, so the unit step to item
    j is a stride of radix**(m-1-j) rows, and (row, j, bundle) the order."""
    m = v.m
    doubled = np.asarray(v.table, dtype=np.int64) * 2
    bound = 2 * v.vmax + 1
    radix = bound + 1
    bits = demand._masks(m)[:, None] >> np.arange(m) & 1
    grid = np.array(list(itertools.product(range(radix), repeat=m)),
                    dtype=np.int64)
    util = doubled[None, :] - grid @ bits.T
    demanded = util == util.max(axis=1)[:, None]
    reach = demanded.copy()
    cols = np.arange(1 << m)
    for j in range(m):
        reach |= reach[:, cols | (1 << j)]
    best = None
    for j in range(m):
        stride = radix ** (m - 1 - j)
        rows = np.nonzero(grid[:, j] < bound)[0]
        viol = demanded[rows] & ~reach[rows + stride][:, cols & ~(1 << j)]
        hit_rows = np.nonzero(viol.any(axis=1))[0]
        if hit_rows.size:
            r = int(hit_rows[0])
            cand = (int(rows[r]), j, int(np.nonzero(viol[r])[0][0]))
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    k, j, s = best
    p = tuple(int(x) for x in grid[k])
    kept = s & ~(1 << j)
    union_high = 0
    for t in np.nonzero(demanded[k + radix ** (m - 1 - j)])[0]:
        union_high |= int(t)
    excluded = kept & ~union_high
    return structure.GsWitness(
        price_low=p, price_high=model.add_indicator(p, 1 << j), bundle=s,
        kept_bundle=kept,
        violated_item=min(model.iter_items(excluded)) if excluded else None)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_grid_witness_matches_the_c_order_scan(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    kind = rng.choice(("gs", "mono", "ggs2"))
    if kind == "gs":
        v = conftest.random_gs_valuation(rng, m)
    elif kind == "mono":
        v = conftest.random_monotone_valuation(rng, m)
    else:
        v = conftest.random_ggs2_valuation(rng, max(m, 2), rng.randint(1, 8))
    assert structure.check_gs_on_grid(v) == c_order_gs_witness(v)


def test_witness_verifier_rejects_fabrication():
    fake = structure.GsWitness(price_low=(0, 0, 0), price_high=(0, 0, 0),
                               bundle=0b001, kept_bundle=0b001,
                               violated_item=0)
    assert not structure.gs_witness_holds(make_unit_demand((1, 1, 1)), fake)


@pytest.mark.parametrize("forged", [
    {"bundle": 0b010},                  # not demanded at price_low
    {"price_high": (1, 0, 1)},          # price_high does not dominate price_low
    {"kept_bundle": 0b011},             # keeps an item whose price moved
    {"kept_bundle": 0},                 # some bundle at price_high holds it all
    {"violated_item": 0},               # not a kept item
])
def test_witness_verifier_rejects_each_forged_field(forged):
    v = ggs2.demo_not_gs_valuation()
    witness = structure.check_gs_on_grid(v)
    assert structure.gs_witness_holds(v, witness)
    assert not structure.gs_witness_holds(v, dataclasses.replace(witness, **forged))


def test_grid_budget_guard(monkeypatch):
    monkeypatch.setenv("WALRAS_BUDGET", "100")
    with pytest.raises(oracle.BudgetExceeded,
                       match=f"grid scan holds {18 ** 6 << 6} entries, budget 100"):
        structure.check_gs_on_grid(make_unit_demand((8,) * 6))


def test_grid_budget_counts_the_utilities_it_holds(monkeypatch):
    # 4**9 doubled-price points times 9 items fit the default grid budget,
    # but the scan would hold 4**9 * 2**9 int64 utilities, about 1.1 GB
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    with pytest.raises(oracle.BudgetExceeded,
                       match=f"grid scan holds {4 ** 9 << 9} entries, "
                             f"budget {model.DEFAULT_GRID_BUDGET}"):
        structure.check_gs_on_grid(make_unit_demand((1,) * 9))


def test_grid_budget_is_checked_before_the_table_is_doubled():
    # the table used to convert to int64 first, which overflows at 2**63
    with pytest.raises(oracle.BudgetExceeded, match="grid scan holds"):
        structure.check_gs_on_grid(make_unit_demand((2 ** 63, 1)))


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
    # both unit raises are rejected, from one scan at (0, 3)
    raised = [demand._bundle_prices(2, add_indicator((0, 3), 1 << j)) for j in (0, 1)]
    assert structure.transition_misses(comp, raised, demand.demand_sets(comp, (0, 3))) == [
        (j, f"transition on item {j} fits no case: (3,) -> (0,)") for j in (0, 1)]


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


def utility_distance_over_demand(v, prices, bundle):
    """The reference scan over the whole demand family D(p)."""
    report = demand.demand_sets(v, prices)
    gap = report.utility - demand.utility(v, prices, bundle)
    best = None
    for d in report.demand:
        extra = d & ~bundle
        if best is None or model.popcount(extra) < model.popcount(best[1]):
            best = (d, extra)
    if best is not None and model.popcount(best[1]) <= gap:
        return structure.UtilityDistanceReport(gap, best[0], True)
    return structure.UtilityDistanceReport(gap, None, False)


def mixed_instance(rng):
    """Gross-substitutes, pair-cap or merely monotone, at random."""
    kind = rng.randrange(3)
    if kind == 0:
        return conftest.random_gs_instance(rng, max_m=4)
    if kind == 1:
        return conftest.random_ggs2_instance(rng, max_m=4)
    return conftest.random_monotone_instance(rng, max_m=4)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_utility_distance_scans_minimal_demand_as_the_full_family(seed):
    rng = random.Random(seed)
    inst = mixed_instance(rng)
    p = conftest.random_prices(rng, inst)
    for v in inst.players:
        for s in range(1 << inst.m):
            assert structure.check_utility_distance(v, p, s) == \
                utility_distance_over_demand(v, p, s)


def test_decreasing_marginal():
    inst = make_instance(["a", "b"], [make_additive((2, 3))])
    rep = structure.decreasing_marginal_reports(inst, (0, 0))[0, 1]
    assert rep.ok
    assert rep.lhs == rep.rhs == 10


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_decreasing_marginal_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=4)
    if inst.m < 2:
        return
    p = conftest.random_prices(rng, inst, hi=4)
    x, y = sorted(rng.sample(range(inst.m), 2))
    assert structure.decreasing_marginal_reports(inst, p)[x, y].ok


def decreasing_marginal_by_views(inst, prices, x, y):
    """The reference: four Lyapunov values, one market view each."""
    bx, by = 1 << x, 1 << y
    lhs = (demand.lyapunov(inst, add_indicator(prices, bx))
           + demand.lyapunov(inst, add_indicator(prices, by)))
    rhs = (demand.lyapunov(inst, add_indicator(prices, bx | by))
           + demand.lyapunov(inst, prices))
    return structure.MarginalReport(lhs=lhs, rhs=rhs, ok=lhs >= rhs)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_decreasing_marginal_matches_four_lyapunov_values(seed):
    rng = random.Random(seed)
    inst = mixed_instance(rng)
    if inst.m < 2:
        return
    p = conftest.random_prices(rng, inst)
    reports = structure.decreasing_marginal_reports(inst, p)
    assert list(reports) == list(itertools.combinations(range(inst.m), 2))
    for (x, y), rep in reports.items():
        assert rep == decreasing_marginal_by_views(inst, p, x, y)


@pytest.mark.parametrize("bundle", [-1, 4, 7])
def test_utility_distance_rejects_a_bundle_outside_the_market(bundle):
    v = make_unit_demand((3, 1))
    with pytest.raises(ValueError, match=rf"bundle must be in 0\.\.3 for m = 2, got {bundle}"):
        structure.check_utility_distance(v, (1, 0), bundle)
    assert structure.check_utility_distance(v, (1, 0), 3).ok


@pytest.mark.parametrize("item", [-1, 3])
def test_classify_transition_rejects_an_item_outside_the_market(monkeypatch, item):
    # -1 used to fail inside the shift as "negative shift count"
    monkeypatch.setattr(demand, "demand_sets", None)
    with pytest.raises(ValueError, match=rf"item must be in 0\.\.2 for m = 3, got {item}"):
        structure.classify_transition(make_unit_demand((2, 2, 2)), (0, 0, 0), item)
