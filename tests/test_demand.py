"""Demand families, excess demand, and the Lyapunov potential.

Every vectorized quantity is cross-checked against a from-the-definition
computation on small random instances.
"""

import dataclasses
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walras import auctions, demand, model, oracle, structure
from walras.model import add_indicator, make_instance, make_unit_demand, popcount

import conftest

seeds = st.integers(0, 2 ** 31 - 1)


def two_buyers_one_item():
    return make_instance(["x"], [make_unit_demand((5,)), make_unit_demand((5,))])


def test_utility_and_demand_basics():
    v = make_unit_demand((2, 5, 3))
    assert demand.utility(v, (1, 1, 1), 0b010) == 4
    rep = demand.demand_sets(v, (1, 1, 1))
    assert rep.utility == 4
    assert rep.demand == (0b010,)
    assert rep.minimal_demand == (0b010,)

    rep0 = demand.demand_sets(v, (0, 0, 0))
    assert rep0.utility == 5
    assert set(rep0.demand) == {s for s in range(8) if s & 0b010}
    assert rep0.minimal_demand == (0b010,)


def test_demand_contains_empty_set_when_priced_out():
    v = make_unit_demand((2,))
    rep = demand.demand_sets(v, (2,))
    assert rep.utility == 0
    assert 0 in rep.demand
    assert rep.minimal_demand == (0,)


def test_price_vector_of_the_wrong_length_is_rejected():
    inst = make_instance(["x", "y"], [make_unit_demand((2, 3))])
    v = inst.players[0]
    message = "price vector has 1 entries, instance has 2"
    for query in (
            lambda p: demand.lyapunov(inst, p),
            lambda p: demand.demand_sets(v, p),
            # the table passes, which price bundles without a view
            lambda p: demand.demand_families(inst, p),
            lambda p: demand.utilities_after_raise(inst.players, p),
            lambda p: demand.lyapunov_after_raise(inst, p),
            lambda p: demand.minimal_minimizer_report(inst, p),
            # {y} and {x, y} both meet y once, so the count reads the tables
            lambda p: demand.stable_raises(inst, p, 0b10, (3,), ((0b10, 0b11),)),
            lambda p: structure.decreasing_marginal_reports(inst, p)):
        with pytest.raises(ValueError, match=message):
            query((1,))
        query((0, 0))
        # again with a view of the right length memoized for the same owner
        with pytest.raises(ValueError, match=message):
            query((1,))


def test_min_demand_overlap_definition():
    rng = random.Random(7)
    for _ in range(40):
        inst = conftest.random_gs_instance(rng, max_m=4)
        p = conftest.random_prices(rng, inst)
        s = conftest.random_bundle(rng, inst.m)
        for v in inst.players:
            dstar = demand.demand_sets(v, p).minimal_demand
            expect = min(popcount(d & s) for d in dstar)
            assert demand.min_demand_overlap(v, p, s) == expect


def test_excess_demand_definition():
    inst = two_buyers_one_item()
    assert demand.excess_demand(inst, (0,), 0b1) == 1
    assert demand.excess_demand(inst, (5,), 0b1) == -1


def brute_obstacle(inst, p):
    best, argmins = 0, []
    for s in range(1, 1 << inst.m):
        val = demand.excess_demand(inst, p, s)
        if val > best:
            best, argmins = val, [s]
        elif val == best and best > 0:
            argmins.append(s)
    minimal = [s for s in argmins
               if not any(t != s and t & s == t for t in argmins)]
    return best, minimal


def test_over_demanded_set_matches_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        inst = conftest.random_gs_instance(rng, max_m=4)
        p = conftest.random_prices(rng, inst, hi=3)
        ob = demand.over_demanded_set(inst, p)
        best, minimal = brute_obstacle(inst, p)
        if best <= 0:
            assert ob.bundle == 0
            assert ob.excess <= 0
        else:
            assert ob.excess == best
            assert ob.bundle in minimal
            assert ob.unique == (len(minimal) == 1)


def test_obstacle_anchor():
    ob = demand.over_demanded_set(two_buyers_one_item(), (0,))
    assert ob.bundle == 0b1
    assert ob.excess == 1
    assert ob.per_player == (1, 1)
    assert ob.unique


def one_buyer_of_x():
    """At price 2 only player 0 demands x, so no set is over-demanded."""
    return make_instance(["x"], [make_unit_demand((4,)), make_unit_demand((1,))]), (2,)


def test_obstacle_rejects_players_outside_the_market():
    # -1 would read player 1 from the end, -3 and 2 past either end
    inst, p = one_buyer_of_x()
    assert demand.over_demanded_set(inst, p).excess == 0
    for players in ((-1,), (-3,), (2,), (0, 2)):
        with pytest.raises(ValueError, match=r"0\.\.1 for n = 2"):
            demand.over_demanded_set(inst, p, players=players)


def test_obstacle_rejects_a_repeated_player():
    # counting player 0 twice would over-demand x with excess 1
    inst, p = one_buyer_of_x()
    with pytest.raises(ValueError, match=r"distinct and in 0\.\.1 for n = 2"):
        demand.over_demanded_set(inst, p, players=(0, 0))
    assert demand.over_demanded_set(inst, p, players=(1, 0)) == \
        demand.over_demanded_set(inst, p)


def test_lyapunov_values():
    inst = two_buyers_one_item()
    assert demand.lyapunov(inst, (0,)) == 10
    assert demand.lyapunov(inst, (5,)) == 5
    assert demand.lyapunov(inst, (7,)) == 7


def test_minimal_minimizer_matches_brute_force():
    rng = random.Random(29)
    for _ in range(60):
        inst = conftest.random_gs_instance(rng, max_m=4)
        p = conftest.random_prices(rng, inst, hi=4)
        rep = demand.minimal_minimizer_report(inst, p)
        vals = {s: demand.lyapunov(inst, add_indicator(p, s))
                for s in range(1 << inst.m)}
        best = min(vals.values())
        winners = [s for s, val in vals.items() if val == best]
        minimal = [s for s in winners
                   if not any(t != s and t & s == t for t in winners)]
        assert rep.lyapunov_after == best
        assert rep.bundle in minimal
        assert rep.unique == (len(minimal) == 1)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_overlap_monotone_in_bundle(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    small = conftest.random_bundle(rng, inst.m)
    extra = conftest.random_bundle(rng, inst.m)
    big = small | extra
    for v in inst.players:
        assert demand.min_demand_overlap(v, p, small) <= \
            demand.min_demand_overlap(v, p, big)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_lyapunov_submodular_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    q = conftest.random_prices(rng, inst)
    join = tuple(max(a, b) for a, b in zip(p, q))
    meet = tuple(min(a, b) for a, b in zip(p, q))
    assert demand.lyapunov(inst, join) + demand.lyapunov(inst, meet) <= \
        demand.lyapunov(inst, p) + demand.lyapunov(inst, q)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_lyapunov_step_equals_negated_excess_on_gs(seed):
    rng = random.Random(seed)
    inst = conftest.random_gs_instance(rng, max_m=5)
    p = conftest.random_prices(rng, inst)
    s = conftest.random_bundle(rng, inst.m)
    assert demand.lyapunov(inst, add_indicator(p, s)) == \
        demand.lyapunov(inst, p) - demand.excess_demand(inst, p, s)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_positive_excess_blocks_envy_free(seed):
    rng = random.Random(seed)
    kind = rng.choice(("gs", "ggs2", "mono"))
    if kind == "gs":
        inst = conftest.random_gs_instance(rng, max_m=4)
    elif kind == "ggs2":
        inst = conftest.random_ggs2_instance(rng, max_m=4)
    else:
        inst = conftest.random_monotone_instance(rng, max_m=4)
    p = conftest.random_prices(rng, inst, hi=3)
    ob = demand.over_demanded_set(inst, p)
    if ob.excess > 0:
        assert oracle.envy_free_exists(inst, p) is None


def table_minimizer(inst, p):
    """minimal_minimizer_report from the 4**m table of |S & T|."""
    masks = range(1 << inst.m)
    pc = np.array([popcount(s) for s in masks])
    inter = np.array([[popcount(s & t) for t in masks] for s in masks])
    pcost = np.array([model.price_of(p, s) for s in masks])
    after = pc + sum(p)
    for v in inst.players:
        after = after + (v.np_table - pcost - inter).max(axis=1)
    low = int(after.min())
    cands = [s for s in masks if after[s] == low]
    size = min(popcount(s) for s in cands)
    smallest = [s for s in cands if popcount(s) == size]
    return demand.MinimizerReport(min(smallest, key=model.lex_key), low,
                                  len(smallest) == 1)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_sweeps_match_brute_force_references(seed):
    rng = random.Random(seed)
    kind = rng.choice(("gs", "ggs2", "mono", "raw"))
    if kind == "gs":
        inst = conftest.random_gs_instance(rng, max_m=5)
    elif kind == "ggs2":
        inst = conftest.random_ggs2_instance(rng, max_m=5)
    elif kind == "mono":
        inst = conftest.random_monotone_instance(rng, max_m=5)
    else:
        # not monotone: a bundle may be worth less than its subsets
        m = rng.randint(1, 4)
        inst = make_instance(list("abcd"[:m]), [
            model.make_table(m, [0] + [rng.randint(0, conftest.VMAX)
                                       for _ in range(1, 1 << m)])
            for _ in range(rng.randint(1, 3))])
    p = conftest.random_prices(rng, inst, hi=rng.randint(1, inst.vmax + 1))
    assert demand.minimal_minimizer_report(inst, p) == table_minimizer(inst, p)


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_utilities_after_raise_match_the_shifted_views(seed):
    rng = random.Random(seed)
    inst = conftest.random_monotone_instance(rng, max_m=4)
    p = conftest.random_prices(rng, inst)
    after = demand.utilities_after_raise(inst.players, p)
    assert after.shape == (inst.n, 1 << inst.m)
    for i, v in enumerate(inst.players):
        for s in range(1 << inst.m):
            assert after[i, s] == demand.demand_sets(v, add_indicator(p, s)).utility


def test_sweep_holds_no_array_larger_than_its_input_or_output():
    # one item with 61 options and eleven with one: swept in item order,
    # the first pass alone would hold 2**11 x 61 entries
    util = np.zeros((1, 1 << 12), dtype=np.int64)
    options = [range(0, -61, -1)] + [(0,)] * 11
    tracemalloc.start()
    try:
        out = demand._raise_sweep(util, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tolist() == [[0] * 61]
    assert peak < 3 * util.nbytes


def rebuilt(inst):
    """An instance equal to inst that shares no object with it."""
    return make_instance(list(inst.items),
                         [model.make_table(v.m, list(v.table)) for v in inst.players])


def answers(inst, p):
    return (demand.demand_reports(inst, p), demand.over_demanded_set(inst, p),
            demand.lyapunov(inst, p), demand.minimal_minimizer_report(inst, p),
            [demand.excess_demand(inst, p, s) for s in range(1 << inst.m)])


def test_memo_keeps_markets_apart():
    a = make_instance(["x", "y"], [make_unit_demand((4, 1)),
                                   make_unit_demand((1, 4))])
    b = make_instance(["x", "y"], [model.make_additive((3, 3)),
                                   make_unit_demand((2, 5))])
    v = a.players[1]
    alone = make_instance(["x", "y"], [model.make_table(v.m, list(v.table))])
    grid = [(x, y) for x in range(5) for y in range(5)]
    assert any(answers(rebuilt(a), p) != answers(rebuilt(b), p) for p in grid)
    for p in grid:
        # the same prices on two markets and on a valuation of the first,
        # interleaved so each query follows one on another owner
        for _ in range(2):
            assert answers(a, p) == answers(rebuilt(a), p)
            assert answers(b, p) == answers(rebuilt(b), p)
            own = demand.demand_reports(alone, p)[0]
            assert demand.demand_sets(v, p) == own
            for s in range(4):
                assert demand.min_demand_overlap(v, p, s) == \
                    demand.excess_demand(alone, p, s) + popcount(s)


def test_single_valuation_queries_leave_the_instance_memo_alone():
    inst = make_instance(["x", "y", "z"], [make_unit_demand((4, 1, 3)),
                                           model.make_additive((2, 2, 1))])
    p = (1, 0, 2)
    demand.lyapunov(inst, p)
    memo = demand._memo
    for v in inst.players:
        demand.demand_sets(v, p)
        for s in range(1 << inst.m):
            demand.min_demand_overlap(v, p, s)
    assert demand._memo is memo
    assert memo.owner is inst and list(memo.views) == [p]


def test_table_passes_leave_the_memo_alone():
    inst = make_instance(["x", "y", "z"], [make_unit_demand((4, 1, 3)),
                                           model.make_additive((2, 2, 1))])
    p = (1, 0, 2)
    demand.lyapunov(inst, p)
    memo = demand._memo
    # both players' demanded bundles all hold x, so stable_raises reads
    # the utilities of every bundle
    assert demand.stable_raises(inst, p, 1, *demand.held_demand(inst, p)) == 1
    demand.demand_families(inst, p)
    demand.utilities_after_raise(inst.players, p)
    demand.lyapunov_after_raise(inst, p)
    assert demand._memo is memo


def shared_entries(m):
    """What the memo's overlap rows count against MEMO_ENTRIES."""
    return len(demand._memo.rows) * demand._row_entries(m)


def test_memo_holds_at_most_its_bound(monkeypatch):
    inst = make_instance(["x", "y"], [make_unit_demand((20, 30)),
                                      model.make_additive((15, 25))])
    size = (inst.n + 2) << inst.m       # int64 entries in one view
    monkeypatch.setattr(demand, "MEMO_ENTRIES", 100 * size)
    grid = [(x, y) for x in range(34) for y in range(34)]
    first = []
    for p in grid:
        first.append(answers(inst, p))
        assert demand._memo.owner is inst
        assert len(demand._memo.views) * size + shared_entries(inst.m) <= demand.MEMO_ENTRIES
    # once full, the memo keeps its first views and the one added last,
    # beside the overlap rows, which views make room for
    other = shared_entries(inst.m)
    assert other > 0
    kept = (demand.MEMO_ENTRIES - other) // size
    assert list(demand._memo.views) == grid[:kept - 1] + grid[-1:]
    assert [answers(inst, p) for p in grid] == first
    assert all(answers(rebuilt(inst), p) == got
               for p, got in zip(grid[::97], first[::97]))
    # a view larger than the cap is still held until the next one
    monkeypatch.setattr(demand, "MEMO_ENTRIES", 1)
    for p in grid[:3]:
        assert answers(inst, p) == first[grid.index(p)]
        assert list(demand._memo.views) == [p]


def three_players_who_demand_x():
    # at zero prices every player's minimal demand family is {x}; the third
    # values {x, y} one less than {x}
    return make_instance(["x", "y"], [make_unit_demand((4, 1)),
                                      make_unit_demand((5, 2)),
                                      model.make_table(2, [0, 5, 0, 4])])


def test_views_share_the_overlap_row_of_a_minimal_demand_family(monkeypatch):
    # every player's demand meets x, so raising x rescans every row
    inst = three_players_who_demand_x()
    demand._memo = demand._Memo()
    first = demand._market(inst, (0, 0))
    assert first.minimal == ((1,),) * 3
    assert first.overlap[0] is first.overlap[1] is first.overlap[2]
    assert first.overlap[0] is demand._memo.rows[(1,)]
    scanned = []
    real_row = demand._row
    monkeypatch.setattr(demand, "_row", lambda v, *a: scanned.append(v) or real_row(v, *a))
    second = demand._market(inst, (1, 0))
    assert scanned == list(inst.players)
    # the rescanned rows have the same minimal family, so they are the same
    # object, and the excess is the base's
    assert second.minimal == first.minimal
    assert all(row is first.overlap[0] for row in second.overlap)
    assert second.excess is first.excess


def test_a_view_with_no_room_for_rows_keeps_the_base_overlap_rows(monkeypatch):
    # one view and no room for a row, as at m = 18: a rescanned row whose
    # minimal family is the base's keeps the base's overlap row itself
    inst = three_players_who_demand_x()
    monkeypatch.setattr(demand, "MEMO_ENTRIES", (inst.n + 2) << inst.m)
    demand._memo = demand._Memo()
    first = demand._market(inst, (0, 0))
    assert not demand._memo.rows
    second = demand._market(inst, (1, 0))
    assert second.minimal == first.minimal
    assert all(a is b for a, b in zip(second.overlap, first.overlap))
    assert second.excess is first.excess


def test_memo_drops_rows_with_its_market():
    a = make_instance(["x", "y"], [make_unit_demand((4, 1)), make_unit_demand((1, 4))])
    b = make_instance(["x", "y"], [make_unit_demand((3, 3)), make_unit_demand((2, 5))])
    demand._memo = demand._Memo()
    assert demand.lyapunov(a, (0, 0)) == 8
    assert demand.demand_families(a, (0, 0)) == ((1, 3), (2, 3))
    rows = demand._memo.rows
    assert rows
    assert demand.lyapunov(b, (0, 0)) == 8
    assert demand._memo.owner is b
    assert not any(row is old for row in demand._memo.rows.values()
                   for old in rows.values())


def test_full_memo_adds_no_rows_and_answers_the_same(monkeypatch):
    rng = random.Random(4)
    inst = market_of(rng, "monotone", 4, 3)
    grid = [(x, y, x, y) for x in range(6) for y in range(6)]
    expected = [answers(rebuilt(inst), p) for p in grid]
    size = (inst.n + 2) << inst.m
    # room for one view and three rows
    cap = size + 3 * demand._row_entries(inst.m)
    monkeypatch.setattr(demand, "MEMO_ENTRIES", cap)
    demand._memo = demand._Memo()
    families = set()
    for p, want in zip(grid, expected):
        assert answers(inst, p) == want
        families.update(demand._market(inst, p).minimal)
        assert len(demand._memo.rows) <= 3
        assert len(demand._memo.views) * size + shared_entries(inst.m) <= cap
    # the first three families met fill the rows, and no later one is added
    assert len(demand._memo.rows) == 3 < len(families)


def test_full_memo_holds_no_more_bytes_than_its_count(monkeypatch):
    # a ladder-style market: unit-demand and two-slot OXS players, m = 10;
    # fine visits more prices than the memo holds, so it fills to the cap
    rng = random.Random(10)
    m = 10
    players = [
        make_unit_demand([rng.randint(0, 64) for _ in range(m)]) if i % 2 == 0
        else model.make_table(m, conftest.assignment_table(
            m, [[rng.randint(0, 32), rng.randint(0, 32)] for _ in range(m)]))
        for i in range(m + 3)]
    inst = make_instance([f"i{j}" for j in range(m)], players)
    monkeypatch.setattr(demand, "_memo", demand._Memo())
    tracemalloc.start()
    try:
        auctions.fine_auction(inst)
        views, other = len(demand._memo.views), shared_entries(m)
        with_memo = tracemalloc.get_traced_memory()[0]
        demand._memo = demand._Memo()
        held = with_memo - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (views + 1) * ((inst.n + 2) << m) + other > demand.MEMO_ENTRIES
    assert held <= 8 * demand.MEMO_ENTRIES
    # n uint8 overlap rows and one int64 excess per view, some shared,
    # against the (n + 2) int64 rows the count assumes
    assert held <= 2 * demand.MEMO_ENTRIES


def test_memo_is_safe_across_threads():
    # three threads per market, so a thread can find its own market's
    # owner in the memo while another thread swaps the views
    rng = random.Random(5)
    markets = [make_instance(["x", "y", "z"],
                             [conftest.random_gs_valuation(rng, 3) for _ in range(3)])
               for _ in range(2)]
    grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]

    def per_price(inst, p):
        # stable_raises and demand_families read the value tables
        held = demand.held_demand(inst, p)
        return (answers(inst, p), demand.demand_families(inst, p),
                [demand.stable_raises(inst, p, s, *held) for s in range(1, 8)])

    expected = [[per_price(rebuilt(inst), p) for p in grid] for inst in markets]
    assert expected[0] != expected[1]
    wrong = []

    def work(i):
        try:
            for _ in range(20):
                for p, want in zip(grid, expected[i]):
                    if per_price(markets[i], p) != want:
                        wrong.append((i, p))
        except Exception as exc:     # a foreign view can fail to index
            wrong.append((i, repr(exc)))

    threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_single_valuation_matches_one_player_instance(seed):
    rng = random.Random(seed)
    inst = conftest.random_monotone_instance(rng, max_m=4)
    p = conftest.random_prices(rng, inst)
    reports = demand.demand_reports(inst, p)
    for i, v in enumerate(inst.players):
        one = make_instance(list(inst.items), [v])
        own = demand.demand_reports(one, p)[0]
        assert own == dataclasses.replace(reports[i], player=0)
        assert demand.demand_sets(v, p) == own
        for s in range(1 << inst.m):
            assert demand.min_demand_overlap(v, p, s) == \
                demand.excess_demand(one, p, s) + popcount(s)


KINDS = ("gs", "paircap", "monotone", "nonmonotone")


def market_of(rng, kind, m, n):
    if kind == "gs":
        players = [conftest.random_gs_valuation(rng, m) for _ in range(n)]
    elif kind == "paircap":
        cap = rng.randint(1, conftest.VMAX)
        players = [conftest.random_ggs2_valuation(rng, m, cap) for _ in range(n)]
    elif kind == "monotone":
        players = [conftest.random_monotone_valuation(rng, m) for _ in range(n)]
    else:
        players = [model.make_table(m, [rng.randint(-4, conftest.VMAX)
                                        for _ in range(1 << m)]) for _ in range(n)]
    return make_instance([f"i{j}" for j in range(m)], players)


def demand_families_by_row(instance, prices):
    """demand.demand_families one player row at a time, kept as the
    reference for its one-pass split."""
    util = demand._utilities(instance.players, prices)
    hit = util == util.max(axis=1, keepdims=True)
    return tuple(tuple(int(s) for s in np.flatnonzero(row)) for row in hit)


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from(("gs", "paircap", "monotone")),
       st.sampled_from(("small", "past 2**61", "object")))
def test_demand_families_match_the_per_row_reference(seed, kind, values):
    rng = random.Random(seed)
    inst = market_of(rng, kind, rng.randint(1, 6), rng.randint(1, 5))
    p = conftest.random_prices(rng, inst)
    if values != "small":
        # the first player values every nonempty bundle 2**62 more
        big = model.make_table(inst.m, [x + (1 << 62 if s else 0)
                                        for s, x in enumerate(inst.players[0].table)])
        inst = make_instance(list(inst.items), [big, *inst.players[1:]])
    with pytest.MonkeyPatch.context() as mp:
        if values == "object":
            # a utility matrix of Python integers, whatever the tables hold
            real = demand._utilities
            mp.setattr(demand, "_utilities", lambda *a: real(*a).astype(object))
        got = demand.demand_families(inst, p)
        assert got == demand_families_by_row(inst, p)
    assert all(type(s) is int for family in got for s in family)


def fields(view):
    return (view.utility, view.demand, view.minimal, view.reach,
            np.stack(view.overlap).tolist(), view.excess.tolist())


def fresh_view(inst, prices):
    demand._memo = demand._Memo()
    return demand._market(inst, prices)


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(KINDS),
       st.sampled_from(("one", "several", "zero-priced", "none", "fall", "owner")))
def test_view_built_from_a_lower_one_matches_a_fresh_build(seed, kind, move):
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(1, 4)
    inst = market_of(rng, kind, m, n)
    p = list(conftest.random_prices(rng, inst, hi=conftest.VMAX + 1))
    d = [0] * m
    items = rng.sample(range(m), rng.randint(1, m))
    if move == "one":
        d[items[0]] = rng.randint(1, 3)
    elif move in ("several", "owner"):
        for j in items:
            d[j] = rng.randint(1, 3)
    elif move == "zero-priced":
        for j in items:
            p[j], d[j] = 0, rng.randint(1, 2)
    elif move == "fall":
        # some price falls, so q is not at or above p
        for j in range(m):
            d[j] = rng.randint(-min(2, p[j]), 2)
        d[items[0]] = -rng.randint(1, 2)
        p[items[0]] += 2
    q = tuple(a + b for a, b in zip(p, d))
    want = fields(fresh_view(inst, q))
    if move == "owner":
        # the view returned last is another market's, at prices below q
        base = fresh_view(market_of(rng, kind, m, n), p)
    else:
        base = fresh_view(inst, p)
    got = demand._market(inst, q)
    assert fields(got) == want
    assert (got is base) == (move == "none")
    assert demand._memo.owner is inst and demand._memo.view is got


def check_chain(inst, chain):
    """Walk the rising prices of chain, each view built from the one before,
    against fresh builds."""
    want = [fields(fresh_view(inst, q)) for q in chain]
    demand._memo = demand._Memo()
    for q, expect in zip(chain, want):
        assert fields(demand._market(inst, q)) == expect


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(KINDS))
def test_a_chain_of_rises_matches_fresh_builds(seed, kind):
    # each view after the first is built from the one before, so it keeps
    # the rows and overlap rows the raise leaves alone
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(1, 4)
    inst = market_of(rng, kind, m, n)
    p = list(conftest.random_prices(rng, inst, hi=conftest.VMAX + 1))
    chain = [tuple(p)]
    for _ in range(rng.randint(2, 6)):
        for j in rng.sample(range(m), rng.randint(1, m)):
            p[j] += rng.randint(1, 3)
        chain.append(tuple(p))
    check_chain(inst, chain)


def test_a_chain_of_rises_from_a_large_family_matches_fresh_builds():
    # near zero prices the first player demands every bundle holding item 0
    # or item 1, 192 of them: more than SCAN_MEMBERS, so its rescans peel
    m = 8
    inst = make_instance([f"i{j}" for j in range(m)], [
        make_unit_demand((9, 9, 5, 4, 3, 2, 1, 1)),
        make_unit_demand((1, 2, 3, 4, 5, 6, 7, 8)),
        make_unit_demand((4, 1, 7, 1, 4, 7, 2, 2))])
    assert len(fresh_view(inst, (0,) * m).demand[0]) > demand.SCAN_MEMBERS
    chain, p = [], [0] * m
    for j in (2, 0, 7, 7, 1, 0, 5, 2, 2, 6, 1, 0, 3, 4, 7):
        chain.append(tuple(p))
        p[j] += 1
    check_chain(inst, chain)


def minimal_members_reference(family):
    """The minimal filter as it was before the numpy peel: a sort by
    (popcount, mask), then a scan of every candidate against those kept."""
    by_size = sorted(family, key=lambda s: (popcount(s), s))
    accepted = []
    for cand in by_size:
        if not any(low & cand == low for low in accepted):
            accepted.append(cand)
            if len(by_size) * len(accepted) > demand.DEFAULT_OP_BUDGET:
                raise model.BudgetExceeded(
                    f"minimal filter of {len(by_size)} bundles needs up to "
                    f"{len(by_size) * len(accepted)} comparisons, "
                    f"budget {demand.DEFAULT_OP_BUDGET}")
    return tuple(sorted(accepted))


def minimal_members(family):
    return demand._minimal_members(np.array(family, dtype=np.int64))


SCAN = demand.SCAN_MEMBERS


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(1, 14),
       st.sampled_from((1, 2, 3, 10, SCAN - 1, SCAN, SCAN + 1, 2 * SCAN, 1000)))
def test_minimal_filter_matches_the_reference_on_random_families(seed, m, size):
    rng = random.Random(seed)
    family = sorted(rng.sample(range(1 << m), min(size, 1 << m)))
    assert minimal_members(family) == minimal_members_reference(family)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(1, 14), st.integers(1, 4))
def test_minimal_filter_matches_the_reference_on_up_closed_families(seed, m, k):
    # every bundle containing one of k generators, as a unit-demand or
    # OXS player demands near zero prices: a family of up to 2**m members
    # above the switch, or a few below it, with at most k minimal ones
    rng = random.Random(seed)
    gens = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(k)]
    family = [s for s in range(1 << m) if any(g & s == g for g in gens)]
    got = minimal_members(family)
    assert got == minimal_members_reference(family)
    assert len(got) <= k


@pytest.mark.parametrize("regime, m, family, budget, message", [
    # masks 1..100 have the seven singletons as minimal members, and the
    # fourth one accepted needs 400 comparisons
    ("scan", 7, range(1, 101), 350,
     "minimal filter of 100 bundles needs up to 400 comparisons, budget 350"),
    # masks 1..1023 have ten singletons, and the fifth needs 5,115
    ("peel", 10, range(1, 1024), 5000,
     "minimal filter of 1023 bundles needs up to 5115 comparisons, budget 5000"),
])
def test_minimal_filter_stops_at_the_budget(monkeypatch, regime, m, family,
                                            budget, message):
    family = list(family)
    assert (len(family) <= SCAN) == (regime == "scan")
    monkeypatch.setattr(demand, "DEFAULT_OP_BUDGET", budget)
    for run in (lambda: minimal_members(family),
                lambda: minimal_members_reference(family)):
        with pytest.raises(model.BudgetExceeded) as exc:
            run()
        assert str(exc.value) == message
    # at exactly |family| * |D*| comparisons the whole filter fits
    monkeypatch.setattr(demand, "DEFAULT_OP_BUDGET", len(family) * m)
    assert minimal_members(family) == tuple(1 << j for j in range(m))


@pytest.mark.parametrize("bundle", [-1, -8, 8, 9])
def test_min_demand_overlap_rejects_a_bundle_outside_the_market(bundle):
    # a negative mask used to wrap around the overlap row and read the full
    # bundle's entry, and 2**m raised numpy's bare IndexError
    v = make_unit_demand((3, 1, 2))
    with pytest.raises(ValueError, match=rf"bundle must be in 0\.\.7 for m = 3, got {bundle}"):
        demand.min_demand_overlap(v, (0, 0, 0), bundle)
    assert demand.min_demand_overlap(v, (0, 0, 0), 7) == 1


@pytest.mark.parametrize("bundle", [-1, 4, 7])
def test_utility_rejects_a_bundle_outside_the_market(bundle):
    # -1 would read the full bundle's value by Python's negative indexing
    v = make_unit_demand((3, 1))
    with pytest.raises(ValueError, match=rf"bundle must be in 0\.\.3 for m = 2, got {bundle}"):
        demand.utility(v, (1, 0), bundle)
    assert demand.utility(v, (1, 0), 3) == 2


@pytest.mark.parametrize("prices", [(1, 2), (1, 2, 3, 4)])
def test_utility_rejects_a_price_vector_of_the_wrong_length(prices):
    # a short vector used to raise a bare IndexError, a long one to be read
    # on its prefix: (1, 2, 3) used to give 0 for the bundle {b}
    v = make_unit_demand((3, 2, 0))
    with pytest.raises(ValueError,
                       match=f"price vector has {len(prices)} entries, instance has 3"):
        demand.utility(v, prices, 0b10)
    assert demand.utility(v, (1, 2, 3), 0b10) == 0


@pytest.mark.parametrize("bundle", [-1, -2, 2, 3])
def test_excess_demand_rejects_a_bundle_outside_the_market(monkeypatch, bundle):
    inst = two_buyers_one_item()
    # the check comes before any market view is built
    monkeypatch.setattr(demand, "_market", None)
    with pytest.raises(ValueError, match=rf"bundle must be in 0\.\.1 for m = 1, got {bundle}"):
        demand.excess_demand(inst, (0,), bundle)
    monkeypatch.undo()
    assert demand.excess_demand(inst, (0,), 1) == 1


def test_unit_demand_past_int64_answers_demand_queries():
    # the value table used to convert to int64 at the first demand query
    inst = make_instance(["a", "b", "c"], [make_unit_demand((2 ** 64, 2 ** 62, 2 ** 62))])
    assert demand.lyapunov(inst, (0, 0, 0)) == 18_446_744_073_709_551_616


def matmul_bundle_prices(m, prices):
    """The retired bundle pricing, kept as the reference: the full 2**m x m
    bit matrix times the prices, both in the dtype _int_dtype gives
    m * max |p|."""
    top = m * max(map(abs, prices))
    dtype = model._int_dtype(-top, top)
    bits = demand._masks(m)[:, None] >> np.arange(m) & 1
    return bits.astype(dtype) @ np.asarray(prices, dtype=dtype)


@st.composite
def sized_prices(draw):
    m = draw(st.integers(1, 14))
    # m * max |p| on both sides of each rung's bound: 2**13, 2**29, 2**61
    near = st.sampled_from((0, 2 ** 13 // m, -(2 ** 13 // m), 2 ** 29 // m,
                            -(2 ** 29 // m), 2 ** 61 - 8, -(2 ** 61), 2 ** 63, 2 ** 66))
    return m, tuple(draw(near) + draw(st.integers(-8, 8)) for _ in range(m))


@settings(max_examples=150, deadline=None)
@given(sized_prices())
def test_bundle_prices_match_the_bit_matrix_product(sized):
    m, prices = sized
    got = demand._bundle_prices(m, prices)
    want = matmul_bundle_prices(m, prices)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    if got.dtype == object:
        # past int64's exact range every price is a Python integer
        assert all(type(x) is int for x in got.tolist())
        assert got[-1] == sum(prices)


def test_bundle_prices_past_int64_are_exact():
    # three prices of 3 * 2**61 used to wrap to a negative bundle price
    inst = make_instance(["a", "b", "c"], [make_unit_demand((2 ** 62,) * 3)])
    p = (3 * 2 ** 61,) * 3
    assert demand.demand_families(inst, p) == ((0,),)
    assert demand.lyapunov(inst, p) == 20_752_587_082_923_245_568


def test_lyapunov_after_raise_sums_players_past_int64():
    # five best utilities of about 2**61 used to wrap in the int64 sum
    inst = make_instance(["a", "b"], [make_unit_demand((2 ** 61 - 1, 5))] * 5)
    rep = demand.minimal_minimizer_report(inst, (0, 0))
    assert rep == demand.MinimizerReport(
        bundle=1, lyapunov_after=11_529_215_046_068_469_751, unique=True)


@pytest.mark.parametrize("players, p", [
    # at a price of 8 - 2**61 each of six players gains about 2**61
    ([make_unit_demand((0,))] * 6, (8 - 2 ** 61,)),
    # five players value every bundle at 1 - 2**61, the empty one too
    ([model.make_table(1, [1 - 2 ** 61] * 2)] * 5 + [make_unit_demand((5,))], (0,)),
])
def test_lyapunov_after_raise_bounds_every_best_utility(players, p):
    inst = make_instance(["a"], players)
    assert demand.lyapunov_after_raise(inst, p).tolist() == \
        python_after_raise(inst, p, python_rows(inst, p))


def python_rows(inst, p):
    """Per player, from the value table in Python integers: the best
    utility, the demand family and the minimal demand family."""
    rows = []
    for v in inst.players:
        util = [v.table[s] - model.price_of(p, s) for s in range(1 << inst.m)]
        top = max(util)
        family = [s for s, u in enumerate(util) if u == top]
        minimal = [s for s in family if not any(t != s and t & s == t for t in family)]
        rows.append((top, tuple(family), tuple(minimal), util))
    return rows


def python_obstacle(inst, p, rows):
    overlap = [[min(popcount(d & s) for d in minimal) for s in range(1 << inst.m)]
               for _, _, minimal, _ in rows]
    excess = [sum(row[s] for row in overlap) - popcount(s) for s in range(1 << inst.m)]
    top = max(excess)
    if top <= 0:
        return demand.ObstacleReport(0, 0, (0,) * inst.n, True)
    winners = [s for s in range(1 << inst.m) if excess[s] == top]
    minimal = [s for s in winners if not any(t != s and t & s == t for t in winners)]
    best = min(minimal, key=model.lex_key)
    return demand.ObstacleReport(best, top, tuple(row[best] for row in overlap),
                                 len(minimal) == 1)


def python_after_raise(inst, p, rows):
    return [popcount(s) + sum(p) + sum(max(u - popcount(s & t) for t, u in enumerate(util))
                                       for _, _, _, util in rows)
            for s in range(1 << inst.m)]


def python_stable_raises(rows, raised):
    held = []
    for _, family, _, _ in rows:
        counts = {popcount(s & raised) for s in family}
        if len(counts) > 1:
            return 1
        held.append(counts.pop())
    if not any(held):
        return None
    # ceil((top - u_T) / (c - |T & R|)) over the bundles T meeting R less
    return min(-((u - top) // (c - popcount(t & raised)))
               for (top, _, _, util), c in zip(rows, held)
               for t, u in enumerate(util) if popcount(t & raised) < c)


# on both sides of each rung's bound: +-2**13 (int16), +-2**29 (int32) and
# 2**61 (int64); the price bases near 2**11 and 2**27 put bundle prices of
# a few items there too
SHIFTS = (0, 2 ** 13 - 8, -2 ** 13 - 4, 2 ** 29 - 8, -2 ** 29 - 4,
          2 ** 61 - 8, 2 ** 62, 2 ** 63, 2 ** 70, -2 ** 70)
PRICE_BASES = (0, 2 ** 11 - 4, 2 ** 13 - 8, -2 ** 13 - 4, 2 ** 27 - 4, 2 ** 29 - 8,
               -2 ** 29 - 4, 2 ** 61 - 8, 2 ** 62, 2 ** 63, 2 ** 65, -2 ** 59)


@settings(max_examples=300, deadline=None)
@given(seeds, st.sampled_from(KINDS))
# seeds whose utilities, of tables and prices within a rung's bound, pass
# 2**15 (306) and 2**31 (204): an int16 or int32 without headroom wraps there
@example(306, "gs")
@example(204, "nonmonotone")
def test_demand_matches_python_integers_past_int64(seed, kind):
    # each table is shifted by a constant on its nonempty bundles, or on
    # all of them, and prices sit near a base; most players share one shift
    # and most items one base, so values, bundle prices and sums over
    # players pass a dtype's bound together, int16's and int32's as well as
    # int64's. The reference is Python integers.
    rng = random.Random(seed)
    base = market_of(rng, kind, rng.randint(1, 4), rng.randint(1, 6))
    shift, price = rng.choice(SHIFTS), rng.choice(PRICE_BASES)
    players = []
    for v in base.players:
        mine = shift if rng.random() < 0.8 else rng.choice(SHIFTS)
        whole = rng.random() < 0.3
        players.append(model.make_table(v.m, [x + mine if s or whole else x
                                              for s, x in enumerate(v.table)]))
    inst = make_instance(list(base.items), players)
    p = tuple((price if rng.random() < 0.8 else rng.choice(PRICE_BASES))
              + rng.randint(-3, 12) for _ in range(inst.m))
    rows = python_rows(inst, p)

    assert demand.demand_families(inst, p) == tuple(family for _, family, _, _ in rows)
    assert demand.lyapunov(inst, p) == sum(top for top, _, _, _ in rows) + sum(p)
    assert demand.demand_reports(inst, p) == tuple(
        demand.DemandReport(i, top, family, minimal)
        for i, (top, family, minimal, _) in enumerate(rows))
    assert demand.over_demanded_set(inst, p) == python_obstacle(inst, p, rows)
    after = python_after_raise(inst, p, rows)
    assert demand.lyapunov_after_raise(inst, p).tolist() == after
    low = min(after)
    smallest = min(popcount(s) for s, x in enumerate(after) if x == low)
    winners = [s for s, x in enumerate(after) if x == low and popcount(s) == smallest]
    assert demand.minimal_minimizer_report(inst, p) == demand.MinimizerReport(
        min(winners, key=model.lex_key), low, len(winners) == 1)
    raised = rng.randint(1, (1 << inst.m) - 1)
    tops, families = [top for top, _, _, _ in rows], [family for _, family, _, _ in rows]
    assert demand.stable_raises(inst, p, raised, tops, families) == \
        python_stable_raises(rows, raised)
