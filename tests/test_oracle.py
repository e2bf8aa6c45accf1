"""Brute-force oracle: welfare DP, envy-free search, Walrasian certification."""

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walras
from walras import auctions, cli, demand, ggs2, model, oracle
from walras.model import make_instance, make_unit_demand, make_additive

import conftest

seeds = st.integers(0, 2 ** 31 - 1)


def two_buyers_one_item():
    return make_instance(["x"], [make_unit_demand((5,)), make_unit_demand((5,))])


def brute_welfare(inst):
    best = 0
    for owners in itertools.product(range(inst.n + 1), repeat=inst.m):
        bundles = [0] * inst.n
        for j, who in enumerate(owners):
            if who < inst.n:
                bundles[who] |= 1 << j
        best = max(best, sum(v.table[b] for v, b in zip(inst.players, bundles)))
    return best


def test_welfare_anchor():
    res = oracle.max_welfare(two_buyers_one_item())
    assert res.welfare == 5
    assert sorted(res.allocation) == [0, 1]


def test_welfare_matches_assignment_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        if rng.random() < 0.5:
            inst = conftest.random_gs_instance(rng, max_m=4, max_n=3)
        else:
            inst = conftest.random_monotone_instance(rng, max_m=4, max_n=3)
        res = oracle.max_welfare(inst)
        assert res.welfare == brute_welfare(inst)
        assert model.allocation_disjoint(res.allocation)
        assert sum(v.table[b] for v, b in zip(inst.players, res.allocation)) \
            == res.welfare


def test_envy_free_search():
    inst = two_buyers_one_item()
    assert oracle.envy_free_exists(inst, (0,)) is None
    alloc = oracle.envy_free_exists(inst, (5,))
    assert alloc is not None
    for v, b in zip(inst.players, alloc):
        assert b in demand.demand_sets(v, (5,)).demand


def test_is_walrasian_three_failure_axes():
    inst = two_buyers_one_item()
    good = oracle.is_walrasian(inst, (5,))
    assert good.valid and good.envy_free and good.coverage and good.bm_equality

    # both players strictly demand x: no envy-free allocation
    low = oracle.is_walrasian(inst, (4,))
    assert not low.valid and not low.envy_free

    # nobody takes x at 6 so the positively priced item stays unallocated
    high = oracle.is_walrasian(inst, (6,))
    assert not high.valid and not high.coverage


def covering_search(inst, prices):
    """is_walrasian's retired reference: the first allocation (players in
    order, bundles by size then mask) that hands every player a demanded
    bundle and covers every positively priced item, or None."""
    reports = demand.demand_reports(inst, prices)
    choices = [sorted(r.demand, key=lambda s: (s.bit_count(), s)) for r in reports]
    n = inst.n
    suffix_need = [0] * (n + 1)
    suffix_union = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_need[i] = suffix_need[i + 1] + choices[i][0].bit_count()
        u = 0
        for s in choices[i]:
            u |= s
        suffix_union[i] = suffix_union[i + 1] | u
    positive = sum(1 << j for j in range(inst.m) if prices[j] > 0)
    picked = []

    def rec(i, used):
        if positive & ~used & ~suffix_union[i]:
            return False
        if i == n:
            return True
        free = inst.m - used.bit_count()
        if suffix_need[i] > free:
            return False
        for s in choices[i]:
            if s.bit_count() > free - suffix_need[i + 1]:
                break
            if s & used:
                continue
            picked.append(s)
            if rec(i + 1, used | s):
                return True
            picked.pop()
        return False

    return tuple(picked) if rec(0, 0) else None


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_duality_certificate_matches_the_covering_search(seed):
    rng = random.Random(seed)
    kind = rng.choice(("gs", "ggs2", "mono"))
    if kind == "gs":
        inst = conftest.random_gs_instance(rng, max_m=5)
    elif kind == "ggs2":
        inst = conftest.random_ggs2_instance(rng, max_m=5, max_n=6)
    else:
        inst = conftest.random_monotone_instance(rng, max_m=5)
    prices = [conftest.random_prices(rng, inst) for _ in range(3)]
    for engine in (auctions.gul_stacchetti, auctions.fine_auction,
                   auctions.ausubel_ascending):
        prices.append(engine(inst).final_price)
    if kind == "ggs2":
        prices.append(ggs2.ggs2_auction(inst)[0].final_price)
    best = oracle.max_welfare(inst)
    for p in prices:
        cert = oracle.is_walrasian(inst, p)
        assert cert.valid == (covering_search(inst, p) is not None)
        assert cert.valid == (cert.lyapunov == best.welfare)
        if cert.valid:
            assert cert.allocation == best.allocation
            assert cert == oracle.check_allocation(inst, p, cert.allocation)
        else:
            assert cert.allocation == oracle.envy_free_exists(inst, p)


def test_check_allocation():
    inst = two_buyers_one_item()
    ok = oracle.check_allocation(inst, (5,), (0, 1))
    assert ok.valid
    bad = oracle.check_allocation(inst, (5,), (1, 1))
    assert not bad.valid


def test_minimal_walrasian_anchor():
    rep = oracle.minimal_walrasian_price(two_buyers_one_item())
    assert rep is not None
    assert rep.price == (5,)
    assert rep.unique


def test_minimal_walrasian_none_when_no_equilibrium():
    # complement pair against a single-item rival: integrality gap
    comp = model.make_table(2, (0, 0, 0, 4))
    rival = make_unit_demand((3, 3))
    inst = make_instance(["a", "b"], [comp, rival])
    if oracle.minimal_walrasian_price(inst) is not None:
        # only acceptable if min Lyapunov really equals max welfare
        rep = oracle.minimal_walrasian_price(inst)
        assert oracle.is_walrasian(inst, rep.price).valid


def test_minimal_walrasian_is_minimal_and_valid():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        inst = conftest.random_gs_instance(rng, max_m=3, max_n=3)
        rep = oracle.minimal_walrasian_price(inst)
        assert rep is not None, "gross substitutes always admit an equilibrium"
        assert oracle.is_walrasian(inst, rep.price).valid
        # nothing strictly below it may be Walrasian
        ranges = [range(x + 1) for x in rep.price]
        for q in itertools.product(*ranges):
            if q != rep.price:
                assert not oracle.is_walrasian(inst, q).valid
                checked += 1
    assert checked > 0


def grid_scan(inst, bound=None):
    """minimal_walrasian_price by the retired scan: the Lyapunov value at
    every grid point from a grid x 2**m utility matrix per player."""
    if bound is None:
        bound = inst.vmax
    caps = oracle._coordinate_bounds(inst, bound)
    welfare = oracle.max_welfare(inst).welfare
    grid = np.array(list(itertools.product(*(range(c + 1) for c in caps))),
                    dtype=np.int64).reshape(-1, inst.m)
    bits, _ = demand._static(inst.m)
    pcost = grid @ bits.T
    lvals = grid.sum(axis=1)
    for v in inst.players:
        lvals = lvals + (v.np_table[None, :] - pcost).max(axis=1)
    if lvals.min() != welfare:
        return None
    minimizers = [tuple(int(x) for x in r) for r in grid[lvals == welfare]]
    meet = tuple(min(col) for col in zip(*minimizers))
    if demand.lyapunov(inst, meet) == welfare:
        assert oracle.is_walrasian(inst, meet).valid
        return oracle.MinimalPriceReport(meet, True, (meet,))
    minimal = sorted(p for p in minimizers if not any(
        q != p and all(a <= b for a, b in zip(q, p)) for q in minimizers))
    return oracle.MinimalPriceReport(minimal[0], len(minimal) == 1, tuple(minimal))


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_grid_sweep_matches_the_grid_scan(seed):
    rng = random.Random(seed)
    kind = rng.choice(("gs", "ggs2", "mono", "raw"))
    if kind == "gs":
        inst = conftest.random_gs_instance(rng, max_m=4)
    elif kind == "ggs2":
        inst = conftest.random_ggs2_instance(rng, max_m=4)
    elif kind == "mono":
        inst = conftest.random_monotone_instance(rng, max_m=4)
    else:
        # not monotone and rarely submodular, so every coordinate runs to
        # the bound
        m = rng.randint(1, 3)
        inst = make_instance(list("abc"[:m]), [
            model.make_table(m, [0] + [rng.randint(0, conftest.VMAX)
                                       for _ in range(1, 1 << m)])
            for _ in range(rng.randint(1, 3))])
    # a bound below the values can cut every Walrasian price off the grid
    bound = rng.choice((None, rng.randint(0, inst.vmax)))
    assert oracle.minimal_walrasian_price(inst, bound) == grid_scan(inst, bound)


def test_minimal_prices_without_a_lattice_minimum():
    # two players who want only the pair: any prices summing to 1 clear it
    pair = model.make_table(2, (0, 0, 0, 1))
    inst = make_instance(["x", "y"], [pair, pair])
    rep = oracle.minimal_walrasian_price(inst)
    assert rep == oracle.MinimalPriceReport((0, 1), False, ((0, 1), (1, 0)))
    assert rep == grid_scan(inst)


def test_grid_budget_is_checked_before_the_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept past the budget")

    monkeypatch.setattr(demand, "_raise_sweep", no_sweep)
    monkeypatch.setenv("WALRAS_BUDGET", "1")
    with pytest.raises(oracle.BudgetExceeded,
                       match="price grid has 6 points, budget 1"):
        oracle.minimal_walrasian_price(two_buyers_one_item())


def test_budget_exceeded():
    inst = two_buyers_one_item()
    with pytest.raises(oracle.BudgetExceeded):
        oracle.max_welfare(inst, budget=1)
    with pytest.raises(oracle.BudgetExceeded):
        oracle.minimal_walrasian_price(inst, budget=1)


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("WALRAS_BUDGET", "1")
    big = make_instance(
        ["a", "b", "c"],
        [make_additive((1, 1, 1)), make_additive((2, 2, 2))],
    )
    with pytest.raises(oracle.BudgetExceeded):
        oracle.max_welfare(big)
    monkeypatch.setenv("WALRAS_BUDGET", "junk")
    with pytest.raises(oracle.BudgetExceeded):
        oracle.env_budget(10)


def test_budget_is_checked_before_the_caches(monkeypatch):
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    inst = make_instance(["a", "b"], [make_unit_demand((3, 2)),
                                      make_unit_demand((2, 3))])
    assert oracle.max_welfare(inst).welfare == 6
    assert demand.lyapunov_descent(inst, (2, 0)) is not None
    monkeypatch.setenv("WALRAS_BUDGET", "1")
    with pytest.raises(oracle.BudgetExceeded,
                       match="welfare DP needs 18 steps, budget 1"):
        oracle.max_welfare(inst)
    with pytest.raises(oracle.BudgetExceeded,
                       match="descent scan needs 18 entries, budget 1"):
        demand.lyapunov_descent(inst, (2, 0))


def test_min_walrasian_certifies_under_the_callers_budget(capsys, tmp_path,
                                                         monkeypatch):
    # the welfare DP needs 18 steps and the grid has 12 points: over a
    # default of 17 the certificate must reuse the DP run under --budget
    inst = make_instance(["x", "y"], [make_unit_demand((3, 2)),
                                      make_unit_demand((3, 2))])
    path = tmp_path / "market.json"
    path.write_text(model.instance_to_json(inst))
    monkeypatch.setenv("WALRAS_BUDGET", "17")
    assert cli.main(["oracle", "welfare", "--instance", str(path)]) == 1
    assert "welfare DP needs 18 steps" in capsys.readouterr().out
    assert cli.main(["oracle", "min-walrasian", "--instance", str(path),
                     "--budget", "18"]) == 0
    assert json.loads(capsys.readouterr().out) == {"x": 1, "y": 0}


def test_envy_free_search_is_bounded(monkeypatch):
    inst = two_buyers_one_item()
    with pytest.raises(oracle.BudgetExceeded,
                       match="envy-free search passed 2 nodes, budget 1"):
        oracle.envy_free_exists(inst, (5,), budget=1)
    monkeypatch.setenv("WALRAS_BUDGET", "2")
    with pytest.raises(oracle.BudgetExceeded,
                       match="envy-free search passed 3 nodes, budget 2"):
        oracle.envy_free_exists(inst, (5,))


def test_envy_free_search_expands_each_state_once():
    # twelve players want one of eleven items: without remembering failed
    # (player, used-items) states the search retries every order of them
    items = [f"i{j}" for j in range(12)]
    inst = make_instance(items, [make_unit_demand((1,) * 11 + (0,))] * 12)
    assert oracle.envy_free_exists(inst, inst.zero_prices(),
                                   budget=(inst.n + 1) * 2 ** inst.m) is None
    # the first solution found is unchanged: players take i0, i1, ... in turn
    eleven = make_instance(items, [make_unit_demand((1,) * 11 + (0,))] * 11)
    assert oracle.envy_free_exists(eleven, eleven.zero_prices()) == \
        tuple(1 << j for j in range(11))


def test_invariant_violation_survives_python_O():
    # a max_welfare off by one puts the welfare above the Lyapunov value,
    # which weak duality rules out; under -O an assert would vanish and
    # the certificate would be returned as if nothing were wrong
    code = textwrap.dedent("""
        import dataclasses, sys
        import walras
        from walras import oracle
        from walras.model import make_instance, make_unit_demand

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        real = oracle.max_welfare
        oracle.max_welfare = lambda inst, budget=None: dataclasses.replace(
            real(inst, budget), welfare=real(inst, budget).welfare + 1)
        inst = make_instance(["x"], [make_unit_demand((5,)),
                                     make_unit_demand((5,))])
        try:
            cert = oracle.is_walrasian(inst, (5,))
        except walras.InvariantViolation:
            sys.exit(0)
        sys.exit(f"no InvariantViolation, certificate {cert}")
    """)
    src = str(Path(walras.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
