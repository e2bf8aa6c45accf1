"""Brute-force oracle: welfare DP, envy-free search, Walrasian certification."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import walras
from walras import demand, model, oracle
from walras.model import make_instance, make_unit_demand, make_additive

import conftest


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


def test_invariant_violation_survives_python_O():
    # a max_welfare off by one makes the covering allocation at the
    # Walrasian price disagree with the welfare; under -O an assert would
    # vanish and the certificate would claim bm_equality falsely
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
