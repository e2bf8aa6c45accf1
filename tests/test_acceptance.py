"""Acceptance gate: ten reproduction and property criteria.

Each test prints exactly one pass/fail line (visible under pytest -s) and
then asserts, so the suite both reports and enforces. Corpora are seeded
and shared across criteria through module-scoped fixtures.
"""

import random
import time

import pytest

from walras import auctions, demand, ggs2, model, oracle, structure
from walras.model import add_indicator, dominated, make_truncation, \
    make_unit_demand, popcount

import conftest

CORPUS_SEED = 20260815


def report(k, name, ok, detail):
    print(f"criterion {k} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def corpus():
    return conftest.gs_corpus(CORPUS_SEED, 200)


@pytest.fixture(scope="module")
def gul_traces(corpus):
    return [auctions.gul_stacchetti(inst) for inst in corpus]


@pytest.fixture(scope="module")
def star_prices(corpus):
    reports = [oracle.minimal_walrasian_price(inst) for inst in corpus]
    assert all(r is not None for r in reports)
    return [r.price for r in reports]


def test_criterion_1_non_gs_reproduction():
    started = time.perf_counter()
    v = make_truncation(make_unit_demand((2, 2, 4)), 2, 4)
    witness = structure.check_gs_on_grid(v)
    found = witness is not None and structure.gs_witness_holds(v, witness)

    # reference pair, doubled so half steps stay integral: at q the price
    # of b never moved yet b leaves every demand set
    doubled = model.Valuation(m=3, table=tuple(2 * x for x in v.table))
    low, high = (0, 2, 4), (4, 2, 4)
    d_low = demand.demand_sets(doubled, low).demand
    d_high = demand.demand_sets(doubled, high).demand
    semantics = 0b011 in d_low and all(not s >> 1 & 1 for s in d_high)

    elapsed = time.perf_counter() - started
    ok = found and semantics and elapsed < 1.0
    report(1, "non-GS witness", ok,
           f"witness={witness is not None}, semantics={semantics}, "
           f"{elapsed:.3f}s")
    assert ok


def test_criterion_2_obstacle_failure_reproduction():
    started = time.perf_counter()
    inst = ggs2.demo_claim_instance()
    assert inst.n == 5 and inst.m == 8
    p0 = inst.zero_prices()
    ob = demand.over_demanded_set(inst, p0)
    no_allocation = oracle.envy_free_exists(inst, p0) is None
    elapsed = time.perf_counter() - started
    ok = ob.excess <= 0 and ob.bundle == 0 and no_allocation and elapsed < 5.0
    report(2, "no obstacle, no allocation", ok,
           f"max excess={ob.excess}, envy-free absent={no_allocation}, "
           f"{elapsed:.3f}s")
    assert ok


def test_criterion_3_auction_equivalence(corpus, gul_traces):
    mismatches = 0
    for inst, gul in zip(corpus, gul_traces):
        aus = auctions.ausubel_ascending(inst)
        same = (
            [(s.price_before, s.raised) for s in gul.steps]
            == [(s.price_before, s.raised) for s in aus.steps]
            and gul.final_price == aus.final_price
            and gul.terminated and aus.terminated
        )
        mismatches += not same
    ok = mismatches == 0
    report(3, "auction equivalence", ok,
           f"{len(corpus)} instances, {mismatches} mismatches")
    assert ok


def test_criterion_4_endpoint_optimality(corpus, gul_traces, star_prices):
    mismatches = 0
    for inst, gul, star in zip(corpus, gul_traces, star_prices):
        finals = {
            gul.final_price,
            auctions.ausubel_ascending(inst).final_price,
            auctions.fine_auction(inst).final_price,
        }
        lyap = demand.lyapunov(inst, gul.final_price)
        welfare = oracle.max_welfare(inst).welfare
        if finals != {star} or lyap != welfare:
            mismatches += 1
    ok = mismatches == 0
    report(4, "endpoint optimality", ok,
           f"{len(corpus)} instances, {mismatches} mismatches")
    assert ok


def test_criterion_5_domination(corpus, gul_traces, star_prices):
    violations = 0
    for inst, gul, star in zip(corpus, gul_traces, star_prices):
        for trace in (gul, auctions.ausubel_ascending(inst),
                      auctions.fine_auction(inst)):
            if auctions.monitor_domination(trace, star) is not None:
                violations += 1
    ok = violations == 0
    report(5, "price domination", ok,
           f"{3 * len(corpus)} traces, {violations} violations")
    assert ok


def test_criterion_6_lemma_suite():
    rng = random.Random(CORPUS_SEED + 6)
    tuples = 500
    violations = 0
    for _ in range(tuples):
        inst = conftest.random_gs_instance(rng)
        p = conftest.random_prices(rng, inst)
        s = conftest.random_bundle(rng, inst.m)
        j = rng.randrange(inst.m)
        q = conftest.random_prices(rng, inst)
        bigger = s | conftest.random_bundle(rng, inst.m)
        shifted = add_indicator(p, s)
        for v in inst.players:
            drop = demand.min_demand_overlap(v, p, s)
            if demand.demand_sets(v, shifted).utility != \
                    demand.demand_sets(v, p).utility - drop:
                violations += 1
            if drop > demand.min_demand_overlap(v, p, bigger):
                violations += 1
            if structure.check_matroid_bases(
                    demand.demand_sets(v, p).minimal_demand) is not None:
                violations += 1
            try:
                structure.classify_transition(v, p, j)
            except structure.UnclassifiableTransition:
                violations += 1
            if not structure.check_utility_distance(v, p, s).ok:
                violations += 1
        join = tuple(max(a, b) for a, b in zip(p, q))
        meet = tuple(min(a, b) for a, b in zip(p, q))
        if demand.lyapunov(inst, join) + demand.lyapunov(inst, meet) > \
                demand.lyapunov(inst, p) + demand.lyapunov(inst, q):
            violations += 1
    ok = violations == 0
    report(6, "lemma suite", ok, f"{tuples} tuples, {violations} violations")
    assert ok


def test_criterion_7_ggs2_equilibrium():
    instances = conftest.ggs2_corpus(CORPUS_SEED + 7, 200)
    failures = 0
    for inst in instances:
        trace, cert = ggs2.ggs2_auction(inst)
        existence = oracle.minimal_walrasian_price(inst)
        good = (trace.terminated and not trace.iteration_cap_hit
                and trace.anomalies == () and cert.valid
                and existence is not None)
        failures += not good
    ok = failures == 0
    report(7, "pair-cap equilibrium", ok,
           f"{len(instances)} instances, {failures} failures")
    assert ok


def test_criterion_8_obstacle_soundness():
    rng = random.Random(CORPUS_SEED + 8)
    pairs = 500
    violations = 0
    positive = 0
    for _ in range(pairs):
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
            positive += 1
            if oracle.envy_free_exists(inst, p) is not None:
                violations += 1
    ok = violations == 0 and positive > 0
    report(8, "obstacle soundness", ok,
           f"{pairs} pairs, {positive} with positive excess, "
           f"{violations} violations")
    assert ok


def test_criterion_9_policy_invariance(corpus, gul_traces):
    mismatches = 0
    for seed in range(10):
        for inst, gul in zip(corpus, gul_traces):
            trace = auctions.run_with_policy(
                inst, auctions.seeded_policy(seed), name=f"policy:{seed}")
            if not trace.terminated or \
                    trace.final_price != gul.final_price:
                mismatches += 1
    ok = mismatches == 0
    report(9, "policy invariance", ok,
           f"10 policies x {len(corpus)} instances, {mismatches} mismatches")
    assert ok


def test_criterion_10_exact_step_count(corpus, gul_traces, star_prices):
    # Murota, Shioura & Yang (2016): from p = 0 the unit-step ascending
    # auction on gross substitutes takes exactly max(p*) steps, where p* is
    # the minimal Walrasian price
    mismatches = 0
    for inst, gul, star in zip(corpus, gul_traces, star_prices):
        for trace in (gul, auctions.ausubel_ascending(inst)):
            mismatches += len(trace.steps) != max(star)
    ok = mismatches == 0
    report(10, "exact step count", ok,
           f"{2 * len(corpus)} traces, {mismatches} mismatches")
    assert ok
