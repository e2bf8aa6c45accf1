"""Ascending-auction engines and their step-for-step agreement."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import walras
from walras import auctions, demand, model, oracle
from walras.model import make_instance, make_table, make_unit_demand

import conftest


def two_buyers_one_item():
    return make_instance(["x"], [make_unit_demand((5,)), make_unit_demand((5,))])


def steps_of(trace):
    return [(s.price_before, s.raised) for s in trace.steps]


def test_gul_stacchetti_anchor():
    trace = auctions.gul_stacchetti(two_buyers_one_item())
    assert trace.algorithm == "gs"
    assert trace.terminated and not trace.iteration_cap_hit
    assert trace.final_price == (5,)
    assert [s.lyapunov_before for s in trace.steps] == [10, 9, 8, 7, 6]
    assert all(s.f_value == 1 for s in trace.steps)
    assert all(s.raised == 0b1 for s in trace.steps)
    assert trace.anomalies == ()


def test_solo_buyer_never_sees_an_obstacle():
    inst = make_instance(["x", "y"], [make_unit_demand((4, 2))])
    trace = auctions.gul_stacchetti(inst)
    assert trace.steps == ()
    assert trace.final_price == (0, 0)
    assert trace.terminated


def test_engines_agree_on_anchor():
    inst = two_buyers_one_item()
    gul = auctions.gul_stacchetti(inst)
    aus = auctions.ausubel_ascending(inst)
    fine = auctions.fine_auction(inst)
    assert steps_of(gul) == steps_of(aus) == steps_of(fine)
    assert gul.final_price == aus.final_price == fine.final_price == (5,)


def test_monitor_domination():
    trace = auctions.gul_stacchetti(two_buyers_one_item())
    assert auctions.monitor_domination(trace, (5,)) is None
    # the final price itself breaks a cap of 4: flagged at index len(steps)
    assert auctions.monitor_domination(trace, (4,)) == 5
    assert auctions.monitor_domination(trace, (0,)) == 1


def test_policy_reproduces_gul():
    inst = two_buyers_one_item()

    def full_obstacle(ob, prices, t):
        return ob.bundle

    mine = auctions.run_with_policy(inst, full_obstacle, name="full")
    assert mine.algorithm == "full"
    assert steps_of(mine) == steps_of(auctions.gul_stacchetti(inst))


def test_policy_violations_rejected():
    inst = two_buyers_one_item()
    with pytest.raises(auctions.PolicyViolation):
        auctions.run_with_policy(inst, lambda ob, p, t: 0)

    def outside(ob, prices, t):
        return ob.bundle << 1 | ob.bundle

    with pytest.raises(auctions.PolicyViolation):
        auctions.run_with_policy(inst, outside)


def test_iteration_cap_flagged_not_raised(monkeypatch):
    monkeypatch.setattr(auctions, "iteration_cap", lambda inst: 1)
    trace = auctions.gul_stacchetti(two_buyers_one_item())
    assert trace.iteration_cap_hit
    assert not trace.terminated
    assert len(trace.steps) == 1


def test_policy_not_consulted_at_the_capped_step(monkeypatch):
    # stop test, then cap, then choose: an invalid pick at the capped step
    # never surfaces as a PolicyViolation
    monkeypatch.setattr(auctions, "iteration_cap", lambda inst: 2)
    calls = []

    def bad_from_step_two(ob, prices, t):
        calls.append(t)
        return ob.bundle if t < 2 else 0

    trace = auctions.run_with_policy(two_buyers_one_item(), bad_from_step_two)
    assert trace.iteration_cap_hit
    assert calls == [0, 1]

    monkeypatch.setattr(auctions, "iteration_cap", lambda inst: 3)
    with pytest.raises(auctions.PolicyViolation):
        auctions.run_with_policy(two_buyers_one_item(), bad_from_step_two)


def test_ausubel_iteration_cap(monkeypatch):
    monkeypatch.setattr(auctions, "iteration_cap", lambda inst: 1)
    trace = auctions.ausubel_ascending(two_buyers_one_item())
    assert trace.iteration_cap_hit and not trace.terminated
    assert steps_of(trace) == [((0,), 0b1)]
    assert trace.anomalies == ("iteration cap 1 hit",)


def test_trace_json_shape():
    inst = two_buyers_one_item()
    payload = auctions.trace_to_json(auctions.fine_auction(inst), inst)
    assert payload["algorithm"] == "fine"
    assert payload["final_price"] == {"x": 5}
    assert payload["terminated"] is True
    first = payload["steps"][0]
    assert first["price"] == {"x": 0}
    assert first["raised"] == ["x"]
    assert first["lyapunov"] == 10
    assert first["f"] == 1
    assert first["unique"] is True


def test_corpus_agreement_and_optimality():
    rng = random.Random(99)
    for _ in range(50):
        inst = conftest.random_gs_instance(rng, max_m=4)
        gul = auctions.gul_stacchetti(inst)
        aus = auctions.ausubel_ascending(inst)
        assert gul.terminated and aus.terminated
        assert steps_of(gul) == steps_of(aus)
        assert gul.final_price == aus.final_price
        assert gul.anomalies == () and aus.anomalies == ()

        rep = oracle.minimal_walrasian_price(inst)
        assert rep is not None
        assert gul.final_price == rep.price
        assert auctions.monitor_domination(gul, rep.price) is None
        assert demand.lyapunov(inst, gul.final_price) == \
            oracle.max_welfare(inst).welfare

        fine = auctions.fine_auction(inst)
        assert fine.terminated
        assert fine.final_price == rep.price
        assert auctions.monitor_domination(fine, rep.price) is None


def test_lyapunov_strictly_decreases_along_traces():
    rng = random.Random(31)
    for _ in range(30):
        inst = conftest.random_gs_instance(rng, max_m=5)
        trace = auctions.gul_stacchetti(inst)
        values = [s.lyapunov_before for s in trace.steps]
        values.append(demand.lyapunov(inst, trace.final_price))
        assert all(a > b for a, b in zip(values, values[1:]))


def tie_break_market():
    # two incomparable minimal maximizers of excess demand at zero prices,
    # {a, b} and {b, c}; gs raises {a, b}, the lexicographically first
    return make_instance(["a", "b", "c"], [
        make_table(3, (0, 0, 0, 2, 1, 1, 1, 3)),
        make_table(3, (0, 0, 2, 2, 0, 2, 2, 2)),
    ])


def test_steps_record_the_tie_break():
    inst = tie_break_market()
    ob = demand.over_demanded_set(inst, inst.zero_prices())
    assert ob.bundle == 0b011 and not ob.unique
    for run in (auctions.gul_stacchetti, auctions.fine_auction):
        trace = run(inst)
        assert trace.steps[0].unique is False
        payload = auctions.trace_to_json(trace, inst)
        assert payload["steps"][0]["unique"] is False
    trace = auctions.gul_stacchetti(two_buyers_one_item())
    assert all(s.unique for s in trace.steps)


def test_stable_raises_break_point():
    inst = two_buyers_one_item()
    # both buyers keep demanding x until its price reaches their value
    assert demand.stable_raises(inst, (0,), 0b1) == 5
    assert demand.stable_raises(inst, (3,), 0b1) == 2
    # at 5 each buyer demands x and the empty bundle, which meet x in 1
    # and 0 items: the next raise changes demand
    assert demand.stable_raises(inst, (5,), 0b1) == 1
    # y worth nothing and priced 1: nobody demands it, so raising it
    # never changes demand
    solo = make_instance(["x", "y"], [make_unit_demand((4, 0))])
    assert demand.stable_raises(solo, (0, 1), 0b10) is None
    # the empty bundle closes its gap of 5 by 2 per raise, a singleton its
    # gap of 4 by 1: the break comes after ceil(5 / 2) = 3 raises
    pair = make_instance(["x", "y"], [make_table(2, (0, 1, 1, 5))] * 2)
    assert demand.demand_sets(pair.players[0], (0, 0)).demand == (0b11,)
    assert demand.stable_raises(pair, (0, 0), 0b11) == 3


def test_demand_families_match_the_views():
    rng = random.Random(12)
    for _ in range(40):
        inst = conftest.random_monotone_instance(rng)
        p = conftest.random_prices(rng, inst)
        assert demand.demand_families(inst, p) == tuple(
            r.demand for r in demand.demand_reports(inst, p))


def unit_step_gs(instance):
    """The unit-step gs loop the long steps replace, kept as the reference."""
    cap = auctions.iteration_cap(instance)
    p = instance.zero_prices()
    steps, anomalies = [], []
    lyap = demand.lyapunov(instance, p)
    while True:
        ob = demand.over_demanded_set(instance, p)
        if ob.excess <= 0:
            return auctions.AuctionTrace("gs", tuple(steps), p, True, False,
                                         tuple(anomalies))
        if len(steps) >= cap:
            anomalies.append(f"iteration cap {cap} hit")
            return auctions.AuctionTrace("gs", tuple(steps), p, False, True,
                                         tuple(anomalies))
        f_val = demand.excess_demand(instance, p, ob.bundle)
        steps.append(auctions.AuctionStep(len(steps), p, ob.bundle, lyap, f_val,
                                          ob.unique))
        p = model.add_indicator(p, ob.bundle)
        new_lyap = demand.lyapunov(instance, p)
        if new_lyap > lyap:
            anomalies.append(f"lyapunov rose at step {len(steps) - 1}")
        lyap = new_lyap


MARKETS = {
    "gs": conftest.random_gs_instance,
    "paircap": conftest.random_ggs2_instance,
    "monotone": conftest.random_monotone_instance,
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(MARKETS)), st.integers(0, 2 ** 32 - 1),
       st.floats(0, 1))
def test_long_steps_equal_unit_steps(kind, seed, cut):
    inst = MARKETS[kind](random.Random(seed))
    full = unit_step_gs(inst)
    assert auctions.gul_stacchetti(inst) == full
    if len(full.steps) < 2:
        return
    # a cap inside the run, so it often lands inside a long step
    cap = 1 + int(cut * (len(full.steps) - 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auctions, "iteration_cap", lambda instance: cap)
        capped = auctions.gul_stacchetti(inst)
        assert capped.iteration_cap_hit and len(capped.steps) == cap
        assert capped == unit_step_gs(inst)


def test_long_steps_build_few_views(monkeypatch):
    # a deep-style unit-demand market: about 1,000 unit steps, but a view
    # only where some player's demand changes
    rng = random.Random(2016)
    inst = make_instance([f"i{j}" for j in range(6)], [
        make_unit_demand([rng.randint(512, 1024) for _ in range(6)])
        for _ in range(9)])
    built = set()
    view = demand._view

    def counting(owner, players, m, prices):
        built.add((id(owner), tuple(prices)))
        return view(owner, players, m, prices)

    monkeypatch.setattr(demand, "_view", counting)
    trace = auctions.gul_stacchetti(inst)
    assert trace.terminated and len(trace.steps) > 800
    assert len(built) < 60
    monkeypatch.setattr(demand, "_view", view)
    assert trace == unit_step_gs(inst)


def test_unit_step_engines_never_take_long_steps(monkeypatch):
    def refuse(*args):
        raise AssertionError("stable_raises called")

    monkeypatch.setattr(demand, "stable_raises", refuse)
    inst = two_buyers_one_item()
    auctions.fine_auction(inst)
    auctions.ausubel_ascending(inst)
    auctions.run_with_policy(inst, auctions.seeded_policy(3))


def test_lyapunov_falls_by_at_most_the_excess(monkeypatch):
    # understating f by one makes the true fall look too deep
    real = demand.excess_demand
    monkeypatch.setattr(demand, "excess_demand",
                        lambda inst, p, bundle: real(inst, p, bundle) - 1)
    with pytest.raises(walras.InvariantViolation, match="more than the excess"):
        auctions.gul_stacchetti(two_buyers_one_item())


def test_overstated_break_point_survives_python_O():
    # one raise too many puts the last skipped price where demand has
    # already changed; the check at the landing must catch it, also where
    # an assert would vanish
    code = textwrap.dedent("""
        import sys
        import walras
        from walras import auctions, demand
        from walras.model import make_instance, make_unit_demand

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        real = demand.stable_raises
        demand.stable_raises = lambda inst, p, r: real(inst, p, r) + 1
        inst = make_instance(["x"], [make_unit_demand((5,)),
                                     make_unit_demand((5,))])
        try:
            trace = auctions.gul_stacchetti(inst)
        except walras.InvariantViolation:
            sys.exit(0)
        sys.exit(f"no InvariantViolation, trace {trace}")
    """)
    src = str(Path(walras.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
