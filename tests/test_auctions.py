"""Ascending-auction engines and their step-for-step agreement."""

import random

import pytest

from walras import auctions, demand, model, oracle
from walras.model import make_instance, make_unit_demand

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
