"""Pair-cap market engine: classification, matching, and certification."""

import random

import pytest

from walras import demand, ggs2, model, oracle
from walras.model import make_additive, make_instance, make_truncation, \
    make_unit_demand

import conftest


def pair_cap(singles, cap):
    return make_truncation(make_additive(singles), 2, cap)


def claim_instance():
    from walras.cli import demo_claim_instance
    return demo_claim_instance()


def test_common_cap():
    t = pair_cap((2, 2), 2)
    assert ggs2.common_cap(make_instance(["a", "b"], [t, t])) == 2

    one = make_instance(["a"], [make_unit_demand((2,))])
    assert ggs2.common_cap(one) is None

    with pytest.raises(ggs2.NotGgs2Instance):
        ggs2.common_cap(make_instance(["a", "b", "c"], [make_additive((1, 1, 1))]))

    with pytest.raises(ggs2.NotGgs2Instance):
        ggs2.common_cap(make_instance(
            ["a", "b"], [pair_cap((2, 2), 2), pair_cap((3, 3), 3)]))


def test_classify_players():
    cls = ggs2.classify_players(claim_instance(), (0,) * 8)
    assert cls.pair_players == (0, 1, 2, 3, 4)
    assert cls.small == () and cls.empty_demand == ()

    inst = make_instance(["a", "b"], [pair_cap((2, 1), 2)])
    assert ggs2.classify_players(inst, (1, 1)).small == (0,)
    assert ggs2.classify_players(inst, (2, 2)).empty_demand == (0,)


def test_min_items():
    rep = ggs2.min_items((2, 1, 2))
    assert rep.min_bundle == 0b010
    assert rep.min2_bundle == 0b101
    # no runner-up set unless the minimum is unique
    rep = ggs2.min_items((1, 1, 2))
    assert rep.min_bundle == 0b011
    assert rep.min2_bundle == 0


def test_matching_and_hall_witness():
    inst = make_instance(
        ["a", "b"], [make_unit_demand((3, 0)), make_unit_demand((3, 0))])
    g = ggs2.build_demand_graph(inst, (0, 0), (0, 1))
    assert g.edges == ((0, 0), (1, 0))
    with pytest.raises(ggs2.HallViolation) as exc:
        ggs2.max_matching(g, must_match=(0, 1))
    assert exc.value.witness == (0, 1)


def test_matching_cover_is_koenig():
    inst = make_instance(
        ["a", "b", "c"],
        [make_unit_demand((2, 2, 0)), make_unit_demand((2, 0, 0)),
         make_unit_demand((0, 2, 2))])
    g = ggs2.build_demand_graph(inst, (0, 0, 0), (0, 1, 2))
    res = ggs2.max_matching(g, must_match=())
    assert len(res.matching) == 3
    assert len(res.cover_players) + len(res.cover_items) == len(res.matching)


def test_claim_instance_run():
    trace, cert = ggs2.ggs2_auction(claim_instance())
    assert trace.terminated and trace.anomalies == ()
    assert len(trace.steps) == 2
    assert trace.final_price == (1, 1, 1, 1, 1, 1, 1, 2)
    assert cert.valid
    assert cert.allocation == (3, 12, 48, 64, 128)
    assert cert.lyapunov == cert.max_welfare == 9


def test_zero_valued_item_regression():
    # a zero-priced worthless item must not drag the whole MIN set upward:
    # the unique equilibrium here prices only the contested item
    t = pair_cap((2, 0), 2)
    inst = make_instance(["a", "b"], [t, t])
    trace, cert = ggs2.ggs2_auction(inst)
    assert trace.terminated and trace.anomalies == ()
    assert trace.final_price == (2, 0)
    assert cert.valid
    rep = oracle.minimal_walrasian_price(inst)
    assert rep.price == (2, 0) and rep.unique


def test_solo_pair_player_stops_at_zero():
    inst = make_instance(["a", "b"], [pair_cap((1, 1), 2)])
    trace, cert = ggs2.ggs2_auction(inst)
    assert trace.steps == ()
    assert trace.final_price == (0, 0)
    assert cert.valid
    assert cert.allocation == (0b11,)


def test_auction_checks_the_shape_once(monkeypatch):
    calls = []
    real = ggs2.common_cap
    monkeypatch.setattr(ggs2, "common_cap",
                        lambda inst: calls.append(1) or real(inst))
    trace, cert = ggs2.ggs2_auction(claim_instance())
    assert len(trace.steps) > 1
    assert cert.valid
    assert len(calls) == 1


def test_auction_rejects_non_pair_cap_instances():
    with pytest.raises(ggs2.NotGgs2Instance):
        ggs2.ggs2_auction(make_instance(
            ["a", "b", "c"], [make_additive((1, 1, 1))]))


def test_gen_dom_check():
    inst = claim_instance()
    trace, cert = ggs2.ggs2_auction(inst)
    p_star = oracle.minimal_walrasian_price(inst).price
    # intermediate prices are merely dominated; the terminal one carries
    # an envy-free allocation and so is certified Walrasian outright
    for step in trace.steps:
        assert model.dominated(step.price_before, p_star)
    assert ggs2.gen_dom_check(inst, trace.final_price, p_star,
                              cert.allocation) is None
    # a price above the target must be called out
    above = model.add_indicator(p_star, 0b1)
    assert ggs2.gen_dom_check(inst, above, p_star, cert.allocation) is not None


def test_certificate_json():
    inst = claim_instance()
    _, cert = ggs2.ggs2_auction(inst)
    payload = ggs2.certificate_to_json(cert, inst)
    assert payload["price"]["i8"] == 2
    assert payload["envy_free"] is True
    assert payload["all_positive_priced_allocated"] is True
    assert payload["lyapunov"] == payload["max_welfare"] == 9
    assert sorted(payload["allocation"][0]) == ["i1", "i2"]


def test_random_corpus_certified():
    rng = random.Random(77)
    for _ in range(40):
        inst = conftest.random_ggs2_instance(rng, max_m=5)
        trace, cert = ggs2.ggs2_auction(inst)
        assert trace.terminated, "engine must stop before the iteration cap"
        assert trace.anomalies == ()
        assert cert.valid
        rep = oracle.minimal_walrasian_price(inst)
        assert rep is not None, "certificate implies an equilibrium exists"
        assert ggs2.gen_dom_check(inst, trace.final_price, rep.price,
                                  cert.allocation) is None
        if rep.unique:
            assert trace.final_price == rep.price
