"""Pair-cap market engine: classification, matching, and certification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from walras import cli, demand, ggs2, model, oracle
from walras.model import make_additive, make_instance, make_truncation, \
    make_unit_demand

import conftest

seeds = st.integers(0, 2 ** 31 - 1)


def pair_cap(singles, cap):
    return make_truncation(make_additive(singles), 2, cap)


def claim_instance():
    return ggs2.demo_claim_instance()


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
    assert ggs2.min_items((2, 1, 2)) == 0b010
    assert ggs2.min_items((1, 1, 2)) == 0b011


def test_matching_and_hall_witness():
    inst = make_instance(
        ["a", "b"], [make_unit_demand((3, 0)), make_unit_demand((3, 0))])
    g = ggs2.build_demand_graph(inst, (0, 0), (0, 1))
    assert g == {0: (0,), 1: (0,)}
    with pytest.raises(ggs2.HallViolation) as exc:
        ggs2.max_matching(g, must_match=(0, 1))
    assert exc.value.witness == (0, 1)


def test_demand_graph_rejects_players_outside_the_market():
    # -1 would be a key of its own, reading player 1 from the end
    inst = make_instance(
        ["a", "b"], [make_unit_demand((3, 0)), make_unit_demand((3, 0))])
    for players in ((-1, 0), (-3, 1), (0, 2)):
        with pytest.raises(ValueError, match=r"0\.\.1 for n = 2"):
            ggs2.build_demand_graph(inst, (0, 0), players)


def test_matching_cover_is_koenig():
    inst = make_instance(
        ["a", "b", "c"],
        [make_unit_demand((2, 2, 0)), make_unit_demand((2, 0, 0)),
         make_unit_demand((0, 2, 2))])
    g = ggs2.build_demand_graph(inst, (0, 0, 0), (0, 1, 2))
    assert g == {0: (0, 1), 1: (0,), 2: (1, 2)}
    res = ggs2.max_matching(g, must_match=())
    assert len(res.matching) == 3
    assert len(res.cover_players) + len(res.cover_items) == len(res.matching)


def preferential_stop_counts(adj, items, low, must_match):
    """The reference: (n', m') read off the one matching the engine once
    built in three phases. It saturates must_match, re-matches players
    onto items outside low wherever an alternating path allows,
    then grows to maximum size."""
    must = sorted(must_match)
    players_of = {}
    for i, xs in adj.items():
        for x in xs:
            players_of.setdefault(x, []).append(i)

    match_p = {}
    match_i = {}

    def augment(i, seen_items):
        for x in adj[i]:
            if x in seen_items:
                continue
            seen_items.add(x)
            if x not in match_i or augment(match_i[x], seen_items):
                match_p[i] = x
                match_i[x] = i
                return True
        return False

    for i in must:
        seen = set()
        if not augment(i, seen):
            witness = tuple(sorted({i} | {match_i[x] for x in seen}))
            raise ggs2.HallViolation(witness)

    def take_item(x, seen_players):
        for i in players_of.get(x, []):
            if i in seen_players:
                continue
            seen_players.add(i)
            y = match_p.get(i)
            if y is None or low >> y & 1 or take_item(y, seen_players):
                if y is not None and match_i.get(y) == i:
                    del match_i[y]
                match_p[i] = x
                match_i[x] = i
                return True
        return False

    for x in items:
        if not low >> x & 1 and x not in match_i:
            take_item(x, set())

    for i in adj:
        if i not in match_p:
            augment(i, set())

    free_players = [i for i in adj if i not in match_p]
    free_low = low & ~sum(1 << x for x in match_i)
    return len(free_players), model.popcount(free_low)


@settings(max_examples=600, deadline=None)
@given(seeds)
def test_stop_counts_equal_the_preferential_matching(seed):
    # n' and m' are sizes of maximum matchings, so they equal what the
    # three-phase matching leaves free; a failed Hall condition raises the
    # same witness in both
    rng = random.Random(seed)
    players = sorted(rng.sample(range(8), rng.randint(0, 7)))
    m = rng.randint(0, 7)
    density = rng.random()
    g = {i: tuple(x for x in range(m) if rng.random() < density) for i in players}
    low = rng.getrandbits(m)
    must = tuple(i for i in players if rng.random() < 0.3)
    try:
        want = preferential_stop_counts(g, range(m), low, must)
    except ggs2.HallViolation as exc:
        with pytest.raises(ggs2.HallViolation) as got:
            ggs2._stop_counts(g, low, must)
        assert got.value.witness == exc.witness
    else:
        assert ggs2._stop_counts(g, low, must) == want


def test_claim_instance_run():
    trace, cert = ggs2.ggs2_auction(claim_instance())
    assert trace.terminated and trace.anomalies == ()
    assert len(trace.steps) == 2
    assert trace.final_price == (1, 1, 1, 1, 1, 1, 1, 2)
    assert cert.valid
    assert cert.allocation == oracle.max_welfare(claim_instance()).allocation
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


def test_iteration_cap_stops_with_the_empty_allocation(monkeypatch, tmp_path):
    inst = claim_instance()
    assert len(ggs2.ggs2_auction(inst)[0].steps) >= 2
    monkeypatch.setattr(ggs2, "iteration_cap", lambda instance: 1)
    trace, cert = ggs2.ggs2_auction(inst)
    assert trace.iteration_cap_hit and not trace.terminated
    assert trace.anomalies == ("iteration cap 1 hit",)
    assert len(trace.steps) == 1
    assert cert.allocation == (0,) * inst.n
    assert not cert.valid
    path = tmp_path / "claim.json"
    path.write_text(model.instance_to_json(inst))
    assert cli.main(["run", "--instance", str(path), "--algorithm", "ggs2"]) == 2


def test_auction_rejects_non_pair_cap_instances():
    with pytest.raises(ggs2.NotGgs2Instance):
        ggs2.ggs2_auction(make_instance(
            ["a", "b", "c"], [make_additive((1, 1, 1))]))


def test_certificate_json():
    inst = claim_instance()
    _, cert = ggs2.ggs2_auction(inst)
    payload = ggs2.certificate_to_json(cert, inst)
    assert payload["price"]["i8"] == 2
    assert payload["envy_free"] is True
    assert payload["all_positive_priced_allocated"] is True
    assert payload["lyapunov"] == payload["max_welfare"] == 9
    assert payload["allocation"] == [
        inst.label_bundle(b) for b in oracle.max_welfare(inst).allocation]


def test_stop_price_needs_a_zero_utility_buyer():
    # at the stop price (4, 4, 4) the matching gives a to player 0 and b to
    # player 1, and no demanded bundle grown from that takes c; the
    # Walrasian allocation gives c to player 1 and b to the zero-utility
    # player 2
    inst = make_instance(["a", "b", "c"], [
        pair_cap(v, 5) for v in ((5, 1, 5), (0, 5, 5), (4, 4, 3), (4, 3, 3))])
    trace, cert = ggs2.ggs2_auction(inst)
    assert trace.terminated and trace.anomalies == ()
    assert trace.final_price == (4, 4, 4)
    assert cert.valid
    assert cert == oracle.check_allocation(inst, (4, 4, 4), cert.allocation)
    assert oracle.minimal_walrasian_price(inst).price == (4, 4, 4)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_random_corpus_certified(seed):
    # up to six players over at most five items, so zero-utility players
    # are common at the stop price
    inst = conftest.random_ggs2_instance(random.Random(seed), max_m=5, max_n=6)
    trace, cert = ggs2.ggs2_auction(inst)
    assert trace.terminated, "engine must stop before the iteration cap"
    assert trace.anomalies == ()
    assert cert.valid
    rep = oracle.minimal_walrasian_price(inst)
    assert rep is not None, "certificate implies an equilibrium exists"
    assert model.dominated(trace.final_price, rep.price)
    assert demand.lyapunov(inst, trace.final_price) == demand.lyapunov(inst, rep.price)
    if rep.unique:
        assert trace.final_price == rep.price


def test_small_players_see_the_induced_unit_demand_market():
    # the obstacle ggs2 raises for its small players equals the one of
    # the unit-demand market their singleton values define
    rng = random.Random(91)
    seen = 0
    for _ in range(200):
        inst = conftest.random_ggs2_instance(rng, max_m=5)
        p = conftest.random_prices(rng, inst)
        small = ggs2.classify_players(inst, p).small
        if not small:
            continue
        seen += 1
        induced = make_instance(inst.items, [
            make_unit_demand([inst.players[i].table[1 << j]
                              for j in range(inst.m)])
            for i in small])
        assert demand.over_demanded_set(inst, p, players=small) == \
            demand.over_demanded_set(induced, p)
    assert seen > 50
