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


@pytest.mark.parametrize("p_star", [(0,), (9, 9, 9)])
def test_monitor_domination_rejects_a_price_vector_of_the_wrong_length(p_star):
    # a short p_star used to be compared on a prefix only: (0,) gave 1
    trace = auctions.gul_stacchetti(make_instance(["a", "b"], [make_unit_demand((2, 1))] * 2))
    with pytest.raises(ValueError,
                       match=f"price vector has {len(p_star)} entries, instance has 2"):
        auctions.monitor_domination(trace, p_star)
    assert auctions.monitor_domination(trace, (9, 9)) is None


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


def break_point(inst, p, raised):
    """demand.stable_raises from the demand of the market's view at p."""
    return demand.stable_raises(inst, p, raised, *demand.held_demand(inst, p))


def test_stable_raises_break_point():
    inst = two_buyers_one_item()
    # both buyers keep demanding x until its price reaches their value
    assert break_point(inst, (0,), 0b1) == 5
    assert break_point(inst, (3,), 0b1) == 2
    # at 5 each buyer demands x and the empty bundle, which meet x in 1
    # and 0 items: the next raise changes demand
    assert break_point(inst, (5,), 0b1) == 1
    # y worth nothing and priced 1: nobody demands it, so raising it
    # never changes demand
    solo = make_instance(["x", "y"], [make_unit_demand((4, 0))])
    assert break_point(solo, (0, 1), 0b10) is None
    # the empty bundle closes its gap of 5 by 2 per raise, a singleton its
    # gap of 4 by 1: the break comes after ceil(5 / 2) = 3 raises
    pair = make_instance(["x", "y"], [make_table(2, (0, 1, 1, 5))] * 2)
    assert demand.demand_sets(pair.players[0], (0, 0)).demand == (0b11,)
    assert break_point(pair, (0, 0), 0b11) == 3
    # it reads the demand it is given, not the market's views
    assert demand.stable_raises(inst, (3,), 0b1, (2, 2), ((0b1,), (0b1,))) == 2
    assert demand.stable_raises(inst, (3,), 0b1, (2, 2), ((0b1,), (0, 0b1))) == 1


def test_demand_families_match_the_views():
    rng = random.Random(12)
    for _ in range(40):
        inst = conftest.random_monotone_instance(rng)
        p = conftest.random_prices(rng, inst)
        assert demand.demand_families(inst, p) == tuple(
            r.demand for r in demand.demand_reports(inst, p))


def unit_step(instance, algorithm, pick):
    """The unit-step loop that gs's long steps and fine's replays replace,
    kept as the reference: pick chooses the raise from the obstacle."""
    cap = auctions.iteration_cap(instance)
    p = instance.zero_prices()
    steps, anomalies = [], []
    lyap = demand.lyapunov(instance, p)
    while True:
        ob = demand.over_demanded_set(instance, p)
        if ob.excess <= 0:
            return auctions.AuctionTrace(algorithm, tuple(steps), p, False,
                                         tuple(anomalies))
        if len(steps) >= cap:
            anomalies.append(f"iteration cap {cap} hit")
            return auctions.AuctionTrace(algorithm, tuple(steps), p, True,
                                         tuple(anomalies))
        raised = pick(ob.bundle)
        f_val = demand.excess_demand(instance, p, raised)
        steps.append(auctions.AuctionStep(len(steps), p, raised, lyap, f_val,
                                          ob.unique))
        p = model.add_indicator(p, raised)
        new_lyap = demand.lyapunov(instance, p)
        if new_lyap > lyap:
            anomalies.append(f"lyapunov rose at step {len(steps) - 1}")
        lyap = new_lyap


def unit_step_gs(instance):
    return unit_step(instance, "gs", lambda bundle: bundle)


def unit_step_fine(instance):
    return unit_step(instance, "fine", lambda bundle: bundle & -bundle)


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


def deep_style_market():
    """A seeded unit-demand market like the benchmark's deep ones: 9 buyers,
    6 items worth 512..1024 each."""
    rng = random.Random(2016)
    return make_instance([f"i{j}" for j in range(6)], [
        make_unit_demand([rng.randint(512, 1024) for _ in range(6)])
        for _ in range(9)])


def test_long_steps_build_few_views(monkeypatch):
    # a deep-style unit-demand market: about 1,000 unit steps, but a view
    # only where some player's demand changes
    inst = deep_style_market()
    built = set()
    view = demand._market

    def counting(instance, prices):
        built.add((id(instance), tuple(prices)))
        return view(instance, prices)

    monkeypatch.setattr(demand, "_market", counting)
    trace = auctions.gul_stacchetti(inst)
    assert trace.terminated and len(trace.steps) > 800
    assert len(built) < 60
    monkeypatch.setattr(demand, "_market", view)
    assert trace == unit_step_gs(inst)


def wide_unit_demand_instance(rng):
    """Unit-demand buyers valuing items up to 1024: runs long enough for
    fine's rounds to repeat, where the vmax-8 corpora stop too soon."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    return make_instance([f"i{j}" for j in range(m)], [
        make_unit_demand([rng.randint(0, 1024) for _ in range(m)]) for _ in range(n)])


def wide_monotone_instance(rng):
    """Monotone tables with values up to 1024, usually not gross substitutes."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    players = []
    for _ in range(n):
        table = [0] * (1 << m)
        for s in range(1, 1 << m):
            floor = max(table[s & ~(1 << j)] for j in range(m) if s >> j & 1)
            table[s] = min(1024, floor + rng.choice((0, rng.randint(1, 512))))
        players.append(make_table(m, table))
    return make_instance([f"i{j}" for j in range(m)], players)


FINE_MARKETS = {**MARKETS, "wide_unit": wide_unit_demand_instance,
                "wide_monotone": wide_monotone_instance}


def copied_spans(run, inst):
    """The engine's trace and the [begin, end) ranges of the steps it
    appended without a view of their own."""
    spans = []
    real = auctions._append_rounds

    def spy(steps, anomalies, replay, lyap, cap):
        begin = len(steps)
        out = real(steps, anomalies, replay, lyap, cap)
        spans.append((begin, len(steps)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auctions, "_append_rounds", spy)
        return run(inst), spans


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FINE_MARKETS)), st.integers(0, 2 ** 32 - 1),
       st.floats(0, 1))
def test_round_replays_equal_unit_steps(kind, seed, cut):
    inst = FINE_MARKETS[kind](random.Random(seed))
    full = unit_step_fine(inst)
    trace, spans = copied_spans(auctions.fine_auction, inst)
    assert trace == full
    if len(full.steps) < 2:
        return
    # a cap inside a replay when there was one, so that it cuts the copies
    if spans:
        begin, end = spans[int(cut * (len(spans) - 1))]
        cap = begin + 1 + int(cut * (end - begin - 1))
    else:
        cap = 1 + int(cut * (len(full.steps) - 2))
    cap = min(cap, len(full.steps) - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auctions, "iteration_cap", lambda instance: cap)
        capped = auctions.fine_auction(inst)
        assert capped.iteration_cap_hit and len(capped.steps) == cap
        assert capped == unit_step_fine(inst)


def test_wide_markets_replay_rounds():
    # the hypothesis test above meets few replays on the vmax-8 corpora;
    # here every kind of wide market must replay, and match step for step
    rng = random.Random(1024)
    for make in (wide_unit_demand_instance, wide_monotone_instance):
        copied = 0
        for _ in range(8):
            inst = make(rng)
            trace, spans = copied_spans(auctions.fine_auction, inst)
            assert trace == unit_step_fine(inst)
            copied += sum(end - begin for begin, end in spans)
        assert copied > 1000, make.__name__


def test_anomalies_inside_copies_match_unit_steps():
    # a monotone market whose replays copy Lyapunov rises: the copies must
    # record each at the step the unit-step loop does, also when the cap
    # cuts a replay, and at 470 the capped step's own value is a rise
    inst = wide_monotone_instance(random.Random(34))
    trace, spans = copied_spans(auctions.fine_auction, inst)
    assert spans == [(3, 18), (21, 157), (161, 281), (284, 444), (453, 483), (486, 532)]
    assert len(trace.steps) == 532 and len(trace.anomalies) == 13
    rose = [int(a.rsplit(" ", 1)[1]) for a in trace.anomalies]
    assert sum(any(b <= t < e for b, e in spans) for t in rose) == 10
    assert trace == unit_step_fine(inst)
    for cap in (100, 470):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auctions, "iteration_cap", lambda instance: cap)
            capped = auctions.fine_auction(inst)
            assert capped.iteration_cap_hit and len(capped.steps) == cap
            assert capped == unit_step_fine(inst)


def test_copies_are_exact_past_int64():
    # three players value each item past 2**62, so the Lyapunov value at
    # zero prices passes 2**63: every copied value must stay exact
    rng = random.Random(2016)
    inst = make_instance([f"i{j}" for j in range(4)], [
        make_unit_demand([(1 << 62 if i < 3 else 0) + rng.randint(512, 1024)
                          for _ in range(4)])
        for i in range(7)])
    assert demand.lyapunov(inst, inst.zero_prices()) == 13_835_058_055_282_170_183
    for run, reference, steps, copies in (
            (auctions.gul_stacchetti, unit_step_gs, 962, 956),
            (auctions.fine_auction, unit_step_fine, 3568, 3501)):
        trace, spans = copied_spans(run, inst)
        assert len(trace.steps) == steps
        assert sum(end - begin for begin, end in spans) == copies
        assert trace == reference(inst)


def test_fine_replays_build_few_views():
    # over 5,000 fine steps on the market where gs takes long steps, nearly
    # all of them copies of a round that repeats; the planner keeps the
    # demand it read at each step of a round, so a memo that holds one view
    # replays as often as the default one
    inst = deep_style_market()
    view = demand._market
    for entries in (demand.MEMO_ENTRIES, 1):
        built = set()

        def counting(instance, prices):
            built.add((id(instance), tuple(prices)))
            return view(instance, prices)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(demand, "MEMO_ENTRIES", entries)
            mp.setattr(demand, "_memo", demand._Memo())
            mp.setattr(demand, "_market", counting)
            trace = auctions.fine_auction(inst)
        assert trace.terminated and len(trace.steps) > 5000
        assert len(built) < len(trace.steps) / 10
        assert trace == unit_step_fine(inst)


def test_fine_rebuilds_only_the_rows_its_raise_meets(monkeypatch):
    # fine raises one item per step, and a view built from the one before
    # rescans only the rows of the players whose demand meets that item
    inst = deep_style_market()
    built, rebuilt = set(), set()
    stale = rows = 0
    view, row = demand._market, demand._row

    def counting_views(instance, prices):
        nonlocal stale
        prices = tuple(prices)
        memo = demand._memo
        # the view returned last, at prices at or below these, is the base
        from_lower = (memo.owner is instance and prices not in memo.views
                      and memo.prices is not None
                      and all(q >= b for q, b in zip(prices, memo.prices)))
        built.add((id(instance), prices))
        before = rows
        got = view(instance, prices)
        if from_lower:
            rebuilt.add((id(instance), prices))
            stale += rows - before
        return got

    def counting_rows(*args):
        nonlocal rows
        rows += 1
        return row(*args)

    monkeypatch.setattr(demand, "_market", counting_views)
    monkeypatch.setattr(demand, "_row", counting_rows)
    trace = auctions.fine_auction(inst)
    assert trace.terminated and len(trace.steps) > 1000
    assert rebuilt
    assert stale < inst.n * len(built) / 3


def test_unit_step_engines_never_take_long_steps(monkeypatch):
    # ausubel's rule reads utilities outside the demand families, and a
    # policy reads the price, the step index and its own random state, so
    # neither may skip a step; fine replays rounds (on this market, whose
    # one-item round repeats for 40 steps, it does)
    inst = make_instance(["x"], [make_unit_demand((40,)), make_unit_demand((40,))])
    calls = []
    real = demand.stable_raises
    monkeypatch.setattr(demand, "stable_raises",
                        lambda *args: calls.append(args) or real(*args))
    auctions.fine_auction(inst)
    assert calls

    def refuse(*args):
        raise AssertionError("stable_raises called")

    monkeypatch.setattr(demand, "stable_raises", refuse)
    for market in (two_buyers_one_item(), inst):
        auctions.ausubel_ascending(market)
        auctions.run_with_policy(market, auctions.seeded_policy(3))


def test_lyapunov_falls_by_at_most_the_excess(monkeypatch):
    # understating f by one makes the true fall look too deep
    real = demand.excess_demand
    monkeypatch.setattr(demand, "excess_demand",
                        lambda inst, p, bundle: real(inst, p, bundle) - 1)
    with pytest.raises(walras.InvariantViolation, match="more than the excess"):
        auctions.gul_stacchetti(two_buyers_one_item())


def test_replayed_lyapunov_value_must_match_the_view(monkeypatch):
    # a round's fall understated by one puts the first copy's Lyapunov
    # value above the one the view reads at the same price
    real = auctions._round_at

    def understated(*args):
        replay = real(*args)
        return replay and replay._replace(falls=tuple(f - 1 for f in replay.falls))

    monkeypatch.setattr(auctions, "_round_at", understated)
    with pytest.raises(walras.InvariantViolation, match="replayed Lyapunov value"):
        auctions.fine_auction(deep_style_market())


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
        demand.stable_raises = lambda *args: real(*args) + 1
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


def test_overstated_round_break_point_survives_python_O():
    # fine's replays check the last copied price of every position of the
    # round against round 0's demand, from the raw value tables, so one
    # round too many fails there, also where an assert would vanish
    code = textwrap.dedent("""
        import random
        import sys
        import walras
        from walras import auctions, demand
        from walras.model import make_instance, make_unit_demand

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        rng = random.Random(2016)
        inst = make_instance([f"i{j}" for j in range(6)], [
            make_unit_demand([rng.randint(512, 1024) for _ in range(6)])
            for _ in range(9)])
        assert auctions.fine_auction(inst).terminated
        real = demand.stable_raises
        demand.stable_raises = lambda *args: real(*args) + 1
        try:
            trace = auctions.fine_auction(inst)
        except walras.InvariantViolation as e:
            sys.exit(0 if "round 0" in str(e) else f"wrong check: {e}")
        sys.exit(f"no InvariantViolation, trace of {len(trace.steps)} steps")
    """)
    src = str(Path(walras.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr + out.stdout
