"""Seeded workloads: input generators, ops and their verification.

A workload turns (seed, batches) into a list of cases, loaded through the
public walras constructors, and each case into a fixed list of ops. An op
is one engine run or oracle/structure query together with its check; it
returns (verdict, record), where record feeds the result digest. Every walras
function is looked up on its module when called, so the tracer's wrappers
see the call.

Batch k of ladder, deep and paircap draws from its own generator seeded
by (workload, seed, k). The corpus workload continues the four seeded
streams of the acceptance suite, so batch 0 at seed 20260815 is exactly
the criteria 3-9 corpora of tests/test_acceptance.py.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import string
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from walras import auctions, demand, ggs2, model, oracle, structure

import checks


class Tally:
    """Counts gathered from op results rather than from the tracer."""

    def __init__(self):
        self.steps = 0              # auction steps of the auctions engines
        self.pinf = 0               # sum of max final price of those runs
        self.positive = 0           # soundness pairs with positive excess

    def auction(self, trace) -> None:
        self.steps += len(trace.steps)
        self.pinf += max(trace.final_price, default=0)


Op = tuple[str, Callable[[Tally], tuple[str, tuple]]]


def raises(trace) -> tuple[int, ...]:
    return tuple(s.raised for s in trace.steps)


def instance_bytes(inst) -> bytes:
    parts = [",".join(inst.items).encode()]
    for v in inst.players:
        parts.append(np.asarray(v.table, dtype=np.int64).tobytes())
    return b"|".join(parts)


def digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()[:16]


def labels(m: int) -> list[str]:
    return [f"i{j}" for j in range(m)]


# ---------------------------------------------------------------------------
# assignment markets: ladder and deep

ENGINES = {"gs": "gul_stacchetti", "fine": "fine_auction",
           "ausubel": "ausubel_ascending"}


@dataclass
class SlotMarket:
    """An assignment market with its slot specs, for independent checks."""
    instance: object
    specs: list
    engines: tuple[str, ...]
    welfare: Optional[int] = None
    finals: dict = field(default_factory=dict)

    def key(self) -> bytes:
        return instance_bytes(self.instance) + repr(self.engines).encode()


def oxs2_table(m: int, w0: list[int], w1: list[int]) -> list[int]:
    """Value table of a two-slot OXS valuation, built one item at a time.

    A bundle's value is its best matching to the two slots: an item either
    joins no slot, or takes a slot the best item of the rest left free.
    """
    val = np.zeros(1, dtype=np.int64)
    best0 = np.zeros(1, dtype=np.int64)
    best1 = np.zeros(1, dtype=np.int64)
    for j in range(m):
        nb0 = np.maximum(best0, w0[j])
        nb1 = np.maximum(best1, w1[j])
        nval = np.maximum.reduce([val, w0[j] + best1, w1[j] + best0, nb0, nb1])
        val = np.concatenate([val, nval])
        best0 = np.concatenate([best0, nb0])
        best1 = np.concatenate([best1, nb1])
    return val.tolist()


def engine_op(market: SlotMarket, engine: str) -> Callable:
    def run(tally: Tally) -> tuple[str, tuple]:
        trace = getattr(auctions, ENGINES[engine])(market.instance)
        tally.auction(trace)
        p = trace.final_price
        # fine raises one item of the obstacle at a time, which may raise the
        # Lyapunov value on the way; gs and ausubel walk it strictly down
        reported_ok = (trace.terminated and not trace.iteration_cap_hit
                       and (engine == "fine" or not trace.anomalies))
        if market.welfare is None:
            market.welfare = checks.slot_welfare(market.specs)
        verified = (checks.slot_lyapunov(market.specs, p) == market.welfare
                    and all(q == p for q in market.finals.values()))
        market.finals[engine] = p
        record = (engine, p, raises(trace), len(trace.anomalies), market.welfare)
        return checks.verdict(reported_ok, verified), record
    return run


def slot_ops(market: SlotMarket) -> list[Op]:
    m = market.instance.m
    return [(f"{e} m={m}", engine_op(market, e)) for e in market.engines]


LADDER_RUNGS = range(8, 15)
LADDER_VMAX = 64
LADDER_COVERAGE = {"gs": 14, "fine": 12, "ausubel": 10}   # largest m per engine


def ladder_market(rng: random.Random, m: int) -> SlotMarket:
    specs, players = [], []
    for i in range(m + 3):
        if i % 2 == 0:
            vals = [rng.randint(0, LADDER_VMAX) for _ in range(m)]
            specs.append(("unit", vals))
            players.append(model.make_unit_demand(vals))
        else:
            cut = rng.randint(1, LADDER_VMAX - 1)
            w0 = [rng.randint(0, cut) for _ in range(m)]
            w1 = [rng.randint(0, LADDER_VMAX - cut) for _ in range(m)]
            specs.append(("oxs2", w0, w1))
            players.append(model.make_table(m, oxs2_table(m, w0, w1)))
    engines = tuple(e for e, top in LADDER_COVERAGE.items() if m <= top)
    return SlotMarket(model.make_instance(labels(m), players), specs, engines)


def ladder_batch(seed: int, k: int) -> list:
    rng = random.Random(f"ladder/{seed}/{k}")
    return [ladder_market(rng, m) for m in LADDER_RUNGS]


# the largest rung twice in every batch of deep and paircap, so that the
# median and the tail op fall inside one size class, not between two
DEEP_RUNGS = (6, 7, 8, 8)
DEEP_VMAX = 1024


def deep_market(rng: random.Random, m: int, engines: tuple[str, ...]) -> SlotMarket:
    items = labels(m)
    vals = [[rng.randint(DEEP_VMAX // 2, DEEP_VMAX) for _ in range(m)]
            for _ in range(m + 3)]
    doc = {"items": items, "players": [
        {"type": "unit_demand", "values": dict(zip(items, v))} for v in vals]}
    inst = model.instance_from_json(json.dumps(doc), vmax=DEEP_VMAX)
    return SlotMarket(inst, [("unit", v) for v in vals], engines)


def deep_batch(seed: int, k: int) -> list:
    # gs runs on every market; fine, six times slower, on one of the first
    # three markets in turn, so each rung meets both engines every three
    # batches
    rng = random.Random(f"deep/{seed}/{k}")
    return [deep_market(rng, m, ("gs", "fine") if i == k % 3 else ("gs",))
            for i, m in enumerate(DEEP_RUNGS)]


# ---------------------------------------------------------------------------
# pair-cap markets

@dataclass
class PairCapMarket:
    instance: object
    singles: list
    cap: int

    def key(self) -> bytes:
        return instance_bytes(self.instance)


PAIRCAP_RUNGS = (8, 9, 10, 11, 11)


def paircap_market(rng: random.Random, m: int) -> PairCapMarket:
    cap = rng.randint(11, 13)
    singles, players = [], []
    for _ in range(m + 3):
        # two singletons always sum to at least the cap, which keeps the
        # truncation submodular
        s = [rng.randint((cap + 1) // 2, cap) for _ in range(m)]
        table = [cap if mask & (mask - 1) else (s[mask.bit_length() - 1] if mask else 0)
                 for mask in range(1 << m)]
        singles.append(s)
        players.append(model.make_table(m, table))
    return PairCapMarket(model.make_instance(labels(m), players), singles, cap)


def paircap_batch(seed: int, k: int) -> list:
    rng = random.Random(f"paircap/{seed}/{k}")
    return [paircap_market(rng, m) for m in PAIRCAP_RUNGS]


def paircap_ops(market: PairCapMarket) -> list[Op]:
    return [(f"ggs2 m={market.instance.m}", paircap_op(market))]


def paircap_op(market: PairCapMarket) -> Callable:
    def run(tally: Tally) -> tuple[str, tuple]:
        trace, cert = ggs2.ggs2_auction(market.instance)
        p = trace.final_price
        reported_ok = (trace.terminated and not trace.iteration_cap_hit
                       and not trace.anomalies and cert.valid)
        welfare = checks.paircap_equilibrium(market.singles, market.cap, p,
                                             cert.allocation)
        lyap = sum(checks.paircap_utility(s, market.cap, p)
                   for s in market.singles) + sum(p)
        verified = (cert.price == p and welfare is not None
                    and welfare == cert.max_welfare == lyap)
        record = ("ggs2", p, raises(trace), cert.allocation, cert.envy_free,
                  cert.coverage, cert.bm_equality, cert.lyapunov, cert.max_welfare)
        return checks.verdict(reported_ok, verified), record
    return run


# ---------------------------------------------------------------------------
# acceptance corpora; the generators replay tests/conftest.py draw for draw

CORPUS_VMAX = 8


def corpus_labels(m: int) -> list[str]:
    return list(string.ascii_lowercase[:m])


def assignment_table(m: int, weights: list[list[int]]) -> list[int]:
    slots = range(len(weights[0]))
    table = [0] * (1 << m)
    for s in range(1, 1 << m):
        members = [j for j in range(m) if s >> j & 1]
        best = 0
        for assigned in itertools.permutations(slots, min(len(members), len(slots))):
            for chosen in itertools.combinations(members, len(assigned)):
                best = max(best, sum(weights[j][t] for j, t in zip(chosen, assigned)))
        table[s] = best
    return table


def random_gs_valuation(rng: random.Random, m: int):
    vmax = CORPUS_VMAX
    kind = rng.choice(("unit", "additive", "assignment"))
    if kind == "unit":
        return model.make_unit_demand([rng.randint(0, vmax) for _ in range(m)])
    if kind == "additive":
        budget = vmax
        singles = []
        for _ in range(m):
            x = rng.randint(0, min(3, budget))
            singles.append(x)
            budget -= x
        rng.shuffle(singles)
        return model.make_additive(singles)
    k = rng.randint(1, min(3, m))
    parts = sorted(rng.sample(range(1, vmax), k - 1)) if k > 1 else []
    bounds = [b - a for a, b in zip([0] + parts, parts + [vmax])]
    weights = [[rng.randint(0, bounds[t]) for t in range(k)] for _ in range(m)]
    return model.make_table(m, assignment_table(m, weights))


def random_gs_instance(rng: random.Random, max_m: int = 6, max_n: int = 4):
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    players = [random_gs_valuation(rng, m) for _ in range(n)]
    return model.make_instance(corpus_labels(m), players)


def random_ggs2_valuation(rng: random.Random, m: int, cap: int):
    while True:
        singles = [rng.randint(0, cap) for _ in range(m)]
        if sum(sorted(singles)[:2]) >= cap:
            return model.make_truncation(model.make_additive(singles), 2, cap)


def random_ggs2_instance(rng: random.Random, max_m: int = 6, max_n: int = 4,
                         max_cap: int = 8):
    m = rng.randint(2, max_m)
    n = rng.randint(1, max_n)
    cap = rng.randint(1, max_cap)
    players = [random_ggs2_valuation(rng, m, cap) for _ in range(n)]
    return model.make_instance(corpus_labels(m), players)


def random_monotone_valuation(rng: random.Random, m: int):
    table = [0] * (1 << m)
    for s in range(1, 1 << m):
        floor = max(table[s & ~(1 << j)] for j in range(m) if s >> j & 1)
        table[s] = min(CORPUS_VMAX, floor + rng.choice((0, 0, 1, 2)))
    return model.make_table(m, table)


def random_monotone_instance(rng: random.Random, max_m: int = 5, max_n: int = 4):
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    players = [random_monotone_valuation(rng, m) for _ in range(n)]
    return model.make_instance(corpus_labels(m), players)


def random_prices(rng: random.Random, inst, hi: Optional[int] = None) -> tuple[int, ...]:
    top = inst.vmax + 1 if hi is None else hi
    return tuple(rng.randint(0, top) for _ in range(inst.m))


def random_bundle(rng: random.Random, m: int) -> int:
    return rng.randint(0, (1 << m) - 1)


@dataclass
class CorpusCase:
    kind: str                       # "gs", "lemma", "ggs2" or "sound"
    instance: object
    extra: tuple = ()               # prices and bundles drawn with the instance

    def key(self) -> bytes:
        return self.kind.encode() + instance_bytes(self.instance) + repr(self.extra).encode()


class CorpusStreams:
    """The four seeded streams; the first batch replays the acceptance corpora."""

    GS, LEMMA, GGS2, SOUND = 200, 500, 200, 500     # cases per batch

    def __init__(self, seed: int):
        self.gs = random.Random(seed)
        self.lemma = random.Random(seed + 6)
        self.ggs2 = random.Random(seed + 7)
        self.sound = random.Random(seed + 8)

    def lemma_case(self) -> CorpusCase:
        rng = self.lemma
        inst = random_gs_instance(rng)
        p = random_prices(rng, inst)
        s = random_bundle(rng, inst.m)
        j = rng.randrange(inst.m)
        q = random_prices(rng, inst)
        bigger = s | random_bundle(rng, inst.m)
        return CorpusCase("lemma", inst, (p, s, j, q, bigger))

    def sound_case(self) -> CorpusCase:
        rng = self.sound
        kind = rng.choice(("gs", "ggs2", "mono"))
        if kind == "gs":
            inst = random_gs_instance(rng, max_m=4)
        elif kind == "ggs2":
            inst = random_ggs2_instance(rng, max_m=4)
        else:
            inst = random_monotone_instance(rng, max_m=4)
        return CorpusCase("sound", inst, (random_prices(rng, inst, hi=3),))

    def batch(self) -> list:
        out = [CorpusCase("gs", random_gs_instance(self.gs)) for _ in range(self.GS)]
        out += [self.lemma_case() for _ in range(self.LEMMA)]
        out += [CorpusCase("ggs2", random_ggs2_instance(self.ggs2))
                for _ in range(self.GGS2)]
        out += [self.sound_case() for _ in range(self.SOUND)]
        return out


def seeded_policy(seed: int):
    """The criterion-9 policy: raise a random nonempty part of the obstacle."""
    rng = random.Random(seed)

    def policy(ob, prices, t):
        items = [j for j in range(len(prices)) if ob.bundle >> j & 1]
        take = rng.randint(1, len(items))
        return sum(1 << j for j in rng.sample(items, take))

    return policy


POLICY_SEEDS = range(10)


def corpus_gs_op(inst) -> Callable:
    def run(tally: Tally) -> tuple[str, tuple]:
        gul = auctions.gul_stacchetti(inst)
        aus = auctions.ausubel_ascending(inst)
        fine = auctions.fine_auction(inst)
        for t in (gul, aus, fine):
            tally.auction(t)
        # criterion 3: identical price paths and endpoints
        reported_ok = gul.terminated and aus.terminated and fine.terminated
        ok = ([(s.price_before, s.raised) for s in gul.steps]
              == [(s.price_before, s.raised) for s in aus.steps]
              and gul.final_price == aus.final_price)
        # criteria 4 and 5: endpoints are the minimal Walrasian price and
        # every path stays below it
        star = oracle.minimal_walrasian_price(inst)
        welfare = oracle.max_welfare(inst).welfare
        ok = ok and star is not None
        ok = ok and {gul.final_price, aus.final_price,
                     fine.final_price} == {star.price}
        ok = ok and demand.lyapunov(inst, gul.final_price) == welfare
        ok = ok and all(auctions.monitor_domination(t, star.price) is None
                        for t in (gul, aus, fine))
        # criterion 9: any policy inside the obstacle ends at the same price
        policy_raises = []
        for seed in POLICY_SEEDS:
            t = auctions.run_with_policy(inst, seeded_policy(seed),
                                         name=f"policy:{seed}")
            tally.auction(t)
            reported_ok = reported_ok and t.terminated
            ok = ok and t.final_price == gul.final_price
            policy_raises.append(raises(t))
        record = ("gs", gul.final_price, raises(gul), raises(fine),
                  star and star.price, star and star.unique, welfare,
                  tuple(policy_raises))
        return checks.verdict(reported_ok, ok), record
    return run


def corpus_lemma_op(inst, extra) -> Callable:
    p, s, j, q, bigger = extra

    def run(tally: Tally) -> tuple[str, tuple]:
        # criterion 6, one tuple
        violations = 0
        shifted = model.add_indicator(p, s)
        seen = []
        for v in inst.players:
            drop = demand.min_demand_overlap(v, p, s)
            base = demand.demand_sets(v, p)
            if demand.demand_sets(v, shifted).utility != base.utility - drop:
                violations += 1
            if drop > demand.min_demand_overlap(v, p, bigger):
                violations += 1
            if structure.check_matroid_bases(base.minimal_demand) is not None:
                violations += 1
            try:
                kind = structure.classify_transition(v, p, j).kind
            except structure.UnclassifiableTransition:
                kind = None
                violations += 1
            gap = structure.check_utility_distance(v, p, s)
            if not gap.ok:
                violations += 1
            seen.append((drop, base.minimal_demand, kind, gap.gap, gap.demanded))
        join = tuple(max(a, b) for a, b in zip(p, q))
        meet = tuple(min(a, b) for a, b in zip(p, q))
        lhs = demand.lyapunov(inst, join) + demand.lyapunov(inst, meet)
        rhs = demand.lyapunov(inst, p) + demand.lyapunov(inst, q)
        if lhs > rhs:
            violations += 1
        return checks.verdict(True, violations == 0), ("lemma", tuple(seen), lhs, rhs)
    return run


def corpus_ggs2_op(inst) -> Callable:
    def run(tally: Tally) -> tuple[str, tuple]:
        # criterion 7
        trace, cert = ggs2.ggs2_auction(inst)
        existence = oracle.minimal_walrasian_price(inst)
        reported_ok = (trace.terminated and not trace.iteration_cap_hit
                       and not trace.anomalies and cert.valid)
        record = ("ggs2", trace.final_price, raises(trace), cert.allocation,
                  cert.max_welfare, existence and existence.price)
        return checks.verdict(reported_ok, existence is not None), record
    return run


def corpus_sound_op(inst, extra) -> Callable:
    (p,) = extra

    def run(tally: Tally) -> tuple[str, tuple]:
        # criterion 8: a positive excess rules out an envy-free allocation
        ob = demand.over_demanded_set(inst, p)
        alloc = None
        if ob.excess > 0:
            tally.positive += 1
            alloc = oracle.envy_free_exists(inst, p)
        record = ("sound", ob.bundle, ob.excess, ob.unique, ob.per_player, alloc)
        return checks.verdict(True, alloc is None), record
    return run


def corpus_ops(case: CorpusCase) -> list[Op]:
    if case.kind == "gs":
        return [("corpus gs", corpus_gs_op(case.instance))]
    if case.kind == "lemma":
        return [("corpus lemma", corpus_lemma_op(case.instance, case.extra))]
    if case.kind == "ggs2":
        return [("corpus ggs2", corpus_ggs2_op(case.instance))]
    return [("corpus sound", corpus_sound_op(case.instance, case.extra))]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    # wall seconds of one batch on the parent of the commit that defined the
    # benchmark; a run does round(--seconds / batch_seconds) batches, so both
    # sides of a comparison run the same inputs
    batch_seconds: float
    generate: Callable[[int, int], list]
    ops: Callable[[object], list]

    def batches(self, seconds: float) -> int:
        return max(1, round(seconds / self.batch_seconds))

    def op_list(self, cases: list) -> list[Op]:
        return [op for case in cases for op in self.ops(case)]


def per_batch(make_batch) -> Callable[[int, int], list]:
    def generate(seed: int, batches: int) -> list:
        return [case for k in range(batches) for case in make_batch(seed, k)]
    return generate


def corpus_generate(seed: int, batches: int) -> list:
    streams = CorpusStreams(seed)
    return [case for _ in range(batches) for case in streams.batch()]


WORKLOADS = {
    w.name: w for w in (
        Workload("ladder", 1301, 4.5, per_batch(ladder_batch), slot_ops),
        Workload("deep", 1153, 3.0, per_batch(deep_batch), slot_ops),
        Workload("corpus", 20260815, 5.0, corpus_generate, corpus_ops),
        Workload("paircap", 2013, 1.7, per_batch(paircap_batch), paircap_ops),
    )
}
