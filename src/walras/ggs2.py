"""Ascending auction for pair-capped truncation markets.

Every player values all bundles of two or more items at one shared
constant, so demand below that cap is driven by singletons and pairs
only. The engine alternates two moves: while some player demands only
singletons and those players cannot all be matched to distinct items,
it runs one step of the substitutes auction induced on them; once a
saturating matching exists it counts unmatched players n' against
unmatched minimum-price items m' and either stops (2n' <= m') or
raises every minimum-price item by one and rebuilds. Both counts come
from the sizes of two maximum matchings of the singleton demand graph
(a dict of adjacency lists), not from whichever maximum matching a
routine happens to build.

At the stop price the allocation is not rebuilt from the matching: the
oracle certifies the price by strong duality, and its certificate carries
the welfare DP's allocation, which is Walrasian whenever the price is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import demand, oracle
from .auctions import AuctionStep, AuctionTrace, iteration_cap
from .model import (
    Instance, InvariantViolation, Prices, add_indicator, check_players, make_instance,
    make_truncation, make_unit_demand, popcount, prices_to_json,
)


class NotGgs2Instance(ValueError):
    """A valuation lacks the constant-above-singletons truncation shape."""


class HallViolation(RuntimeError):
    """A player set with fewer neighboring items than members."""

    def __init__(self, witness: tuple[int, ...]):
        super().__init__(f"players {witness} share too few items")
        self.witness = witness


@dataclass(frozen=True)
class PlayerClass:
    small: tuple[int, ...]          # positive utility, singleton demands only
    pair_players: tuple[int, ...]   # positive utility, some demanded pair
    empty_demand: tuple[int, ...]   # zero utility; set aside


@dataclass(frozen=True)
class MatchingResult:
    matching: tuple[tuple[int, int], ...]
    cover_players: tuple[int, ...]
    cover_items: tuple[int, ...]


def common_cap(instance: Instance) -> Optional[int]:
    """The shared constant on multi-item bundles, or None when no pairs exist.

    Raises NotGgs2Instance if any player breaks the shape or caps differ.
    """
    if instance.m < 2:
        return None
    cap = None
    for i, v in enumerate(instance.players):
        table = v.np_table.tolist()
        mine = table[-1]
        for s in range(1 << instance.m):
            size = popcount(s)
            if size >= 2 and table[s] != mine:
                raise NotGgs2Instance(f"player {i}: multi-item values vary")
            if size == 1 and table[s] > mine:
                raise NotGgs2Instance(f"player {i}: singleton above the cap")
        if cap is None:
            cap = mine
        elif mine != cap:
            raise NotGgs2Instance(f"player {i}: cap {mine} differs from {cap}")
    return cap


def classify_players(instance: Instance, prices: Prices) -> PlayerClass:
    """Partition players by their demand at these prices.

    Zero-utility players (empty set demanded) are set aside; the rest are
    small when every demanded bundle is a singleton, pair players when some
    demanded bundle has two or more items. The pair-cap shape is not
    checked here; common_cap checks it.
    """
    small, pairs, empty = [], [], []
    for r in demand.demand_reports(instance, prices):
        if r.utility == 0:
            empty.append(r.player)
        elif any(popcount(s) >= 2 for s in r.demand):
            pairs.append(r.player)
        else:
            small.append(r.player)
    return PlayerClass(tuple(small), tuple(pairs), tuple(empty))


def min_items(prices: Prices) -> int:
    """The mask of the minimum-price items."""
    low = min(prices)
    return sum(1 << j for j, x in enumerate(prices) if x == low)


def build_demand_graph(instance: Instance, prices: Prices,
                       players: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Each player, in increasing order, mapped to the items x, in
    increasing order, whose singleton {x} it demands."""
    check_players(players, instance.n)
    reports = demand.demand_reports(instance, tuple(prices))
    return {i: tuple(s.bit_length() - 1 for s in reports[i].demand
                     if popcount(s) == 1)
            for i in sorted(players)}


def max_matching(g: dict[int, Sequence[int]], must_match: Sequence[int]) -> MatchingResult:
    """Deterministic maximum matching saturating must_match, trying the
    players of g and their items in g's order.

    Saturates must_match first (raising HallViolation with a witness set
    when impossible), then grows to maximum size by augmenting paths,
    which never unmatch a player. The returned cover is the standard
    alternating-reachability construction and always has the same size as
    the matching.
    """
    must = sorted(must_match)
    if set(must) - g.keys():
        raise ValueError("must_match outside the graph")

    match_p: dict[int, int] = {}
    match_i: dict[int, int] = {}

    def augment(i: int, seen_items: set[int]) -> bool:
        for x in g[i]:
            if x in seen_items:
                continue
            seen_items.add(x)
            if x not in match_i or augment(match_i[x], seen_items):
                match_p[i] = x
                match_i[x] = i
                return True
        return False

    for i in must:
        seen: set[int] = set()
        if not augment(i, seen):
            # the failed search closes under neighbors, so the players
            # matched into the seen items plus i overfill those items
            witness = tuple(sorted({i} | {match_i[x] for x in seen}))
            raise HallViolation(witness)

    for i in g:
        if i not in match_p:
            augment(i, set())

    # alternating reachability from unmatched players yields the cover
    reach_p: set[int] = {i for i in g if i not in match_p}
    reach_i: set[int] = set()
    frontier = list(reach_p)
    while frontier:
        i = frontier.pop()
        for x in g[i]:
            if x not in reach_i:
                reach_i.add(x)
                holder = match_i.get(x)
                if holder is not None and holder not in reach_p:
                    reach_p.add(holder)
                    frontier.append(holder)
    cover_players = tuple(i for i in g if i not in reach_p)
    cover_items = tuple(x for x in sorted(reach_i))
    matching = tuple(sorted(match_p.items()))
    if len(cover_players) + len(cover_items) != len(matching):
        raise InvariantViolation("cover size mismatch; matching was not maximum")
    return MatchingResult(matching, cover_players, cover_items)


def _stop_counts(g: dict[int, Sequence[int]], low: int,
                 must_match: Sequence[int]) -> tuple[int, int]:
    """(n', m'): the players of g and the items of low left free by a
    maximum matching saturating must_match that matches as many items
    outside low as any matching does. With nu a maximum matching's size
    and r that of one avoiding low, n' = |g| - nu and m' = |low| - nu + r,
    since such a matching exists (Mendelsohn-Dulmage)."""
    nu = len(max_matching(g, must_match).matching)
    high = {i: tuple(x for x in xs if not low >> x & 1) for i, xs in g.items()}
    r = len(max_matching(high, must_match=()).matching)
    return len(g) - nu, popcount(low) - nu + r


def ggs2_auction(instance: Instance) -> tuple[AuctionTrace, oracle.WalrasianCertificate]:
    """Run the pair-capped auction from zero prices to a certified stop.

    The trace records induced-substitutes raises and minimum-price raises
    alike; the stop price is certified by the oracle, whose certificate
    carries the allocation.
    """
    common_cap(instance)
    cap = iteration_cap(instance)
    p = instance.zero_prices()
    steps: list[AuctionStep] = []
    anomalies: list[str] = []

    while True:
        if len(steps) >= cap:
            anomalies.append(f"iteration cap {cap} hit")
            cert = oracle.check_allocation(instance, p, (0,) * instance.n)
            trace = AuctionTrace("ggs2", tuple(steps), p, True, tuple(anomalies))
            return trace, cert
        cls = classify_players(instance, p)
        if cls.small:
            # a small player's minimal demand is its best singletons, so
            # its overlaps are those of the unit-demand player its
            # singleton values define: the induced substitutes market
            ob = demand.over_demanded_set(instance, p, players=cls.small)
            if ob.excess > 0:
                p = _record_step(instance, steps, p, ob.bundle, ob.unique, ob.excess)
                continue
        # per-player overlap counts are nonnegative, so the whole market's
        # excess dominates the induced one; an over-demanded set here rules
        # out stopping and its unit raise stays under every Walrasian
        # price, covering states the singleton-only step cannot see (e.g.
        # items nobody values at the current margin whose price must not
        # rise)
        ob = demand.over_demanded_set(instance, p)
        if ob.excess > 0:
            p = _record_step(instance, steps, p, ob.bundle, ob.unique, ob.excess)
            continue

        active = tuple(sorted(cls.small + cls.pair_players))
        low = min_items(p)
        g = build_demand_graph(instance, p, active)
        n_prime, m_prime = _stop_counts(g, low, cls.small)
        if 2 * n_prime <= m_prime:
            cert = oracle.is_walrasian(instance, p)
            if not cert.valid:
                anomalies.append("terminal certificate invalid")
            trace = AuctionTrace("ggs2", tuple(steps), p, False, tuple(anomalies))
            return trace, cert

        p = _record_step(instance, steps, p, low, True)


def _record_step(instance: Instance, steps: list[AuctionStep], p: Prices,
                 raised: int, unique: bool, f_val: Optional[int] = None) -> Prices:
    """Append the unit raise of raised at p to steps; return the new price.

    unique is the obstacle's tie-break flag, True for the minimum-price
    raise, which makes no choice. f_val defaults to the whole market's
    excess demand for raised. No Lyapunov-rise check runs here, unlike the
    obstacle loop.
    """
    lyap = demand.lyapunov(instance, p)
    if f_val is None:
        f_val = demand.excess_demand(instance, p, raised)
    steps.append(AuctionStep(len(steps), p, raised, lyap, f_val, unique))
    return add_indicator(p, raised)


def certificate_to_json(cert: oracle.WalrasianCertificate,
                        instance: Instance) -> dict:
    return {
        "price": prices_to_json(cert.price, instance),
        "allocation": None if cert.allocation is None else [
            instance.label_bundle(b) for b in cert.allocation
        ],
        "envy_free": cert.envy_free,
        "all_positive_priced_allocated": cert.coverage,
        "lyapunov": cert.lyapunov,
        "max_welfare": cert.max_welfare,
    }


def demo_not_gs_valuation():
    """A pair-capped truncation that is not gross substitutes."""
    base = make_unit_demand((2, 2, 4))
    return make_truncation(base, k=2, cap=4)


def demo_claim_instance() -> Instance:
    """A pair-capped market with no over-demanded set at zero prices and
    no envy-free allocation there either."""
    players = []
    for _ in range(3):
        players.append(make_truncation(make_unit_demand((1,) * 8), 2, 2))
    for _ in range(2):
        players.append(make_truncation(make_unit_demand((1,) * 7 + (2,)), 2, 2))
    return make_instance([f"i{j}" for j in range(1, 9)], players)
