"""Demand-side diagnostics at integer prices.

For a valuation v and prices p the utility of a bundle S is v(S) minus the
price of S. The demand family D(p) collects the utility maximizers and the
minimal demand family D*(p) keeps only its inclusion-minimal members. Three
derived quantities drive everything else here:

* min_demand_overlap(v, p, S): the smallest |D & S| over D in D*(p). It is
  the number of items of S the player cannot avoid taking.
* excess_demand(instance, p, S): the overlaps summed over players minus |S|.
  A bundle with positive excess is over-demanded, and no envy-free
  allocation can exist while one exists.
* lyapunov(instance, p): total utility plus total price. Its minimum over
  prices equals the maximum welfare exactly when a Walrasian equilibrium
  exists, and ascending auctions walk it downhill.

over_demanded_set returns the inclusion-minimal maximizer of excess demand;
minimal_minimizer returns the smallest bundle whose unit raise minimizes the
Lyapunov function. On gross-substitutes input the two coincide step for step,
which the auction engines exploit and the tests verify. stable_raises counts
the unit raises of a set that leave every demand family as it is, so the
gs engine can take them without a view for each.

Demand, D*(p) and the overlaps enumerate all 2**m bundles per player, and
the obstacle all 2**m excess values. Three quantities are sweeps instead,
all one (max,+) pass per item over the subset lattice (_raise_sweep): the
Lyapunov values after every unit raise p + 1_S (n * m * 2**m steps), after
every move p + 1_S - 1_T (about 3 * n * 3**m steps, within the op budget),
and, for oracle.minimal_walrasian_price, at every point of a price grid
(about twice the grid size per player). The per-price views behind these
reports are memoized for one market at a time: the instance (or, for
demand_sets and min_demand_overlap, the valuation) queried last, compared
by identity, so the engines run on one market share its views without
hashing its tables. A query on another market starts the memo afresh;
once the views hold MEMO_ENTRIES int64 entries, each new view replaces
the last one added.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Optional, Sequence

import numpy as np

from .model import (
    DEFAULT_OP_BUDGET, BudgetExceeded, Instance, Prices, Valuation, env_budget,
    lex_key, popcount, price_of,
)


@lru_cache(maxsize=32)
def _static(m: int):
    """Per-universe constants: bit matrix and popcount table."""
    masks = np.arange(1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(np.int64)
    pc = bits.sum(axis=1)
    bits.setflags(write=False)
    pc.setflags(write=False)
    return bits, pc


def _price_grid(radix, rows) -> np.ndarray:
    """The given rows of the mixed-radix price grid, one price per row.

    Coordinate j runs over range(radix[j]) and the last coordinate moves
    fastest, so row k is the base-radix expansion of k.
    """
    rem = np.asarray(rows, dtype=np.int64)
    grid = np.empty((len(rem), len(radix)), dtype=np.int64)
    for j in range(len(radix) - 1, -1, -1):
        grid[:, j] = rem % radix[j]
        rem = rem // radix[j]
    return grid


def _raise_sweep(util: np.ndarray, options) -> np.ndarray:
    """max over U of util[U] + sum of options[j][x_j] over j in U, for every move X.

    util is players x 2**m and options holds one sequence of deltas per
    item. A move X gives item j its option x_j, item 0's option moving
    fastest, so the result is players x the product of the option counts.
    One (max,+) pass per item over the subset lattice, all players at once,
    replaces the scan of every (move, bundle) pair (the fast-zeta idea of
    Bjorklund-Husfeldt-Kaski-Koivisto, "Fourier meets Mobius", STOC 2007).
    Items with fewer options are swept first, so no intermediate array is
    larger than the bigger of util and the result.
    """
    n = util.shape[0]
    # per item, the length of its axis: 2 while a bundle bit, then its options
    dims = [2] * len(options)
    acc = util
    for j in sorted(range(len(options)), key=lambda j: len(options[j])):
        # axes: players, items above j, item j in or out, items below j
        pair = acc.reshape(n, prod(dims[j + 1:]), 2, prod(dims[:j]))
        dims[j] = len(options[j])
        out = np.empty((n, pair.shape[1], dims[j], pair.shape[3]), dtype=acc.dtype)
        for x, d in enumerate(options[j]):
            np.maximum(pair[:, :, 0], pair[:, :, 1] + d, out=out[:, :, x])
        acc = out.reshape(n, -1)
    return acc


def _minimal_members(demand: tuple[int, ...]) -> tuple[int, ...]:
    """Inclusion-minimal members of a family of masks."""
    by_size = sorted(demand, key=lambda s: (popcount(s), s))
    accepted: list[int] = []
    for cand in by_size:
        if not any(low & cand == low for low in accepted):
            accepted.append(cand)
    return tuple(sorted(accepted))


class _PlayerView:
    """Demand data of one player at fixed prices."""

    __slots__ = ("utility", "demand", "minimal", "overlap")

    def __init__(self, utility: int, demand: tuple[int, ...],
                 minimal: tuple[int, ...], overlap: np.ndarray):
        self.utility = utility
        self.demand = demand
        self.minimal = minimal
        self.overlap = overlap      # min |D & S| over D*(p), indexed by S


class _MarketView:
    __slots__ = ("players", "excess", "pcost")

    def __init__(self, players, excess, pcost):
        self.players = players
        self.excess = excess        # excess demand per bundle mask
        self.pcost = pcost


# The most int64 entries held in the views of one market (16 MB); a view
# of n players holds (n + 2) * 2**m. An engine visits each price once, so
# the views worth keeping are the first ones, which a later engine on the
# same market walks again from the same start: once the memo is full, each
# new view replaces the last one added instead. The benchmark's ladder
# keeps all but a few dozen of the views it revisits, and deep's runs of
# up to 6,000 steps hold no more memory than 1,024 views did.
MEMO_ENTRIES = 1 << 21

# (owner, views by price) for the market queried last. Swapped as one
# tuple, so a reader never pairs one market's owner with another's views.
_memo: tuple[object, dict] = (None, {})


def _view(owner, players: tuple[Valuation, ...], m: int,
          prices: Prices) -> _MarketView:
    global _memo
    prices = tuple(prices)
    held, views = _memo
    if held is owner:
        view = views.get(prices)
        if view is not None:
            return view
    else:
        views = {}
        _memo = (owner, views)
    if len(prices) != m:
        raise ValueError(f"price vector has {len(prices)} entries, instance has {m}")
    bits, pc = _static(m)
    pcost = bits @ np.asarray(prices, dtype=np.int64)
    reports = []
    excess = -pc.copy()
    for v in players:
        util = v.np_table - pcost
        top = int(util.max())
        demand = tuple(int(s) for s in np.nonzero(util == top)[0])
        minimal = _minimal_members(demand)
        overlap = pc[np.asarray(minimal, dtype=np.int64)[:, None]
                     & np.arange(1 << m, dtype=np.int64)[None, :]].min(axis=0)
        reports.append(_PlayerView(top, demand, minimal, overlap))
        excess = excess + overlap
    view = _MarketView(tuple(reports), excess, pcost)
    if (len(views) + 1) * ((len(players) + 2) << m) > MEMO_ENTRIES:
        with suppress(KeyError):    # empty, or emptied by another thread
            views.popitem()
    views[prices] = view
    return view


def _market(instance: Instance, prices: Prices) -> _MarketView:
    return _view(instance, instance.players, instance.m, prices)


def _player(v: Valuation, prices: Prices) -> _PlayerView:
    return _view(v, (v,), v.m, prices).players[0]


# ---------------------------------------------------------------------------
# public reports

@dataclass(frozen=True)
class DemandReport:
    player: int
    utility: int
    demand: tuple[int, ...]
    minimal_demand: tuple[int, ...]


@dataclass(frozen=True)
class ObstacleReport:
    """Over-demand diagnosis at one price vector.

    bundle is the inclusion-minimal maximizer of excess demand (0 when no
    bundle has positive excess), excess its excess value, per_player the
    unavoidable overlaps of each player with it, and unique records whether
    the minimal maximizer needed a tie-break.
    """
    bundle: int
    excess: int
    per_player: tuple[int, ...]
    unique: bool


@dataclass(frozen=True)
class MinimizerReport:
    bundle: int
    lyapunov_after: int
    unique: bool


@dataclass(frozen=True)
class DescentStep:
    raise_bundle: int
    lower_bundle: int
    lyapunov_after: int


def utility(v: Valuation, prices: Prices, bundle: int) -> int:
    """v(S) minus the price of S."""
    return v.table[bundle] - price_of(prices, bundle)


def demand_sets(v: Valuation, prices: Prices, player: int = 0) -> DemandReport:
    """Full and minimal demand families of one valuation, by enumeration."""
    view = _player(v, prices)
    return DemandReport(player, view.utility, view.demand, view.minimal)


def demand_reports(instance: Instance, prices: Prices) -> tuple[DemandReport, ...]:
    view = _market(instance, prices)
    return tuple(
        DemandReport(i, pl.utility, pl.demand, pl.minimal)
        for i, pl in enumerate(view.players)
    )


def min_demand_overlap(v: Valuation, prices: Prices, bundle: int) -> int:
    """Smallest |D & bundle| over the minimal demand family D*(p)."""
    return int(_player(v, prices).overlap[bundle])


def excess_demand(instance: Instance, prices: Prices, bundle: int) -> int:
    """Sum of unavoidable overlaps with the bundle minus the bundle size."""
    view = _market(instance, prices)
    return int(view.excess[bundle])


def over_demanded_set(instance: Instance, prices: Prices,
                      players: Optional[Sequence[int]] = None) -> ObstacleReport:
    """Inclusion-minimal maximizer of excess demand, empty when none is positive.

    Among incomparable minimal maximizers the lexicographically smallest by
    item order is returned and the unique flag is cleared. When players is
    given, excess demand counts only those players' overlaps, and per_player
    lists them in that order.
    """
    view = _market(instance, prices)
    if players is None:
        chosen, excess = view.players, view.excess
    else:
        _, pc = _static(instance.m)
        chosen = tuple(view.players[i] for i in players)
        excess = sum((pl.overlap for pl in chosen), -pc)
    top = int(excess.max())
    if top <= 0:
        return ObstacleReport(0, 0, (0,) * len(chosen), True)
    cands = [int(s) for s in np.nonzero(excess == top)[0]]
    minimal = _minimal_members(tuple(cands))
    best = min(minimal, key=lex_key)
    return ObstacleReport(
        bundle=best,
        excess=top,
        per_player=tuple(int(pl.overlap[best]) for pl in chosen),
        unique=len(minimal) == 1,
    )


def lyapunov(instance: Instance, prices: Prices) -> int:
    """Total maximum utility plus total price."""
    view = _market(instance, prices)
    return sum(pl.utility for pl in view.players) + sum(prices)


def stable_raises(instance: Instance, prices: Prices, raised: int) -> Optional[int]:
    """The break point k*: unit raises of raised from prices that keep every
    player's demand family, or None when no raise ever changes it.

    Along p + k * 1_R a bundle T's utility falls by k * |T & R|. When all of
    player i's demanded bundles share one overlap c_i with R, they stay its
    demand family until a bundle T with |T & R| < c_i catches up, at
    k = ceil((u_i - u_T) / (c_i - |T & R|)); k* is the least such k over all
    players and bundles, so the prices p .. p + (k* - 1) * 1_R share D(p),
    and with it D*(p), the overlaps and the excess vector. When some
    player's demanded bundles meet R in different numbers, only those
    meeting it least stay demanded after one raise: k* is 1, found from the
    demand families alone. Otherwise one pass over the n * 2**m utilities,
    grouped by their bundle's overlap with R.
    """
    view = _market(instance, prices)
    held = []
    for pl in view.players:
        c = popcount(pl.demand[0] & raised)
        if any(popcount(s & raised) != c for s in pl.demand):
            return 1
        held.append(c)
    if not any(held):
        return None
    _, pc = _static(instance.m)
    meet = pc[np.arange(1 << instance.m, dtype=np.int64) & raised]
    util = np.stack([v.np_table for v in instance.players])
    util -= view.pcost
    top = np.array([pl.utility for pl in view.players], dtype=np.int64)
    over = np.array(held, dtype=np.int64)
    found = []
    for level in range(max(held)):
        # every level up to |R| has bundles, so the initial never survives
        best = util.max(axis=1, where=meet == level, initial=np.iinfo(np.int64).min)
        behind = over > level
        # ceil((u_i - u_T) / (c_i - level)) by exact floor division
        found.append((-((best - top)[behind] // (over[behind] - level))).min())
    return int(min(found))


def demand_families(instance: Instance, prices: Prices) -> tuple[tuple[int, ...], ...]:
    """Each player's demand family at prices, straight from the value tables.

    Reads no view and stores none, so it checks the views independently:
    the auction loop uses it to confirm the last price of a long step.
    """
    bits, _ = _static(instance.m)
    util = np.stack([v.np_table for v in instance.players])
    util -= bits @ np.asarray(prices, dtype=np.int64)
    hit = util == util.max(axis=1, keepdims=True)
    return tuple(tuple(int(s) for s in np.flatnonzero(row)) for row in hit)


def _lyapunov_after_raise(instance: Instance, prices: Prices) -> np.ndarray:
    """Vector of L(p + 1_S) over all bundles S."""
    util = np.stack([v.np_table for v in instance.players]) - _market(instance, prices).pcost
    _, pc = _static(instance.m)
    return pc + sum(prices) + _raise_sweep(util, [(0, -1)] * instance.m).sum(axis=0)


def minimal_minimizer_report(instance: Instance, prices: Prices) -> MinimizerReport:
    """Smallest bundle whose unit raise minimizes the Lyapunov function.

    Minimizers are compared by cardinality and then lexicographically by
    item order; the unique flag records whether the lexicographic tie-break
    fired. On gross-substitutes input the minimizer is provably unique.
    """
    after = _lyapunov_after_raise(instance, tuple(prices))
    low = int(after.min())
    cands = [int(s) for s in np.nonzero(after == low)[0]]
    size = min(popcount(s) for s in cands)
    smallest = [s for s in cands if popcount(s) == size]
    best = min(smallest, key=lex_key)
    return MinimizerReport(bundle=best, lyapunov_after=low, unique=len(smallest) == 1)


def minimal_minimizer(instance: Instance, prices: Prices) -> int:
    return minimal_minimizer_report(instance, prices).bundle


def lyapunov_descent(instance: Instance, prices: Prices) -> Optional[DescentStep]:
    """Detect a strict Lyapunov decrease among moves p + 1_S - 1_T.

    Covers all disjoint bundle pairs with T supported on positive prices in
    one three-option sweep of n * 3**m entries, checked against the op
    budget. Returns the best strictly improving move, or None at a local
    (hence, for substitutes valuations, global) minimum. This is the
    descending counterpart of minimal_minimizer kept as a detector only.
    """
    prices = tuple(prices)
    m = instance.m
    budget = env_budget(DEFAULT_OP_BUDGET)
    if instance.n * 3 ** m > budget:
        raise BudgetExceeded(
            f"descent scan needs {instance.n * 3 ** m} entries, budget {budget}")
    base = lyapunov(instance, prices)
    util = np.stack([v.np_table for v in instance.players]) - _market(instance, prices).pcost
    # option 0 keeps item j's price, 1 raises it, 2 lowers it
    after = _raise_sweep(util, [(0, -1, 1)] * m).sum(axis=0)
    shift = np.zeros(1, dtype=np.int64)
    allowed = np.ones(1, dtype=bool)
    for j in range(m):
        shift = (np.array([0, 1, -1])[:, None] + shift).ravel()
        allowed = (np.array([True, True, prices[j] > 0])[:, None] & allowed).ravel()
    after += shift + sum(prices)
    # a price of 0 is never lowered; like move 0, such a move cannot win
    after[~allowed] = base
    low = int(after.min())
    if low >= base:
        return None
    # first minimizer in the order smallest lowered set, then largest raised set
    best = np.nonzero(after == low)[0]
    digits = best[:, None] // 3 ** np.arange(m) % 3
    raised, lowered = ((digits == x) @ (1 << np.arange(m)) for x in (1, 2))
    first = np.lexsort((-raised, lowered))[0]
    return DescentStep(raise_bundle=int(raised[first]), lower_bundle=int(lowered[first]),
                       lyapunov_after=low)
