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
which the auction engines exploit and the tests verify.

All searches enumerate all 2**m bundles exhaustively; numpy keeps that cheap
at desk scale. Results are cached per (instance, prices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

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


def _price_grid(radix, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the mixed-radix price grid, one price per row.

    Coordinate j runs over range(radix[j]) and the last coordinate moves
    fastest, so row k is the base-radix expansion of k.
    """
    rem = np.arange(start, stop, dtype=np.int64)
    grid = np.empty((len(rem), len(radix)), dtype=np.int64)
    for j in range(len(radix) - 1, -1, -1):
        grid[:, j] = rem % radix[j]
        rem = rem // radix[j]
    return grid


@lru_cache(maxsize=8)
def _intersection_popcount(m: int):
    """Matrix |S & T| for all bundle pairs: 4**m entries, so the default
    op budget stops it past 12 items."""
    budget = env_budget(DEFAULT_OP_BUDGET)
    if 4 ** m > budget:
        raise BudgetExceeded(
            f"after-raise table needs {4 ** m} entries, budget {budget}")
    masks = np.arange(1 << m, dtype=np.int64)
    _, pc = _static(m)
    inter = pc[masks[:, None] & masks[None, :]]
    inter.setflags(write=False)
    return inter


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
    __slots__ = ("instance", "prices", "players", "excess", "pcost")

    def __init__(self, instance, prices, players, excess, pcost):
        self.instance = instance
        self.prices = prices
        self.players = players
        self.excess = excess        # excess demand per bundle mask
        self.pcost = pcost


@lru_cache(maxsize=4096)
def _market(instance: Instance, prices: Prices) -> _MarketView:
    m = instance.m
    if len(prices) != m:
        raise ValueError(f"price vector has {len(prices)} entries, instance has {m}")
    bits, pc = _static(m)
    pvec = np.asarray(prices, dtype=np.int64)
    pcost = bits @ pvec
    players = []
    excess = -pc.copy()
    for v in instance.players:
        util = v.np_table - pcost
        top = int(util.max())
        demand = tuple(int(s) for s in np.nonzero(util == top)[0])
        minimal = _minimal_members(demand)
        overlap = pc[np.asarray(minimal, dtype=np.int64)[:, None]
                     & np.arange(1 << m, dtype=np.int64)[None, :]].min(axis=0)
        players.append(_PlayerView(top, demand, minimal, overlap))
        excess = excess + overlap
    return _MarketView(instance, prices, tuple(players), excess, pcost)


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
    view = _market(_single(v), tuple(prices)).players[0]
    return DemandReport(player, view.utility, view.demand, view.minimal)


@lru_cache(maxsize=512)
def _single(v: Valuation) -> Instance:
    items = tuple(f"i{j}" for j in range(v.m))
    return Instance(items=items, players=(v,))


def demand_reports(instance: Instance, prices: Prices) -> tuple[DemandReport, ...]:
    view = _market(instance, tuple(prices))
    return tuple(
        DemandReport(i, pl.utility, pl.demand, pl.minimal)
        for i, pl in enumerate(view.players)
    )


def min_demand_overlap(v: Valuation, prices: Prices, bundle: int) -> int:
    """Smallest |D & bundle| over the minimal demand family D*(p)."""
    view = _market(_single(v), tuple(prices)).players[0]
    return int(view.overlap[bundle])


def excess_demand(instance: Instance, prices: Prices, bundle: int) -> int:
    """Sum of unavoidable overlaps with the bundle minus the bundle size."""
    view = _market(instance, tuple(prices))
    return int(view.excess[bundle])


def over_demanded_set(instance: Instance, prices: Prices) -> ObstacleReport:
    """Inclusion-minimal maximizer of excess demand, empty when none is positive.

    Among incomparable minimal maximizers the lexicographically smallest by
    item order is returned and the unique flag is cleared.
    """
    view = _market(instance, tuple(prices))
    top = int(view.excess.max())
    if top <= 0:
        return ObstacleReport(0, 0, (0,) * instance.n, True)
    cands = [int(s) for s in np.nonzero(view.excess == top)[0]]
    minimal = _minimal_members(tuple(cands))
    best = min(minimal, key=lex_key)
    return ObstacleReport(
        bundle=best,
        excess=top,
        per_player=tuple(int(pl.overlap[best]) for pl in view.players),
        unique=len(minimal) == 1,
    )


def lyapunov(instance: Instance, prices: Prices) -> int:
    """Total maximum utility plus total price."""
    view = _market(instance, tuple(prices))
    return sum(pl.utility for pl in view.players) + sum(prices)


def _lyapunov_after_raise(instance: Instance, prices: Prices) -> np.ndarray:
    """Vector of L(p + 1_S) over all bundles S."""
    view = _market(instance, tuple(prices))
    m = instance.m
    _, pc = _static(m)
    inter = _intersection_popcount(m)
    total = pc + sum(prices)
    for v, pl in zip(instance.players, view.players):
        util = v.np_table - view.pcost
        total = total + (util[None, :] - inter).max(axis=1)
    return total


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

    Scans all disjoint bundle pairs with T supported on positive prices.
    Returns the best strictly improving move, or None at a local (hence,
    for substitutes valuations, global) minimum. This is the descending
    counterpart of minimal_minimizer kept as a detector only.
    """
    prices = tuple(prices)
    m = instance.m
    base = lyapunov(instance, prices)
    pos = sum(1 << j for j in range(m) if prices[j] > 0)
    moves = []
    vecs = []
    for lower in range(1 << m):
        if lower & ~pos:
            continue
        rest = ((1 << m) - 1) & ~lower
        raise_part = rest
        # enumerate subsets of the complement as raise candidates
        s = raise_part
        while True:
            if s or lower:
                moves.append((s, lower))
                vec = list(prices)
                for j in range(m):
                    bit = 1 << j
                    if s & bit:
                        vec[j] += 1
                    elif lower & bit:
                        vec[j] -= 1
                vecs.append(vec)
            if s == 0:
                break
            s = (s - 1) & raise_part
    if not moves:
        return None
    bits, _ = _static(m)
    varr = np.asarray(vecs, dtype=np.int64)
    pcost = varr @ bits.T                      # (K, 2**m)
    total = varr.sum(axis=1)
    for v in instance.players:
        total = total + (v.np_table[None, :] - pcost).max(axis=1)
    best = int(total.argmin())
    if int(total[best]) >= base:
        return None
    s, lower = moves[best]
    return DescentStep(raise_bundle=s, lower_bundle=lower, lyapunov_after=int(total[best]))
