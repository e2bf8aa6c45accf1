"""Brute-force ground truth, independent of the auction machinery.

Everything here is exhaustive search over explicit tables: welfare by exact
dynamic programming over item subsets, envy-free allocations by backtracking
over demand families, Walrasian prices by scanning a price grid (laid out
by demand, read here by price tuples) for Lyapunov minimizers. The auction
engines are never consulted; these functions exist to check them. Each
search reads its budget from model where it checks its size, the welfare DP
and the envy-free search the op budget and the price grid the grid budget,
so WALRAS_BUDGET is the one override and no call takes a budget.

A price vector is Walrasian when some allocation gives every player a bundle
from its demand family and leaves no positively priced item unallocated. At
nonnegative prices the welfare of any allocation is at most the Lyapunov
value, with equality exactly for such allocations (strong duality:
Bikhchandani & Mamer, JET 1997; Gul & Stacchetti, JET 1999). So a price is
Walrasian exactly when its Lyapunov value equals the maximum welfare, and
then the welfare DP's own allocation is the certificate. Checking that
allocation is a redundant test: its failure would be a bug, not a property
of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterator, Optional

import numpy as np

from . import demand
from .model import (
    DEFAULT_GRID_BUDGET, DEFAULT_OP_BUDGET, Allocation, BudgetExceeded,
    Instance, InvariantViolation, Prices, env_budget, is_submodular, popcount,
)


@dataclass(frozen=True)
class WelfareResult:
    welfare: int
    allocation: Allocation


@dataclass(frozen=True)
class WalrasianCertificate:
    """Checkable claim that a price vector is (or is not) Walrasian.

    Valid exactly when all three booleans hold: the allocation draws every
    bundle from the owner's demand family (envy_free), no positively priced
    item is left unallocated (coverage), and the Lyapunov value equals the
    maximum welfare (bm_equality).
    """
    price: Prices
    allocation: Optional[Allocation]
    envy_free: bool
    coverage: bool
    bm_equality: bool
    lyapunov: int
    max_welfare: int

    @property
    def valid(self) -> bool:
        return self.envy_free and self.coverage and self.bm_equality


def max_welfare(instance: Instance) -> WelfareResult:
    """Exact maximum welfare over all allocations, by subset DP.

    The table best[mask] after processing players i..n-1 holds the best
    welfare achievable handing out items from mask, visiting every
    (player, submask) pair once. Exhaustive, so it is the ground truth the
    engines are compared against. Each player in turn takes the smallest
    submask of the items left that keeps the optimum. The n * 3**m steps
    are checked against the op budget on every call, and the result is
    cached per instance.
    """
    budget = env_budget(DEFAULT_OP_BUDGET)
    m, n = instance.m, instance.n
    if n * (3 ** m) > budget:
        raise BudgetExceeded(f"welfare DP needs {n * 3 ** m} steps, budget {budget}")
    return _welfare(instance)


@lru_cache(maxsize=512)
def _welfare(instance: Instance) -> WelfareResult:
    full = (1 << instance.m) - 1
    suffix = _suffix_tables(instance)
    welfare = suffix[0][full]

    # (s - remaining) & remaining is the next submask of remaining after s
    alloc = []
    remaining = full
    for i, v in enumerate(instance.players):
        table = v.np_table.tolist()
        after = suffix[i + 1]
        target = suffix[i][remaining]
        s = 0
        while table[s] + after[remaining ^ s] != target:
            if s == remaining:
                raise InvariantViolation(f"player {i}: no bundle keeps the optimum")
            s = (s - remaining) & remaining
        alloc.append(s)
        remaining ^= s
    return WelfareResult(welfare=welfare, allocation=tuple(alloc))


# the cache is cleared through the public name, as bench/test_bench.py does
max_welfare.cache_clear = _welfare.cache_clear


def _suffix_tables(instance: Instance):
    m = instance.m
    tables = [[0] * (1 << m)]
    for v in reversed(instance.players):
        table = v.np_table.tolist()
        prev = tables[0]
        cur = [0] * (1 << m)
        for mask in range(1 << m):
            top = table[0] + prev[mask]
            s = mask
            while s:
                cand = table[s] + prev[mask ^ s]
                if cand > top:
                    top = cand
                s = (s - 1) & mask
            cur[mask] = top
        tables.insert(0, cur)
    return tables


def envy_free_exists(instance: Instance, prices: Prices) -> Optional[Allocation]:
    """A disjoint allocation of demanded bundles, or None when impossible.

    Deterministic: the first solution in player order with bundles tried
    smallest first. Whether players i.. can complete depends only on i and
    the items already used, so a failed (i, used) state is remembered and
    never expanded again: at most (n + 1) * 2**m nodes. The backtracking
    counts its nodes against the op budget.
    """
    budget = env_budget(DEFAULT_OP_BUDGET)
    reports = demand.demand_reports(instance, tuple(prices))
    choices = [sorted(r.demand, key=lambda s: (popcount(s), s)) for r in reports]
    n = instance.n
    suffix_need = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_need[i] = suffix_need[i + 1] + popcount(choices[i][0])
    picked: list[int] = []
    failed: set[tuple[int, int]] = set()
    nodes = 0

    def untried(i: int, used: int) -> Iterator[int]:
        room = instance.m - popcount(used) - suffix_need[i + 1]
        for s in choices[i]:
            if popcount(s) > room:
                return              # sorted by size, nothing later can fit
            if not s & used:
                yield s

    # one frame per player on the path, so the depth is n on the heap,
    # not on the call stack
    frames: list[tuple[int, Iterator[int]]] = []
    i, used = 0, 0
    while True:
        if (i, used) not in failed:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    f"envy-free search passed {nodes} nodes, budget {budget}")
            if i == n:
                return tuple(picked)
            if suffix_need[i] > instance.m - popcount(used):
                failed.add((i, used))
            else:
                frames.append((used, untried(i, used)))
        # the next bundle of the deepest player with one left
        while frames:
            used, rest = frames[-1]
            del picked[len(frames) - 1:]
            s = next(rest, None)
            if s is not None:
                picked.append(s)
                i, used = len(frames), used | s
                break
            frames.pop()
            failed.add((len(frames), used))
        else:
            return None


def _certificate(instance: Instance, prices: Prices, alloc: Allocation,
                 lyap: int, welfare: int) -> WalrasianCertificate:
    """Check alloc at prices: demanded, disjoint bundles that leave no
    positively priced item unallocated."""
    reports = demand.demand_reports(instance, prices)
    used = 0
    envy_free = len(alloc) == instance.n
    for r, s in zip(reports, alloc):
        if used & s or s not in r.demand:
            envy_free = False
            break
        used |= s
    positive = sum(1 << j for j in range(instance.m) if prices[j] > 0)
    coverage = envy_free and not (positive & ~used)
    return WalrasianCertificate(
        price=prices, allocation=tuple(alloc), envy_free=envy_free,
        coverage=coverage, bm_equality=lyap == welfare,
        lyapunov=lyap, max_welfare=welfare,
    )


def is_walrasian(instance: Instance, prices: Prices) -> WalrasianCertificate:
    """Certify a price vector by strong duality.

    The Lyapunov value is never below the maximum welfare, and equals it
    exactly when the price is Walrasian; then every welfare-maximal
    allocation is Walrasian, so the welfare DP's own allocation is the
    certificate. Otherwise the certificate is invalid and carries the first
    envy-free allocation, if any. A Lyapunov value below the welfare, or a
    welfare-maximal allocation failing the check at equality, raises
    InvariantViolation.
    """
    prices = tuple(prices)
    lyap = demand.lyapunov(instance, prices)
    best = max_welfare(instance)
    if lyap < best.welfare:
        raise InvariantViolation("Lyapunov value below max welfare")
    if lyap == best.welfare:
        cert = _certificate(instance, prices, best.allocation, lyap, best.welfare)
        if not cert.valid:
            raise InvariantViolation(
                "Lyapunov equals max welfare but the welfare-maximal "
                "allocation is not Walrasian")
        return cert
    plain = envy_free_exists(instance, prices)
    return WalrasianCertificate(
        price=prices, allocation=plain, envy_free=plain is not None,
        coverage=False, bm_equality=False, lyapunov=lyap,
        max_welfare=best.welfare,
    )


def check_allocation(instance: Instance, prices: Prices,
                     alloc: Allocation) -> WalrasianCertificate:
    """Certificate for a specific allocation instead of the DP's."""
    prices = tuple(prices)
    return _certificate(instance, prices, alloc, demand.lyapunov(instance, prices),
                        max_welfare(instance).welfare)


@dataclass(frozen=True)
class MinimalPriceReport:
    price: Prices
    unique: bool
    all_minimal: tuple[Prices, ...]


def _coordinate_bounds(instance: Instance) -> list[int]:
    # Submodular valuations never demand an item priced above its best
    # singleton value, so a Walrasian price either clears it at 0 or sits
    # below that value. Only sound under submodularity.
    if all(is_submodular(v.np_table, v.m) for v in instance.players):
        singletons = [1 << j for j in range(instance.m)]
        return np.max([v.np_table[singletons] for v in instance.players], axis=0).tolist()
    return [instance.vmax] * instance.m


def minimal_walrasian_price(instance: Instance) -> Optional[MinimalPriceReport]:
    """Coordinatewise-minimal Walrasian price on the price grid, or None.

    The grid runs each item from 0 to instance.vmax, or to its best
    singleton value when every player is submodular. The Lyapunov value at
    every grid point is computed one player at a time: one (max,+) sweep per
    item turns the player's value table into its best utility at every grid
    point, in about twice the grid size of steps. The last item with more
    than one price moves slowest in the grid's layout, so each of its prices
    is one contiguous slice: the items before it are swept once over the
    bundles without it and once over those with it, and each slice takes
    the better of the two. Memory is one grid-sized int64 array plus two
    slices, at most one more grid, never grid x 2**m. The Lyapunov
    minimizers are exactly the Walrasian prices whenever the minimum equals
    the maximum welfare. The coordinatewise meet of the minimizers is tried
    first: when it is itself a minimizer the minimum is unique (the lattice
    case, guaranteed for gross substitutes). Otherwise the minimizers
    outside the up-closure of the others are all reported, in lexicographic
    order, and the first is returned. A grid minimum below the maximum
    welfare breaks weak duality and raises InvariantViolation.
    The grid points count against the grid budget, and the welfare DP and
    the certificate against the op budget.
    """
    radix = tuple(c + 1 for c in _coordinate_bounds(instance))
    budget = env_budget(DEFAULT_GRID_BUDGET)
    if prod(radix) > budget:
        raise BudgetExceeded(f"price grid has {prod(radix)} points, budget {budget}")

    welfare = max_welfare(instance).welfare
    # the slowest item with more than one price; the grid prices every
    # item after it at 0, so a bundle takes those free
    k = max((j for j, r in enumerate(radix) if r > 1), default=0)
    # L at every grid point: the total price plus each player's best
    # utility; items after k add only 0, so _grid_sum skips them and never
    # holds a second grid-sized partial sum
    lvals = demand._grid_sum([np.arange(r) for r in radix[:k + 1]])
    options = [-np.arange(r, dtype=np.int64) for r in radix[:k]]
    for v in instance.players:
        # best utility over the bundles without item k (out) and with it
        # (into), then per price x of item k max(out, into - x), updated in
        # place: max(out, max(out, into - x + 1) - 1) is the same value
        table = v.np_table.astype(np.int64, copy=False).reshape(-1, 2, 1 << k).max(axis=0)
        out, into = demand._raise_sweep(table, options)
        for part in lvals.reshape(radix[k], -1):
            np.maximum(into, out, out=into)
            part += into
            into -= 1
        del out, into       # freed before the next player's sweep
    best = int(lvals.min())
    if best < welfare:
        raise InvariantViolation("Lyapunov value below max welfare on the price grid")
    if best > welfare:
        return None

    grid = (lvals == best).reshape(radix, order="F")
    meet = tuple(int(c.min()) for c in np.nonzero(grid))
    if grid[meet]:
        # at equality the certificate is checked, and raises if it fails
        is_walrasian(instance, meet)
        return MinimalPriceReport(price=meet, unique=True, all_minimal=(meet,))
    # no lattice minimum: a minimizer is minimal unless the up-closure of
    # the minimizers holds the point one unit below it along some axis
    up = grid
    for axis in range(len(radix)):
        up = np.logical_or.accumulate(up, axis=axis)
    minimal = grid.copy()
    for axis in range(len(radix)):
        below = (slice(None),) * axis
        minimal[below + (slice(1, None),)] &= ~up[below + (slice(None, -1),)]
    prices = [tuple(int(x) for x in p) for p in np.argwhere(minimal)]
    return MinimalPriceReport(price=prices[0], unique=len(prices) == 1,
                              all_minimal=tuple(prices))
