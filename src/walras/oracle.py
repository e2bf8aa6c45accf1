"""Brute-force ground truth, independent of the auction machinery.

Everything here is exhaustive search over explicit tables: welfare by exact
dynamic programming over item subsets, envy-free allocations by backtracking
over demand families, Walrasian prices by scanning a price grid for Lyapunov
minimizers. The auction engines are never consulted; these functions exist
to check them.

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
from typing import Optional

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


def max_welfare(instance: Instance, budget: Optional[int] = None) -> WelfareResult:
    """Exact maximum welfare over all allocations, by subset DP.

    The table best[mask] after processing players i..n-1 holds the best
    welfare achievable handing out items from mask, visiting every
    (player, submask) pair once. Exhaustive, so it is the ground truth the
    engines are compared against. The budget is checked on every call and
    the result is cached per instance.
    """
    if budget is None:
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

    # deterministic reconstruction: each player takes the smallest bundle
    # that preserves the optimum
    alloc = []
    remaining = full
    for i, v in enumerate(instance.players):
        after = suffix[i + 1]
        target = suffix[i][remaining]
        chosen = None
        cands = _submasks_ascending(remaining)
        for s in cands:
            if v.table[s] + after[remaining ^ s] == target:
                chosen = s
                break
        alloc.append(chosen)
        remaining ^= chosen
    return WelfareResult(welfare=welfare, allocation=tuple(alloc))


# the cache is cleared through the public name, as bench/test_bench.py does
max_welfare.cache_clear = _welfare.cache_clear


def _suffix_tables(instance: Instance):
    m = instance.m
    tables = [[0] * (1 << m)]
    for v in reversed(instance.players):
        prev = tables[0]
        cur = [0] * (1 << m)
        for mask in range(1 << m):
            top = prev[mask]
            s = mask
            while s:
                cand = v.table[s] + prev[mask ^ s]
                if cand > top:
                    top = cand
                s = (s - 1) & mask
            cur[mask] = top
        tables.insert(0, cur)
    return tables


def _submasks_ascending(mask: int) -> list[int]:
    subs = [0]
    s = mask
    while s:
        subs.append(s)
        s = (s - 1) & mask
    subs.sort()
    return subs


def envy_free_exists(instance: Instance, prices: Prices,
                     budget: Optional[int] = None) -> Optional[Allocation]:
    """A disjoint allocation of demanded bundles, or None when impossible.

    Deterministic: the first solution in player order with bundles tried
    smallest first. Whether players i.. can complete depends only on i and
    the items already used, so a failed (i, used) state is remembered and
    never expanded again: at most (n + 1) * 2**m nodes. The backtracking
    counts its nodes against the budget.
    """
    if budget is None:
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

    def rec(i: int, used: int) -> bool:
        nonlocal nodes
        if (i, used) in failed:
            return False
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"envy-free search passed {nodes} nodes, budget {budget}")
        if i == n:
            return True
        free = instance.m - popcount(used)
        if suffix_need[i] > free:
            failed.add((i, used))
            return False
        for s in choices[i]:
            if popcount(s) > free - suffix_need[i + 1]:
                break               # sorted by size, nothing later can fit
            if s & used:
                continue
            picked.append(s)
            if rec(i + 1, used | s):
                return True
            picked.pop()
        failed.add((i, used))
        return False

    if rec(0, 0):
        return tuple(picked)
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


def is_walrasian(instance: Instance, prices: Prices,
                 budget: Optional[int] = None) -> WalrasianCertificate:
    """Certify a price vector by strong duality.

    The Lyapunov value is never below the maximum welfare, and equals it
    exactly when the price is Walrasian; then every welfare-maximal
    allocation is Walrasian, so the welfare DP's own allocation is the
    certificate. Otherwise the certificate is invalid and carries the first
    envy-free allocation, if any. A Lyapunov value below the welfare, or a
    welfare-maximal allocation failing the check at equality, raises
    InvariantViolation. The budget bounds the DP and the envy-free search.
    """
    prices = tuple(prices)
    lyap = demand.lyapunov(instance, prices)
    best = max_welfare(instance, budget=budget)
    if lyap < best.welfare:
        raise InvariantViolation("Lyapunov value below max welfare")
    if lyap == best.welfare:
        cert = _certificate(instance, prices, best.allocation, lyap, best.welfare)
        if not cert.valid:
            raise InvariantViolation(
                "Lyapunov equals max welfare but the welfare-maximal "
                "allocation is not Walrasian")
        return cert
    plain = envy_free_exists(instance, prices, budget=budget)
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


def _coordinate_bounds(instance: Instance, bound: int) -> list[int]:
    # Submodular valuations never demand an item priced above its best
    # singleton value, so a Walrasian price either clears it at 0 or sits
    # below that value. Only sound under submodularity.
    if all(is_submodular(v.table, v.m) for v in instance.players):
        caps = []
        for j in range(instance.m):
            caps.append(min(bound, max(v.table[1 << j] for v in instance.players)))
        return caps
    return [bound] * instance.m


def minimal_walrasian_price(instance: Instance, bound: Optional[int] = None,
                            budget: Optional[int] = None,
                            ) -> Optional[MinimalPriceReport]:
    """Coordinatewise-minimal Walrasian price within [0, bound]^m, or None.

    Computes the Lyapunov value at every point of the price grid, one player
    at a time: one (max,+) sweep per item turns the player's value table into
    its best utility at every grid point, in about twice the grid size of
    steps. Memory is a few grid-sized int64 arrays, never grid x 2**m. The
    Lyapunov minimizers are exactly the Walrasian prices whenever the
    minimum equals the maximum welfare. The coordinatewise meet of the
    minimizers is tried first: when it is itself a minimizer the minimum is
    unique (the lattice case, guaranteed for gross substitutes). Otherwise
    all incomparable minimal prices are reported and the lexicographically
    smallest is returned.
    """
    if bound is None:
        bound = instance.vmax
    if budget is None:
        budget = env_budget(DEFAULT_GRID_BUDGET)
    caps = _coordinate_bounds(instance, bound)
    radix = [c + 1 for c in caps]
    total = 1
    for r in radix:
        total *= r
    if total > budget:
        raise BudgetExceeded(f"price grid has {total} points, budget {budget}")

    welfare = max_welfare(instance, budget=budget).welfare
    # grid points are indexed with item 0 moving fastest, as the sweep
    # leaves them; start from the total price at each point
    lvals = np.zeros(1, dtype=np.int64)
    for r in radix:
        lvals = (np.arange(r, dtype=np.int64)[:, None] + lvals).ravel()
    options = [-np.arange(r, dtype=np.int64) for r in radix]
    for v in instance.players:
        lvals += demand._raise_sweep(v.np_table[None, :], options)[0]
    best = int(lvals.min())
    if best != welfare:
        return None

    found = np.flatnonzero(lvals == best)
    cap_store = 1 << 17
    overflow = len(found) > cap_store
    meet = None
    minimizers: list[Prices] = []
    chunk = 1 << 14
    for start in range(0, len(found), chunk):
        # the decoder moves the last coordinate fastest: decode reversed
        rows = demand._price_grid(radix[::-1], found[start:start + chunk])[:, ::-1]
        low = rows.min(axis=0)
        meet = low if meet is None else np.minimum(meet, low)
        if not overflow:
            minimizers.extend(tuple(int(x) for x in r) for r in rows)

    meet_price = tuple(int(x) for x in meet)
    if demand.lyapunov(instance, meet_price) == welfare:
        # at equality the certificate is checked, and raises if it fails
        is_walrasian(instance, meet_price, budget=budget)
        return MinimalPriceReport(price=meet_price, unique=True,
                                  all_minimal=(meet_price,))
    if overflow:
        raise BudgetExceeded(
            "too many Lyapunov minimizers to compare without a lattice minimum"
        )
    minimal = []
    for p in minimizers:
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in minimizers):
            minimal.append(p)
    minimal.sort()
    return MinimalPriceReport(price=minimal[0], unique=len(minimal) == 1,
                              all_minimal=tuple(minimal))
