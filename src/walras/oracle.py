"""Brute-force ground truth, independent of the auction machinery.

Everything here is exhaustive search over explicit tables: welfare by exact
dynamic programming over item subsets, envy-free allocations by backtracking
over demand families, Walrasian prices by scanning a price grid for Lyapunov
minimizers. The auction engines are never consulted; these functions exist
to check them.

A price vector is Walrasian when some allocation gives every player a bundle
from its demand family and leaves no positively priced item unallocated. By
strong duality such an allocation is welfare-maximal and the Lyapunov value
at the price equals the maximum welfare, so every certificate carries that
equality as a third, redundant check: its failure would be a bug, not a
property of the input.
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


@lru_cache(maxsize=512)
def max_welfare(instance: Instance, budget: Optional[int] = None) -> WelfareResult:
    """Exact maximum welfare over all allocations, by subset DP.

    The table best[mask] after processing players i..n-1 holds the best
    welfare achievable handing out items from mask, visiting every
    (player, submask) pair once. Exhaustive, so it is the ground truth the
    engines are compared against.
    """
    if budget is None:
        budget = env_budget(DEFAULT_OP_BUDGET)
    m, n = instance.m, instance.n
    if n * (3 ** m) > budget:
        raise BudgetExceeded(f"welfare DP needs {n * 3 ** m} steps, budget {budget}")
    full = (1 << m) - 1
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


@lru_cache(maxsize=512)
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


def _allocation_search(instance: Instance, prices: Prices,
                       require_coverage: bool) -> Optional[Allocation]:
    """First allocation (players in order, bundles by size then mask) that
    hands every player a demanded bundle, optionally covering every
    positively priced item."""
    reports = demand.demand_reports(instance, prices)
    choices = [sorted(r.demand, key=lambda s: (popcount(s), s)) for r in reports]
    min_size = [popcount(c[0]) for c in choices]
    n, m = instance.n, instance.m
    suffix_need = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_need[i] = suffix_need[i + 1] + min_size[i]
    suffix_union = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        u = 0
        for s in choices[i]:
            u |= s
        suffix_union[i] = suffix_union[i + 1] | u
    positive = sum(1 << j for j in range(m) if prices[j] > 0)
    picked: list[int] = []

    def rec(i: int, used: int) -> bool:
        if require_coverage and positive & ~used & ~suffix_union[i]:
            return False
        if i == n:
            return not (require_coverage and positive & ~used)
        free = instance.m - popcount(used)
        if suffix_need[i] > free:
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
        return False

    if rec(0, 0):
        return tuple(picked)
    return None


def envy_free_exists(instance: Instance, prices: Prices) -> Optional[Allocation]:
    """A disjoint allocation of demanded bundles, or None when impossible.

    Deterministic: the first solution in player order with bundles tried
    smallest first.
    """
    return _allocation_search(instance, tuple(prices), require_coverage=False)


def is_walrasian(instance: Instance, prices: Prices,
                 budget: Optional[int] = None) -> WalrasianCertificate:
    """Certify a price vector by exhaustive allocation search.

    The returned certificate is valid exactly when the price is Walrasian.
    When an envy-free covering allocation exists the Lyapunov value must
    equal the maximum welfare; that equality failing raises
    InvariantViolation.
    """
    prices = tuple(prices)
    lyap = demand.lyapunov(instance, prices)
    welfare = max_welfare(instance, budget=budget).welfare
    covered = _allocation_search(instance, prices, require_coverage=True)
    if covered is not None:
        if lyap != welfare:
            raise InvariantViolation(
                "envy-free covering allocation found but Lyapunov != max welfare"
            )
        return WalrasianCertificate(
            price=prices, allocation=covered, envy_free=True, coverage=True,
            bm_equality=True, lyapunov=lyap, max_welfare=welfare,
        )
    plain = _allocation_search(instance, prices, require_coverage=False)
    return WalrasianCertificate(
        price=prices, allocation=plain,
        envy_free=plain is not None, coverage=False,
        bm_equality=lyap == welfare, lyapunov=lyap, max_welfare=welfare,
    )


def check_allocation(instance: Instance, prices: Prices,
                     alloc: Allocation) -> WalrasianCertificate:
    """Certificate for a specific allocation instead of a searched one."""
    prices = tuple(prices)
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
    lyap = demand.lyapunov(instance, prices)
    welfare = max_welfare(instance).welfare
    return WalrasianCertificate(
        price=prices, allocation=tuple(alloc), envy_free=envy_free,
        coverage=coverage, bm_equality=lyap == welfare,
        lyapunov=lyap, max_welfare=welfare,
    )


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

    Scans the whole grid for Lyapunov minimizers; those are exactly the
    Walrasian prices whenever the minimum equals the maximum welfare. The
    coordinatewise meet of the minimizers is tried first: when it is itself
    a minimizer the minimum is unique (the lattice case, guaranteed for
    gross substitutes). Otherwise all incomparable minimal prices are
    reported and the lexicographically smallest is returned.
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

    bits, _ = demand._static(instance.m)
    welfare = max_welfare(instance, budget=budget).welfare
    best = None
    minimizers: list[Prices] = []
    meet = None
    cap_store = 1 << 17
    overflow = False
    chunk = 1 << 14
    for start in range(0, total, chunk):
        grid = demand._price_grid(radix, start, min(start + chunk, total))
        pcost = grid @ bits.T
        lvals = grid.sum(axis=1)
        for v in instance.players:
            lvals = lvals + (v.np_table[None, :] - pcost).max(axis=1)
        lo = int(lvals.min())
        if best is None or lo < best:
            best = lo
            minimizers = []
            meet = None
            overflow = False
        if lo == best:
            rows = grid[lvals == best]
            low = rows.min(axis=0)
            meet = low if meet is None else np.minimum(meet, low)
            if len(minimizers) + len(rows) <= cap_store:
                minimizers.extend(tuple(int(x) for x in r) for r in rows)
            else:
                overflow = True
    if best != welfare:
        return None

    meet_price = tuple(int(x) for x in meet)
    if demand.lyapunov(instance, meet_price) == welfare:
        cert = is_walrasian(instance, meet_price, budget=budget)
        if not cert.valid:
            raise InvariantViolation("Lyapunov minimizer failed certification")
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
