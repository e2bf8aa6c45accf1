"""Structural checks: substitutes conditions, matroid shape, demand lemmas.

The gross-substitutes condition quantifies over real price vectors, which a
finite checker cannot scan. Demand families of an integer valuation only
change at half-integer critical prices, so the checker doubles the valuation
and scans the integer grid [0, bound]^m of the doubled scale instead: a
reported witness is sound (it violates the definition outright), a clean
pass is strong evidence bounded by the grid.

Scanning all comparable price pairs is equivalent, on the grid, to scanning
unit steps q = p + 1_j: walking from p up to q one unit at a time keeps
every item whose endpoint prices agree untouched, so demanded-membership of
those items chains through the walk, and conversely a failing unit step is
itself a failing pair. The scan here does unit steps and returns witnesses
in doubled-price coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import demand
from .model import (
    DEFAULT_GRID_BUDGET, BudgetExceeded, Instance, InvariantViolation, Prices,
    Valuation, add_indicator, env_budget, iter_items, is_submodular,
    first_monotonicity_violation, popcount,
)

DEFAULT_SEARCH_BUDGET = 200_000


class UnclassifiableTransition(RuntimeError):
    """The demand transition fits no lemma case; the input was not GS."""


@dataclass(frozen=True)
class GsWitness:
    """A definition-level substitutes violation, in doubled-price coordinates.

    bundle is demanded at price_low; every item of kept_bundle costs the
    same at both prices, yet no bundle demanded at price_high contains all
    of kept_bundle. violated_item, when set, is a kept item missing from
    every demanded bundle at price_high.
    """
    price_low: Prices
    price_high: Prices
    bundle: int
    kept_bundle: int
    violated_item: Optional[int]


def _demand_family(v: Valuation, prices: Prices) -> tuple[int, ...]:
    return demand.demand_sets(v, prices).demand


def gs_witness_holds(v: Valuation, witness: GsWitness) -> bool:
    """Verify a witness directly against the doubled valuation."""
    doubled = Valuation(m=v.m, table=tuple(2 * x for x in v.table))
    low = _demand_family(doubled, witness.price_low)
    high = _demand_family(doubled, witness.price_high)
    if witness.bundle not in low:
        return False
    if not all(a <= b for a, b in zip(witness.price_low, witness.price_high)):
        return False
    kept = witness.kept_bundle
    expect_kept = witness.bundle & sum(
        1 << j for j in range(v.m)
        if witness.price_low[j] == witness.price_high[j]
    )
    if kept & ~expect_kept:
        return False
    if any(s & kept == kept for s in high):
        return False
    if witness.violated_item is not None:
        bit = 1 << witness.violated_item
        if not kept & bit or any(s & bit for s in high):
            return False
    return True


def check_gs_on_grid(v: Valuation, bound: Optional[int] = None,
                     budget: Optional[int] = None) -> Optional[GsWitness]:
    """Scan the doubled-price grid for a substitutes violation.

    Returns None on a clean pass (heuristic evidence) or the first witness
    in scan order (sound). bound defaults to one past twice the largest
    value, which covers every price at which demand can still change.
    The scan visits (bound + 1)**m * m grid entries, at most budget
    (default: the grid budget, or WALRAS_BUDGET).
    """
    m = v.m
    doubled = np.asarray(v.table, dtype=np.int64) * 2
    if bound is None:
        bound = 2 * v.vmax + 1
    if budget is None:
        budget = env_budget(DEFAULT_GRID_BUDGET)
    radix = bound + 1
    points = radix ** m
    if points * m > budget:
        raise BudgetExceeded(f"grid scan needs {points * m} visits, budget {budget}")

    bits, _ = demand._static(m)
    grid = demand._price_grid([radix] * m, 0, points)
    pcost = grid @ bits.T
    util = doubled[None, :] - pcost
    top = util.max(axis=1)
    demanded = util == top[:, None]

    # reach[k, R] records whether some demanded bundle at point k contains R
    reach = demanded.copy()
    cols = np.arange(1 << m)
    for j in range(m):
        reach |= reach[:, cols | (1 << j)]

    best = None
    for j in range(m):
        stride = radix ** (m - 1 - j)
        valid = grid[:, j] < bound
        rows = np.nonzero(valid)[0]
        kept_cols = cols & ~(1 << j)
        viol = demanded[rows] & ~reach[rows + stride][:, kept_cols]
        hit_rows = np.nonzero(viol.any(axis=1))[0]
        if hit_rows.size:
            r = int(hit_rows[0])
            s = int(np.nonzero(viol[r])[0][0])
            cand = (int(rows[r]), j, s)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None

    k, j, s = best
    p = tuple(int(x) for x in grid[k])
    q = add_indicator(p, 1 << j)
    kept = s & ~(1 << j)
    high = [int(t) for t in np.nonzero(demanded[k + radix ** (m - 1 - j)])[0]]
    union_high = 0
    for t in high:
        union_high |= t
    excluded = kept & ~union_high
    violated = None
    if excluded:
        violated = min(iter_items(excluded))
    witness = GsWitness(price_low=p, price_high=q, bundle=s,
                        kept_bundle=kept, violated_item=violated)
    if not gs_witness_holds(v, witness):
        raise InvariantViolation("grid scan produced a bad witness")
    return witness


@dataclass(frozen=True)
class SiViolation:
    """A bundle outside the demand family with no single-swap improvement."""
    prices: Prices
    bundle: int


def check_single_improvement(v: Valuation, prices: Prices) -> Optional[SiViolation]:
    """Single-improvement test at one price vector.

    For substitutes valuations every non-demanded bundle admits a strictly
    better bundle reachable by adding at most one item and dropping at most
    one. Returns the first bundle violating that, or None.
    """
    prices = tuple(prices)
    report = demand.demand_sets(v, prices)
    in_demand = set(report.demand)
    m = v.m
    for s in range(1 << m):
        if s in in_demand:
            continue
        base = demand.utility(v, prices, s)
        drops = [0] + [1 << j for j in iter_items(s)]
        adds = [0] + [1 << j for j in range(m) if not s & (1 << j)]
        improved = False
        for d in drops:
            for a in adds:
                t = (s ^ d) | a
                if demand.utility(v, prices, t) > base:
                    improved = True
                    break
            if improved:
                break
        if not improved:
            return SiViolation(prices=prices, bundle=s)
    return None


@dataclass(frozen=True)
class MatroidViolation:
    kind: str                       # "cardinality" or "exchange"
    detail: tuple[int, ...]


def check_matroid_bases(family: Sequence[int]) -> Optional[MatroidViolation]:
    """Check a family of bundles for the matroid base axioms.

    Equal cardinality, plus exchange: for bases B1, B2 and j2 in B2 minus
    B1 there is j1 in B1 minus B2 with B2 - j2 + j1 in the family.
    """
    bases = sorted(set(family))
    if not bases:
        raise ValueError("empty family")
    size = popcount(bases[0])
    for b in bases[1:]:
        if popcount(b) != size:
            return MatroidViolation("cardinality", (bases[0], b))
    members = set(bases)
    for b1 in bases:
        for b2 in bases:
            only2 = b2 & ~b1
            for j2 in iter_items(only2):
                found = False
                for j1 in iter_items(b1 & ~b2):
                    if (b2 ^ (1 << j2)) | (1 << j1) in members:
                        found = True
                        break
                if not found:
                    return MatroidViolation("exchange", (b1, b2, 1 << j2))
    return None


@dataclass(frozen=True)
class TransitionReport:
    """How the minimal demand family changed after one unit raise."""
    kind: str                       # "Restriction", "Deletion", "Augmentation"
    new_minimal: tuple[int, ...]


def classify_transition(v: Valuation, prices: Prices, item: int) -> TransitionReport:
    """Classify the D* transition when one item's price rises by one.

    Restriction: some old base avoids the item, and exactly those survive.
    Deletion: every old base contained it and simply drops it.
    Augmentation: old bases persist and any new base is an old one with the
    item swapped for another. Anything else raises UnclassifiableTransition,
    which cannot happen on substitutes input.
    """
    prices = tuple(prices)
    bit = 1 << item
    before = demand.demand_sets(v, prices).minimal_demand
    after = demand.demand_sets(v, add_indicator(prices, bit)).minimal_demand
    if any(not b & bit for b in before):
        expect = tuple(b for b in before if not b & bit)
        if after == expect:
            return TransitionReport("Restriction", after)
        raise UnclassifiableTransition(
            f"survivors {after} differ from avoiding bases {expect}"
        )
    dropped = tuple(sorted(b ^ bit for b in before))
    if after == dropped:
        return TransitionReport("Deletion", after)
    old = set(before)
    if old.issubset(after):
        swaps_ok = True
        for nb in after:
            if nb in old:
                continue
            if nb & bit:
                swaps_ok = False
                break
            # a new base must be an old one with the raised item swapped
            # out for one other item, so nb xor b flips exactly those two
            if not any(popcount(nb ^ b) == 2 for b in before):
                swaps_ok = False
                break
        if swaps_ok:
            return TransitionReport("Augmentation", after)
    raise UnclassifiableTransition(
        f"transition on item {item} fits no case: {before} -> {after}"
    )


@dataclass(frozen=True)
class UtilityDistanceReport:
    """Witness that a bundle sits within its utility gap of the demand family."""
    gap: int
    demanded: Optional[int]
    addback: Optional[int]
    ok: bool


def check_utility_distance(v: Valuation, prices: Prices, bundle: int) -> UtilityDistanceReport:
    """Find a demanded set inside bundle plus at most gap extra items.

    gap is the utility shortfall of the bundle. On substitutes input the
    witness always exists; ok reports whether one was found.
    """
    prices = tuple(prices)
    report = demand.demand_sets(v, prices)
    gap = report.utility - demand.utility(v, prices, bundle)
    best = None
    for d in report.demand:
        extra = d & ~bundle
        if best is None or popcount(extra) < popcount(best[1]):
            best = (d, extra)
    if best is not None and popcount(best[1]) <= gap:
        return UtilityDistanceReport(gap=gap, demanded=best[0], addback=best[1], ok=True)
    return UtilityDistanceReport(gap=gap, demanded=None, addback=None, ok=False)


@dataclass(frozen=True)
class MarginalReport:
    lhs: int
    rhs: int
    ok: bool


def check_decreasing_marginal(instance: Instance, prices: Prices,
                              x: int, y: int) -> MarginalReport:
    """Lyapunov submodularity across two distinct items:
    L(p+1x) + L(p+1y) >= L(p+1x+1y) + L(p)."""
    if x == y:
        raise ValueError("items must be distinct")
    prices = tuple(prices)
    bx, by = 1 << x, 1 << y
    lhs = (demand.lyapunov(instance, add_indicator(prices, bx))
           + demand.lyapunov(instance, add_indicator(prices, by)))
    rhs = (demand.lyapunov(instance, add_indicator(prices, bx | by))
           + demand.lyapunov(instance, prices))
    return MarginalReport(lhs=lhs, rhs=rhs, ok=lhs >= rhs)


@dataclass(frozen=True)
class GgsMembershipReport:
    member: bool
    reason: str
    completion: Optional[tuple[int, ...]]


def is_ggs_member(v: Valuation, k: int, cap: int,
                  budget: Optional[int] = None,
                  grid_budget: Optional[int] = None) -> GgsMembershipReport:
    """Decide membership in the truncation class by completion search.

    The valuation must equal cap on every bundle of size k or more and stay
    at or below cap on smaller bundles; membership then asks for a
    substitutes valuation agreeing below size k and sitting at or above cap
    from size k up. The search enumerates completions in increasing value
    order, pruning by monotonicity, local submodularity and subadditivity,
    and certifies candidates with the grid check. budget bounds the search
    nodes and grid_budget each grid check; unset, each takes its default,
    which WALRAS_BUDGET overrides.
    """
    if budget is None:
        budget = env_budget(DEFAULT_SEARCH_BUDGET)
    m = v.m
    for s in range(1 << m):
        size = popcount(s)
        if size >= k and v.table[s] != cap:
            return GgsMembershipReport(False, "large bundle off the cap", None)
        if size < k and v.table[s] > cap:
            return GgsMembershipReport(False, "small bundle above the cap", None)

    large = sorted((s for s in range(1 << m) if popcount(s) >= k),
                   key=lambda s: (popcount(s), s))
    table = list(v.table)
    slack = v.vmax
    visits = 0

    def bounds(s: int) -> tuple[int, int]:
        lo = cap
        for j in iter_items(s):
            lo = max(lo, table[s ^ (1 << j)])
        hi = cap + slack
        if popcount(s) >= 2:
            hi = min(hi, sum(table[1 << j] for j in iter_items(s)))
        return lo, hi

    def locally_submodular(s: int) -> bool:
        items = list(iter_items(s))
        for a in range(len(items)):
            x = 1 << items[a]
            for b in range(a + 1, len(items)):
                y = 1 << items[b]
                if table[s] + table[s ^ x ^ y] > table[s ^ x] + table[s ^ y]:
                    return False
        return True

    def rec(i: int) -> Optional[tuple[int, ...]]:
        nonlocal visits
        visits += 1
        if visits > budget:
            raise BudgetExceeded(f"completion search passed {budget} nodes")
        if i == len(large):
            candidate = tuple(table)
            if first_monotonicity_violation(candidate, m) is not None:
                return None
            if not is_submodular(candidate, m):
                return None
            probe = Valuation(m=m, table=candidate)
            if check_gs_on_grid(probe, budget=grid_budget) is None:
                return candidate
            return None
        s = large[i]
        lo, hi = bounds(s)
        for val in range(lo, hi + 1):
            table[s] = val
            if locally_submodular(s):
                found = rec(i + 1)
                if found is not None:
                    return found
        table[s] = cap
        return None

    completion = rec(0)
    if completion is None:
        return GgsMembershipReport(False, "no substitutes completion found", None)
    return GgsMembershipReport(True, "completion found", completion)
