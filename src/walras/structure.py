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
itself a failing pair. The scan here does unit steps on an (m+1)-axis
array of demanded bundles, one axis per item and one over bundles, and
returns the first witness in lexicographic order of (price, item, bundle),
in doubled-price coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import demand
from .model import (
    DEFAULT_GRID_BUDGET, DEFAULT_OP_BUDGET, BudgetExceeded, Instance,
    InvariantViolation, Prices, Valuation, add_indicator, check_index, dominated,
    env_budget, iter_items, popcount,
)


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


def doubled(v: Valuation) -> Valuation:
    """v with every value doubled, the valuation whose demand the
    doubled-price grid reads; twice an entry is formed in int64 or Python
    integers, past the headroom of a narrower table."""
    return Valuation(m=v.m, table=v.np_table.astype(np.result_type(v.np_table, np.int64)) * 2)


def gs_witness_holds(v: Valuation, witness: GsWitness) -> bool:
    """Verify a witness directly against the doubled valuation."""
    twice = doubled(v)
    low = demand.demand_sets(twice, witness.price_low).demand
    high = demand.demand_sets(twice, witness.price_high).demand
    if witness.bundle not in low:
        return False
    if not dominated(witness.price_low, witness.price_high):
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


def check_gs_on_grid(v: Valuation) -> Optional[GsWitness]:
    """Scan the doubled-price grid for a substitutes violation.

    Returns None on a clean pass (heuristic evidence) or the first witness
    in scan order (sound). The grid's bound is fixed at one past twice the
    largest value, 2 * vmax + 1, which covers every price at which demand
    can still change. The scan holds one utility per grid point and
    bundle, (2 * vmax + 2)**m * 2**m entries, at most the grid budget,
    which WALRAS_BUDGET overrides.
    """
    m = v.m
    budget = env_budget(DEFAULT_GRID_BUDGET)
    radix = 2 * v.vmax + 2
    points = radix ** m
    if points << m > budget:
        raise BudgetExceeded(f"grid scan holds {points << m} entries, budget {budget}")
    # int64 (or Python integers): the grid prices subtract up to m times
    # radix from twice the table, past any narrower table's headroom
    twice = v.np_table.astype(np.result_type(v.np_table, np.int64)) * 2

    masks = demand._masks(m)
    # demanded[p + (S,)]: bundle S is demanded at grid price p
    util = np.broadcast_to(twice, (radix,) * m + (1 << m,)).copy()
    for j, x in enumerate(np.ix_(*[np.arange(radix)] * m)):
        util -= x[..., None] * (masks >> j & 1)
    demanded = util == util.max(axis=-1, keepdims=True)
    del util

    # reach[p + (R,)] records whether some demanded bundle at p contains R
    reach = demanded.copy()
    cols = np.arange(1 << m)
    for j in range(m):
        reach |= np.take(reach, cols | (1 << j), axis=-1)

    # the first (p, j, S) in lexicographic order whose unit step q = p + 1_j
    # demands no bundle holding S's other items
    best = None
    for j in range(m):
        axis = (slice(None),) * j
        high = np.take(reach[axis + (slice(1, None),)], cols & ~(1 << j), axis=-1)
        viol = demanded[axis + (slice(None, -1),)] & ~high
        hits = np.argwhere(viol.any(axis=-1))
        if len(hits):
            p = tuple(int(x) for x in hits[0])
            cand = (p, j, int(np.flatnonzero(viol[p])[0]))
            if best is None or cand < best:
                best = cand
    if best is None:
        return None

    p, j, s = best
    q = add_indicator(p, 1 << j)
    kept = s & ~(1 << j)
    union_high = int(np.bitwise_or.reduce(np.flatnonzero(demanded[q])))
    excluded = kept & ~union_high
    violated = min(iter_items(excluded)) if excluded else None
    witness = GsWitness(price_low=p, price_high=q, bundle=s,
                        kept_bundle=kept, violated_item=violated)
    if not gs_witness_holds(v, witness):
        raise InvariantViolation("grid scan produced a bad witness")
    return witness


@dataclass(frozen=True)
class MatroidViolation:
    kind: str                       # "cardinality" or "exchange"


def check_matroid_bases(family: Sequence[int]) -> Optional[MatroidViolation]:
    """Check a family of bundles for the matroid base axioms.

    Equal cardinality, plus exchange: for bases B1, B2 and j2 in B2 minus
    B1 there is j1 in B1 minus B2 with B2 - j2 + j1 in the family. The
    exchange scan of k bases of r items counts k**2 * r**2 steps against
    the default op budget, which WALRAS_BUDGET overrides, before it starts,
    and raises BudgetExceeded past it.
    """
    bases = sorted(set(family))
    if not bases:
        raise ValueError("empty family")
    size = popcount(bases[0])
    for b in bases[1:]:
        if popcount(b) != size:
            return MatroidViolation("cardinality")
    # each ordered pair of bases, each item of one and each of the other
    steps = len(bases) ** 2 * size ** 2
    budget = env_budget(DEFAULT_OP_BUDGET)
    if steps > budget:
        raise BudgetExceeded(f"matroid exchange scan of {len(bases)} bases needs "
                             f"{steps} steps, budget {budget}")
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
                    return MatroidViolation("exchange")
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
    check_index("item", item, v.m, v.m)
    before = demand.demand_sets(v, prices).minimal_demand
    after = demand.demand_sets(v, add_indicator(prices, 1 << item)).minimal_demand
    return _classify(before, after, item)


def transition_misses(v: Valuation, raised: Sequence[np.ndarray],
                      report: demand.DemandReport) -> list[tuple[int, str]]:
    """(item, detail) for every item, in order, whose unit raise
    classify_transition rejects, with its exception's message. report is
    demand_sets(v, p): D*(p) comes from it for all m items. raised[j] is
    demand._bundle_prices at p + 1_j, and each raise is one scan."""
    misses = []
    for item, pcost in enumerate(raised):
        try:
            _classify(report.minimal_demand, demand._scan(v, pcost)[2], item)
        except UnclassifiableTransition as exc:
            misses.append((item, str(exc)))
    return misses


def _classify(before: tuple[int, ...], after: tuple[int, ...],
              item: int) -> TransitionReport:
    """classify_transition from D* before and after the raise of item."""
    bit = 1 << item
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
    ok: bool


def check_utility_distance(v: Valuation, prices: Prices, bundle: int) -> UtilityDistanceReport:
    """Find a demanded set inside bundle plus at most gap extra items.

    gap is the utility shortfall of the bundle. On substitutes input the
    witness always exists; ok reports whether one was found. Only D*(p) is
    scanned: the demanded set with fewest extra items and the smallest mask
    is inclusion-minimal, since a demanded superset has a larger mask and
    no fewer extra items.
    """
    prices = tuple(prices)
    report = demand.demand_sets(v, prices)
    gap = report.utility - demand.utility(v, prices, bundle)
    best = None
    for d in report.minimal_demand:
        extra = d & ~bundle
        if best is None or popcount(extra) < popcount(best[1]):
            best = (d, extra)
    if best is not None and popcount(best[1]) <= gap:
        return UtilityDistanceReport(gap=gap, demanded=best[0], ok=True)
    return UtilityDistanceReport(gap=gap, demanded=None, ok=False)


def utility_drop_misses(v: Valuation, report: demand.DemandReport,
                        pcost: np.ndarray) -> list[tuple[int, int, int]]:
    """(bundle, expected, observed) for every nonempty bundle S whose unit
    raise p + 1_S does not lower v's best utility by min |D & S| over D in
    D*(p), the utility-drop identity, in mask order: the best utilities
    after every raise against top minus the overlap row, as one array.
    report is demand_sets(v, p), which gives top and D*(p), and pcost
    demand._bundle_prices at p."""
    observed = demand._raise_sweep(demand._utilities((v,), pcost), [(0, -1)] * v.m)[0]
    overlap = demand._overlap_row(report.minimal_demand, v.m)
    # in the utilities' dtype: top minus a uint8 row would wrap
    expected = report.utility - overlap.astype(observed.dtype)
    return [(s, int(expected[s]), int(observed[s]))
            for s in (observed != expected).nonzero()[0].tolist() if s]


def utility_distance_misses(v: Valuation, report: demand.DemandReport,
                            pcost: np.ndarray) -> list[int]:
    """Every bundle, in mask order, for which check_utility_distance finds
    no witness, compared for all bundles as one array: the fewest extra
    items over D*(p), min |D & ~S|, is the overlap row at the complement
    of S, and a miss is one that exceeds the utility gap. report is
    demand_sets(v, p), which gives the best utility and D*(p), and pcost
    demand._bundle_prices at p."""
    extra = demand._overlap_row(report.minimal_demand, v.m)[::-1]
    gap = report.utility - demand._utilities((v,), pcost)[0]
    return (extra > gap).nonzero()[0].tolist()


@dataclass(frozen=True)
class MarginalReport:
    lhs: int
    rhs: int
    ok: bool


def decreasing_marginal_reports(instance: Instance, prices: Prices, *,
                                pcost: Optional[np.ndarray] = None
                                ) -> dict[tuple[int, int], MarginalReport]:
    """Lyapunov submodularity across every pair of items x < y:
    L(p+1x) + L(p+1y) >= L(p+1x+1y) + L(p), all values from one sweep.
    pcost, when the caller has it, is demand._bundle_prices at prices."""
    after = demand.lyapunov_after_raise(instance, prices, pcost=pcost)
    reports = {}
    for x in range(instance.m):
        for y in range(x + 1, instance.m):
            lhs = int(after[1 << x]) + int(after[1 << y])
            rhs = int(after[1 << x | 1 << y]) + int(after[0])
            reports[x, y] = MarginalReport(lhs=lhs, rhs=rhs, ok=lhs >= rhs)
    return reports
