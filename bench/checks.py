"""Independent arithmetic for verifying engine results.

Nothing here calls walras. The ladder and deep markets are assignment
markets: a unit-demand player is one slot, a two-slot OXS player is two
slots that may not take the same item. Their maximum welfare is a
maximum-weight bipartite matching of slots to items, and each player's
best utility at a price has a closed form. Pair-cap players value one
item at its singleton value and any two or more items at the shared cap.
Every op ends in a verdict built from what the program reported and what
these checks found.
"""

from __future__ import annotations

from typing import Optional, Sequence

OK, FAILED, WRONG = "ok", "failed", "wrong"


def verdict(reported_ok: bool, verified: bool) -> str:
    """FAILED when the program itself reports a failure (no termination, an
    anomaly, an invalid certificate); WRONG when it reports success and the
    independent checks refute the result."""
    if not reported_ok:
        return FAILED
    return OK if verified else WRONG


# A player spec is ("unit", values) or ("oxs2", slot0_weights, slot1_weights).
Spec = tuple


def _top_two(xs: Sequence[int]) -> tuple[int, Optional[int], int]:
    """Largest value, its first index, and the largest value elsewhere."""
    best, arg, second = None, None, None
    for j, x in enumerate(xs):
        if best is None or x > best:
            best, arg, second = x, j, best
        elif second is None or x > second:
            second = x
    return best, arg, second


def slot_utility(spec: Spec, prices: Sequence[int]) -> int:
    """Best utility of one unit-demand or two-slot OXS player."""
    if spec[0] == "unit":
        return max(0, max(v - p for v, p in zip(spec[1], prices)))
    a = [w - p for w, p in zip(spec[1], prices)]
    b = [w - p for w, p in zip(spec[2], prices)]
    top_a, arg_a, second_a = _top_two(a)
    top_b, arg_b, second_b = _top_two(b)
    if arg_a != arg_b:
        pair = top_a + top_b
    else:
        pair = max(top_a + (second_b if second_b is not None else 0),
                   top_b + (second_a if second_a is not None else 0))
    return max(0, top_a, top_b, pair)


def slot_lyapunov(specs: Sequence[Spec], prices: Sequence[int]) -> int:
    """Total best utility plus total price."""
    return sum(slot_utility(s, prices) for s in specs) + sum(prices)


def slot_rows(specs: Sequence[Spec]) -> list[list[int]]:
    rows = []
    for s in specs:
        rows.extend(list(w) for w in s[1:])
    return rows


def max_weight_matching(weights: Sequence[Sequence[int]]) -> int:
    """Maximum total weight of a matching in a nonnegative bipartite graph.

    Hungarian algorithm on the square matrix padded with zero weights, so
    leaving a row or column unmatched costs nothing. Exact integers.
    """
    rows = len(weights)
    cols = len(weights[0]) if rows else 0
    n = max(rows, cols)
    if n == 0:
        return 0
    cost = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(rows):
        for j in range(cols):
            cost[i + 1][j + 1] = -weights[i][j]
    inf = 1 << 62
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    owner = [0] * (n + 1)          # row matched to each column, 0 for none
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = owner[j0]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost[i0][j] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return sum(weights[owner[j] - 1][j - 1] for j in range(1, n + 1)
               if owner[j] - 1 < rows and j - 1 < cols)


def slot_welfare(specs: Sequence[Spec]) -> int:
    return max_weight_matching(slot_rows(specs))


def paircap_value(singles: Sequence[int], cap: int, bundle: int) -> int:
    if bundle == 0:
        return 0
    if bundle & (bundle - 1):
        return cap
    return singles[bundle.bit_length() - 1]


def paircap_utility(singles: Sequence[int], cap: int, prices: Sequence[int]) -> int:
    """Best utility: nothing, one item, or the two cheapest items at the cap."""
    best = max(0, max(s - p for s, p in zip(singles, prices)))
    if len(prices) >= 2:
        low = sorted(prices)
        best = max(best, cap - low[0] - low[1])
    return best


def paircap_equilibrium(players: Sequence[Sequence[int]], cap: int,
                        prices: Sequence[int],
                        alloc: Optional[Sequence[int]]) -> Optional[int]:
    """Welfare of alloc when it proves prices Walrasian, else None.

    The allocation must be disjoint, hand every player a bundle of best
    utility, and leave no positively priced item unallocated. By the first
    welfare theorem its welfare is then the maximum welfare.
    """
    if alloc is None or len(alloc) != len(players):
        return None
    used = 0
    welfare = 0
    for singles, bundle in zip(players, alloc):
        if used & bundle:
            return None
        used |= bundle
        value = paircap_value(singles, cap, bundle)
        cost = sum(p for j, p in enumerate(prices) if bundle >> j & 1)
        if value - cost != paircap_utility(singles, cap, prices):
            return None
        welfare += value
    if any(p > 0 and not used >> j & 1 for j, p in enumerate(prices)):
        return None
    return welfare
