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
the unit raises of a set that leave every demand family as it is, from the
demand its caller passes and the value tables, so the gs and fine engines
can take them without a view for each.

Demand, D*(p) and the overlaps enumerate all 2**m bundles per player, and
the obstacle all 2**m excess values. Two quantities are sweeps instead,
both one (max,+) pass per item over the subset lattice (_raise_sweep): the
Lyapunov values after every unit raise p + 1_S (n * m * 2**m steps) and,
for oracle.minimal_walrasian_price, at every point of a price grid (about
twice the grid size per player). Every price grid has the layout
that sweep leaves, item 0 fastest, and only this module knows it: a grid
vector's reshape(radix, order="F") is an array whose axis j is item j.
A view's two super-linear steps, the minimal filter (|D| * |D*|
comparisons) and the overlap row (one popcount pass of 2**m entries per
member of D*), raise BudgetExceeded past DEFAULT_OP_BUDGET, which
WALRAS_BUDGET does not move.
The filter reads a family in mask order, where every bundle comes after
its subsets: up to SCAN_MEMBERS members it is a Python scan, and above
that one numpy peel per minimal member (take the first bundle left, drop
its supersets), so the families of 2**(m-1) bundles and more that
unit-demand and OXS players demand near zero prices, with at most a
handful of minimal members, cost no Python per member.
The per-price views behind the market reports are memoized for one market
at a time: the instance queried last, compared by identity, so the engines
run on one market share its views without hashing its tables. _market is
the memo's only reader and writer: every other function here reaches a
view through it, so what the memo keeps or evicts changes how often a view
is built, never a result. Only an instance owns the memo: demand_sets and
min_demand_overlap read one valuation's value table, and the table passes
(stable_raises, demand_families, utilities_after_raise) write each
player's utilities from it into a fresh array; neither holds anything.
With the views the memo holds what every view of the market reuses: one
read-only uint8 overlap row per minimal demand family met, which every
player and view with that family shares. A query on another market starts
the memo afresh. Both kinds count against MEMO_ENTRIES int64 entries: a
view (n + 2) * 2**m, which bounds its arrays but not its tuples of demand
families, and a row its 2**m bytes. Rows go in while one view still fits
beside them, and views make room for them; once the count is full, each
new view replaces the last one added and no row is added.

Every table pass runs in the narrowest dtype exact for it. Bundle prices
take model._int_dtype of m * max |p| and value tables (Valuation.np_table)
that of their entries: int16 within 2**13 of zero, int32 within 2**29,
int64 within 2**61, else Python integers. A utility is one entry minus one
bundle price, and the passes over utilities (_scan, _utilities and the
raise sweeps) take the wider dtype of the two by numpy's promotion, where
the headroom keeps a utility, a difference of two utilities, or a
utility less up to m unit raises exact. What sums more than that reads
int64: the Lyapunov sum over players here, the doubled grid in
structure.check_gs_on_grid and the price grid in
oracle.minimal_walrasian_price. stable_raises starts its masked maximum
from the least utility of the dtype, _FLOOR.

Ascending auctions only raise prices, and a new view is built from the one
the memo returned last whenever no price fell since. Going from b to q >= b
lowers each bundle T's utility by cost(T) = (q - b) . T and raises none, so
the bundles that still reach b's top utility at q are exactly the demanded
bundles that avoid the raised items S = supp(q - b). A player whose
demanded bundles all avoid S (the union of its demand family, the view's
reach, is disjoint from S) therefore keeps its row at q exactly.

Every other player's row, one whose demand meets a raised item, is
scanned from its value table again, by the same code and budget checks as
a full build, with one bundle pricing per view that has such a row. A
rescanned row whose D* is the base's keeps the base's overlap row itself,
even where the memo holds no rows; otherwise its overlaps come from the
memo whenever its D* was met before on the market. So only a row whose D*
changed is a different array, and the excess is the base's plus the
change in those rows. On the benchmark's deep markets a view the fine
auction builds redoes about a quarter of the players' rows.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    DEFAULT_OP_BUDGET, BudgetExceeded, Instance, Prices, Valuation, _int_dtype,
    check_index, check_players, check_price_count, lex_key, popcount, price_of,
)


@lru_cache(maxsize=32)
def _masks(m: int) -> np.ndarray:
    """Every bundle mask of m items, in order, read-only."""
    masks = np.arange(1 << m, dtype=np.int64)
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=32)
def _popcounts(m: int) -> np.ndarray:
    """The size of every bundle of m items, in mask order, read-only, in
    int64: a view's excess is a uint8 overlap row less these, which wraps."""
    pc = np.bitwise_count(_masks(m)).astype(np.int64)
    pc.setflags(write=False)
    return pc


@lru_cache(maxsize=32)
def _halves(m: int, dtype) -> np.ndarray:
    """The bit matrices of the high and the low half of m items, as the two
    diagonal blocks of one read-only matrix of dtype with m columns: first a
    row per bundle of items m // 2 .. m - 1, then one per bundle of the
    items below."""
    low = m // 2
    high = 1 << (m - low)
    blocks = np.zeros((high + (1 << low), m), dtype=dtype)
    blocks[:high, low:] = _masks(m - low)[:, None] >> np.arange(m - low) & 1
    blocks[high:, :low] = _masks(low)[:, None] >> np.arange(low) & 1
    blocks.setflags(write=False)
    return blocks


def _bundle_prices(m: int, prices: Prices) -> np.ndarray:
    """Every bundle's price, in the dtype _int_dtype gives m * max |p|: the
    narrowest integer one that holds every bundle price with headroom, else
    Python integers. Every table pass prices bundles here, so this is where
    a price vector of the wrong length is rejected.

    A mask is its high items above its low ones, so its price is the price
    of its high half plus that of its low half: one product with _halves(m),
    of about 2 * 2**(m/2) rows, and one broadcast add of 2**m entries. Both
    run in that dtype, and no partial sum exceeds m * max |p|.
    """
    check_price_count(prices, m)
    top = m * max(map(abs, prices))
    dtype = _int_dtype(-top, top)
    half = _halves(m, dtype) @ np.asarray(prices, dtype=dtype)
    high = 1 << (m - m // 2)
    return (half[:high, None] + half[high:]).ravel()


def _utilities(players: Sequence[Valuation], prices: Prices) -> np.ndarray:
    """players x 2**m: each value table minus the price of every bundle,
    written one row per player in the widest of the tables' and the bundle
    prices' dtypes, so in Python integers where a table or the prices are."""
    pcost = _bundle_prices(players[0].m, prices)
    dtype = np.result_type(pcost, *{v.np_table.dtype for v in players})
    util = np.empty((len(players), len(pcost)), dtype=dtype)
    for row, v in zip(util, players):
        np.subtract(v.np_table, pcost, out=row)
    return util


def _grid_sum(offsets) -> np.ndarray:
    """offsets[0][x_0] + ... + offsets[m-1][x_{m-1}] at every grid point X.

    This is the one layout of a price grid, the one _raise_sweep leaves:
    item 0 moves fastest, so vec.reshape(radix, order="F") is a free view
    whose axis j is item j, and np.argwhere reads price tuples off it.
    """
    total = np.zeros(1, dtype=np.int64)
    for off in offsets:
        total = (np.asarray(off, dtype=np.int64)[:, None] + total).ravel()
    return total


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


# Families up to this many members are filtered by a Python scan, larger
# ones (a unit-demand player near zero prices demands 2**(m-1) or more) by a
# numpy peel, which costs a few microseconds a pass but no Python per member.
SCAN_MEMBERS = 128


def _filter_over_budget(size: int, accepted: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"minimal filter of {size} bundles needs up to {size * accepted} "
        f"comparisons, budget {DEFAULT_OP_BUDGET}")


def _minimal_members(family: np.ndarray) -> tuple[int, ...]:
    """Inclusion-minimal members, in increasing order, of a family of masks
    given as an int64 array in increasing order.

    A proper subset of a mask is a smaller number, so every member comes
    after all of its subsets in the family: a member is minimal exactly when
    it contains none of the minimal members before it. A small family is
    scanned that way. A large one is peeled, one numpy pass per minimal
    member: the first member left is minimal, and the pass drops it with
    all its supersets. Each accepted member costs at most |family|
    comparisons, and the running count is held to the default op budget.
    """
    size = len(family)
    accepted: list[int] = []
    if size <= SCAN_MEMBERS:
        for cand in family.tolist():
            for low in accepted:
                if low & cand == low:
                    break
            else:
                accepted.append(cand)
                if size * len(accepted) > DEFAULT_OP_BUDGET:
                    raise _filter_over_budget(size, len(accepted))
    else:
        rest = family
        while rest.size:
            cand = int(rest[0])
            accepted.append(cand)
            if size * len(accepted) > DEFAULT_OP_BUDGET:
                raise _filter_over_budget(size, len(accepted))
            rest = rest[(rest & cand) != cand]
    return tuple(accepted)


class _MarketView:
    """Demand data of one market at fixed prices, indexed by player."""

    __slots__ = ("utility", "demand", "minimal", "reach", "overlap", "excess")

    def __init__(self, utility, demand, minimal, reach, overlap, excess):
        self.utility = utility      # best utility per player
        self.demand = demand        # demand family per player
        self.minimal = minimal      # minimal demand family D*(p) per player
        self.reach = reach          # union of the demanded bundles per player
        self.overlap = overlap      # per player, a uint8 row: min |D & S| over D*(p)
        self.excess = excess        # excess demand per bundle mask


# The most int64 entries the memo counts for one market (16 MB), by the
# rules of the module docstring; a shared row is 2**m / 8 entries, at
# least one. The count misses a view's Python tuples: near zero prices,
# where unit-demand and OXS players demand half the bundles or more, the
# demand families alone take 4.3 MiB against 2.4 MiB counted for the view
# of ladder_market(Random("cli/14"), 14) at zero prices, and 17.2 MiB
# against 10.5 MiB at m = 16.
# An engine visits each price once, so the views worth keeping are the
# first ones, which a later engine on the same market walks again from the
# same start: once the memo is full, each new view replaces the last one
# added instead. The benchmark's ladder keeps all but a few dozen of the
# views it revisits, and deep's runs of up to 6,000 steps hold no more
# memory than 1,024 views did. The memo also names the view it returned
# last, always one of those it holds, so keeping it costs nothing more: a
# view at prices at or above its prices keeps its rows and redoes only
# those whose demand meets a raised item (see the module docstring).
MEMO_ENTRIES = 1 << 21

class _Memo(NamedTuple):
    """What the memo holds for the market queried last. Swapped as one
    tuple, so a reader never pairs one market's owner with another's views
    or rows; the dicts are made when an instance takes the memo."""
    owner: Optional[Instance] = None        # compared by identity
    views: Optional[dict] = None            # views by price
    prices: Optional[Prices] = None         # prices of the view returned last
    view: Optional[_MarketView] = None      # that view
    rows: Optional[dict] = None             # overlap rows by minimal demand family


_memo = _Memo()

# per utility dtype, a value below every utility it holds: stable_raises'
# initial. Python integers have no least value.
_FLOOR = {np.dtype(t): int(np.iinfo(t).min) for t in (np.int16, np.int32, np.int64)}
_FLOOR[np.dtype(object)] = float("-inf")


def _row_entries(m: int) -> int:
    """What one shared uint8 overlap row counts against MEMO_ENTRIES."""
    return max(1, 1 << m >> 3)


def _make_room(views: dict, size: int, other: int) -> None:
    """Drop the views added last until they, at size entries each, and
    other entries fit in MEMO_ENTRIES."""
    while views and len(views) * size + other > MEMO_ENTRIES:
        with suppress(KeyError):    # emptied by another thread
            views.popitem()


def _overlap_row(minimal: tuple[int, ...], m: int) -> np.ndarray:
    """min |D & S| over D in minimal, for every bundle S, as a read-only
    uint8 row that views may share."""
    if len(minimal) << m > DEFAULT_OP_BUDGET:
        raise BudgetExceeded(
            f"demand overlaps need {len(minimal) << m} entries, "
            f"budget {DEFAULT_OP_BUDGET}")
    masks = _masks(m)
    row = np.bitwise_count(masks & minimal[0])
    for low in minimal[1:]:
        np.minimum(row, np.bitwise_count(masks & low), out=row)
    row.setflags(write=False)
    return row


def _scan(v: Valuation, pcost: np.ndarray):
    """v's best utility at the prices whose bundle costs are pcost, its
    demand family as an int64 array in mask order and its minimal demand
    family."""
    util = v.np_table - pcost
    top = int(util.max())
    hit = (util == top).nonzero()[0]
    return top, hit, _minimal_members(hit)


def _row(v: Valuation, pcost: np.ndarray):
    """One player's view row at the prices whose bundle costs are pcost,
    without its overlap row: best utility, demand family, minimal demand
    family and the union of its demanded bundles."""
    top, hit, minimal = _scan(v, pcost)
    return top, tuple(hit.tolist()), minimal, int(np.bitwise_or.reduce(hit))


def _market(instance: Instance, prices: Prices) -> _MarketView:
    """The view of instance at prices: the memo's, or one built from the
    view it returned last or from the value tables (see the module
    docstring)."""
    global _memo
    prices = tuple(prices)
    memo = _memo
    if memo.owner is instance:
        view = memo.views.get(prices)
        if view is not None:
            if view is not memo.view:
                _memo = _Memo(instance, memo.views, prices, view, memo.rows)
            return view
    else:
        memo = _memo = _Memo(instance, {}, None, None, {})
    views, shared = memo.views, memo.rows
    base, base_prices = memo.view, memo.prices
    players, m = instance.players, instance.m
    check_price_count(prices, m)
    n = len(players)
    size, row_size = (n + 2) << m, _row_entries(m)
    # rows the memo may hold with one view
    limit = (MEMO_ENTRIES - size) // row_size

    def overlap_of(minimal: tuple[int, ...]) -> np.ndarray:
        row = shared.get(minimal)
        if row is None:
            row = _overlap_row(minimal, m)
            if len(shared) < limit:
                shared[minimal] = row
        return row

    rising = base is not None and all(q >= b for q, b in zip(prices, base_prices))
    if rising:
        # rows whose demand avoids every raised item are the base's
        rose = sum(1 << j for j, (q, b) in enumerate(zip(prices, base_prices))
                   if q > b)
        rows = list(zip(base.utility, base.demand, base.minimal, base.reach,
                        base.overlap))
        stale = [i for i, r in enumerate(base.reach) if r & rose]
    else:
        rows, stale = [None] * n, range(n)
    pcost = _bundle_prices(m, prices) if stale else None
    for i in stale:
        top, family, minimal, reach = _row(players[i], pcost)
        # a row rescanned to the base's minimal family keeps its overlap row
        if rising and minimal == base.minimal[i]:
            overlap = base.overlap[i]
        else:
            overlap = overlap_of(minimal)
        rows[i] = top, family, minimal, reach, overlap
    utility, families, minimals, reach, overlap = zip(*rows)
    if rising:
        excess = base.excess
        changed = [i for i in stale if overlap[i] is not base.overlap[i]]
        if changed:
            excess = excess.copy()
            for i in changed:
                excess += overlap[i]
                excess -= base.overlap[i]
    else:
        excess = overlap[0] - _popcounts(m)
        for row in overlap[1:]:
            excess += row
    excess.setflags(write=False)
    view = _MarketView(utility, families, minimals, reach, overlap, excess)
    _make_room(views, size, size + len(shared) * row_size)
    views[prices] = view
    _memo = _Memo(instance, views, prices, view, shared)
    return view


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


def utility(v: Valuation, prices: Prices, bundle: int) -> int:
    """v(S) minus the price of S."""
    check_index("bundle", bundle, 1 << v.m, v.m)
    check_price_count(prices, v.m)
    return v.table[bundle] - price_of(prices, bundle)


def demand_sets(v: Valuation, prices: Prices) -> DemandReport:
    """Full and minimal demand families of one valuation, by enumeration,
    reported as player 0. Reads v's value table and holds nothing."""
    top, hit, minimal = _scan(v, _bundle_prices(v.m, prices))
    return DemandReport(0, top, tuple(hit.tolist()), minimal)


def demand_reports(instance: Instance, prices: Prices) -> tuple[DemandReport, ...]:
    view = _market(instance, prices)
    return tuple(DemandReport(i, *row) for i, row in
                 enumerate(zip(view.utility, view.demand, view.minimal)))


def min_demand_overlap(v: Valuation, prices: Prices, bundle: int) -> int:
    """Smallest |D & bundle| over the minimal demand family D*(p)."""
    check_index("bundle", bundle, 1 << v.m, v.m)
    return min(popcount(d & bundle) for d in demand_sets(v, prices).minimal_demand)


def excess_demand(instance: Instance, prices: Prices, bundle: int) -> int:
    """Sum of unavoidable overlaps with the bundle minus the bundle size."""
    check_index("bundle", bundle, 1 << instance.m, instance.m)
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
    if players is not None:
        check_players(players, instance.n)
    view = _market(instance, prices)
    if players is None:
        overlap, excess = view.overlap, view.excess
    else:
        overlap = [view.overlap[i] for i in players]
        excess = np.sum(overlap, axis=0, dtype=np.int64) - _popcounts(instance.m)
    top = int(excess.max())
    if top <= 0:
        return ObstacleReport(0, 0, (0,) * len(overlap), True)
    minimal = _minimal_members((excess == top).nonzero()[0])
    best = min(minimal, key=lex_key)
    return ObstacleReport(
        bundle=best,
        excess=top,
        per_player=tuple(int(row[best]) for row in overlap),
        unique=len(minimal) == 1,
    )


def lyapunov(instance: Instance, prices: Prices) -> int:
    """Total maximum utility plus total price."""
    view = _market(instance, prices)
    return sum(view.utility) + sum(prices)


def stable_raises(instance: Instance, prices: Prices, raised: int,
                  tops: Sequence[int], families: Sequence) -> Optional[int]:
    """The break point k*: unit raises of raised from prices that keep every
    player's demand family, or None when no raise ever changes it. tops and
    families are each player's best utility and demand family at prices,
    as held_demand gives them; besides them it reads only the value tables.

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
    held = [popcount(family[0] & raised) for family in families]
    if any(popcount(s & raised) != c for family, c in zip(families, held) for s in family):
        return 1
    if not any(held):
        return None
    meet = _popcounts(instance.m)[_masks(instance.m) & raised]
    util = _utilities(instance.players, prices)
    top = np.array(tops, dtype=util.dtype)
    over = np.array(held, dtype=np.int64)
    # every level up to |R| has bundles, so the initial never survives
    floor = _FLOOR[util.dtype]
    found = []
    for level in range(max(held)):
        best = util.max(axis=1, where=meet == level, initial=floor)
        behind = over > level
        # ceil((u_i - u_T) / (c_i - level)) by exact floor division
        found.append((-((best - top)[behind] // (over[behind] - level))).min())
    return int(min(found))


def held_demand(instance: Instance, prices: Prices) -> tuple[tuple, tuple]:
    """Each player's best utility and demand family at prices, the tuples of
    the market's view there."""
    view = _market(instance, prices)
    return view.utility, view.demand


def demand_families(instance: Instance, prices: Prices) -> tuple[tuple[int, ...], ...]:
    """Each player's demand family at prices, straight from the value tables.

    Reads no view and stores none, so it checks the views independently:
    the auction loop uses it to confirm the last prices of a replay.
    """
    util = _utilities(instance.players, prices)
    hit = util == util.max(axis=1, keepdims=True)
    # one nonzero pass over all players, row-major, split at each row's end
    members = hit.nonzero()[1].tolist()
    ends = np.cumsum(hit.sum(axis=1)).tolist()
    return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))


def utilities_after_raise(players: Sequence[Valuation], prices: Prices) -> np.ndarray:
    """players x 2**m: each player's best utility at p + 1_S for every
    bundle S, max over T of u(T) - |S & T|, by one sweep."""
    return _raise_sweep(_utilities(players, prices), [(0, -1)] * len(prices))


def lyapunov_after_raise(instance: Instance, prices: Prices) -> np.ndarray:
    """L(p + 1_S) for every bundle S, by one sweep: the players' best
    utilities at p + 1_S plus |S| + sum(p), in that order. Each utility lies
    between its empty-bundle value and vmax less the least bundle price;
    the sum over players is in int64 whatever the utilities' dtype, and in
    Python integers when n such bounds may leave int64."""
    prices = tuple(prices)
    util = utilities_after_raise(instance.players, prices)
    bound = max(abs(instance.vmax), *(abs(v.table[0]) for v in instance.players))
    bound = instance.n * (bound + instance.m * max(0, -min(prices)))
    if _int_dtype(-bound, bound) is object:
        util = util.astype(object)
    # numpy sums int16 and int32 in int64
    return util.sum(axis=0) + _popcounts(instance.m) + sum(prices)


def minimal_minimizer_report(instance: Instance, prices: Prices) -> MinimizerReport:
    """Smallest bundle whose unit raise minimizes the Lyapunov function.

    Minimizers are compared by cardinality and then lexicographically by
    item order; the unique flag records whether the lexicographic tie-break
    fired. On gross-substitutes input the minimizer is provably unique.
    """
    after = lyapunov_after_raise(instance, prices)
    low = int(after.min())
    cands = [int(s) for s in np.nonzero(after == low)[0]]
    size = min(popcount(s) for s in cands)
    smallest = [s for s in cands if popcount(s) == size]
    best = min(smallest, key=lex_key)
    return MinimizerReport(bundle=best, lyapunov_after=low, unique=len(smallest) == 1)


def minimal_minimizer(instance: Instance, prices: Prices) -> int:
    return minimal_minimizer_report(instance, prices).bundle

