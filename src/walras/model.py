"""Market model: items, integer valuations, prices, allocations, instances.

The universe is a list of item labels; bundles are bitmasks over item
indices, so an instance with m items has exactly 2**m bundles and every
valuation is an explicit table of 2**m nonnegative integers, stored as one
array: Valuation.np_table, read-only, in the dtype _int_dtype gives its
entries. Valuation.table reads it out as a fresh tuple of Python integers
and keeps nothing. Everything downstream (demand oracles, auctions,
brute-force certifiers) enumerates these tables exhaustively, which is why
m is capped at 20 and values are kept at desk scale.

All values and prices are integers. Rational inputs are rejected rather
than scaled.

Building a valuation checks it as it loads. make_table checks the
table's length and the type of every entry (int, not bool); the
additive and unit-demand constructors fill their tables by doubling;
make_truncation fills its array from the base's and checks it monotone
and submodular; and instance_from_json also runs validate on every player:
zero on the empty bundle, every value in 0..vmax, and no value drop along
a one-item step. The checks make no Python call per entry: the type check
is one pass over the entries' types, the range check a min and a max, and
the monotonicity scan a numpy pass from ARRAY_SCAN_MIN (2**6) entries.
The unit-demand fill is a numpy pass from ARRAY_FILL_MIN (2**10) entries;
the additive fill stays a list loop. Below those sizes numpy's fixed cost
per call is the larger one. The array and every numpy pass take one dtype
rule, _int_dtype: the narrowest of int16, int32 and int64 whose values
stay within 2**13, 2**29 or 2**61 of zero, so the sum or difference of
two of them is exact, and Python integers past 2**61. From ARRAY_SCAN_MIN
entries the dtype is read off one int64 conversion, below that by Python's
min and max. Every benchmark and CLI value table fits int16.
Reading a JSON table player looks each key up in a map from every sorted
key to its mask, built once per item list, and writes the values into the
array; a player with a key that is not its labels sorted, a missing bundle
or a bad value is read one key at a time, so every error names the first
bad key in order.

The error types shared by every module live here too, with the two
enumeration budgets: DEFAULT_OP_BUDGET in steps, entries or nodes, and
DEFAULT_GRID_BUDGET in grid points or entries. Each exhaustive search
reads env_budget(its default) where it checks its size, so WALRAS_BUDGET
is the one override, and raises BudgetExceeded past it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

MAX_ITEMS = 20
DEFAULT_VMAX = 64
DEFAULT_OP_BUDGET = 20_000_000
DEFAULT_GRID_BUDGET = 1 << 22


class ModelError(ValueError):
    """Malformed model input (bad table, bad labels, bad JSON)."""


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


def env_budget(default: int) -> int:
    """Default enumeration budget, overridable via WALRAS_BUDGET."""
    raw = os.environ.get("WALRAS_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise BudgetExceeded(f"WALRAS_BUDGET must be an integer, got {raw!r}")


class TruncationBoundsViolated(ModelError):
    """Truncating the base at this level breaks monotonicity or submodularity."""


# ---------------------------------------------------------------------------
# bundles as bitmasks

def popcount(mask: int) -> int:
    return mask.bit_count()


def iter_items(mask: int) -> Iterable[int]:
    """Yield item indices of a bundle mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_index(what: str, value: int, size: int, m: int) -> None:
    """Reject an item index (size m) or a bundle mask (size 2**m) of an
    m-item market outside 0 .. size - 1, naming the argument and m: a
    negative one would otherwise wrap around a table or a numpy row."""
    if not 0 <= value < size:
        raise ValueError(f"{what} must be in 0..{size - 1} for m = {m}, got {value}")


def check_players(players: Sequence[int], n: int) -> None:
    """Reject repeated player indices and any outside 0 .. n - 1, naming n."""
    if len(set(players)) < len(players) or not all(0 <= i < n for i in players):
        raise ValueError(f"players must be distinct and in 0..{n - 1} for n = {n}, got {players}")


def lex_key(mask: int) -> tuple[int, ...]:
    """Sort key realizing 'lexicographically smallest bundle by item order'."""
    return tuple(iter_items(mask))


def _require_int(x, what: str) -> int:
    # bool is an int subtype but never a sensible value or price
    if isinstance(x, bool) or not isinstance(x, int):
        raise ModelError(f"{what} must be an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# valuations

@dataclass(frozen=True)
class TruncationSpec:
    """Recipe for a (k, cap)-truncation: keep the base below size k, clamp to cap above."""
    base: "Valuation"
    k: int
    cap: int


@dataclass(frozen=True, init=False, eq=False, slots=True)
class Valuation:
    """Monotone integer valuation over bundles of m items, stored as one array.

    Attributes:
        m: number of items in the universe.
        np_table: value per bundle mask, length 2**m, np_table[0] is the
            empty bundle: a read-only array in the dtype _int_dtype gives
            its entries, object (Python integers) past 2**61.
        class_tag: construction class, one of "table", "additive",
            "unit_demand", "truncation".
        singletons: per-item values for additive and unit-demand valuations.
        trunc: construction recipe for truncations.

    Valuation(m=..., table=...) takes the entries as a sequence of integers
    or as an array: an array that owns its data becomes the store and is
    made read-only, a view of one is copied. Two valuations are equal, and
    hash alike, when their fields and their entries are equal, whatever the
    arrays' dtypes.
    """
    m: int
    np_table: np.ndarray
    class_tag: str = "table"
    singletons: Optional[tuple[int, ...]] = None
    trunc: Optional[TruncationSpec] = None

    def __init__(self, m: int, table, class_tag: str = "table",
                 singletons: Optional[tuple[int, ...]] = None,
                 trunc: Optional[TruncationSpec] = None):
        arr = _int_array(table)
        if arr is table:
            arr = arr.astype(_int_dtype(arr.min(), arr.max()), copy=arr.base is not None)
        arr.setflags(write=False)
        put = object.__setattr__
        put(self, "m", m)
        put(self, "np_table", arr)
        put(self, "class_tag", class_tag)
        put(self, "singletons", singletons)
        put(self, "trunc", trunc)

    @property
    def table(self) -> tuple[int, ...]:
        """The entries as Python integers: a fresh tuple on every read, never
        kept, since a kept one would hold 8 bytes of pointer per entry beside
        the array's 2 or 4."""
        return tuple(self.np_table.tolist())

    @property
    def vmax(self) -> int:
        return int(self.np_table.max())

    def __eq__(self, other):
        if not isinstance(other, Valuation):
            return NotImplemented
        return (self.m == other.m and self.class_tag == other.class_tag
                and self.singletons == other.singletons and self.trunc == other.trunc
                and np.array_equal(self.np_table, other.np_table))

    def __hash__(self):
        # the entries as int64 bytes, the same for every dtype that holds
        # them, else (past int64, where only object holds them) Python ints
        try:
            entries = self.np_table.astype(np.int64, copy=False).tobytes()
        except OverflowError:
            entries = tuple(self.np_table.tolist())
        return hash((self.m, entries, self.class_tag, self.singletons, self.trunc))


@dataclass(frozen=True)
class Violation:
    """One failed valuation invariant. `bundles` holds the offending masks."""
    kind: str
    bundles: tuple[int, ...] = ()


def _check_item_count(m: int) -> None:
    if not isinstance(m, int) or m < 1 or m > MAX_ITEMS:
        raise ModelError(f"item count must be in 1..{MAX_ITEMS}, got {m}")


# Smaller tables fill and scan in plain Python, where numpy's fixed cost
# per call is most of the work. Measured on a shared 2-vCPU machine, the
# unit-demand fill breaks even with numpy at about 2**10 entries (m = 10),
# and the monotonicity scan at about 2**5, with numpy twice as fast at 2**6.
ARRAY_FILL_MIN = 1 << 10
ARRAY_SCAN_MIN = 1 << 6


# each integer dtype _int_dtype chooses from, narrowest first, with the
# bound its values keep below: 2**(bits - 3), so that the sum or difference
# of two of them, or of two such sums, stays inside the dtype
_INT_BOUNDS = tuple((1 << (8 * np.dtype(t).itemsize - 3), t)
                    for t in (np.int16, np.int32, np.int64))


def _int_dtype(lo: int, hi: int):
    """The narrowest of int16, int32 and int64 whose bound 2**(bits - 3)
    holds lo .. hi (-bound <= lo, hi < bound), else object, which keeps
    Python integers. Any sum or difference of two such values is exact in
    the dtype; a longer sum, a product or an out-of-range Python integer
    needs a wider one."""
    for bound, dtype in _INT_BOUNDS:
        if -bound <= lo and hi < bound:
            return dtype
    return object


def _int_array(table) -> np.ndarray:
    """table as an array in the dtype _int_dtype gives its entries; an
    ndarray passes through unchanged. From ARRAY_SCAN_MIN entries the dtype
    is read off one int64 conversion by numpy's min and max, and a table
    past int64 is converted again as Python integers."""
    if isinstance(table, np.ndarray):
        return table
    if len(table) < ARRAY_SCAN_MIN:
        return np.array(table, dtype=_int_dtype(min(table), max(table)))
    try:
        arr = np.fromiter(table, dtype=np.int64, count=len(table))
    except OverflowError:
        return np.array(table, dtype=object)
    return arr.astype(_int_dtype(arr.min(), arr.max()), copy=False)


def _first_non_int(values: Sequence) -> Optional[int]:
    """Index of the first value _require_int rejects, or None, from one pass
    over the values' types."""
    rejected = [t for t in set(map(type, values)) if t is bool or not issubclass(t, int)]
    if not rejected:
        return None
    types = list(map(type, values))
    return min(map(types.index, rejected))


def _check_table_shape(m: int, table: Sequence[int]) -> None:
    _check_item_count(m)
    if len(table) != 1 << m:
        raise ModelError(f"table must have {1 << m} entries, got {len(table)}")
    bad = _first_non_int(table)
    if bad is not None:
        _require_int(table[bad], "valuation value")


def make_table(m: int, table: Sequence[int]) -> Valuation:
    """Build a raw table valuation.

    The table may violate the semantic invariants (zero at the empty set,
    monotonicity, nonnegativity); use validate() to report those. Structural
    impossibilities (wrong length, non-integers, m out of range) raise.
    """
    _check_table_shape(m, table)
    return Valuation(m=m, table=table)


def _check_singletons(singletons: Sequence[int]) -> tuple[int, ...]:
    vals = tuple(singletons)
    bad = _first_non_int(vals)
    if bad is not None:
        _require_int(vals[bad], "item value")
    if vals and min(vals) < 0:
        raise ModelError("item values must be nonnegative")
    _check_item_count(len(vals))
    return vals


# Both singleton tables fill by doubling: the table so far with item j
# added to every bundle is the bundles 2**j .. 2**(j+1) - 1.
def make_additive(singletons: Sequence[int]) -> Valuation:
    """Additive valuation: a bundle is worth the sum of its item values."""
    vals = _check_singletons(singletons)
    table = [0]
    for x in vals:
        table += [t + x for t in table]
    return Valuation(m=len(vals), table=table, class_tag="additive",
                     singletons=vals)


def make_unit_demand(singletons: Sequence[int]) -> Valuation:
    """Unit-demand valuation: a bundle is worth its best single item."""
    vals = _check_singletons(singletons)
    m = len(vals)
    if 1 << m >= ARRAY_FILL_MIN:
        # one ufunc call fills each half
        arr = np.zeros(1 << m, dtype=_int_dtype(0, max(vals)))
        for j, x in enumerate(vals):
            np.maximum(arr[:1 << j], x, out=arr[1 << j:2 << j])
        table = arr
    else:
        table = [0]
        for x in vals:
            table += [t if t > x else x for t in table]
    return Valuation(m=m, table=table, class_tag="unit_demand",
                     singletons=vals)


def first_monotonicity_violation(table: Sequence[int], m: int) -> Optional[tuple[int, int]]:
    """The first (mask, mask | 2**j) whose value drops, in mask-then-item
    order, or None when the table is monotone."""
    # one-item steps suffice: monotone along edges implies monotone on chains
    if len(table) < ARRAY_SCAN_MIN:
        if isinstance(table, np.ndarray):
            table = table.tolist()
        for mask in range(1 << m):
            for j in range(m):
                if mask & (1 << j):
                    continue
                if table[mask] > table[mask | (1 << j)]:
                    return (mask, mask | (1 << j))
        return None
    # as a (2**(m-j-1), 2, 2**j) array the table's two middle slices are the
    # bundles without item j and the same bundles with it; each item's
    # first drop in mask order is one argmax, and the least mask wins
    t = _int_array(table)
    first = None
    for j in range(m):
        halves = t.reshape(-1, 2, 1 << j)
        drops = halves[:, 0] > halves[:, 1]
        i = int(drops.argmax())
        if drops.flat[i]:
            mask = (i >> j << (j + 1)) | (i & ((1 << j) - 1))
            if first is None or mask < first[0]:
                first = (mask, mask | (1 << j))
    return first


def is_submodular(table: Sequence[int], m: int) -> bool:
    # local characterization: v(S+x) + v(S+y) >= v(S+x+y) + v(S) for every
    # item pair x, y and S without them, that is, x's marginal value does not
    # rise when y joins S. On the table as a 2 x ... x 2 array whose first m
    # axes are the items (the last one keeps the compared slices arrays when
    # m = 2), one subtraction per item x gives its marginal values, and one
    # comparison per later axis y checks them
    t = _int_array(table).reshape((2,) * m + (1,))
    for x in range(m - 1):
        at = (slice(None),) * x
        marginal = t[at + (1,)] - t[at + (0,)]
        for y in range(x, m - 1):
            at = (slice(None),) * y
            if (marginal[at + (1,)] > marginal[at + (0,)]).any():
                return False
    return True


def make_truncation(base: Valuation, k: int, cap: int) -> Valuation:
    """Clamp every bundle of size k or more to the constant cap.

    Bundles below size k keep their base value. The result must remain a
    monotone submodular valuation; a base that exceeds the cap on a small
    bundle or undercuts it too sharply on a large one breaks that and raises
    TruncationBoundsViolated.
    """
    _require_int(k, "truncation size k")
    _require_int(cap, "truncation cap")
    if k < 1 or k > base.m + 1:
        raise ModelError(f"truncation size must be in 1..{base.m + 1}, got {k}")
    if cap < 0:
        raise ModelError("truncation cap must be nonnegative")
    # the kept entries and the cap in the dtype they take together; every
    # table keeps its empty bundle, and k = m + 1 clamps none
    keep = np.bitwise_count(np.arange(1 << base.m)) < k
    kept = base.np_table[keep]
    ends = [int(kept.min()), int(kept.max())] + ([cap] if k <= base.m else [])
    table = np.empty(1 << base.m, dtype=_int_dtype(min(ends), max(ends)))
    table[keep] = kept
    if k <= base.m:
        table[~keep] = cap
    bad = first_monotonicity_violation(table, base.m)
    if bad is not None:
        raise TruncationBoundsViolated(
            f"truncation is not monotone at masks {bad[0]:#x} < {bad[1]:#x}"
        )
    if not is_submodular(table, base.m):
        raise TruncationBoundsViolated("truncation is not submodular")
    return Valuation(
        m=base.m, table=table, class_tag="truncation",
        trunc=TruncationSpec(base=base, k=k, cap=cap),
    )


def validate(v: Valuation, vmax: int = DEFAULT_VMAX) -> Optional[Violation]:
    """Report the first violated valuation invariant, or None if all hold.

    Never raises on semantic violations; the report carries the offending
    bundle masks so callers can show labels.
    """
    t = v.np_table
    if t[0] != 0:
        return Violation("empty set nonzero", (0,))
    if t.min() < 0 or t.max() > vmax:
        mask = int(((t < 0) | (t > vmax)).argmax())
        kind = "negative value" if t[mask] < 0 else "value above cap"
        return Violation(kind, (mask,))
    bad = first_monotonicity_violation(t, v.m)
    if bad is not None:
        return Violation("not monotone", bad)
    return None


# ---------------------------------------------------------------------------
# prices, allocations, instances

Prices = tuple[int, ...]


def check_price_count(prices: Prices, m: int) -> None:
    """Reject a price vector that does not have one entry per item."""
    if len(prices) != m:
        raise ValueError(f"price vector has {len(prices)} entries, instance has {m}")


def price_of(prices: Prices, bundle: int) -> int:
    return sum(prices[j] for j in iter_items(bundle))


def add_indicator(prices: Prices, bundle: int, step: int = 1) -> Prices:
    """Return prices with every item of the bundle moved by step."""
    out = list(prices)
    for j in iter_items(bundle):
        out[j] += step
    return tuple(out)


def dominated(p: Prices, q: Prices) -> bool:
    """Coordinatewise p <= q."""
    return all(a <= b for a, b in zip(p, q))


Allocation = tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """A market: item labels plus one valuation per player."""
    items: tuple[str, ...]
    players: tuple[Valuation, ...]

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return len(self.players)

    # cached here rather than per valuation: a valuation's slots hold its
    # fields and its one array, with no __dict__ for a cached value
    @cached_property
    def vmax(self) -> int:
        return max(v.vmax for v in self.players)

    def zero_prices(self) -> Prices:
        return (0,) * self.m

    def label_bundle(self, bundle: int) -> list[str]:
        return sorted(self.items[j] for j in iter_items(bundle))


def make_instance(items: Sequence[str], players: Sequence[Valuation]) -> Instance:
    items = tuple(items)
    _check_item_count(len(items))
    if len(set(items)) != len(items):
        raise ModelError("duplicate item labels")
    if any(not isinstance(x, str) or not x or "," in x for x in items):
        raise ModelError("item labels must be nonempty strings without commas")
    players = tuple(players)
    if not players:
        raise ModelError("instance needs at least one player")
    for i, v in enumerate(players):
        if v.m != len(items):
            raise ModelError(f"player {i} is over {v.m} items, instance has {len(items)}")
    return Instance(items=items, players=players)


# ---------------------------------------------------------------------------
# JSON interchange

def _bundle_key(instance_items: Sequence[str], mask: int) -> str:
    return ",".join(sorted(instance_items[j] for j in iter_items(mask)))


def _parse_bundle_key(key: str, index: Mapping[str, int]) -> int:
    if key == "":
        return 0
    mask = 0
    for label in key.split(","):
        if label not in index:
            raise ModelError(f"unknown item label {label!r} in bundle key")
        bit = 1 << index[label]
        if mask & bit:
            raise ModelError(f"duplicate item label {label!r} in bundle key")
        mask |= bit
    return mask


def _singleton_values(obj: Mapping, items: Sequence[str], what: str) -> list[int]:
    values = obj.get("values")
    if not isinstance(values, dict):
        raise ModelError(f"{what} player needs a 'values' map")
    out = []
    for label in items:
        if label not in values:
            raise ModelError(f"{what} player is missing item {label!r}")
        out.append(_require_int(values[label], f"value of {label!r}"))
    extra = set(values) - set(items)
    if extra:
        raise ModelError(f"{what} player values unknown items {sorted(extra)}")
    return out


def _mask_keys(items: Sequence[str]) -> list[str]:
    """Every bundle's key, its labels sorted and joined by commas, in mask
    order. Built by doubling over the labels in sorted order: each label
    joins every key of labels before it at the end, which keeps it sorted."""
    keys, masks = [""], [0]
    for label, j in sorted((label, j) for j, label in enumerate(items)):
        keys += [f"{key},{label}" if key else label for key in keys]
        masks += [s | 1 << j for s in masks]
    return [keys[i] for i in np.argsort(masks).tolist()]


def _table_from_json(values: Mapping, items: Sequence[str], index: Mapping[str, int],
                     masks_by_key: Mapping[str, int]) -> Valuation:
    """A table player's values, put into its array by looking each key up
    in masks_by_key, its values' types checked in one pass. A document with
    a key that is not its labels sorted, a missing bundle or a bad value is
    read one key at a time instead, each key by _parse_bundle_key, so any
    error names the first bad key in order."""
    m = len(items)
    # the sorted keys are all distinct, so masks that all hit are distinct too
    masks = list(map(masks_by_key.get, values))
    entries = list(values.values())
    if None in masks or len(masks) < 1 << m or _first_non_int(entries) is not None:
        return _table_by_keys(values, items, index)
    arr = _int_array(entries)
    table = np.empty_like(arr)
    table[masks] = arr
    return Valuation(m=m, table=table)


def _table_by_keys(values: Mapping, items: Sequence[str], index: Mapping[str, int]) -> Valuation:
    table = [None] * (1 << len(items))
    for key, x in values.items():
        mask = _parse_bundle_key(key, index)
        if table[mask] is not None:
            raise ModelError(f"bundle key {key!r} repeats an earlier bundle")
        table[mask] = _require_int(x, f"value of bundle {key!r}")
    missing = [mask for mask, x in enumerate(table) if x is None]
    if missing:
        raise ModelError(
            f"table player is missing {len(missing)} bundles, "
            f"first {_bundle_key(items, missing[0])!r}"
        )
    return make_table(len(items), table)


def _player_from_json(obj, items: Sequence[str], index: Mapping[str, int],
                      masks_by_key: dict, depth: int = 0) -> Valuation:
    if not isinstance(obj, dict):
        raise ModelError("player must be a JSON object")
    kind = obj.get("type")
    if kind == "table":
        values = obj.get("values")
        if not isinstance(values, dict):
            raise ModelError("table player needs a 'values' map")
        if not masks_by_key:     # once per item list, at its first table player
            masks_by_key.update(zip(_mask_keys(items), range(1 << len(items))))
        return _table_from_json(values, items, index, masks_by_key)
    if kind == "unit_demand":
        return make_unit_demand(_singleton_values(obj, items, "unit_demand"))
    if kind == "additive":
        return make_additive(_singleton_values(obj, items, "additive"))
    if kind == "truncation":
        if "k" not in obj or "M" not in obj or "base" not in obj:
            raise ModelError("truncation player needs 'k', 'M' and 'base'")
        # k runs over 1..m+1 and an inner level sets values only below
        # every outer level's k, so a longer chain has a level that sets
        # no value; the bound also keeps the recursive hash and equality
        # of the valuation inside the stack limit
        if depth > len(items):
            raise ModelError(f"truncation chain deeper than {len(items) + 1} levels")
        base = _player_from_json(obj["base"], items, index, masks_by_key, depth + 1)
        return make_truncation(base, _require_int(obj["k"], "k"), _require_int(obj["M"], "M"))
    raise ModelError(f"unknown player type {kind!r}")


def _player_to_json(v: Valuation, items: Sequence[str], keys: list) -> dict:
    if v.class_tag in ("additive", "unit_demand"):
        return {
            "type": v.class_tag,
            "values": {label: v.singletons[j] for j, label in enumerate(items)},
        }
    if v.class_tag == "truncation":
        return {
            "type": "truncation",
            "k": v.trunc.k,
            "M": v.trunc.cap,
            "base": _player_to_json(v.trunc.base, items, keys),
        }
    if not keys:        # once per item list, at its first table player
        keys += _mask_keys(items)
    return {"type": "table", "values": dict(zip(keys, v.np_table.tolist()))}


def _loads(text: Union[str, bytes], what: str):
    """json.loads with every way malformed input can fail as a ModelError."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except RecursionError as e:
        raise ModelError(f"{what} is nested too deeply") from e
    except ValueError as e:     # not UTF-8, not JSON, or an over-long integer
        raise ModelError(f"invalid {what}: {e}") from e


def instance_from_json(text: Union[str, bytes], vmax: int = DEFAULT_VMAX) -> Instance:
    """Parse an instance from its JSON document, text or UTF-8 bytes,
    validating every player."""
    obj = _loads(text, "JSON")
    if not isinstance(obj, dict) or "items" not in obj or "players" not in obj:
        raise ModelError("instance needs 'items' and 'players'")
    items = obj["items"]
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise ModelError("'items' must be a list of labels")
    # before any table player allocates its 2**m entries
    _check_item_count(len(items))
    index = {label: j for j, label in enumerate(items)}
    if len(index) != len(items):
        raise ModelError("duplicate item labels")
    if not isinstance(obj["players"], list):
        raise ModelError("'players' must be a list of players")
    # a fixed bound, like the market view's: WALRAS_BUDGET does not move it
    n = len(obj["players"])
    if n << len(items) > DEFAULT_OP_BUDGET:
        raise ModelError(f"{n} players over {len(items)} items need "
                         f"{n << len(items)} table entries, bound {DEFAULT_OP_BUDGET}")
    masks_by_key: dict[str, int] = {}
    players = [_player_from_json(p, items, index, masks_by_key) for p in obj["players"]]
    instance = make_instance(items, players)
    for i, v in enumerate(instance.players):
        bad = validate(v, vmax=vmax)
        if bad is not None:
            masks = ", ".join(str(instance.label_bundle(b)) for b in bad.bundles)
            raise ModelError(f"player {i}: {bad.kind} at {masks}")
    return instance


def instance_to_json(instance: Instance) -> str:
    keys: list[str] = []
    obj = {
        "items": list(instance.items),
        "players": [_player_to_json(v, instance.items, keys) for v in instance.players],
    }
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def prices_from_json(obj: Union[str, Mapping], instance: Instance) -> Prices:
    """Parse a per-item price map, requiring every item exactly once.

    Prices are bounded so that all m of them plus a unit raise of each sum
    inside int64, the dtype of every vectorized price computation.
    """
    if isinstance(obj, str):
        obj = _loads(obj, "price JSON")
    if not isinstance(obj, dict):
        raise ModelError("prices must be a JSON object of item: price")
    limit = (2 ** 63 - 1) // (instance.m + 1)
    out = []
    for label in instance.items:
        if label not in obj:
            raise ModelError(f"price map is missing item {label!r}")
        x = _require_int(obj[label], f"price of {label!r}")
        if x < 0:
            raise ModelError(f"price of {label!r} must be nonnegative")
        if x > limit:
            raise ModelError(f"price of {label!r} exceeds {limit}")
        out.append(x)
    extra = set(obj) - set(instance.items)
    if extra:
        raise ModelError(f"price map has unknown items {sorted(extra)}")
    return tuple(out)


def prices_to_json(prices: Prices, instance: Instance) -> dict:
    return {label: prices[j] for j, label in enumerate(instance.items)}
