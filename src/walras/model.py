"""Market model: items, integer valuations, prices, allocations, instances.

The universe is a list of item labels; bundles are bitmasks over item
indices, so an instance with m items has exactly 2**m bundles and every
valuation is stored as an explicit table of 2**m nonnegative integers.
Everything downstream (demand oracles, auctions, brute-force certifiers)
enumerates these tables exhaustively, which is why m is capped at 20 and
values are kept at desk scale.

All values and prices are integers. Rational inputs are rejected rather
than scaled.

The error types shared by every module live here too, with the one
enumeration budget: each exhaustive search checks its size against a
default that WALRAS_BUDGET overrides, and raises BudgetExceeded past it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

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


@dataclass(frozen=True)
class Valuation:
    """Monotone integer valuation over bundles of m items, stored as a full table.

    Attributes:
        m: number of items in the universe.
        table: value per bundle mask, length 2**m, table[0] is the empty bundle.
        class_tag: construction class, one of "table", "additive",
            "unit_demand", "truncation".
        singletons: per-item values for additive and unit-demand valuations.
        trunc: construction recipe for truncations.
    """
    m: int
    table: tuple[int, ...]
    class_tag: str = "table"
    singletons: Optional[tuple[int, ...]] = None
    trunc: Optional[TruncationSpec] = None

    def value(self, bundle: int) -> int:
        return self.table[bundle]

    @property
    def vmax(self) -> int:
        return max(self.table)

    @cached_property
    def np_table(self):
        import numpy as np
        arr = np.asarray(self.table, dtype=np.int64)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class Violation:
    """One failed valuation invariant. `bundles` holds the offending masks."""
    kind: str
    bundles: tuple[int, ...] = ()


def _check_table_shape(m: int, table: Sequence[int]) -> tuple[int, ...]:
    if not isinstance(m, int) or m < 1 or m > MAX_ITEMS:
        raise ModelError(f"item count must be in 1..{MAX_ITEMS}, got {m}")
    if len(table) != 1 << m:
        raise ModelError(f"table must have {1 << m} entries, got {len(table)}")
    return tuple(_require_int(x, "valuation value") for x in table)


def make_table(m: int, table: Sequence[int]) -> Valuation:
    """Build a raw table valuation.

    The table may violate the semantic invariants (zero at the empty set,
    monotonicity, nonnegativity); use validate() to report those. Structural
    impossibilities (wrong length, non-integers, m out of range) raise.
    """
    return Valuation(m=m, table=_check_table_shape(m, table))


def make_additive(singletons: Sequence[int]) -> Valuation:
    """Additive valuation: a bundle is worth the sum of its item values."""
    vals = tuple(_require_int(x, "item value") for x in singletons)
    if any(x < 0 for x in vals):
        raise ModelError("item values must be nonnegative")
    m = len(vals)
    if m < 1 or m > MAX_ITEMS:
        raise ModelError(f"item count must be in 1..{MAX_ITEMS}, got {m}")
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        table[mask] = table[mask ^ low] + vals[low.bit_length() - 1]
    return Valuation(m=m, table=tuple(table), class_tag="additive", singletons=vals)


def make_unit_demand(singletons: Sequence[int]) -> Valuation:
    """Unit-demand valuation: a bundle is worth its best single item."""
    vals = tuple(_require_int(x, "item value") for x in singletons)
    if any(x < 0 for x in vals):
        raise ModelError("item values must be nonnegative")
    m = len(vals)
    if m < 1 or m > MAX_ITEMS:
        raise ModelError(f"item count must be in 1..{MAX_ITEMS}, got {m}")
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        table[mask] = max(table[mask ^ low], vals[low.bit_length() - 1])
    return Valuation(m=m, table=tuple(table), class_tag="unit_demand", singletons=vals)


def first_monotonicity_violation(table: Sequence[int], m: int) -> Optional[tuple[int, int]]:
    # one-item steps suffice: monotone along edges implies monotone on chains
    for mask in range(1 << m):
        for j in range(m):
            if mask & (1 << j):
                continue
            if table[mask] > table[mask | (1 << j)]:
                return (mask, mask | (1 << j))
    return None


def is_submodular(table: Sequence[int], m: int) -> bool:
    # local characterization: v(S+x) + v(S+y) >= v(S+x+y) + v(S)
    for mask in range(1 << m):
        free = [j for j in range(m) if not mask & (1 << j)]
        for a in range(len(free)):
            x = 1 << free[a]
            for b in range(a + 1, len(free)):
                y = 1 << free[b]
                if table[mask | x] + table[mask | y] < table[mask | x | y] + table[mask]:
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
    table = tuple(
        base.table[mask] if popcount(mask) < k else cap
        for mask in range(1 << base.m)
    )
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
    if v.table[0] != 0:
        return Violation("empty set nonzero", (0,))
    for mask, x in enumerate(v.table):
        if x < 0:
            return Violation("negative value", (mask,))
        if x > vmax:
            return Violation("value above cap", (mask,))
    bad = first_monotonicity_violation(v.table, v.m)
    if bad is not None:
        return Violation("not monotone", bad)
    return None


# ---------------------------------------------------------------------------
# prices, allocations, instances

Prices = tuple[int, ...]


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


def allocation_disjoint(alloc: Allocation) -> bool:
    used = 0
    for bundle in alloc:
        if used & bundle:
            return False
        used |= bundle
    return True


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

    @property
    def vmax(self) -> int:
        return max(v.vmax for v in self.players)

    def zero_prices(self) -> Prices:
        return (0,) * self.m

    def label_bundle(self, bundle: int) -> list[str]:
        return sorted(self.items[j] for j in iter_items(bundle))


def make_instance(items: Sequence[str], players: Sequence[Valuation]) -> Instance:
    items = tuple(items)
    if not items or len(items) > MAX_ITEMS:
        raise ModelError(f"item count must be in 1..{MAX_ITEMS}, got {len(items)}")
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


def _player_from_json(obj, items: Sequence[str], index: Mapping[str, int]) -> Valuation:
    if not isinstance(obj, dict):
        raise ModelError("player must be a JSON object")
    kind = obj.get("type")
    if kind == "table":
        values = obj.get("values")
        if not isinstance(values, dict):
            raise ModelError("table player needs a 'values' map")
        m = len(items)
        table = [None] * (1 << m)
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
        return make_table(m, table)
    if kind == "unit_demand":
        return make_unit_demand(_singleton_values(obj, items, "unit_demand"))
    if kind == "additive":
        return make_additive(_singleton_values(obj, items, "additive"))
    if kind == "truncation":
        if "k" not in obj or "M" not in obj or "base" not in obj:
            raise ModelError("truncation player needs 'k', 'M' and 'base'")
        base = _player_from_json(obj["base"], items, index)
        return make_truncation(base, _require_int(obj["k"], "k"), _require_int(obj["M"], "M"))
    raise ModelError(f"unknown player type {kind!r}")


def _player_to_json(v: Valuation, items: Sequence[str]) -> dict:
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
            "base": _player_to_json(v.trunc.base, items),
        }
    return {
        "type": "table",
        "values": {
            _bundle_key(items, mask): v.table[mask] for mask in range(1 << v.m)
        },
    }


def instance_from_json(text: str, vmax: int = DEFAULT_VMAX) -> Instance:
    """Parse an instance from its JSON document, validating every player."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict) or "items" not in obj or "players" not in obj:
        raise ModelError("instance needs 'items' and 'players'")
    items = obj["items"]
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise ModelError("'items' must be a list of labels")
    index = {label: j for j, label in enumerate(items)}
    if len(index) != len(items):
        raise ModelError("duplicate item labels")
    players = [_player_from_json(p, items, index) for p in obj["players"]]
    instance = make_instance(items, players)
    for i, v in enumerate(instance.players):
        bad = validate(v, vmax=vmax)
        if bad is not None:
            masks = ", ".join(str(instance.label_bundle(b)) for b in bad.bundles)
            raise ModelError(f"player {i}: {bad.kind} at {masks}")
    return instance


def instance_to_json(instance: Instance) -> str:
    obj = {
        "items": list(instance.items),
        "players": [_player_to_json(v, instance.items) for v in instance.players],
    }
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def prices_from_json(obj: Union[str, Mapping], instance: Instance) -> Prices:
    """Parse a per-item price map, requiring every item exactly once.

    Prices are bounded so that all m of them plus a unit raise of each sum
    inside int64, the dtype of every vectorized price computation.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise ModelError(f"invalid price JSON: {e}") from e
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
