"""Ascending-auction engines driven by the over-demand witness.

Every engine runs one loop and differs only in its raise rule, the set
it raises by one unit at each price. Three rules raise a chosen subset
of the current minimal over-demanded set until no set is over-demanded:
the full-set choice and the single-item choice are the classic variants,
and run_with_policy exposes the choice as a hook. The fourth raises the
minimal Lyapunov-minimizing set until it is empty; on substitutes input
it walks the identical price path.

Two rules skip views where the trace can be replayed. A rule's choice,
its excess f and its tie-break flag read only the demand families at the
current price, and along a ray p + k * 1_U those stay fixed until the
break point of demand.stable_raises: every demanded bundle of player i
meets U in the same c_i items, so all of them lose c_i per raise and no
other bundle catches up before then. Both planners pass it the demand
demand.held_demand reads off the view at the current price.

* The full-set rule takes long steps: up to p + (k* - 1) * 1_R its step
  is the one at p, and the Lyapunov value falls by exactly f per raise
  (the utilities lose sum c_i, the prices gain |R|).
* The single-item rule replays rounds. Suppose its last r steps raised
  the distinct items U = {j_1 .. j_r} from prices a_0 .. a_{r-1} and
  ended at a_0 + 1_U with the demand families of a_0. With B the least
  break point of U over a_0 .. a_{r-1}, each a_i + k * 1_U with k < B has
  the families of a_i, so the rule raises j_{i+1} there with a_i's f and
  flag: rounds 1 .. B - 1 are round 0 moved by k * 1_U, and step i of
  round k has Lyapunov value L(a_i) - k * (sum_players c_i - |U|), with
  c_i read from the families at a_i. A round is tried once it has run
  three times in a row, a free bound from the empty bundle and the
  singletons screens it, and one that breaks before MIN_ROUNDS rounds is
  played a step at a time; a failed try waits for three more rounds. The
  planner keeps the demand it read at each of its last m + 1 steps and a
  round reads its positions from that record, not from the demand memo;
  no step with a family of over demand.SCAN_MEMBERS bundles is kept.

Either way the loop appends the steps without a view for each, stops at
the iteration cap inside them as the unit-step loop would, and builds the
next view where the copies end; the trace is the unit-step one, step for
step. The copies of a replay are built in whole-array passes, not a step
at a time: the prices as one rounds x r x m array of a_i + k * 1_U, the
Lyapunov values as one of L(a_i) - k * fall_i, and the anomalies from
comparing each value with the one before it. Each entry is linear in k,
so an array is int64 when its entries at round 0 and at its last round
leave room (model._int_dtype; a narrower dtype it gives is widened by the
int64 round index k), else it holds Python integers: copies stay exact
past 2**63.

The other rules keep unit steps: a policy may read the price, the step
index and its own random state, and the minimizer rule reads utilities
outside the demand families and stays an independent computation to
compare gs against.

Engines never reject input. On valuations outside the substitutes
class the loop may misbehave, so each step is watched: a Lyapunov
increase is recorded as an anomaly and a hard iteration cap turns
into a flagged, unterminated trace rather than an endless run. These
invariants raise InvariantViolation, also under python -O:

* a unit raise never lowers the Lyapunov value by more than its excess
  f (each old demanded bundle still reaches u_i - c_i), checked at every
  view, the one where copies end included;
* the first copied step's Lyapunov value is the view's at the current
  price;
* the last copied price of each position still has, read from the raw
  value tables by demand.demand_families, the demand families of round
  0 at that position. A break point overstated by any amount fails this
  at the position that sets it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import demand
from .model import (
    Instance, InvariantViolation, Prices, _int_dtype, add_indicator, check_price_count,
    dominated, iter_items, prices_to_json,
)


class PolicyViolation(RuntimeError):
    """A step policy chose a set outside the current over-demanded set."""


class AuctionStep(NamedTuple):
    t: int
    price_before: Prices
    raised: int
    lyapunov_before: int
    f_value: int
    unique: bool        # the raise rule's choice needed no tie-break


@dataclass(frozen=True)
class AuctionTrace:
    algorithm: str
    steps: tuple[AuctionStep, ...]
    final_price: Prices
    iteration_cap_hit: bool
    anomalies: tuple[str, ...]

    @property
    def terminated(self) -> bool:
        return not self.iteration_cap_hit


def iteration_cap(instance: Instance) -> int:
    # on substitutes input prices never pass the max value per item,
    # so this fires only on inputs outside the class
    return max(1, instance.n * instance.m * instance.vmax)


Policy = Callable[[demand.ObstacleReport, Prices, int], int]

# A raise rule looks at the current price and returns the set the step
# must raise within (0 once the auction stops), whether that set needed no
# tie-break, and a chooser that picks the raised subset for step t. The
# loop calls the chooser only after the iteration-cap test, so a policy is
# never consulted at the capped step.
RaiseRule = Callable[[Instance, Prices], tuple[int, bool, Callable[[int], int]]]


class _Replay(NamedTuple):
    """Rounds first .. rounds - 1 of a round of steps, round k moved by k * 1_U."""
    steps: tuple[AuctionStep, ...]      # round 0
    falls: tuple[int, ...]              # per position, the Lyapunov fall per round
    families: tuple                     # per position, the demand families
    items: int                          # U, the union of the round's raises
    first: int
    rounds: int                         # the break point B over every position


# fine replays a round only when it holds for at least this many rounds: a
# shorter replay does not pay for its checks, so the round is played a step
# at a time instead, with the same trace.
MIN_ROUNDS = 5

# A planner sees the steps so far and the step about to be taken at the
# current price, and returns a replay that takes it, or None for a unit step.
Planner = Callable[[Instance, list, AuctionStep], Optional[_Replay]]


def _ascend(instance: Instance, algorithm: str, rule: RaiseRule,
            planner: Optional[Planner] = None) -> AuctionTrace:
    cap = iteration_cap(instance)
    p = instance.zero_prices()
    steps: list[AuctionStep] = []
    anomalies: list[str] = []

    def stop(capped: bool) -> AuctionTrace:
        if capped:
            anomalies.append(f"iteration cap {cap} hit")
        return AuctionTrace(algorithm, tuple(steps), p, capped, tuple(anomalies))

    lyap = demand.lyapunov(instance, p)
    while True:
        target, unique, choose = rule(instance, p)
        if target == 0:
            return stop(capped=False)
        if len(steps) >= cap:
            return stop(capped=True)
        raised = choose(len(steps))
        if raised == 0 or raised & ~target:
            raise PolicyViolation(
                f"step {len(steps)}: chose {raised:#x} outside obstacle "
                f"{target:#x}"
            )
        step = AuctionStep(len(steps), p, raised, lyap,
                           demand.excess_demand(instance, p, raised), unique)
        replay = planner(instance, steps, step) if planner else None
        if replay is None:
            steps.append(step)
            p = add_indicator(p, raised)
        else:
            p, capped = _append_rounds(steps, anomalies, replay, lyap, cap)
            if capped:
                return stop(capped=True)
            for s, families in zip(steps[-len(replay.steps):], replay.families):
                if demand.demand_families(instance, s.price_before) != families:
                    raise InvariantViolation(
                        f"step {s.t}: demand at {s.price_before} differs from "
                        f"round 0 of its replay")
        last = steps[-1]
        new_lyap = demand.lyapunov(instance, p)
        if new_lyap < last.lyapunov_before - last.f_value:
            raise InvariantViolation(
                f"step {last.t}: Lyapunov value fell from {last.lyapunov_before} "
                f"to {new_lyap}, more than the excess {last.f_value}")
        if new_lyap > last.lyapunov_before:
            anomalies.append(f"lyapunov rose at step {last.t}")
        lyap = new_lyap


def _append_rounds(steps: list, anomalies: list, replay: _Replay, lyap: int,
                   cap: int) -> tuple[Prices, bool]:
    """Append the replay's rounds, step i of round k at a_i + k * 1_U with
    Lyapunov value L(a_i) - k * fall_i, up to the iteration cap.

    The first copy is the step at the current price, so its value must be
    lyap, the view's there; a later copy whose value exceeds the one before
    it records an anomaly. Returns the price after the last appended step
    and whether the cap cut the rounds short. A cut leaves the price inside
    the replay, where the Lyapunov value is known without a view and the
    raise rule would choose again, so the unit-step loop would stop there on
    the cap as well.
    """
    t0, r = len(steps), len(replay.steps)
    _, base, raised, lyaps, f, unique = zip(*replay.steps)
    # the step at the cap is priced and its value compared, but not appended
    count = min((replay.rounds - replay.first) * r, cap - t0 + 1)
    capped = t0 + count > cap
    k = replay.first + np.arange(-(-count // r))[:, None]     # rounds x 1
    last = replay.first + (count - 1) // r
    unit = np.array(add_indicator((0,) * len(base[0]), replay.items))
    prices = (np.array(base, dtype=_int_dtype(0, max(map(max, base)) + last))
              + k[:, :, None] * unit).reshape(-1, len(unit))[:count]
    prices = list(zip(*prices.T.tolist()))      # a tuple per copy from m columns
    # each position's value is linear in k: int64 holds them all when it
    # holds those of rounds 0 and last, and k (int64) widens a narrower
    # dtype before the product
    ends = lyaps + tuple(v - last * fall for v, fall in zip(lyaps, replay.falls))
    dtype = _int_dtype(min(ends), max(ends))
    values = (np.array(lyaps, dtype=dtype)
              - k * np.array(replay.falls, dtype=dtype)).ravel()[:count]
    rose = np.flatnonzero(values[1:] > values[:-1]) + t0
    values = values.tolist()
    if values[0] != lyap:
        raise InvariantViolation(
            f"step {t0}: replayed Lyapunov value {values[0]} differs "
            f"from the view's {lyap} at {prices[0]}")
    anomalies.extend(f"lyapunov rose at step {t}" for t in rose.tolist())
    steps.extend(map(AuctionStep._make, zip(
        range(t0, t0 + count - capped), prices, cycle(raised), values, cycle(f),
        cycle(unique))))
    if capped:
        return prices[-1], True
    return add_indicator(prices[-1], raised[(count - 1) % r]), False


def _long_step(instance: Instance, steps: list, step: AuctionStep
               ) -> Optional[_Replay]:
    """gs's planner: the step is a round of its own, repeated up to the break
    point of its raise. stable_raises returns None only for a raise that no
    demanded bundle meets, which an over-demanded set is not; the cap would
    bound such a replay."""
    held = demand.held_demand(instance, step.price_before)
    rounds = demand.stable_raises(instance, step.price_before, step.raised, *held)
    if rounds == 1:
        return None
    return _Replay((step,), (step.f_value,), (held[1],), step.raised, 0,
                   rounds or iteration_cap(instance))


def _round_replay() -> Planner:
    """fine's planner, for one run: replays a round of single-item raises
    once it has run three times in a row (see the module docstring)."""
    last_at: dict[int, int] = {}    # raised item -> the last step that raised it
    since: Optional[int] = 0        # rounds are read from this step on
    # step -> the (utilities, families) read there, None where a family is
    # too large to walk in Python: the last m + 1 steps since the last replay
    read: dict[int, Optional[tuple]] = {}

    def plan(instance: Instance, steps: list, step: AuctionStep
             ) -> Optional[_Replay]:
        nonlocal since
        t = len(steps)
        if since is None:       # a replay ended here
            since = t
            read.clear()
        held = demand.held_demand(instance, step.price_before)
        read[t] = None if max(map(len, held[1])) > demand.SCAN_MEMBERS else held
        read.pop(t - instance.m - 1, None)
        start = last_at.get(step.raised, -1)
        last_at[step.raised] = t
        r = t - start
        if start - 2 * r < since or any(
                steps[start + i].raised != steps[start - r + i].raised
                or steps[start + i].raised != steps[start - 2 * r + i].raised
                for i in range(r)):
            return None
        items = 0
        for s in steps[start:]:
            items |= s.raised
        if items.bit_count() != r:
            return None
        replay = _round_at(instance, tuple(steps[start:]), step, items, read)
        # after a failed try the round must run three more times before
        # the next one
        since = None if replay is not None else t
        return replay

    return plan


def _round_at(instance: Instance, round_steps: tuple[AuctionStep, ...],
              step: AuctionStep, items: int, read: dict) -> Optional[_Replay]:
    """The replay of round_steps, one round on at step's price, or None when
    its demand changed, it breaks before MIN_ROUNDS rounds, or read, the
    demand kept at each step by index, has None at one of them.

    The empty bundle and the singletons bound the break point for free:
    where every demanded bundle of player i loses c_i > 0 per round, one
    that meets U in fewer items catches up within ceil(gap / (c_i - meet))
    rounds. Past that screen, demand.stable_raises at each position,
    stopping at the first that is too small.
    """
    now, first = read[step.t], read[round_steps[0].t]
    if now is None or first is None or now[1] != first[1]:
        return None
    q = step.price_before
    masks = [0] + [1 << j for j in range(len(q))]
    probes = [(0, 0)] + [(x, items >> j & 1) for j, x in enumerate(q)]
    bound = None
    for v, top, family in zip(instance.players, *now):
        c = (family[0] & items).bit_count()
        if any((s & items).bit_count() != c for s in family):
            return None
        # the probed values as Python integers, so no narrow numpy scalar
        # meets the arithmetic below
        for value, (price, meet) in zip(v.np_table[masks].tolist(), probes) if c else ():
            if meet < c:
                k = 1 - (value - price - top) // (c - meet)
                bound = k if bound is None or k < bound else bound
    if bound is not None and bound < MIN_ROUNDS:
        return None
    rounds, families = None, []
    for s in round_steps:
        held = read[s.t]
        if held is None:
            return None
        k = demand.stable_raises(instance, s.price_before, items, *held)
        if k is not None:
            if k < MIN_ROUNDS:
                return None
            rounds = k if rounds is None or k < rounds else rounds
        families.append(held[1])
    r = len(round_steps)
    falls = tuple(sum((f[0] & items).bit_count() for f in fams) - r
                  for fams in families)
    return _Replay(round_steps, falls, tuple(families), items, 1,
                   rounds or iteration_cap(instance))


def _obstacle_rule(policy: Policy) -> RaiseRule:
    """Raise the policy's pick from the minimal over-demanded set."""
    def rule(instance: Instance, p: Prices):
        ob = demand.over_demanded_set(instance, p)
        return ((ob.bundle if ob.excess > 0 else 0), ob.unique,
                lambda t: policy(ob, p, t))
    return rule


def _minimizer_rule(instance: Instance, p: Prices):
    mm = demand.minimal_minimizer_report(instance, p)
    return mm.bundle, mm.unique, lambda t: mm.bundle


def gul_stacchetti(instance: Instance) -> AuctionTrace:
    """Raise the whole minimal over-demanded set each step, in long steps."""
    return _ascend(instance, "gs", _obstacle_rule(lambda ob, p, t: ob.bundle),
                   _long_step)


def fine_auction(instance: Instance) -> AuctionTrace:
    """Raise only the smallest-index item of the over-demanded set."""
    return _ascend(instance, "fine",
                   _obstacle_rule(lambda ob, p, t: ob.bundle & -ob.bundle),
                   _round_replay())


def run_with_policy(instance: Instance, policy: Policy,
                    name: str = "policy") -> AuctionTrace:
    """Generic loop: policy picks a nonempty subset of the obstacle."""
    return _ascend(instance, name, _obstacle_rule(policy))


def ausubel_ascending(instance: Instance) -> AuctionTrace:
    """Raise the minimal Lyapunov-minimizing set until it is empty."""
    return _ascend(instance, "ausubel", _minimizer_rule)


def seeded_policy(seed: int) -> Policy:
    """Raise a random nonempty part of the obstacle, drawn from seed."""
    rng = random.Random(seed)

    def policy(ob: demand.ObstacleReport, prices: Prices, t: int) -> int:
        items = list(iter_items(ob.bundle))
        take = rng.randint(1, len(items))
        return sum(1 << j for j in rng.sample(items, take))

    return policy


def monitor_domination(trace: AuctionTrace, p_star: Prices) -> Optional[int]:
    """Check every trace price sits coordinatewise at or below p_star.

    Returns None when dominated throughout, else the first offending
    step index (len(steps) names the final price).
    """
    check_price_count(p_star, len(trace.final_price))
    for step in trace.steps:
        if not dominated(step.price_before, p_star):
            return step.t
    if not dominated(trace.final_price, p_star):
        return len(trace.steps)
    return None


def trace_to_json(trace: AuctionTrace, instance: Instance) -> dict:
    return {
        "algorithm": trace.algorithm,
        "steps": [
            {
                "t": s.t,
                "price": prices_to_json(s.price_before, instance),
                "raised": [instance.items[j] for j in iter_items(s.raised)],
                "lyapunov": s.lyapunov_before,
                "f": s.f_value,
                "unique": s.unique,
            }
            for s in trace.steps
        ],
        "final_price": prices_to_json(trace.final_price, instance),
        "terminated": trace.terminated,
        "iteration_cap_hit": trace.iteration_cap_hit,
        "anomalies": list(trace.anomalies),
    }
