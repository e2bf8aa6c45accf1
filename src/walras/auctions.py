"""Ascending-auction engines driven by the over-demand witness.

Every engine runs one loop and differs only in its raise rule, the set
it raises by one unit at each price. Three rules raise a chosen subset
of the current minimal over-demanded set until no set is over-demanded:
the full-set choice and the single-item choice are the classic variants,
and run_with_policy exposes the choice as a hook. The fourth raises the
minimal Lyapunov-minimizing set until it is empty; on substitutes input
it walks the identical price path.

The full-set rule takes long steps. Its choice reads only the demand
families at the current price, and along the ray p + k * 1_R those stay
fixed until the break point k* of demand.stable_raises: every demanded
bundle of player i meets R in the same c_i items, so all of them lose
c_i per raise and no other bundle catches up before k*. Up to p + (k* -
1) * 1_R the obstacle, its excess f and its tie-break flag are therefore
those at p, and the Lyapunov value falls by exactly f per raise (the
utilities lose sum c_i, the prices gain |R|). The loop appends those
steps without building a view and builds the next one at p + k* * 1_R;
the trace is the one the unit-step loop gives, step for step. The other
rules keep unit steps: a policy may read the price and the step index,
and the minimizer rule stays an independent computation to compare gs
against.

Engines never reject input. On valuations outside the substitutes
class the loop may misbehave, so each step is watched: a Lyapunov
increase is recorded as an anomaly and a hard iteration cap turns
into a flagged, unterminated trace rather than an endless run. Two
invariants raise InvariantViolation, also under python -O: a unit raise
of R never lowers the Lyapunov value by more than its excess f (each old
demanded bundle still reaches u_i - c_i), and the last price of a long
step still has the demand families of its first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import demand
from .model import (
    Instance, InvariantViolation, Prices, add_indicator, dominated, iter_items,
    prices_to_json,
)


class PolicyViolation(RuntimeError):
    """A step policy chose a set outside the current over-demanded set."""


@dataclass(frozen=True)
class AuctionStep:
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
    terminated: bool
    iteration_cap_hit: bool
    anomalies: tuple[str, ...]


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


def _ascend(instance: Instance, algorithm: str, rule: RaiseRule,
            long_steps: bool = False) -> AuctionTrace:
    cap = iteration_cap(instance)
    p = instance.zero_prices()
    steps: list[AuctionStep] = []
    anomalies: list[str] = []

    def stop(capped: bool) -> AuctionTrace:
        if capped:
            anomalies.append(f"iteration cap {cap} hit")
        return AuctionTrace(algorithm, tuple(steps), p, not capped, capped,
                            tuple(anomalies))

    lyap = demand.lyapunov(instance, p)
    left = 0        # raises left in the current step, all of one set
    while True:
        # within a long step the rule would choose the same set again
        if not left:
            target, unique, choose = rule(instance, p)
            if target == 0:
                return stop(capped=False)
        if len(steps) >= cap:
            return stop(capped=True)
        if not left:
            raised = choose(len(steps))
            if raised == 0 or raised & ~target:
                raise PolicyViolation(
                    f"step {len(steps)}: chose {raised:#x} outside obstacle "
                    f"{target:#x}"
                )
            f_val = demand.excess_demand(instance, p, raised)
            # gs raises an over-demanded set, which some player's demand
            # meets, so its break point is finite
            left = demand.stable_raises(instance, p, raised) if long_steps else 1
            families = (tuple(r.demand for r in demand.demand_reports(instance, p))
                        if left > 1 else None)
        steps.append(AuctionStep(len(steps), p, raised, lyap, f_val, unique))
        p = add_indicator(p, raised)
        left -= 1
        if left:
            new_lyap = lyap - f_val
        else:
            new_lyap = demand.lyapunov(instance, p)
            if new_lyap < lyap - f_val:
                raise InvariantViolation(
                    f"step {len(steps) - 1}: Lyapunov value fell from {lyap} "
                    f"to {new_lyap}, more than the excess {f_val}")
            if families is not None:
                last = add_indicator(p, raised, -1)
                if demand.demand_families(instance, last) != families:
                    raise InvariantViolation(
                        f"step {len(steps) - 1}: demand at {last} differs from "
                        f"the start of its long step")
        if new_lyap > lyap:
            anomalies.append(f"lyapunov rose at step {len(steps) - 1}")
        lyap = new_lyap


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
                   long_steps=True)


def fine_auction(instance: Instance) -> AuctionTrace:
    """Raise only the smallest-index item of the over-demanded set."""
    return _ascend(instance, "fine",
                   _obstacle_rule(lambda ob, p, t: ob.bundle & -ob.bundle))


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
