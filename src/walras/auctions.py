"""Ascending-auction engines driven by the over-demand witness.

Every engine runs one loop and differs only in its raise rule, the set
it raises by one unit at each price. Three rules raise a chosen subset
of the current minimal over-demanded set until no set is over-demanded:
the full-set choice and the single-item choice are the classic variants,
and run_with_policy exposes the choice as a hook. The fourth raises the
minimal Lyapunov-minimizing set until it is empty; on substitutes input
it walks the identical price path.

Engines never reject input. On valuations outside the substitutes
class the loop may misbehave, so each step is watched: a Lyapunov
increase is recorded as an anomaly and a hard iteration cap turns
into a flagged, unterminated trace rather than an endless run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import demand
from .model import Instance, Prices, add_indicator, iter_items, prices_to_json


class PolicyViolation(RuntimeError):
    """A step policy chose a set outside the current over-demanded set."""


@dataclass(frozen=True)
class AuctionStep:
    t: int
    price_before: Prices
    raised: int
    lyapunov_before: int
    f_value: int


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
# must raise within (0 once the auction stops) with a chooser that picks
# the raised subset for step t. The loop calls the chooser only after the
# iteration-cap test, so a policy is never consulted at the capped step.
RaiseRule = Callable[[Instance, Prices], tuple[int, Callable[[int], int]]]


def _ascend(instance: Instance, algorithm: str, rule: RaiseRule) -> AuctionTrace:
    cap = iteration_cap(instance)
    p = instance.zero_prices()
    steps: list[AuctionStep] = []
    anomalies: list[str] = []
    lyap = demand.lyapunov(instance, p)
    while True:
        target, choose = rule(instance, p)
        if target == 0:
            return AuctionTrace(algorithm, tuple(steps), p, True, False,
                                tuple(anomalies))
        if len(steps) >= cap:
            anomalies.append(f"iteration cap {cap} hit")
            return AuctionTrace(algorithm, tuple(steps), p, False, True,
                                tuple(anomalies))
        raised = choose(len(steps))
        if raised == 0 or raised & ~target:
            raise PolicyViolation(
                f"step {len(steps)}: chose {raised:#x} outside obstacle "
                f"{target:#x}"
            )
        f_val = demand.excess_demand(instance, p, raised)
        steps.append(AuctionStep(len(steps), p, raised, lyap, f_val))
        p = add_indicator(p, raised)
        new_lyap = demand.lyapunov(instance, p)
        if new_lyap > lyap:
            anomalies.append(f"lyapunov rose at step {len(steps) - 1}")
        lyap = new_lyap


def _obstacle_rule(policy: Policy) -> RaiseRule:
    """Raise the policy's pick from the minimal over-demanded set."""
    def rule(instance: Instance, p: Prices):
        ob = demand.over_demanded_set(instance, p)
        return (ob.bundle if ob.excess > 0 else 0), lambda t: policy(ob, p, t)
    return rule


def _minimizer_rule(instance: Instance, p: Prices):
    raised = demand.minimal_minimizer(instance, p)
    return raised, lambda t: raised


def gul_stacchetti(instance: Instance) -> AuctionTrace:
    """Raise the whole minimal over-demanded set each step."""
    return _ascend(instance, "gs", _obstacle_rule(lambda ob, p, t: ob.bundle))


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


def monitor_domination(trace: AuctionTrace, p_star: Prices) -> Optional[int]:
    """Check every trace price sits coordinatewise at or below p_star.

    Returns None when dominated throughout, else the first offending
    step index (len(steps) names the final price).
    """
    for step in trace.steps:
        if any(a > b for a, b in zip(step.price_before, p_star)):
            return step.t
    if any(a > b for a, b in zip(trace.final_price, p_star)):
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
            }
            for s in trace.steps
        ],
        "final_price": prices_to_json(trace.final_price, instance),
        "terminated": trace.terminated,
        "iteration_cap_hit": trace.iteration_cap_hit,
        "anomalies": list(trace.anomalies),
    }
