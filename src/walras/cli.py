"""Command-line front end.

Subcommands: run an auction engine, check structural properties, replay
the built-in demonstration instances, query the brute-force oracle, and
inspect demand at a price. Results are JSON on stdout (optionally copied
to --out); diagnostics go to stderr.

Exit codes: 0 success (run: certified termination; check: all clean),
1 input error, exceeded budget, failed check or output that cannot be
written, 2 iteration cap hit. A reader that closes stdout early ends the
command with 1 and no message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import auctions, demand, ggs2, oracle, structure
from .model import (
    DEFAULT_OP_BUDGET, BudgetExceeded, Instance, ModelError, Prices, add_indicator,
    env_budget, instance_from_json, make_instance, prices_from_json, prices_to_json,
)

ALGORITHMS = ("gs", "ausubel", "fine", "ggs2")
CHECKS = ("gs", "matroid", "lemmas", "ggs2-shape")
ORACLE_KINDS = ("welfare", "min-walrasian", "envy-free")
DEMOS = ("ggs2-not-gs", "no-obstacle-no-allocation")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_instance(path: str) -> Instance:
    """Read the instance at path; exit 1 with a message if it cannot be loaded."""
    try:
        with open(path, "rb") as fh:
            return instance_from_json(fh.read())
    except (OSError, ModelError) as exc:
        raise SystemExit(_fail(f"cannot load instance: {exc}")) from None


def _print(text: str) -> None:
    """Print text to stdout; exit 1 if it cannot be written."""
    try:
        print(text, flush=True)
    except OSError as exc:
        # stdout now points at devnull, so the flush at exit cannot fail
        # again on what is left in its buffer; a reader that closed the pipe
        # early wants nothing more, not even an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _fail(f"cannot write output: {exc}")
        raise SystemExit(1) from None


def _emit(payload: dict, out: Optional[str]) -> None:
    """Print payload as JSON and copy it to out; exit 1 if a write fails."""
    text = json.dumps(payload, indent=2, sort_keys=False)
    _print(text)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SystemExit(_fail(f"cannot write {out}: {exc}")) from None


def cmd_run(args) -> int:
    instance = _load_instance(args.instance)

    algorithm = args.algorithm
    cert = None
    try:
        if algorithm == "gs":
            trace = auctions.gul_stacchetti(instance)
        elif algorithm == "ausubel":
            trace = auctions.ausubel_ascending(instance)
        elif algorithm == "fine":
            trace = auctions.fine_auction(instance)
        elif algorithm == "ggs2":
            trace, cert = ggs2.ggs2_auction(instance)
        elif algorithm.startswith("policy:"):
            trace = auctions.run_with_policy(
                instance, auctions.seeded_policy(args.seed), name=algorithm)
        else:
            return _fail(f"unknown algorithm {algorithm!r}; "
                         f"choose from {ALGORITHMS + ('policy:<name>',)}")
    except (ggs2.NotGgs2Instance, auctions.PolicyViolation) as exc:
        return _fail(str(exc))

    if cert is None and trace.terminated:
        cert = oracle.is_walrasian(instance, trace.final_price)

    payload = {"trace": auctions.trace_to_json(trace, instance)}
    if cert is not None:
        payload["certificate"] = ggs2.certificate_to_json(cert, instance)
    _emit(payload, args.out)

    if trace.iteration_cap_hit:
        return 2
    if not trace.terminated or cert is None or not cert.valid:
        return 1
    return 0


def _price_battery(instance: Instance) -> list[Prices]:
    """Deterministic prices worth checking: the whole ascending-auction path
    plus a unit bump of each item at the start and at the end."""
    trace = auctions.gul_stacchetti(instance)
    battery = [s.price_before for s in trace.steps] + [trace.final_price]
    for j in range(instance.m):
        battery.append(add_indicator(instance.zero_prices(), 1 << j))
        battery.append(add_indicator(trace.final_price, 1 << j))
    return list(dict.fromkeys(battery))


def _check_gs(instance: Instance) -> list[dict]:
    findings = []
    for i, v in enumerate(instance.players):
        try:
            w = structure.check_gs_on_grid(v)
        except BudgetExceeded as exc:
            findings.append({"player": i, "kind": "grid too large",
                             "detail": str(exc)})
            continue
        if w is not None:
            findings.append({
                "player": i,
                "kind": "substitutes violation",
                "price_low_doubled": list(w.price_low),
                "price_high_doubled": list(w.price_high),
                "bundle": instance.label_bundle(w.bundle),
                "kept": instance.label_bundle(w.kept_bundle),
                "violated_item": (None if w.violated_item is None
                                  else instance.items[w.violated_item]),
            })
    return findings


def _check_matroid(instance: Instance) -> list[dict]:
    findings = []
    for p in _price_battery(instance):
        for i, v in enumerate(instance.players):
            fam = demand.demand_sets(v, p).minimal_demand
            bad = structure.check_matroid_bases(fam)
            if bad is not None:
                findings.append({
                    "player": i, "price": prices_to_json(p, instance),
                    "kind": f"matroid {bad.kind}",
                    "family": [instance.label_bundle(b) for b in fam],
                })
    return findings


def _check_lemmas(instance: Instance) -> list[dict]:
    findings = []
    m = instance.m
    battery = _price_battery(instance)
    # each (price, player, bundle) gets the utility-drop and distance checks
    checks = len(battery) * instance.n << m
    budget = env_budget(DEFAULT_OP_BUDGET)
    if checks > budget:
        raise BudgetExceeded(f"check lemmas needs {checks} (price, player, bundle) "
                             f"checks, budget {budget}")
    for p in battery:
        for i, v in enumerate(instance.players):
            for s, expected, observed in structure.utility_drop_misses(v, p):
                findings.append({
                    "player": i, "price": prices_to_json(p, instance),
                    "kind": "utility-drop identity",
                    "bundle": instance.label_bundle(s),
                    "expected": expected, "observed": observed,
                })
            for j, detail in structure.transition_misses(v, p):
                findings.append({
                    "player": i, "price": prices_to_json(p, instance),
                    "kind": "unclassifiable transition",
                    "item": instance.items[j], "detail": detail,
                })
            for s in structure.utility_distance_misses(v, p):
                findings.append({
                    "player": i, "price": prices_to_json(p, instance),
                    "kind": "utility distance witness missing",
                    "bundle": instance.label_bundle(s),
                })
        for (x, y), rep in structure.decreasing_marginal_reports(instance, p).items():
            if not rep.ok:
                findings.append({
                    "price": prices_to_json(p, instance),
                    "kind": "lyapunov submodularity",
                    "items": [instance.items[x], instance.items[y]],
                    "lhs": rep.lhs, "rhs": rep.rhs,
                })
    return findings


def _check_ggs2_shape(instance: Instance) -> list[dict]:
    try:
        ggs2.common_cap(instance)
    except ggs2.NotGgs2Instance as exc:
        return [{"kind": "shape violation", "detail": str(exc)}]
    return []


def cmd_check(args) -> int:
    instance = _load_instance(args.instance)
    runner = {
        "gs": _check_gs,
        "matroid": _check_matroid,
        "lemmas": _check_lemmas,
        "ggs2-shape": _check_ggs2_shape,
    }[args.what]
    findings = runner(instance)
    _emit({"check": args.what, "violations": findings,
           "ok": not findings}, args.out)
    return 0 if not findings else 1


def cmd_demo(args) -> int:
    if args.name == "ggs2-not-gs":
        v = ggs2.demo_not_gs_valuation()
        inst = make_instance(["a", "b", "c"], [v])
        witness = structure.check_gs_on_grid(v)
        doubled_v = type(v)(m=v.m, table=tuple(2 * x for x in v.table))
        low, high = (0, 2, 4), (4, 2, 4)
        d_low = demand.demand_sets(doubled_v, low).demand
        d_high = demand.demand_sets(doubled_v, high).demand
        pair_reproduced = (
            0b011 in d_low
            and all(not s >> 1 & 1 for s in d_high)
        )
        report = {
            "demo": args.name,
            "expected": {
                "witness_found": True,
                "reference_pair_doubled": {"low": list(low), "high": list(high)},
                "bundle_at_low": ["a", "b"],
                "item_dropped_at_high": "b",
            },
            "observed": {
                "witness_found": witness is not None,
                "witness": None if witness is None else {
                    "price_low_doubled": list(witness.price_low),
                    "price_high_doubled": list(witness.price_high),
                    "bundle": inst.label_bundle(witness.bundle),
                    "violated_item": (None if witness.violated_item is None
                                      else inst.items[witness.violated_item]),
                },
                "demand_at_low": [inst.label_bundle(s) for s in d_low],
                "demand_at_high": [inst.label_bundle(s) for s in d_high],
                "reference_pair_reproduced": pair_reproduced,
            },
        }
        ok = witness is not None and pair_reproduced
        _emit(report, args.out)
        return 0 if ok else 1

    if args.name == "no-obstacle-no-allocation":
        inst = ggs2.demo_claim_instance()
        p0 = inst.zero_prices()
        ob = demand.over_demanded_set(inst, p0)
        alloc = oracle.envy_free_exists(inst, p0)
        report = {
            "demo": args.name,
            "expected": {"max_excess_at_zero": "<= 0",
                         "envy_free_allocation": None},
            "observed": {
                "over_demanded_set": inst.label_bundle(ob.bundle),
                "excess": ob.excess,
                "envy_free_allocation": (
                    None if alloc is None
                    else [inst.label_bundle(b) for b in alloc]),
            },
        }
        ok = ob.excess <= 0 and alloc is None
        _emit(report, args.out)
        return 0 if ok else 1

    return _fail(f"unknown demo {args.name!r}; choose from {DEMOS}")


def cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    try:
        if args.what == "welfare":
            res = oracle.max_welfare(instance)
            _emit({"value": res.welfare,
                   "allocation": [instance.label_bundle(b) for b in res.allocation]},
                  args.out)
            return 0
        if args.what == "min-walrasian":
            rep = oracle.minimal_walrasian_price(instance)
            if rep is None:
                _emit({"minimal_walrasian_price": None,
                       "note": "no walrasian equilibrium exists"}, args.out)
                return 0
            if not rep.unique:
                print("note: lyapunov minimizers form no lattice; "
                      "reporting the lexicographically least minimal price",
                      file=sys.stderr)
            _emit(prices_to_json(rep.price, instance), args.out)
            return 0
        # envy-free, the last of the choices argparse allows
        if not args.price:
            return _fail("envy-free needs --price")
        prices = prices_from_json(args.price, instance)
        alloc = oracle.envy_free_exists(instance, prices)
        _emit({"envy_free_allocation": (
            None if alloc is None
            else [instance.label_bundle(b) for b in alloc])}, args.out)
        return 0
    except BudgetExceeded as exc:
        _print(json.dumps({"error": "budget exceeded", "detail": str(exc)}))
        return 1
    except ModelError as exc:
        return _fail(str(exc))


def cmd_inspect(args) -> int:
    instance = _load_instance(args.instance)
    try:
        prices = prices_from_json(args.price, instance)
    except ModelError as exc:
        return _fail(str(exc))
    reports = demand.demand_reports(instance, prices)
    ob = demand.over_demanded_set(instance, prices)
    mm = demand.minimal_minimizer_report(instance, prices)
    _emit({
        "price": prices_to_json(prices, instance),
        "lyapunov": demand.lyapunov(instance, prices),
        "players": [
            {
                "player": r.player,
                "utility": r.utility,
                "demand": [instance.label_bundle(s) for s in r.demand],
                "minimal_demand": [instance.label_bundle(s) for s in r.minimal_demand],
            }
            for r in reports
        ],
        "over_demanded_set": {
            "bundle": instance.label_bundle(ob.bundle),
            "excess": ob.excess,
            "unique": ob.unique,
        },
        "minimal_minimizer": {
            "bundle": instance.label_bundle(mm.bundle),
            "lyapunov_after": mm.lyapunov_after,
            "unique": mm.unique,
        },
    }, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walras",
        description="Combinatorial-auction equilibrium laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an auction engine")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--algorithm", required=True,
                       help="gs | ausubel | fine | ggs2 | policy:<name>")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a structural checker suite")
    p_check.add_argument("what", choices=CHECKS)
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    p_demo = sub.add_parser("demo", help="reproduce a built-in demonstration")
    p_demo.add_argument("name")
    p_demo.add_argument("--out")
    p_demo.set_defaults(func=cmd_demo)

    p_oracle = sub.add_parser("oracle", help="query the brute-force oracle")
    p_oracle.add_argument("what", choices=ORACLE_KINDS)
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--price")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)

    p_inspect = sub.add_parser("inspect", help="demand and obstacle at a price")
    p_inspect.add_argument("--instance", required=True)
    p_inspect.add_argument("--price", required=True)
    p_inspect.add_argument("--out")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a malformed WALRAS_BUDGET fails here, not as some exceeded budget
        env_budget(DEFAULT_OP_BUDGET)
        return args.func(args)
    except BudgetExceeded as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
