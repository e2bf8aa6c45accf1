"""Command-line front end: exit codes and JSON payloads."""

import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import walras
from walras import auctions, cli, demand, ggs2, model, oracle, structure
from walras.model import make_instance, make_truncation, make_unit_demand, popcount

import conftest


@pytest.fixture
def two_path(tmp_path):
    inst = make_instance(
        ["x"], [make_unit_demand((5,)), make_unit_demand((5,))])
    path = tmp_path / "two.json"
    path.write_text(model.instance_to_json(inst))
    return str(path)


@pytest.fixture
def ggs24_path(tmp_path):
    inst = make_instance(
        ["a", "b", "c"],
        [make_truncation(make_unit_demand((2, 2, 4)), 2, 4)])
    path = tmp_path / "ggs24.json"
    path.write_text(model.instance_to_json(inst))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_run_gs(capsys, two_path):
    code, payload = run_cli(capsys, "run", "--instance", two_path,
                            "--algorithm", "gs")
    assert code == 0
    assert payload["trace"]["final_price"] == {"x": 5}
    assert payload["certificate"]["envy_free"] is True
    assert len(payload["trace"]["steps"]) == 5


def test_run_all_algorithms_agree(capsys, two_path):
    finals = []
    for algo in ("gs", "ausubel", "fine", "ggs2", "policy:seeded"):
        code, payload = run_cli(capsys, "run", "--instance", two_path,
                                "--algorithm", algo, "--seed", "3")
        assert code == 0
        finals.append(tuple(sorted(payload["trace"]["final_price"].items())))
    assert len(set(finals)) == 1


def test_run_writes_out_file(capsys, two_path, tmp_path):
    out = tmp_path / "trace.json"
    code, payload = run_cli(capsys, "run", "--instance", two_path,
                            "--algorithm", "fine", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == payload


def walras_process(argv, stdout):
    """Run the CLI in its own interpreter, stdout going to the given file."""
    src = str(Path(walras.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "walras.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_closed_stdout_ends_the_command_quietly(two_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = walras_process(["run", "--instance", two_path, "--algorithm", "gs"],
                             write_end)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_one_error_line(two_path):
    with open("/dev/full", "w") as full:
        out = walras_process(["run", "--instance", two_path, "--algorithm", "gs"],
                             full)
    assert out.returncode == 1
    assert out.stderr.startswith("error: cannot write output: [Errno 28]")
    assert len(out.stderr.splitlines()) == 1


def test_unwritable_out_file_is_an_error(capsys, tmp_path, two_path):
    missing = tmp_path / "no-such-dir" / "trace.json"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--instance", two_path, "--algorithm", "gs",
                  "--out", str(missing)])
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["trace"]["final_price"] == {"x": 5}
    assert captured.err.startswith(f"error: cannot write {missing}: ")


def exit_code(argv):
    """What cli.main returns, or the code it exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_run_bad_inputs(capsys, tmp_path, two_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert exit_code(["run", "--instance", str(bad), "--algorithm", "gs"]) == 1
    assert cli.main(["run", "--instance", two_path,
                     "--algorithm", "mystery"]) == 1


def test_run_cap_exit_code(capsys, two_path, monkeypatch):
    monkeypatch.setattr(auctions, "iteration_cap", lambda inst: 1)
    code, payload = run_cli(capsys, "run", "--instance", two_path,
                            "--algorithm", "gs")
    assert code == 2
    assert payload["trace"]["iteration_cap_hit"] is True


def test_check_gs(capsys, ggs24_path, two_path):
    code, payload = run_cli(capsys, "check", "gs", "--instance", ggs24_path)
    assert code == 1
    assert not payload["ok"]
    viol = payload["violations"][0]
    assert viol["bundle"] == ["a", "b"]
    assert viol["violated_item"] == "b"

    code, payload = run_cli(capsys, "check", "gs", "--instance", two_path)
    assert code == 0
    assert payload["ok"]


def test_check_matroid_and_lemmas(capsys, two_path):
    for what in ("matroid", "lemmas", "ggs2-shape"):
        code, payload = run_cli(capsys, "check", what, "--instance", two_path)
        assert code == 0, what
        assert payload["ok"], what


def test_demo_ggs2_not_gs(capsys):
    code, payload = run_cli(capsys, "demo", "ggs2-not-gs")
    assert code == 0
    assert payload["observed"]["witness_found"] is True
    assert payload["observed"]["reference_pair_reproduced"] is True
    assert ["a", "b"] in payload["observed"]["demand_at_low"]
    assert all("b" not in s for s in payload["observed"]["demand_at_high"])


def test_demo_no_obstacle(capsys):
    code, payload = run_cli(capsys, "demo", "no-obstacle-no-allocation")
    assert code == 0
    assert payload["observed"]["over_demanded_set"] == []
    assert payload["observed"]["excess"] <= 0
    assert payload["observed"]["envy_free_allocation"] is None


def test_demo_unknown_name(capsys):
    assert cli.main(["demo", "flying-pigs"]) == 1


def test_oracle_queries(capsys, two_path):
    code, payload = run_cli(capsys, "oracle", "welfare", "--instance", two_path)
    assert code == 0
    assert payload["value"] == 5

    code, payload = run_cli(capsys, "oracle", "min-walrasian",
                            "--instance", two_path)
    assert code == 0
    assert payload == {"x": 5}

    code, payload = run_cli(capsys, "oracle", "envy-free",
                            "--instance", two_path, "--price", '{"x": 0}')
    assert code == 0
    assert payload["envy_free_allocation"] is None

    code, payload = run_cli(capsys, "oracle", "envy-free",
                            "--instance", two_path, "--price", '{"x": 5}')
    assert code == 0
    assert payload["envy_free_allocation"] is not None


def test_oracle_missing_price(capsys, two_path):
    assert cli.main(["oracle", "envy-free", "--instance", two_path]) == 1


def test_oracle_budget_exceeded(capsys, two_path, monkeypatch):
    monkeypatch.setenv("WALRAS_BUDGET", "1")
    code, payload = run_cli(capsys, "oracle", "welfare", "--instance", two_path)
    assert code == 1
    assert "error" in payload


def test_oracle_envy_free_budget_exceeded(capsys, two_path, monkeypatch):
    monkeypatch.setenv("WALRAS_BUDGET", "1")
    code, payload = run_cli(capsys, "oracle", "envy-free", "--instance",
                            two_path, "--price", '{"x": 5}')
    assert code == 1
    assert payload == {"error": "budget exceeded",
                       "detail": "envy-free search passed 2 nodes, budget 1"}


def test_envy_free_search_is_not_bounded_by_the_call_stack(capsys, tmp_path):
    # one search level per player, a thousand deep: past the default
    # recursion limit
    doc = {"items": ["a"],
           "players": [{"type": "unit_demand", "values": {"a": 1}}] * 1000}
    path = tmp_path / "thousand.json"
    path.write_text(json.dumps(doc))
    code, payload = run_cli(capsys, "oracle", "envy-free", "--instance",
                            str(path), "--price", '{"a": 1}')
    assert code == 0
    assert payload["envy_free_allocation"] == [[]] * 1000


def test_inspect(capsys, two_path):
    code, payload = run_cli(capsys, "inspect", "--instance", two_path,
                            "--price", '{"x": 2}')
    assert code == 0
    assert payload["price"] == {"x": 2}
    assert payload["lyapunov"] == 8
    assert payload["over_demanded_set"]["bundle"] == ["x"]
    assert len(payload["players"]) == 2


def write_instance(tmp_path, inst, name):
    path = tmp_path / name
    path.write_text(model.instance_to_json(inst))
    return str(path)


def test_run_certificate_over_budget_is_an_error(capsys, tmp_path, monkeypatch):
    inst = make_instance(["over", "budget"],
                         [make_unit_demand((3, 2)), make_unit_demand((2, 3))])
    path = write_instance(tmp_path, inst, "over.json")
    monkeypatch.setenv("WALRAS_BUDGET", "10")
    assert cli.main(["run", "--instance", path, "--algorithm", "gs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: welfare DP needs")


@pytest.mark.parametrize("command", [
    ["run", "--algorithm", "gs"],
    ["check", "gs"],
    ["oracle", "welfare"],
    ["inspect", "--price", '{"x": 2}'],
])
def test_malformed_env_budget_is_one_error_line(capsys, two_path, monkeypatch,
                                                command):
    # reported before the command runs, never as a budget some scan exceeded
    monkeypatch.setenv("WALRAS_BUDGET", "abc")
    assert cli.main([*command, "--instance", two_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: WALRAS_BUDGET must be an integer, got 'abc'\n"


def test_ausubel_and_inspect_run_past_twelve_items(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    inst = make_instance([f"i{j}" for j in range(13)],
                         [make_unit_demand(range(1, 14))] * 2)
    path = write_instance(tmp_path, inst, "thirteen.json")
    zero = json.dumps({label: 0 for label in inst.items})
    code, payload = run_cli(capsys, "inspect", "--instance", path,
                            "--price", zero)
    assert code == 0
    assert payload["minimal_minimizer"] == {
        "bundle": ["i12"], "lyapunov_after": 25, "unique": True}
    aus = auctions.ausubel_ascending(inst)
    assert aus.terminated
    assert dataclasses.replace(aus, algorithm="gs") == \
        auctions.gul_stacchetti(inst)


def sixteen_items(k, cap, value):
    """One truncation of an additive valuation over sixteen items."""
    items = "abcdefghijklmnop"
    return {"items": list(items), "players": [{
        "type": "truncation", "k": k, "M": cap,
        "base": {"type": "additive", "values": {x: value for x in items}}}]}


@pytest.mark.parametrize("market,price,command,message", [
    # 39,203 demanded bundles at zero prices, 12,870 of them minimal: the
    # overlap gather alone would need 6.3 GiB
    (sixteen_items(8, 8, 1), 0, "inspect", "minimal filter of 39203 bundles"),
    (sixteen_items(8, 8, 1), 0, "run", "minimal filter of 39203 bundles"),
    # exactly the 560 triples demanded at price 1: a cheap filter, but
    # 560 * 2**16 overlap entries
    (sixteen_items(4, 6, 2), 1, "inspect", "demand overlaps need 36700160 entries"),
])
def test_market_view_is_bounded(tmp_path, market, price, command, message):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(market))
    argv = {"inspect": ["inspect", "--price",
                        json.dumps({x: price for x in market["items"]})],
            "run": ["run", "--algorithm", "gs"]}[command]

    def one_gib():
        # a missed bound then fails with MemoryError, not the machine
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(walras.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "WALRAS_BUDGET": str(10 ** 12)}
    out = subprocess.run([sys.executable, "-m", "walras.cli", *argv,
                          "--instance", str(path)],
                         env=env, capture_output=True, text=True,
                         preexec_fn=one_gib, timeout=120)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: {message}"), out.stderr


def test_inspect_price_bounded_inside_int64(capsys, two_path):
    code = cli.main(["inspect", "--instance", two_path,
                     "--price", '{"x": 99999999999999999999}'])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: price of 'x' exceeds")

    # the largest accepted price evaluates without int64 wraparound
    top = (2 ** 63 - 1) // 2
    code, payload = run_cli(capsys, "inspect", "--instance", two_path,
                            "--price", json.dumps({"x": top}))
    assert code == 0
    assert payload["lyapunov"] == top
    assert payload["minimal_minimizer"]["bundle"] == []


def test_check_gs_reports_the_budget(capsys, two_path, monkeypatch):
    monkeypatch.setenv("WALRAS_BUDGET", "10")
    code, payload = run_cli(capsys, "check", "gs", "--instance", two_path)
    assert code == 1
    assert payload["violations"][0]["kind"] == "grid too large"
    assert "budget 10" in payload["violations"][0]["detail"]


def test_check_lemmas_counts_its_checks_against_the_budget(capsys, two_path,
                                                           monkeypatch):
    # two players over one item: each battery price checks 2 * 2**1 bundles
    battery = cli._price_battery(model.instance_from_json(Path(two_path).read_text()))
    checks = len(battery) * 4
    monkeypatch.setenv("WALRAS_BUDGET", str(checks - 1))
    assert cli.main(["check", "lemmas", "--instance", two_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: check lemmas needs {checks} (price, player, bundle) "
                            f"checks, budget {checks - 1}\n")
    monkeypatch.setenv("WALRAS_BUDGET", str(checks))
    code, payload = run_cli(capsys, "check", "lemmas", "--instance", two_path)
    assert code == 0 and payload["ok"]


def test_check_matroid_counts_its_exchange_steps_against_the_budget(
        capsys, tmp_path, monkeypatch):
    # one player valuing a bundle at min(|S|, 2) over four items: at zero
    # prices its minimal demand family is the six pairs, and the exchange
    # scan takes 6**2 * 2**2 steps
    rank = model.make_table(4, [min(popcount(s), 2) for s in range(16)])
    path = write_instance(tmp_path, make_instance(list("abcd"), [rank]), "rank.json")
    monkeypatch.setenv("WALRAS_BUDGET", "143")
    assert cli.main(["check", "matroid", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: matroid exchange scan of 6 bases needs 144 "
                            "steps, budget 143\n")
    monkeypatch.setenv("WALRAS_BUDGET", "144")
    code, payload = run_cli(capsys, "check", "matroid", "--instance", path)
    assert code == 0 and payload["ok"]


def test_check_lemmas_scans_each_valuation_a_few_times_per_price(
        capsys, tmp_path, monkeypatch):
    # one scan at p, shared by the utility-drop identity, the transitions
    # and the utility distance, and one per item at its raise: none per
    # bundle; and each battery vector and its m unit raises priced once for
    # all players, both counted from the end of the battery's own gs run
    rng = random.Random(6)
    inst = make_instance(list("abcdef"),
                         [conftest.random_gs_valuation(rng, 6) for _ in range(3)])
    path = write_instance(tmp_path, inst, "six.json")
    prices = len(cli._price_battery(inst))
    calls = {"scans": 0, "priced": 0}
    real_scan, real_prices, real_battery = demand._scan, demand._bundle_prices, cli._price_battery

    def scanning(v, pcost):
        calls["scans"] += 1
        return real_scan(v, pcost)

    def pricing(m, prices):
        calls["priced"] += 1
        return real_prices(m, prices)

    def battery(instance):
        out = real_battery(instance)
        calls.update(scans=0, priced=0)
        return out

    monkeypatch.setattr(demand, "_scan", scanning)
    monkeypatch.setattr(demand, "_bundle_prices", pricing)
    monkeypatch.setattr(cli, "_price_battery", battery)
    code, payload = run_cli(capsys, "check", "lemmas", "--instance", path)
    assert code == 0 and payload["ok"]
    assert 0 < calls["scans"] <= prices * inst.n * (inst.m + 1)
    assert 0 < calls["priced"] <= prices * (inst.m + 1)


def test_no_engine_oracle_or_check_reads_the_table_tuple(capsys, tmp_path, monkeypatch):
    # with Valuation.table refusing every read, each engine, oracle and
    # check gives what it gave before, through the JSON writer and loader:
    # no path in the package reads the tuple the property builds
    gs_market = make_instance(list("abcd"), [conftest.random_gs_valuation(random.Random(i), 4)
                                             for i in range(3)])
    pair_market = conftest.random_ggs2_instance(random.Random(2), max_m=4)

    def outcomes():
        got = {name: auctions.trace_to_json(engine(gs_market), gs_market)
               for name, engine in (("gs", auctions.gul_stacchetti),
                                    ("fine", auctions.fine_auction),
                                    ("ausubel", auctions.ausubel_ascending))}
        oracle.max_welfare.cache_clear()
        got["welfare"] = oracle.max_welfare(gs_market)
        got["minimal"] = oracle.minimal_walrasian_price(gs_market)
        trace, cert = ggs2.ggs2_auction(pair_market)
        got["ggs2"] = (auctions.trace_to_json(trace, pair_market),
                       ggs2.certificate_to_json(cert, pair_market))
        for name, inst in (("gs", gs_market), ("pair", pair_market)):
            path = write_instance(tmp_path, inst, f"{name}.json")
            for what in cli.CHECKS:
                got[name, what] = run_cli(capsys, "check", what, "--instance", path)
        return got

    want = outcomes()

    def refuse(self):
        raise AssertionError("Valuation.table was read")

    monkeypatch.setattr(model.Valuation, "table", property(refuse))
    with pytest.raises(AssertionError, match="was read"):
        gs_market.players[0].table
    assert outcomes() == want


def lemma_findings_by_bundle(instance):
    """walras check lemmas as it was before its array comparisons, one
    bundle at a time, kept as the reference for the findings and their
    order."""
    findings = []
    m = instance.m
    for p in cli._price_battery(instance):
        for i, v in enumerate(instance.players):
            base_u = demand.demand_sets(v, p).utility
            raised = demand.utilities_after_raise((v,), p)[0]
            for s in range(1, 1 << m):
                drop = demand.min_demand_overlap(v, p, s)
                lhs = int(raised[s])
                if lhs != base_u - drop:
                    findings.append({
                        "player": i, "price": model.prices_to_json(p, instance),
                        "kind": "utility-drop identity",
                        "bundle": instance.label_bundle(s),
                        "expected": base_u - drop, "observed": lhs,
                    })
            for j in range(m):
                try:
                    structure.classify_transition(v, p, j)
                except structure.UnclassifiableTransition as exc:
                    findings.append({
                        "player": i, "price": model.prices_to_json(p, instance),
                        "kind": "unclassifiable transition",
                        "item": instance.items[j], "detail": str(exc),
                    })
            for s in range(1 << m):
                rep = structure.check_utility_distance(v, p, s)
                if not rep.ok:
                    findings.append({
                        "player": i, "price": model.prices_to_json(p, instance),
                        "kind": "utility distance witness missing",
                        "bundle": instance.label_bundle(s),
                    })
        for (x, y), rep in structure.decreasing_marginal_reports(instance, p).items():
            if not rep.ok:
                findings.append({
                    "price": model.prices_to_json(p, instance),
                    "kind": "lyapunov submodularity",
                    "items": [instance.items[x], instance.items[y]],
                    "lhs": rep.lhs, "rhs": rep.rhs,
                })
    return findings


LEMMA_MARKETS = {
    "gs": lambda rng: conftest.random_gs_instance(rng, max_m=5, max_n=3),
    "paircap": lambda rng: conftest.random_ggs2_instance(rng, max_m=5, max_n=3),
    "monotone": conftest.random_monotone_instance,
}


def test_lemma_reference_market_breaks_every_lemma():
    # the monotone market the hypothesis test below always runs
    findings = lemma_findings_by_bundle(LEMMA_MARKETS["monotone"](random.Random(5)))
    assert {f["kind"] for f in findings} == {
        "utility-drop identity", "unclassifiable transition",
        "utility distance witness missing", "lyapunov submodularity"}
    assert any(f["kind"] == "utility distance witness missing" and f["bundle"] == []
               for f in findings)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(sorted(LEMMA_MARKETS)))
@example(5, "monotone")
def test_check_lemmas_matches_the_per_bundle_reference(seed, kind):
    inst = LEMMA_MARKETS[kind](random.Random(seed))
    assert cli._check_lemmas(inst) == lemma_findings_by_bundle(inst)


def deep_truncation(levels):
    obj = {"type": "unit_demand", "values": {"x": 1}}
    for _ in range(levels):
        obj = {"type": "truncation", "k": 1, "M": 1, "base": obj}
    return obj


@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff\xfe", "invalid JSON: 'utf-8' codec can't decode",
                 id="not-utf8"),
    pytest.param(b'{"items": ["x"], "players": 5}', "'players' must be a list",
                 id="players-not-a-list"),
    pytest.param(b"[" * 5000 + b"]" * 5000, "nested too deeply",
                 id="nested-json"),
    pytest.param(json.dumps({"items": ["x"],
                             "players": [deep_truncation(900)]}).encode(),
                 "truncation chain deeper than 2 levels", id="truncation-900"),
    # deep enough that hashing the valuation overflows the stack
    pytest.param(json.dumps({"items": ["x"],
                             "players": [deep_truncation(300)]}).encode(),
                 "truncation chain deeper than 2 levels", id="truncation-300"),
    # 2**40 table entries would be allocated before the item count check
    pytest.param(json.dumps({"items": [f"i{j}" for j in range(40)],
                             "players": [{"type": "table", "values": {}}]}).encode(),
                 "item count must be in 1..20", id="forty-items"),
    pytest.param(None, "[Errno 2] No such file or directory", id="missing-file"),
])
def test_malformed_instance_is_an_error(capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    for argv in (["run", "--algorithm", "gs"], ["check", "gs"],
                 ["oracle", "welfare"], ["inspect", "--price", "{}"]):
        assert exit_code(argv + ["--instance", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load instance: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1


def test_instance_over_the_table_bound_is_refused_before_any_table(
        capsys, tmp_path, monkeypatch):
    # 20 players over 20 items need 20 * 2**20 = 20,971,520 table entries,
    # past the fixed bound, which WALRAS_BUDGET does not move
    items = [f"i{j}" for j in range(20)]
    doc = {"items": items, "players": [
        {"type": "unit_demand", "values": {x: 1 for x in items}}] * 20}
    path = tmp_path / "twenty.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("WALRAS_BUDGET", str(10 ** 12))
    monkeypatch.setattr(model, "make_unit_demand", lambda values: pytest.fail(
        "a table was built"))
    assert exit_code(["run", "--algorithm", "gs", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cannot load instance: 20 players over 20 items need "
        "20971520 table entries, bound 20000000\n")


def test_deeply_nested_price_is_an_error(capsys, two_path):
    nested = "[" * 5000 + "]" * 5000
    for argv in (["inspect", "--instance", two_path, f"--price={nested}"],
                 ["oracle", "envy-free", "--instance", two_path,
                  f"--price={nested}"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: price JSON is nested too deeply\n"


# malformed input for the fuzz test below: a valid instance document with
# at most one value swapped for arbitrary JSON, or raw bytes and JSON that
# are no instance at all
json_leaf = (st.none() | st.booleans() | st.integers(-3, 70)
             | st.sampled_from([2 ** 63, -2 ** 63, 10 ** 30])
             | st.floats(allow_nan=False) | st.text(max_size=4))
json_junk = st.recursive(
    json_leaf,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8)
raw_junk = st.sampled_from([b"", b"\xff\xfe", b"[" * 5000 + b"]" * 5000,
                            b'{"items": ["x"], "players": 5}']) | st.binary(max_size=8)


@st.composite
def player_doc(draw, items, depth=0):
    m = len(items)
    kinds = ["unit_demand", "additive", "table"] + ["truncation"] * (depth < 2)
    kind = draw(st.sampled_from(kinds))
    if kind == "truncation":
        return {"type": kind, "k": draw(st.integers(1, m + 1)),
                "M": draw(st.integers(0, 9)),
                "base": draw(player_doc(items, depth + 1))}
    if kind == "table":
        table = [0] * (1 << m)
        for mask in range(1, 1 << m):
            below = max(table[mask & ~(1 << j)] for j in range(m) if mask >> j & 1)
            table[mask] = min(9, below + draw(st.integers(0, 2)))
        return {"type": kind, "values": {
            ",".join(x for j, x in enumerate(items) if mask >> j & 1): value
            for mask, value in enumerate(table)}}
    return {"type": kind,
            "values": {x: draw(st.integers(0, 9)) for x in items}}


def containers(doc):
    """Every (container, key) slot of a JSON document."""
    slots = []
    if isinstance(doc, (dict, list)):
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            slots.append((doc, key))
            slots.extend(containers(doc[key]))
    return slots


def swap_one_value(draw, doc):
    """doc with at most one value replaced by arbitrary JSON."""
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(containers(doc)))
        container[key] = draw(json_junk)
    return doc


@st.composite
def fuzz_input(draw):
    """An instance file's bytes and a --price text."""
    items = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
                          unique=True))
    doc = swap_one_value(draw, {
        "items": list(items),
        "players": draw(st.lists(player_doc(items), min_size=1, max_size=3))})
    content = json.dumps(doc).encode()
    if draw(st.integers(0, 3)) == 0:
        content = draw(raw_junk | json_junk.map(lambda x: json.dumps(x).encode()))
    prices = swap_one_value(draw, {
        x: draw(st.integers(0, 9) | st.integers(-2, 2 ** 70)) for x in items})
    price = json.dumps(prices)
    if draw(st.integers(0, 3)) == 0:
        price = draw(st.sampled_from(["[" * 5000, "[" * 5000 + "]" * 5000, "-1"])
                     | st.text(max_size=6))
    return content, price


commands = st.sampled_from(
    [["run", f"--algorithm={a}"] for a in cli.ALGORITHMS + ("policy:x", "bogus")]
    + [["check", what] for what in cli.CHECKS]
    + [["oracle", what] for what in cli.ORACLE_KINDS]
    + [["inspect"]])


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=commands, given_input=fuzz_input())
def test_malformed_input_never_raises(fuzz_path, command, given_input):
    content, price = given_input
    fuzz_path.write_bytes(content)
    argv = command + ["--instance", str(fuzz_path)]
    if command[0] in ("oracle", "inspect"):
        argv.append(f"--price={price}")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert exit_code(argv) in (0, 1, 2)
