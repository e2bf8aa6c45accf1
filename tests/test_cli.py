"""Command-line front end: exit codes and JSON payloads."""

import json

import pytest

from walras import auctions, cli, model
from walras.model import make_instance, make_truncation, make_unit_demand


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


def test_run_bad_inputs(capsys, tmp_path, two_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["run", "--instance", str(bad), "--algorithm", "gs"]) == 1
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


def test_oracle_budget_exceeded(capsys, two_path):
    code, payload = run_cli(capsys, "oracle", "welfare", "--instance", two_path,
                            "--budget", "1")
    assert code == 1
    assert "error" in payload


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
    # max_welfare caches per (instance, budget) and checks the budget only
    # on a miss, so this instance must be one no other test solves
    inst = make_instance(["over", "budget"],
                         [make_unit_demand((3, 2)), make_unit_demand((2, 3))])
    path = write_instance(tmp_path, inst, "over.json")
    monkeypatch.setenv("WALRAS_BUDGET", "10")
    assert cli.main(["run", "--instance", path, "--algorithm", "gs"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: welfare DP needs")


def test_run_ausubel_beyond_after_raise_budget_is_an_error(capsys, tmp_path,
                                                         monkeypatch):
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    inst = make_instance([f"i{j}" for j in range(13)],
                         [make_unit_demand(range(1, 14))] * 2)
    path = write_instance(tmp_path, inst, "thirteen.json")
    assert cli.main(["run", "--instance", path, "--algorithm", "ausubel"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: after-raise table needs")


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
