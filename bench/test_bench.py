"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import dataclasses
import importlib.util
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from walras import auctions, demand, ggs2, model, oracle  # noqa: E402


def input_digest(w, seed, batches=1):
    return workloads.digest(c.key() for c in w.generate(seed, batches))


def result_digest(cases, w):
    tally = workloads.Tally()
    return workloads.digest(repr(fn(tally)).encode() for _, fn in w.op_list(cases))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_same_inputs_twice(name):
    w = workloads.WORKLOADS[name]
    assert input_digest(w, 5) == input_digest(w, 5)
    assert input_digest(w, 5) != input_digest(w, 6)


def test_seed_gives_same_results_twice():
    w = workloads.WORKLOADS["paircap"]
    first = result_digest(w.generate(5, 1), w)
    oracle.max_welfare.cache_clear()
    assert result_digest(w.generate(5, 1), w) == first


def load_conftest():
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        pytest.skip("tests/conftest.py not in this checkout")
    spec = importlib.util.spec_from_file_location("acceptance_conftest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_corpus_first_batch_is_the_acceptance_corpora():
    conftest = load_conftest()
    seed = workloads.WORKLOADS["corpus"].default_seed
    expected = [workloads.CorpusCase("gs", inst) for inst in conftest.gs_corpus(seed, 200)]
    rng = random.Random(seed + 6)
    for _ in range(500):
        inst = conftest.random_gs_instance(rng)
        p = conftest.random_prices(rng, inst)
        s = conftest.random_bundle(rng, inst.m)
        j = rng.randrange(inst.m)
        q = conftest.random_prices(rng, inst)
        bigger = s | conftest.random_bundle(rng, inst.m)
        expected.append(workloads.CorpusCase("lemma", inst, (p, s, j, q, bigger)))
    expected += [workloads.CorpusCase("ggs2", inst)
                 for inst in conftest.ggs2_corpus(seed + 7, 200)]
    rng = random.Random(seed + 8)
    for _ in range(500):
        kind = rng.choice(("gs", "ggs2", "mono"))
        if kind == "gs":
            inst = conftest.random_gs_instance(rng, max_m=4)
        elif kind == "ggs2":
            inst = conftest.random_ggs2_instance(rng, max_m=4)
        else:
            inst = conftest.random_monotone_instance(rng, max_m=4)
        expected.append(workloads.CorpusCase(
            "sound", inst, (conftest.random_prices(rng, inst, hi=3),)))
    got = workloads.corpus_generate(seed, 1)
    assert [c.key() for c in got] == [c.key() for c in expected]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracer.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == end[0] - start[0]


def test_summary_adds_up_to_the_root_span():
    rec = tracer.Recorder()
    with rec.span("bench.op"):
        with rec.span("demand.lyapunov"):
            with rec.span("model.make_table"):
                pass
        with rec.span("demand.lyapunov"):
            pass
    summary = tracer.summarize(rec)
    assert summary["demand.lyapunov"][0] == 2
    total = sum(secs for _, secs in summary.values())
    assert total == pytest.approx(rec.end[0] - rec.start[0], abs=1e-9)


def walras_bindings():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if name == "walras" or name.startswith("walras.")
            for attr, obj in vars(mod).items() if callable(obj)}


def test_wrappers_are_installed_everywhere_and_restored():
    before = walras_bindings()
    original_cap = auctions.iteration_cap
    rec = tracer.Recorder()
    tracing = tracer.Tracing(rec, ["popcount", "add_indicator"])
    try:
        # by-name imports are rebound along with the defining module
        assert ggs2.iteration_cap is not original_cap
        assert auctions.iteration_cap is ggs2.iteration_cap
        assert ggs2.make_unit_demand is model.make_unit_demand
        assert model.popcount is before[("walras.model", "popcount")]
        assert model.add_indicator is before[("walras.model", "add_indicator")]
        inst = model.make_instance(["a", "b"], [model.make_unit_demand([3, 1]),
                                                model.make_unit_demand([3, 1])])
        ggs2.ggs2_auction(inst)
    finally:
        tracing.restore()
    assert walras_bindings() == before
    summary = tracer.summarize(rec)
    assert summary["auctions.iteration_cap"][0] == 1
    assert summary["model.make_unit_demand"][0] == 2
    assert summary["ggs2.common_cap"][0] >= 1
    assert "model.popcount" not in summary


def test_verification_rejects_a_wrong_final_price(monkeypatch):
    market = workloads.ladder_market(random.Random(3), 5)
    true = auctions.gul_stacchetti(market.instance)
    verdict, _ = workloads.engine_op(market, "gs")(workloads.Tally())
    assert verdict == checks.OK
    j = max(range(5), key=lambda i: true.final_price[i])
    wrong = model.add_indicator(true.final_price, 1 << j, -1)
    for engine in ("gs", "fine"):
        fresh = dataclasses.replace(market, welfare=None, finals={})
        real = getattr(auctions, workloads.ENGINES[engine])
        monkeypatch.setattr(auctions, workloads.ENGINES[engine],
                            lambda inst, real=real: dataclasses.replace(
                                real(inst), final_price=wrong))
        verdict, _ = workloads.engine_op(fresh, engine)(workloads.Tally())
        assert verdict == checks.WRONG
        monkeypatch.undo()

    # an engine that disagrees with an earlier one fails even when its own
    # price passes the welfare check
    market.finals["gs"] = wrong
    verdict, _ = workloads.engine_op(market, "ausubel")(workloads.Tally())
    assert verdict == checks.WRONG


def test_paircap_check_rejects_a_wrong_price():
    market = workloads.paircap_market(random.Random(4), 6)
    trace, cert = ggs2.ggs2_auction(market.instance)
    p, alloc = trace.final_price, cert.allocation
    welfare = checks.paircap_equilibrium(market.singles, market.cap, p, alloc)
    assert welfare == cert.max_welfare
    j = max(range(6), key=lambda i: p[i])
    lower = model.add_indicator(p, 1 << j, -1)
    assert checks.paircap_equilibrium(market.singles, market.cap, lower, alloc) is None


def test_independent_checks_agree_with_the_oracle():
    rng = random.Random(7)
    for _ in range(20):
        market = workloads.ladder_market(rng, 5)
        inst = market.instance
        assert checks.slot_welfare(market.specs) == oracle.max_welfare(inst).welfare
        p = tuple(rng.randint(0, 40) for _ in range(5))
        assert checks.slot_lyapunov(market.specs, p) == demand.lyapunov(inst, p)
        pc = workloads.paircap_market(rng, 5)
        for v, singles in zip(pc.instance.players, pc.singles):
            assert checks.paircap_utility(singles, pc.cap, p) == \
                demand.demand_sets(v, p).utility


def test_tail_has_ten_ops_and_a_tenth_of_the_ops_above_it():
    lat = [float(x) for x in range(1, 61)]
    assert run.tail(lat) == (50.0, 100 * 50 / 60, 10)
    assert run.tail([float(x) for x in range(1, 4201)]) == (3780.0, 90.0, 420)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "paircap",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
