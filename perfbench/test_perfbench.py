"""Self-tests of the benchmark: its oracle, its failure accounting and
its tracer.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F

import oracle
import run
import tracing
import workloads
from mvkraw import cli, report

# Dunkl-Sommer sets with d = 1, written out by hand: P(m, mt) is the
# Krawtchouk value 2F1(-m, -mt; -N; 1 - u11).
DS_Q2 = {"d": 1, "nu": F(2), "p": [F(1, 2), F(1, 2)], "pt": [F(1, 2), F(1, 2)],
         "u": [[F(1), F(1)], [F(1), F(-1)]]}
DS_Q3 = {"d": 1, "nu": F(3), "p": [F(1, 3), F(2, 3)], "pt": [F(1, 3), F(2, 3)],
         "u": [[F(1), F(1)], [F(1), F(-1, 2)]]}


def test_oracle_matches_hand_computed_krawtchouk_values():
    # q = 2, N = 2: 2F1(-m, -mt; -2; 2)
    want_q2 = {(1, 1): 0, (2, 1): -1, (1, 2): -1, (2, 2): 1, (0, 2): 1, (2, 0): 1}
    for (m, mt), want in want_q2.items():
        assert oracle.gen_value(DS_Q2, 2, (m,), (mt,)) == want
    # q = 3, N = 2: 2F1(-m, -mt; -2; 3/2), e.g. 1 - 3/2 + 9/4 at m = mt = 2
    want_q3 = {(1, 1): F(1, 4), (2, 1): F(-1, 2), (1, 2): F(-1, 2), (2, 2): F(1, 4)}
    for (m, mt), want in want_q3.items():
        assert oracle.gen_value(DS_Q3, 2, (m,), (mt,)) == want


def test_oracle_identities_hold_on_hand_sets():
    for kappa in (DS_Q2, DS_Q3):
        assert oracle.kappa_problems(kappa) == []
        N = 3
        points = oracle.lattice(1, N)
        values = [[oracle.gen_value(kappa, N, n[1:], nt[1:]) for nt in points] for n in points]
        for a in range(len(points)):
            for b in range(len(points)):
                lhs, rhs = oracle.column_gram(kappa, N, points, values, a, b)
                assert lhs == rhs
    broken = dict(DS_Q3, u=[[F(1), F(1)], [F(1), F(-1, 3)]])
    assert oracle.kappa_problems(broken)


def _env(tmp_path):
    env = workloads.Env(cli, str(tmp_path), seed=7)
    env.write_sets({"ds1"})
    return env


def test_wrong_oracle_answer_fails_the_operation(tmp_path, monkeypatch):
    env = _env(tmp_path)
    runner = run.Runner(env, [env.table_op("ds1", 3)])
    runner.round()
    assert (runner.attempted, runner.failed) == (1, 0)
    assert len(runner.op_costs) == 1 and runner.op_costs[0] > 0

    true_value = oracle.gen_value
    monkeypatch.setattr(oracle, "gen_value", lambda *a: true_value(*a) + 1)
    runner.round()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_corrupted_table_that_passes_is_a_failure():
    passing = {"pass": True, "reports": [{"check": "orthogonality", "pass": True, "failures": []}]}
    assert oracle.located_problems(0, passing, ((3, 0), (2, 1)))
    unlocated = {"pass": False, "reports": [{"check": "orthogonality", "pass": False,
                                             "failures": [{"pair": [[1, 2], [0, 3]]}]}]}
    assert oracle.located_problems(1, unlocated, ((3, 0), (2, 1)))


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "mvkraw" or name.startswith("mvkraw.")
        for attr, value in vars(module).items()
    } | {("CheckReport", "to_json_dict"): report.CheckReport.to_json_dict}


def test_traced_run_counts_work_and_removes_its_wrappers(tmp_path):
    env = _env(tmp_path)
    N = 3
    ops = [
        env.table_op("ds1", N),
        env.check_op("ds1", N, ["--kappa", env.path("ds1.json"), "--N", str(N)], ["orthogonality"]),
    ]
    before = _bindings()
    out = run.run_traced(run.Runner(env, ops), 0, str(tmp_path / "trace.json"))
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())

    # d = 1: the kernels of P(m, mt) are the integers 0..min(m, mt)
    kernels = sum(min(m, mt) + 1 for m in range(N + 1) for mt in range(N + 1))
    assert out["hyperg.table.calls"] == 2
    assert out["hyperg.eval_hypergeometric.calls"] == 2 * (N + 1) ** 2
    assert out["numeric.kernels"] == 2 * kernels
    assert out["verify.suite.orthogonality.s"] > 0
    assert set(out) == {m["name"] for m in _per_layer()}


def test_traced_rounds_give_the_same_counts(tmp_path):
    env = _env(tmp_path)
    N = 3
    runner = run.Runner(env, [env.check_op("ds1", N, ["--kappa", env.path("ds1.json"), "--N", str(N)], ["orthogonality"])])
    tracer = tracing.Tracer()
    per_round = []
    for _ in range(2):
        tracer.install()
        try:
            runner.round(record=False)
        finally:
            tracer.remove()
        per_round.append(tracing.metrics(tracer.names, tracer.take(), runner.cli_bytes()))
    assert all(r["verify.suite.orthogonality.s"] > 0 for r in per_round)
    counts = [{k: v for k, v in r.items() if tracing.unit(k) != "s"} for r in per_round]
    assert counts[0] == counts[1]


def _benchmark():
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _per_layer():
    return _benchmark()["per_layer"]


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    env = _env(tmp_path)
    out = run.run_untraced(run.Runner(env, [env.table_op("ds1", 3)]), 0)
    assert set(out) | {"setup_s"} == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value in out.values())


def test_per_layer_units_match_the_benchmark_file():
    for metric in _per_layer():
        assert tracing.unit(metric["name"]) == metric["unit"]


def test_setup_draws_are_reproducible():
    assert workloads.draw_sets(random.Random(5)) == workloads.draw_sets(random.Random(5))
    assert workloads.draw_sets(random.Random(5)) != workloads.draw_sets(random.Random(6))
