"""Tests of the benchmark itself, on the tiny ``generate --group h2 --n 2``.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random

import run

TINY = ("generate", "--group", "h2", "--n", "2")


def _declared(section: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _one_pass(oracle: dict) -> run.Tally:
    tally = run.Tally()
    run.run_pass([TINY], random.Random(0), tally, oracle)
    return tally


def test_tiny_workload_passes_with_declared_metrics():
    result, detail = run.run_workload([TINY], seed=0, seconds=0, trace=False,
                                      oracle=run.load_oracle())
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] == run.SETUP_RUNS + run.MIN_PASSES
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_workload_reports_declared_layers():
    result, detail = run.run_workload([TINY], seed=0, seconds=0, trace=True,
                                      oracle=run.load_oracle())
    assert result["correct"], detail["failures"]
    assert _units(result) == _declared("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["fragment.generate.calls"] == 1
    assert metrics["fragment.generate.points"] == 61
    assert metrics["rootsystem.cartesian.calls"] == 61
    assert metrics["golden.GoldenInt.mul.calls"] > 0
    assert detail["passes"][0]["golden_counts_repeat"]


def test_planted_wrong_digest_is_one_failed_op():
    oracle = run.load_oracle()
    oracle[" ".join(TINY)] = dict(oracle[" ".join(TINY)], sha256="0" * 64)
    tally = _one_pass(oracle)
    assert tally.attempted == 1
    assert [f["reason"] for f in tally.failures] == ["output digest differs from the oracle"]


def test_planted_wrong_exit_code_is_one_failed_op():
    oracle = run.load_oracle()
    oracle[" ".join(TINY)] = dict(oracle[" ".join(TINY)], exit=2)
    tally = _one_pass(oracle)
    assert tally.attempted == 1
    assert [f["reason"] for f in tally.failures] == ["exit code 0, expected 2"]


def test_verify_digest_ignores_elapsed_only():
    report = {"passed": False, "checks": [
        {"name": c, "passed": c != "cartan-tables", "elapsed": 0.1,
         "details": {"points_checked": 835, "elapsed": 0.2}}
        for c in run.CHECK_NAMES]}
    slower = json.loads(json.dumps(report))
    for check in slower["checks"]:
        check["elapsed"] = check["details"]["elapsed"] = 9.9
    first = run.digest_and_points(("verify",), json.dumps(report).encode())
    second = run.digest_and_points(("verify",), json.dumps(slower).encode())
    assert first == second
    assert first[1:] == (835, ["cartan-tables"])
    slower["checks"][0]["details"]["points_checked"] = 836
    assert run.digest_and_points(("verify",), json.dumps(slower).encode())[0] != first[0]
