"""Smoke test of the benchmark at tiny sizes (K=2, two golden widths).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import goldcut  # noqa: E402
from checks import CircuitOracle, check_op, implied_counts  # noqa: E402
from goldcut.metrics import closed_form_counts  # noqa: E402
from workloads import BUILDERS, Op, multicut_circuit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(BUILDERS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name in result["metrics"]:
        assert any(line.startswith("metric %s " % name) for line in lines)
    if trace == "0":
        assert any(line.startswith("metric error_rate ") for line in lines)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(BUILDERS)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_multicut_family_is_seeded(k):
    a, b = multicut_circuit(k, 5), multicut_circuit(k, 5)
    assert a == b and a != multicut_circuit(k, 6)
    f1, f2 = goldcut.bipartition(a)
    assert (f1.circuit.n_qubits, f2.circuit.n_qubits, a.n_cuts) == (6, k + 6, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_implied_counts_match_closed_form(k):
    for kg in range(k + 1):
        neglected = frozenset((cid, goldcut.PauliOp.Y) for cid in range(1, kg + 1))
        pruned, _ = closed_form_counts(k - kg, kg)
        assert implied_counts(range(1, k + 1), neglected, "exact") == (
            pruned.variants_executed, pruned.basis_tuples)


def test_checks_reject_wrong_outputs():
    circuit = multicut_circuit(2, 1)
    oracle = CircuitOracle(circuit, with_tensors=True)
    exact_op, shot_op = Op(0, "exact"), Op(0, "off", 10_000)
    run = goldcut.reconstruct(circuit, prune="exact")
    assert check_op(exact_op, circuit, oracle, run) == []
    run.distribution = run.distribution + 1e-9
    assert check_op(exact_op, circuit, oracle, run)

    run = goldcut.reconstruct(circuit, shots=10_000, seed=1)
    assert check_op(shot_op, circuit, oracle, run) == []
    run.cost.variants_executed -= 1
    assert any("variants_executed" in f for f in check_op(shot_op, circuit, oracle, run))
    run.cost.variants_executed += 1
    # Reversed bit order (a qubit-permutation bug) lands well outside the tolerance.
    run.raw_distribution = run.raw_distribution[::-1]
    assert any("L2 error" in f for f in check_op(shot_op, circuit, oracle, run))


def test_shot_noise_prediction_covers_observed_error():
    circuit = multicut_circuit(2, 2)
    oracle = CircuitOracle(circuit, with_tensors=True)
    errors = [np.linalg.norm(goldcut.reconstruct(circuit, shots=10_000, seed=s).raw_distribution
                             - oracle.distribution) for s in range(4)]
    rms = oracle.shot_rms(frozenset(), 10_000)
    assert 0.5 * rms < np.sqrt(np.mean(np.square(errors))) < 1.5 * rms


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "golden_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_missing_wrap_target_is_skipped(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("goldcut.pipeline", "no_such_function", "pipeline.gone", None),))
    t = tracer.Tracer()
    t.install()
    try:
        assert "pipeline.gone" not in t.wrapped and "simulator.simulate" in t.wrapped
        run, wall = t.op("op", goldcut.reconstruct, goldcut.golden_ansatz(3, 1, 0))
    finally:
        t.uninstall()
    assert run.cost.variants_executed == 9
    assert abs(sum(t.self_times({"op"}).values()) - wall) < 1e-9
