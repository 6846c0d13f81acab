"""Self-tests of the benchmark; they corrupt only the benchmark's own references.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import child
import gates
import gauge
import inputs
import run

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.take_blocks(workload, 7, 3) == inputs.take_blocks(workload, 7, 3)
    if workload != "audit-grid":  # six grids have few orders; the others never repeat
        assert inputs.take_blocks(workload, 7, 3) != inputs.take_blocks(workload, 8, 3)


def _selection_rules_hold(twices):
    tj1, tm1, tj2, tm2, tj, tm = twices
    return (
        tm == tm1 + tm2
        and abs(tj1 - tj2) <= tj <= tj1 + tj2
        and (tj1 + tj2 + tj) % 2 == 0
        and all(abs(m) <= j and (j + m) % 2 == 0 for j, m in ((tj1, tm1), (tj2, tm2), (tj, tm)))
    )


def test_generated_tuples_are_valid_and_cli_argvs_have_digests():
    expected = gates.load_expected()
    for seed in range(3):
        for block in inputs.take_blocks("kernel-sweep", seed, 4):
            assert all(_selection_rules_hold(t) for _, t in block)
            assert all(1 <= t[0] <= 800 for _, t in block)
        for block in inputs.take_blocks("radical", seed, 4):
            assert all(_selection_rules_hold(a) and _selection_rules_hold(b) for a, b, _ in block)
        for workload in ("audit-grid", "schemes-spectra"):
            for block in inputs.take_blocks(workload, seed, 2):
                assert all(" ".join(argv) in expected for argv in block)
    assert inputs.take_blocks("radical", 5, 1)[0][0][0] == inputs.RADICAL_FIXED


def test_kernel_repeat_share():
    ops = [op for block in inputs.take_blocks("kernel-sweep", 3, 20) for op in block]
    distinct = len(set(ops))
    share = 1 - distinct / len(ops)
    assert share >= inputs.REPEATS_PER_BLOCK / (inputs.STRATA + inputs.REPEATS_PER_BLOCK) - 0.01


def _kepler_runner():
    runner = child.CliRunner(None, per_record=False)
    argv = ["kepler", "--z", "2", "--jcut", "1", "--stats", "fermion"]
    return runner, argv


def test_digest_gate_flags_corrupted_digest():
    runner, argv = _kepler_runner()
    runner.run_block([argv])
    runner.check()
    assert runner.failed == 0
    key = " ".join(argv)
    runner.expected[key] = runner.expected[key][::-1]
    runner.run_block([argv])
    assert runner.failed == 1 and "digest" in runner.problems[0]


def test_kepler_gate_flags_corrupted_degeneracy(monkeypatch):
    runner, argv = _kepler_runner()
    runner.run_block([argv, argv + ["--format", "csv"]])
    runner.check()
    assert runner.failed == 0
    real = gates.expected_deg_enum
    monkeypatch.setattr(gates, "expected_deg_enum", lambda t, f: real(t, f) + 1)
    runner.check()
    assert runner.failed == 2


def test_schemes_gate_flags_corrupted_count(monkeypatch):
    argv = ["schemes", "--n", "7", "--count-only"]
    assert gates.check_schemes(argv, "10395") is None
    real = gates.double_factorial
    monkeypatch.setattr(gates, "double_factorial", lambda n: real(n) + 2)
    assert gates.check_schemes(argv, "10395") is not None
    assert gates.check_schemes(["schemes", "--n", "3"], "[[[1, 2], 3], [[1, 3], 2], [1, [2, 3]]]")


def test_kernel_gate_flags_corrupted_sympy_value(monkeypatch):
    runner = child.KernelRunner(None, seed=0)
    runner.run_block(inputs.take_blocks("kernel-sweep", 0, 1)[0][:20])
    assert runner.kept
    runner.check()
    assert runner.failed == 0
    real = gates.sympy_signed_square
    monkeypatch.setattr(gates, "sympy_signed_square", lambda kind, t: -real(kind, t))
    runner.check()
    assert runner.failed == len(runner.kept)


def test_radical_gates_flag_corrupted_references(monkeypatch):
    runner = child.RadicalRunner(None)
    runner.run_block(inputs.take_blocks("radical", 0, 1)[0])
    assert runner.missed[0] == 0  # the fixed tuple never finishes inside the deadline
    runner.check()
    assert runner.failed == 0
    records, _ = runner.sums[0]
    (sign, radicand), _, _, u_terms, _, _ = records[0]
    assert gates.check_to_sum(sign, radicand, u_terms) is None
    assert gates.check_to_sum(sign, radicand + 1, u_terms) is not None
    assert gates.check_to_sum(-sign, radicand, u_terms) is not None
    assert gates.check_to_sum(1, Fraction(12), [(12, Fraction(1), Fraction(0))]) is not None
    real = gates.product_terms
    monkeypatch.setattr(
        gates, "product_terms", lambda a, b: {k: (re + 1, im) for k, (re, im) in real(a, b).items()}
    )
    runner.check()
    assert runner.failed == len(records) + 1  # every product, and the phased sum


def test_schemes_blocks_keep_their_latency_classes():
    for block in inputs.take_blocks("schemes-spectra", 4, 4):
        assert len(block) == 40
        n8 = [argv for argv in block if argv[2] == "8"]
        assert len(n8) == 1 and n8[0][0] == "diagram"
        assert block.count(["schemes", "--n", "7"]) == 2
        pairs = sorted((int(a[2]), a[4]) for a in block if a[0] == "kepler")
        assert len(pairs) == len(set(pairs)) == len(inputs.KEPLER_PAIRS)


def test_min_blocks_leave_ten_ops_beyond_the_p99():
    for workload, blocks in run.MIN_BLOCKS.items():
        ops = sum(len(block) for block in inputs.take_blocks(workload, 1, blocks))
        if workload == "audit-grid":
            ops = 22698  # records, not argvs
        assert run.tail_percentile(ops) == 99


def test_gauge_scales_each_op_by_the_readings_around_it():
    host = gauge.HostGauge()
    host.readings.extend([0.002, 0.004, 0.004, 0.002])
    host.tag(2, [0, 1])
    host.tag(1)
    assert host.factors() == [2.0, 2.0, 2.0, 2.0]
    assert host.scale([0.01, 0.02, 0.03]) == [0.005, 0.01, 0.015]


def test_end_to_end_counts_a_failed_op_over_any_limit():
    result = {
        "workload": "kernel-sweep", "blocks": 13, "attempted": 1000, "failed": 11, "missed_ops": [],
        "busy_s": 200.0, "latencies_s": [0.1] * 989 + [math.inf] * 11,
        "scaled_s": [0.05] * 989 + [math.inf] * 11, "gauge_s": [0.004], "peak_rss_mb": 1.0,
    }
    metrics, _ = run.end_to_end(result, [0.1])
    assert metrics["op_ms_p50"][0] == 50.0
    assert metrics["op_ms_p99"][0] == 200000.0  # the eleventh-slowest op failed
    assert metrics["ops_per_s"][0] == 989 / math.fsum([0.05] * 989 + [200.0] * 11)


def test_end_to_end_counts_a_missed_deadline_over_any_limit_but_at_its_cost():
    result = {
        "workload": "radical", "blocks": 125, "attempted": 1000, "failed": 0,
        "missed_ops": list(range(11)), "busy_s": 20.0, "latencies_s": [0.002] * 1000,
        "scaled_s": [0.001] * 1000, "gauge_s": [0.004], "peak_rss_mb": 1.0,
    }
    metrics, _ = run.end_to_end(result, [0.1])
    assert metrics["op_ms_p50"][0] == 1.0
    assert metrics["op_ms_p99"][0] == 20000.0
    assert metrics["ops_per_s"][0] == 989 / math.fsum([0.001] * 1000)
    assert metrics["completed_share"][0] == 0.989


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(75000) == 99
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(270) == 95
    assert run.tail_percentile(150) == 90
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_traced_child_reports_spans():
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "kernel-sweep", "--seed", "1",
         "--blocks", "2", "--trace"],
        cwd=HERE.parent, env=run._env(), stdout=subprocess.PIPE, text=True, check=True,
        timeout=120,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    spans = result["spans"]
    assert spans["wigner.cg"]["calls"] == 160
    assert spans["wigner.three_j"]["calls"] > 0
    for row in spans.values():
        assert row["self_ms"] <= row["total_ms"] + 1e-9
    assert result["counts"]["wigner.cg.seen"] <= 160


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
