"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
library's own suite collects ``tests/`` only, so these stay out of it and
out of its runtime budgets.  Each workload runs one cycle: the smallest
size at which every operation kind still occurs.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

workloads, _ = run._load()
from ququart_qkd import attacks, session  # noqa: E402  (after run._load sets the path)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _tiny(workload, trace):
    return run.run_workload(workload, seed=7, seconds=0, trace=trace, setup_probes=1, min_ops=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    summary, lines = _tiny(workload, trace)
    assert summary["correct"], "\n".join(lines)
    assert summary["failed"] == 0 and summary["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], float) for v in summary["metrics"].values())
    if not trace:
        table = "\n".join(lines)
        for name in ("rounds_per_s", "key_bits_per_s", "failed_frac"):
            assert re.search(rf"^  {name} ", table, re.M), name
        assert all(v["value"] > 0 for v in summary["metrics"].values())


def test_corrupted_key_report_counts_as_failed(monkeypatch):
    real = session.format_report

    def corrupt(report):
        # change the first hex digit of the receiving party's key
        return re.sub(
            r'key\.(bob|charlie)_hex = "(.)',
            lambda m: f'key.{m[1]}_hex = "{"1" if m[2] == "0" else "0"}',
            real(report),
            count=1,
        )

    monkeypatch.setattr(session, "format_report", corrupt)
    summary, lines = _tiny("keygen", 0)
    established = 2 * len(workloads.Keygen.KEY_ROUNDS) // 3
    assert not summary["correct"]
    assert summary["failed"] == established
    assert re.search(rf"failed_frac .*\({established}/{summary['attempted']}\)", "\n".join(lines))


def test_wrong_oracle_counts_as_failed(monkeypatch):
    real = attacks.predict

    def biased(model, spec):
        prediction = real(model, spec)
        return attacks.AttackPrediction(prediction.violation, min(prediction.qber + 0.01, 1.0))

    monkeypatch.setattr(attacks, "predict", biased)
    summary, _ = _tiny("certify", 0)
    assert not summary["correct"] and summary["failed"] > 0


def test_sweep_refuses_a_pool_larger_than_the_usable_cores(monkeypatch):
    monkeypatch.setattr(run, "_pool_workers", lambda: len(os.sched_getaffinity(0)) + 1)
    with pytest.raises(SystemExit, match="refusing the sweep"):
        _tiny("sweep", 0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(64) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(
        os.path.join(run.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keygen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
