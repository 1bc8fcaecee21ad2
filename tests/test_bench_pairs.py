"""``tools/bench_pairs.py`` against stand-in harness runs.

A stand-in ``perfbench/run.py`` prints one JSON summary line and exits 0,
as the harness does whatever its checks found.  A run whose outputs
failed the checks must stop the pairs with an error naming the workload,
the seed and the side, and the summary must carry each side's median
``attempted`` operations.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"ops_per_s": "higher", "peak_rss_mb": "lower"}


def stand_in(tmp_path, correct=True, failed=0, attempted=100) -> str:
    """A checkout whose harness prints the given verdict."""
    summary = {
        "metrics": {"ops_per_s": {"value": 10.0}, "peak_rss_mb": {"value": 50.0}},
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print('env: stand-in')\nprint({json.dumps(json.dumps(summary))})\n"
    )
    return str(tmp_path)


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 3), (False, 2)])
def test_a_run_whose_outputs_failed_the_checks_stops_the_pairs(tmp_path, correct, failed):
    checkout = stand_in(tmp_path, correct, failed)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_once("change", checkout, "eavesdrop", 17, 1, METRICS)
    message = str(stop.value)
    assert "eavesdrop" in message and "seed 17" in message and "change side" in message


def test_a_correct_run_gives_its_metrics_and_env_line(tmp_path):
    out, env = bench_pairs.run_once("parent", stand_in(tmp_path), "keygen", 3, 1, METRICS)
    assert out == {"ops_per_s": 10.0, "peak_rss_mb": 50.0, "attempted": 100, "failed": 0, "correct": True}
    assert env == "env: stand-in"


def test_summary_holds_each_sides_median_attempted_operations():
    def side(ops, rss, attempted):
        return {"ops_per_s": ops, "peak_rss_mb": rss, "attempted": attempted}

    pairs = [
        {"parent": side(10, 50, 100), "change": side(12, 51, 120)},
        {"parent": side(11, 49, 110), "change": side(13, 52, 130)},
        {"parent": side(9, 51, 90), "change": side(8, 50, 140)},
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["attempted"] == {"parent_median": 100, "change_median": 130}
    assert summary["ops_per_s"]["change_better_pairs"] == 2
    assert summary["peak_rss_mb"]["change_better_pairs"] == 1
