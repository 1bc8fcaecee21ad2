"""``tools/bench_pairs.py`` against stand-in harness runs.

A stand-in ``perfbench/run.py`` prints one JSON summary line and exits 0,
as the harness does whatever its checks found.  A run whose outputs
failed the checks must stop the pairs with an error naming the workload,
the seed and the side, and the summary must carry each side's median
``attempted`` operations.  With ``--ops N`` each side also calls its own
checkout's ``run_workload(W, S, 0, 0, min_ops=N)`` once per seed, and its
``peak_rss_mb`` is summarized as ``ops_peak_rss_mb``.  The change side
runs from a copy of the working tree's tracked and untracked, not ignored,
files, as the parent side runs from an export of its commit.
"""

import importlib.util
import json
import subprocess
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


def ops_stand_in(path, peak, correct=True, failed=0) -> str:
    """A checkout whose harness module's ``run_workload`` reports ``peak``
    and writes the arguments and directory it was called with."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "def run_workload(name, seed, seconds, trace, setup_probes=5, min_ops=None):\n"
        "    with open('called.json', 'w') as f:\n"
        "        json.dump([name, seed, seconds, trace, min_ops, os.getcwd()], f)\n"
        f"    return {{'correct': {correct}, 'failed': {failed}, 'attempted': min_ops + 3,\n"
        f"            'metrics': {{'peak_rss_mb': {{'value': {peak}, 'unit': 'MB'}}}}}}, []\n"
    )
    return str(path)


def test_a_fixed_count_run_calls_run_workload_in_its_own_checkout(tmp_path):
    for side, peak in (("parent", 40.0), ("change", 38.5)):
        checkout = ops_stand_in(tmp_path / side, peak)
        out = bench_pairs.run_ops(side, checkout, "eavesdrop", 22, 500)
        assert out == {"ops_peak_rss_mb": peak, "ops_attempted": 503}
        called = json.loads((tmp_path / side / "called.json").read_text())
        assert called == ["eavesdrop", 22, 0, 0, 500, checkout]


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 2)])
def test_a_fixed_count_run_whose_outputs_failed_the_checks_stops_the_pairs(tmp_path, correct, failed):
    checkout = ops_stand_in(tmp_path, 40.0, correct, failed)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_ops("parent", checkout, "sweep", 5, 10)
    message = str(stop.value)
    assert "sweep" in message and "seed 5" in message and "parent side" in message


def test_ops_runs_each_side_once_per_seed_and_summarizes_its_peak(tmp_path, monkeypatch, capsys):
    def run_once(side, checkout, workload, seed, seconds, metrics):
        assert "ops_peak_rss_mb" not in metrics
        out = {name: 1.0 for name in metrics}
        return dict(out, attempted=10, failed=0, correct=True), "env: stand-in"

    calls = []

    def run_ops(side, checkout, workload, seed, ops):
        calls.append((side, checkout, seed, ops))
        return {"ops_peak_rss_mb": 40.0 if side == "parent" else 38.0 + seed, "ops_attempted": ops}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: "abc1234")
    snapshots = []
    monkeypatch.setattr(bench_pairs, "snapshot", snapshots.append)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "run_ops", run_ops)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--workload", "eavesdrop", "--seeds", "1-3", "--out", str(out)]
    assert bench_pairs.main(argv + ["--ops", "64"]) == 0
    # an odd seed runs the parent first, an even one the change
    assert [(side, seed, ops) for side, _, seed, ops in calls] == [
        ("parent", 1, 64), ("change", 1, 64), ("change", 2, 64), ("parent", 2, 64),
        ("parent", 3, 64), ("change", 3, 64),
    ]
    # each side runs from its own copy, neither from this checkout
    assert {checkout for side, checkout, _, _ in calls if side == "change"} == set(snapshots)
    assert bench_pairs.ROOT not in {checkout for _, checkout, _, _ in calls}
    assert len({checkout for _, checkout, _, _ in calls}) == 2
    workload = json.loads(out.read_text())["workloads"]["eavesdrop"]
    assert workload["ops"] == 64
    assert workload["pairs"][0]["change"]["ops_attempted"] == 64
    summary = workload["summary"]["ops_peak_rss_mb"]
    assert (summary["parent_median"], summary["change_median"]) == (40.0, 40.0)
    assert summary["change_better_pairs"] == 1
    assert "eavesdrop ops_peak_rss_mb: parent 40, change 40 (1.000x), change better in 1 of 3" in capsys.readouterr().out

    # without --ops no fixed-count run is made
    calls.clear()
    assert bench_pairs.main(argv + ["--workload", "keygen"]) == 0
    assert calls == []
    record = json.loads(out.read_text())["workloads"]
    assert record["keygen"]["ops"] is None and "ops_peak_rss_mb" not in record["keygen"]["summary"]


def test_ops_must_be_positive(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--workload", "eavesdrop", "--seeds", "1", "--out", "x.json",
                          "--ops", "0"])
    assert "--ops must be at least 1" in capsys.readouterr().err


def git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                   check=True, capture_output=True)


def test_snapshot_copies_the_working_tree_but_not_ignored_files(tmp_path):
    root, into = tmp_path / "repo", tmp_path / "copy"
    (root / "src" / "pkg").mkdir(parents=True)
    into.mkdir()
    (root / ".gitignore").write_text("__pycache__/\n*.log\n")
    (root / "src" / "pkg" / "mod.py").write_text("committed\n")
    (root / "gone.py").write_text("deleted after the commit\n")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "base")
    (root / "src" / "pkg" / "mod.py").write_text("edited\n")
    (root / "gone.py").unlink()
    (root / "src" / "pkg" / "new.py").write_text("untracked\n")
    (root / "src" / "pkg" / "__pycache__").mkdir()
    (root / "src" / "pkg" / "__pycache__" / "mod.pyc").write_text("cache")
    (root / "run.log").write_text("ignored")

    assert bench_pairs.snapshot(str(into), str(root)) == 3
    files = sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/pkg/mod.py", "src/pkg/new.py"]
    # the files as they are on disk, not as committed
    assert (into / "src" / "pkg" / "mod.py").read_text() == "edited\n"
