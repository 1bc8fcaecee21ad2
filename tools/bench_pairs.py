#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and this checkout.

    python3 tools/bench_pairs.py --parent REV --workload eavesdrop \\
        --seeds 17101-17106 --out BENCH_17_eavesdrop.json

exports the committed files of ``REV`` into a temporary directory, copies
this checkout's working tree (its tracked files as they are on disk, and
its untracked files that git does not ignore) into another, and, per
seed, runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each copy, each side from its own sources.  Both sides run from a
fresh copy of plain files with no build outputs or caches, so they differ
only in code.  The workload names and the run length ``T`` are
``BENCHMARK.json``'s ``workloads`` and ``run_seconds``.  An odd seed runs
the parent first, an even seed the change, so neither side always runs on
a warmer machine.  ``--workload`` may be given more than once.

The pairs are written to ``--out`` as ``{what, parent, command, machine,
env, workloads}``; per workload, ``ops`` is its ``--ops`` (or null),
``pairs`` holds each seed's order and the end-to-end metrics of
``BENCHMARK.json`` on both sides (plus the attempted and failed operations
and the harness's verdict), and ``summary`` holds per metric the parent's
median and quartiles, the change's median, their ratio (change / parent)
and the number of pairs in which the change was better, plus each side's
median ``attempted`` operations.  A run whose outputs fail the harness's
checks (``correct`` false or ``failed`` above 0) stops the pairs with an
error naming the workload, seed and side.  An existing ``--out`` of the
same parent and command keeps the workloads not run again.  The
per-metric medians are printed as each workload finishes.  ``perfbench/``
is run, never changed.

With ``--ops N`` each side of a pair also runs the harness's
``run_workload(W, S, 0, 0, min_ops=N)`` once, in a fresh interpreter in its
own checkout: whole cycles until N operations are done, however long they
take.  Its ``peak_rss_mb`` is recorded as ``ops_peak_rss_mb`` (and its
operation count as ``ops_attempted``) and summarized like the end-to-end
metrics.  Both sides then keep the same number of outputs, so a difference
in that peak is the library's, not the harness's retained outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLACK_S = 180  # set-up, warm-up and checks on top of a run's measured seconds
OP_LIMIT_S = 0.1  # the longest an operation of a fixed-count run may take on average

# one fixed-count harness run: run_workload(W, S, 0, 0, min_ops=N), its summary as the last line
OPS_SCRIPT = (
    "import json, sys; sys.path.insert(0, 'perfbench'); import run; "
    "summary, _ = run.run_workload(sys.argv[1], int(sys.argv[2]), 0, 0, min_ops=int(sys.argv[3])); "
    "print(json.dumps(summary))"
)


def benchmark() -> tuple:
    """BENCHMARK.json's workload names, run length in seconds, and end-to-end
    metrics as name -> "higher" or "lower"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return [w["name"] for w in spec["workloads"]], spec["run_seconds"], metrics


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def export(rev: str, into: str) -> str:
    """The committed files of ``rev`` under ``into``; returns its short hash."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", short], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {short} failed")
    return short


def snapshot(into: str, root: str = ROOT) -> int:
    """Copy the working tree of the checkout at ``root`` under ``into``:
    its tracked files as they are on disk (a tracked file deleted there is
    left out) and its untracked files that git does not ignore.  Returns
    the number of files copied."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    copied = 0
    for name in sorted(set(filter(None, listed))):
        source = os.path.join(root, name)
        if not os.path.isfile(source):
            continue
        target = os.path.join(into, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
        copied += 1
    return copied


def harness(side: str, checkout: str, workload: str, seed: int, command: list, timeout: float) -> tuple:
    """The summary and output lines of one harness run of ``side`` in
    ``checkout``.  A run whose outputs failed the harness's checks stops
    the pairs, though the harness itself exits 0."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} failed on the {side} side ({checkout})")
    summary = json.loads(lines[-1])
    if not summary["correct"] or summary["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"error: {workload} seed {seed} on the {side} side: correct "
                         f"{summary['correct']}, {summary['failed']} failed operations")
    return summary, lines


def run_once(side: str, checkout: str, workload: str, seed: int, seconds: float, metrics) -> tuple:
    """One timed harness run of ``side`` in ``checkout``: its metrics and
    its ``env:`` line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    summary, lines = harness(side, checkout, workload, seed, command, seconds + SLACK_S)
    env = next((line.strip() for line in lines if line.strip().startswith("env:")), "")
    out = {name: summary["metrics"][name]["value"] for name in metrics}
    out.update(attempted=summary["attempted"], failed=summary["failed"], correct=summary["correct"])
    return out, env


def run_ops(side: str, checkout: str, workload: str, seed: int, ops: int) -> dict:
    """One fixed-count harness run of ``side`` in ``checkout`` (``OPS_SCRIPT``):
    its ``peak_rss_mb`` and its operation count."""
    command = [sys.executable, "-c", OPS_SCRIPT, workload, str(seed), str(ops)]
    summary, _ = harness(side, checkout, workload, seed, command, SLACK_S + OP_LIMIT_S * ops)
    return {"ops_peak_rss_mb": summary["metrics"]["peak_rss_mb"]["value"],
            "ops_attempted": summary["attempted"]}


def summarize(pairs: list, metrics: dict) -> dict:
    # how many operations each side ran, against which peak_rss_mb reads:
    # the harness keeps every output until the run ends
    summary = {"attempted": {
        f"{side}_median": statistics.median(p[side]["attempted"] for p in pairs)
        for side in ("parent", "change")
    }}
    for name, better in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(parent, change))
        quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
        summary[name] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": [quartiles[0], quartiles[2]],
            "change_median": statistics.median(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "change_better_pairs": wins,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    workloads, seconds, metrics = benchmark()
    parser.add_argument("--workload", required=True, action="append", choices=workloads)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    parser.add_argument("--out", required=True, help="the BENCH_<n>_<name>.json to write")
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--ops", type=int, default=None,
                        help="also run each side once for this many operations and record its peak_rss_mb")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    # the metrics summarized: the end-to-end ones, and the fixed-count peak
    summarized = dict(metrics, ops_peak_rss_mb="lower") if args.ops else metrics
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
    # a terminated run unwinds like an interrupted one: the running harness
    # is killed and both copies removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with (
        tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_dir,
        tempfile.TemporaryDirectory(prefix="bench_pairs_change_") as change_dir,
    ):
        parent = export(args.parent, parent_dir)
        snapshot(change_dir)
        record = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                record = json.load(f)
            if record.get("parent") != parent:
                raise SystemExit(f"error: {args.out} compares against {record.get('parent')}")
            if record.get("command") != command:
                raise SystemExit(f"error: {args.out} was run as {record.get('command')!r}")
        record.update(
            what=args.what or record.get("what", ""),
            parent=parent,
            command=command,
            machine=f"{os.cpu_count()}-core machine; times scaled to the base clock by the harness",
        )
        record.setdefault("workloads", {})
        checkouts = {"parent": parent_dir, "change": change_dir}
        for workload in args.workload:
            pairs = []
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(side, checkouts[side], workload, seed, seconds, metrics)
                    record["env"] = env or record.get("env", "")
                for side in order if args.ops else ():
                    pair[side].update(run_ops(side, checkouts[side], workload, seed, args.ops))
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['ops_per_s']:.1f}" for side in order) + " ops/s", flush=True)
            record["workloads"][workload] = {
                "ops": args.ops, "pairs": pairs, "summary": summarize(pairs, summarized)
            }
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
            summary = record["workloads"][workload]["summary"]
            print(f"  {workload} attempted: parent {summary['attempted']['parent_median']:g}, "
                  f"change {summary['attempted']['change_median']:g}", flush=True)
            for name in summarized:
                s = summary[name]
                print(f"  {workload} {name}: parent {s['parent_median']:.6g}, change "
                      f"{s['change_median']:.6g} ({s['ratio']:.3f}x), change better in "
                      f"{s['change_better_pairs']} of {len(pairs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
