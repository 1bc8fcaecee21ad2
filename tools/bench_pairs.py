#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and this checkout.

    python3 tools/bench_pairs.py --parent REV --workload eavesdrop \\
        --seeds 17101-17106 --out BENCH_17_eavesdrop.json

exports the committed files of ``REV`` into a temporary directory and, per
seed, runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in that copy and once in this checkout's working tree, each side from
its own sources.  The workload names and the run length ``T`` are
``BENCHMARK.json``'s ``workloads`` and ``run_seconds``.  An odd seed runs
the parent first, an even seed the change, so neither side always runs on
a warmer machine.  ``--workload`` may be given more than once.

The pairs are written to ``--out`` as ``{what, parent, command, machine,
env, workloads}``; per workload, ``pairs`` holds each seed's order and the
end-to-end metrics of ``BENCHMARK.json`` on both sides (plus the attempted
and failed operations and the harness's verdict), and ``summary`` holds per
metric the parent's median and quartiles, the change's median, their ratio
(change / parent) and the number of pairs in which the change was better.
An existing ``--out`` of the same parent and command keeps the workloads
not run again.  The per-metric medians are printed as each workload finishes.
``perfbench/`` is run, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLACK_S = 180  # set-up, warm-up and checks on top of a run's measured seconds


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


def run_once(checkout: str, workload: str, seed: int, seconds: float, metrics) -> tuple:
    """One harness run in ``checkout``: its metrics and its ``env:`` line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + SLACK_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} failed in {checkout}")
    summary = json.loads(lines[-1])
    env = next((line.strip() for line in lines if line.strip().startswith("env:")), "")
    out = {name: summary["metrics"][name]["value"] for name in metrics}
    out.update(attempted=summary["attempted"], failed=summary["failed"], correct=summary["correct"])
    return out, env


def summarize(pairs: list, metrics: dict) -> dict:
    summary = {}
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
    args = parser.parse_args(argv)
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
    # a terminated run unwinds like an interrupted one: the running harness
    # is killed and the parent's copy removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as parent_dir:
        parent = export(args.parent, parent_dir)
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
        checkouts = {"parent": parent_dir, "change": ROOT}
        for workload in args.workload:
            pairs = []
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(checkouts[side], workload, seed, seconds, metrics)
                    record["env"] = env or record.get("env", "")
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['ops_per_s']:.1f}" for side in order) + " ops/s", flush=True)
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics)}
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
            for name, s in record["workloads"][workload]["summary"].items():
                print(f"  {workload} {name}: parent {s['parent_median']:.6g}, change "
                      f"{s['change_median']:.6g} ({s['ratio']:.3f}x), change better in "
                      f"{s['change_better_pairs']} of {len(pairs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
