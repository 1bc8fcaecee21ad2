#!/usr/bin/env python3
"""Benchmark of the ququart-qkd library and its CLI.

    python3 perfbench/run.py --workload keygen --seed 1 --seconds 25 --trace 0

runs one workload (keygen, eavesdrop, certify or sweep; ``all`` runs each
in turn) as a closed loop with one client, checks every output, prints a
table of metrics with their units, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` runs the
same operations untraced and then traced and reports per-layer metrics.
Run it from the root of a source checkout: it imports the library from
``src/`` and writes its temporary files and span traces to ``.perfbench_out/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

# One BLAS thread in this process and in every process it starts: set
# before numpy is first imported, and inherited by the CLI's forked workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import clock  # noqa: E402  (imports numpy, which must see the settings above)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 5
DETERMINISM_OPS = 3
CLOCK_WINDOW = 5  # speed probes around an operation whose median scales its time
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def _load():
    """Import the library from this checkout and the benchmark modules."""
    if not os.path.isfile(os.path.join(SRC, "ququart_qkd", "__init__.py")):
        raise SystemExit(f"error: no ququart_qkd sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tracing
    import workloads

    return workloads, tracing


def tail_percentile(min_ops: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of ``min_ops``
    samples beyond it.  A run always completes ``min_ops`` operations, so
    the percentile of a workload does not move with the machine's speed."""
    fitting = [q for q in TAIL_LADDER if round(min_ops * (100.0 - q) / 100.0, 6) >= TAIL_BEYOND]
    return fitting[-1]


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')}-{blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pool_workers": _pool_workers(),
    }


def _pool_workers() -> int:
    # what ProcessPoolExecutor() sizes its pool by on this Python
    return getattr(os, "process_cpu_count", os.cpu_count)()


@dataclass
class Result:
    cycle: int
    slot: int  # position of the operation in the cycle's fixed mix
    op: object
    latency: float  # seconds, as measured
    text: str | None
    error: str | None = None
    problems: list = field(default_factory=list)
    stats: object = None
    clock: float = 0.0  # speed-probe seconds right after the operation
    scaled: float = 0.0  # latency at the base clock


def schedule(workload, seconds: float, min_ops: int):
    """(cycle, slot, op) over whole cycles, until ``seconds`` have passed
    and ``min_ops`` operations are done."""
    start = time.perf_counter()
    cycle = done = 0
    while not cycle or time.perf_counter() - start < seconds or done < min_ops:
        for slot, op in workload.cycle(cycle):
            yield cycle, slot, op
            done += 1
        cycle += 1


def execute(workload, lib, cycle, slot, op) -> Result:
    error = text = None
    t0 = time.perf_counter()
    try:
        text = workload.execute(op, lib)
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return Result(cycle, slot, op, time.perf_counter() - t0, text, error)


def measure(workload, lib, seconds: float, min_ops: int) -> list:
    """The timed closed loop; a speed probe follows every operation."""
    results = []
    for item in schedule(workload, seconds, min_ops):
        results.append(execute(workload, lib, *item))
        results[-1].clock = clock.probe()
    for i, r in enumerate(results):
        window = [w.clock for w in results[max(0, i - CLOCK_WINDOW // 2) : i + CLOCK_WINDOW // 2 + 1]]
        r.scaled = r.latency * clock.REFERENCE_S / statistics.median(window)
    return results


def check(workload, results, stats_type) -> list:
    """Check every output; returns the run-level problems."""
    for r in results:
        r.stats = stats_type()
        if r.error is not None:
            r.problems.append(r.error)
            continue
        try:
            r.problems.extend(workload.check(r.op, r.text, r.stats))
        except Exception as exc:  # malformed output
            r.problems.append(f"check raised {type(exc).__name__}: {exc}")
    good = [(r.op, r.text) for r in results if not r.problems]
    try:
        return workload.check_run(good)
    except Exception as exc:
        return [f"run check raised {type(exc).__name__}: {exc}"]


def check_determinism(workload, lib, results):
    """Re-run the first operations with the same config; bytes must match."""
    for r in results[:DETERMINISM_OPS]:
        if r.text is None:
            continue
        try:
            again = workload.execute(r.op, lib)
        except Exception as exc:
            again = f"{type(exc).__name__}: {exc}"
        if again != r.text:
            r.problems.append("re-run with the same config gave other bytes")


def setup_seconds(name: str, seed: int, probes: int) -> tuple[list, list]:
    """Set-up time of fresh interpreters (import, build, warm up), as
    measured and at the base clock."""
    raw, scaled = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, speed = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * clock.REFERENCE_S / speed)
    return raw, scaled


def _by_cycle(results) -> list:
    cycles = {}
    for r in results:
        cycles.setdefault(r.cycle, []).append(r)
    return list(cycles.values())


def _rate(results, amount, seconds) -> float:
    """Median over cycles of amount per second of operation time."""
    return statistics.median(
        sum(amount(r) for r in c) / sum(seconds(r) for r in c) for c in _by_cycle(results)
    )


def end_to_end(workload, results, setups) -> tuple[dict, dict]:
    """Metrics at the base clock, and notes that give them as measured."""
    import numpy as np

    q = tail_percentile(workload.min_ops)
    failed = sum(1 for r in results if r.problems)
    metrics, measured = {}, {}
    for out, seconds, setup in ((metrics, lambda r: r.scaled, setups[1]),
                                (measured, lambda r: r.latency, setups[0])):
        latencies = [seconds(r) for r in results]
        out.update({
            "ops_per_s": (_rate(results, lambda r: 1, seconds), "ops/s"),
            "op_s_p50": (float(np.percentile(latencies, 50)), "s"),
            "op_s_tail": (float(np.percentile(latencies, q)), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "rounds_per_s": (_rate(results, lambda r: r.stats.rounds, seconds), "rounds/s"),
            "key_bits_per_s": (_rate(results, lambda r: r.stats.key_bits, seconds), "bits/s"),
        })
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["failed_frac"] = (failed / len(results), "ratio")
    notes = {k: f"{v:.6g} as measured" for k, (v, _) in measured.items()}
    notes["op_s_tail"] += f"; p{q:g} of {len(results)} ops"
    notes["setup_s"] += f"; median of {len(setups[0])} fresh interpreters"
    notes["ops_per_s"] += f"; median of {len(_by_cycle(results))} cycles"
    notes["failed_frac"] = f"{failed}/{len(results)}"
    return metrics, notes


# (metric, unit, span name, field): span-derived per-layer metrics, per operation
SPAN_METRICS = (
    ("linalg.measure_projective.calls", "calls/op", "linalg.measure_projective", "calls"),
    ("linalg.measure_projective.s", "s/op", "linalg.measure_projective", "s"),
    ("attacks.hook.calls", "calls/op", "attacks.hook", "calls"),
    ("attacks.hook.s", "s/op", "attacks.hook", "s"),
    ("attacks.make_attack_hook.s", "s/op", "attacks.make_attack_hook", "s"),
    ("attacks.predict.calls", "calls/op", "attacks.predict", "calls"),
    ("attacks.predict.s", "s/op", "attacks.predict", "s"),
    ("attacks.attack_channel.s", "s/op", "attacks.attack_channel", "s"),
    ("channels.stabilized_subspace.calls", "calls/op", "channels.stabilized_subspace", "calls"),
    ("channels.stabilized_subspace.s", "s/op", "channels.stabilized_subspace", "s"),
    ("channels.check_residuals.s", "s/op", "channels.check_residuals", "s"),
    ("channels.make_channel.s", "s/op", "channels.make_channel", "s"),
    ("protocol.run_verification_phase.s", "s/op", "protocol.run_verification_phase", "s"),
    ("protocol.run_verification_phase.self_s", "s/op", "protocol.run_verification_phase", "self_s"),
    ("protocol.run_key_phase_two_party.s", "s/op", "protocol.run_key_phase_two_party", "s"),
    ("protocol.run_key_phase_two_party.self_s", "s/op", "protocol.run_key_phase_two_party", "self_s"),
    ("protocol.run_key_phase_controlled.s", "s/op", "protocol.run_key_phase_controlled", "s"),
    ("protocol.run_key_phase_controlled.self_s", "s/op", "protocol.run_key_phase_controlled", "self_s"),
    ("observables.outcome_from_index.calls", "calls/op", "observables.outcome_from_index", "calls"),
    ("observables.outcome_from_index.s", "s/op", "observables.outcome_from_index", "s"),
    ("observables.key_basis.calls", "calls/op", "observables.key_basis", "calls"),
    ("observables.key_basis.s", "s/op", "observables.key_basis", "s"),
    ("session.run_session.calls", "calls/op", "session.run_session", "calls"),
    ("session.run_session.self_s", "s/op", "session.run_session", "self_s"),
    ("session.format_report.s", "s/op", "session.format_report", "s"),
    ("session.bits_to_hex.s", "s/op", "session.bits_to_hex", "s"),
    ("cli.main.calls", "calls/op", "cli.main", "calls"),
    ("cli.main.s", "s/op", "cli.main", "s"),
)


def per_layer(tracer, traced, untraced, untraced_session_s) -> dict:
    spans = tracer.summary()
    ops = len(traced)
    metrics = {
        metric: (spans.get(name, {}).get(kind, 0) / ops, unit)
        for metric, unit, name, kind in SPAN_METRICS
    }
    total = lambda attr: sum(getattr(r.stats, attr) for r in traced)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    measure_calls = spans.get("linalg.measure_projective", {}).get("calls", 0)
    reports = spans.get("session.format_report", {}).get("calls", 0)
    cli_calls = spans.get("cli.main", {}).get("calls", 0)
    session_accounted = tracer.subtree_self_time("session.run_session")
    traced_s = sum(r.latency for r in traced)
    untraced_s = sum(r.latency for r in untraced)
    metrics.update({
        "linalg.measure_projective.per_round": (ratio(measure_calls, total("rounds")), "calls/round"),
        "protocol.verify.matched_ratio": (ratio(total("matched"), total("verify_rounds")), "ratio"),
        "protocol.key.kept_ratio": (ratio(total("kept"), total("key_rounds")), "ratio"),
        "protocol.transcript_messages": (ratio(total("messages"), total("sessions")), "msg/session"),
        "session.format_report.bytes": (
            ratio(tracer.amounts.get("session.format_report", 0), reports), "B/report"),
        "session.bits_to_hex.bits": (tracer.amounts.get("session.bits_to_hex", 0) / ops, "bit/op"),
        "cli.sessions_per_call": (ratio(total("sessions"), cli_calls), "sessions/call"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        # self times of run_session and every span under it, against the
        # untraced run_session wall time
        "trace.session_overhead_frac": (
            ratio(session_accounted, untraced_session_s) - 1.0 if untraced_session_s else 0.0,
            "ratio"),
    })
    return metrics


def run_workload(name, seed, seconds, trace, setup_probes=SETUP_PROBES, min_ops=None):
    """Run one workload; returns (summary dict for the JSON line, table lines)."""
    workloads, tracing = _load()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    if name == "sweep" and env["pool_workers"] > env["nproc"]:
        raise SystemExit(
            f"error: refusing the sweep: the CLI's pool would start {env['pool_workers']} "
            f"workers on {env['nproc']} usable cores"
        )
    workload = workloads.make(name, seed, OUT_DIR)
    min_ops = workload.min_ops if min_ops is None else min_ops
    lib = workloads.library()
    workload.warm_up(lib)
    lines = ["env: " + " ".join(f"{k}={v}" for k, v in env.items())]

    if not trace:
        setups = setup_seconds(name, seed, setup_probes)
        results = measure(workload, lib, seconds, min_ops)
        run_problems = check(workload, results, workloads.OpStats)
        check_determinism(workload, lib, results)
        metrics, notes = end_to_end(workload, results, setups)
        reported = ("ops_per_s", "op_s_p50", "op_s_tail", "setup_s", "peak_rss_mb")
        attempted = results
    else:
        session_s = [0.0]

        def time_sessions(label, fn):
            if label != "session.run_session":
                return fn

            def timed(*args):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    session_s[0] += time.perf_counter() - t0

            return timed

        plain = workloads.library(time_sessions)
        tracer = tracing.Tracer()
        traced_lib = workloads.library(tracer.wrap)
        untraced, traced = [], []
        # every operation runs untraced and then traced, back to back, so the
        # two see the same machine speed
        for item in schedule(workload, seconds, 0):
            untraced.append(execute(workload, plain, *item))
            tracer.op = len(traced)
            with tracer.patched():
                traced.append(execute(workload, traced_lib, *item))
        run_problems = check(workload, untraced, workloads.OpStats)
        run_problems += check(workload, traced, workloads.OpStats)
        for a, b in zip(untraced, traced):
            if a.text != b.text:
                b.problems.append("traced output differs from the untraced output")
        metrics = per_layer(tracer, traced, untraced, session_s[0])
        notes = {"trace.overhead_frac": f"{len(traced)} ops traced"}
        reported = tuple(metrics)
        attempted = untraced + traced
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}.tsv.gz"))

    failed = [r for r in attempted if r.problems]
    lines.append(
        f"workload {name} seed {seed}: {len(attempted)} ops in "
        f"{len(_by_cycle(attempted))} cycles, {len(failed)} failed"
    )
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"  {key:<{width}}  {value:.6g} {unit}{note}")
    for r in failed[:5]:
        lines.append(f"  FAILED op {r.op}: {'; '.join(r.problems)}")
    lines.extend(f"  FAILED run check: {p}" for p in run_problems)
    summary = {
        "correct": not failed and not run_problems,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }
    return summary, lines


def _setup_probe(name: str, seed: int) -> str:
    """Set-up seconds of this interpreter, and the speed probe after it."""
    workloads, _ = _load()
    workload = workloads.make(name, seed, OUT_DIR)
    workload.warm_up(workloads.library())
    elapsed = time.perf_counter() - _START
    return f"{elapsed!r} {statistics.median(clock.probe() for _ in range(CLOCK_WINDOW))!r}"


def _run_all(args) -> int:
    """Every workload in its own interpreter; prints each one's table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in _load()[0].WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(out[:-1]), flush=True)
        summary = json.loads(out[-1])
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for key, value in summary["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["keygen", "eavesdrop", "certify", "sweep", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return _run_all(args)
    summary, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
