"""Print one ``sha256  config`` line per session report of a fixed grid.

The grid covers both protocols; every attack kind on every valid target
set, depolarize at strengths 0.3 and 1; attack-free runs with and
without permission and the corrupt channel; 0, 60 and 61 verification
rounds (qber threshold 0.6, so attacked keys are emitted); 0, 1, 101, 200
and 300 key rounds at sample fractions 0.1 and 0.5; seeds 11-13.  The 0-
and 1-key-round edge rows run attack-free after 60 verification rounds
and under every attack after none, so attacked key phases meet their
empty and single-round cases.  One row per attack runs 1000
verification rounds, so its branch tree grows to hundreds of nodes and
its tables and amplitude array grow several times.  An odd verification
round count leaves
each party's generator holding a buffered half-word, which only the
three-party blind guess reads.  Two checkouts that print the same lines
produce byte-identical reports, config for config:

    diff <(python3 tools/report_grid.py --src old/src) \\
         <(python3 tools/report_grid.py --src src)

``--oracle`` prints the same kind of lines for the exact oracle instead:
``predict`` on both channels, clean and corrupted (``corrupt_channel``'s
default), for no attack, every measuring attack on every valid target set
and depolarize at strengths i/101; and ``check_residuals`` on both clean
channels and on every single-amplitude corruption.  Each digest covers the
``repr`` of every value, so equal lines mean bit-identical results.

``--cli`` digests ``cli.main(["run", ..., "--repeat", K, "--report",
PATH])`` for K = 1 to 5 over five configs: two-party, three-party,
three-party without permission, three-party depolarized at strength 0.3 on
charlie (aborts) and the two-party corrupt channel, each at 60
verification and 120 key rounds from seed 11.  A digest covers the exit
code, the summary lines on stdout and the merged report file, so equal
lines mean the command's whole output is unchanged, however it splits
the seeds between processes.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

TARGET_SETS = {2: [(1,)], 3: [(1,), (2,), (1, 2)]}
KINDS = [
    ("intercept-computational", 0.0),
    ("intercept-key", 0.0),
    ("entangle-probe", 0.0),
    ("depolarize", 0.3),
    ("depolarize", 1.0),
]
SEEDS = (11, 12, 13)
# (verification rounds, key rounds, sample fraction)
PHASES = ((60, 300, 0.1), (0, 200, 0.5), (61, 101, 0.5))
EDGE_PHASES = [(k, f) for k in (0, 1) for f in (0.1, 0.5)]
LARGE_PHASE = (1000, 300, 0.1)


def grid():
    """(protocol, attack kind, targets, strength, permits, corrupt,
    verification rounds, key rounds, sample fraction, seed) tuples."""
    for parties, protocol in ((2, "two-party"), (3, "three-party")):
        variants = [("none", (), 0.0, True, False), ("none", (), 0.0, True, True)]
        if parties == 3:
            variants.append(("none", (), 0.0, False, False))
        attacked = [
            (kind, targets, strength, True, False)
            for targets in TARGET_SETS[parties]
            for kind, strength in KINDS
        ]
        for variant in variants + attacked:
            for phases in PHASES:
                for seed in SEEDS:
                    yield (protocol, *variant, *phases, seed)
        for phases in EDGE_PHASES:
            yield (protocol, "none", (), 0.0, True, False, 60, *phases, SEEDS[0])
        for variant in attacked:
            for phases in EDGE_PHASES:
                yield (protocol, *variant, 0, *phases, SEEDS[0])
        for variant in attacked:
            yield (protocol, *variant, *LARGE_PHASE, SEEDS[0])


def oracle_grid():
    """(label, result text) pairs."""
    from ququart_qkd.attacks import AttackModel, predict
    from ququart_qkd.channels import check_residuals, corrupt_channel, make_channel

    def predicted(model, spec):
        prediction = predict(model, spec)
        lines = [f"{k} = {v!r}\n" for k, v in prediction.violation.items()]
        return "".join(lines) + f"qber = {prediction.qber!r}\n"

    def residuals(spec):
        return "".join(f"{k} = {v!r}\n" for k, v in check_residuals(spec).items())

    for parties in (2, 3):
        clean = make_channel(parties)
        models = [AttackModel()]
        for targets in TARGET_SETS[parties]:
            models += [AttackModel(kind, targets) for kind, _ in KINDS if kind != "depolarize"]
            models += [AttackModel("depolarize", targets, i / 101) for i in range(102)]
        for corrupt, spec in ((False, clean), (True, corrupt_channel(clean))):
            for m in models:
                label = f"predict parties={parties} corrupt={corrupt} {m.kind}{list(m.targets)} s={m.strength!r}"
                yield label, predicted(m, spec)
        yield f"residuals parties={parties} clean", residuals(clean)
        for index in map(int, clean.state.amplitudes.nonzero()[0]):
            yield f"residuals parties={parties} flip={index}", residuals(corrupt_channel(clean, index))


CLI_CONFIGS = (
    ("two-party", ["--protocol", "two-party"]),
    ("three-party", ["--protocol", "three-party"]),
    ("three-party permits=False", ["--protocol", "three-party", "--no-permission"]),
    (
        "three-party depolarize[charlie] s=0.3",
        ["--protocol", "three-party", "--attack", "depolarize", "--attack-target", "charlie",
         "--attack-strength", "0.3"],
    ),
    ("two-party corrupt=True", ["--protocol", "two-party", "--corrupt-channel"]),
)
CLI_REPEATS = range(1, 6)


def cli_grid():
    """(label, result text) pairs: exit code, stdout and report of each run."""
    from ququart_qkd import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.report")
        for label, flags in CLI_CONFIGS:
            for repeat in CLI_REPEATS:
                argv = ["run", *flags, "--verification-rounds", "60", "--key-rounds", "120"]
                argv += ["--seed", str(SEEDS[0]), "--repeat", str(repeat), "--report", path]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                with open(path, encoding="ascii", newline="") as fh:
                    report = fh.read()
                yield f"cli {label} repeat={repeat}", f"exit = {code}\n{out.getvalue()}{report}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="source directory holding ququart_qkd")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--oracle", action="store_true", help="digest the exact oracle, not sessions")
    mode.add_argument("--cli", action="store_true", help="digest `run --repeat K` commands")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    if args.oracle or args.cli:
        for label, text in oracle_grid() if args.oracle else cli_grid():
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {label}")
        return
    from ququart_qkd.attacks import AttackModel
    from ququart_qkd.session import SessionConfig, format_report, run_session

    for protocol, kind, targets, strength, permits, corrupt, ver, key, frac, seed in grid():
        config = SessionConfig(
            protocol=protocol,
            verification_rounds=ver,
            key_rounds=key,
            sample_fraction=frac,
            qber_threshold=0.6,
            attack=AttackModel(kind, targets, strength),
            alice_permits=permits,
            seed=seed,
            corrupt=corrupt,
        )
        digest = hashlib.sha256(format_report(run_session(config)).encode()).hexdigest()
        label = f"{protocol} {kind}{list(targets)} s={strength} permits={permits} corrupt={corrupt}"
        print(f"{digest}  {label} ver={ver} key={key} frac={frac} seed={seed}")


if __name__ == "__main__":
    main()
