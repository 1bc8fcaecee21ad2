#!/usr/bin/env python3
"""Peak memory per round of each protocol phase, as the README tables it.

    python3 tools/phase_peaks.py [--rounds 2000000] [--src src]

runs every case, phase (verification, key) x protocol (two-party,
three-party) x attack (none, intercept-key, and depolarize at strength 1,
each on every in-transit target), in a fresh interpreter of its own,
importing the library from ``--src`` (default: this checkout's).  A case
runs its phase alone, with the session's streams, defaults and bus: first
a 100-round warm-up of the same phase, then one phase of ``--rounds``
rounds.  Its peak is the process's peak resident set (Linux ``VmHWM``)
after that phase less the same after the warm-up, so the interpreter, the
imported library and what the warm-up built (trees, plans, projector
sets) are left out, and only what grows with the round count is counted.
``ru_maxrss`` would not do: a child starts with the ``ru_maxrss`` of the
process that started it, so a large caller (a test runner, say) would
hide the warm-up's peak under its own.  The table gives each case's peak
in MiB per 10^6 rounds, then the largest in bytes per round against
``session.PEAK_BYTES_PER_ROUND``.

    python3 tools/phase_peaks.py --case key three-party depolarize 500000

runs one case in this interpreter and prints its bytes per round.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("verification", "key")
PROTOCOLS = ("two-party", "three-party")
ATTACKS = ("none", "intercept-key", "depolarize")
WARM_UP_ROUNDS = 100
SEED = 1


def _peak_bytes() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024  # given in kB
    raise OSError("no VmHWM in /proc/self/status")


def run_case(phase: str, protocol: str, attack: str, rounds: int) -> float:
    """Bytes per round of one phase of ``rounds`` rounds above its warm-up,
    measured in this interpreter (run each case in a fresh one)."""
    from ququart_qkd import protocol as proto
    from ququart_qkd import session
    from ququart_qkd.attacks import AttackModel
    from ququart_qkd.channels import make_channel

    parties = session.PARTY_COUNTS[protocol]
    model = AttackModel() if attack == "none" else AttackModel(
        attack, tuple(range(1, parties)), 1.0 if attack == "depolarize" else 0.0
    )
    spec, defaults = make_channel(parties), session.SessionConfig()
    key_args = (defaults.sample_fraction, defaults.qber_threshold)

    def run(num_rounds):
        rngs, bus = session._named_streams(SEED), proto.MessageBus()
        if phase == "verification":
            proto.run_verification_phase(spec, num_rounds, model, rngs, bus)
        elif parties == 2:
            proto.run_key_phase_two_party(spec, num_rounds, *key_args, model, rngs, bus)
        else:
            proto.run_key_phase_controlled(spec, num_rounds, *key_args, True, model, rngs, bus)

    run(WARM_UP_ROUNDS)
    base = _peak_bytes()
    run(rounds)
    return (_peak_bytes() - base) / rounds


def bytes_per_round(phase: str, protocol: str, attack: str, rounds: int, src: str = None) -> float:
    """``run_case`` in a fresh interpreter importing the library from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src or os.path.join(ROOT, "src")))
    command = [sys.executable, os.path.abspath(__file__), "--case", phase, protocol, attack, str(rounds)]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout
    return float(out.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2_000_000)
    parser.add_argument("--src", default=None, help="the library's source directory")
    parser.add_argument("--case", nargs=4, metavar=("PHASE", "PROTOCOL", "ATTACK", "ROUNDS"))
    args = parser.parse_args(argv)
    if args.case:
        phase, protocol, attack, rounds = args.case
        print(f"{run_case(phase, protocol, attack, int(rounds)):.3f}")
        return 0
    print(f"peak above a {WARM_UP_ROUNDS}-round warm-up, MiB per 10^6 rounds ({args.rounds} rounds)")
    print()
    print("| phase | attack | two-party | three-party |")
    print("|---|---|---|---|")
    worst = 0.0
    for phase in PHASES:
        for attack in ATTACKS:
            cells = []
            for protocol in PROTOCOLS:
                per_round = bytes_per_round(phase, protocol, attack, args.rounds, args.src)
                worst = max(worst, per_round)
                cells.append(f"{per_round * 1e6 / 2**20:.1f}")
            print(f"| {phase} | {attack} | {' | '.join(cells)} |")
    print()
    print(f"largest: {worst:.1f} B per round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
