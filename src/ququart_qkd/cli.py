"""Command-line entry point.

Three subcommands mirror the library's three jobs:

* ``run``            simulate a session (config file and/or flags)
* ``verify-channel`` print eigen-equation residuals and the uniqueness
                     certificates for the built-in channels
* ``predict``        print the exact oracle for an attack, no simulation

Exit codes: 0 key established (or informational success), 2 aborted
(verification or qber, or a failed channel verification), 3 no
permission, 1 usage/config error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .attacks import predict
from .channels import (
    check_residuals,
    constraint_matrices,
    corrupt_channel,
    make_channel,
    stabilized_subspace,
)
from .session import (
    ConfigError,
    OUTCOME_ABORT_QBER,
    OUTCOME_ABORT_VERIFY,
    OUTCOME_ESTABLISHED,
    OUTCOME_NO_PERMISSION,
    PROTOCOL_THREE_PARTY,
    PROTOCOL_TWO_PARTY,
    config_from_mapping,
    emit_report,
    format_report,
    parse_flat,
    run_session,
    with_seed,
)

EXIT_BY_OUTCOME = {
    OUTCOME_ESTABLISHED: 0,
    OUTCOME_ABORT_VERIFY: 2,
    OUTCOME_ABORT_QBER: 2,
    OUTCOME_NO_PERMISSION: 3,
}

RESIDUAL_PASS = 1e-12


def _add_session_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    parser.add_argument("--protocol", choices=[PROTOCOL_TWO_PARTY, PROTOCOL_THREE_PARTY])
    parser.add_argument("--verification-rounds", type=int, dest="verification_rounds")
    parser.add_argument("--key-rounds", type=int, dest="key_rounds")
    parser.add_argument("--sample-fraction", type=float, dest="sample_fraction")
    parser.add_argument("--qber-threshold", type=float, dest="qber_threshold")
    parser.add_argument(
        "--attack",
        choices=["none", "intercept-computational", "intercept-key", "entangle-probe", "depolarize"],
    )
    parser.add_argument(
        "--attack-target",
        action="append",
        dest="attack_targets",
        choices=["bob", "charlie"],
        help="in-transit particle to attack; repeatable (default: bob)",
    )
    parser.add_argument("--attack-strength", type=float, dest="attack_strength")
    parser.add_argument(
        "--no-permission",
        action="store_true",
        help="controller withholds her outcomes (three-party only)",
    )
    parser.add_argument(
        "--corrupt-channel",
        action="store_true",
        help="flip one channel amplitude sign (negative control)",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--report", help="write the session report to this path")


def _mapping_from_args(args: argparse.Namespace) -> dict:
    mapping = {}
    if args.config:
        with open(args.config, encoding="ascii") as fh:
            try:
                mapping.update(parse_flat(fh.read()))
            except ValueError as exc:  # a bad line, value or byte
                raise ConfigError(f"{args.config}: {exc}") from exc
    overrides = {
        "protocol": args.protocol,
        "verification_rounds": args.verification_rounds,
        "key_rounds": args.key_rounds,
        "sample_fraction": args.sample_fraction,
        "qber_threshold": args.qber_threshold,
        "attack": args.attack,
        "attack_targets": ",".join(args.attack_targets) if args.attack_targets else None,
        "attack_strength": args.attack_strength,
        "seed": args.seed,
        "report": args.report,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = value
    if args.no_permission:
        mapping["alice_permits"] = False
    if args.corrupt_channel:
        mapping["corrupt"] = True
    return mapping


def _cores() -> int:
    # what ProcessPoolExecutor() sizes its pool by on this Python
    return getattr(os, "process_cpu_count", os.cpu_count)() or 1


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_mapping(_mapping_from_args(args))
    repeat = args.repeat
    if repeat < 1:
        raise ConfigError("--repeat must be >= 1")
    configs = [with_seed(config, config.seed + i) for i in range(repeat)]
    # The calling process is one of the cores: it runs the first share of
    # the seeds itself, after handing the rest to one worker per other
    # core; each process runs its sessions one at a time, and reports
    # stay in seed order.  The pool is imported only when it is built, so
    # runs without workers do not pay for the import.
    workers = min(repeat, _cores()) - 1
    own = -(-repeat // (workers + 1))
    if workers == 0:
        reports = [run_session(c) for c in configs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            rest = pool.map(run_session, configs[own:])
            reports = [run_session(c) for c in configs[:own]]
            reports += rest
    if config.report_path:
        if repeat == 1:
            text = format_report(reports[0])
        else:
            text = "\n".join(
                f"# run {i} seed={rep.config.seed}\n" + format_report(rep)
                for i, rep in enumerate(reports)
            )
        emit_report(text, config.report_path)
    codes = set()
    for rep in reports:
        print(rep.summary_line())
        codes.add(EXIT_BY_OUTCOME[rep.outcome])
    # an abort outweighs a withheld permission, which outweighs success
    return 2 if 2 in codes else 3 if 3 in codes else 0


def _cmd_verify_channel(args: argparse.Namespace) -> int:
    protocols = [args.protocol] if args.protocol else [PROTOCOL_TWO_PARTY, PROTOCOL_THREE_PARTY]
    ok = True
    for protocol in protocols:
        spec = make_channel(2 if protocol == PROTOCOL_TWO_PARTY else 3)
        if args.corrupt:
            spec = corrupt_channel(spec)
        label = protocol.replace("-", "_")
        residuals = check_residuals(spec)
        for name, value in residuals.items():
            print(f"{label}.residual.{name} = {value!r}")
            ok = ok and value < RESIDUAL_PASS

        certificate = stabilized_subspace(constraint_matrices(spec), spec.state.dim)
        print(f"{label}.subspace.dimension = {certificate.dimension}")
        print(f"{label}.subspace.residual = {certificate.residual!r}")
        if certificate.dimension == 1:
            overlap = float(
                abs(np.vdot(spec.state.amplitudes, certificate.basis[0].amplitudes))
            )
            print(f"{label}.subspace.overlap = {overlap!r}")
            ok = ok and abs(overlap - 1.0) < 1e-10
        else:
            ok = False
    return 0 if ok else 2


def _cmd_predict(args: argparse.Namespace) -> int:
    mapping = _mapping_from_args(args)
    mapping.setdefault("attack", "none")
    config = config_from_mapping(mapping)
    spec = make_channel(config.party_count)
    if config.corrupt:
        spec = corrupt_channel(spec)
    prediction = predict(config.attack, spec)
    for name, value in prediction.violation.items():
        print(f"violation.{name} = {value!r}")
    print(f"qber = {prediction.qber!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with status 2; this tool reserves 2 for
    aborted sessions, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ququart-qkd",
        description="Simulate and verify entanglement-based QKD over four-level systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one session (or --repeat N sessions)")
    _add_session_flags(run_p)
    run_p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run N seeds from --seed on: this process runs the first share, one "
        "worker per other core the rest, each one session at a time",
    )
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify-channel", help="residuals and uniqueness certificates")
    verify_p.add_argument("--protocol", choices=[PROTOCOL_TWO_PARTY, PROTOCOL_THREE_PARTY])
    verify_p.add_argument("--corrupt", action="store_true", help="negative control")
    verify_p.set_defaults(func=_cmd_verify_channel)

    predict_p = sub.add_parser("predict", help="exact attack statistics, no simulation")
    _add_session_flags(predict_p)
    predict_p.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
