"""Session orchestration, statistics, and report emission.

run_session is a pure function of its config (seed included): verification
phase first, key phase only if verification passes, outcome folded from
the two phases plus the permission flag.  The report is a flat
``key = value`` text document with a fixed schema version; identical
configs produce byte-identical files, so reports double as regression
artifacts.  Empirical frequencies are printed next to the exact oracle's
predictions with binomial z-scores.  On a built-in channel the oracle is
a pure function of the attack model and the party count, so
``run_session`` keeps it in a bounded memo; a corrupt-channel session
calls ``predict`` afresh.  Each role's generator stream is built on its
first read (``_NamedStreams``), so a session builds only the streams it
draws from, and each report value is formatted by its exact type's entry
in a table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .channels import ChannelSpec, corrupt_channel, make_channel
from .attacks import AttackModel, predict
from .protocol import (
    ALICE,
    BOB,
    CHARLIE,
    MessageBus,
    compare_keys,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)

SCHEMA_VERSION = "3"

PROTOCOL_TWO_PARTY = "two-party"
PROTOCOL_THREE_PARTY = "three-party"

OUTCOME_ESTABLISHED = "key-established"
OUTCOME_ABORT_VERIFY = "aborted-verification"
OUTCOME_ABORT_QBER = "aborted-qber"
OUTCOME_NO_PERMISSION = "no-permission"

# A phase holds a few columns with a row per round.  Measured peak above
# the imported library: at most ~101 B per round in any phase of either
# protocol, under any attack (README, "Round counts and memory").  With
# 128 B per round, the cap keeps a session's peak within 4 GiB.
PEAK_BYTES_PER_ROUND = 128
MAX_ROUNDS = (4 << 30) // PEAK_BYTES_PER_ROUND

TARGET_NAMES = {1: "bob", 2: "charlie"}
TARGET_POSITIONS = {"bob": 1, "charlie": 2}

# built-in channel oracles kept, least recently used dropped first: far
# more attack configs than a run cycles through (the eavesdrop benchmark's 16)
ORACLE_MEMO = 64


class ConfigError(ValueError):
    """Invalid session configuration, reported before any simulation."""


@dataclass(frozen=True)
class SessionConfig:
    protocol: str = PROTOCOL_TWO_PARTY
    verification_rounds: int = 1000
    key_rounds: int = 1000
    sample_fraction: float = 0.1
    qber_threshold: float = 0.0
    attack: AttackModel = field(default_factory=AttackModel)
    alice_permits: bool = True
    seed: int = 0
    corrupt: bool = False
    report_path: Optional[str] = None

    def __post_init__(self):
        if self.protocol not in (PROTOCOL_TWO_PARTY, PROTOCOL_THREE_PARTY):
            raise ConfigError(f"unknown protocol: {self.protocol!r}")
        if self.verification_rounds < 0 or self.key_rounds < 0:
            raise ConfigError("round counts must be >= 0")
        if max(self.verification_rounds, self.key_rounds) > MAX_ROUNDS:
            raise ConfigError(f"round counts must be at most {MAX_ROUNDS}")
        if not 0.0 <= self.sample_fraction < 1.0:
            raise ConfigError("sample_fraction must lie in [0, 1)")
        if not 0.0 <= self.qber_threshold < 1.0:
            raise ConfigError("qber_threshold must lie in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        party_count = 2 if self.protocol == PROTOCOL_TWO_PARTY else 3
        for t in self.attack.targets:
            if not 1 <= t < party_count:
                raise ConfigError(
                    f"attack target {TARGET_NAMES.get(t, t)} invalid for {self.protocol}"
                )
        if party_count == 2 and not self.alice_permits:
            raise ConfigError("withholding permission needs the three-party protocol")

    @property
    def party_count(self) -> int:
        return 2 if self.protocol == PROTOCOL_TWO_PARTY else 3


@dataclass(frozen=True)
class SessionReport:
    config: SessionConfig
    verify: dict
    key: dict
    outcome: str
    transcript_messages: int

    def summary_line(self) -> str:
        return (
            f"outcome={self.outcome} qber={self.key.get('qber', 0.0)!r} "
            f"sifted_bits={self.key.get('sifted_bits', 0)} "
            f"violations={self.verify.get('violations', 0)} seed={self.config.seed}"
        )


# the roles that draw, each from its own stream, in spawn order
STREAM_ROLES = (ALICE, BOB, CHARLIE, "attack", "public")
_SPAWN_KEYS = {role: (i,) for i, role in enumerate(STREAM_ROLES)}


class _NamedStreams(dict):
    """Independent per-role generator streams derived from one seed, as a
    dict from role to ``Generator`` that builds a role's stream on its
    first read: the i-th role's is seeded by ``SeedSequence(seed,
    spawn_key=(i,))``, which is ``SeedSequence(seed).spawn(5)[i]``.  A
    role never read is never built and is not in the dict, so a stream a
    session never draws from costs nothing; an unknown role is a
    KeyError."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed

    def __missing__(self, role):
        child = np.random.SeedSequence(self.seed, spawn_key=_SPAWN_KEYS[role])
        stream = self[role] = np.random.Generator(np.random.PCG64(child))
        return stream


def _named_streams(seed: int) -> dict:
    """Independent per-role generator streams derived from one seed, each
    built on its first read (``_NamedStreams``)."""
    return _NamedStreams(seed)


def _z_score(freq: float, p: float, trials: int) -> float:
    """Binomial z-score of an empirical frequency against probability p."""
    if trials == 0:
        return 0.0
    variance = p * (1.0 - p) / trials
    if variance == 0.0:
        return 0.0 if freq == p else math.inf
    return (freq - p) / math.sqrt(variance)


def bits_to_hex(bits) -> str:
    """Pack 0/1 bits into hex, most significant bit of each byte first;
    the tail is zero-padded, so the true bit count travels separately."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def hex_to_bits(hex_string: str, bit_count: int) -> tuple:
    bits = []
    for ch in hex_string:
        value = int(ch, 16)
        bits.extend((value >> (3 - i)) & 1 for i in range(4))
    if len(bits) < bit_count:
        raise ValueError(f"{len(bits)} bits of hex, {bit_count} wanted")
    if any(bits[bit_count:]):
        raise ValueError("nonzero padding")
    return tuple(bits[:bit_count])


def run_session(config: SessionConfig) -> SessionReport:
    """Run one full session: verification, then (on pass) the key phase."""
    spec = make_channel(config.party_count)
    if config.corrupt:
        spec = corrupt_channel(spec)
        oracle = predict(config.attack, spec)
    else:
        oracle = _built_in_oracle(config.attack, config.party_count)
    rngs = _named_streams(config.seed)
    bus = MessageBus()

    verification = run_verification_phase(
        spec, config.verification_rounds, config.attack, rngs, bus
    )
    verify_block = _verify_block(spec, verification, oracle)

    if not verification.passed:
        return SessionReport(
            config=config,
            verify=verify_block,
            key=_empty_key_block(),
            outcome=OUTCOME_ABORT_VERIFY,
            transcript_messages=len(bus.transcript),
        )

    if config.protocol == PROTOCOL_TWO_PARTY:
        phase = run_key_phase_two_party(
            spec,
            config.key_rounds,
            config.sample_fraction,
            config.qber_threshold,
            config.attack,
            rngs,
            bus,
        )
        outcome = OUTCOME_ESTABLISHED if phase.passed else OUTCOME_ABORT_QBER
        keys = {ALICE: phase.alice_key, BOB: phase.bob_key}
        key_block = _key_block(phase, oracle, outcome, keys, {})
    else:
        phase = run_key_phase_controlled(
            spec,
            config.key_rounds,
            config.sample_fraction,
            config.qber_threshold,
            config.alice_permits,
            config.attack,
            rngs,
            bus,
        )
        if not config.alice_permits:
            outcome = OUTCOME_NO_PERMISSION
        elif phase.passed:
            outcome = OUTCOME_ESTABLISHED
        else:
            outcome = OUTCOME_ABORT_QBER
        extra = {"deduction_accuracy": phase.deduction_accuracy}
        if not config.alice_permits:
            # blind-guess accuracy: oracle value is exactly 1/4
            extra["guess_oracle"] = 0.25
            extra["guess_z"] = _z_score(phase.deduction_accuracy, 0.25, config.key_rounds)
        keys = {BOB: phase.bob_key, CHARLIE: phase.charlie_key}
        key_block = _key_block(phase, oracle, outcome, keys, extra)

    return SessionReport(
        config=config,
        verify=verify_block,
        key=key_block,
        outcome=outcome,
        transcript_messages=len(bus.transcript),
    )


@functools.lru_cache(maxsize=ORACLE_MEMO)
def _built_in_oracle(attack: AttackModel, party_count: int):
    """``predict`` on the built-in channel of ``party_count`` parties, one
    shared prediction that callers only read.  A miss calls it through
    this module's binding, so a wrapper there sees it; ``predict`` itself
    stays uncached."""
    return predict(attack, make_channel(party_count))


def _verify_block(spec: ChannelSpec, summary, oracle) -> dict:
    block = {
        "rounds": summary.rounds,
        "matched": summary.matched,
        "discarded": summary.discarded,
        "violations": summary.total_violations,
        "vacuous": summary.vacuous,
        "pass": summary.passed,
    }
    for check in spec.checks:
        name = check.name
        tally = summary.tallies[name]
        p = oracle.violation[name]
        frequency = tally.frequency
        prefix = f"check.{name}."
        block[prefix + "expected"] = check.expected
        block[prefix + "rounds"] = tally.rounds
        block[prefix + "violations"] = tally.violations
        block[prefix + "frequency"] = frequency
        block[prefix + "oracle"] = p
        block[prefix + "z"] = _z_score(frequency, p, tally.rounds)
    return block


def _empty_key_block() -> dict:
    # aborted before the key phase: no key statistics, no key bits
    return {"rounds": 0, "sampled": 0, "kept": 0, "sifted_bits": 0}


def _key_block(phase, oracle, outcome, keys: dict, extra: dict) -> dict:
    """Sample and qber statistics, the protocol's ``extra`` items, and on
    success the two keys, named by party in ``keys`` order; the two keys
    always have equal length."""
    first, second = keys.values()
    block = {
        "rounds": phase.rounds,
        "sampled": phase.sampled,
        "sample_vacuous": phase.sampled == 0,
        "kept": phase.kept,
        "qber": phase.qber,
        "qber_oracle": oracle.qber,
        "qber_z": _z_score(phase.qber, oracle.qber, 2 * phase.sampled),
        "pass": phase.passed,
        "sifted_bits": len(first),
        **extra,
    }
    if outcome == OUTCOME_ESTABLISHED:
        mismatches = compare_keys(first, second)
        block["keys_equal"] = not mismatches
        block["mismatch_count"] = len(mismatches)
        for party, key in keys.items():
            block[f"{party}_bits"] = len(key)
            block[f"{party}_hex"] = bits_to_hex(key.column)
    return block


# ---------------------------------------------------------------------------
# flat key = value text format (reports and config files)


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


def _format_str(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# the formatter of each exact type a report holds; ``format_value``'s
# isinstance chain gives the same text for these and handles the rest
_FORMATTERS = {bool: _format_bool, int: int.__repr__, float: float.__repr__, str: _format_str}


def format_value(value) -> str:
    formatter = _FORMATTERS.get(type(value))
    if formatter is not None:
        return formatter(value)
    # bool has no subclasses, so a bool never gets here
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return _format_str(value)
    raise TypeError(f"unsupported report value type: {type(value).__name__}")


def parse_value(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    return float(text)


def format_flat(items) -> str:
    """Serialize ordered (key, value) pairs as flat assignment lines, each
    value by its exact type's formatter, or by ``format_value``."""
    formatter = _FORMATTERS.get
    return "".join([f"{k} = {formatter(type(v), format_value)(v)}\n" for k, v in items])


def parse_flat(text: str) -> dict:
    """Inverse of format_flat; '#' lines and blank lines are skipped, and
    a key given twice is an error."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = parse_value(raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from exc
    return out


def report_items(report: SessionReport) -> list:
    """The report's ordered key/value pairs; order is part of the schema."""
    cfg = report.config
    items = [
        ("schema_version", SCHEMA_VERSION),
        ("config.protocol", cfg.protocol),
        ("config.verification_rounds", cfg.verification_rounds),
        ("config.key_rounds", cfg.key_rounds),
        ("config.sample_fraction", cfg.sample_fraction),
        ("config.qber_threshold", cfg.qber_threshold),
        ("config.attack", cfg.attack.kind),
        ("config.attack_targets", ",".join(TARGET_NAMES[t] for t in cfg.attack.targets)),
        ("config.attack_strength", cfg.attack.strength),
        ("config.alice_permits", cfg.alice_permits),
        ("config.corrupt", cfg.corrupt),
        ("config.seed", cfg.seed),
    ]
    items.extend((f"verify.{k}", v) for k, v in report.verify.items())
    items.extend((f"key.{k}", v) for k, v in report.key.items())
    items.append(("transcript.messages", report.transcript_messages))
    items.append(("outcome", report.outcome))
    return items


def format_report(report: SessionReport) -> str:
    return format_flat(report_items(report))


def emit_report(text: str, path: str):
    """Write a report file's text; failures carry the path in the message."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def config_from_mapping(mapping: dict) -> SessionConfig:
    """Build a config from flat key/value pairs (config files, CLI)."""
    known = {
        "protocol",
        "verification_rounds",
        "key_rounds",
        "sample_fraction",
        "qber_threshold",
        "attack",
        "attack_targets",
        "attack_strength",
        "alice_permits",
        "corrupt",
        "seed",
        "report",
    }
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    kind = _typed(mapping, "attack", "none", str)
    targets_text = _typed(mapping, "attack_targets", "", str)
    targets = []
    for name in filter(None, (t.strip() for t in targets_text.split(","))):
        if name not in TARGET_POSITIONS:
            raise ConfigError(f"unknown attack target: {name!r}")
        targets.append(TARGET_POSITIONS[name])
    if kind != "none" and not targets:
        targets = [TARGET_POSITIONS["bob"]]  # default: the particle sent to Bob
    try:
        attack = AttackModel(
            kind=kind,
            targets=tuple(sorted(set(targets))),
            strength=_typed(mapping, "attack_strength", 0.0, float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return SessionConfig(
        protocol=_typed(mapping, "protocol", PROTOCOL_TWO_PARTY, str),
        verification_rounds=_typed(mapping, "verification_rounds", 1000, int),
        key_rounds=_typed(mapping, "key_rounds", 1000, int),
        sample_fraction=_typed(mapping, "sample_fraction", 0.1, float),
        qber_threshold=_typed(mapping, "qber_threshold", 0.0, float),
        attack=attack,
        alice_permits=_typed(mapping, "alice_permits", True, bool),
        seed=_typed(mapping, "seed", 0, int),
        corrupt=_typed(mapping, "corrupt", False, bool),
        report_path=_typed(mapping, "report", None, str),
    )


def _typed(mapping: dict, key: str, default, kind: type):
    """The value of key, or default when absent, with no silent coercion:
    bools and strings must be exactly that, ints must be integral numbers
    and floats any number (a bool is neither)."""
    if key not in mapping:
        return default
    value = mapping[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        ok = number and (isinstance(value, int) or value.is_integer())
    elif kind is float:
        ok = number
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def with_seed(config: SessionConfig, seed: int) -> SessionConfig:
    return replace(config, seed=seed)
