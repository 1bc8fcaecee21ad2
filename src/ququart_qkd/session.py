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
draws from.  Each report value is formatted by its exact type's entry in
one table, and a value of any other type is a TypeError.

A session's inputs are the flat keys of ``CONFIG_KEYS``, shared by config
files and CLI flags; ``SessionConfig`` holds their defaults and checks
every field's type and value on construction, on the library path too,
and stores each as its key's type.  ``PARTY_COUNTS`` says how many
parties each protocol has.
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
    PARTY_ORDER,
    MessageBus,
    compare_keys,
    run_key_phase_controlled,
    run_key_phase_two_party,
    run_verification_phase,
)

SCHEMA_VERSION = "3"

PROTOCOL_TWO_PARTY = "two-party"
PROTOCOL_THREE_PARTY = "three-party"
PARTY_COUNTS = {PROTOCOL_TWO_PARTY: 2, PROTOCOL_THREE_PARTY: 3}
PROTOCOLS = tuple(PARTY_COUNTS)

OUTCOME_ESTABLISHED = "key-established"
OUTCOME_ABORT_VERIFY = "aborted-verification"
OUTCOME_ABORT_QBER = "aborted-qber"
OUTCOME_NO_PERMISSION = "no-permission"

# A phase holds a few columns with a row per round.  Measured peak above
# the imported library: at most ~115 B per round in any phase of either
# protocol, under any attack (tools/phase_peaks.py; README, "Round counts
# and memory").  With 128 B per round, the cap keeps a phase's peak
# within 4 GiB.
PEAK_BYTES_PER_ROUND = 128
MAX_ROUNDS = (4 << 30) // PEAK_BYTES_PER_ROUND

# the in-transit particles by recipient; Alice's, at position 0, never travels
TARGET_POSITIONS = {name: position for position, name in enumerate(PARTY_ORDER) if position}
TARGET_NAMES = {position: name for name, position in TARGET_POSITIONS.items()}

# The flat config keys of config files and CLI flags and their types, in
# SessionConfig's field order: a key names its field, but ``report`` names
# ``report_path``, and the three ``attack*`` keys build the AttackModel.
CONFIG_KEYS = {
    "protocol": str,
    "verification_rounds": int,
    "key_rounds": int,
    "sample_fraction": float,
    "qber_threshold": float,
    "attack": str,
    "attack_targets": str,
    "attack_strength": float,
    "alice_permits": bool,
    "seed": int,
    "corrupt": bool,
    "report": str,
}
_FLOAT_MAX = float(np.finfo(np.float64).max)
# the checked fields of SessionConfig other than attack: (field, key, type)
_FIELD_KEYS = tuple(
    ("report_path" if key == "report" else key, key, kind)
    for key, kind in CONFIG_KEYS.items()
    if not key.startswith("attack")
)

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
        # every field's type, then the values; a number becomes its field's type
        for name, key, kind in _FIELD_KEYS:
            value = getattr(self, name)
            if type(value) is not kind and not (value is None and name == "report_path"):
                object.__setattr__(self, name, _typed(key, value, kind))
        if not isinstance(self.attack, AttackModel):
            raise ConfigError(f"attack must be AttackModel, got {self.attack!r}")
        if self.report_path == "":
            raise ConfigError("report must be a non-empty path")
        if self.protocol not in PARTY_COUNTS:
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
        for t in self.attack.targets:
            if not 1 <= t < self.party_count:
                raise ConfigError(
                    f"attack target {TARGET_NAMES.get(t, t)} invalid for {self.protocol}"
                )
        if self.party_count == 2 and not self.alice_permits:
            raise ConfigError("withholding permission needs the three-party protocol")

    @property
    def party_count(self) -> int:
        return PARTY_COUNTS[self.protocol]


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

    key_args = (spec, config.key_rounds, config.sample_fraction, config.qber_threshold)
    if not verification.passed:
        # aborted before the key phase: no key statistics, no key bits
        phase, key_block = None, {"rounds": 0, "sampled": 0, "kept": 0, "sifted_bits": 0}
    elif config.protocol == PROTOCOL_TWO_PARTY:
        phase = run_key_phase_two_party(*key_args, config.attack, rngs, bus)
        keys, extra = {ALICE: phase.alice_key, BOB: phase.bob_key}, {}
    else:
        phase = run_key_phase_controlled(*key_args, config.alice_permits, config.attack, rngs, bus)
        keys = {BOB: phase.bob_key, CHARLIE: phase.charlie_key}
        extra = {"deduction_accuracy": phase.deduction_accuracy}
        if not config.alice_permits:
            # blind-guess accuracy: oracle value is exactly 1/4
            extra["guess_oracle"] = 0.25
            extra["guess_z"] = _z_score(phase.deduction_accuracy, 0.25, config.key_rounds)

    # one fold for every end; a two-party config always permits
    if phase is None:
        outcome = OUTCOME_ABORT_VERIFY
    elif not config.alice_permits:
        outcome = OUTCOME_NO_PERMISSION
    else:
        outcome = OUTCOME_ESTABLISHED if phase.passed else OUTCOME_ABORT_QBER
    if phase is not None:
        key_block = _key_block(phase, oracle, outcome, keys, extra)
    return SessionReport(config, verify_block, key_block, outcome, len(bus.transcript))


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


# the formatter of each exact type a report holds
_FORMATTERS = {bool: _format_bool, int: int.__repr__, float: float.__repr__, str: _format_str}


def format_value(value) -> str:
    """A value of an exact ``_FORMATTERS`` type as report text; any other
    type, a numpy scalar or a subclass included, is a TypeError."""
    formatter = _FORMATTERS.get(type(value))
    if formatter is None:
        raise TypeError(f"unsupported report value type: {type(value).__name__}")
    return formatter(value)


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
    value by its exact type's formatter (``format_value``)."""
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
    """Build a config from pairs of ``CONFIG_KEYS`` (config files, CLI); an
    absent key keeps its field's default, and an attack without targets
    targets the particle sent to Bob."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {"report_path" if key == "report" else key: mapping[key] for key in mapping}
    attack = {}
    if "attack" in mapping:
        attack["kind"] = _typed("attack", kwargs.pop("attack"), str)
    if "attack_targets" in mapping:
        names = _typed("attack_targets", kwargs.pop("attack_targets"), str).split(",")
        targets = set()
        for name in filter(None, (n.strip() for n in names)):
            if name not in TARGET_POSITIONS:
                raise ConfigError(f"unknown attack target: {name!r}")
            targets.add(TARGET_POSITIONS[name])
        if targets:
            attack["targets"] = tuple(sorted(targets))
    if attack.get("kind", "none") != "none" and "targets" not in attack:
        attack["targets"] = (TARGET_POSITIONS[BOB],)
    if "attack_strength" in mapping:
        attack["strength"] = _typed("attack_strength", kwargs.pop("attack_strength"), float)
    try:
        kwargs["attack"] = AttackModel(**attack)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return SessionConfig(**kwargs)


def _typed(key: str, value, kind: type):
    """value as kind, with no silent coercion: bools and strings exactly so, ints
    integral numbers, floats any number (a bool is neither); else a ConfigError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        ok = number and (isinstance(value, int) or value.is_integer())
    elif kind is float:  # an int past the float range is none
        ok = number and (isinstance(value, float) or abs(value) <= _FLOAT_MAX)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def with_seed(config: SessionConfig, seed: int) -> SessionConfig:
    return replace(config, seed=seed)
