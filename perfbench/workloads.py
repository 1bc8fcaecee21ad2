"""The four benchmark workloads: their operations, how each runs, and the
checks its outputs must pass.

Every workload is a closed loop with one client.  A run repeats *cycles*.
A cycle is a fixed mix of operations whose sizes do not depend on the seed,
so runs with different seeds do the same amount of work per cycle; the
workload seed and the cycle number draw the session seeds, the order of the
operations and the depolarising strengths.  An operation returns its output
text (a report, a merged report, or a serialized oracle or certificate);
those bytes are what the determinism and traced-versus-untraced comparisons
look at.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ququart_qkd import attacks, channels, cli, session
from ququart_qkd.attacks import AttackModel
from ququart_qkd.session import SessionConfig

# |z| bound for binomial frequencies against the exact oracle.  A run makes
# at most a few hundred such comparisons, so a correct program fails one
# with probability below 1e-6.
SIGMA_BOUND = 6.0
# Verification rounds of an eavesdrop session are sized so that a session
# passes verification (and so fails its check) with probability <= e**-20.
ABORT_NATS = 20.0
RESIDUAL_PASS = 1e-12
OVERLAP_TOL = 1e-10
ORACLE_TOL = 1e-12

ATTACK_KINDS = ("intercept-computational", "intercept-key", "entangle-probe", "depolarize")
TARGET_SETS = {"two-party": ((1,),), "three-party": ((1,), (2,), (1, 2))}
MENU_SIZE = 4


def library(wrap=None) -> SimpleNamespace:
    """The library entry points the workloads call, wrapped by ``wrap(name,
    fn)`` for a traced run.  Names are ``module.function`` of the library."""
    entries = {
        "session.run_session": session.run_session,
        "session.format_report": session.format_report,
        "attacks.predict": attacks.predict,
        "channels.make_channel": channels.make_channel,
        "channels.check_residuals": channels.check_residuals,
        "channels.stabilized_subspace": channels.stabilized_subspace,
        "cli.main": cli.main,
    }
    if wrap is not None:
        entries = {name: wrap(name, fn) for name, fn in entries.items()}
    return SimpleNamespace(**{name.split(".")[1]: fn for name, fn in entries.items()})


def _cycle_rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, cycle]))


def _in_random_order(rng: np.random.Generator, ops: list) -> list:
    """(slot, op) pairs; the slot is the op's position in the fixed mix."""
    return [(int(i), ops[i]) for i in rng.permutation(len(ops))]


def _session_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def _geometric_sizes(count: int, low: int, high: int) -> list:
    """``count`` sizes spread geometrically over [low, high], multiples of 10."""
    ratios = np.geomspace(low, high, count)
    return [int(round(r / 10.0)) * 10 for r in ratios]


@dataclass
class OpStats:
    """What an operation did, read back from its output."""

    rounds: int = 0
    key_bits: int = 0
    sessions: int = 0
    matched: int = 0
    verify_rounds: int = 0
    kept: int = 0
    key_rounds: int = 0
    messages: int = 0

    def add_report(self, items: dict):
        self.sessions += 1
        self.verify_rounds += items["verify.rounds"]
        self.matched += items["verify.matched"]
        self.rounds += items["verify.rounds"] + items["key.rounds"]
        self.messages += items["transcript.messages"]
        if items["outcome"] == session.OUTCOME_ESTABLISHED:
            self.key_rounds += items["key.rounds"]
            self.kept += items["key.kept"]
            self.key_bits += items["key.sifted_bits"]


# ---------------------------------------------------------------------------
# report checks shared by keygen and sweep


def _parse_report(text: str) -> tuple[dict, list]:
    items = session.parse_flat(text)
    problems = []
    if session.format_flat(items.items()) != text:
        problems.append("report does not round-trip through parse_flat")
    return items, problems


def _z(freq: float, p: float, trials: int) -> float:
    if trials == 0:
        return 0.0
    variance = p * (1.0 - p) / trials
    if variance == 0.0:
        return 0.0 if freq == p else math.inf
    return (freq - p) / math.sqrt(variance)


def check_attack_free_report(items: dict, permits: bool) -> list:
    """Checks of one attack-free session report (keygen and sweep)."""
    problems = []
    if items["verify.violations"] != 0:
        problems.append(f"{items['verify.violations']} violations without an attack")
    if not permits:
        if items["outcome"] != session.OUTCOME_NO_PERMISSION:
            problems.append(f"outcome {items['outcome']} with permission withheld")
        if items["key.sifted_bits"] != 0:
            problems.append("key bits produced without permission")
        rounds = items["key.rounds"]
        if abs(_z(items["key.deduction_accuracy"], 0.25, rounds)) > SIGMA_BOUND:
            problems.append("blind-guess accuracy far from 1/4")
        return problems

    if items["outcome"] != session.OUTCOME_ESTABLISHED:
        return problems + [f"outcome {items['outcome']}, expected key-established"]
    if items["key.keys_equal"] is not True or items["key.mismatch_count"] != 0:
        problems.append("sifted keys differ")
    if items["key.qber"] != 0.0:
        problems.append(f"qber {items['key.qber']} without an attack")
    if not items["key.sampled"] > 0:
        problems.append("no key round was sampled")
    if items["key.sifted_bits"] != 2 * items["key.kept"]:
        problems.append("sifted bit count is not two bits per kept round")
    keys = []
    for party in ("alice", "bob", "charlie"):
        if f"key.{party}_hex" not in items:
            continue
        count = items[f"key.{party}_bits"]
        try:
            bits = session.hex_to_bits(items[f"key.{party}_hex"], count)
        except (AssertionError, ValueError) as exc:
            problems.append(f"{party} hex does not decode: {exc}")
            continue
        if len(bits) != count or count != items["key.sifted_bits"]:
            problems.append(f"{party} hex decodes to {len(bits)} bits, stated {count}")
        keys.append(bits)
    if len(keys) != 2 or keys[0] != keys[1]:
        problems.append("decoded keys differ")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: ``cycle`` lists (slot, operation) pairs in run order,
    ``execute`` runs an operation and returns its output text, ``check``
    lists the problems of one output, ``check_run`` those of the whole run.

    Latencies pool into one cluster per slot.  With 15 slots the median and
    p90 fall inside a cluster rather than between two, so they do not jump
    between neighbouring operations from run to run."""

    min_ops = 100  # a run completes at least this many operations

    def check_run(self, results) -> list:
        return []


class Keygen(Workload):
    """Attack-free sessions: two-party, three-party with permission, and
    three-party with permission withheld.  Key rounds outnumber verification
    rounds and span an order of magnitude within each cycle, so per-round
    and per-session costs separate."""

    name = "keygen"
    VERIFICATION_ROUNDS = 32
    SAMPLE_FRACTION = 0.1
    KINDS = (("two-party", True), ("three-party", True), ("three-party", False))
    KEY_ROUNDS = _geometric_sizes(15, 100, 1000)

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, index: int) -> list:
        rng = _cycle_rng(self.seed, index)
        ops = []
        for j, key_rounds in enumerate(self.KEY_ROUNDS):
            protocol, permits = self.KINDS[j % len(self.KINDS)]
            ops.append(
                SessionConfig(
                    protocol=protocol,
                    verification_rounds=self.VERIFICATION_ROUNDS,
                    key_rounds=key_rounds,
                    sample_fraction=self.SAMPLE_FRACTION,
                    alice_permits=permits,
                    seed=_session_seed(rng),
                )
            )
        return _in_random_order(rng, ops)

    def warm_up(self, lib):
        for protocol, permits in self.KINDS:
            config = SessionConfig(
                protocol=protocol, verification_rounds=16, key_rounds=20, alice_permits=permits
            )
            lib.format_report(lib.run_session(config))

    def execute(self, op, lib) -> str:
        return lib.format_report(lib.run_session(op))

    def check(self, op, text: str, stats: OpStats) -> list:
        items, problems = _parse_report(text)
        stats.add_report(items)
        return problems + check_attack_free_report(items, op.alice_permits)


class Eavesdrop(Workload):
    """Attacked sessions that all abort at verification: every attack kind
    on every valid target set of both protocols.  Verification rounds are
    sized per attack from the exact oracle so that no session can pass."""

    name = "eavesdrop"
    min_ops = 64
    KEY_ROUNDS = 100
    MIN_STRENGTH = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        # the i-th depolarising config draws its strength from the i-th of
        # four equal strata of [MIN_STRENGTH, 1], so every seed does similar work
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2**32]))
        strata = (np.arange(4) + rng.uniform(size=4)) / 4
        strengths = iter(self.MIN_STRENGTH + (1.0 - self.MIN_STRENGTH) * strata)
        self.attacks = []
        for protocol, target_sets in TARGET_SETS.items():
            spec = channels.make_channel(2 if protocol == "two-party" else 3)
            for kind in ATTACK_KINDS:
                for targets in target_sets:
                    strength = float(next(strengths)) if kind == "depolarize" else 0.0
                    weakest = AttackModel(
                        kind, targets, self.MIN_STRENGTH if kind == "depolarize" else 0.0
                    )
                    rounds = self._rounds_to_abort(attacks.predict(weakest, spec), spec)
                    self.attacks.append((protocol, AttackModel(kind, targets, strength), rounds))

    @staticmethod
    def _rounds_to_abort(prediction, spec) -> int:
        # a round detects with the violation probability of the check its
        # random operator choice matches; each check is one of 4**n choices
        detect = sum(prediction.violation.values()) / MENU_SIZE**spec.party_count
        rounds = ABORT_NATS / -math.log1p(-detect)
        return int(math.ceil(rounds / 10.0)) * 10

    def cycle(self, index: int) -> list:
        rng = _cycle_rng(self.seed, index)
        ops = [
            SessionConfig(
                protocol=protocol,
                verification_rounds=rounds,
                key_rounds=self.KEY_ROUNDS,
                attack=attack,
                seed=_session_seed(rng),
            )
            for protocol, attack, rounds in self.attacks
        ]
        return _in_random_order(rng, ops)

    def warm_up(self, lib):
        for protocol, attack, _ in self.attacks[:: len(ATTACK_KINDS)]:
            config = SessionConfig(
                protocol=protocol, verification_rounds=16, key_rounds=20, attack=attack
            )
            lib.format_report(lib.run_session(config))

    execute = Keygen.execute

    def check(self, op, text: str, stats: OpStats) -> list:
        items, problems = _parse_report(text)
        stats.add_report(items)
        if items["outcome"] != session.OUTCOME_ABORT_VERIFY:
            problems.append(f"outcome {items['outcome']} under {op.attack.kind}")
        if items["key.rounds"] != 0:
            problems.append("key phase ran after a failed verification")
        if items["verify.rounds"] != op.verification_rounds:
            problems.append("verification round count differs from the config")
        for name in _check_names(items):
            if items[f"verify.check.{name}.oracle"] == 0.0 and items[
                f"verify.check.{name}.violations"
            ]:
                problems.append(f"violations of {name}, which the oracle forbids")
        return problems

    def check_run(self, results) -> list:
        """Aggregated violation frequencies per attack config and check
        against the oracle, within SIGMA_BOUND binomial sigma."""
        totals = {}
        for op, text in results:
            items = session.parse_flat(text)
            key = (op.protocol, op.attack)
            for name in _check_names(items):
                entry = totals.setdefault((key, name), [0, 0, items[f"verify.check.{name}.oracle"]])
                entry[0] += items[f"verify.check.{name}.rounds"]
                entry[1] += items[f"verify.check.{name}.violations"]
        problems = []
        for ((protocol, attack), name), (rounds, violations, p) in totals.items():
            if rounds and abs(_z(violations / rounds, p, rounds)) > SIGMA_BOUND:
                problems.append(
                    f"{protocol} {attack.kind}{attack.targets}: {name} frequency "
                    f"{violations}/{rounds} is beyond {SIGMA_BOUND} sigma of {p}"
                )
        return problems


def _check_names(items: dict) -> list:
    return [k[len("verify.check.") : -len(".oracle")] for k in items if k.endswith(".oracle")]


@dataclass(frozen=True)
class CertifyOp:
    job: str  # "residuals", "certificate" or "predict"
    party_count: int
    drop: int | None = None  # certificate: index of the dropped check
    attack: AttackModel = AttackModel()


def _two_party_closed_form(attack: AttackModel):
    """Exact (violations in check order, qber) of the two-party channel."""
    if attack.kind == "none":
        return (0.0, 0.0, 0.0, 0.0), 0.0
    if attack.kind in ("intercept-computational", "entangle-probe"):
        return (0.5, 0.5, 0.0, 0.0), 0.25
    if attack.kind == "intercept-key":
        return (0.0, 0.5, 0.5, 0.5), 0.0
    half = attack.strength / 2.0
    return (half,) * 4, half


class Certify(Workload):
    """The no-simulation jobs: residuals, the uniqueness certificate and
    every drop-one-check certificate of both channels, and the attack
    oracle over the attack x target x strength x channel grid."""

    name = "certify"
    min_ops = 1000

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, index: int) -> list:
        rng = _cycle_rng(self.seed, index)
        ops = []
        for party_count in (2, 3):
            ops.append(CertifyOp("residuals", party_count))
            ops.append(CertifyOp("certificate", party_count))
            ops.extend(CertifyOp("certificate", party_count, drop=i) for i in range(4))
        for protocol, target_sets in TARGET_SETS.items():
            party_count = 2 if protocol == "two-party" else 3
            ops.append(CertifyOp("predict", party_count))
            for kind in ATTACK_KINDS:
                for targets in target_sets:
                    strength = float(rng.uniform()) if kind == "depolarize" else 0.0
                    attack = AttackModel(kind, targets, strength)
                    ops.append(CertifyOp("predict", party_count, attack=attack))
        return _in_random_order(rng, ops)

    def warm_up(self, lib):
        for party_count in (2, 3):
            self.execute(CertifyOp("certificate", party_count), lib)
            self.execute(CertifyOp("predict", party_count), lib)

    def execute(self, op: CertifyOp, lib) -> str:
        spec = lib.make_channel(op.party_count)
        if op.job == "residuals":
            residuals = lib.check_residuals(spec)
            return "".join(f"residual.{k} = {v!r}\n" for k, v in residuals.items())
        if op.job == "certificate":
            constraints = channels.constraint_matrices(spec)
            if op.drop is not None:
                del constraints[op.drop]
            cert = lib.stabilized_subspace(constraints, spec.state.dim)
            text = f"dimension = {cert.dimension}\nresidual = {cert.residual!r}\n"
            if cert.dimension == 1:
                overlap = abs(np.vdot(spec.state.amplitudes, cert.basis[0].amplitudes))
                text += f"overlap = {float(overlap)!r}\n"
            return text
        prediction = lib.predict(op.attack, spec)
        lines = [f"violation.{k} = {v!r}\n" for k, v in prediction.violation.items()]
        return "".join(lines) + f"qber = {prediction.qber!r}\n"

    def check(self, op: CertifyOp, text: str, stats: OpStats) -> list:
        items = session.parse_flat(text)
        if op.job == "residuals":
            if len(items) != 4:
                return [f"{len(items)} residuals, expected 4"]
            return [f"{k} = {v}" for k, v in items.items() if not v < RESIDUAL_PASS]
        if op.job == "certificate":
            if op.drop is not None:
                if items["dimension"] > 1:
                    return []
                return [f"dropping check {op.drop} still pins the state"]
            if items["dimension"] != 1:
                return [f"certificate dimension {items['dimension']}"]
            if abs(items["overlap"] - 1.0) >= OVERLAP_TOL:
                return [f"certificate overlap {items['overlap']!r}"]
            return []
        values = [v for k, v in items.items() if k.startswith("violation.")]
        problems = [f"{k} = {v} outside [0, 1]" for k, v in items.items() if not 0.0 <= v <= 1.0]
        if len(values) != 4:
            problems.append(f"{len(values)} violation probabilities, expected 4")
        if op.party_count == 2 or op.attack.kind == "none":
            want, want_qber = _two_party_closed_form(op.attack)
            got = tuple(values) + (items["qber"],)
            if any(abs(g - w) > ORACLE_TOL for g, w in zip(got, want + (want_qber,))):
                problems.append(f"oracle {got} differs from the closed form {want}, {want_qber}")
        return problems


class Sweep(Workload):
    """``ququart-qkd run --repeat K`` through ``cli.main`` over small
    attack-free sessions; the sessions run in the CLI's process pool."""

    name = "sweep"
    VERIFICATION_ROUNDS = 24
    KINDS = Keygen.KINDS
    REPEATS = (2, 3, 4)
    KEY_ROUNDS = _geometric_sizes(15, 40, 240)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.report_path = os.path.join(out_dir, "sweep-report.txt")

    def cycle(self, index: int) -> list:
        rng = _cycle_rng(self.seed, index)
        ops = []
        for j, key_rounds in enumerate(self.KEY_ROUNDS):
            protocol, permits = self.KINDS[j % len(self.KINDS)]
            repeat = self.REPEATS[(j // len(self.KINDS)) % len(self.REPEATS)]
            ops.append((protocol, permits, key_rounds, repeat, _session_seed(rng)))
        return _in_random_order(rng, ops)

    def warm_up(self, lib):
        self.execute(("three-party", True, 20, 2, 0), lib)

    def execute(self, op, lib) -> str:
        protocol, permits, key_rounds, repeat, seed = op
        argv = [
            "run",
            "--protocol", protocol,
            "--verification-rounds", str(self.VERIFICATION_ROUNDS),
            "--key-rounds", str(key_rounds),
            "--sample-fraction", "0.1",
            "--seed", str(seed),
            "--repeat", str(repeat),
            "--report", self.report_path,
        ]
        if not permits:
            argv.append("--no-permission")
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            code = lib.main(argv)
        with open(self.report_path, encoding="ascii") as fh:
            report = fh.read()
        return f"exit = {code}\n{summary.getvalue()}{report}"

    def check(self, op, text: str, stats: OpStats) -> list:
        protocol, permits, _, repeat, seed = op
        head, _, merged = text.partition("\n")
        code = int(head.split("=")[1])
        want_code = 0 if permits else 3
        problems = [] if code == want_code else [f"exit code {code}, expected {want_code}"]
        summary, _, merged = merged.partition("# run ")
        if len(summary.splitlines()) != repeat:
            problems.append(f"{len(summary.splitlines())} summary lines for {repeat} sessions")
        sections = ("# run " + merged).split("\n# run ") if merged else []
        if len(sections) != repeat:
            return problems + [f"{len(sections)} report sections for {repeat} sessions"]
        for i, section in enumerate(sections):
            header, _, body = section.partition("\n")
            if header.removeprefix("# run ") != f"{i} seed={seed + i}":
                problems.append(f"section {i} header {header!r}")
            items, section_problems = _parse_report(body)
            stats.add_report(items)
            problems.extend(section_problems)
            problems.extend(check_attack_free_report(items, permits))
            if items["config.protocol"] != protocol or items["config.seed"] != seed + i:
                problems.append(f"section {i} reports another config")
        return problems


def make(name: str, seed: int, out_dir: str):
    if name == "sweep":
        return Sweep(seed, out_dir)
    return {"keygen": Keygen, "eavesdrop": Eavesdrop, "certify": Certify}[name](seed)


WORKLOADS = ("keygen", "eavesdrop", "certify", "sweep")
