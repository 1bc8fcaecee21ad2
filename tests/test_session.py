import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ququart_qkd import attacks, session
from ququart_qkd.attacks import AttackModel, predict
from ququart_qkd.channels import corrupt_channel, make_channel
from ququart_qkd.session import (
    ConfigError,
    OUTCOME_ABORT_QBER,
    OUTCOME_ABORT_VERIFY,
    OUTCOME_ESTABLISHED,
    OUTCOME_NO_PERMISSION,
    SessionConfig,
    bits_to_hex,
    config_from_mapping,
    emit_report,
    format_flat,
    format_report,
    hex_to_bits,
    parse_flat,
    report_items,
    run_session,
    with_seed,
)

from test_attacks import attack_models

IRC = "intercept-computational"


def two_party_config(**overrides):
    base = dict(protocol="two-party", verification_rounds=400, key_rounds=400, seed=7)
    base.update(overrides)
    return SessionConfig(**base)


def three_party_config(**overrides):
    base = dict(protocol="three-party", verification_rounds=600, key_rounds=400, seed=7)
    base.update(overrides)
    return SessionConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        SessionConfig(protocol="four-party")
    with pytest.raises(ConfigError):
        SessionConfig(verification_rounds=-1)
    with pytest.raises(ConfigError):
        SessionConfig(key_rounds=-5)
    # the documented cap: the measured peak bytes per round, rounded up,
    # keep a session within 4 GiB
    limit = session.MAX_ROUNDS
    assert limit == 2**25 and limit * session.PEAK_BYTES_PER_ROUND == 4 << 30
    for key in ("verification_rounds", "key_rounds"):
        SessionConfig(**{key: limit})
        with pytest.raises(ConfigError):
            SessionConfig(**{key: limit + 1})
    with pytest.raises(ConfigError):
        SessionConfig(sample_fraction=1.0)
    with pytest.raises(ConfigError):
        SessionConfig(sample_fraction=-0.1)
    with pytest.raises(ConfigError):
        SessionConfig(qber_threshold=1.0)
    with pytest.raises(ConfigError):
        SessionConfig(seed=-1)
    with pytest.raises(ConfigError):
        SessionConfig(protocol="two-party", attack=AttackModel(IRC, targets=(2,)))
    assert SessionConfig(protocol="two-party").party_count == 2
    assert SessionConfig(protocol="three-party").party_count == 3


LIBRARY_DEFECTS = [
    ("corrupt", {"corrupt": "false"}),
    ("alice_permits", {"protocol": "three-party", "alice_permits": "no"}),
    ("verification_rounds", {"verification_rounds": 2.5}),
    ("verification_rounds", {"verification_rounds": True}),
    ("seed", {"seed": 1.5}),
    ("sample_fraction", {"sample_fraction": "0.1"}),
    ("attack", {"attack": "intercept-key"}),
    ("report", {"report_path": 3}),
    ("qber_threshold", {"qber_threshold": 10**400}),  # past the float range
]


@pytest.mark.parametrize("key, kwargs", LIBRARY_DEFECTS, ids=[f"{key}-{i}" for i, (key, _) in enumerate(LIBRARY_DEFECTS)])
def test_library_configs_are_checked_without_coercion(key, kwargs):
    # the error names the config key, as it does for a config file
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        SessionConfig(**kwargs)
    if key != "attack":
        mapping = {"report" if k == "report_path" else k: v for k, v in kwargs.items()}
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            config_from_mapping(mapping)


def test_numbers_are_stored_as_their_fields_type():
    config = SessionConfig(verification_rounds=1e3, key_rounds=20.0, sample_fraction=0, seed=np.float64(3))
    assert type(config.verification_rounds) is int and config.verification_rounds == 1000
    assert type(config.key_rounds) is int and type(config.seed) is int
    assert type(config.sample_fraction) is float and type(config.qber_threshold) is float
    assert config == SessionConfig(verification_rounds=1000, key_rounds=20, sample_fraction=0.0, seed=3)
    assert type(config_from_mapping({"key_rounds": 1e3}).key_rounds) is int
    assert type(with_seed(config, 4.0).seed) is int
    assert SessionConfig(report_path=None).report_path is None
    small = dict(verification_rounds=10, key_rounds=20)
    a = format_report(run_session(SessionConfig(**small, sample_fraction=0, qber_threshold=0)))
    b = format_report(run_session(SessionConfig(**small, sample_fraction=0.0, qber_threshold=0.0)))
    assert a == b and "config.sample_fraction = 0.0\n" in a


@st.composite
def small_configs(draw):
    """A session config of few rounds under any attack, an int strength
    allowed, with no report path (a report does not hold it)."""
    protocol = draw(st.sampled_from(session.PROTOCOLS))
    parties = session.PARTY_COUNTS[protocol]
    fraction = st.floats(0.0, 1.0, exclude_max=True)
    return SessionConfig(
        protocol=protocol,
        verification_rounds=draw(st.integers(0, 24)),
        key_rounds=draw(st.integers(0, 24)),
        sample_fraction=draw(fraction),
        qber_threshold=draw(fraction),
        attack=draw(attack_models(parties, st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)))),
        alice_permits=parties == 2 or draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
        corrupt=draw(st.booleans()),
    )


@settings(deadline=None, max_examples=60)
@given(small_configs())
@example(SessionConfig(verification_rounds=0, key_rounds=10, attack=AttackModel("depolarize", (1,), 1)))
def test_a_reports_config_block_reads_back_as_its_config(config):
    # the report's config.* block, read as a config file, is an equal
    # config whose report has the same bytes: an int strength too
    text = format_report(run_session(config))
    block = {key[len("config."):]: value for key, value in parse_flat(text).items() if key.startswith("config.")}
    back = config_from_mapping(block)
    assert back == config
    assert format_report(run_session(back)) == text


def test_config_from_mapping_defaults_and_overrides():
    assert config_from_mapping({}) == SessionConfig()
    assert config_from_mapping({"seed": 3, "report": "x"}) == SessionConfig(seed=3, report_path="x")
    config = config_from_mapping({})
    assert config.protocol == "two-party"
    assert config.verification_rounds == 1000
    assert config.attack.kind == "none"
    config = config_from_mapping(
        {
            "protocol": "three-party",
            "attack": IRC,
            "attack_targets": "bob,charlie",
            "seed": 9,
            "alice_permits": False,
        }
    )
    assert config.attack.targets == (1, 2)
    assert not config.alice_permits
    assert config.seed == 9


def test_config_from_mapping_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_mapping({"rounds": 5})
    with pytest.raises(ConfigError):
        config_from_mapping({"attack_targets": "eve", "attack": IRC})
    with pytest.raises(ConfigError):
        config_from_mapping({"protocol": "two-party", "attack": IRC, "attack_targets": "charlie"})
    with pytest.raises(ConfigError):
        config_from_mapping({"attack": "depolarize", "attack_strength": 2.0})
    with pytest.raises(ConfigError):  # a target without an attack
        config_from_mapping({"attack_targets": "charlie"})
    with pytest.raises(ConfigError):  # withheld permission is three-party only
        config_from_mapping({"protocol": "two-party", "alice_permits": False})


CONFIG_KEYS = (
    "protocol",
    "verification_rounds",
    "key_rounds",
    "sample_fraction",
    "qber_threshold",
    "attack",
    "attack_targets",
    "attack_strength",
    "alice_permits",
    "seed",
    "corrupt",
    "report",
)
# words the parser gives meaning to, so that valid configs are drawn too
CONFIG_WORDS = (
    "two-party",
    "three-party",
    "none",
    "intercept-computational",
    "intercept-key",
    "entangle-probe",
    "depolarize",
    "bob",
    "charlie",
    "bob,charlie",
    "charlie, bob,",
)
CONFIG_VALUES = st.one_of(
    st.integers(-(2**65), 2**65),
    st.floats(),  # NaN and both infinities included
    st.booleans(),
    st.sampled_from(CONFIG_WORDS),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=12),
)


def test_config_keys_are_the_schema():
    assert tuple(session.CONFIG_KEYS) == CONFIG_KEYS


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES))
def test_config_from_mapping_gives_a_config_or_a_config_error(mapping):
    try:
        config = config_from_mapping(mapping)
    except ConfigError:
        return
    assert isinstance(config, SessionConfig)


def test_config_from_mapping_defaults_attack_target_to_bob():
    config = config_from_mapping({"attack": IRC})
    assert config.attack.targets == (1,)


def test_attack_free_two_party_session():
    report = run_session(two_party_config())
    assert report.outcome == OUTCOME_ESTABLISHED
    v, k = report.verify, report.key
    assert v["pass"] and not v["vacuous"]
    assert v["violations"] == 0
    assert v["rounds"] == v["matched"] + v["discarded"]
    for name in ("sx_sx", "ux_ux", "sz_sz", "uz_uz"):
        assert v[f"check.{name}.oracle"] == 0.0
        assert v[f"check.{name}.z"] == 0.0
    assert k["qber"] == 0.0 and k["qber_z"] == 0.0
    assert k["keys_equal"] and k["mismatch_count"] == 0
    assert k["sifted_bits"] == 2 * k["kept"]
    assert k["rounds"] == k["sampled"] + k["kept"]
    assert hex_to_bits(k["alice_hex"], k["alice_bits"]) == hex_to_bits(
        k["bob_hex"], k["bob_bits"]
    )
    # 2 operator announcements + request + two reveals
    assert report.transcript_messages == 5


def test_attack_free_three_party_session():
    report = run_session(three_party_config())
    assert report.outcome == OUTCOME_ESTABLISHED
    assert report.verify["violations"] == 0
    k = report.key
    assert k["deduction_accuracy"] == 1.0
    assert k["keys_equal"]
    assert k["bob_hex"] == k["charlie_hex"]
    # 3 operator announcements + control reveal + request + reveal
    assert report.transcript_messages == 6


def test_no_permission_session():
    report = run_session(three_party_config(alice_permits=False, key_rounds=4000))
    assert report.outcome == OUTCOME_NO_PERMISSION
    k = report.key
    assert k["sifted_bits"] == 0
    assert k["guess_oracle"] == 0.25
    assert abs(k["guess_z"]) <= 4.0
    assert "bob_hex" not in k and "charlie_hex" not in k
    # verification announcements only: the controller never speaks again
    assert report.transcript_messages == 3


def test_intercept_aborts_at_verification():
    report = run_session(two_party_config(attack=AttackModel(IRC, targets=(1,))))
    assert report.outcome == OUTCOME_ABORT_VERIFY
    assert report.verify["violations"] > 0
    assert report.key == {"rounds": 0, "sampled": 0, "kept": 0, "sifted_bits": 0}
    text = format_report(report)
    assert "hex" not in text  # aborts leak no key material


@pytest.mark.parametrize("make_config", [two_party_config, three_party_config])
def test_empty_key_sample_is_flagged_vacuous(make_config):
    # round(0.5 * 1) samples no key round: the qber of 0 checked nothing
    vacuous = run_session(make_config(verification_rounds=40, key_rounds=1, sample_fraction=0.5))
    k = vacuous.key
    assert k["sampled"] == 0 and k["qber"] == 0.0
    assert k["sample_vacuous"] is True
    items = [key for key, _ in report_items(vacuous)]
    assert items.index("key.sample_vacuous") == items.index("key.sampled") + 1
    checked = run_session(make_config(verification_rounds=40, key_rounds=40))
    assert checked.key["sampled"] > 0
    assert checked.key["sample_vacuous"] is False


def test_depolarize_aborts_at_qber_gate():
    # zero verification rounds passes vacuously, so the qber gate catches it
    config = two_party_config(
        verification_rounds=0,
        attack=AttackModel("depolarize", targets=(1,), strength=0.8),
    )
    report = run_session(config)
    assert report.verify["vacuous"] and report.verify["pass"]
    assert report.outcome == OUTCOME_ABORT_QBER
    assert report.key["qber"] > 0.0
    assert "alice_hex" not in report.key


def test_vacuous_pass_is_flagged_but_not_fatal():
    report = run_session(two_party_config(verification_rounds=0))
    assert report.verify["vacuous"]
    assert report.outcome == OUTCOME_ESTABLISHED


def test_qber_threshold_tolerates_noise():
    config = two_party_config(
        verification_rounds=0,
        key_rounds=2000,
        qber_threshold=0.6,
        attack=AttackModel("depolarize", targets=(1,), strength=0.8),
    )
    report = run_session(config)
    assert report.outcome == OUTCOME_ESTABLISHED
    assert report.key["qber"] > 0.0
    assert report.key["keys_equal"] is False
    assert report.key["mismatch_count"] > 0


def test_reports_are_deterministic():
    a = format_report(run_session(two_party_config()))
    b = format_report(run_session(two_party_config()))
    assert a == b
    c = format_report(run_session(two_party_config(seed=8)))
    assert a != c


def test_report_round_trips_through_the_flat_format():
    report = run_session(two_party_config(verification_rounds=200, key_rounds=200))
    items = report_items(report)
    parsed = parse_flat(format_report(report))
    assert list(parsed) == [k for k, _ in items]
    assert parsed == dict(items)
    assert parsed["schema_version"] == "3"
    assert parsed["outcome"] == OUTCOME_ESTABLISHED
    assert parsed["config.seed"] == 7


def test_report_file_emission(tmp_path):
    report = run_session(two_party_config(verification_rounds=100, key_rounds=100))
    path = tmp_path / "session.report"
    emit_report(format_report(report), str(path))
    assert parse_flat(path.read_text()) == dict(report_items(report))


def test_report_emission_failure_names_the_path():
    report = run_session(two_party_config(verification_rounds=50, key_rounds=50))
    with pytest.raises(OSError, match="/nonexistent/session.report"):
        emit_report(format_report(report), "/nonexistent/session.report")


def test_flat_format_values():
    text = format_flat(
        [("a", True), ("b", False), ("c", 3), ("d", 0.25), ("e", 'say "hi"')]
    )
    assert text == 'a = true\nb = false\nc = 3\nd = 0.25\ne = "say \\"hi\\""\n'
    parsed = parse_flat("# comment\n\n" + text)
    assert parsed == {"a": True, "b": False, "c": 3, "d": 0.25, "e": 'say "hi"'}


def test_flat_format_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_flat("no assignment here")


def test_flat_floats_round_trip_exactly():
    values = [0.1, 1 / 3, 2.5e-17, float(np.float64(0.2499999999999999))]
    for v in values:
        assert parse_flat(format_flat([("x", v)]))["x"] == v


def test_hex_packing():
    assert bits_to_hex((1, 0, 1, 1, 0, 0, 1, 1)) == "b3"
    assert bits_to_hex((1, 1)) == "c0"
    assert bits_to_hex(()) == ""
    rng = np.random.default_rng(3)
    for length in (2, 6, 8, 10, 34):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=length))
        assert hex_to_bits(bits_to_hex(bits), length) == bits
    with pytest.raises(ValueError):
        hex_to_bits("c1", 2)  # nonzero padding must be rejected


FLAT_VALUES = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E)),  # printable ASCII
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)


@settings(deadline=None)
@given(st.lists(FLAT_VALUES, max_size=8))
def test_flat_format_round_trips(values):
    items = [(f"k{i}", v) for i, v in enumerate(values)]
    parsed = parse_flat(format_flat(items))
    assert list(parsed) == [k for k, _ in items]
    for (_, want), got in zip(items, parsed.values()):
        assert type(got) is type(want)
        assert got == want
        if isinstance(want, float):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


def per_byte_hex(bits) -> str:
    """Hex packing as a loop over bytes, most significant bit first and
    the tail zero-padded: the reference for ``bits_to_hex``."""
    out = []
    for start in range(0, len(bits), 8):
        byte = 0
        for i, b in enumerate(bits[start : start + 8]):
            byte |= b << (7 - i)
        out.append(f"{byte:02x}")
    return "".join(out)


@settings(deadline=None)
@given(st.lists(st.integers(0, 1), max_size=80))
def test_hex_packing_matches_the_per_byte_loop_and_round_trips(bits):
    bits = tuple(bits)
    hex_string = bits_to_hex(bits)
    assert hex_string == per_byte_hex(bits)
    assert bits_to_hex(np.array(bits, dtype=np.uint8)) == hex_string
    assert hex_to_bits(hex_string, len(bits)) == bits


def test_summary_line_mentions_the_essentials():
    report = run_session(two_party_config(verification_rounds=100, key_rounds=100))
    line = report.summary_line()
    assert "outcome=key-established" in line
    assert "qber=0.0" in line
    assert "seed=7" in line


def test_with_seed_changes_only_the_seed():
    config = two_party_config()
    reseeded = with_seed(config, 99)
    assert reseeded.seed == 99
    assert reseeded.protocol == config.protocol
    assert reseeded.key_rounds == config.key_rounds


def test_corrupt_channel_session_aborts():
    report = run_session(two_party_config(corrupt=True))
    assert report.outcome == OUTCOME_ABORT_VERIFY
    assert report.verify["violations"] > 0


# ---------------------------------------------------------------------------
# the oracle memo

# the attacks of tools/report_grid.py: none, and every kind on every valid
# target set, depolarize at strengths 0.3 and 1
GRID_KINDS = [
    (IRC, 0.0),
    ("intercept-key", 0.0),
    ("entangle-probe", 0.0),
    ("depolarize", 0.3),
    ("depolarize", 1.0),
]
GRID_ATTACKS = [
    (AttackModel(kind, targets, strength), parties)
    for parties, target_sets in ((2, [(1,)]), (3, [(1,), (2,), (1, 2)]))
    for targets in target_sets
    for kind, strength in GRID_KINDS
] + [(AttackModel(), 2), (AttackModel(), 3)]


def oracle_values(report) -> dict:
    """The oracle's values a report carries: per check, and the qber."""
    values = {k: v for k, v in report.verify.items() if k.endswith(".oracle")}
    return dict(values, qber=report.key["qber_oracle"])


def test_memoised_oracles_equal_fresh_predictions():
    session._built_in_oracle.cache_clear()
    # the second pass reads every oracle from the memo, which holds them all
    for _ in range(2):
        for model, parties in GRID_ATTACKS:
            want = predict(model, make_channel(parties))
            assert repr(session._built_in_oracle(model, parties)) == repr(want)
            # no verification rounds pass vacuously, so the key phase runs
            config = SessionConfig(
                "two-party" if parties == 2 else "three-party",
                verification_rounds=0,
                key_rounds=1,
                qber_threshold=0.9,
                attack=model,
            )
            checks = {f"check.{name}.oracle": p for name, p in want.violation.items()}
            assert oracle_values(run_session(config)) == dict(checks, qber=want.qber)
    assert session._built_in_oracle.cache_info().misses == len(GRID_ATTACKS)


def test_run_session_predicts_on_a_miss_and_on_every_corrupt_session(monkeypatch):
    calls = []

    def counted(model, spec):
        calls.append(model)
        return predict(model, spec)

    # the misses go through session's own binding, where a wrapper sees them
    monkeypatch.setattr(session, "predict", counted)
    session._built_in_oracle.cache_clear()
    model = AttackModel("intercept-key", (1,))
    for corrupt, want in ((False, 1), (True, 4)):
        for seed in range(3):
            config = two_party_config(verification_rounds=20, key_rounds=20, seed=seed)
            run_session(replace(config, attack=model, corrupt=corrupt))
        assert len(calls) == want


@pytest.mark.parametrize("make_config", [two_party_config, three_party_config])
@pytest.mark.parametrize(
    "model", [AttackModel(), AttackModel("intercept-key", (1,)), AttackModel("depolarize", (1,), 0.3)]
)
def test_corrupt_session_after_a_clean_one_carries_the_corrupt_oracle(make_config, model):
    # no verification rounds pass vacuously, so both reports carry a qber oracle
    config = make_config(verification_rounds=0, key_rounds=40, qber_threshold=0.9, attack=model)
    clean = oracle_values(run_session(config))
    corrupt = oracle_values(run_session(replace(config, corrupt=True)))
    want = predict(model, corrupt_channel(make_channel(config.party_count)))
    checks = {f"check.{name}.oracle": p for name, p in want.violation.items()}
    assert corrupt == dict(checks, qber=want.qber)
    assert corrupt != clean


def test_predict_recomputes_on_every_call(monkeypatch):
    calls = []
    real = attacks.attack_channel

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(attacks, "attack_channel", counted)
    model, spec = AttackModel("intercept-key", (1,)), make_channel(2)
    predictions = [repr(attacks.predict(model, spec)) for _ in range(3)]
    assert len(calls) == 3
    assert len(set(predictions)) == 1


# ---------------------------------------------------------------------------
# streams built on first use, and table formatting


def spawned_streams(seed):
    children = np.random.SeedSequence(seed).spawn(len(session.STREAM_ROLES))
    return {role: np.random.Generator(np.random.PCG64(ss)) for role, ss in zip(session.STREAM_ROLES, children)}


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_streams_built_on_first_read_equal_the_spawned_streams(seed):
    rng = np.random.default_rng(seed % 1000)
    orders = [session.STREAM_ROLES[::-1]] + [
        tuple(map(str, rng.permutation(session.STREAM_ROLES))) for _ in range(6)
    ]
    for order in orders:
        streams, spawned = session._named_streams(seed), spawned_streams(seed)
        for i, role in enumerate(order):
            assert set(streams) == set(order[:i]), "a role was built before its first read"
            stream = streams[role]
            assert streams[role] is stream
            assert stream.bit_generator.state == spawned[role].bit_generator.state, (order, role)
            assert (stream.random(3) == spawned[role].random(3)).all()
    with pytest.raises(KeyError):
        session._named_streams(seed)["eve"]


def built_streams(monkeypatch, config):
    """The roles whose streams ``run_session(config)`` built."""
    made = []

    def recorded(seed):
        made.append(session._NamedStreams(seed))
        return made[-1]

    monkeypatch.setattr(session, "_named_streams", recorded)
    run_session(config)
    (streams,) = made
    return set(streams)


def test_a_session_builds_only_the_streams_it_draws_from(monkeypatch):
    # attack-free phases never read the attack stream, a two-party session
    # never reads charlie's, and without permission nothing is sampled
    assert built_streams(monkeypatch, two_party_config()) == {"alice", "bob", "public"}
    assert built_streams(monkeypatch, three_party_config()) == {"alice", "bob", "charlie", "public"}
    config = three_party_config(alice_permits=False)
    assert built_streams(monkeypatch, config) == {"alice", "bob", "charlie"}
    config = two_party_config(attack=AttackModel(IRC, (1,)), verification_rounds=40)
    assert built_streams(monkeypatch, config) == {"alice", "bob", "attack"}


def isinstance_chain(value) -> str:
    """``format_value`` of a report's exact types as an isinstance chain."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


FORMAT_VALUES = [
    True, False, 0, -3, 2**70,
    0.0, -0.0, 0.1, 1e-300, math.inf, -math.inf, 2.5e16,
    "", "plain", 'say "hi"', "back\\slash", '\\"',
]


@pytest.mark.parametrize("value", FORMAT_VALUES, ids=[f"{type(v).__name__}-{v!r}" for v in FORMAT_VALUES])
def test_table_formatting_equals_the_isinstance_chain(value):
    assert session.format_value(value) == isinstance_chain(value)
    assert format_flat([("k", value)]) == f"k = {isinstance_chain(value)}\n"


UNSUPPORTED_VALUES = [
    None, np.bool_(True), [1], 1j, np.float32(0.5),
    np.int64(-7), np.int32(5), np.uint8(200),
    np.float64(0.1), np.float64(-2.0), np.float64(math.inf),
]


@pytest.mark.parametrize("value", UNSUPPORTED_VALUES)
def test_unsupported_report_values_raise_type_error(value):
    # a report holds exact bool, int, float and str values only, so a
    # numpy scalar, even a float subclass, is an error and not a coercion
    with pytest.raises(TypeError, match=type(value).__name__):
        session.format_value(value)
    with pytest.raises(TypeError, match=type(value).__name__):
        format_flat([("k", value)])
