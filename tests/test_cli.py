import pytest

from ququart_qkd.cli import main
from ququart_qkd.session import parse_flat


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_channel_passes_for_builtin_channels(capsys):
    code, out, _ = run_cli(capsys, "verify-channel")
    assert code == 0
    values = parse_flat(out)
    assert values["two_party.subspace.dimension"] == 1
    assert values["three_party.subspace.dimension"] == 1
    assert abs(values["two_party.subspace.overlap"] - 1.0) < 1e-10
    assert abs(values["three_party.subspace.overlap"] - 1.0) < 1e-10
    for key, value in values.items():
        if ".residual." in key:
            assert value < 1e-12


def test_verify_channel_single_protocol(capsys):
    code, out, _ = run_cli(capsys, "verify-channel", "--protocol", "three-party")
    assert code == 0
    assert "two_party" not in out
    assert "three_party.residual.sx_sx_sx = 0.0" in out


def test_verify_channel_corrupt_is_a_detected_failure(capsys):
    code, out, _ = run_cli(capsys, "verify-channel", "--protocol", "two-party", "--corrupt")
    assert code == 2
    values = parse_flat(out)
    assert values["two_party.residual.sx_sx"] > 0.1


def test_predict_prints_the_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--protocol", "two-party", "--attack", "intercept-computational"
    )
    assert code == 0
    values = parse_flat(out)
    assert values["violation.sx_sx"] == 0.5
    assert values["violation.ux_ux"] == 0.5
    assert values["violation.sz_sz"] == 0.0
    assert values["violation.uz_uz"] == 0.0
    assert values["qber"] == pytest.approx(0.25, abs=1e-12)


def test_predict_depolarize_strength(capsys):
    code, out, _ = run_cli(
        capsys,
        "predict",
        "--protocol",
        "three-party",
        "--attack",
        "depolarize",
        "--attack-target",
        "bob",
        "--attack-strength",
        "1.0",
    )
    assert code == 0
    values = parse_flat(out)
    assert values["violation.oz_oz_oz"] == pytest.approx(0.375, abs=1e-12)
    assert values["qber"] == pytest.approx(0.5, abs=1e-12)


def test_run_attack_free_session(capsys, tmp_path):
    path = tmp_path / "out.report"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--protocol",
        "two-party",
        "--verification-rounds",
        "300",
        "--key-rounds",
        "300",
        "--seed",
        "5",
        "--report",
        str(path),
    )
    assert code == 0
    assert "outcome=key-established" in out
    values = parse_flat(path.read_text())
    assert values["outcome"] == "key-established"
    assert values["config.seed"] == 5


def test_run_detects_interception(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--protocol",
        "two-party",
        "--verification-rounds",
        "500",
        "--key-rounds",
        "100",
        "--attack",
        "intercept-computational",
        "--seed",
        "1",
    )
    assert code == 2
    assert "outcome=aborted-verification" in out


def test_run_without_permission(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--protocol",
        "three-party",
        "--verification-rounds",
        "200",
        "--key-rounds",
        "200",
        "--no-permission",
        "--seed",
        "2",
    )
    assert code == 3
    assert "outcome=no-permission" in out


def test_run_corrupt_channel_negative_control(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--protocol",
        "two-party",
        "--verification-rounds",
        "400",
        "--key-rounds",
        "100",
        "--corrupt-channel",
        "--seed",
        "3",
    )
    assert code == 2
    assert "outcome=aborted-verification" in out


def test_run_repeat_merges_reports(capsys, tmp_path):
    path = tmp_path / "merged.report"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--protocol",
        "two-party",
        "--verification-rounds",
        "100",
        "--key-rounds",
        "100",
        "--seed",
        "7",
        "--repeat",
        "2",
        "--report",
        str(path),
    )
    assert code == 0
    assert out.count("outcome=key-established") == 2
    text = path.read_text()
    assert "# run 0 seed=7" in text
    assert "# run 1 seed=8" in text
    assert text.count("schema_version") == 2


def test_config_file_with_flag_overrides(capsys, tmp_path):
    config = tmp_path / "session.config"
    config.write_text(
        'protocol = "two-party"\nverification_rounds = 150\nkey_rounds = 150\nseed = 11\n'
    )
    path = tmp_path / "out.report"
    code, _, _ = run_cli(
        capsys, "run", "--config", str(config), "--seed", "12", "--report", str(path)
    )
    assert code == 0
    values = parse_flat(path.read_text())
    assert values["config.verification_rounds"] == 150
    assert values["config.seed"] == 12  # flag beats file


def test_config_errors_exit_one(capsys):
    code, _, err = run_cli(
        capsys,
        "run",
        "--protocol",
        "two-party",
        "--attack",
        "intercept-computational",
        "--attack-target",
        "charlie",
    )
    assert code == 1
    assert "config error" in err


def test_unknown_config_key_exits_one(capsys, tmp_path):
    config = tmp_path / "bad.config"
    config.write_text("rounds = 5\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1
    assert "config error" in err


@pytest.mark.parametrize(
    "line",
    [
        'key_rounds = "abc"',  # a string where a count belongs
        "seed = 1.5",  # not silently truncated to 1
        'alice_permits = "false"',  # a quoted string is not a bool
        "key_rounds = abc",  # neither a number nor quoted
        "key_rounds 5",  # no assignment
        'attack = "d\u00e9polarize"',  # a byte outside ASCII
        "seed = 1\nseed = 2",  # one key given twice
    ],
)
def test_mistyped_config_values_exit_one(capsys, tmp_path, line):
    config = tmp_path / "typed.config"
    config.write_text(f'protocol = "three-party"\nverification_rounds = 40\n{line}\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1
    assert err.startswith("config error:")
    assert out == ""
    if line == "key_rounds = abc":  # the parse error names its line and key
        assert "line 3" in err and "key_rounds" in err


@pytest.mark.parametrize("key", ["verification_rounds", "key_rounds"])
def test_round_counts_beyond_an_index_exit_one(capsys, tmp_path, key):
    config = tmp_path / "huge.config"
    config.write_text(f"{key} = 1e30\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1
    assert err.startswith("config error:") and "Traceback" not in err
    assert out == ""


def test_repeat_below_one_exits_one(capsys):
    code, out, err = run_cli(capsys, "run", "--verification-rounds", "10", "--repeat", "0")
    assert code == 1
    assert err.startswith("config error:")
    assert out == ""


def test_missing_config_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent/file.config")
    assert code == 1
    assert "error" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus-flag"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--attack", "jamming"])
    assert exc.value.code == 1
