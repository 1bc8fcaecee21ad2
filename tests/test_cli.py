import argparse
import concurrent.futures
import importlib.util
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ququart_qkd import cli, session
from ququart_qkd.attacks import ATTACK_KINDS
from ququart_qkd.cli import main
from ququart_qkd.session import (
    OUTCOME_ABORT_VERIFY,
    OUTCOME_ESTABLISHED,
    OUTCOME_NO_PERMISSION,
    config_from_mapping,
    parse_flat,
    run_session,
)

_GRID = Path(__file__).resolve().parents[1] / "tools" / "report_grid.py"
_spec = importlib.util.spec_from_file_location("report_grid", _GRID)
report_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_grid)


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


# verify-channel's whole stdout for both protocols.  The certificate's
# residual and overlap are printed with repr, so their last digits follow
# the eigensolve of the numpy (and LAPACK) they were recorded with.
VERIFY_CHANNEL_RECORDED_WITH_NUMPY = "2.4.6"
VERIFY_CHANNEL_STDOUT = {
    "two-party": (
        "two_party.residual.sx_sx = 0.0\n"
        "two_party.residual.ux_ux = 0.0\n"
        "two_party.residual.sz_sz = 0.0\n"
        "two_party.residual.uz_uz = 0.0\n"
        "two_party.subspace.dimension = 1\n"
        "two_party.subspace.residual = 1.7554167342883506e-16\n"
        "two_party.subspace.overlap = 1.0\n"
    ),
    "three-party": (
        "three_party.residual.sx_sx_sx = 0.0\n"
        "three_party.residual.oz_oz_oz = 0.0\n"
        "three_party.residual.ex_ex_id = 0.0\n"
        "three_party.residual.id_ex_ex = 0.0\n"
        "three_party.subspace.dimension = 1\n"
        "three_party.subspace.residual = 2.3551386880256624e-16\n"
        "three_party.subspace.overlap = 0.9999999999999998\n"
    ),
}


@pytest.mark.parametrize("protocol", [None, "two-party", "three-party"])
def test_verify_channel_prints_the_pinned_digits(capsys, protocol):
    argv = ["verify-channel"] + (["--protocol", protocol] if protocol else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    expected = VERIFY_CHANNEL_STDOUT[protocol] if protocol else "".join(VERIFY_CHANNEL_STDOUT.values())
    assert out == expected, (
        f"verify-channel printed other digits; the pinned ones were recorded with "
        f"numpy {VERIFY_CHANNEL_RECORDED_WITH_NUMPY} (this is numpy {np.__version__})"
    )


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


@pytest.mark.parametrize("repeat", ["1", "2"])
def test_report_write_failure_names_the_path(capsys, repeat):
    code, _, err = run_cli(
        capsys,
        "run",
        "--verification-rounds",
        "50",
        "--key-rounds",
        "50",
        "--repeat",
        repeat,
        "--report",
        "/nonexistent/run.report",
    )
    assert code == 1
    assert err.startswith("error: cannot write report to /nonexistent/run.report")


@pytest.mark.parametrize("message", ["", "Unable to allocate 72.8 TiB for an array"])
def test_run_out_of_memory_is_a_one_line_error(capsys, monkeypatch, message):
    # a round count within the cap passes the config check and, on a
    # machine with less memory, fails at allocation; no large array is
    # allocated here
    def out_of_memory(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_session", out_of_memory)
    code, out, err = run_cli(capsys, "run", "--key-rounds", str(session.MAX_ROUNDS))
    assert code == 1
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--verification-rounds", "--key-rounds"])
def test_run_past_the_round_cap_is_a_one_line_error(capsys, monkeypatch, flag):
    # rejected by the config check, before any session runs
    monkeypatch.setattr(cli, "run_session", None)
    code, out, err = run_cli(capsys, "run", flag, str(session.MAX_ROUNDS + 1))
    assert code == 1
    assert out == ""
    assert err == f"config error: round counts must be at most {session.MAX_ROUNDS}\n"
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def reports_by_outcome():
    """One real report per outcome: an attack-free two-party session, a
    three-party session whose controller withholds permission, and an
    intercepted session that fails verification."""
    mappings = (
        {"verification_rounds": 100, "key_rounds": 100, "seed": 7},
        {
            "protocol": "three-party",
            "verification_rounds": 200,
            "key_rounds": 200,
            "alice_permits": False,
            "seed": 2,
        },
        {
            "verification_rounds": 500,
            "key_rounds": 100,
            "attack": "intercept-computational",
            "seed": 1,
        },
    )
    configs = [config_from_mapping(mapping) for mapping in mappings]
    reports = [run_session(config) for config in configs]
    return {report.outcome: report for report in reports}


ESTABLISHED, NO_PERMISSION, ABORTED = OUTCOME_ESTABLISHED, OUTCOME_NO_PERMISSION, OUTCOME_ABORT_VERIFY


@pytest.mark.parametrize(
    "outcomes, code",
    [
        ((ESTABLISHED,), 0),
        ((NO_PERMISSION,), 3),
        ((ABORTED,), 2),
        ((ESTABLISHED, ESTABLISHED), 0),
        ((ESTABLISHED, NO_PERMISSION), 3),
        ((NO_PERMISSION, ABORTED), 2),
        ((ABORTED, ESTABLISHED, NO_PERMISSION), 2),
        # on two cores the caller runs the first ceil(K / 2) seeds and the
        # worker the rest: the deciding outcome from either share
        ((ABORTED, ESTABLISHED, ESTABLISHED), 2),
        ((ESTABLISHED, ESTABLISHED, ABORTED), 2),
        ((NO_PERMISSION, ESTABLISHED, ESTABLISHED), 3),
        ((ESTABLISHED, ESTABLISHED, NO_PERMISSION), 3),
        ((ESTABLISHED, NO_PERMISSION, ESTABLISHED, ESTABLISHED), 3),
        ((ESTABLISHED, NO_PERMISSION, ESTABLISHED, ABORTED), 2),
    ],
)
def test_run_folds_exit_codes(capsys, monkeypatch, reports_by_outcome, outcomes, code):
    # an abort outweighs a withheld permission, which outweighs success;
    # for a single run the fold is the outcome's own exit code
    reports = [reports_by_outcome[outcome] for outcome in outcomes]
    monkeypatch.setattr(cli, "run_session", lambda config: reports[config.seed])
    monkeypatch.setattr(cli, "_cores", lambda: 2)
    # threads share the stand-in above, which worker processes would not
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor
    )
    got, out, _ = run_cli(capsys, "run", "--seed", "0", "--repeat", str(len(outcomes)))
    assert got == code
    if len(outcomes) == 1:
        assert got == cli.EXIT_BY_OUTCOME[outcomes[0]]
    assert out.splitlines() == [report.summary_line() for report in reports]


@pytest.mark.parametrize(
    "cores, repeat, pools, own",
    [
        (1, 1, [], 1),
        (1, 3, [], 3),
        (2, 1, [], 1),
        (2, 2, [1], 1),
        (2, 3, [1], 2),
        (2, 5, [1], 3),
        (3, 5, [2], 2),
        (8, 1, [], 1),
        (8, 3, [2], 1),
    ],
)
def test_run_repeat_splits_seeds_between_caller_and_workers(
    capsys, monkeypatch, reports_by_outcome, cores, repeat, pools, own
):
    """The calling thread runs the first ``own`` seeds; a pool of
    ``min(repeat, cores) - 1`` workers, built only when that is not 0,
    runs the rest; every seed runs exactly once."""
    built, ran = [], []
    report = reports_by_outcome[ESTABLISHED]

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    def session(config):
        ran.append((config.seed, threading.get_ident()))
        return report

    monkeypatch.setattr(cli, "_cores", lambda: cores)
    monkeypatch.setattr(cli, "run_session", session)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    code, out, _ = run_cli(capsys, "run", "--seed", "40", "--repeat", str(repeat))
    assert code == 0
    assert out.count("outcome=key-established") == repeat
    assert built == pools
    assert sorted(seed for seed, _ in ran) == list(range(40, 40 + repeat))
    caller = threading.get_ident()
    assert sorted(seed for seed, thread in ran if thread == caller) == list(range(40, 40 + own))


def test_run_repeat_leaves_no_worker_running(capsys, monkeypatch, tmp_path):
    # a real pool of one worker beside the calling process
    monkeypatch.setattr(cli, "_cores", lambda: 2)
    path = tmp_path / "merged.report"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--verification-rounds",
        "20",
        "--key-rounds",
        "40",
        "--seed",
        "7",
        "--repeat",
        "3",
        "--report",
        str(path),
    )
    assert code == 0
    assert [line.split()[-1] for line in out.splitlines()] == ["seed=7", "seed=8", "seed=9"]
    text = path.read_text()
    assert text.index("# run 0 seed=7") < text.index("# run 1 seed=8") < text.index("# run 2 seed=9")
    assert multiprocessing.active_children() == []


def test_run_without_a_pool_does_not_import_one():
    script = (
        "import sys\n"
        "from ququart_qkd import cli\n"
        "cli._cores = lambda: 1\n"
        "for repeat in ('1', '3'):\n"
        "    code = cli.main(['run', '--verification-rounds', '10', '--key-rounds', '10',\n"
        "                     '--repeat', repeat])\n"
        "    assert code == 0, code\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("outcome=key-established") == 4


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
    for argv in (
        ("--protocol", "two-party", "--attack", "intercept-computational", "--attack-target", "charlie"),
        ("--attack-target", "charlie"),  # a target without an attack
        ("--no-permission",),  # withheld permission on the two-party protocol
    ):
        code, out, err = run_cli(capsys, "run", *argv)
        assert code == 1, argv
        assert "config error" in err and out == "", argv


@pytest.mark.parametrize("form", ["flag", "file"])
def test_an_empty_report_path_exits_one(capsys, tmp_path, form):
    # an empty path names no file: a config error before any session runs
    argv = ["--report", ""]
    if form == "file":
        config = tmp_path / "session.config"
        config.write_text('report = ""\n')
        argv = ["--config", str(config)]
    code, out, err = run_cli(capsys, "run", "--verification-rounds", "20", "--key-rounds", "20", *argv)
    assert code == 1
    assert err == "config error: report must be a non-empty path\n" and out == ""


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


def subcommand_parser(command):
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[command]


# the config keys whose flags predict takes: those it reads
PREDICT_KEYS = {"protocol", "attack", "attack_targets", "attack_strength", "corrupt"}


@pytest.mark.parametrize(
    "command, keys, others",
    [("run", set(session.CONFIG_KEYS), {"config", "repeat"}), ("predict", PREDICT_KEYS, {"config"})],
)
def test_session_flags_store_under_the_schema_keys(command, keys, others):
    # every flag's dest is a config key or one of the command's own options
    sub = subcommand_parser(command)
    dests = {action.dest for action in sub._actions} - {"help"}
    assert dests == keys | others
    given = vars(sub.parse_args([]))
    assert all(given[key] is None for key in keys)
    switches = ["--corrupt-channel"] + (["--no-permission"] if command == "run" else [])
    flags = vars(sub.parse_args(switches))
    assert flags["corrupt"] is True and flags.get("alice_permits", False) is False
    choices = {action.dest: action.choices for action in sub._actions if action.choices}
    assert tuple(choices["attack"]) == ATTACK_KINDS
    assert tuple(choices["attack_targets"]) == tuple(session.TARGET_POSITIONS) == ("bob", "charlie")
    assert tuple(choices["protocol"]) == session.PROTOCOLS


@pytest.mark.parametrize(
    "flag",
    [
        ["--verification-rounds", "10"],
        ["--key-rounds", "7"],
        ["--sample-fraction", "0.2"],
        ["--qber-threshold", "0.2"],
        ["--no-permission"],
        ["--seed", "5"],
        ["--report", "out.report"],
    ],
    ids=lambda flag: flag[0],
)
def test_predict_rejects_the_flags_it_does_not_read(capsys, tmp_path, monkeypatch, flag):
    # it once took them, exited 0 and wrote nothing
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--protocol", "three-party", *flag])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_predict_config_file_is_checked_in_full(capsys, tmp_path):
    # a config file may hold every key, each checked, though predict reads few
    config = tmp_path / "session.config"
    config.write_text('protocol = "three-party"\nseed = 5\nkey_rounds = 7\nalice_permits = false\n')
    code, out, _ = run_cli(capsys, "predict", "--config", str(config))
    assert code == 0 and "qber = " in out
    config.write_text('protocol = "two-party"\nseed = "5"\n')
    code, out, err = run_cli(capsys, "predict", "--config", str(config))
    assert (code, out) == (1, "") and err.startswith("config error:")


def config_file_lines(flags):
    """The config file lines that stand for ``run`` flags, written out by
    hand: each valued flag's key with its value, quoted for the strings."""
    keys = {
        "--protocol": ("protocol", str),
        "--verification-rounds": ("verification_rounds", int),
        "--key-rounds": ("key_rounds", int),
        "--attack": ("attack", str),
        "--attack-target": ("attack_targets", str),
        "--attack-strength": ("attack_strength", float),
        "--seed": ("seed", int),
        "--report": ("report", str),
    }
    switches = {"--no-permission": "alice_permits = false", "--corrupt-channel": "corrupt = true"}
    lines, targets, args = [], [], iter(flags)
    for flag in args:
        if flag in switches:
            lines.append(switches[flag])
            continue
        key, kind = keys[flag]
        value = next(args)
        if flag == "--attack-target":
            targets.append(value)
        else:
            lines.append(f'{key} = "{value}"' if kind is str else f"{key} = {value}")
    if targets:
        lines.append(f'attack_targets = "{",".join(targets)}"')
    return lines


@pytest.mark.parametrize("label, flags", report_grid.CLI_CONFIGS, ids=[c[0] for c in report_grid.CLI_CONFIGS])
@pytest.mark.parametrize("repeat", [1, 3])
def test_config_file_gives_the_bytes_of_its_flags(capsys, tmp_path, label, flags, repeat):
    # report_grid's --cli configs, each once as flags and once as a file
    runs = {}
    for form in ("flags", "file"):
        path = tmp_path / f"{form}.report"
        argv = [*flags, "--verification-rounds", "60", "--key-rounds", "120", "--seed", "11"]
        argv += ["--report", str(path)]
        if form == "file":
            config = tmp_path / "session.config"
            config.write_text("".join(line + "\n" for line in config_file_lines(argv)))
            argv = ["--config", str(config)]
        code, out, err = run_cli(capsys, "run", *argv, "--repeat", str(repeat))
        runs[form] = (code, out, err, path.read_text())
    assert runs["file"] == runs["flags"]
    assert runs["flags"][1].count("outcome=") == repeat
