"""Command-line interface: exit codes, formats, determinism."""

import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superdenom import analytic, cli, roots
from superdenom import identities as ids
from superdenom.cli import main, parse_args
from superdenom.series import MAX_CUTOFF


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_verify_denom_text(capsys):
    code, out = run(capsys, "verify-denom", "--order", "8")
    assert code == 0
    assert "MATCHED" in out


def test_verify_denom_json(capsys):
    code, out = run(capsys, "verify-denom", "--order", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] is True
    assert doc["first_diffs"] == []
    assert "millis" not in doc


@pytest.mark.parametrize("cmd", ["verify-prefactor", "verify-finite",
                                 "verify-sl21", "verify-talpha-tgamma",
                                 "ratio-support"])
def test_all_verifiers_exit_zero(capsys, cmd):
    code, _ = run(capsys, cmd, "--order", "8")
    assert code == 0


def _drop_first_schedule_family(monkeypatch):
    monkeypatch.setattr(ids, "_SCHEDULE", ids._SCHEDULE[1:])


def _reflect_as_identity(monkeypatch):
    monkeypatch.setattr(roots, "reflect", lambda system, nu, v: v)


_MISMATCH_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "mismatch_stdout.json").read_text())


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cmd, fault", [
    ("verify-denom", _drop_first_schedule_family),
    ("ratio-support", _drop_first_schedule_family),
    ("verify-finite", _reflect_as_identity),
], ids=["verify-denom", "ratio-support", "verify-finite"])
def test_mismatch_keeps_its_stdout(monkeypatch, fresh_caches, capsys, cmd,
                                   fault, fmt):
    # a broken builder's verdict, byte for byte: the diff lines or
    # first_diffs, at most 20 of them, and the extra checks of the
    # verifiers that have them
    fault(monkeypatch)
    code, out = run(capsys, cmd, "--order", "8", "--format", fmt)
    assert code == 1
    assert out == _MISMATCH_STDOUT[f"{cmd} {fmt}"]


def test_negative_order_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-denom", "--order", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, option, value", [
    (["verify-denom", "--order", "abc"], "order", "abc"),
    (["dump", "--expr", "lhs", "--order", "abc"], "order", "abc"),
    (["jacobi", "--max-n", "x"], "max-n", "x"),
    (["verify-denom", "--order", "3_0"], "order", "3_0"),
    (["verify-denom", "--order", "\u0663"], "order", "\u0663"),
    (["jacobi", "--max-n", "1_0"], "max-n", "1_0"),
], ids=["verify-denom", "dump", "jacobi", "underscore", "arabic-indic-digit",
        "jacobi-underscore"])
def test_non_integer_order_rejected(capsys, argv, option, value):
    # the message names the option that was given; only ASCII decimals
    # count, not the digit separators or other digits that int() takes
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[1] == (f"superdenom {argv[0]}: error: argument --{option}: "
                      f"{option} must be an integer, not {value!r}")


@pytest.mark.parametrize("argv", [
    ["verify-denom", "--order", str(MAX_CUTOFF + 1)],
    ["jacobi", "--max-n", str(MAX_CUTOFF + 1)],
])
def test_order_above_ceiling_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "ceiling" in capsys.readouterr().err


def test_order_at_ceiling_accepted():
    assert parse_args(
        ["ratio-support", "--order", str(MAX_CUTOFF)]).order == MAX_CUTOFF
    assert parse_args(["jacobi", "--max-n", str(MAX_CUTOFF)]).max_n == MAX_CUTOFF


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_jacobi_csv(capsys):
    code, out = run(capsys, "jacobi", "--max-n", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    assert rows[1]["r8_enum"] == "16"
    assert all(r["match"] == "True" for r in rows)


def test_jacobi_json(capsys):
    code, out = run(capsys, "jacobi", "--max-n", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] and doc["gauss"] and doc["intermediate"]


def test_analytic_json(capsys):
    code, out = run(capsys, "analytic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["ratio_one_max_dev"] < 1e-8


def test_analytic_json_is_the_suite_verdict(capsys):
    code, out = run(capsys, "analytic", "--format", "json")
    assert code == 0
    assert json.loads(out) == analytic.run_suite()


def test_analytic_defaults_keep_their_stdout(capsys):
    code, out = run(capsys, "analytic")
    assert code == 0
    assert out == ("ok: True\n"
                   "ratio_one_max_dev: 2.453e-15\n"
                   "b_zero_max: 1.690e-15\n"
                   "functional_max_dev: 1.663e-15\n"
                   "limit_dev_a_over_r: 9.997e-05\n"
                   "limit_dev_b: 2.499e-05\n"
                   "an_limits_max_dev: 7.916e-11\n")


@pytest.mark.parametrize("argv", [["--q", "1.5"], ["--q", "0.999"],
                                  ["--tol", "nan"], ["--tol", "inf"],
                                  ["--tol", "1e-300"],
                                  *[["--q", q] for q in ("1e-10", "1e-14",
                                                         "1e-20", "1e-30",
                                                         "0.8", "0.9", "0.1")],
                                  ["--tol", "1e-8"]],
                         ids=["1.5", "0.999", "tol-nan", "tol-inf", "tol-1e-300",
                              "1e-10", "1e-14", "1e-20", "1e-30", "0.8", "0.9",
                              "0.1", "tol-1e-8"])
def test_analytic_q_and_tol_are_unknown_options(capsys, argv):
    # the suite runs at one fixed nome and tolerance, so any --q or --tol,
    # the defaults included, is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["analytic", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage == ("usage: superdenom analytic [-h] [--format {text,json}] "
                     "[--output OUTPUT]")
    assert error == f"superdenom analytic: error: unrecognized arguments: " \
                    f"{' '.join(argv)}"


@pytest.mark.parametrize("cmd, fmt", [
    *[(c, "csv") for c in ("verify-denom", "verify-prefactor", "verify-finite",
                           "verify-sl21", "verify-talpha-tgamma",
                           "ratio-support", "analytic")],
    ("dump", "text"), ("dump", "csv"),
])
def test_unhonoured_format_rejected(capsys, cmd, fmt):
    argv = [cmd, "--format", fmt] + (["--expr", "lhs"] if cmd == "dump" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_dump_round_trips(capsys):
    from superdenom.series import deserialize
    from superdenom import identities
    code, out = run(capsys, "dump", "--expr", "lhs", "--order", "8")
    assert code == 0
    assert deserialize(out.strip()) == identities.build_lhs(8)


def test_dump_deterministic(capsys):
    _, a = run(capsys, "dump", "--expr", "rhs", "--order", "8", "--format", "json")
    _, b = run(capsys, "dump", "--expr", "rhs", "--order", "8", "--format", "json")
    assert a == b
    _, c = run(capsys, "verify-denom", "--order", "8", "--format", "json")
    _, d = run(capsys, "verify-denom", "--order", "8", "--format", "json")
    assert c == d


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify-denom", "--order", "6", "--format", "json",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["matched"] is True


def test_usage_error_leaves_existing_output_file(tmp_path, monkeypatch,
                                                 fresh_caches, capsys):
    # the file is opened before the run but truncated only once the run
    # has its text: a usage error or a run that raises leaves it as it was
    target = tmp_path / "out.txt"
    target.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify-denom", "--order", "-1", "--output", str(target)])
    assert exc.value.code == 2
    assert target.read_text() == "kept\n"

    def unreadable(order):
        raise OSError(5, "Input/output error")

    with monkeypatch.context() as m:
        m.setitem(cli._VERIFIERS, "verify-denom", unreadable)
        assert main(["verify-denom", "--output", str(target)]) == 2
    assert target.read_text() == "kept\n"
    capsys.readouterr()
    # a run that exits 0 or 1 overwrites it
    assert main(["analytic", "--output", str(target)]) == 0
    assert target.read_text().startswith("ok: True\n")
    _drop_first_schedule_family(monkeypatch)
    assert main(["verify-denom", "--order", "8", "--output", str(target)]) == 1
    assert target.read_text() == _MISMATCH_STDOUT["verify-denom text"]


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code = main(["verify-denom", "--order", "6", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(target) in captured.err
    assert not target.exists()


def test_empty_output_path_is_usage_error(capsys):
    # an empty path is a path that cannot be opened, not a missing --output
    code = main(["verify-denom", "--order", "2", "--output", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "cannot write '':" in captured.err


def test_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def verifier(order):
        raise AssertionError("the verifier ran before the output was opened")

    monkeypatch.setitem(cli._VERIFIERS, "verify-denom", verifier)
    code = main(["verify-denom", "--output", str(tmp_path / "missing-dir" / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, same_pipe", [
    pytest.param(["verify-denom", "--order", "8"], False, id="argv0"),
    pytest.param(["jacobi", "--max-n", "224"], False, id="argv1"),
    pytest.param(["verify-denom", "--order", "8"], True,
                 id="stderr-on-the-same-closed-pipe"),
])
def test_closed_stdout_is_usage_error(argv, same_pipe):
    # the read end is closed before the child starts, so every write to
    # its stdout fails, however small the output and whenever it comes.
    # stdout stays block-buffered, as in a plain run: bytes still buffered
    # when a write fails would make the flush at exit fail a second time.
    # With stderr on the same pipe, as in `2>&1 | head -c0`, the message
    # cannot be written either, and the status is still 2, not 1
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "superdenom.cli", *argv],
                              stdout=write_end,
                              stderr=write_end if same_pipe else subprocess.PIPE,
                              text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    if same_pipe:
        return
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("superdenom: error: cannot write stdout: ")


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_help_to_a_closed_stdout_exits_zero(unbuffered):
    # as argparse did, a reader that went away before the help was written
    # is no error, and no traceback is printed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "superdenom.cli", "--help"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_parser_defaults():
    # the namespace holds the command and its own options, at their defaults
    assert vars(parse_args(["verify-denom"])) == {
        "command": "verify-denom", "order": 24, "format": "text",
        "output": None}
    assert parse_args(["verify-prefactor"]).order == 40
    assert parse_args(["verify-sl21"]).order == 18
    assert vars(parse_args(["jacobi"])) == {
        "command": "jacobi", "format": "text", "output": None, "max_n": 64}
    assert vars(parse_args(["analytic"])) == {
        "command": "analytic", "format": "text", "output": None}
    assert vars(parse_args(["dump", "--expr", "lhs"])) == {
        "command": "dump", "order": 24, "format": "json", "output": None,
        "expr": "lhs"}


VERIFY_DENOM_8 = "verify-denom --order 8"


# argv, exit status, and the stdout of a valid run (as the argv of a run
# that prints the same) or the end of the error line of a usage error
ARGV_CASES = [
    (["--help"], 0, None),
    (["verify-denom", "--help"], 0, None),
    (["frobnicate"], 2, "argument command: invalid choice: 'frobnicate' "
                        "(choose from 'verify-denom', "),
    ([], 2, "the following arguments are required: command"),
    (["verify-denom", "--bogus"], 2, "unrecognized arguments: --bogus"),
    (["verify-denom", "extra"], 2, "unrecognized arguments: extra"),
    (["verify-denom", "--order", "-1"], 2,
     "argument --order: order must be nonnegative"),
    (["verify-denom", "--format", "csv"], 2,
     "argument --format: invalid choice: 'csv' (choose from 'text', 'json')"),
    (["dump"], 2, "the following arguments are required: --expr"),
    (["jacobi", "--max-n", "999"], 2,
     f"argument --max-n: max-n 999 is above the ceiling {MAX_CUTOFF}"),
    (["verify-denom", "--order=8"], 0, VERIFY_DENOM_8),
    (["verify-denom", "--ord", "8"], 2, "unrecognized arguments: --ord 8"),
    (["verify-denom", "--o", "8"], 2, "unrecognized arguments: --o 8"),
    (["verify-denom", "--order"], 2, "argument --order: expected one argument"),
    (["verify-denom", "--order", "-1.5"], 2,
     "argument --order: expected one argument"),
    (["--bogus", "verify-denom"], 2,
     "argument command: invalid choice: '--bogus' "),
    (["verify-denom", "-h=1"], 2, "unrecognized arguments: -h=1"),
    (["verify-denom", "--", "--order", "8"], 2, "unrecognized arguments: --"),
    (["verify-denom", "--order", "4", "--order", "8"], 0, VERIFY_DENOM_8),
]


@pytest.mark.parametrize("argv, code, expected", ARGV_CASES,
                         ids=[" ".join(argv) or "no-argument"
                              for argv, _, _ in ARGV_CASES])
def test_argv_contract(capsys, argv, code, expected):
    # help and a valid run exit 0 with nothing on stderr; a usage error
    # exits 2 with a usage line and one error line on stderr, nothing on
    # stdout, and no traceback
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    assert status == code
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if expected is None:
            assert out.startswith("usage: superdenom ")
            if argv[0] == "verify-denom":  # its options and their defaults
                assert "--order ORDER " in out and "(default 24)" in out
                assert "--format {text,json} " in out and "--output " in out
        else:
            assert main(expected.split()) == 0
            assert out == capsys.readouterr().out
        return
    assert out == ""
    usage, error = err.splitlines()
    prog = " ".join(["superdenom", *argv[:1]]) \
        if argv and argv[0] in cli._COMMANDS else "superdenom"
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error.startswith(f"{prog}: error: ")
    assert expected in error


_OPTION_TOKENS = ["--order", "--ord", "--o", "--out", "--outp", "--format",
                  "--max-n", "--expr", "-h", "--help", "--bogus"]
_VALUE_TOKENS = ["0", "1", "2", "3", "-1", "+2", "1.5", "\u0663", "",
                 "text", "json", "csv", *cli._DUMPERS, "225"]
_COMMAND_TOKEN = st.sampled_from([*cli._COMMANDS, "frobnicate"])
# no token names --output, and every accepted order is <= 3
_TOKEN = _COMMAND_TOKEN | st.sampled_from(
    [*_OPTION_TOKENS, "--", "-", *_VALUE_TOKENS,
     *[f"{opt}={value}" for opt in _OPTION_TOKENS for value in _VALUE_TOKENS]])


@st.composite
def argvs(draw):
    """At most 6 tokens, three in four of them after a command name."""
    head = [draw(_COMMAND_TOKEN)] if draw(st.integers(0, 3)) else []
    return head + draw(st.lists(_TOKEN, max_size=6 - len(head)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_exit_code_contract_holds_for_every_argv(monkeypatch, tmp_path, argv):
    # a run returns 0 or 1 and help exits 0, with nothing on stderr; a
    # usage error exits 2 with only a usage and an error line on stderr;
    # nothing else is raised, and no file is written: a prefix of
    # --output is no option
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status, exited = main(argv), False
        except SystemExit as exc:
            status, exited = exc.code, True
    lines = err.getvalue().splitlines()
    assert list(tmp_path.iterdir()) == [], argv
    if status != 2:
        assert status in ((0,) if exited else (0, 1)), (argv, status)
        assert lines == [], argv
        return
    assert exited and out.getvalue() == "", argv
    usage, error = lines
    assert usage.startswith("usage: superdenom "), argv
    assert re.fullmatch(r"superdenom( \S+)?: error: .*", error), argv


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_prefix_of_an_option_is_unrecognized(monkeypatch, tmp_path, capsys,
                                               command):
    # options are matched by their exact names: `jacobi --o 3` once wrote
    # its table to a file named 3, as --o was a unique prefix of --output.
    # dump is given its required --expr, so the prefix is the one error
    monkeypatch.chdir(tmp_path)
    required = ["--expr", "lhs"] if command == "dump" else []
    for name in ("--help", *cli._options(command)):
        for prefix in (name[:k] for k in range(3, len(name))):
            with pytest.raises(SystemExit) as exc:
                main([command, prefix, "3", *required])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, ""), prefix
            assert err.splitlines()[1] == (f"superdenom {command}: error: "
                                           f"unrecognized arguments: {prefix} 3")
            assert list(tmp_path.iterdir()) == [], prefix


@st.composite
def valid_argvs(draw):
    """A command, its argv of exact `--opt value` and `--opt=value` pairs
    with valid values (a required option always among them), and the
    namespace it parses to: the defaults, each drawn option at its last
    value."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    opts = cli._options(command)
    count = st.integers(0, MAX_CUTOFF).map(lambda n: (str(n), n))
    values = {  # option -> (token, parsed value)
        "--order": count, "--max-n": count,
        "--format": st.sampled_from(cli._COMMANDS[command][2]).map(
            lambda f: (f, f)),
        "--output": st.text(max_size=8).filter(
            lambda v: not v.startswith("-")).map(lambda v: (v, v)),
        "--expr": st.sampled_from(list(cli._DUMPERS)).map(lambda e: (e, e)),
    }
    names = draw(st.lists(st.sampled_from(list(opts)), max_size=6))
    for opt, (_, _, default, _, _) in opts.items():
        if default is cli._REQUIRED and opt not in names:
            names.insert(draw(st.integers(0, len(names))), opt)
    expected = {"command": command}
    expected |= {attribute: default
                 for attribute, _, default, _, _ in opts.values()
                 if default is not cli._REQUIRED}
    argv = [command]
    for opt in names:
        token, value = draw(values[opt])
        argv += [f"{opt}={token}"] if draw(st.booleans()) else [opt, token]
        expected[opts[opt][0]] = value
    return argv, expected


@settings(max_examples=300, deadline=None)
@given(case=valid_argvs())
def test_valid_argv_parses_to_its_last_values(case):
    argv, expected = case
    assert vars(parse_args(argv)) == expected, argv


_HELP_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "help_stdout.json").read_text())


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_keeps_its_stdout(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (_HELP_STDOUT[" ".join(argv)], "")


def test_help_after_a_run_lists_every_subcommand_in_order(capsys):
    # --help after a run in this process prints what a fresh process
    # prints, with all nine subcommands in the order of `_COMMANDS`
    assert main(["ratio-support", "--order", "4"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    after_run = capsys.readouterr().out
    listed = after_run.split("commands:\n")[1].split("\n\n")[0].splitlines()
    assert [line.split()[0] for line in listed] == list(cli._COMMANDS)
    assert "{%s}" % ",".join(cli._COMMANDS) in after_run
    fresh = subprocess.run([sys.executable, "-m", "superdenom.cli", "--help"],
                           capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, after_run, "")


@pytest.mark.parametrize("first, second", [
    (["jacobi", "--max-n", "8", "--format", "csv"], ["jacobi"]),
    (["verify-finite", "--order", "4", "--format", "json"], ["verify-finite"]),
])
def test_no_flag_leaks_between_calls(capsys, first, second):
    fresh_code, fresh = run(capsys, *second)
    run(capsys, *first)
    code, out = run(capsys, *second)
    assert (code, out) == (fresh_code, fresh)
    assert code == 0
    if second == ["jacobi"]:
        # the default 65-row text table and its summary line
        lines = out.splitlines()
        assert len(lines) == 66
        assert lines[0].startswith("n=0: ") and lines[64].startswith("n=64: ")
    else:
        # text at the default order, not json at order 4
        assert out.startswith("denominator-gl22-finite: MATCHED (cutoff 24,")


# Stdlib modules that no verdict path uses: neither `import superdenom.cli`
# nor a text-format run of the commands may load any of them.
DEFERRED = ("dataclasses", "inspect", "fractions", "decimal", "json", "csv",
            "argparse", "gettext", "locale")

IMPORT_GRAPH_PROBE = """
import sys
bare = set(sys.modules)
import superdenom.cli
imported = set(sys.modules) - bare
import contextlib, io
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        code = superdenom.cli.main(argv)
    assert code == 0, (argv, code)
print(repr((superdenom.cli.__file__, sorted(imported),
            sorted(set(sys.modules) - bare))))
"""


def test_import_graph_leaves_out_deferred_modules():
    commands = [
        ["verify-denom", "--order", "8"],
        ["ratio-support", "--order", "8"],
        ["verify-prefactor", "--order", "8"],
        ["verify-finite", "--order", "8"],
        ["verify-sl21", "--order", "8"],
        ["verify-talpha-tgamma", "--order", "8"],
        ["jacobi", "--max-n", "8"],
        ["analytic"],
        ["dump", "--expr", "orbit-sum", "--order", "8"],
    ]
    # a fresh interpreter in this environment: the same package, found on
    # PYTHONPATH or as an installed one
    out = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_PROBE % (commands,)],
                         capture_output=True, text=True, check=True).stdout
    cli_file, imported, after_run = ast.literal_eval(out)
    assert cli_file == cli.__file__
    assert [m for m in imported if m in DEFERRED] == []
    assert [m for m in after_run if m in DEFERRED] == []


def test_package_import_loads_no_submodule():
    probe = ("import sys, superdenom; print(repr((superdenom.__file__, "
             "sorted(m for m in sys.modules if m.startswith('superdenom.')))))")
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    init_file, loaded = ast.literal_eval(out)
    assert os.path.dirname(init_file) == os.path.dirname(cli.__file__)
    assert loaded == []


SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_every_traced_name_resolves():
    # the benchmark's tracer looks up each function it wraps by name, and
    # imports GradedSeries and cone_coords; a name gone from the package
    # would fail every traced benchmark run
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    series = importlib.import_module("superdenom.series")
    assert callable(series.GradedSeries) and callable(series.cone_coords)
    missing = []
    for module, names in spans.TRACED.items():
        mod = importlib.import_module(f"superdenom.{module}")
        missing += [f"{module}.{n}" for n in names
                    if not callable(getattr(mod, n, None))]
    assert missing == []
