"""CLI behaviour: subcommands, exit codes, file round trips, seeding, and
reuse of the one argument parser across calls in a process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import realbicyclic
from realbicyclic import cli
from realbicyclic.cli import main
from realbicyclic.exprparse import MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_element(capsys):
    code, out, _ = run_cli(capsys, "eval", "(1,3)*(2,5)")
    assert code == 0
    assert out.strip() == "(1,6)"


def test_eval_boolean_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "eval", "(3,5) <= (1,3)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "eval", "(1,3) <= (2,5)")
    assert code == 1 and out.strip() == "false"


def test_eval_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "(1,")
    assert code == 2
    assert "error" in err


def test_eval_nesting_limit(capsys):
    def nested(depth):
        return "(" * depth + "(1,2)" + ")" * depth

    code, out, _ = run_cli(capsys, "eval", nested(MAX_NESTING))
    assert code == 0 and out == "(1,2)\n"
    for depth in (MAX_NESTING + 1, 1000):
        code, out, err = run_cli(capsys, "eval", nested(depth))
        assert code == 2 and out == "" and err.startswith("error: parentheses nested deeper")


def test_eval_zero(capsys):
    code, out, _ = run_cli(capsys, "eval", "0 * (1,2)")
    assert code == 0
    assert out.strip() == "0"


def test_order_command(capsys):
    code, out, _ = run_cli(capsys, "order", "(3,5)", "(1,3)")
    assert code == 0
    assert out.splitlines() == ["true", "witness (5,5)"]
    code, out, _ = run_cli(capsys, "order", "(1,3)", "(2,5)")
    assert code == 1
    assert out.strip() == "false"


def test_lines_product(capsys):
    code, out, _ = run_cli(capsys, "lines", "product", "L+1", "L+2")
    assert code == 0 and out.strip() == "L+3"
    code, out, _ = run_cli(capsys, "lines", "product", "L-2", "L+3")
    assert code == 0 and out.strip() == "down(2,3)"
    code, out, _ = run_cli(capsys, "lines", "product", "L+1/2", "L-2")
    assert code == 0 and out.strip() == "L-3/2"
    code, out, _ = run_cli(capsys, "lines", "product", "L-1", "L-2")
    assert code == 0 and out.strip() == "L-3"
    code, _, err = run_cli(capsys, "lines", "product", "X+1", "L+2")
    assert code == 2


def test_zero_denominator_is_usage_error(capsys):
    for argv in (
        ("certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target", "1/0"),
        ("falsify", "ac1", "--side", "left", "--translator", "(1,2)",
         "--chosen", "1/0", "--target", "4"),
        ("lines", "product", "L+1/0", "L+2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
        assert "zero denominator" in err, argv


def test_scalars_outside_the_grammar_are_usage_errors(capsys):
    # Fraction(str) would read 1e1 and 1_0 as 10, and int() reads '٣' as 3
    for bad in ("1e1", "1_0", " 3 ", "+2", "\u0663"):
        for argv in (
            ("certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target", bad),
            ("falsify", "ac1", "--side", "left", "--translator", "(1,2)",
             "--chosen", bad, "--target", "4"),
            ("falsify", "ac1", "--side", "left", "--translator", "(1,2)",
             "--chosen", "8", "--target", bad),
            ("lines", "product", f"L+{bad}", "L+2"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:"), argv
    for argv in (
        ("eval", "(\u00b2,1)"),
        ("eval", "(\u0663,1)"),
        ("lines", "product", "L+\u0663", "L+1"),
        ("lines", "product", "L+3\n", "L+1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_usage_error_messages(capsys, tmp_path):
    missing = tmp_path / "missing.cert"
    for argv, start in (
        (("order", "(1,", "(1,2)"), "error: bad element '(1,': "),
        (("certify", "ac1", "--side", "left", "--translator", "0", "--target", "4"),
         "error: '0' is not an element"),
        (("certify", "ac2", "--side", "left", "--translator", "(1,2)", "--target", ";"),
         "error: empty top list"),
        (("validate", str(missing)), f"error: cannot read {missing}: "),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith(start), argv


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer-string digits"
)
def test_output_past_the_digit_limit_is_usage_error(capsys, tmp_path):
    # each input is within the interpreter's digit limit, but the result
    # has a number past it: an error naming the limit and exit 2
    limit = sys.get_int_max_str_digits()
    big, bigger = 10 ** (limit - 309) + 1, 10 ** (limit - 309) + 3
    path = tmp_path / "c.cert"
    for argv in (
        ("eval", f"(1/{big},0)*(1/{bigger},0)"),
        ("lines", "product", f"L+{'9' * limit}", "L+1"),
        ("certify", "ac2", "--side", "left", "--translator", f"(1/{big},2)",
         "--target", f"(3,1/{bigger})"),
        ("certify", "ac2", "--side", "left", "--translator", f"(1/{big},2)",
         "--target", f"(3,1/{bigger})", "--emit", str(path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv[:2]
        assert err == f"error: a number has more than {limit} digits\n", argv[:2]
    assert not path.exists()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on the digits of an integer string",
)
def test_input_past_the_digit_limit_is_usage_error(capsys, monkeypatch):
    # a number one digit past the limit, as a threshold, a line offset, a
    # seed flag or the seed variable, is one error naming the limit, exit 2,
    # without the argument echoed; at the limit the number reads
    monkeypatch.delenv("REALBICYCLIC_SEED", raising=False)
    limit = sys.get_int_max_str_digits()
    at, past = "1" * limit, "1" * (limit + 1)
    too_large = f"error: a number has more than {limit} digits\n"
    certify = ("certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target")
    code, out, err = run_cli(capsys, *certify, at)
    assert code == 0 and f"target-n {at}/1\n" in out and err == ""
    code, out, err = run_cli(capsys, "lines", "product", f"L+{at}", "L-1")
    assert code == 0 and out == f"L+{at[:-1]}0\n" and err == ""
    # a seed that reads is then refused for its range, not its digits
    seed_range = "error: seed must be an unsigned 64-bit integer\n"
    assert run_cli(capsys, "suite", "axioms", "--seed", at) == (2, "", seed_range)
    for argv in (
        (*certify, past),
        ("lines", "product", f"L+{past}", "L-1"),
        ("suite", "axioms", "--seed", past),
    ):
        assert run_cli(capsys, *argv) == (2, "", too_large), argv[:2]
    monkeypatch.setenv("REALBICYCLIC_SEED", at)
    assert run_cli(capsys, "suite", "axioms") == (2, "", seed_range)
    monkeypatch.setenv("REALBICYCLIC_SEED", past)
    code, out, err = run_cli(capsys, "suite", "axioms")
    assert (code, out) == (2, "")
    assert err == f"error: bad REALBICYCLIC_SEED value: {too_large[len('error: '):]}"


def test_certify_validate_falsify_roundtrip(capsys, tmp_path):
    path = tmp_path / "c.cert"
    code, out, _ = run_cli(
        capsys,
        "certify", "ac1", "--side", "left", "--translator", "(1,2)",
        "--target", "4", "--emit", str(path),
    )
    assert code == 0 and "valid" in out
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and out.strip() == "valid"
    # halve the chosen threshold in the stored file: invalid, exit 1
    text = path.read_text().replace("chosen-n 8/1", "chosen-n 4/1")
    bad = tmp_path / "bad.cert"
    bad.write_text(text)
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1 and out.strip() == "invalid"
    # garbage file, out-of-range threshold or non-canonical text: malformed, exit 2
    ugly = tmp_path / "ugly.cert"
    for ugly_text in (
        "gibberish\n",
        path.read_text().replace("target-n 4/1", "target-n 0/1"),
        path.read_text().replace("chosen-n 8/1", "chosen-n -1/1"),
        path.read_text().replace("chosen-n 8/1", "chosen-n 16/2"),
        path.read_text() + "\n",
    ):
        ugly.write_text(ugly_text)
        code, _, err = run_cli(capsys, "validate", str(ugly))
        assert code == 2 and "malformed" in err, ugly_text


def test_certify_emit_unwritable_path_is_usage_error(capsys, tmp_path):
    argv = ("certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target", "4")
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    # the emitted file holds exactly the text certify prints without --emit
    path = tmp_path / "c.cert"
    code, out, _ = run_cli(capsys, *argv, "--emit", str(path))
    assert code == 0 and out.strip() == f"wrote certificate to {path} (valid)"
    assert path.read_text() == text
    missing = tmp_path / "no-such-dir" / "c.cert"
    code, out, err = run_cli(capsys, *argv, "--emit", str(missing))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {missing}: "), err
    assert not missing.parent.exists()


def test_validate_non_ascii_file_is_malformed(capsys, tmp_path):
    path = tmp_path / "c.cert"
    code, _, _ = run_cli(
        capsys,
        "certify", "ac1", "--side", "left", "--translator", "(1,2)",
        "--target", "4", "--emit", str(path),
    )
    assert code == 0
    for data in (b"\xff", path.read_bytes().replace(b"chosen-n", b"chosen-\xffn")):
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == "", data
        assert err.startswith("error: malformed certificate: not ASCII text"), err


def test_certify_ac2_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "ac2", "--side", "left", "--translator", "(1,2)",
        "--target", "(3,1)",
    )
    assert code == 0
    assert "kind ac2" in out
    assert "top 6/1 3/1" in out  # the shrink witness


def test_falsify_finds_and_misses(capsys):
    code, out, _ = run_cli(
        capsys,
        "falsify", "ac1", "--side", "left", "--translator", "(1,2)",
        "--chosen", "4", "--target", "4", "--seed", "7", "--cases", "10000",
    )
    assert code == 1
    assert out.startswith("counterexample")
    code, out, _ = run_cli(
        capsys,
        "falsify", "ac1", "--side", "left", "--translator", "(1,2)",
        "--chosen", "8", "--target", "4", "--seed", "7", "--cases", "10000",
    )
    assert code == 0
    assert "no counterexample" in out


def test_falsify_needs_a_sample(capsys):
    for cases in ("-5", "0"):
        code, out, err = run_cli(
            capsys,
            "falsify", "ac1", "--side", "left", "--translator", "(1,2)",
            "--chosen", "8", "--target", "4", "--cases", cases,
        )
        assert code == 2 and out == "" and err.startswith("error:"), cases


def test_falsify_negative_seed_usage_error(capsys, monkeypatch):
    flags = ("falsify", "ac1", "--side", "left", "--translator", "(1,2)",
             "--chosen", "4", "--target", "4", "--cases", "100")
    code, out, err = run_cli(capsys, *flags, "--seed", "-7")
    assert code == 2 and out == "" and err.startswith("error:")
    monkeypatch.setenv("REALBICYCLIC_SEED", "-7")
    code, out, err = run_cli(capsys, *flags)
    assert code == 2 and out == "" and err.startswith("error:")


def test_falsify_ac2(capsys):
    code, out, _ = run_cli(
        capsys,
        "falsify", "ac2", "--side", "left", "--translator", "(1,2)",
        "--chosen", "(1,1)", "--target", "(3,1)", "--seed", "3", "--cases", "5000",
    )
    assert code == 1
    assert out.startswith("counterexample")


def test_suite_command(capsys):
    code, out, _ = run_cli(capsys, "suite", "products", "--seed", "42", "--cases", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite products"
    assert "status pass" in lines
    code, out, _ = run_cli(
        capsys, "suite", "order", "--seed", "1", "--cases", "50", "--machine"
    )
    assert code == 0
    import json

    assert json.loads(out)["status"] == "pass"


def test_suite_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("REALBICYCLIC_SEED", "99")
    code, out, _ = run_cli(capsys, "suite", "axioms", "--cases", "20")
    assert code == 0
    assert "seed 99" in out.splitlines()
    # flag wins over the environment
    code, out, _ = run_cli(capsys, "suite", "axioms", "--cases", "20", "--seed", "3")
    assert "seed 3" in out.splitlines()


def test_suite_bad_ranges_usage_error(capsys, monkeypatch):
    for flags in (
        ("--cases", "-1"),
        ("--cases", "0"),
        ("--max-den", "0"),
        ("--max-num", "-1"),
        ("--integer-mode", "--max-num", "-1"),
        ("--seed", "-3"),
    ):
        code, out, err = run_cli(capsys, "suite", "axioms", *flags)
        assert code == 2 and out == "" and err.startswith("error:"), flags
    monkeypatch.setenv("REALBICYCLIC_SEED", "-3")
    code, out, err = run_cli(capsys, "suite", "axioms", "--cases", "5")
    assert code == 2 and out == "" and err.startswith("error:")


def test_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "suite", "nonsense")
    assert code == 2


def test_integer_mode_flag(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "bicyclic", "--seed", "4", "--cases", "100",
        "--integer-mode", "--max-num", "15",
    )
    assert code == 0
    assert "mode integer 15" in out.splitlines()


# One parser serves every call in a process: nothing of one call may leak into
# the next.

FALSIFY_MISS = ("falsify", "ac1", "--side", "left", "--translator", "(1,2)",
                "--chosen", "8", "--target", "4", "--cases", "100")


def test_usage_error_then_valid_command(capsys):
    for bad in (("suite", "nosuch"), ("falsify", "ac1", "--side", "up"), ("lines",), ()):
        code, out, err = run_cli(capsys, *bad)
        assert code == 2 and out == "" and "usage: realbicyclic" in err, bad
        code, out, err = run_cli(capsys, "eval", "(1,3)*(2,5)")
        assert (code, out, err) == (0, "(1,6)\n", ""), bad


def test_help_then_valid_command(capsys):
    for helpargs in (("--help",), ("suite", "--help"), ("lines", "product", "-h")):
        code, out, err = run_cli(capsys, *helpargs)
        assert code == 0 and out.startswith("usage: realbicyclic") and err == ""
        code, out, err = run_cli(capsys, "order", "(3,5)", "(1,3)")
        assert (code, out, err) == (0, "true\nwitness (5,5)\n", "")


def test_suite_reads_env_seed_on_every_call(capsys, monkeypatch):
    for seed in ("3", "4"):
        monkeypatch.setenv("REALBICYCLIC_SEED", seed)
        code, out, _ = run_cli(capsys, "suite", "products", "--cases", "5")
        assert code == 0
        assert f"seed {seed}" in out.splitlines()


def test_seed_flag_not_kept(capsys, monkeypatch):
    # suite reports its seed: a flag given once must not stick
    monkeypatch.delenv("REALBICYCLIC_SEED", raising=False)
    code, out, _ = run_cli(capsys, "suite", "axioms", "--cases", "5", "--seed", "7")
    assert code == 0 and "seed 7" in out.splitlines()
    code, out, _ = run_cli(capsys, "suite", "axioms", "--cases", "5")
    assert code == 0 and "seed 0" in out.splitlines()
    # falsify names no seed: its search does not depend on one
    for seed_flag in (("--seed", "7"), ()):
        code, out, _ = run_cli(capsys, *FALSIFY_MISS, *seed_flag)
        assert code == 0 and out == "no counterexample within a budget of 100 points\n"


def test_parser_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    run_cli(capsys, "eval", "(1,3)*(2,5)")
    run_cli(capsys, "order", "(3,5)", "(1,3)")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# Each argv is parsed by the parser of the command its leading words name.
ROUTED = (
    # the README's commands
    ("eval", "(1,3)*(2,5)"), ("eval", "((1,6))^-1"), ("eval", "(3,5) <= (1,3)"),
    ("order", "(3,5)", "(1,3)"), ("lines", "product", "L+1", "L+2"),
    ("lines", "product", "L-2", "L+3"),
    ("certify", "ac1", "--side", "left", "--translator", "(1,2)", "--target", "4",
     "--emit", "c.cert"),
    ("validate", "c.cert"),
    ("falsify", "ac1", "--side", "left", "--translator", "(1,2)", "--chosen", "4",
     "--target", "4", "--seed", "7", "--cases", "10000"),
    ("certify", "ac2", "--side", "left", "--translator", "(1,2)", "--target", "(3,1);(2,5)"),
    ("suite", "products", "--seed", "42", "--cases", "1000"),
    ("suite", "order", "--seed", "1", "--cases", "500", "--machine"),
    # flags left at their defaults, flags given, "--" and a negative-number look-alike
    ("certify", "ac2", "--side", "right", "--translator", "(1,2)", "--target", "(3,1)"),
    ("falsify", "ac2", "--side", "right", "--translator", "(1,2)", "--chosen", "(3,1)",
     "--target", "(3,1)"),
    ("suite", "axioms"),
    ("suite", "ac1", "--integer-mode", "--max-num", "7", "--max-den", "3", "--cases", "5",
     "--seed", "9", "--machine"),
    ("eval", "--", "(1,2)"), ("eval", "-1"), ("order", "--", "(1,2)", "(1,3)"),
)

# Argvs that name no command, or fail or ask for help inside one
TOP_LEVEL_ALIKE = (
    (), ("-h",), ("nosuch",), ("eval",), ("eval", "-h"), ("lines",), ("lines", "-h"),
    ("lines", "nosuch"), ("lines", "product"), ("lines", "product", "-h"),
    ("suite", "nosuch"), ("falsify", "ac1", "--side", "up"),
)


def test_routed_namespace_matches_top_level():
    top, _ = cli._build_parser()
    for argv in ROUTED:
        parser, rest = cli._route(list(argv))
        assert parser is not top, argv
        expected = vars(top.parse_args(list(argv)))
        del expected["command"]
        expected.pop("lines_command", None)
        assert vars(parser.parse_args(rest)) == expected, argv


def test_routed_errors_and_help_match_top_level(capsys, monkeypatch):
    top, _ = cli._build_parser()
    for argv in TOP_LEVEL_ALIKE:
        routed = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_route", lambda argv: (top, argv))
            assert run_cli(capsys, *argv) == routed, argv


def test_extra_arguments_name_the_command(capsys):
    code, out, err = run_cli(capsys, "eval", "(1,2)", "x")
    assert (code, out) == (2, "")
    assert err == (
        "usage: realbicyclic eval [-h] expr\n"
        "realbicyclic eval: error: unrecognized arguments: x\n"
    )
    code, out, err = run_cli(capsys, "lines", "product", "L+1", "L+2", "L+3")
    assert (code, out) == (2, "")
    assert err == (
        "usage: realbicyclic lines product [-h] l1 l2\n"
        "realbicyclic lines product: error: unrecognized arguments: L+3\n"
    )


def test_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(Path(realbicyclic.__file__).parents[1]))
    probe = "import realbicyclic.cli as c; print(c._build_parser.cache_info().misses)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_integer_flags_take_ascii_digits_only(capsys, monkeypatch):
    # int() would read each of these as a number
    monkeypatch.delenv("REALBICYCLIC_SEED", raising=False)
    bad = ("1_0", "٣", " 3", "3 ", "+2", "７", "0x10", "")
    for flag in ("--seed", "--cases", "--max-num", "--max-den"):
        for value in bad:
            code, out, err = run_cli(capsys, "suite", "axioms", flag, value)
            assert code == 2 and out == "" and err.startswith("error:"), (flag, value)
    for flag in ("--seed", "--cases"):
        for value in bad:
            code, out, err = run_cli(capsys, *FALSIFY_MISS, flag, value)
            assert code == 2 and out == "" and err.startswith("error:"), (flag, value)
    for value in (" +٧ ", "1_0", "٣", "7\n", "", "1" * 5000):  # int() takes at most 4300 digits
        monkeypatch.setenv("REALBICYCLIC_SEED", value)
        for argv in (("suite", "axioms", "--cases", "5"), FALSIFY_MISS):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and "REALBICYCLIC_SEED" in err, (value, argv)
    # leading zeros are still digits
    monkeypatch.setenv("REALBICYCLIC_SEED", "007")
    code, out, _ = run_cli(capsys, "suite", "axioms", "--cases", "05")
    assert code == 0 and "seed 7" in out.splitlines() and "cases 5" in out.splitlines()


def test_closed_pipe_exits_1_without_traceback():
    # the read end is closed before the child writes, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(realbicyclic.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "realbicyclic", "suite", "products", "--cases", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
