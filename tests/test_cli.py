"""CLI behaviour: subcommands, exit codes, file round trips, seeding."""

from realbicyclic.cli import main


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
    # garbage file or out-of-range threshold: malformed, exit 2
    ugly = tmp_path / "ugly.cert"
    for ugly_text in (
        "gibberish\n",
        path.read_text().replace("target-n 4/1", "target-n 0/1"),
        path.read_text().replace("chosen-n 8/1", "chosen-n -1/1"),
    ):
        ugly.write_text(ugly_text)
        code, _, err = run_cli(capsys, "validate", str(ugly))
        assert code == 2 and "malformed" in err, ugly_text


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
