import argparse
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lattes_sft import cli


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestVerify:
    def test_ok(self, capsys):
        rc, out, _ = run(capsys, ["verify"])
        assert rc == 0
        assert out.strip().endswith("verify: OK")

    def test_json_mode(self, capsys):
        rc, out, _ = run(capsys, ["--output", "json", "verify"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert all(c["ok"] for c in doc["checks"])

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verify_checks", lambda: [("x", "1", "2")])
        rc, out, _ = run(capsys, ["verify"])
        assert rc == 3
        assert "MISMATCH" in out

    def test_broken_str_is_a_mismatch(self, capsys, monkeypatch):
        # the expected values are literal text, not built by the code checked
        from lattes_sft.cfrac import ContinuedFraction

        monkeypatch.setattr(ContinuedFraction, "__str__", lambda self: "BROKEN")
        rc, out, _ = run(capsys, ["verify"])
        assert rc == 3
        assert "MISMATCH cf: expected [0,1;(2)], got BROKEN" in out


class TestFunctor:
    def test_worked_example_json(self, capsys):
        rc, out, _ = run(
            capsys,
            ["--output", "json", "functor", "--curve", "4,2,0", "--D", "2",
             "--eps", "0+1*sqrt(2)"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["A"] == [[0, 1], [2, 0]]
        assert doc["cf"] == {"preperiod": [0, 1], "period": [2]}
        assert doc["T"] == [[2, 1], [1, 0]]
        assert doc["zeta"] == {"num": ["1"], "den": ["1", "0", "-2"]}
        assert doc["K0"] == {"rank": 0, "torsion": []}

    def test_without_curve(self, capsys):
        rc, out, _ = run(
            capsys, ["--output", "json", "functor", "--D", "5", "--eps", "0+1*sqrt(5)"]
        )
        assert rc == 0
        assert json.loads(out)["A"] == [[0, 1], [5, 0]]

    def test_precondition_failure_exits_1(self, capsys):
        rc, out, err = run(capsys, ["functor", "--D", "2", "--eps", "1+0*sqrt(2)"])
        assert rc == 1
        assert out == ""
        assert "irrational" in err

    def test_parse_failure_exits_2(self, capsys):
        rc, _, err = run(capsys, ["functor", "--D", "2", "--eps", "garbage"])
        assert rc == 2
        assert "eps" in err or "element" in err

    @pytest.mark.parametrize("eps", ["1/0+1*sqrt(2)", "0+1/0*sqrt(2)"])
    @pytest.mark.parametrize("command", ["functor", "compare"])
    def test_zero_denominator_exits_2(self, capsys, command, eps):
        argv = [command, "--D", "2", "--eps", eps]
        if command == "compare":
            argv += ["--curve", "4,2,0", "-n", "1"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err == f"error: bad field element text {eps!r}\n"

    def test_missing_flag_exits_2(self, capsys):
        assert cli.main(["functor", "--D", "2"]) == 2
        capsys.readouterr()

    def test_determinism(self, capsys):
        argv = ["--output", "json", "functor", "--curve", "4,2,0", "--D", "2",
                "--eps", "0+1*sqrt(2)"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_period_matrix_past_digit_limit(self, capsys, output):
        # period 13340: the entries of T have 6876 decimal digits, more than
        # the interpreter's default int-to-string limit of 4300
        has_limit = hasattr(sys, "get_int_max_str_digits")
        before = sys.get_int_max_str_digits() if has_limit else None
        rc, out, err = run(
            capsys,
            ["--output", output, "functor", "--D", "600000239",
             "--eps", "51708+3*sqrt(600000239)"],
        )
        assert (rc, err) == (0, "")
        assert max(len(d) for d in re.findall(r"\d+", out)) == 6876
        if has_limit:
            assert sys.get_int_max_str_digits() == before

    def test_square_factor_past_trial_division_bound(self, capsys):
        # D = k*k * 2 with k = 2^31 - 1 prime: trial division up to 2^20
        # cannot split D, and D lies in Q(sqrt(2)) with no splitting.  The
        # period of theta' is long, so this takes seconds.
        rc, out, err = run(
            capsys,
            ["functor", "--D", "9223372028264841218", "--eps", "0+2147483647*sqrt(2)"],
        )
        assert (rc, err) == (0, "")
        assert out.startswith(
            "D: 9223372028264841218\n"
            "epsilon: 0+2147483647*sqrt(2)\n"
            "A: 0,1;9223372028264841218,0\n"
            "theta_prime: (0+sqrt(9223372028264841218))/9223372028264841218\n"
        )

    def test_expansion_budget_exits_1(self, capsys):
        # D = 10^18 + 3 is prime; its square part is decided at the
        # trial-division bound, and the period of theta' exceeds the budget
        start = time.perf_counter()
        rc, out, err = run(
            capsys,
            ["functor", "--D", "1000000000000000003",
             "--eps", "0+1*sqrt(1000000000000000003)"],
        )
        assert (rc, out) == (1, "")
        assert "budget of 1000000 quotients" in err
        assert time.perf_counter() - start < 10


class TestZeta:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, ["zeta", "--matrix", "0,1;2,0"])
        assert rc == 0
        assert out.strip() == "1/(1-2t^2)"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, ["--output", "json", "zeta", "--matrix", "1,1;1,0"])
        assert rc == 0
        assert json.loads(out)["zeta"]["den"] == ["1", "-1", "-1"]

    def test_negative_entries_rejected(self, capsys):
        rc, _, err = run(capsys, ["zeta", "--matrix", "0,-1;1,0"])
        assert rc == 1
        assert "non-negative" in err

    @pytest.mark.parametrize("command", ["zeta", "shift-equiv"])
    def test_charpoly_budget_exits_1(self, capsys, command):
        # an 80 x 80 matrix is over CHARPOLY_BUDGET; both commands refuse it at once
        text = ";".join([",".join(["1"] * 80)] * 80)
        argv = ["zeta", "--matrix", text] if command == "zeta" else [
            "shift-equiv", "--A", text, "--B", text.replace("1", "2", 1)]
        start = time.perf_counter()
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert "CHARPOLY_BUDGET = 40000000" in err
        assert time.perf_counter() - start < 5


class TestCfrac:
    def test_worked_surd(self, capsys):
        rc, out, _ = run(capsys, ["cfrac", "--surd", "(0+sqrt(2))/2"])
        assert rc == 0
        assert out.strip() == "[0,1;(2)]"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, ["--output", "json", "cfrac", "--surd", "(1+sqrt(5))/2"])
        assert rc == 0
        assert json.loads(out)["cf"] == {"preperiod": [], "period": [1]}

    def test_square_d_is_domain_error(self, capsys):
        rc, _, err = run(capsys, ["cfrac", "--surd", "(0+sqrt(4))/2"])
        assert rc == 1

    def test_bad_syntax_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, ["cfrac", "--surd", "sqrt(2)"])
        assert rc == 2

    def test_expansion_budget_exits_1(self, capsys):
        # the period of sqrt(100000000000031) has 6,300,568 quotients
        start = time.perf_counter()
        rc, out, err = run(capsys, ["cfrac", "--surd", "(0+sqrt(100000000000031))/1"])
        assert (rc, out) == (1, "")
        assert "budget of 1000000 quotients" in err
        assert time.perf_counter() - start < 10


class TestShiftEquiv:
    def test_worked_pair(self, capsys):
        rc, out, _ = run(capsys, ["shift-equiv", "--A", "0,1;2,0", "--B", "0,2;1,0"])
        assert rc == 0
        assert "status: equivalent" in out
        assert "R: 0,1;1,0" in out
        assert "S: 2,0;0,1" in out
        assert "k: 1" in out

    def test_json_certificate(self, capsys):
        rc, out, _ = run(
            capsys,
            ["--output", "json", "shift-equiv", "--A", "0,1;2,0", "--B", "0,2;1,0"],
        )
        doc = json.loads(out)
        assert doc["status"] == "equivalent"
        assert doc["certificate"] == {"R": [[0, 1], [1, 0]], "S": [[2, 0], [0, 1]], "k": 1}

    def test_filtered_pair(self, capsys):
        rc, out, _ = run(capsys, ["shift-equiv", "--A", "2", "--B", "3"])
        assert rc == 0
        assert "status: not_equivalent" in out

    def test_bounds_respected(self, capsys):
        rc, out, _ = run(
            capsys,
            ["--entry-bound", "1", "--lag-bound", "1", "shift-equiv",
             "--A", "0,1;2,0", "--B", "0,2;1,0"],
        )
        assert rc == 0
        assert "status: unknown" in out

    def test_size_mismatch_exits_1(self, capsys):
        rc, _, err = run(capsys, ["shift-equiv", "--A", "2", "--B", "0,1;1,0"])
        assert rc == 1

    def test_sylvester_budget_exits_1(self, capsys):
        # a dense 14 x 14 pair conjugate by the order-reversing permutation:
        # n^12 b^2 = 14^12 * 2^2 is past the budget, so nothing is eliminated
        n = 14
        A = [[(i * i + 3 * j + i * j) % 3 for j in range(n)] for i in range(n)]
        B = [[A[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
        assert A != B
        text = lambda M: ";".join(",".join(map(str, r)) for r in M)  # noqa: E731
        start = time.perf_counter()
        rc, out, err = run(capsys, ["shift-equiv", "--A", text(A), "--B", text(B)])
        assert (rc, out) == (1, "")
        assert "SYLVESTER_BUDGET = 50000000000000" in err
        assert time.perf_counter() - start < 5

    def test_huge_candidate_box_is_unknown_in_seconds(self, capsys):
        # 11^10 candidates for R; the box budget stops listing them
        start = time.perf_counter()
        rc, out, _ = run(
            capsys,
            ["shift-equiv", "--A", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,2",
             "--B", "2,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"],
        )
        assert rc == 0
        assert out == (
            "status: unknown\n"
            "witness: search budget exceeded before exhausting bounds\n"
        )
        assert time.perf_counter() - start < 5


class TestPeriodic:
    def test_map(self, capsys):
        rc, out, _ = run(
            capsys, ["--output", "json", "periodic", "--map", "0,0,1 / 1", "-n", "2"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["count_with_multiplicity"] == 5
        assert doc["count_distinct"] == 5
        assert doc["infinity_fixed"] is True

    def test_curve(self, capsys):
        rc, out, _ = run(
            capsys, ["--output", "json", "periodic", "--curve", "4,2,0", "-n", "1"]
        )
        assert rc == 0
        assert json.loads(out)["degree"] == 4

    def test_needs_map_or_curve(self, capsys):
        rc, _, _ = run(capsys, ["periodic", "-n", "1"])
        assert rc == 2

    @pytest.mark.parametrize(
        "option, err",
        (
            (["--curve", "1/0,2,3"], "error: bad curve text '1/0,2,3'\n"),
            (["--map", "x / 1"], "error: bad polynomial text 'x'\n"),
        ),
    )
    def test_bad_text_exits_2(self, capsys, option, err):
        assert run(capsys, ["periodic", *option, "-n", "1"]) == (2, "", err)

    def test_degree_budget_exits_1(self, capsys):
        # the iterate would have degree 4^12; it is refused before composing
        start = time.perf_counter()
        rc, out, err = run(capsys, ["periodic", "--curve", "4,2,0", "-n", "12"])
        assert (rc, out) == (1, "")
        assert "ITERATE_DEGREE_BUDGET = 1024" in err
        assert time.perf_counter() - start < 10

    def test_root_degree_budget_exits_1(self, capsys):
        # 4^5 points pass the iterate budget but not the root-location one
        start = time.perf_counter()
        rc, out, err = run(capsys, ["periodic", "--curve", "4,2,0", "-n", "5"])
        assert (rc, out) == (1, "")
        assert "ROOT_DEGREE_BUDGET = 64" in err
        assert time.perf_counter() - start < 10


class TestCompare:
    def test_table(self, capsys):
        rc, out, _ = run(
            capsys,
            ["--output", "json", "compare", "--curve", "4,2,0", "--D", "2",
             "--eps", "0+1*sqrt(2)", "-n", "2"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["map_degree"] == 4
        assert doc["epsilon_norm"] == "-2"
        assert doc["rows"] == [
            {"n": 1, "trace_count": 0, "distinct_count": 5, "multiplicity_count": 5},
            {"n": 2, "trace_count": 4, "distinct_count": 17, "multiplicity_count": 17},
        ]

    def test_text_table(self, capsys):
        rc, out, _ = run(
            capsys,
            ["compare", "--curve", "4,2,0", "--D", "2", "--eps", "0+1*sqrt(2)",
             "-n", "1"],
        )
        assert rc == 0
        assert "n\ttrace_count\tdistinct_count\tmultiplicity_count" in out
        assert "1\t0\t5\t5" in out

    def test_iterate_budget_exits_1(self, capsys):
        rc, out, err = run(
            capsys,
            ["compare", "--curve", "4,2,0", "--D", "2", "--eps", "0+1*sqrt(2)",
             "-n", "6"],
        )
        assert (rc, out) == (1, "")
        assert "ITERATE_DEGREE_BUDGET = 1024" in err

    def test_D_at_most_1_exits_1(self, capsys):
        rc, out, err = run(
            capsys,
            ["compare", "--curve", "4,2,0", "--D", "-2", "--eps", "0+1*sqrt(2)",
             "-n", "1"],
        )
        assert (rc, out, err) == (1, "", "error: D must be an integer > 1\n")


class TestSignedValues:
    # a value that starts with '-' and a digit reads the same after a space
    # as after '='; argparse alone takes it for an option and exits 2
    @pytest.mark.parametrize(
        "argv, code, err",
        (
            (["compare", "--curve", "-3,-32,-64", "--D", "7", "--eps", "1+1*sqrt(7)", "-n", "2"], 0, ""),
            (["periodic", "--curve", "-3,-32,-64", "-n", "1"], 0, ""),
            (["periodic", "--map", "-1,0,1 / 0,1", "-n", "1"], 0, ""),
            (["functor", "--D", "2", "--eps", "-1+1*sqrt(2)"], 1,
             "error: matrix 0,1;1,-2 has negative entries and defines no edge shift\n"),
            # any option's value, and a unique prefix of any option's name
            (["periodic", "--cur", "-3,-32,-64", "-n", "1"], 0, ""),
            (["functor", "--D", "2", "--e", "-1+1*sqrt(2)"], 1,
             "error: matrix 0,1;1,-2 has negative entries and defines no edge shift\n"),
            (["zeta", "--matrix", "-1,0;0,1"], 1, "error: matrix entries must be non-negative\n"),
            (["shift-equiv", "--A", "-1,0;0,1", "--B", "1,0;0,1"], 1,
             "error: matrix entries must be non-negative\n"),
        ),
    )
    def test_space_and_equals_forms_agree(self, capsys, argv, code, err):
        i = next(i for i, tok in enumerate(argv) if tok[:1] == "-" and tok[1:2].isdigit())
        joined = argv[: i - 1] + [argv[i - 1] + "=" + argv[i]] + argv[i + 1 :]
        spaced = run(capsys, ["--output", "json", *argv])
        assert spaced == run(capsys, ["--output", "json", *joined])
        assert (spaced[0], spaced[2]) == (code, err)

    def test_an_option_is_not_taken_for_a_value(self, capsys):
        rc, _, err = run(capsys, ["periodic", "--curve", "-n", "1"])
        assert rc == 2
        assert "argument --curve: expected one argument" in err

    def test_help_takes_no_signed_value(self, capsys):
        # --help takes no value, so a signed token after it is refused
        rc, out, err = run(capsys, ["--help", "-3"])
        assert (rc, out) == (2, "")
        assert "argument -h/--help: ignored explicit argument '-3'" in err


# Arguments that satisfy each subcommand's required options, so that a
# value under test reaches the command; the option under test comes after
# them and, as the last occurrence, wins.
_SUBCOMMAND_ARGS = {
    "functor": ["--D", "2", "--eps", "0+1*sqrt(2)"],
    "zeta": ["--matrix", "1,1;1,0"],
    "periodic": ["--curve", "4,2,0", "-n", "1"],
    "shift-equiv": ["--A", "1,1;1,0", "--B", "1,1;1,0"],
    "cfrac": ["--surd", "(1+sqrt(7))/2"],
    "compare": ["--curve", "4,2,0", "--D", "2", "--eps", "0+1*sqrt(2)", "-n", "1"],
    "verify": [],
}

# A value that starts with '-' and a digit in the text form of each
# option's kind of value; every other option gets "-1".
_SIGNED_SAMPLES = {
    "--curve": "-3,-32,-64",
    "--eps": "-1+1*sqrt(2)",
    "--map": "-1,0,1 / 0,1",
    "--matrix": "-1,0;0,1",
    "--A": "-1,0;0,1",
    "--B": "-1,0;0,1",
}


def _value_options():
    """(prefix argv, suffix argv, option, unique proper prefix or None) for
    every long option that takes a value, in the main parser and in each
    subparser of ``build_parser()``; the option goes between the two."""
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    places = [([], ["verify"], parser)] + [
        ([name, *_SUBCOMMAND_ARGS[name]], [], sub) for name, sub in subparsers.choices.items()
    ]
    for before, after, p in places:
        names = [o for o in p._option_string_actions if o.startswith("--")]
        for action in p._actions:
            if action.nargs == 0:
                continue
            for opt in action.option_strings:
                if not opt.startswith("--"):
                    continue
                prefix = next(
                    (opt[:k] for k in range(3, len(opt))
                     if [n for n in names if n.startswith(opt[:k])] == [opt]),
                    None,
                )
                yield before, after, opt, prefix


def test_every_value_option_reads_a_signed_value_in_each_form(capsys):
    # --D, --A and --B have no proper prefix; every other option is also
    # given as its shortest unique prefix
    walked = set()
    for before, after, opt, prefix in _value_options():
        walked.add(opt)
        value = _SIGNED_SAMPLES.get(opt, "-1")
        spaced = run(capsys, [*before, opt, value, *after])
        assert "expected one argument" not in spaced[2], (opt, spaced)
        assert run(capsys, [*before, f"{opt}={value}", *after]) == spaced, opt
        if prefix is not None:
            assert run(capsys, [*before, prefix, value, *after]) == spaced, (opt, prefix)
    assert walked == {
        "--output", "--precision", "--entry-bound", "--lag-bound", "--D", "--eps",
        "--curve", "--matrix", "--map", "--A", "--B", "--surd",
    }


class TestConfig:
    def test_low_precision_rejected(self, capsys):
        rc, _, err = run(capsys, ["--precision", "32", "verify"])
        assert rc == 2
        assert "precision" in err

    def test_precision_budget_exits_1(self, capsys):
        start = time.perf_counter()
        rc, out, err = run(
            capsys, ["--precision", "4097", "periodic", "--curve", "4,2,0", "-n", "1"]
        )
        assert (rc, out) == (1, "")
        assert "PRECISION_BUDGET = 4096" in err
        assert time.perf_counter() - start < 10

    def test_bad_bounds_rejected(self, capsys):
        rc, _, _ = run(capsys, ["--entry-bound", "0", "verify"])
        assert rc == 2

    def test_defaults_are_the_library_defaults(self):
        # each flag's default is written again as a library default; a
        # change to one side alone would make the CLI and the library differ
        from lattes_sft.dynsys import periodic_points
        from lattes_sft.sft import shift_equivalent

        parser = cli.build_parser()
        for fn, name in (
            (periodic_points, "precision"),
            (shift_equivalent, "entry_bound"),
            (shift_equivalent, "lag_bound"),
        ):
            assert parser.get_default(name) == inspect.signature(fn).parameters[name].default


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _python_m_verify(module: str):
    return subprocess.run(
        [sys.executable, "-m", module, "--output", "json", "verify"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )


def test_python_m_runs_cli():
    proc = _python_m_verify("lattes_sft")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_python_m_cli_module_runs_cli():
    proc = _python_m_verify("lattes_sft.cli")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


@pytest.mark.skipif(shutil.which("lattes") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["lattes", "--output", "json", "zeta", "--matrix", "0,1;2,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["zeta"]["den"] == ["1", "0", "-2"]


_MPMATH_PROBE = """
import sys
from lattes_sft import cli

assert "mpmath" not in sys.modules, "import"
for argv in (
    ["verify"],
    ["functor", "--curve", "4,2,0", "--D", "2", "--eps", "0+1*sqrt(2)"],
    ["zeta", "--matrix", "1,1;1,0"],
    ["cfrac", "--surd", "(1+sqrt(5))/2"],
    ["shift-equiv", "--A", "0,1;2,0", "--B", "0,2;1,0"],
    ["compare", "--curve", "4,2,0", "--D", "2", "--eps", "0+1*sqrt(2)", "-n", "2"],
    ["periodic", "--curve", "4,2,0", "-n", "3"],
):
    assert cli.main(argv) == 0, argv
    assert "mpmath" not in sys.modules, argv
"""


def test_no_subcommand_loads_mpmath():
    # a fresh interpreter: importing the CLI and running every subcommand,
    # root location included, leaves mpmath unloaded
    proc = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the read end of stdout is closed before the process starts, so its
    # first write (unbuffered) or the flush of its output (buffered) fails
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lattes_sft", "--output", "json", "cfrac", "--surd", "(1+sqrt(7))/2"],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


_MODULES_PROBE = """
import contextlib, io, sys

argv = sys.argv[1:]
if argv:
    from lattes_sft import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--output", "json", *argv]) == 0, argv
else:
    import lattes_sft
print(" ".join(sorted(k[len("lattes_sft."):] for k in sys.modules if k.startswith("lattes_sft."))))
"""

_CLI_BASE = {"cli", "errors", "intlinalg"}
_ALL_MODULES = _CLI_BASE | {"cfrac", "dynsys", "exactnum", "lattes", "lattice", "pipeline", "sft"}
_EPS = ["--D", "2", "--eps", "0+1*sqrt(2)"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        pytest.param([], set(), id="import"),
        pytest.param(["cfrac", "--surd", "(1+sqrt(7))/2"], _CLI_BASE | {"cfrac"}, id="cfrac"),
        pytest.param(["zeta", "--matrix", "1,1;1,0"], _CLI_BASE | {"exactnum", "sft"}, id="zeta"),
        pytest.param(
            ["shift-equiv", "--A", "0,1;2,0", "--B", "0,2;1,0"],
            _CLI_BASE | {"exactnum", "sft"},
            id="shift-equiv",
        ),
        pytest.param(
            ["periodic", "--curve", "4,2,0", "-n", "1"],
            _CLI_BASE | {"exactnum", "lattes", "dynsys"},
            id="periodic",
        ),
        pytest.param(["functor", *_EPS], _ALL_MODULES - {"dynsys"}, id="functor"),
        pytest.param(["verify"], _ALL_MODULES - {"dynsys"}, id="verify"),
        pytest.param(["compare", "--curve", "4,2,0", *_EPS, "-n", "1"], _ALL_MODULES, id="compare"),
    ],
)
def test_subcommand_loads_only_its_modules(argv, modules):
    # a fresh interpreter: a bare import loads no submodule, and each
    # subcommand loads exactly the package modules it runs
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == modules


def test_precision_help_states_the_budget():
    from lattes_sft import dynsys

    help_text = " ".join(cli.build_parser().format_help().split())
    assert f"(64 to {dynsys.PRECISION_BUDGET})" in help_text


def test_a_value_with_no_json_form_is_refused():
    with pytest.raises(TypeError, match="object has no JSON form"):
        cli.to_json(object())
