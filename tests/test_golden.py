"""Golden-output gate: a fixed corpus of CLI invocations, each with its
exit code, stdout and stderr, must reproduce byte for byte.

The corpus and the expected outputs live together in golden_cli.json.  It
covers every subcommand in text and JSON output plus the error exits; the
long-period functor output is left to test_period_matrix_past_digit_limit.
"""

import json
from pathlib import Path

import pytest

from lattes_sft import cli

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    rc = cli.main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )
