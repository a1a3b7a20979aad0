"""Exact CLI bytes: stdout, stderr and exit code for a fixed set of invocations.

The expected bytes live in ``cli_golden.json`` next to this file.  They pin
every subcommand, ``--no-json``, stdin input with a flag overriding it,
refused zero values, domain errors and usage errors, so a change to the CLI
that is meant to keep its output can be checked byte for byte.  After a
deliberate change of output, rewrite the file with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import pathlib
import sys

import pytest

from superelliptic.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
SEXTIC = "y^2 = x^6 + x^4 + 2x^2 + 1"

#: name -> (argv, stdin JSON document or None)
CASES = {
    "invariants": (["invariants", SEXTIC], None),
    "invariants_text": (["invariants", SEXTIC, "--no-json"], None),
    "invariants_stdin": (["invariants", "-"], {"equation": "y^3 = x^9 + 3*x^6 - 2*x^3 + 1"}),
    "invariants_stdin_without_equation": (["invariants", "-"], {"delta": 2}),
    "invariants_syntax_error": (["invariants", "y^2 = x^6 + * 1"], None),
    "classify_xg": (["classify", "y^3 = x^7 + 5*x^4 + x"], None),
    "classify_text": (["classify", "y^3 = x^7 + 5*x^4 + x", "--no-json"], None),
    "classify_stdin_flag_wins": (["classify", "-", "--delta", "4"],
                                 {"equation": "y^2 = x^8 + 5x^4 + 1", "delta": 2}),
    "classify_delta_zero": (["classify", "y^2 = x^8 + 5x^4 + 1", "--delta", "0"], None),
    "classify_invalid_curve": (["classify", "y^2 = x^6 + 2*x^3 + 1"], None),
    "genus": (["genus", "--n", "3", "--d", "7"], None),
    "genus_text": (["genus", "--n", "2", "--d", "5", "--no-json"], None),
    "field": (["field", "--invariants", "1,1"], None),
    # a 45-bit cofactor with no factor <= 10^6: the walk reads every trial-division segment, then refuses
    "field_factor_bound": (["field", "--invariants", "799309,804424"], None),
    "field_stdin_flag_wins": (["field", "-", "--delta", "3"], {"invariants": ["9", "4"], "n": 3, "delta": 2}),
    "field_n_zero": (["field", "--invariants", "1,1", "--n", "0"], None),
    "field_delta_zero": (["field", "--invariants", "1,1", "--delta", "0"], None),
    "field_without_invariants": (["field"], None),
    "field_stray_positional": (["field", "1,1"], None),
    "field_stdin_float_n": (["field", "-"], {"invariants": ["9", "4"], "n": 2.9}),
    "field_zero_denominator_text": (["field", "--invariants", "1/0", "--no-json"], None),
    "field_stdin_text": (["field", "-", "--no-json"], {"invariants": [9, 4], "delta": 3}),
    "reconstruct": (["reconstruct", "--invariants", "1,1", "--root", "plus"], None),
    "reconstruct_text": (["reconstruct", "--invariants", "1,1", "--no-json"], None),
    "reconstruct_stdin_flag_wins": (["reconstruct", "-", "--root", "minus"], {"invariants": "9,4", "root": "plus"}),
    "reconstruct_degenerate": (["reconstruct", "--invariants", "2,2"], None),
    "reconstruct_zero_root": (["reconstruct", "--invariants", "27,0"], None),
    "roundtrip": (["roundtrip", "--a", "2,1"], None),
    "roundtrip_text": (["roundtrip", "--a", "2,1", "--no-json"], None),
    "roundtrip_random": (["roundtrip", "--random", "5", "--seed", "3"], None),
    "roundtrip_random_text": (["roundtrip", "--random", "3", "--no-json"], None),
    "roundtrip_a_and_random": (["roundtrip", "--a", "2,1", "--random", "3"], None),
    "usage_missing_flag": (["genus", "--n", "3"], None),
    "usage_unknown_command": (["frobnicate"], None),
    "usage_missing_equation": (["invariants"], None),
    "usage_bad_choice": (["reconstruct", "--invariants", "9,4", "--root", "best"], None),
}


def run_case(argv, stdin) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO("" if stdin is None else json.dumps(stdin))
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_the_recording(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(*CASES[name]) == expected


def test_one_process_reproduces_every_recording_in_any_order():
    """main() reuses its parser, so no call may leak state into the next one."""
    recorded = json.loads(GOLDEN.read_text())
    names = sorted(CASES)
    # a usage error right before a good call of the same subcommand, and text mode before JSON
    pairs = ["usage_missing_flag", "genus", "usage_bad_choice", "reconstruct", "usage_missing_equation",
             "invariants", "invariants_text", "invariants", "genus_text", "genus", "roundtrip_text", "roundtrip"]
    for name in names + names[::-1] + names + names[::-1] + pairs:
        assert run_case(*CASES[name]) == recorded[name], name


def test_recording_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    recorded = {name: run_case(*case) for name, case in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
