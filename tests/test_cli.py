import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superelliptic
from superelliptic.cli import MAX_RANDOM, _build_parser, _render, _write_json, main
from superelliptic.equations import MAX_DEGREE, _digit_limit
from superelliptic.exact import QuadExt
from test_cli_golden import CASES, run_case

SEXTIC = "y^2 = x^6 + x^4 + 2x^2 + 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def env_with_src():
    """os.environ with this package's source directory first on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(superelliptic.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def test_invariants_reference_curve(capsys):
    code, doc, err = run_json(capsys, "invariants", SEXTIC)
    assert code == 0 and err == ""
    assert doc["schema_version"] == "1"
    assert doc["command"] == "invariants"
    assert doc["n"] == 2 and doc["delta"] == 2 and doc["s"] == 2
    assert doc["kind"] == "GDelta" and doc["rescale"] == "1"
    assert doc["a"] == ["2", "1"]
    assert doc["invariants"] == ["9", "4"]
    assert doc["discriminant"] == "3136"
    assert doc["field"]["is_square"] is True
    assert doc["field"]["description"] == "F"
    assert doc["field"]["squarefree_radicand"] is None


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "invariants", SEXTIC)
    _, second, _ = run(capsys, "invariants", SEXTIC)
    assert first == second
    _, third, _ = run(capsys, "reconstruct", "--invariants", "1,1")
    _, fourth, _ = run(capsys, "reconstruct", "--invariants", "1,1")
    assert third == fourth


def test_classify_reports_unsupported_maximal_fit(capsys):
    code, doc, _ = run_json(capsys, "classify", "y^2 = x^8 + 5x^4 + 1")
    assert code == 0
    assert doc["delta"] == 4 and doc["s"] == 1
    assert doc["invariants_supported"] is False
    assert "notice" in doc

    code, doc, _ = run_json(capsys, "classify", "y^2 = x^8 + 5x^4 + 1", "--delta", "2")
    assert code == 0
    assert doc["delta"] == 2 and doc["s"] == 3
    assert doc["invariants_supported"] is True
    assert "notice" not in doc
    assert doc["a"] == ["0", "5", "0"]


def test_genus_command(capsys):
    code, doc, _ = run_json(capsys, "genus", "--n", "3", "--d", "7")
    assert code == 0
    assert doc["genus"] == 6


def test_field_command_extension_case(capsys):
    code, doc, _ = run_json(capsys, "field", "--invariants", "1,1")
    assert code == 0
    assert doc["discriminant"] == "32"
    assert doc["field"]["is_square"] is False
    assert doc["field"]["squarefree_radicand"] == 2
    assert doc["field"]["description"] == "F(sqrt(2))"


def test_reconstruct_rational_and_extension(capsys):
    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "9,4")
    assert code == 0
    assert doc["roots"] == {"plus": "8", "minus": "1"}
    assert doc["root_choice"] == "minus"
    assert doc["leading_coefficient"] == "1"
    assert doc["interior_coefficients"] == ["2"]
    assert doc["equation"] == "y^2 = 1*x^6 + 1*x^4 + 2*x^2 + 1"

    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "1,1", "--root", "plus")
    assert code == 0
    assert doc["roots"]["plus"] == {"a": "1/2", "b": "1/4", "d": 2}
    assert doc["roots"]["minus"] == {"a": "1/2", "b": "-1/4", "d": 2}
    assert doc["leading_coefficient"] == {"a": "1/2", "b": "1/4", "d": 2}
    assert "sqrt(2)" in doc["equation"]


def test_reconstruct_refuses_a_zero_root(capsys):
    # y^2 = x^6 + 3x^4 + 1 has invariants (27, 0); its minus root 0 would rebuild y^2 = 1
    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "27,0")
    assert code == 1
    assert doc["error"]["code"] == "invalid_input"
    assert "minus root is 0" in doc["error"]["message"]
    assert "--root plus (root 27)" in doc["error"]["message"]

    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "27,0", "--root", "plus")
    assert code == 0
    assert doc["equation"] == "y^2 = 27*x^6 + 27*x^4 + 1"


def test_roundtrip_explicit_tuple(capsys):
    code, doc, _ = run_json(capsys, "roundtrip", "--a", "2,1")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["root_choice"] == "minus"
    assert doc["checks"] == 3
    assert doc["reason"] is None
    # a_1 = 0: s_s = 0, but L = 1 != 0, so the certificate still adds s_1
    code, doc, _ = run_json(capsys, "roundtrip", "--a", "0,1")
    assert code == 0
    assert (doc["status"], doc["root_choice"], doc["checks"]) == ("pass", "plus", 3)


def test_roundtrip_random_is_seeded_and_deterministic(capsys):
    code, first, _ = run(capsys, "roundtrip", "--random", "25", "--seed", "7")
    assert code == 0
    _, second, _ = run(capsys, "roundtrip", "--random", "25", "--seed", "7")
    assert first == second
    doc = json.loads(first)
    assert doc["total"] == 25
    assert doc["passed"] + doc["skipped"] == 25
    assert doc["failed"] == 0 and doc["failures"] == []

    _, other, _ = run(capsys, "roundtrip", "--random", "25", "--seed", "8")
    assert other != first


def test_roundtrip_random_count_is_capped(capsys, monkeypatch):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "roundtrip", "--random", str(MAX_RANDOM + 1))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and err == ""
    assert doc["error"]["code"] == "invalid_input"
    assert f"MAX_RANDOM = {MAX_RANDOM}" in doc["error"]["message"]

    # the cap is inclusive; a stub verifier keeps the MAX_RANDOM draws cheap
    monkeypatch.setattr("superelliptic.cli.roundtrip_verify",
                        lambda a, n, delta: types.SimpleNamespace(status="pass", reason=None))
    code, doc, _ = run_json(capsys, "roundtrip", "--random", str(MAX_RANDOM))
    assert code == 0 and doc["total"] == doc["passed"] == MAX_RANDOM


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "no_json"])
def test_roundtrip_random_lists_each_failure(capsys, monkeypatch, as_json):
    # the verifier fails the second drawn tuple and passes the rest; the run still exits 0
    drawn = []

    def verify(a, n, delta):
        drawn.append(a)
        if len(drawn) == 2:
            return types.SimpleNamespace(status="fail", reason="stub: the second tuple fails")
        return types.SimpleNamespace(status="pass", reason=None)

    monkeypatch.setattr("superelliptic.cli.roundtrip_verify", verify)
    argv = ["roundtrip", "--random", "3", "--seed", "5", *(() if as_json else ("--no-json",))]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert len(drawn) == 3 and all(type(v) is Fraction for v in drawn[1])
    failure = {"index": 1, "a": [str(v) for v in drawn[1]], "reason": "stub: the second tuple fails"}
    doc = json.loads(out) if as_json else read_listing(out)
    if as_json:
        assert (doc["total"], doc["passed"], doc["skipped"], doc["failed"]) == (3, 2, 0, 1)
        assert doc["failures"] == [failure]
    else:
        assert (doc["total"], doc["passed"], doc["skipped"], doc["failed"]) == ("3", "2", "0", "1")
        assert doc["failures"] == [as_listed(failure)]
        assert "failures:\n  - index: 1\n    a:\n      - " in out


def test_syntax_error_reports_position(capsys):
    # a superscript digit is not a numeral: int() would refuse it with no position
    for command, text, position in [("invariants", "y^2 = x^4 + z", 12), ("classify", "y^2 = x^6 + 3x^\u00b2+1", 15)]:
        code, doc, _ = run_json(capsys, command, text)
        assert code == 1
        assert doc["error"]["code"] == "syntax_error"
        assert doc["error"]["position"] == position
        assert doc["command"] == command


def test_invalid_curve_lists_every_violation(capsys):
    # (x^2 + 1)^2 has a repeated root and the genus drops below 2
    code, doc, _ = run_json(capsys, "invariants", "y^2 = x^4 + 2x^2 + 1")
    assert code == 1
    assert doc["error"]["code"] == "invalid_curve"
    codes = [item["code"] for item in doc["error"]["violations"]]
    assert "zero_discriminant" in codes and "genus_below_two" in codes


def test_error_codes_for_form_failures(capsys):
    code, doc, _ = run_json(capsys, "invariants", "y^2 = x^5 + x^3 + x + 1")
    assert code == 1 and doc["error"]["code"] == "no_extra_automorphism"

    code, doc, _ = run_json(capsys, "invariants", "y^3 = x^7 + 5x^4 + x")
    assert code == 1 and doc["error"]["code"] == "unsupported_form"

    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "2,2")
    assert code == 1 and doc["error"]["code"] == "degenerate_locus"

    code, doc, _ = run_json(capsys, "field", "--invariants", "1/0")
    assert code == 1 and doc["error"]["code"] == "invalid_input"


def test_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, "bogus")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "usage_error"

    code, out, err = run(capsys, "genus", "--n", "3")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage_error"

    code, out, err = run(capsys, "reconstruct", "--invariants", "9,4", "--root", "best")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage_error"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("genus", "--n", "\u0663", "--d", "\u0667"), "--n", "\u0663"),
        (("genus", "--n", "1_0", "--d", "12"), "--n", "1_0"),
        (("genus", "--n", "2", "--d", "\u00b2"), "--d", "\u00b2"),
        (("roundtrip", "--random", "\u0663"), "--random", "\u0663"),
        (("roundtrip", "--random", "3", "--seed", "1_000"), "--seed", "1_000"),
        (("classify", SEXTIC, "--delta", "\u0662"), "--delta", "\u0662"),
        (("field", "--invariants", "1,1", "--n", "abc"), "--n", "abc"),
    ],
    ids=["arabic_indic_n", "underscore_n", "superscript_d", "arabic_indic_random", "underscore_seed",
         "arabic_indic_delta", "word_n"],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "usage_error", "message": f"argument {flag}: invalid int value: {value!r}"}


#: The numeral cap: 4300 digits, or the interpreter's conversion limit when that is lower (0: no limit).
_CAP = min(4300, sys.get_int_max_str_digits() or 4300)
_LONG = "9" * (_CAP + 1)


@pytest.mark.parametrize("argv", [("roundtrip", "--random"), ("genus", "--d", "3", "--n")], ids=["random", "genus_n"])
def test_a_numeral_past_the_int_conversion_limit_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, " +" + _LONG)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message == f"argument {argv[-1]}: invalid int value: a numeral of {_CAP + 1} digits, over the limit of {_CAP}"


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("field", "--invariants", f"{_LONG},1"), None),
        (("roundtrip", "--a", f"1,-{_LONG}/7"), None),
        (("field", "-"), f'{{"invariants": [{_LONG}, 1]}}'),
        (("reconstruct", "-"), f'{{"invariants": ["1", "{_LONG}"]}}'),
        (("invariants", "-"), f'{{"equation": "y^2 = x^6 + x^4 + 2x^2 + 1", "delta": -{_LONG}}}'),
    ],
    ids=["invariants_flag", "roundtrip_a", "stdin_json_integer", "stdin_invariants_text", "stdin_integer_key"],
)
def test_a_numeral_past_the_int_conversion_limit_is_named_by_its_length(capsys, monkeypatch, argv, stdin):
    # the document names the digit count and the limit, not the digits
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == "" and len(out) < 500
    assert json.loads(out)["error"] == {
        "code": "invalid_input",
        "message": f"a numeral of {_CAP + 1} digits, over the limit of {_CAP}",
    }


@contextlib.contextmanager
def int_max_str_digits(limit):
    """The interpreter's integer conversion limit set to ``limit`` for the block, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer conversion limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "no_json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("genus", "--n", "9" * 4000, "--d", "9" * 4001),
        ("field", "--invariants", "9" * 2500 + ",0"),
        ("invariants", "y^2 = x^6 + " + "9" * 1500 + "x^4 + x^2 + 1"),
    ],
    ids=["genus", "field", "invariants"],
)
def test_a_result_too_long_to_print_is_one_error_document(capsys, argv, as_json):
    # each input converts, but the result holds an int past the limit; nothing of it reaches stdout
    with int_max_str_digits(4300):
        code, out, err = run(capsys, *argv, *(() if as_json else ("--no-json",)))
    assert code == 1 and err == "" and "9999" not in out
    message = "the result has a number of more than 4300 digits, the interpreter's limit for writing an integer as text"
    if as_json:
        assert json.loads(out) == {
            "schema_version": "1",
            "command": argv[0],
            "error": {"code": "invalid_input", "message": message},
        }
    else:
        assert out == (
            f"schema_version: 1\ncommand: {argv[0]}\nerror:\n  code: invalid_input\n  message: {message}\n"
        )


def test_an_equation_numeral_past_a_lowered_limit_is_input_too_large(capsys):
    with int_max_str_digits(640):
        code, doc, err = run_json(capsys, "classify", "y^2 = " + "7" * 1000 + "*x^6 + x^2 + 1")
    assert code == 1 and err == ""
    assert doc["error"] == {
        "code": "input_too_large",
        "message": "a numeral has more than 640 digits (at position 6)",
        "position": 6,
    }


#: Each route a numeral can take into the CLI, as (argv, stdin text) for a numeral.
_NUMERAL_ROUTES = {
    "invariants_flag": lambda numeral: (("field", "--invariants", f"{numeral},1"), ""),
    "n_flag": lambda numeral: (("field", "--invariants", "1,1", "--n", numeral), ""),
    "stdin_json_integer": lambda numeral: (("field", "-"), f'{{"invariants": [{numeral}, 1]}}'),
    "stdin_rational_text": lambda numeral: (("field", "-"), f'{{"invariants": "{numeral},1"}}'),
    "equation_coefficient": lambda numeral: (("classify", f"y^2 = {numeral}*x^6 + x^2 + 1"), ""),
}


def _length_refusal(route, digits, cap):
    """The (exit code, error) that refuses a numeral of ``digits`` digits on ``route`` by its length."""
    message = f"a numeral of {digits} digits, over the limit of {cap}"
    if route == "n_flag":
        return 2, {"code": "usage_error", "message": f"argument --n: invalid int value: {message}"}
    if route == "equation_coefficient":
        return 1, {"code": "input_too_large", "message": f"a numeral has more than {cap} digits (at position 6)",
                   "position": 6}
    return 1, {"code": "invalid_input", "message": message}


@pytest.mark.parametrize("route", sorted(_NUMERAL_ROUTES))
@pytest.mark.parametrize("limit", [None, 0, 640, 10000], ids=["default", "unlimited", "640", "10000"])
def test_every_route_refuses_a_numeral_at_the_same_cap(capsys, monkeypatch, route, limit):
    # the cap is 4300 digits, or the interpreter's conversion limit when that is lower (0: no limit)
    with contextlib.nullcontext() if limit is None else int_max_str_digits(limit):
        cap = min(4300, sys.get_int_max_str_digits() or 4300)
        outcomes = []
        for digits in (cap, cap + 1):
            argv, stdin = _NUMERAL_ROUTES[route]("9" * digits)
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code, out, err = run(capsys, *argv)
            outcomes.append((code, json.loads(out or err).get("error")))
    # a numeral of cap digits is read: the run succeeds or fails later, in the mathematics
    assert outcomes[0][1] is None or outcomes[0][1]["code"] not in ("invalid_input", "usage_error", "input_too_large")
    assert outcomes[1] == _length_refusal(route, cap + 1, cap)


def test_a_huge_numeral_is_refused_by_its_length_even_without_an_interpreter_limit(capsys):
    with int_max_str_digits(0):
        start = time.perf_counter()
        code, doc, err = run_json(capsys, "field", "--invariants", "9" * 100_000 + ",1")
        elapsed = time.perf_counter() - start
    assert code == 1 and err == ""
    assert doc["error"] == {"code": "invalid_input", "message": "a numeral of 100000 digits, over the limit of 4300"}
    assert elapsed < 1


def test_a_long_zero_root_is_named_by_its_length(capsys):
    code, out, err = run(capsys, "reconstruct", "--invariants", "9" * 1500 + ",0")
    assert code == 1 and err == "" and len(out) < 500 and not re.search("[0-9]{100}", out)
    assert json.loads(out)["error"] == {
        "code": "invalid_input",
        "message": "the minus root is 0, which rebuilds y^2 = 1, not a curve; use --root plus (a root of 1500 digits)",
    }


def test_integer_flags_accept_a_sign_and_surrounding_space(capsys):
    code, doc, _ = run_json(capsys, "genus", "--n", "+3", "--d", " 07 ")
    assert code == 0 and doc["n"] == 3 and doc["d"] == 7


@pytest.mark.parametrize(
    "argv, key, echoed",
    [
        (("roundtrip", "--a", "-2,1"), "a", ["-2", "1"]),
        (("field", "--invariants", "-1,2"), "invariants", ["-1", "2"]),
        (("reconstruct", "--invariants", "-1/2,3"), "invariants", ["-1/2", "3"]),
    ],
    ids=["roundtrip_a", "field_invariants", "reconstruct_invariants"],
)
def test_a_list_may_start_with_a_negative_entry(capsys, argv, key, echoed):
    code, doc, err = run_json(capsys, *argv)
    assert code == 0 and err == ""
    assert doc["inputs"][key] == echoed
    if argv[0] == "roundtrip":
        assert doc["status"] == "pass"


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (("genus", "--n", "-3", "--d", "7"), 1,
         {"code": "invalid_input", "message": "the exponent n must be an integer >= 2, got -3"}),
        (("roundtrip", "--a"), 2, {"code": "usage_error", "message": "argument --a: expected one argument"}),
        (("genus", "--n", "3", "--d", "7", "-x"), 2, {"code": "usage_error", "message": "unrecognized arguments: -x"}),
    ],
    ids=["negative_n", "a_without_value", "unknown_option"],
)
def test_negative_values_leave_the_other_refusals_as_they_were(capsys, argv, code, error):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert json.loads(out if code == 1 else err)["error"] == error


def test_equation_from_stdin(capsys, monkeypatch):
    payload = {"equation": "y^2 = x^8 + 5x^4 + 1", "delta": 2}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, doc, _ = run_json(capsys, "invariants", "-")
    assert code == 0
    assert doc["delta"] == 2 and doc["s"] == 3
    assert doc["inputs"]["equation"] == payload["equation"]


def test_stdin_delta_yields_to_explicit_flag(capsys, monkeypatch):
    payload = {"equation": "y^2 = x^8 + 5x^4 + 1", "delta": 2}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, doc, _ = run_json(capsys, "classify", "-", "--delta", "4")
    assert code == 0
    assert doc["delta"] == 4 and doc["s"] == 1


def test_invariants_from_stdin_list(capsys, monkeypatch):
    payload = {"invariants": ["9", "4"], "n": 2, "delta": 2, "root": "plus"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, doc, _ = run_json(capsys, "reconstruct", "-")
    assert code == 0
    assert doc["root_choice"] == "plus"
    assert doc["leading_coefficient"] == "8"

    monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2]"))
    code, doc, _ = run_json(capsys, "field", "-")
    assert code == 1
    assert doc["error"]["code"] == "invalid_input"


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"invariants": 5}, "invariants"),
        ({"invariants": ["9", "4"], "n": 2.9}, "n"),
        ({"invariants": ["9", "4"], "delta": True}, "delta"),
    ],
    ids=["invariants_number", "n_float", "delta_bool"],
)
def test_stdin_json_types_are_strict(capsys, monkeypatch, payload, key):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, doc, err = run_json(capsys, "field", "-")
    assert code == 1 and err == ""
    assert doc["error"]["code"] == "invalid_input"
    assert f'"{key}"' in doc["error"]["message"]


def test_field_ignores_a_stdin_root(capsys, monkeypatch):
    # only reconstruct reads "root"; field neither type-checks nor echoes it
    outputs = []
    for payload in ({"invariants": "1,1", "root": 5}, {"invariants": "1,1"}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        outputs.append(run(capsys, "field", "-"))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_stdin_json_nested_too_deeply_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    code, doc, _ = run_json(capsys, "field", "-")
    assert code == 1
    assert doc["error"]["code"] == "invalid_input"


def test_exponent_above_max_degree_is_refused(capsys):
    text = "y^2 = x^1000000000 + 1"
    code, doc, _ = run_json(capsys, "classify", text)
    assert code == 1
    assert doc["error"]["code"] == "input_too_large"
    assert doc["error"]["position"] == text.index("1000000000")


@pytest.mark.parametrize("degree", [200, 2000])
def test_high_degree_binomial_classifies_quickly(degree):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "superelliptic", "classify", f"y^2 = x^{degree} + 1"],
        capture_output=True, text=True, env=env_with_src(), timeout=2,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["d"] == degree and doc["kind"] == "GDelta"


def test_cli_imports_only_the_standard_library():
    # compared with the modules loaded before the import: site may already load third-party ones
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import superelliptic.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'superelliptic'}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with_src(), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [("genus", "--n", "3", "--d", "7"), ("genus", "--n", "2", "--d", "5", "--no-json"),
                                  ("genus", "--help")],
                         ids=["json", "text", "help"])
def test_a_reader_that_closed_stdout_gets_exit_1_and_no_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "superelliptic", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env_with_src(), timeout=30)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_a_stream_with_no_descriptor_whose_reader_is_gone_gets_exit_1(monkeypatch):
    # in process: with no descriptor to point at devnull, main only returns 1
    class GoneReader(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", GoneReader())
    assert main(["genus", "--n", "3", "--d", "7"]) == 1


#: Each subcommand's option strings, True where the flag is required.
SUBCOMMAND_FLAGS = {
    "invariants": {"--delta": False},
    "classify": {"--delta": False},
    "genus": {"--n": True, "--d": True},
    "field": {"--invariants": False, "--n": False, "--delta": False},
    "reconstruct": {"--invariants": False, "--n": False, "--delta": False, "--root": False},
    "roundtrip": {"--a": False, "--random": False, "--seed": False, "--n": False, "--delta": False},
}


def test_each_subcommand_declares_its_flags():
    top = _build_parser()._actions
    subparsers = next(action for action in top if isinstance(action, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(SUBCOMMAND_FLAGS)
    for name, flags in SUBCOMMAND_FLAGS.items():
        actions = subparsers[name]._actions
        declared = {option: action.required for action in actions for option in action.option_strings}
        expected = {"-h": False, "--help": False, **flags, "--json": False, "--no-json": False}
        assert declared == expected, name
    root = next(action for action in subparsers["reconstruct"]._actions if action.dest == "root")
    assert root.choices == ["plus", "minus"]


def test_roundtrip_random_echoes_its_defaults(capsys):
    code, doc, err = run_json(capsys, "roundtrip", "--random", "2")
    assert code == 0 and err == ""
    assert doc["inputs"] == {"random": 2, "seed": 0, "n": 2, "delta": 2}


@pytest.mark.parametrize("argv", [(), *((name,) for name in SUBCOMMAND_FLAGS)], ids=["top", *SUBCOMMAND_FLAGS])
def test_help_prints_to_stdout_and_returns_0(capsys, argv):
    code, out, err = run(capsys, *argv, "--help")
    assert code == 0 and err == ""
    assert out.startswith(f"usage: superelliptic {' '.join(argv)}".rstrip())
    # a subcommand's help lists its flags (--n, not just --no-json); the top level lists the subcommands
    for word in SUBCOMMAND_FLAGS[argv[0]] if argv else SUBCOMMAND_FLAGS:
        assert re.search(rf"{word}\b", out), word


def test_the_parser_is_built_on_the_first_call_and_only_once():
    # importing the CLI builds no parser (setup time); a second main() builds none
    code = textwrap.dedent("""
        import argparse, contextlib, io
        built = 0
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            global built
            built += 1
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import superelliptic.cli
        counts = [built]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["genus", "--n", "3", "--d", "7"], ["field", "--invariants", "1,1"]):
                superelliptic.cli.main(argv)
                counts.append(built)
        print(counts)
    """)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with_src(), timeout=30)
    assert done.returncode == 0, done.stderr
    at_import, after_one, after_two = json.loads(done.stdout)
    assert at_import == 0 and after_one > 0 and after_two == after_one


def test_missing_invariants_is_an_input_error(capsys):
    code, doc, _ = run_json(capsys, "field")
    assert code == 1
    assert doc["error"]["code"] == "invalid_input"
    assert "--invariants" in doc["error"]["message"]


def test_plain_listing_mode(capsys):
    code, out, _ = run(capsys, "invariants", SEXTIC, "--no-json")
    assert code == 0
    assert "{" not in out
    lines = out.splitlines()
    assert "schema_version: 1" in lines
    assert any(line.startswith("discriminant: 3136") for line in lines)


#: The characters that str.splitlines() breaks a line at and that equation text reads as white space.
LINE_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", [*LINE_BREAKS, "\t"], ids=[f"U+{ord(c):04X}" for c in [*LINE_BREAKS, "\t"]])
def test_plain_listing_writes_a_string_with_a_line_break_as_its_json_literal(capsys, brk):
    equation = f"y^2 = x^6 +{brk} x^4 + 1"
    code, out, err = run(capsys, "classify", equation, "--no-json")
    _, tidy, _ = run(capsys, "classify", "y^2 = x^6 + x^4 + 1", "--no-json")
    assert code == 0 and err == ""
    lines = out.split("\n")[:-1]
    assert len(lines) == len(tidy.split("\n")[:-1])
    assert all(re.fullmatch(r"( *)(- .*|[a-z_]+:( .*)?)", line) for line in lines), lines
    shown = equation if brk == "\t" else json.dumps(equation)  # a tab breaks no line
    assert f"  equation: {shown}" in lines
    # the JSON document echoes the text as it was given
    _, doc, _ = run_json(capsys, "classify", equation)
    assert doc["inputs"]["equation"] == equation


KEY_LINE = re.compile(r"([a-z_0-9]+):(?: (.*))?")


def read_listing(text: str):
    """The nested dicts and lists that a ``--no-json`` listing writes out.

    Each scalar stays the text the listing shows, and each empty container
    (a bare ``key:`` or ``-``) reads as ().  A line is held as [column, text];
    an item ``- X`` at column c is read by rewriting it in place as X at c + 2.
    """
    lines = [[len(line) - len(line.lstrip(" ")), line.lstrip(" ")] for line in text.split("\n")[:-1]]
    pos = 0

    def is_item(text):
        return text == "-" or text.startswith("- ")

    def value_at(col):
        nonlocal pos
        text = lines[pos][1]
        if is_item(text):
            out = []
            while pos < len(lines) and lines[pos][0] == col and is_item(lines[pos][1]):
                if lines[pos][1] == "-":
                    out.append(())
                    pos += 1
                else:
                    lines[pos] = [col + 2, lines[pos][1][2:]]
                    out.append(value_at(col + 2))
            return out
        if not KEY_LINE.fullmatch(text):
            pos += 1
            return text
        out = {}
        while pos < len(lines) and lines[pos][0] == col and (match := KEY_LINE.fullmatch(lines[pos][1])):
            key, scalar = match.groups()
            assert key not in out, key
            pos += 1
            if scalar is not None:
                out[key] = scalar
            elif pos < len(lines) and lines[pos][0] > col:
                out[key] = value_at(lines[pos][0])
            else:
                out[key] = ()
        return out

    doc = value_at(0)
    assert pos == len(lines), lines[pos:]
    return doc


def as_listed(value):
    """A parsed JSON document as ``read_listing`` reads its listing: scalars as the listing writes them."""
    if isinstance(value, (dict, list)) and not value:
        return ()
    if isinstance(value, dict):
        return {key: as_listed(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [as_listed(inner) for inner in value]
    if isinstance(value, str) and value.splitlines() != [value] and value:
        return json.dumps(value)
    return str(value)


LISTED_CASES = {
    **{name: case for name, case in CASES.items() if "--no-json" in case[0]},
    "classify_violations_text": (["classify", "y^7 = x^6 + 2*x^3 + 1", "--no-json"], None),
    "reconstruct_three_entries_text": (["reconstruct", "--invariants", "1,1,3", "--no-json"], None),
}


@pytest.mark.parametrize("name", sorted(LISTED_CASES))
def test_the_listing_reads_back_as_the_json_document(name):
    argv, stdin = LISTED_CASES[name]
    listed = run_case(argv, stdin)
    documented = run_case([arg for arg in argv if arg != "--no-json"], stdin)
    assert listed["exit"] == documented["exit"]
    doc = json.loads(documented["stdout"] or documented["stderr"])
    assert read_listing(listed["stdout"] or listed["stderr"]) == as_listed(doc)


def test_a_listed_item_that_is_a_container_starts_on_its_dash_line(capsys):
    code, out, _ = run(capsys, "classify", "y^7 = x^6 + 2*x^3 + 1", "--no-json")
    assert code == 1
    assert out.split("  violations:\n")[1] == (
        "    - code: degree_not_above_n\n"
        "      message: deg f = 6 must exceed n = 7\n"
        "    - code: zero_discriminant\n"
        "      message: f has a repeated root (discriminant 0)\n"
    )
    code, out, _ = run(capsys, "reconstruct", "--invariants", "1,1,3", "--no-json")
    assert code == 0
    assert out.split("interior_coefficients:\n")[1].split("equation:")[0] == (
        "  - a: 3/2\n"
        "    b: 0\n"
        "    d: -77\n"
        "  - a: 1/2\n"
        "    b: -1/22\n"
        "    d: -77\n"
    )


def test_a_rendered_list_of_dicts_reads_back_as_its_document():
    body = {
        "failures": [
            {"index": 3, "a": ["-1/2", "3"], "reason": "two\nlines"},
            {"index": 7, "a": [Fraction(-2), QuadExt(1, -1, 5)], "reason": None},
            {"a": [[], {}, [[1, [2]]]], "index": 9},
            [],
            {},
        ],
        "passed": 0,
    }
    listed = _render("roundtrip", body, as_json=False)
    assert "  - index: 3\n    a:\n      - -1/2\n" in listed
    assert "  -\n  -\n" in listed
    assert read_listing(listed) == as_listed(json.loads(_render("roundtrip", body, as_json=True)))


def write_json(value) -> str:
    chunks = []
    _write_json(value, chunks, "\n")
    return "".join(chunks)


def convert(value):
    """``value`` with each Fraction as its str, each QuadExt as its a/b/d object and each tuple as a list."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadExt):
        return {"a": str(value.a), "b": str(value.b), "d": value.d}
    if isinstance(value, (list, tuple)):
        return [convert(item) for item in value]
    if isinstance(value, dict):
        return {key: convert(item) for key, item in value.items()}
    return value


awkward_text = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "é", "\U0001f600"]),
    max_size=8,
)
# past 4300 digits an int prints only where the interpreter's limit is raised or off
long_ints = st.builds(lambda digits, low, sign: sign * (10 ** digits + low),
                      st.integers(100, 5000), st.integers(0, 10 ** 6), st.sampled_from([1, -1]))
fractions = st.fractions() | st.builds(Fraction, long_ints, st.integers(1, 10 ** 6))
writer_leaves = (st.none() | st.booleans() | st.integers() | long_ints | awkward_text | fractions
                 | st.builds(QuadExt, fractions, fractions, st.sampled_from([2, 3, -1, -7, 10 ** 40 + 1])))
writer_documents = st.recursive(
    writer_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(awkward_text, inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(writer_documents)
def test_the_writer_gives_the_bytes_of_json_dumps(document):
    try:
        expected = json.dumps(convert(document), sort_keys=True, indent=2)
    except ValueError:  # an int past the interpreter's limit for writing it as text
        with pytest.raises(ValueError):
            write_json(document)
    else:
        assert write_json(document) == expected


@pytest.mark.parametrize(
    "value",
    [1.5, {"a": [0.0]}, {1, 2}, b"x", {1: "x"}, {"a": {None: 1}}, [(1, 2), {"a", "b"}]],
    ids=["float", "nested_float", "set", "bytes", "int_key", "none_key", "nested_set"],
)
def test_the_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        write_json(value)


@pytest.mark.parametrize("argv", [("invariants", SEXTIC), ("field", "--invariants", "1,1")])
def test_json_is_sorted_and_parses(capsys, argv):
    _, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("field", "--invariants", "1e1000000,1"), "invalid_input"),
        (("field", "--invariants", "1.5,2"), "invalid_input"),
        (("roundtrip", "--a", "2,1e1000000"), "invalid_input"),
        (("classify", "y^2 = x^6 + " + "9" * 5000), "input_too_large"),
        (("field", "--invariants", "9" * 2000 + "," + "7" * 2000), "factor_bound_exceeded"),
    ],
    ids=["exponent_notation", "decimal", "roundtrip_exponent_notation", "coefficient_of_5000_digits",
         "invariants_of_2000_digits"],
)
def test_outside_numerals_are_refused_quickly(capsys, argv, code):
    start = time.perf_counter()
    exit_code, doc, err = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert exit_code == 1 and err == ""
    assert doc["error"]["code"] == code


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("roundtrip", "--a", "2,1", "--random", "3"), "either --a or --random"),
        (("roundtrip", "--random", "0"), "positive count"),
        (("roundtrip",), "no tuple given"),
        (("field", "--invariants", ","), "nonempty comma-separated list"),
        (("field", "--invariants", "1,,1"), "not an exact rational: ''"),
        (("roundtrip", "--a", "2,1,"), "not an exact rational: ''"),
        (("reconstruct", "--invariants", ",9,4"), "not an exact rational: ''"),
    ],
    ids=["tuple_and_random", "zero_random", "no_tuple", "empty_invariants", "inner_empty_entry",
         "trailing_empty_entry", "leading_empty_entry"],
)
def test_argument_refusals_are_input_errors(capsys, argv, fragment):
    code, doc, err = run_json(capsys, *argv)
    assert code == 1 and err == ""
    assert doc["command"] == argv[0]
    assert doc["error"]["code"] == "invalid_input"
    assert fragment in doc["error"]["message"]


def test_reconstruct_refuses_an_equation_above_max_degree(capsys):
    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "1,1", "--delta", "1000000000")
    assert code == 1 and doc["error"]["code"] == "invalid_input"
    assert "MAX_DEGREE" in doc["error"]["message"]

    tracemalloc.start()
    try:
        code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "1,1", "--delta", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2_000_000

    # the cap is inclusive: s = 2 and delta = MAX_DEGREE // 3 give degree 3 * delta <= MAX_DEGREE
    delta = MAX_DEGREE // 3
    code, doc, _ = run_json(capsys, "reconstruct", "--invariants", "1,1", "--delta", str(delta))
    assert code == 0 and doc["equation"].startswith(f"y^2 = (1/2 - 1/4*sqrt(2))*x^{3 * delta} + ")

    # field builds no polynomial and takes any delta
    code, doc, _ = run_json(capsys, "field", "--invariants", "1,1", "--delta", "1000000000")
    assert code == 0 and doc["inputs"]["delta"] == 1000000000


def test_roundtrip_refuses_a_tuple_above_max_degree_quickly(capsys):
    # s = MAX_DEGREE // 2 entries with delta = 2 rebuild degree MAX_DEGREE + 2; 300 entries already take seconds
    long_tuple = ",".join(["1/3", "2/7"] * (MAX_DEGREE // 4))
    start = time.perf_counter()
    code, doc, _ = run_json(capsys, "roundtrip", "--a", long_tuple)
    assert time.perf_counter() - start < 2
    assert code == 1 and doc["error"]["code"] == "invalid_input"
    assert doc["error"]["message"] == (
        f"the rebuilt equation would have degree {MAX_DEGREE + 2}, above MAX_DEGREE = {MAX_DEGREE}"
    )

    # the same inclusive cap as reconstruct's: s = 2 and delta = MAX_DEGREE // 3 pass
    delta = MAX_DEGREE // 3
    code, doc, _ = run_json(capsys, "roundtrip", "--a", "2,1", "--delta", str(delta))
    assert code == 0 and doc["status"] == "pass"
    code, doc, _ = run_json(capsys, "roundtrip", "--a", "2,1", "--delta", str(delta + 1))
    assert code == 1 and "MAX_DEGREE" in doc["error"]["message"]


EQUATIONS = (
    SEXTIC,
    "y^3 = x^9 + 3*x^6 - 2*x^3 + 1",
    "y^3 = x^7 + 5*x^4 + x",
    "y^2 = x^8 + 5x^4 + 1",
    "y^2 = x^4 + 2x^2 + 1",
    "y^2 = x^6 + * 1",
    "y^2 = x^1000000000 + 1",
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
rationals = st.lists(st.integers(-60, 60) | st.sampled_from(["9", "4", "1/2", "-3/7", " 2 "]), min_size=2, max_size=6)
not_rationals = st.lists(st.sampled_from(["9", "1e5", "1.5", "1/0", "x", ""]), max_size=4)
stdin_documents = json_values | st.fixed_dictionaries(
    {},
    optional={
        "equation": st.sampled_from(EQUATIONS),
        "invariants": rationals | rationals.map(lambda xs: ",".join(map(str, xs))) | not_rationals | json_values,
        "n": st.integers(2, 12) | st.integers(max_value=1) | json_values,
        "delta": st.integers(2, 12) | st.integers(max_value=1) | st.integers(min_value=13) | json_values,
        "root": st.sampled_from(["plus", "minus", "best"]) | json_values,
    },
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["field", "reconstruct", "invariants", "classify"]), document=stdin_documents)
def test_any_stdin_json_ends_in_one_structured_document(command, document):
    """Arbitrary JSON on stdin gives exit 0 or 1 and one enveloped document.

    The equation text comes from a fixed list: arbitrary equation text is out
    of scope here, because validating a dense f still has no time bound up to
    MAX_DEGREE: its exact discriminant takes seconds from degree ~200 on, and
    the cost grows more than tenfold per doubling of the degree.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(document))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = saved
    assert code in (0, 1) and err.getvalue() == ""
    doc = json.loads(out.getvalue())
    assert doc["schema_version"] == "1" and doc["command"] == command
    assert (code == 1) == ("error" in doc)


small_rationals = st.builds(lambda p, q: str(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 5))
small_tuples = st.lists(small_rationals, max_size=6).map(",".join)
#: Mostly the values a run accepts, and now and then one it refuses.
small_numbers = (st.integers(2, 4) | st.integers(-1, 6)).map(str)
#: A numeral of the most digits an input may have: a sum of two, or delta*(s+1) with it as
#: delta, is too long to write under CPython's default limit on integer string conversion.
LONG_NUMERAL = "9" * _digit_limit()


@st.composite
def small_equations(draw):
    """``y^N = f(x)``: f of degree at most 14 with coefficients and exponents drawn, never typed.

    Half the time f is the normal form ``x^(delta(s+1)) + a_s x^(delta s) + ... + a_1 x^delta + 1``,
    and now and then ``LONG_NUMERAL`` is added twice at its leading exponent, constant term or x term.
    """
    if draw(st.booleans()):
        delta = draw(st.integers(2, 3))
        exponents = range(0, delta * (draw(st.integers(1, 14 // delta - 1)) + 1) + 1, delta)
        terms = [(1 if e in (0, exponents[-1]) else draw(st.integers(-9, 9)), e) for e in reversed(exponents)]
        if not draw(st.integers(0, 4)):
            # sparse f only: on a dense f of degree 14 such a coefficient takes the discriminant over 2 s
            terms += [(int(LONG_NUMERAL), draw(st.sampled_from([exponents[-1], 0, 1])))] * 2
    else:
        terms = draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 14)), max_size=6))
    body = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x^{e}" for c, e in terms).removeprefix("+ ")
    return f"y^{draw(small_numbers)} = {body}"


@st.composite
def small_argv(draw):
    """argv for one subcommand: small values, and now and then a flag left out or an unknown one added.

    Now and then ``--delta`` or ``--n`` is ``LONG_NUMERAL``.
    """
    flags = {
        "invariants": {"source": small_equations(), "--delta": small_numbers},
        "classify": {"source": small_equations(), "--delta": small_numbers},
        "genus": {"--n": small_numbers, "--d": st.integers(-1, 14).map(str)},
        "field": {"--invariants": small_tuples, "--n": small_numbers, "--delta": small_numbers},
        "reconstruct": {"--invariants": small_tuples, "--n": small_numbers, "--delta": small_numbers,
                        "--root": st.sampled_from(["plus", "minus", "plus", "minus", "best"])},
        "roundtrip": {"--a": small_tuples, "--random": st.integers(-1, 3).map(str), "--seed": small_numbers,
                      "--n": small_numbers, "--delta": small_numbers},
    }
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, values in flags[command].items():
        if draw(st.integers(0, 9)):
            if flag in ("--delta", "--n") and not draw(st.integers(0, 9)):
                values = st.just(LONG_NUMERAL)
            value = draw(values)
            argv += [value] if flag == "source" else [f"{flag}={value}"]
    if not draw(st.integers(0, 19)):
        argv.append("--unknown")
    return argv


@settings(max_examples=300, deadline=None)
@given(small_argv())
@example(["classify", f"y^2 = {LONG_NUMERAL}*x^6 + {LONG_NUMERAL}*x^6 + x^4 + x^2 + 1"])
@example(["roundtrip", "--a=2,1", f"--delta={LONG_NUMERAL}"])
def test_small_argv_for_every_subcommand_ends_in_one_json_document(argv):
    """Bounded fuzz: small drawn inputs exit 0, 1 or 2 with one JSON document, each within 2 s.

    Degrees, exponents and tuple lengths are drawn small, so the input classes
    that still have no time bound (a dense f of high degree) are out of reach.
    A value too long to write, such as a sum of two numerals at the digit
    limit, is named by its size, never by CPython's conversion error.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2, argv
    assert code in (0, 1, 2), argv
    # a usage error (exit 2) writes its document on stderr; every other run writes it on stdout
    written, silent = (err, out) if code == 2 else (out, err)
    assert silent.getvalue() == "", argv
    doc = json.loads(written.getvalue())
    assert doc["schema_version"] == "1", argv
    assert doc["command"] == ("usage" if code == 2 else argv[0]), argv
    assert (code == 0) == ("error" not in doc), argv
    assert not re.search("Exceeds the limit|set_int_max_str_digits", written.getvalue()), argv


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["", " "]) | small_rationals, max_size=5))
@example(["1", "", "1"])
def test_a_text_list_reads_every_entry_as_the_stdin_list_does(entries):
    """``--invariants`` text is read as the list of its comma-separated entries: the same exit and document."""
    from_text = run_case(["field", "--invariants", ",".join(entries)], None)
    assert run_case(["field", "-"], {"invariants": entries}) == from_text
