"""Command-line interface: exact JSON reports for each pipeline stage.

Subcommands: ``invariants``, ``classify``, ``genus``, ``field``,
``reconstruct``, ``roundtrip``.  Output is JSON by default (``--no-json`` for
a plain key: value listing) and is byte-identical for identical invocations:
exact rationals are serialized as ``"p/q"`` strings (never floats), and
quadratic-field elements as ``{"a": "p/q", "b": "p/q", "d": n}``.  The JSON
has the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``, written in one
pass: sorted keys, a two-space indent, ``": "`` and ``","`` as separators, and
ASCII only (other characters as ``\\uXXXX``).  In the listing, a string that
``str.splitlines()`` would split (at ``\\n``, ``\\r``, ``\\v``, ``\\f``,
``\\x1c``-``\\x1e``, ``\\x85``, U+2028 or U+2029) is written as its JSON string
literal, so each line holds one key or one item.

``_COMMANDS`` declares each subcommand's input keys and ``_INPUTS`` each
key's flag and stdin types.  ``main`` merges the inputs by one rule (a set
flag wins, then the stdin JSON value where the positional ``-`` is accepted,
then the default), hands them to the subcommand and echoes them as
``inputs``, in the table's key order.  A rational is a JSON integer or
``[+-]digits[/digits]`` text, an integer flag is ``[+-]digits``, and digits
are ASCII ``0-9`` (no exponents or decimals).  A list of rationals, as text
or as a stdin list, has every entry read, so ``1,,1`` is refused.  On every
route, a numeral of more than 4300 digits, or of more than the interpreter's
integer conversion limit when that is lower, is refused by its length before
it is converted.
``reconstruct`` and ``roundtrip --a`` refuse a rebuilt degree ``delta*(s+1)``
above ``MAX_DEGREE``, and ``roundtrip --random N`` an ``N`` above ``MAX_RANDOM``.
Every document, errors included, carries ``schema_version`` and ``command``.

``main(argv)`` may be called many times in one process: the argument parser
is built on the first call and reused.  It returns the exit status; ``--help``
prints to stdout and returns 0.  A reader that closes the output early ends
the run with exit 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .curve import G_DELTA, CurveValidationError, classify_normal_form, genus, validate
from .dihedral import (
    DegenerateLocusError,
    DihedralInvariants,
    NoExtraAutomorphismError,
    UnsupportedFormError,
    field_of_definition,
    invariants_for_curve,
    leading_coefficients,
    reconstruct,
    roundtrip_verify,
)
from .equations import (MAX_DEGREE, EquationSyntaxError, InputTooLargeError, _digit_limit, parse_equation,
                        render_equation)
from .exact import FactorBoundExceededError, QuadExt, _sized_text

SCHEMA_VERSION = "1"

#: The largest N that ``roundtrip --random N`` runs (~0.1 ms per tuple).
MAX_RANDOM = 10000


class UsageError(Exception):
    pass


class _Help(Exception):
    """Raised by -h/--help with the help text, which main prints."""


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag starts with a digit, so every -<digit> token is a value, as
        # in --a -2,1 or --invariants -1/2,3; argparse's own pattern takes
        # only a plain number such as -2 for one.
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def _check_value(self, action, value):
        # argparse's own wording of this error changed within 3.13 (later
        # patches stopped quoting the choices), and the CLI bytes must not
        # depend on the patch release; this is the wording of 3.10 to 3.13.0.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


#: Each scalar type's JSON text; a string goes through the C escaper that json.dumps uses itself.
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,  # ValueError past the interpreter's digit limit
    Fraction: lambda value: f'"{value!s}"',
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value, chunks: list, pad: str) -> None:
    """Append the JSON text of ``value`` to ``chunks``; ``pad`` is the newline and indent of its lines.

    The bytes of ``json.dumps(value, sort_keys=True, indent=2)`` with each
    Fraction as its ``str`` and each QuadExt as its ``{"a", "b", "d"}`` object.
    Types match exactly: any other type, or a key that is not a string, raises TypeError.
    """
    kind = type(value)
    if kind in _JSON_LEAVES:
        chunks.append(_JSON_LEAVES[kind](value))
    elif kind is dict:
        inner, opener = pad + "  ", "{"
        for key in sorted(value):
            chunks += (opener, inner, encode_basestring_ascii(key), ": ")
            _write_json(value[key], chunks, inner)
            opener = ","
        chunks.append(pad + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner, opener = pad + "  ", "["
        for item in value:
            chunks += (opener, inner)
            _write_json(item, chunks, inner)
            opener = ","
        chunks.append(pad + "]" if value else "[]")
    elif kind is QuadExt:
        _write_json({"a": value.a, "b": value.b, "d": value.d}, chunks, pad)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _human_lines(value, indent=0):
    """A dict as "key: value" lines and a list or tuple as "- item" lines, nesting indented.

    A QuadExt nests as its a/b/d mapping; a string with a line break is written as its JSON literal.
    An item that is a container starts on its "- " line, with its other lines two spaces deeper
    than the dash; an empty one is a bare "-".
    """
    pad = "  " * indent
    for key, inner in value.items() if isinstance(value, dict) else ((None, inner) for inner in value):
        if isinstance(inner, QuadExt):
            inner = {"a": inner.a, "b": inner.b, "d": inner.d}
        if isinstance(inner, (dict, list, tuple)):
            if key is not None:
                yield f"{pad}{key}:"
                yield from _human_lines(inner, indent + 1)
            elif not inner:
                yield f"{pad}-"
            else:
                lines = _human_lines(inner, indent + 1)
                yield f"{pad}- {next(lines)[len(pad) + 2:]}"
                yield from lines
        else:
            if isinstance(inner, str) and inner and inner.splitlines() != [inner]:
                inner = encode_basestring_ascii(inner)
            yield f"{pad}- {inner}" if key is None else f"{pad}{key}: {inner}"


def _render(command: str, body: dict, as_json: bool) -> str:
    """The whole document as text, so that an error while rendering leaves nothing written."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command, **body}
    if as_json:
        chunks = []
        _write_json(doc, chunks, "\n")
        return "".join(chunks) + "\n"
    return "".join(line + "\n" for line in _human_lines(doc))


_ERROR_CODES = (
    (UsageError, "usage_error"),
    (InputTooLargeError, "input_too_large"),
    (EquationSyntaxError, "syntax_error"),
    (CurveValidationError, "invalid_curve"),
    (NoExtraAutomorphismError, "no_extra_automorphism"),
    (UnsupportedFormError, "unsupported_form"),
    (DegenerateLocusError, "degenerate_locus"),
    (FactorBoundExceededError, "factor_bound_exceeded"),
)


def _error_doc(exc: Exception) -> dict:
    code = "invalid_input"
    for exc_type, name in _ERROR_CODES:
        if isinstance(exc, exc_type):
            code = name
            break
    error = {"code": code, "message": str(exc)}
    if isinstance(exc, EquationSyntaxError):
        error["position"] = exc.position
    if isinstance(exc, CurveValidationError):
        error["violations"] = [
            {"code": code_, "message": message} for code_, message in exc.violations
        ]
    return {"error": error}


def _stdin_doc() -> dict:
    try:
        doc = json.load(sys.stdin, parse_int=_numeral)
    except RecursionError:
        raise ValueError("stdin JSON is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("stdin JSON must be an object")
    return doc


_JSON_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _stdin_value(doc: dict, key: str):
    """doc[key], refused unless its JSON type is one that ``_INPUTS`` allows for ``key``.

    The test is on the exact type, so true/false are not integers and 2.0 is
    not one either: nothing is coerced.
    """
    value, kinds = doc[key], _INPUTS[key][0]
    if type(value) not in kinds:
        expected = " or ".join(_JSON_TYPE_NAMES[kind] for kind in kinds)
        raise ValueError(f'stdin JSON "{key}" must be {expected}, got {json.dumps(value)}')
    return value


def _merged_input(args) -> dict:
    """Each input key: its flag if set, else its type-checked stdin value, else its default; invariants parsed."""
    defaults = _COMMANDS[args.command][2]
    merged = {key: getattr(args, key, None) for key in defaults}
    first = next(iter(defaults))
    source = getattr(args, "source", None)
    if source == "-":
        doc = _stdin_doc()
        for key in defaults:
            if merged[key] is None and key in doc:
                merged[key] = _stdin_value(doc, key)
    elif first == "equation":
        merged[first] = source
    elif source is not None:
        raise ValueError(f"unexpected positional argument {source!r}; only '-' is allowed")
    if _INPUTS[first][1] and merged[first] is None:
        raise ValueError(_INPUTS[first][1])
    merged = {key: defaults[key] if value is None else value for key, value in merged.items()}
    if "invariants" in merged:
        merged["invariants"] = _parse_rational_list(merged["invariants"])
    return merged


_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(rf"({_INTEGER})(?:/([0-9]+))?")


def _numeral(text: str) -> int:
    """int(text) of an ASCII numeral; past the digit limit the error names its length, not its digits."""
    digits, limit = len(text.strip().lstrip("+-")), _digit_limit()
    if digits > limit:
        raise ValueError(f"a numeral of {digits} digits, over the limit of {limit}")
    return int(text)


def _parse_rational(value) -> Fraction:
    """A JSON integer or the text [+-]digits[/digits]: no exponents, so no huge expansions."""
    match = type(value) in (str, int) and _RATIONAL.fullmatch(str(value).strip())
    if match:
        numerator, denominator = _numeral(match[1]), _numeral(match[2] or "1")
        if denominator:
            return Fraction(numerator, denominator)
    raise ValueError(f"not an exact rational: {value!r}")


def _parse_rational_list(value) -> list[Fraction]:
    parts = value.split(",") if isinstance(value, str) else value
    if all(isinstance(piece, str) and not piece.strip() for piece in parts):
        raise ValueError("expected a nonempty comma-separated list of rationals")
    return [_parse_rational(piece) for piece in parts]


def _field_section(inv: DihedralInvariants) -> dict:
    """The discriminant and the field report, from one field_of_definition call."""
    report = field_of_definition(inv)
    return {
        "discriminant": report.discriminant,
        "field": {
            "discriminant": report.discriminant,
            "is_square": report.is_square,
            "is_degenerate": report.is_degenerate,
            "squarefree_radicand": report.squarefree_radicand,
            "description": report.field_description,
            "note": report.note,
        },
    }


def _cmd_invariants(inputs: dict) -> dict:
    n, f = parse_equation(inputs["equation"])
    curve = validate(n, f)
    nf, inv = invariants_for_curve(curve, inputs["delta"])
    return {
        "n": curve.n,
        "delta": nf.delta,
        "s": nf.s,
        "kind": nf.kind,
        "rescale": nf.rescale,
        "a": list(nf.a),
        "invariants": list(inv.values),
        **_field_section(inv),
    }


def _cmd_classify(inputs: dict) -> dict:
    n, f = parse_equation(inputs["equation"])
    curve = validate(n, f)
    nf = classify_normal_form(curve, inputs["delta"])
    invariants_supported = nf.kind == G_DELTA and nf.s >= 2
    doc = {
        "n": curve.n,
        "d": curve.d,
        "genus": curve.genus,
        "kind": nf.kind,
        "delta": nf.delta,
        "s": nf.s,
        "a": list(nf.a),
        "rescale": nf.rescale,
        "diagnostic": nf.diagnostic,
        "invariants_supported": invariants_supported,
    }
    if nf.kind is not None and not invariants_supported:
        doc["notice"] = (
            "dihedral invariants are not defined for this form"
            if nf.kind != G_DELTA
            else "dihedral invariants need at least 2 interior coefficients"
        )
    return doc


def _cmd_genus(inputs: dict) -> dict:
    return {**inputs, "genus": genus(inputs["n"], inputs["d"])}


def _cmd_field(inputs: dict) -> dict:
    return _field_section(DihedralInvariants(inputs["invariants"], inputs["n"], inputs["delta"]))


def _check_rebuilt_degree(delta: int, s: int) -> None:
    """Refuse an s-tuple whose rebuilt equation, of degree delta*(s+1), is above MAX_DEGREE."""
    degree = delta * (s + 1)
    if degree > MAX_DEGREE:
        raise ValueError(
            f"the rebuilt equation would have degree {_sized_text(degree)}, above MAX_DEGREE = {MAX_DEGREE}"
        )


def _cmd_reconstruct(inputs: dict) -> dict:
    inv = DihedralInvariants(inputs["invariants"], inputs["n"], inputs["delta"])
    _check_rebuilt_degree(inv.delta, inv.s)
    plus, minus = leading_coefficients(inv)
    rec = reconstruct(inv, inputs["root"])
    if rec.leading_coefficient == 0:
        other = "plus" if rec.root_choice == "minus" else "minus"
        root = str(plus if other == "plus" else minus)
        named = f"root {root}" if len(root) <= 40 else f"a root of {sum(map(str.isdigit, root))} digits"
        raise ValueError(
            f"the {rec.root_choice} root is 0, which rebuilds y^{inv.n} = 1, not a curve; "
            f"use --root {other} ({named})"
        )
    return {
        **_field_section(inv),
        "roots": {"plus": plus, "minus": minus},
        "root_choice": rec.root_choice,
        "leading_coefficient": rec.leading_coefficient,
        "interior_coefficients": list(rec.interior_coefficients),
        "equation": render_equation(rec.n, rec.polynomial()),
    }


def _cmd_roundtrip(inputs: dict) -> dict:
    """Drops the unused keys from ``inputs`` in place: "a", or "random" and "seed"."""
    count = inputs["random"]
    if count is not None:
        if inputs.pop("a") is not None:
            raise ValueError("give either --a or --random, not both")
        if count < 1:
            raise ValueError("--random needs a positive count")
        if count > MAX_RANDOM:
            raise ValueError(f"--random {count} is above MAX_RANDOM = {MAX_RANDOM}")
        rng = random.Random(inputs["seed"])
        counts = {"pass": 0, "skipped": 0, "fail": 0}
        failures = []
        for index in range(count):
            size = rng.randint(2, 8)
            tuple_a = [
                Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(size)
            ]
            report = roundtrip_verify(tuple_a, inputs["n"], inputs["delta"])
            counts[report.status] += 1
            if report.status == "fail":
                failures.append(
                    {"index": index, "a": [str(v) for v in tuple_a], "reason": report.reason}
                )
        return {
            "total": count,
            "passed": counts["pass"],
            "skipped": counts["skipped"],
            "failed": counts["fail"],
            "failures": failures,
        }
    del inputs["random"], inputs["seed"]
    if inputs["a"] is None:
        raise ValueError("no tuple given; use --a or --random N")
    inputs["a"] = _parse_rational_list(inputs["a"])
    _check_rebuilt_degree(inputs["delta"], len(inputs["a"]))
    report = roundtrip_verify(inputs["a"], inputs["n"], inputs["delta"])
    return {
        "status": report.status,
        "reason": report.reason,
        "root_choice": report.root_choice,
        "checks": report.checks,
    }


def _ascii_int(text: str) -> int:
    """argparse type for the integer flags: ASCII digits only (int() also reads ``٣`` and ``1_0``)."""
    if not re.fullmatch(_INTEGER, text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return _numeral(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {exc}") from None


#: Per input key: the JSON types its stdin value may have (none: never read
#: from stdin), the message when it is a subcommand's first key and given
#: nowhere (only those subcommands read stdin JSON, for the positional "-"),
#: and the argparse keywords of its flag (of the positional, for "equation").
_INPUTS = {
    "equation": ((str,), 'stdin JSON needs an "equation" key',
                 {"metavar": "equation", "help": "equation text, or - for stdin JSON"}),
    "invariants": ((str, list), "no invariants given; use --invariants or stdin JSON",
                   {"help": "comma-separated rationals s_1,...,s_s"}),
    "a": ((), None, {"help": "comma-separated interior coefficients a_1,...,a_s"}),
    "random": ((), None, {"type": _ascii_int, "metavar": "N",
                          "help": "run N random tuples instead of an explicit one"}),
    "seed": ((), None, {"type": _ascii_int, "help": "seed for --random"}),
    "n": ((int,), None, {"type": _ascii_int, "help": "superelliptic exponent"}),
    "d": ((), None, {"type": _ascii_int, "help": "degree of f"}),
    "delta": ((int,), None, {"type": _ascii_int, "help": "decimation step"}),
    "root": ((str,), None, {"choices": ["plus", "minus"],
                            "help": "which quadratic root becomes the leading coefficient"}),
}
_SHAPE = {"n": 2, "delta": 2}

#: Per subcommand, in usage order: its help, its function, and its input keys
#: in echo order with their defaults (None: unset; ...: a flag argparse
#: requires).  "equation" is the positional; every other key is a flag.
_COMMANDS = {
    "invariants": ("classify an equation and compute its invariants", _cmd_invariants,
                   {"equation": None, "delta": None}),
    "classify": ("detect the normal form of an equation", _cmd_classify, {"equation": None, "delta": None}),
    "genus": ("genus of y^n = f(x) from n and deg f", _cmd_genus, {"n": ..., "d": ...}),
    "field": ("field of moduli vs field of definition from invariants", _cmd_field, {"invariants": None, **_SHAPE}),
    "reconstruct": ("rebuild an equation from invariants", _cmd_reconstruct,
                    {"invariants": None, **_SHAPE, "root": "minus"}),
    "roundtrip": ("forward-compute invariants, reconstruct, compare", _cmd_roundtrip,
                  {"a": None, "random": None, "seed": 0, **_SHAPE}),
}


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The parser, built on the first call and shared: parse_args keeps no state in it."""
    parser = _ArgumentParser(
        prog="superelliptic",
        description="Exact dihedral invariants and fields of definition for superelliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, default in defaults.items():
            flag = _INPUTS[key][2]
            if key == "equation":
                p.add_argument("source", **flag)
            else:
                shown = "" if default is None or default is ... else f" (default {default})"
                p.add_argument(f"--{key}", **{**flag, "help": flag["help"] + shown}, required=default is ...)
        if "invariants" in defaults:
            p.add_argument("source", nargs="?", help="- to read stdin JSON")
        p.add_argument("--json", action=argparse.BooleanOptionalAction, default=True,
                       help="emit JSON (default) or a plain listing with --no-json")
    return parser


def main(argv=None) -> int:
    command, as_json, out = "usage", True, sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        command, as_json, out = args.command, args.json, sys.stdout
        inputs = _merged_input(args)
        body, code = {"inputs": inputs, **_COMMANDS[command][1](inputs)}, 0
    except _Help as exc:
        body, code, out = str(exc), 0, sys.stdout
    except UsageError as exc:
        body, code = _error_doc(exc), 2
    except (ValueError, ArithmeticError) as exc:
        body, code = _error_doc(exc), 1
    if not isinstance(body, str):
        try:
            body = _render(command, body, as_json)
        except ValueError:  # an int past the interpreter's limit for converting it to text
            too_long = ValueError(
                f"the result has a number of more than {sys.get_int_max_str_digits()} digits, "
                "the interpreter's limit for writing an integer as text"
            )
            body, code = _render(command, _error_doc(too_long), as_json), 1
    try:
        out.write(body)
        out.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit raises nothing, and exit 1 as on EPIPE
        try:
            fd = out.fileno()
        except OSError:  # io.UnsupportedOperation: no real descriptor, as in StringIO
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
