"""Command-line interface: exact JSON reports for each pipeline stage.

Subcommands: ``invariants``, ``reconstruct``, ``genus``, ``classify``,
``field``, ``roundtrip``.  Output is JSON by default (``--no-json`` for a
plain key: value listing) and is byte-identical for identical invocations:
keys are sorted, exact rationals are serialized as ``"p/q"`` strings (never
floats), and quadratic-field elements as ``{"a": "p/q", "b": "p/q", "d": n}``.

Equation-taking commands accept the equation text as a positional argument,
or ``-`` to read a JSON object from stdin (key ``"equation"``, optional
``"delta"``).  Invariant-taking commands accept ``--invariants p/q,p/q,...``
or ``-`` for stdin JSON (keys ``"invariants"``, ``"n"``, ``"delta"``, and
for ``reconstruct`` an optional ``"root"``).  A set flag wins over stdin,
stdin over the default.  A rational is a JSON integer or
``[+-]digits[/digits]`` text, an integer flag is ``[+-]digits``, and digits
are ASCII ``0-9`` (no exponents or decimals).  ``reconstruct``
refuses a rebuilt degree ``delta*(s+1)`` above ``MAX_DEGREE``, and
``roundtrip --random N`` an ``N`` above ``MAX_RANDOM``.  Every
document, errors included, carries ``schema_version`` and ``command``.

``main(argv)`` may be called many times in one process: the argument parser
is built on the first call and reused.  A reader that closes the output
early ends the run with exit 1 and nothing on stderr.
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

from .curve import CurveValidationError, classify_normal_form, genus, validate
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
from .equations import MAX_DEGREE, EquationSyntaxError, InputTooLargeError, parse_equation, render_equation
from .exact import FactorBoundExceededError, QuadExt, RadicandMismatchError

SCHEMA_VERSION = "1"

#: The largest N that ``roundtrip --random N`` runs (~0.45 ms per tuple).
MAX_RANDOM = 10000


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadExt):
        return {"a": str(value.a), "b": str(value.b), "d": value.d}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _print_human(value, out, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                print(f"{pad}{key}:", file=out)
                _print_human(inner, out, indent + 1)
            else:
                print(f"{pad}{key}: {inner}", file=out)
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                _print_human(inner, out, indent + 1)
            else:
                print(f"{pad}- {inner}", file=out)


_ERROR_CODES = (
    (UsageError, "usage_error"),
    (InputTooLargeError, "input_too_large"),
    (EquationSyntaxError, "syntax_error"),
    (CurveValidationError, "invalid_curve"),
    (NoExtraAutomorphismError, "no_extra_automorphism"),
    (UnsupportedFormError, "unsupported_form"),
    (DegenerateLocusError, "degenerate_locus"),
    (FactorBoundExceededError, "factor_bound_exceeded"),
    (RadicandMismatchError, "radicand_mismatch"),
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
        doc = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("stdin JSON is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("stdin JSON must be an object")
    return doc


_JSON_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list"}


def _stdin_value(doc: dict, key: str, *kinds: type):
    """doc[key], refused unless its JSON type is one of ``kinds``.

    The test is on the exact type, so true/false are not integers and 2.0 is
    not one either: nothing is coerced.
    """
    value = doc[key]
    if type(value) not in kinds:
        expected = " or ".join(_JSON_TYPE_NAMES[kind] for kind in kinds)
        raise ValueError(f'stdin JSON "{key}" must be {expected}, got {json.dumps(value)}')
    return value


#: The JSON types each stdin key may have; no other key is read.
_STDIN_TYPES = {"equation": (str,), "invariants": (str, list), "n": (int,), "delta": (int,), "root": (str,)}

#: Per command: its input keys with their defaults (the first key has none and
#: is required), the message when that key is given nowhere, and whether the
#: positional is that key's value ("-" always means stdin JSON).
_EQUATION_INPUTS = ({"equation": None, "delta": None}, 'stdin JSON needs an "equation" key', True)
_NO_INVARIANTS = "no invariants given; use --invariants or stdin JSON"
_INPUTS = {"invariants": _EQUATION_INPUTS, "classify": _EQUATION_INPUTS,
           "field": ({"invariants": None, "n": 2, "delta": 2}, _NO_INVARIANTS, False),
           "reconstruct": ({"invariants": None, "n": 2, "delta": 2, "root": "minus"}, _NO_INVARIANTS, False)}


def _merged_input(args) -> dict:
    """Each input key: its flag if set, else its type-checked stdin value, else its default."""
    defaults, missing, positional_is_value = _INPUTS[args.command]
    merged = {key: getattr(args, key, None) for key in defaults}
    first = next(iter(defaults))
    if args.source == "-":
        doc = _stdin_doc()
        for key in defaults:
            if merged[key] is None and key in doc:
                merged[key] = _stdin_value(doc, key, *_STDIN_TYPES[key])
    elif positional_is_value:
        merged[first] = args.source
    elif args.source is not None:
        raise ValueError(f"unexpected positional argument {args.source!r}; only '-' is allowed")
    if merged[first] is None:
        raise ValueError(missing)
    return {key: defaults[key] if value is None else value for key, value in merged.items()}


def _invariants(inputs: dict) -> DihedralInvariants:
    return DihedralInvariants(_parse_rational_list(inputs["invariants"]), inputs["n"], inputs["delta"])


_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(rf"{_INTEGER}(/[0-9]+)?")


def _parse_rational(value) -> Fraction:
    """A JSON integer or the text [+-]digits[/digits]: no exponents, so no huge expansions."""
    if type(value) in (str, int) and _RATIONAL.fullmatch(str(value).strip()):
        try:
            return Fraction(str(value).strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not an exact rational: {value!r}")


def _parse_rational_list(value) -> tuple[Fraction, ...]:
    if isinstance(value, str):
        parts = [piece for piece in value.split(",") if piece.strip()]
    else:
        parts = list(value)
    if not parts:
        raise ValueError("expected a nonempty comma-separated list of rationals")
    return tuple(_parse_rational(piece) for piece in parts)


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


def _cmd_invariants(args) -> dict:
    inputs = _merged_input(args)
    n, f = parse_equation(inputs["equation"])
    curve = validate(n, f)
    nf, inv = invariants_for_curve(curve, inputs["delta"])
    return {
        "inputs": inputs,
        "n": curve.n,
        "delta": nf.delta,
        "s": nf.s,
        "kind": nf.kind,
        "rescale": nf.rescale,
        "a": list(nf.a),
        "invariants": list(inv.values),
        **_field_section(inv),
    }


def _cmd_classify(args) -> dict:
    inputs = _merged_input(args)
    n, f = parse_equation(inputs["equation"])
    curve = validate(n, f)
    nf = classify_normal_form(curve, inputs["delta"])
    invariants_supported = nf.kind == "GDelta" and (nf.s or 0) >= 2
    doc = {
        "inputs": inputs,
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
            if nf.kind != "GDelta"
            else "dihedral invariants need at least 2 interior coefficients"
        )
    return doc


def _cmd_genus(args) -> dict:
    return {
        "inputs": {"n": args.n, "d": args.d},
        "n": args.n,
        "d": args.d,
        "genus": genus(args.n, args.d),
    }


def _cmd_field(args) -> dict:
    inv = _invariants(_merged_input(args))
    return {
        "inputs": {"invariants": list(inv.values), "n": inv.n, "delta": inv.delta},
        **_field_section(inv),
    }


def _cmd_reconstruct(args) -> dict:
    inputs = _merged_input(args)
    inv = _invariants(inputs)
    degree = inv.delta * (inv.s + 1)
    if degree > MAX_DEGREE:
        raise ValueError(f"the rebuilt equation would have degree {degree}, above MAX_DEGREE = {MAX_DEGREE}")
    plus, minus = leading_coefficients(inv)
    rec = reconstruct(inv, inputs["root"])
    if rec.leading_coefficient == 0:
        other = "plus" if rec.root_choice == "minus" else "minus"
        raise ValueError(
            f"the {rec.root_choice} root is 0, which rebuilds y^{inv.n} = 1, not a curve; "
            f"use --root {other} (root {plus if other == 'plus' else minus})"
        )
    return {
        "inputs": {**inputs, "invariants": list(inv.values)},
        **_field_section(inv),
        "roots": {"plus": plus, "minus": minus},
        "root_choice": rec.root_choice,
        "leading_coefficient": rec.leading_coefficient,
        "interior_coefficients": list(rec.interior_coefficients),
        "equation": render_equation(rec.n, rec.polynomial()),
    }


def _cmd_roundtrip(args) -> dict:
    if args.random is not None:
        if args.a is not None:
            raise ValueError("give either --a or --random, not both")
        if args.random < 1:
            raise ValueError("--random needs a positive count")
        if args.random > MAX_RANDOM:
            raise ValueError(f"--random {args.random} is above MAX_RANDOM = {MAX_RANDOM}")
        rng = random.Random(args.seed)
        counts = {"pass": 0, "skipped": 0, "fail": 0}
        failures = []
        for index in range(args.random):
            size = rng.randint(2, 8)
            tuple_a = [
                Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(size)
            ]
            report = roundtrip_verify(tuple_a, args.n, args.delta)
            counts[report.status] += 1
            if report.status == "fail":
                failures.append(
                    {"index": index, "a": [str(v) for v in tuple_a], "reason": report.reason}
                )
        return {
            "inputs": {"random": args.random, "seed": args.seed, "n": args.n, "delta": args.delta},
            "total": args.random,
            "passed": counts["pass"],
            "skipped": counts["skipped"],
            "failed": counts["fail"],
            "failures": failures,
        }
    if args.a is None:
        raise ValueError("no tuple given; use --a or --random N")
    tuple_a = _parse_rational_list(args.a)
    report = roundtrip_verify(tuple_a, args.n, args.delta)
    return {
        "inputs": {"a": list(tuple_a), "n": args.n, "delta": args.delta},
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
        return int(text)
    except ValueError:  # more digits than the interpreter converts; name the length, not the digits
        digits = len(text.strip().lstrip("+-"))
        raise argparse.ArgumentTypeError(
            f"invalid int value: a numeral of {digits} digits, over the limit of {sys.get_int_max_str_digits()}"
        ) from None


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The parser, built on the first call and shared: parse_args keeps no state in it."""
    parser = _ArgumentParser(
        prog="superelliptic",
        description="Exact dihedral invariants and fields of definition for superelliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("invariants", "classify an equation and compute its invariants", _cmd_invariants),
        ("classify", "detect the normal form of an equation", _cmd_classify),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("source", metavar="equation", help="equation text, or - for stdin JSON")
        p.add_argument("--delta", type=_ascii_int, default=None, help="pin delta instead of taking the maximal fit")
        p.set_defaults(func=func)

    p = sub.add_parser("genus", help="genus of y^n = f(x) from n and deg f")
    p.add_argument("--n", type=_ascii_int, required=True, help="superelliptic exponent")
    p.add_argument("--d", type=_ascii_int, required=True, help="degree of f")
    p.set_defaults(func=_cmd_genus)

    def add_invariant_inputs(p):
        p.add_argument("source", nargs="?", default=None, help="- to read stdin JSON")
        p.add_argument("--invariants", default=None, help="comma-separated rationals s_1,...,s_s")
        p.add_argument("--n", type=_ascii_int, default=None, help="superelliptic exponent (default 2)")
        p.add_argument("--delta", type=_ascii_int, default=None, help="decimation step (default 2)")

    p = sub.add_parser("field", help="field of moduli vs field of definition from invariants")
    add_invariant_inputs(p)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("reconstruct", help="rebuild an equation from invariants")
    add_invariant_inputs(p)
    p.add_argument("--root", choices=["plus", "minus"], default=None,
                   help="which quadratic root becomes the leading coefficient (default minus)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="forward-compute invariants, reconstruct, compare")
    p.add_argument("--a", default=None, help="comma-separated interior coefficients a_1,...,a_s")
    p.add_argument("--random", type=_ascii_int, default=None, metavar="N",
                   help="run N random tuples instead of an explicit one")
    p.add_argument("--seed", type=_ascii_int, default=0, help="seed for --random (default 0)")
    p.add_argument("--n", type=_ascii_int, default=2, help="superelliptic exponent (default 2)")
    p.add_argument("--delta", type=_ascii_int, default=2, help="decimation step (default 2)")
    p.set_defaults(func=_cmd_roundtrip)

    for p in sub.choices.values():
        p.add_argument(
            "--json",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="emit JSON (default) or a plain listing with --no-json",
        )
    return parser


def main(argv=None) -> int:
    command, as_json, out = "usage", True, sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        command, as_json, out = args.command, args.json, sys.stdout
        body, code = args.func(args), 0
    except UsageError as exc:
        body, code = _error_doc(exc), 2
    except (ValueError, ArithmeticError) as exc:
        body, code = _error_doc(exc), 1
    doc = _jsonable({"schema_version": SCHEMA_VERSION, "command": command, **body})
    try:
        if as_json:
            print(json.dumps(doc, sort_keys=True, indent=2), file=out)
        else:
            _print_human(doc, out)
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
