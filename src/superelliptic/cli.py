"""Command-line interface: exact JSON reports for each pipeline stage.

Subcommands: ``invariants``, ``reconstruct``, ``genus``, ``classify``,
``field``, ``roundtrip``.  Output is JSON by default (``--no-json`` for a
plain key: value listing) and is byte-identical for identical invocations:
keys are sorted, exact rationals are serialized as ``"p/q"`` strings (never
floats), and quadratic-field elements as ``{"a": "p/q", "b": "p/q", "d": n}``.

Equation-taking commands accept the equation text as a positional argument,
or ``-`` to read a JSON object from stdin (key ``"equation"``, optional
``"delta"``).  Invariant-taking commands accept ``--invariants p/q,p/q,...``
or ``-`` for stdin JSON (keys ``"invariants"``, ``"n"``, ``"delta"``,
optional ``"root"``).  Explicit flags win over stdin values.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .curve import CurveValidationError, classify_normal_form, genus, validate
from .dihedral import (
    DegenerateLocusError,
    DihedralInvariants,
    NoExtraAutomorphismError,
    UnsupportedFormError,
    dihedral_discriminant,
    field_of_definition,
    invariants_for_curve,
    leading_coefficients,
    reconstruct,
    roundtrip_verify,
)
from .equations import EquationSyntaxError, InputTooLargeError, parse_equation, render_equation
from .exact import FactorBoundExceededError, QuadExt, RadicandMismatchError

SCHEMA_VERSION = "1"


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


def _print_human(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                print(f"{pad}{key}:")
                _print_human(inner, indent + 1)
            else:
                print(f"{pad}{key}: {inner}")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                _print_human(inner, indent + 1)
            else:
                print(f"{pad}- {inner}")
    else:
        print(f"{pad}{value}")


def _emit(doc: dict, as_json: bool) -> None:
    doc = _jsonable(doc)
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        _print_human(doc)


_ERROR_CODES = (
    (InputTooLargeError, "input_too_large"),
    (EquationSyntaxError, "syntax_error"),
    (CurveValidationError, "invalid_curve"),
    (NoExtraAutomorphismError, "no_extra_automorphism"),
    (UnsupportedFormError, "unsupported_form"),
    (DegenerateLocusError, "degenerate_locus"),
    (FactorBoundExceededError, "factor_bound_exceeded"),
    (RadicandMismatchError, "radicand_mismatch"),
)


def _error_doc(command: str, exc: Exception) -> dict:
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
    return {"schema_version": SCHEMA_VERSION, "command": command, "error": error}


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


def _parse_rational(text) -> Fraction:
    if type(text) not in (str, int):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def _parse_rational_list(value) -> tuple[Fraction, ...]:
    if isinstance(value, str):
        parts = [piece for piece in value.split(",") if piece.strip()]
    else:
        parts = list(value)
    if not parts:
        raise ValueError("expected a nonempty comma-separated list of rationals")
    return tuple(_parse_rational(piece) for piece in parts)


def _field_doc(report) -> dict:
    return {
        "discriminant": report.discriminant,
        "is_square": report.is_square,
        "is_degenerate": report.is_degenerate,
        "squarefree_radicand": report.squarefree_radicand,
        "description": report.field_description,
        "note": report.note,
    }


def _equation_input(args) -> tuple[str, int | None]:
    """The (equation text, delta override) pair, honoring '-' for stdin."""
    equation = args.equation
    delta = args.delta
    if equation == "-":
        doc = _stdin_doc()
        if "equation" not in doc:
            raise ValueError('stdin JSON needs an "equation" key')
        equation = _stdin_value(doc, "equation", str)
        if delta is None and "delta" in doc:
            delta = _stdin_value(doc, "delta", int)
    return equation, delta


def _invariants_input(args) -> tuple[DihedralInvariants, str]:
    """DihedralInvariants plus root choice from flags and/or stdin JSON."""
    values = args.invariants
    n = args.n
    delta = args.delta
    root = getattr(args, "root", None)
    if args.source == "-":
        doc = _stdin_doc()
        if values is None and "invariants" in doc:
            values = _stdin_value(doc, "invariants", str, list)
        if n is None and "n" in doc:
            n = _stdin_value(doc, "n", int)
        if delta is None and "delta" in doc:
            delta = _stdin_value(doc, "delta", int)
        if root is None and "root" in doc:
            root = _stdin_value(doc, "root", str)
    elif args.source is not None:
        raise ValueError(f"unexpected positional argument {args.source!r}; only '-' is allowed")
    if values is None:
        raise ValueError("no invariants given; use --invariants or stdin JSON")
    inv = DihedralInvariants(_parse_rational_list(values), n if n is not None else 2,
                             delta if delta is not None else 2)
    return inv, (root if root is not None else "minus")


def _cmd_invariants(args) -> dict:
    equation, delta = _equation_input(args)
    n, f = parse_equation(equation)
    curve = validate(n, f)
    nf, inv = invariants_for_curve(curve, delta)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "invariants",
        "inputs": {"equation": equation, "delta": delta},
        "n": curve.n,
        "delta": nf.delta,
        "s": nf.s,
        "kind": nf.kind,
        "rescale": nf.rescale,
        "a": list(nf.a),
        "invariants": list(inv.values),
        "discriminant": dihedral_discriminant(inv),
        "field": _field_doc(field_of_definition(inv)),
    }


def _cmd_classify(args) -> dict:
    equation, delta = _equation_input(args)
    n, f = parse_equation(equation)
    curve = validate(n, f)
    nf = classify_normal_form(curve, delta)
    invariants_supported = nf.kind == "GDelta" and (nf.s or 0) >= 2
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "classify",
        "inputs": {"equation": equation, "delta": delta},
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
        "schema_version": SCHEMA_VERSION,
        "command": "genus",
        "inputs": {"n": args.n, "d": args.d},
        "n": args.n,
        "d": args.d,
        "genus": genus(args.n, args.d),
    }


def _cmd_field(args) -> dict:
    inv, _ = _invariants_input(args)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "field",
        "inputs": {"invariants": list(inv.values), "n": inv.n, "delta": inv.delta},
        "discriminant": dihedral_discriminant(inv),
        "field": _field_doc(field_of_definition(inv)),
    }


def _cmd_reconstruct(args) -> dict:
    inv, root = _invariants_input(args)
    plus, minus = leading_coefficients(inv)
    rec = reconstruct(inv, root)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "reconstruct",
        "inputs": {
            "invariants": list(inv.values),
            "n": inv.n,
            "delta": inv.delta,
            "root": root,
        },
        "discriminant": dihedral_discriminant(inv),
        "field": _field_doc(field_of_definition(inv)),
        "roots": {"plus": plus, "minus": minus},
        "root_choice": root,
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
            "schema_version": SCHEMA_VERSION,
            "command": "roundtrip",
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
        "schema_version": SCHEMA_VERSION,
        "command": "roundtrip",
        "inputs": {"a": list(tuple_a), "n": args.n, "delta": args.delta},
        "status": report.status,
        "reason": report.reason,
        "root_choice": report.root_choice,
        "checks": report.checks,
    }


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="superelliptic",
        description="Exact dihedral invariants and fields of definition for superelliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(p):
        p.add_argument(
            "--json",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="emit JSON (default) or a plain listing with --no-json",
        )

    p = sub.add_parser("invariants", help="classify an equation and compute its invariants")
    p.add_argument("equation", help="equation text, or - for stdin JSON")
    p.add_argument("--delta", type=int, default=None, help="pin delta instead of taking the maximal fit")
    add_json_flag(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="detect the normal form of an equation")
    p.add_argument("equation", help="equation text, or - for stdin JSON")
    p.add_argument("--delta", type=int, default=None, help="pin delta instead of taking the maximal fit")
    add_json_flag(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("genus", help="genus of y^n = f(x) from n and deg f")
    p.add_argument("--n", type=int, required=True, help="superelliptic exponent")
    p.add_argument("--d", type=int, required=True, help="degree of f")
    add_json_flag(p)
    p.set_defaults(func=_cmd_genus)

    def add_invariant_inputs(p):
        p.add_argument("source", nargs="?", default=None, help="- to read stdin JSON")
        p.add_argument("--invariants", default=None, help="comma-separated rationals s_1,...,s_s")
        p.add_argument("--n", type=int, default=None, help="superelliptic exponent (default 2)")
        p.add_argument("--delta", type=int, default=None, help="decimation step (default 2)")

    p = sub.add_parser("field", help="field of moduli vs field of definition from invariants")
    add_invariant_inputs(p)
    add_json_flag(p)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("reconstruct", help="rebuild an equation from invariants")
    add_invariant_inputs(p)
    p.add_argument("--root", choices=["plus", "minus"], default=None,
                   help="which quadratic root becomes the leading coefficient (default minus)")
    add_json_flag(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="forward-compute invariants, reconstruct, compare")
    p.add_argument("--a", default=None, help="comma-separated interior coefficients a_1,...,a_s")
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="run N random tuples instead of an explicit one")
    p.add_argument("--seed", type=int, default=0, help="seed for --random (default 0)")
    p.add_argument("--n", type=int, default=2, help="superelliptic exponent (default 2)")
    p.add_argument("--delta", type=int, default=2, help="decimation step (default 2)")
    add_json_flag(p)
    p.set_defaults(func=_cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "usage",
            "error": {"code": "usage_error", "message": str(exc)},
        }
        print(json.dumps(doc, sort_keys=True, indent=2), file=sys.stderr)
        return 2
    try:
        doc = args.func(args)
    except (ValueError, ArithmeticError) as exc:
        _emit(_error_doc(args.command, exc), args.json)
        return 1
    _emit(doc, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
