"""Exact output checks for every benchmark operation.

The checks recompute what a right answer must satisfy from the generated
input alone.  They use their own arithmetic (plain Fractions and pairs
``(a, b)`` standing for a + b*sqrt(d)) and never the package's, so a wrong
result cannot vouch for itself.  Exception types are matched by class name
for the same reason.

Each ``check_*`` function raises :class:`Mismatch` with a one-line reason,
or returns None when the result is right.  A refusal that the input was
generated to trigger is a right result, not a failure.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: Primes whose squares the radicand check rules out; a full squarefree
#: proof would need factoring, which is what the package is being timed on.
_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))


class Mismatch(Exception):
    """A result that disagrees with the exact expectation."""


def forward_invariants(a) -> tuple[Fraction, ...]:
    """s_i = a_1^(s+1-i) * a_i + a_s^(s+1-i) * a_{s+1-i}, for i = 1..s."""
    s = len(a)
    first, last = a[0], a[-1]
    return tuple(
        Fraction(first ** (s + 1 - i) * a[i - 1] + last ** (s + 1 - i) * a[s - i])
        for i in range(1, s + 1)
    )


def quadratic_discriminant(values) -> Fraction:
    """Discriminant of 2^(s+1) T^2 - 2^(s+1) s_1 T + s_s^(s+1)."""
    s = len(values)
    return Fraction(2 ** (s + 1) * (2 ** (s + 1) * values[0] ** 2 - 4 * values[-1] ** (s + 1)))


def rational_sqrt(x: Fraction) -> Fraction | None:
    """The nonnegative rational square root of x, or None."""
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def genus(n: int, d: int) -> int:
    return 1 + (n * d - n - d - math.gcd(n, d)) // 2


def _expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def _refused(outcome, name: str) -> bool:
    return isinstance(outcome, BaseException) and type(outcome).__name__ == name


# -- elements of Q or Q(sqrt(d)) as (a, b) pairs ------------------------------


def _pair(value, d):
    """(a, b) with value = a + b*sqrt(d); d is None over Q."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value), Fraction(0)
    a, b, rad = getattr(value, "a", None), getattr(value, "b", None), getattr(value, "d", None)
    _expect(
        isinstance(a, Fraction) and isinstance(b, Fraction) and isinstance(rad, int),
        f"not an exact value: {value!r}",
    )
    _expect(d is not None and rad == d, f"value {value!r} lies outside Q(sqrt({d}))")
    return a, b


def _mul(x, y, d):
    return x[0] * y[0] + (d or 0) * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _quad_text(a: Fraction, b: Fraction, d: int) -> str:
    root = f"sqrt({d})"
    scaled = root if abs(b) == 1 else f"{abs(b)}*{root}"
    if a == 0:
        return scaled if b > 0 else f"-{scaled}"
    return f"{a} {'+' if b > 0 else '-'} {scaled}"


def render_expected(n: int, coeffs, d) -> str:
    """The canonical equation text for ``coeffs[e]`` = coefficient of x^e, as pairs."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        a, b = coeffs[e]
        if not (a or b):
            continue
        tail = f"*x^{e}" if e else ""
        if b:
            body = f"({_quad_text(a, b, d)}){tail}"
            parts.append(f"+ {body}" if parts else body)
            continue
        body = f"{abs(a)}{tail}"
        if parts:
            parts.append(f"- {body}" if a < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if a < 0 else body)
    return f"y^{n} = {' '.join(parts) if parts else '0'}"


# -- field report --------------------------------------------------------------


def check_field(report, values) -> int | None:
    """Check a field-of-definition report; return the radicand (None over F)."""
    disc = quadratic_discriminant(values)
    _expect(report.discriminant == disc, f"discriminant {report.discriminant} != {disc}")
    _expect(report.is_degenerate == (disc == 0), f"is_degenerate {report.is_degenerate} for {disc}")
    if disc == 0 or rational_sqrt(disc) is not None:
        got = (report.is_square, report.squarefree_radicand, report.field_description)
        _expect(got == (True, None, "F"), f"square discriminant {disc} reported as {got}")
        return None
    d = report.squarefree_radicand
    _expect(not report.is_square, f"non-square discriminant {disc} reported square")
    _expect(isinstance(d, int) and d not in (0, 1), f"bad radicand {d!r}")
    _expect(report.field_description == f"F(sqrt({d}))", f"field {report.field_description!r}")
    _expect(rational_sqrt(disc / d) is not None, f"{disc} / {d} is not a square")
    _expect(all(d % (p * p) for p in _SMALL_PRIMES), f"radicand {d} is not squarefree")
    return d


# -- rebuilt curves ------------------------------------------------------------


def check_rebuilt(lead, interior, text, choice, values, n, delta, d) -> None:
    """Check one reconstruction for root ``choice``, given as (a, b) pairs.

    The coefficients must satisfy (s_1 - T) c_i / (s_s/2)^i + c_{s+1-i} = s_i
    for i = 1..s with c_s = T, and the text must be the canonical rendering
    of [1, c_1, ..., c_{s-1}, T, T] at exponents delta*(0, ..., s+1).
    """
    s = len(values)
    _expect(len(interior) == s - 1, f"{choice}: {len(interior)} interior coefficients for s = {s}")
    _expect(d is None or lead[1] != 0, f"{choice}: leading coefficient {lead} is rational over F(sqrt({d}))")
    c = [None] + list(interior) + [lead]
    half_tail = values[-1] / 2
    gap = (values[0] - lead[0], -lead[1])
    for i in range(1, s + 1):
        prod = _mul(gap, c[i], d)
        scale = half_tail**i
        got = _add((prod[0] / scale, prod[1] / scale), c[s + 1 - i])
        _expect(got == (values[i - 1], 0), f"{choice}: identity {i} gives {got}, not {values[i - 1]}")
    zero = (Fraction(0), Fraction(0))
    coeffs = [zero] * (delta * (s + 1) + 1)
    coeffs[0] = (Fraction(1), Fraction(0))
    for i in range(1, s + 1):
        coeffs[delta * i] = c[i]
    coeffs[-1] = lead
    expected = render_expected(n, coeffs, d)
    _expect(text == expected, f"{choice}: rendered {text!r}, expected {expected!r}")


def check_roots(plus, minus, values, d) -> None:
    """Vieta on the two leading coefficients, and which one is 'plus'."""
    s = len(values)
    total = _add(plus, minus)
    _expect(total == (values[0], 0), f"roots sum to {total}, not s_1 = {values[0]}")
    product = _mul(plus, minus, d)
    expected = values[-1] ** (s + 1) / 2 ** (s + 1)
    _expect(product == (expected, 0), f"roots multiply to {product}, not {expected}")
    # plus takes the positive square root of the discriminant
    _expect(plus[0] > minus[0] if d is None else plus[1] > 0, f"roots swapped: plus {plus}, minus {minus}")


# -- per-workload checks -------------------------------------------------------


def check_forward(case, outcome) -> None:
    """parse -> validate -> invariants_for_curve -> field_of_definition."""
    if case.reject:
        _expect(_refused(outcome, "CurveValidationError"), f"repeated root not refused: {outcome!r}")
        codes = tuple(code for code, _ in outcome.violations)
        _expect(codes == ("zero_discriminant",), f"violations {codes}, expected zero_discriminant")
        return
    _expect(not isinstance(outcome, BaseException), f"valid curve refused: {outcome!r}")
    form, inv, report = outcome
    got = (form.kind, form.delta, form.s, tuple(form.a), form.rescale)
    want = ("GDelta", case.delta, len(case.a), case.a, 1)
    _expect(got == want, f"normal form {got}, expected {want}")
    values = forward_invariants(case.a)
    _expect(
        (tuple(inv.values), inv.n, inv.delta) == (values, case.n, case.delta),
        f"invariants {inv.values}, expected {values}",
    )
    _expect(check_field(report, values) is None, "the forward discriminant is always a square")


def check_inverse(case, outcome) -> None:
    """field_of_definition -> reconstruct('plus'), reconstruct('minus') -> render.

    A FactorBoundExceededError from the field report is right only on a
    discriminant that trial division up to the bound cannot decompose.
    """
    if _refused(outcome, "FactorBoundExceededError"):
        from .costmodel import decompose_cost  # costmodel imports this module

        disc = quadratic_discriminant(case.values)
        _expect(
            disc != 0 and rational_sqrt(disc) is None and decompose_cost(disc)[1],
            f"refused a discriminant the factor bound decomposes: {outcome!r}",
        )
        return
    report, results = outcome
    d = check_field(report, case.values)
    if report.is_degenerate:
        for result in results:
            _expect(_refused(result, "DegenerateLocusError"), f"degenerate tuple not refused: {result!r}")
        return
    leads = []
    for choice, result in zip(("plus", "minus"), results):
        _expect(not isinstance(result, BaseException), f"{choice}: refused {result!r}")
        rec, text = result
        got = (rec.root_choice, rec.n, rec.delta, rec.s)
        want = (choice, case.n, case.delta, len(case.values))
        _expect(got == want, f"{choice}: shape {got}, expected {want}")
        lead = _pair(rec.leading_coefficient, d)
        interior = [_pair(v, d) for v in rec.interior_coefficients]
        check_rebuilt(lead, interior, text, choice, case.values, case.n, case.delta, d)
        leads.append(lead)
    check_roots(leads[0], leads[1], case.values, d)


def check_roundtrip(case, report) -> None:
    """roundtrip_verify: pass with the root a_s^(s+1), or skip on the degenerate locus."""
    s = len(case.a)
    low, target = case.a[0] ** (s + 1), case.a[-1] ** (s + 1)
    if low == target:
        _expect(report.status == "skipped", f"degenerate tuple gave status {report.status!r}")
        return
    choice = "plus" if target > low else "minus"
    got = (report.status, report.reason, report.root_choice)
    _expect(got == ("pass", None, choice), f"roundtrip {got}, expected pass with {choice}")


def _json_value(value, d):
    if isinstance(value, dict):
        _expect(set(value) == {"a", "b", "d"}, f"bad quadratic element {value!r}")
        _expect(value["d"] == d, f"radicand {value['d']} != {d}")
        return Fraction(value["a"]), Fraction(value["b"])
    _expect(isinstance(value, str), f"exact values are strings, got {value!r}")
    return Fraction(value), Fraction(0)


def _lookup(doc, path: str):
    """Follow a dotted path; digits index lists."""
    for key in path.split("."):
        if isinstance(doc, list) and key.isdigit() and int(key) < len(doc):
            doc = doc[int(key)]
            continue
        _expect(isinstance(doc, dict) and key in doc, f"missing key {path}")
        doc = doc[key]
    return doc


def check_cli(spec, result, seen: dict) -> None:
    """Exit code, schema_version, key fields, and bytes equal to earlier repeats."""
    code, out, err = result
    _expect(code == spec.exit_code, f"{spec.name}: exit {code}, expected {spec.exit_code}")
    previous = seen.setdefault(spec.name, (out, err))
    _expect(previous == (out, err), f"{spec.name}: output bytes differ from an earlier repeat")
    if spec.text_lines:
        _expect(err == "", f"{spec.name}: unexpected stderr {err!r}")
        lines = out.splitlines()
        for line in spec.text_lines:
            _expect(line in lines, f"{spec.name}: missing line {line!r}")
        return
    stream, other = (err, out) if code == 2 else (out, err)
    _expect(other == "", f"{spec.name}: unexpected output on the other stream")
    try:
        doc = json.loads(stream)
    except ValueError as exc:
        raise Mismatch(f"{spec.name}: output is not JSON ({exc})") from None
    _expect(_lookup(doc, "schema_version") == "1", f"{spec.name}: schema_version")
    for path, want in spec.fields.items():
        got = _lookup(doc, path)
        _expect(got == want, f"{spec.name}: {path} = {got!r}, expected {want!r}")
    if spec.rebuilt is not None:
        values = spec.rebuilt
        d = _lookup(doc, "field.squarefree_radicand")
        roots = _lookup(doc, "roots")
        choice = _lookup(doc, "root_choice")
        lead = _json_value(_lookup(doc, "leading_coefficient"), d)
        interior = [_json_value(v, d) for v in _lookup(doc, "interior_coefficients")]
        check_rebuilt(lead, interior, _lookup(doc, "equation"), choice, values, 2, 2, d)
        plus, minus = (_json_value(roots[k], d) for k in ("plus", "minus"))
        _expect(lead == (plus if choice == "plus" else minus), f"{spec.name}: lead is not the {choice} root")
        check_roots(plus, minus, values, d)

