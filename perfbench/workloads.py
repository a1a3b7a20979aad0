"""The four workloads: seeded input generators, the operation, and its check.

Every workload is a closed loop with one caller, fed in blocks.  A block has
a fixed composition (which degrees, heights and input classes it holds);
the seed draws the values and the order.  Fixed composition keeps the
input mix, and so the timings, comparable between seeds and between runs.

The package sees only the generated inputs, through its public functions,
looked up on the module at call time so the tracer's rebinding applies.
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from . import checks, costmodel, speed

# -- forward_equations ---------------------------------------------------------

FORWARD_HEIGHTS = (10, 10**3, 10**6)
#: (delta, s) for every g(x^delta) normal form of degree delta*(s+1) in 6..32.
FORWARD_LADDER = tuple(
    (delta, s) for delta in (2, 3) for s in range(2, 16) if 6 <= delta * (s + 1) <= 32
)
#: Degree bands whose cells appear twice per block.  p50 then falls in the
#: band of degrees 20-24 and p90 in the band of degrees 30-32, among ops
#: that take long enough to average out the host's speed flips and cost
#: about the same, not on a jump in cost between two cells.
DOUBLED_DEGREES = ((19, 24), (29, 32))
#: One op in REJECT_EVERY is a curve with a repeated root (about 15%), at
#: the same ladder cells in every block, so that every block has the same
#: composition and the percentiles do not depend on how many blocks ran.
REJECT_EVERY = 7


class ForwardCase(NamedTuple):
    text: str
    n: int
    delta: int
    a: tuple  # interior coefficients of the accepted form; () for rejects
    reject: bool


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_rem(p, q):
    p = [Fraction(c) for c in p]
    while len(p) >= len(q):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        p.pop()
        while p and p[-1] == 0:
            p.pop()
    return p


def is_squarefree(coeffs) -> bool:
    """gcd(g, g') = 1 over Q, by Euclid; coeffs[i] multiplies t^i."""
    a, b = list(coeffs), [i * c for i, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def _nonzero(rng, height):
    return rng.choice((-1, 1)) * rng.randint(1, height)


def _forward_case(api, rng, delta, s, height, reject) -> ForwardCase:
    n = rng.choice((2, 3))
    while True:
        if reject:
            # g = (t + e)^2 * h with h monic, h(0) = 1, so g(0) = 1 and g has a double root
            e = rng.choice((-1, 1))
            h = [1] + [_nonzero(rng, height) for _ in range(s - 2)] + [1]
            g = _poly_mul([e * e, 2 * e, 1], h)
            a = ()
        else:
            a = tuple(_nonzero(rng, height) for _ in range(s))
            g = [1, *a, 1]
            # a_1 != 0 pins the support gcd to delta; squarefree g makes f valid
            if not is_squarefree(g):
                continue
        coeffs = [0] * (delta * (s + 1) + 1)
        for i, c in enumerate(g):
            coeffs[delta * i] = c
        text = api.render_equation(n, api.Poly(coeffs))
        return ForwardCase(text, n, delta, tuple(Fraction(v) for v in a), reject)


class ForwardEquations:
    name = "forward_equations"
    calibration = speed.BAREISS
    why = (
        "Canonical g(x^delta) text through parse, validate, invariants and field report; "
        "poly.discriminant dominates and the squarefree decomposition never runs."
    )
    params = {
        "ladder_delta_s": [list(cell) for cell in FORWARD_LADDER],
        "degrees": "6..32",
        "heights": list(FORWARD_HEIGHTS),
        "copies_per_block": f"2 for degrees in {[list(band) for band in DOUBLED_DEGREES]}, else 1",
        "reject_share": f"1/{REJECT_EVERY}",
        "n": [2, 3],
    }

    @staticmethod
    def block(api, seed, index):
        rng = random.Random(f"forward_equations:{seed}:{index}")
        cells = [
            (delta, s)
            for delta, s in FORWARD_LADDER
            for _ in range(2 if any(lo <= delta * (s + 1) <= hi for lo, hi in DOUBLED_DEGREES) else 1)
        ]
        cases = [
            _forward_case(
                api, rng, delta, s,
                FORWARD_HEIGHTS[(j + index) % len(FORWARD_HEIGHTS)],
                j % REJECT_EVERY == 0,
            )
            for j, (delta, s) in enumerate(cells)
        ]
        rng.shuffle(cases)
        return cases

    @staticmethod
    def op(api, case):
        n, f = api.parse_equation(case.text)
        try:
            curve = api.validate(n, f)
        except api.CurveValidationError as exc:
            return exc
        form, inv = api.invariants_for_curve(curve)
        return form, inv, api.field_of_definition(inv)

    @staticmethod
    def check(case, outcome, state):
        checks.check_forward(case, outcome)


# -- inverse_invariants --------------------------------------------------------

INVERSE_SIZES = range(2, 13)
INVERSE_HEIGHTS = (10, 50, 10**3)
#: Random tuples per s in a block, by height.  With two square tuples per s
#: this puts about 6% of ops in the three-decomposition tail and 8% in the
#: one-decomposition (refused) cluster, so p90 falls inside a cluster,
#: not on the edge between two.
RANDOM_SLOTS = (10, 10, 50, 10**3)
SQUARES_PER_S = 2
DEGENERATE_PER_BLOCK = 3
#: Random candidates drawn per slot; the slot keeps the one whose predicted
#: cost has the slot's rank (see costmodel.py).
CANDIDATES = 4


class InverseCase(NamedTuple):
    values: tuple
    n: int
    delta: int
    kind: str  # how it was generated: random, square or degenerate


def _rational(rng, height) -> Fraction:
    return Fraction(_nonzero(rng, height), rng.randint(1, height))


class InverseInvariants:
    name = "inverse_invariants"
    calibration = speed.TRIAL_DIVISION
    why = (
        "Random invariant tuples through field report, both reconstructions and render; "
        "squarefree decomposition and QuadExt dominate and validation never runs."
    )
    params = {
        "s": f"{INVERSE_SIZES.start}..{INVERSE_SIZES.stop - 1}",
        "heights": list(INVERSE_HEIGHTS),
        "values": "p/q with 1 <= |p|, q <= height",
        "per_block": {
            "random": f"per s, one per height in {list(RANDOM_SLOTS)}; the rank (s + slot + block) % "
                      f"{CANDIDATES} by predicted cost among {CANDIDATES} draws",
            "square": f"{SQUARES_PER_S} per s, discriminant a square by construction",
            "degenerate": DEGENERATE_PER_BLOCK,
        },
        "n": 2,
        "delta": 2,
    }

    @staticmethod
    def block(api, seed, index):
        rng = random.Random(f"inverse_invariants:{seed}:{index}")
        cases = []
        for s in INVERSE_SIZES:
            for slot, height in enumerate(RANDOM_SLOTS):
                draws = [tuple(_rational(rng, height) for _ in range(s)) for _ in range(CANDIDATES)]
                draws.sort(key=costmodel.inverse_cost)
                cases.append(InverseCase(draws[(s + slot + index) % CANDIDATES], 2, 2, "random"))
            for slot in range(SQUARES_PER_S):
                # roots w and u^(s+1)/w of the quadratic: s_1 = their sum, s_s = 2u
                height = INVERSE_HEIGHTS[(s + slot + index) % len(INVERSE_HEIGHTS)]
                while True:
                    u, w = _rational(rng, height), _rational(rng, height)
                    if w * w != u ** (s + 1):
                        break
                middle = tuple(_rational(rng, height) for _ in range(s - 2))
                cases.append(InverseCase((w + u ** (s + 1) / w, *middle, 2 * u), 2, 2, "square"))
        for m in range(DEGENERATE_PER_BLOCK):
            # a double root v^(s+1): s_1 = 2 v^(s+1), s_s = 2 v^2
            s = INVERSE_SIZES[(index * DEGENERATE_PER_BLOCK + m) % len(INVERSE_SIZES)]
            v = _rational(rng, 10)
            middle = tuple(_rational(rng, 50) for _ in range(s - 2))
            cases.append(InverseCase((2 * v ** (s + 1), *middle, 2 * v * v), 2, 2, "degenerate"))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def op(api, case):
        inv = api.DihedralInvariants(case.values, case.n, case.delta)
        try:
            report = api.field_of_definition(inv)
        except api.FactorBoundExceededError as exc:
            return exc  # the package's stated limit: checked, and counted as refused
        results = []
        for root in ("plus", "minus"):
            try:
                rec = api.reconstruct(inv, root)
            except api.DegenerateLocusError as exc:
                results.append(exc)
                continue
            results.append((rec, api.render_equation(rec.n, rec.polynomial())))
        return report, results

    @staticmethod
    def check(case, outcome, state):
        checks.check_inverse(case, outcome)


# -- roundtrip_batch -----------------------------------------------------------

ROUNDTRIP_BLOCK = 200


class RoundtripCase(NamedTuple):
    a: tuple
    n: int
    delta: int


def roundtrip_tuples(seed):
    """The tuples ``superelliptic roundtrip --random N --seed SEED`` draws, in order."""
    rng = random.Random(seed)
    while True:
        size = rng.randint(2, 8)
        yield tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(size))


class RoundtripBatch:
    name = "roundtrip_batch"
    calibration = speed.SMALL_FRACTIONS
    why = (
        "roundtrip_verify on the roundtrip --random generator: Fraction arithmetic in "
        "dihedral, with a square discriminant and no validation."
    )
    params = {"s": "2..8", "a_i": "randint(-50, 50) / randint(1, 50)", "n": 2, "delta": 2,
              "block": ROUNDTRIP_BLOCK, "stream": "random.Random(seed), as roundtrip --random"}

    def __init__(self):
        self._streams = {}

    def block(self, api, seed, index):
        stream = self._streams.setdefault(seed, roundtrip_tuples(seed))
        return [RoundtripCase(next(stream), 2, 2) for _ in range(ROUNDTRIP_BLOCK)]

    @staticmethod
    def op(api, case):
        return api.roundtrip_verify(case.a, case.n, case.delta)

    @staticmethod
    def check(case, outcome, state):
        checks.check_roundtrip(case, outcome)


# -- cli_documents -------------------------------------------------------------


class CliDoc(NamedTuple):
    name: str
    argv: tuple
    stdin: str | None
    exit_code: int
    fields: dict
    text_lines: tuple = ()
    rebuilt: tuple | None = None  # invariants whose reconstruction is checked


def _strings(values):
    return [str(Fraction(v)) for v in values]


def _squarefree_part(x: Fraction) -> int:
    """Squarefree part of a small nonzero rational, by trial division."""
    n, sign, part, p = abs(x.numerator) * x.denominator, (1 if x > 0 else -1), 1, 2
    while n > 1:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            part, n = part * p, n // p
        p += 1
    return sign * part


def _field_fields(values) -> dict:
    disc = checks.quadratic_discriminant(values)
    square = disc == 0 or checks.rational_sqrt(disc) is not None
    radicand = None if square else _squarefree_part(disc)
    return {
        "discriminant": str(disc),
        "field.is_square": square,
        "field.is_degenerate": disc == 0,
        "field.squarefree_radicand": radicand,
        "field.description": "F" if square else f"F(sqrt({radicand}))",
    }


def _invariants_fields(a, n, delta) -> dict:
    values = checks.forward_invariants(a)
    return {"n": n, "delta": delta, "s": len(a), "kind": "GDelta", "a": _strings(a),
            "invariants": _strings(values), **_field_fields(values)}


def _roundtrip_random_fields(count, seed) -> dict:
    tuples = roundtrip_tuples(seed)
    skipped = 0
    for _ in range(count):
        a = next(tuples)
        skipped += a[0] ** (len(a) + 1) == a[-1] ** (len(a) + 1)
    return {"total": count, "passed": count - skipped, "skipped": skipped, "failed": 0, "failures": []}


def _error(command, code) -> dict:
    return {"command": command, "error.code": code}


def cli_documents() -> tuple[CliDoc, ...]:
    """A fixed set covering all six subcommands, stdin input and every exit code."""
    stdin_eq = json.dumps({"equation": "y^3 = x^9 + 3*x^6 - 2*x^3 + 1"})
    return (
        CliDoc("invariants", ("invariants", "y^2 = x^6 + x^4 + 2x^2 + 1"), None, 0,
               {"command": "invariants", **_invariants_fields((2, 1), 2, 2)}),
        CliDoc("invariants_stdin", ("invariants", "-"), stdin_eq, 0,
               {"command": "invariants", **_invariants_fields((-2, 3), 3, 3)}),
        CliDoc("classify_xg", ("classify", "y^3 = x^7 + 5*x^4 + x"), None, 0,
               {"kind": "XGDelta", "delta": 3, "s": 2, "d": 7, "genus": checks.genus(3, 7),
                "invariants_supported": False}),
        CliDoc("classify_stdin_delta", ("classify", "-", "--delta", "2"),
               json.dumps({"equation": "y^2 = x^8 + 5*x^4 + 1"}), 0,
               {"kind": "GDelta", "delta": 2, "s": 3, "a": ["0", "5", "0"], "genus": checks.genus(2, 8),
                "invariants_supported": True}),
        CliDoc("genus", ("genus", "--n", "3", "--d", "7"), None, 0,
               {"command": "genus", "genus": checks.genus(3, 7)}),
        CliDoc("genus_text", ("genus", "--n", "2", "--d", "5", "--no-json"), None, 0, {},
               text_lines=("schema_version: 1", "command: genus", f"genus: {checks.genus(2, 5)}")),
        CliDoc("field", ("field", "--invariants", "1,1"), None, 0,
               {"command": "field", **_field_fields((Fraction(1), Fraction(1)))}),
        CliDoc("field_stdin", ("field", "-"), json.dumps({"invariants": ["9", "4"], "n": 2, "delta": 2}), 0,
               {"command": "field", **_field_fields((Fraction(9), Fraction(4)))}),
        CliDoc("reconstruct", ("reconstruct", "--invariants", "1,1", "--root", "plus"), None, 0,
               {"root_choice": "plus", **_field_fields((Fraction(1), Fraction(1)))},
               rebuilt=(Fraction(1), Fraction(1))),
        CliDoc("reconstruct_stdin", ("reconstruct", "-"), json.dumps({"invariants": ["9", "4"], "root": "minus"}), 0,
               {"root_choice": "minus", **_field_fields((Fraction(9), Fraction(4)))},
               rebuilt=(Fraction(9), Fraction(4))),
        # a = (2, 1): the pinned root a_s^(s+1) = 1 is the smaller one
        CliDoc("roundtrip", ("roundtrip", "--a", "2,1"), None, 0,
               {"status": "pass", "root_choice": "minus", "reason": None}),
        CliDoc("roundtrip_random", ("roundtrip", "--random", "25", "--seed", "7"), None, 0,
               _roundtrip_random_fields(25, 7)),
        CliDoc("syntax_error", ("invariants", "y^2 = x^6 + * 1"), None, 1,
               {**_error("invariants", "syntax_error"), "error.position": "y^2 = x^6 + * 1".index("*")}),
        CliDoc("invalid_curve", ("classify", "y^2 = x^6 + 2*x^3 + 1"), None, 1,
               {**_error("classify", "invalid_curve"), "error.violations.0.code": "zero_discriminant"}),
        CliDoc("degenerate", ("reconstruct", "--invariants", "2,2"), None, 1,
               _error("reconstruct", "degenerate_locus")),
        CliDoc("usage_missing_flag", ("genus", "--n", "3"), None, 2, _error("usage", "usage_error")),
        CliDoc("usage_unknown_command", ("frobnicate",), None, 2, _error("usage", "usage_error")),
    )


class CliDocuments:
    name = "cli_documents"
    calibration = speed.MIXED
    why = (
        "superelliptic.cli.main in-process on a fixed document set for all six subcommands, "
        "stdin input and errors; the only workload whose inputs repeat."
    )

    def __init__(self):
        self.documents = cli_documents()
        self.params = {"documents": [[d.name, list(d.argv), d.stdin, d.exit_code] for d in self.documents],
                       "order": "each block holds every document once, shuffled by the seed"}

    def block(self, api, seed, index):
        docs = list(self.documents)
        random.Random(f"cli_documents:{seed}:{index}").shuffle(docs)
        return docs

    @staticmethod
    def op(api, doc):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(doc.stdin or ""), out, err
        try:
            code = api.cli.main(list(doc.argv))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(doc, outcome, state):
        checks.check_cli(doc, outcome, state.setdefault("seen", {}))


WORKLOADS = {w.name: w for w in (ForwardEquations(), InverseInvariants(), RoundtripBatch(), CliDocuments())}
