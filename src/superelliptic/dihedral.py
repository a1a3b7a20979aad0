"""Dihedral invariants, the field of definition, and curve reconstruction.

For a curve y**n = x**(delta*(s+1)) + a_s*x**(delta*s) + ... + a_1*x**delta + 1
the interior coefficients (a_1, ..., a_s) are only defined up to the residual
dihedral action (rescaling x by a root of unity, and x -> 1/x, which reverses
the tuple).  The functions here compute the invariant tuple of that action,

    s_i = a_1**(s+1-i) * a_i + a_s**(s+1-i) * a_{s+1-i},    i = 1..s,

decide over which field the curve can actually be written down, and rebuild
an explicit equation from the invariants alone.

The reconstruction pivots on the quadratic

    2**(s+1) * T**2 - 2**(s+1) * s_1 * T + s_s**(s+1) = 0,

whose roots are a_1**(s+1) and a_s**(s+1).  Its discriminant decides
which field the rebuilt normal form needs: a rational square means the
normal form lives over the field of moduli F itself; a non-square means it
needs the quadratic extension F(sqrt(d)), which does not prove that no other
model exists over F (descending to F is ROADMAP.md item 2); zero marks the
degenerate locus, where the two roots coincide and this reconstruction does
not apply (what the curves there have in common is ROADMAP.md item 3).  Each tuple makes that decision once:
``DihedralInvariants.field_report`` runs the discriminant, its square test
and its squarefree decomposition on first use, and ``field_of_definition``,
the roots, reconstruction and the CLI all read that one report.

The coefficient identity used for reconstruction is

    c_i = (A_i - T * B_i) / (s_1 - 2*T),   A_i = s_s**i * s_i / 2**i,   B_i = s_{s+1-i},

with T the chosen quadratic root and c_i the coefficient of x**(delta*i) of
the rebuilt equation (equal to a_i * a_s**i when T = a_s**(s+1)).  The
divisor s_1 - 2*T is the difference of the two roots, never zero off the
degenerate locus.  Write the roots as T = L_+- = s_1/2 +- sigma*sqrt(d),
with sigma = square_part/2**(s+2) from the field report and d its
squarefree radicand (d = 1 when the discriminant is a square).  Then
s_1 - 2*L_+- = -+2*sigma*sqrt(d), and the identity splits as

    c_i = B_i/2 -+ (A_i - s_1*B_i/2) / (2*sigma*d) * sqrt(d).

The rational parts B_i/2 and the irrational parts are the same for both
roots, so one pass per tuple (``DihedralInvariants._root_split``) gives
both rebuilt equations, which are Galois conjugates when d != 1;
``reconstruct`` picks one of them and does no arithmetic.

An alternative closed form for c_i that circulates,

    2**(s-i) * s_1 * (s_s**i * s_i - T * s_{s+1-i}) / (2**s * s_1**2 - s_s**(s+1)),

is wrong: for a = (2, 1) it yields 144/65 where the true coefficient is
a_1*a_s = 2.  The roundtrip test suite adjudicates this; see README.

The invariants, their discriminant and the root split run on integers,
each term read off its own operands' numerators and denominators with one
Fraction per result: only single values are raised to powers, never a
denominator common to the whole tuple, whose powers would outgrow the
results on long tuples.  Fractions are canonical, so the results are
exactly those of the formulas evaluated on Fractions.  The discriminant is
computed once per tuple.  The certificate
``ReconstructedCurve.invariant_values`` is one formula on the rebuilt
coefficients, Fractions or QuadExt elements alike.  ``roundtrip_verify``
first compares both roots with the Fraction a_s**(s+1); its other checks
cross-multiply integers and build a Fraction only for a failure message:
each rebuilt coefficient against a_i * a_s**i from a_i's own
numerator and denominator and running powers of a_s's, each certificate
value against s_i through the unreduced integer pairs of
``ReconstructedCurve._invariant_pairs``, which share the loop
``_term_pairs`` with ``compute_invariants``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .curve import G_DELTA, SuperellipticCurve, _integer_at_least, _n_message, classify_normal_form
from .exact import QuadExt, _exact, is_perfect_square, squarefree_decompose
from .poly import Poly


class NoExtraAutomorphismError(ValueError):
    """The curve shows no usable x -> zeta*x automorphism (no delta >= 2)."""


class UnsupportedFormError(ValueError):
    """The curve has an extra automorphism but not the shape the invariants need."""


class DegenerateLocusError(ValueError):
    """The invariants satisfy discriminant = 0: the two roots coincide, and reconstruction does not apply."""


@dataclass(frozen=True)
class DihedralInvariants:
    """The invariant tuple (s_1, ..., s_s) with the ambient shape (n, delta).

    ``values[i-1]`` is s_i; ``s`` is the tuple length.  The tuple is exactly
    the data that survives the dihedral coefficient action: x -> zeta*x and
    the reversal of the tuple, which is x -> 1/x.  Equal tuples present
    isomorphic normal forms only when n | delta*(s+1).  Otherwise infinity
    is a branch point and 0 is not, x -> 1/x is no isomorphism, and a tuple
    and its reversal can give non-isomorphic curves with equal invariants
    (ROADMAP.md, open item 1).
    """

    values: tuple[Fraction, ...]
    n: int
    delta: int

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("invariants need at least 2 entries (s >= 2)")
        if not _integer_at_least(self.n, 2):
            raise ValueError(_n_message(self.n))
        if not _integer_at_least(self.delta, 2):
            raise ValueError(f"delta must be an integer >= 2, got {self.delta!r}")
        object.__setattr__(self, "values", tuple([_exact(v) for v in self.values]))

    @property
    def s(self) -> int:
        return len(self.values)

    @cached_property
    def _discriminant(self) -> Fraction:
        """The value ``dihedral_discriminant`` returns, worked out on first use."""
        s = self.s
        # 2**(s+1) * (2**(s+1) * s_1**2 - 4 * s_s**(s+1)) with s_1 = h/w_1 and s_s = t/w_s
        h, w_1 = self.values[0].numerator, self.values[0].denominator
        t, w_s = self.values[-1].numerator, self.values[-1].denominator
        lead = w_s ** (s + 1)
        num = 2 ** (s - 1) * h * h * lead - t ** (s + 1) * w_1 * w_1
        return Fraction(2 ** (s + 3) * num, w_1 * w_1 * lead)

    @cached_property
    def field_report(self) -> FieldReport:
        """The one analysis of the dihedral discriminant, run on first use; see FieldReport."""
        disc = dihedral_discriminant(self)
        square, square_part = is_perfect_square(disc)  # 0 is a square with root 0
        radicand = None
        if disc == 0:
            note = (
                "degenerate family: the field of moduli is a field of definition, "
                "and the automorphism group is larger than generic"
            )
        elif square:
            note = "the field of moduli is a field of definition"
        else:
            dec = squarefree_decompose(disc)
            radicand, square_part = dec.squarefree_part, dec.square_part
            note = (
                f"the rebuilt normal form needs the quadratic extension F(sqrt({radicand})); "
                "whether a model exists over F is not decided here"
            )
        return FieldReport(
            discriminant=disc,
            is_square=square,
            is_degenerate=disc == 0,
            squarefree_radicand=radicand,
            square_part=square_part,
            field_description="F" if square else f"F(sqrt({radicand}))",
            note=note,
        )

    @cached_property
    def _root_split(self) -> tuple:
        """Both quadratic roots and both rebuilt equations, worked out on first use.

        Returns ``((plus, minus), interiors)``.  The roots are
        s_1/2 +- sigma*sqrt(d) with sigma = square_part/2**(s+2), and
        ``interiors[root]`` holds the c_i = B_i/2 -+ q_i*sqrt(d) that the root
        rebuilds, with d = 1 when the discriminant is a square (module
        docstring).  On the degenerate locus sigma = 0: both roots are s_1/2,
        and ``interiors`` is None.
        """
        report = self.field_report
        s = self.s
        # s_j = u[j-1]/w[j-1], and root = square_part = root.numerator / root.denominator
        u, w = [v.numerator for v in self.values], [v.denominator for v in self.values]
        root = report.square_part
        d = report.squarefree_radicand or 1
        if report.is_square:
            # s_1/2 +- sigma over the denominator 2**(s+2) * w_1 * root.denominator
            centre = (u[0] * root.denominator) << (s + 1)
            shift = root.numerator * w[0]
            scale = (w[0] * root.denominator) << (s + 2)
            roots = Fraction(centre + shift, scale), Fraction(centre - shift, scale)
        else:
            half = Fraction(u[0], 2 * w[0])
            shift = QuadExt(0, Fraction(root.numerator, root.denominator << (s + 2)), d)
            roots = half + shift, half - shift
        if report.is_degenerate:
            return roots, None
        # With b = s+1-i, P = u_s**i, W = (2*w_s)**i and 2*sigma*d = root*d/2**(s+1), each term
        # reads B_i/2 = u_b/(2*w_b) and q_i = (A_i - s_1*B_i/2) / (2*sigma*d) = q / bottom, with
        #   q = 2**(s+1) * root.denominator * (2*P*u_i*w_1*w_b - u_1*u_b*W*w_i),
        #   bottom = 2*w_b*part and part = W*w_i * w_1*root.numerator*d,
        # so that B_i/2 -+ q_i = (u_b*part -+ q) / bottom.
        top = root.denominator << (s + 1)
        left, right, low = 2 * w[0] * top, u[0] * top, w[0] * root.numerator * d
        power, scale = 1, 1
        plus, minus = [], []
        for i in range(1, s):
            power, scale = power * u[-1], scale * 2 * w[-1]
            u_b, w_b, w_i = u[s - i], w[s - i], w[i - 1]
            q = power * u[i - 1] * w_b * left - u_b * scale * w_i * right
            part = scale * w_i * low
            bottom = 2 * w_b * part
            if report.is_square:
                plus.append(Fraction(u_b * part - q, bottom))
                minus.append(Fraction(u_b * part + q, bottom))
            else:
                half_b = Fraction(u_b, 2 * w_b)
                plus.append(QuadExt._of(half_b, Fraction(-q, bottom), d))
                minus.append(QuadExt._of(half_b, Fraction(q, bottom), d))
        return roots, {"plus": tuple(plus), "minus": tuple(minus)}


def compute_invariants(a, n: int, delta: int) -> DihedralInvariants:
    """Invariants of the interior coefficient tuple a = (a_1, ..., a_s).

    One formula covers every index: for i = 1 it degenerates to
    a_1**(s+1) + a_s**(s+1) and for i = s to 2*a_1*a_s.
    """
    a = tuple([_exact(v) for v in a])
    s = len(a)
    if s < 2:
        raise ValueError(f"need at least 2 interior coefficients, got {s}")
    pairs = [(v.numerator, v.denominator) for v in a]
    values = tuple([Fraction(num, den) for num, den in _term_pairs(pairs[0], pairs[-1], pairs, pairs)])
    return DihedralInvariants(values, n, delta)


def _term_pairs(x, y, u, v) -> list:
    """The unreduced ``(num, den)`` of x**k * u_i + y**k * v_k for i = 1..s, k = s+1-i.

    Every operand is a ``(numerator, denominator)`` pair of ints, ``u`` and
    ``v`` list s of them, and only x and y are raised to powers:

        (x_p**k * y_q**k * u_p * v_q + y_p**k * x_q**k * v_p * u_q) / (x_q**k * y_q**k * u_q * v_q).
    """
    (x_p, x_q), (y_p, y_q) = x, y
    step_x, step_y, step_q = x_p * y_q, y_p * x_q, x_q * y_q
    power_x = power_y = power_q = 1
    pairs = []
    for (u_p, u_q), (v_p, v_q) in zip(reversed(u), v):  # k = 1..s
        power_x, power_y, power_q = power_x * step_x, power_y * step_y, power_q * step_q
        pairs.append((power_x * u_p * v_q + power_y * v_p * u_q, power_q * u_q * v_q))
    return pairs[::-1]


def dihedral_discriminant(inv: DihedralInvariants) -> Fraction:
    """Discriminant of the quadratic satisfied by a_s**(s+1); zero iff degenerate.

    Worked out once per tuple; every call returns the same Fraction.
    """
    return inv._discriminant


def leading_coefficients(inv: DihedralInvariants):
    """Both roots of the defining quadratic, exactly.

    Returns (plus, minus), that is head/2 +- square_part/2**(s+2) read off
    the tuple's field report.  When the discriminant is a rational square
    both roots are Fractions; otherwise they are conjugate QuadExt elements
    over the squarefree radicand of the discriminant.  The pair is worked
    out once per tuple, in the same pass that builds both rebuilt
    equations, and every call returns the same objects.
    """
    return inv._root_split[0]


@dataclass(frozen=True)
class FieldReport:
    """Which field the normal form rebuilt from the invariants needs.

    ``field_description`` is "F" (the field of moduli itself) or
    "F(sqrt(d))" with d the squarefree radicand of the discriminant.  A
    non-square discriminant proves only that the normal form needs
    F(sqrt(d)), not that the curve has no model over F (ROADMAP.md item 2).
    ``square_part`` is the rational r >= 0 with
    ``discriminant == (squarefree_radicand or 1) * r**2``; it is 0 exactly
    on the degenerate locus.  Each DihedralInvariants builds its report once
    (``DihedralInvariants.field_report``; a FactorBoundExceededError is not
    kept) and every later reader shares it.
    """

    discriminant: Fraction
    is_square: bool
    is_degenerate: bool
    squarefree_radicand: int | None
    square_part: Fraction
    field_description: str
    note: str


def field_of_definition(inv: DihedralInvariants) -> FieldReport:
    """The field report of ``inv``, computed on first use and then shared."""
    return inv.field_report


@dataclass(frozen=True)
class ReconstructedCurve:
    """An explicit equation rebuilt from invariants.

    The full coefficient vector is [1, c_1, ..., c_{s-1}, L, L] at exponents
    delta*(0, 1, ..., s-1, s, s+1), where L is ``leading_coefficient`` (the
    chosen quadratic root) and c_i sits in ``interior_coefficients[i-1]``.
    Entries are Fractions or QuadExt elements, as the root forces.
    """

    leading_coefficient: object
    interior_coefficients: tuple
    n: int
    delta: int
    s: int
    root_choice: str

    def polynomial(self) -> Poly:
        """The right-hand side as a polynomial (over Q or Q(sqrt(d)))."""
        lead = self.leading_coefficient
        coeffs = [Fraction(0)] * (self.delta * (self.s + 1) + 1)
        coeffs[:: self.delta] = (Fraction(1), *self.interior_coefficients, lead, lead)
        return Poly(coeffs)

    def invariant_values(self) -> tuple:
        """The invariants (s_1, ..., s_s) of the rebuilt equation, from its coefficients alone.

        This is the exact certificate of a reconstruction.  Writing c_s = L,
        the rebuilt equation is the normal form a rescaled by a_s with
        c_i = a_i * a_s**i and L = a_s**(s+1), so the invariant formula reads

            s_i = c_1**(s+1-i) * c_i / L + c_{s+1-i},

        which needs no (s+1)-th root and holds over Q and Q(sqrt(d)) alike.
        A reconstruction is right exactly when this equals the tuple it was
        rebuilt from, whichever root it used.  ``reconstruct`` gives L = 0
        only when s_s = 0, and then every c_i is 0 too: the equation is
        y**n = 1, which determines no invariants.  L = 0 raises ValueError.
        """
        lead = self.leading_coefficient
        if lead == 0:
            raise ValueError("leading coefficient 0: the rebuilt equation y^n = 1 determines no invariants")
        c = (*self.interior_coefficients, lead)
        s = self.s
        inverse = 1 / lead
        return tuple(c[0] ** (s + 1 - i) * c[i - 1] * inverse + c[s - i] for i in range(1, s + 1))

    def _invariant_pairs(self) -> tuple:
        """``(numerator, denominator)`` of each s_i of ``invariant_values``, for rational L != 0.

        They are ``_term_pairs`` with x = c_1, y = 1, u_i = c_i/L and v = c,
        each c_j = p_j/q_j read off its own numerator and denominator and
        c_i/L taken as the pair (p_i*q_L, q_i*p_L), so with k = s+1-i

            s_i = (p_1**k * (p_i*q_L) * q_k + q_1**k * p_k * (q_i*p_L)) / (q_1**k * (q_i*p_L) * q_k).

        The pairs are not reduced, and a denominator is negative when L is:
        ``roundtrip_verify``, their only caller, compares them by
        cross-multiplication.
        """
        c = (*self.interior_coefficients, self.leading_coefficient)
        pairs = [(x.numerator, x.denominator) for x in c]
        p_L, q_L = pairs[-1]
        over_lead = [(p * q_L, q * p_L) for p, q in pairs]
        return tuple(_term_pairs(pairs[0], (1, 1), over_lead, pairs))


def reconstruct(inv: DihedralInvariants, root_choice: str = "minus") -> ReconstructedCurve:
    """Rebuild an equation over the minimal field from the invariants.

    ``root_choice`` picks which quadratic root becomes the leading
    coefficient.  When both roots are nonzero, the two choices give the two
    dihedral normalizations, and reversing the interior tuple swaps them.
    They are the same curve only when n | delta*(s+1); otherwise x -> 1/x
    is no isomorphism and the two curves can differ (ROADMAP.md, open item
    1).  A root of 0 occurs exactly when s_s = 0; choosing it
    rebuilds y**n = 1, which is not a curve, and only the other root gives
    one.  On the degenerate locus (discriminant 0) reconstruction is
    refused.

    Both rebuilt equations are built once per tuple, in the root split
    (module docstring); this picks the chosen root's.  Every call returns
    the same ``interior_coefficients`` tuple for a root, and the leading
    coefficient is the very object ``leading_coefficients`` returns.
    """
    if root_choice not in ("plus", "minus"):
        raise ValueError(f"root_choice must be 'plus' or 'minus', got {root_choice!r}")
    if dihedral_discriminant(inv) == 0:
        raise DegenerateLocusError(
            "discriminant 0: the curve has extra automorphisms beyond the dihedral "
            "family and this reconstruction does not apply"
        )
    (plus, minus), interiors = inv._root_split
    lead = plus if root_choice == "plus" else minus
    return ReconstructedCurve(lead, interiors[root_choice], inv.n, inv.delta, inv.s, root_choice)


@dataclass(frozen=True)
class RoundtripReport:
    """Outcome of rebuilding a curve from the invariants of a known tuple."""

    status: str  # "pass" | "skipped" | "fail"
    reason: str | None = None
    root_choice: str | None = None
    checks: int = 0


def roundtrip_verify(a, n: int, delta: int) -> RoundtripReport:
    """Forward-compute invariants of a, reconstruct, and compare exactly.

    The reconstruction root is pinned to the known value a_s**(s+1), so the
    rebuilt coefficients must equal a_i * a_s**i on the nose; any deviation
    is a fail.  Tuples on the degenerate locus are reported as skipped, not
    failed, since reconstruction is undefined there.  A forward tuple's
    discriminant is 2**(2s+2) * (a_1**(s+1) - a_s**(s+1))**2, a rational
    square, so the rebuilt equation is rational; past the roots, compared as
    Fractions, every check cross-multiplies integers (module docstring).
    """
    a = tuple([_exact(v) for v in a])
    inv = compute_invariants(a, n, delta)
    if field_of_definition(inv).is_degenerate:
        return RoundtripReport(status="skipped", reason="degenerate locus (discriminant 0)")
    s = inv.s
    target = a[-1] ** (s + 1)

    def fail(reason):
        return RoundtripReport(status="fail", reason=reason, root_choice=choice, checks=checks)

    choice, checks = None, 0
    plus, minus = leading_coefficients(inv)
    if plus == target:
        choice = "plus"
    elif minus == target:
        choice = "minus"
    else:
        return fail(f"neither quadratic root equals the forward value {target}")
    rec = reconstruct(inv, choice)
    checks = 1  # the chosen root, the rebuilt L, equals the forward value
    # with a_s = top/bottom, the forward value a_i * a_s**i is num/den below
    top, bottom = a[-1].numerator, a[-1].denominator
    power, scale = 1, 1
    for i in range(1, s):
        power *= top
        scale *= bottom
        num, den = a[i - 1].numerator * power, a[i - 1].denominator * scale
        got = rec.interior_coefficients[i - 1]
        if got.numerator * den != num * got.denominator:
            return fail(f"coefficient {i}: reconstructed {got}, forward value {Fraction(num, den)}")
        checks += 1
    # The certificate adds s_1..s_(s-1) whenever it is defined, that is L != 0
    # (s_s = 2*c_1 repeats the c_1 check above); with a_s = 0 it is skipped.
    if target != 0:
        pairs = rec._invariant_pairs()
        for i, ((num, den), expected) in enumerate(zip(pairs[:-1], inv.values), start=1):
            if num * expected.denominator != expected.numerator * den:
                got = Fraction(num, den)
                return fail(f"certificate: the rebuilt equation gives s_{i} = {got}, not {expected}")
            checks += 1
    return RoundtripReport(status="pass", root_choice=choice, checks=checks)


def invariants_for_curve(curve: SuperellipticCurve, delta: int | None = None):
    """Classify the curve and compute its invariants in one step.

    Returns (normal_form, invariants).  Raises NoExtraAutomorphismError when
    no delta >= 2 shape fits and UnsupportedFormError when the shape that
    fits is not the g(x^delta) one (or has fewer than 2 interior
    coefficients, where the invariant tuple is not defined).
    """
    nf = classify_normal_form(curve, delta)
    if nf.kind is None:
        raise NoExtraAutomorphismError(nf.diagnostic)
    if nf.kind != G_DELTA:
        raise UnsupportedFormError(
            "invariants are defined for the g(x^delta) form only; "
            f"this curve is in the {nf.kind} form"
        )
    if nf.s < 2:
        raise UnsupportedFormError(
            f"the invariant tuple needs at least 2 interior coefficients, got s = {nf.s}"
        )
    return nf, compute_invariants(nf.a, curve.n, nf.delta)
