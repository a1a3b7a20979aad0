"""
From an equation to its dihedral invariants
===========================================

Parse a curve equation, check it defines a valid superelliptic curve,
detect the decimated normal form, and compute the invariants.
"""

from superelliptic import (
    dihedral_discriminant,
    field_of_definition,
    invariants_for_curve,
    parse_equation,
    render_equation,
    validate,
)

n, f = parse_equation("y^2 = x^6 + x^4 + 2x^2 + 1")
curve = validate(n, f)
print(f"curve: {render_equation(curve.n, curve.f)}")
print(f"degree {curve.d}, genus {curve.genus}")

form, inv = invariants_for_curve(curve)
print(f"normal form kind={form.kind} delta={form.delta} s={form.s}")
print(f"interior coefficients a = {[str(v) for v in form.a]}")
print(f"invariants = {[str(v) for v in inv.values]}")

disc = dihedral_discriminant(inv)
report = field_of_definition(inv)
print(f"discriminant = {disc}")
print(f"field of definition: {report.field_description}  ({report.note})")

# The same pipeline speaks up when the curve has no extra automorphism.
from superelliptic import NoExtraAutomorphismError

n, g = parse_equation("y^2 = x^5 + x^3 + x + 1")
try:
    invariants_for_curve(validate(n, g))
except NoExtraAutomorphismError as exc:
    print(f"\ny^2 = x^5 + x^3 + x + 1 is refused: {exc}")

# Vanishing interior coefficients can make the detected decimation step too
# coarse.  x^8 + 5x^4 + 1 fits delta=4 with a single interior coefficient,
# which is too short for invariants; pinning delta=2 reads the same support
# with s=3.
n, h = parse_equation("y^2 = x^8 + 5x^4 + 1")
curve = validate(n, h)
form, inv = invariants_for_curve(curve, delta=2)
print(f"\n{render_equation(curve.n, curve.f)} with delta pinned to 2:")
print(f"s = {form.s}, a = {[str(v) for v in form.a]}")
print(f"invariants = {[str(v) for v in inv.values]}")
print(f"(an all-zero tuple sits on the degenerate locus: {field_of_definition(inv).note})")
