# Rebuild a curve equation from its invariants alone, then push through the
# quadratic-extension and degenerate cases that come up along the way.

from fractions import Fraction

from superelliptic import (
    DegenerateLocusError,
    DihedralInvariants,
    compute_invariants,
    dihedral_discriminant,
    field_of_definition,
    leading_coefficients,
    reconstruct,
    render_equation,
    roundtrip_verify,
)

# Start from a known tuple so there is something to compare against.
a = (Fraction(2), Fraction(1))
inv = compute_invariants(a, 2, 2)
print(f"a = (2, 1) gives invariants {[str(v) for v in inv.values]}")
print(f"discriminant = {dihedral_discriminant(inv)}")

plus, minus = leading_coefficients(inv)
print(f"quadratic roots: plus={plus}, minus={minus}")

rebuilt = reconstruct(inv, "minus")
print(f"rebuilt equation: {render_equation(rebuilt.n, rebuilt.polynomial())}")
print(f"interior coefficients: {[str(c) for c in rebuilt.interior_coefficients]}")

report = roundtrip_verify(a, 2, 2)
print(f"roundtrip: {report.status} after {report.checks} exact checks")

# Invariants (1, 1) have a non-square discriminant, so the rebuilt equation
# genuinely needs sqrt(2).
ext = DihedralInvariants((Fraction(1), Fraction(1)), 2, 2)
print(f"\ninvariants (1, 1): discriminant = {dihedral_discriminant(ext)}")
print(f"field: {field_of_definition(ext).field_description}")
for choice in ("plus", "minus"):
    rec = reconstruct(ext, choice)
    print(f"  root {choice}: {render_equation(rec.n, rec.polynomial())}")
    # the exact certificate: the rebuilt coefficients alone give back the invariants
    certificate = rec.invariant_values()
    print(f"    certificate {[str(v) for v in certificate]}: exact match = {certificate == ext.values}")

# On the degenerate locus the two roots collide and reconstruction refuses.
flat = compute_invariants((Fraction(1), Fraction(1)), 2, 2)
print(f"\na = (1, 1) gives invariants {[str(v) for v in flat.values]}, " f"discriminant = {dihedral_discriminant(flat)}")
try:
    reconstruct(flat)
except DegenerateLocusError as exc:
    print(f"reconstruct refused: {exc}")
print(f"note: {field_of_definition(flat).note}")
