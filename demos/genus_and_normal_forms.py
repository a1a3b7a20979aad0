# Genus bookkeeping and normal-form detection for small superelliptic curves.

import math

from superelliptic import classify_normal_form, genus, parse_equation, render_equation, validate

# Genus grows quickly with n and d; the coprime diagonal follows the closed
# form (n-1)(d-1)/2.
print("genus table, rows n = 2..5, columns d = n+1..8")
for n in range(2, 6):
    cells = []
    for d in range(n + 1, 9):
        tag = "*" if math.gcd(n, d) == 1 else " "
        cells.append(f"d={d}: g={genus(n, d)}{tag}")
    print("  n=" + str(n) + "  " + "   ".join(cells))
print("  (* marks gcd(n, d) = 1, where g = (n-1)(d-1)/2)")

# Classification reads the support of f.  A pure g(x^delta) shape:
n, f = parse_equation("y^2 = x^6 + 3x^4 + x^2 + 1")
form = classify_normal_form(validate(n, f))
print(f"\n{render_equation(n, f)}: kind={form.kind} delta={form.delta} s={form.s} a={[str(v) for v in form.a]}")

# The x*g(x^delta) shape is detected too, though it carries no dihedral
# invariants in this package.
n, f = parse_equation("y^3 = x^7 + 5x^4 + x")
form = classify_normal_form(validate(n, f))
print(f"{render_equation(n, f)}: kind={form.kind} delta={form.delta} s={form.s}")

# A non-monic curve is brought to leading coefficient 1 by rescaling x when
# a rational rescale exists; the report keeps the factor used.
n, f = parse_equation("y^2 = 64x^6 + 16x^4 + 8x^2 + 1")
form = classify_normal_form(validate(n, f))
print(f"{render_equation(n, f)}: rescale x -> {form.rescale}*x, a={[str(v) for v in form.a]}")

# When no rational rescale exists the classifier says why instead of
# guessing.
n, f = parse_equation("y^2 = 2x^6 + x^4 + x^2 + 1")
form = classify_normal_form(validate(n, f))
print(f"{render_equation(n, f)}: kind={form.kind} ({form.diagnostic})")
