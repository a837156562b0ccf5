#!/usr/bin/env python3
"""Height ideals and Rees factor semigroups of the regular elements.

Inside the regular order-compatible contractions, the maps of height at most
p form a two-sided ideal.  Collapsing the ideal one level down to a single
zero leaves the height-p layer with a product that "drops to zero" whenever
composition loses a point of the image.  Each of these quotients turns out
to be an inverse semigroup, which the library verifies three independent
ways.

Run:  python demos/tour_rees_quotients.py
"""

from contracta import height_ideal, rees_quotient, regular_subsemigroup, verify_inverse

base = regular_subsemigroup("orct", 5)
print(f"Base: the {base.size} regular order-compatible contractions of the 5-chain.")
print()

print("Height ideals nest:")
for p in range(1, 6):
    print(f"  K(5,{p}): {len(height_ideal(base, p).elements)} maps")
print()

q = rees_quotient(base, 3)
print(f"The height-3 quotient has {q.size} elements (zero plus the height-3 layer).")
print("A few products, showing the collapse rule:")
i = q.index_of(q.elements[1])  # q.elements[0] is the zero, None
shown = 0
for j in range(1, q.size):
    result = q.product(i, j)
    tag = "-> 0 (height dropped)" if result == 0 else f"-> {q.label(result)}"
    print(f"  {q.label(i)} * {q.label(j)} {tag}")
    shown += 1
    if shown == 4:
        break
print()

print("Inverse-semigroup verification, three independent routes:")
report = verify_inverse(q)
print(f"  every element regular:        {report.all_regular}")
print(f"  idempotents commute:          {report.idempotents_commute}")
print(f"  unique inverse per element:   {report.unique_inverses}")
print(f"  orthodox + L/R-unipotent:     {report.orthodox} / {report.l_unipotent} / {report.r_unipotent}")
print(f"  verdict: inverse={report.inverse}, routes consistent={report.consistent}")
print()

print("The same holds for every layer 2 <= p <= n <= 6 over both bases;")
print("run the acceptance suite or `contracta rees` to see the reports.")
