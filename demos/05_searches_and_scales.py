#!/usr/bin/env python3
# Walled searches and the period-scale flag: endpoints with singular orbits
# of higher codimension, including the projective-space fixed-point case.

from fractions import Fraction

from flagke import (
    LieAlgebraSpec,
    build_flag,
    build_root_system,
    coroot_vector,
    default_complex_structure,
    make_base,
    ricci_invariant,
    search_walled,
    sphere_in_chamber,
)

# a wall at an endpoint forces exact linear conditions on Z; the product of
# two SU(2) admits no (2,2) candidate because the norm comes out 1/4, not 1
prod = build_root_system(LieAlgebraSpec.parse("A1xA1"))
flag2 = build_flag(prod, [])
j2 = default_complex_structure(flag2)
h1 = coroot_vector(prod, prod.simple_roots()[0])
h2 = coroot_vector(prod, prod.simple_roots()[1])
base2 = make_base(flag2, j2, h1 - h2)
print("(2,2) candidates on the SU(2) product:", search_walled(base2, 2, 2))

# the projective-space pattern: paint all but one node of A2, ask for a full
# wall on one side (the singular orbit degenerates to a fixed point)
a2 = build_root_system(LieAlgebraSpec.parse("A2"))
flag = build_flag(a2, [1])
j = default_complex_structure(flag)
zk = ricci_invariant(flag, j)
print("Z_kappa:", zk.values)

base = make_base(flag, j, flag.center_basis[0])
print("unit scale, degrees (3,1):", search_walled(base, 3, 1))

# with the circle period scaled to 1/3 the forced Z = -Z_kappa/3 meets the
# norm condition and the obstruction vanishes exactly: the round metric
base_third = make_base(flag, j, flag.center_basis[0], period_scale=Fraction(1, 3))
found = search_walled(base_third, 3, 1)
for cand in found:
    print("scale 1/3 candidate: Z =", [str(v) for v in cand.z_values],
          "obstruction =", cand.verdict.futaki.value,
          "degrees =", cand.verdict.degrees)

# the same manifold through a different group: symmetric (2,2) walls on the
# product of two SU(2), found at scale 1/2, with the identical profile
import math

from flagke import build_segment_polynomial, profile_solve
from flagke.model import CenterLine
from flagke.rootsys import CartanVector

base_half = make_base(flag2, j2, h1 - h2, period_scale=Fraction(1, 2))
cand = search_walled(base_half, 2, 2)[0]
print("product realization: Z =", [str(v) for v in cand.z_values])
sp = build_segment_polynomial(
    CenterLine(flag=flag2, j=j2, z=CartanVector(cand.z_values), period_scale=Fraction(1, 2)), 2, 2
)
prof = profile_solve(sp, grid_size=128)
print("delta =", prof.delta, " (closed form sqrt(2) pi =", math.sqrt(2) * math.pi, ")")

# the diameter-sphere hypothesis, exact in both norm readings
for text, painted in [("A1xA1", []), ("A3", [1, 2]), ("A2xA2", [1, 3])]:
    f = build_flag(build_root_system(LieAlgebraSpec.parse(text)), painted)
    chk = sphere_in_chamber(f, default_complex_structure(f))
    print(text, painted, "ok:", chk.ok,
          "distance^2 full:", chk.min_distance_sq,
          "inside the center:", chk.min_distance_sq_center)
