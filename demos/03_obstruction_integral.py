#!/usr/bin/env python3
# The scalar obstruction: integral_{-m1}^{m2} y prod alpha(Zk - y Z) dy,
# evaluated exactly on rational and quadratic-extension configurations.

import numpy as np

from flagke import (
    LieAlgebraSpec,
    build_flag,
    build_root_system,
    coroot_vector,
    default_complex_structure,
    futaki,
    make_base,
    ricci_invariant,
)
from flagke.rootsys import CartanVector, evaluate

# rank one: the obstruction never vanishes, value -sqrt(2)/3
a1 = build_root_system(LieAlgebraSpec.parse("A1"))
flag1 = build_flag(a1, [])
j1 = default_complex_structure(flag1)
base1 = make_base(flag1, j1, coroot_vector(a1, a1.simple_roots()[0]))
rep = futaki(flag1, j1, base1.z, 1, 1)
print("SU(2)-type:", rep.value, "=", float(rep.value), "vanishes:", rep.vanishes)

# a product of two SU(2): the antisymmetric direction kills the integrand
prod = build_root_system(LieAlgebraSpec.parse("A1xA1"))
flag2 = build_flag(prod, [])
j2 = default_complex_structure(flag2)
h1 = coroot_vector(prod, prod.simple_roots()[0])
h2 = coroot_vector(prod, prod.simple_roots()[1])
print("antisymmetric:", futaki(flag2, j2, make_base(flag2, j2, h1 - h2).z, 1, 1).value)
print("symmetric:    ", futaki(flag2, j2, make_base(flag2, j2, h1 + h2).z, 1, 1).value)

# cross-check one value against a composite Simpson rule with 10^6 panels
zk = ricci_invariant(flag1, j1)
a = float(evaluate(flag1.r_m[1], zk))
k = float(evaluate(flag1.r_m[1], base1.z))
y = np.linspace(-1.0, 1.0, 2 * 10 ** 6 + 1)
w = np.ones_like(y)
w[1:-1:2], w[2:-1:2] = 4.0, 2.0
simpson = float(np.dot(w, y * (a - k * y)) * (2.0 / (2 * 10 ** 6)) / 3.0)
print("Simpson oracle:", simpson, "gap:", abs(simpson - float(rep.value)))

# float directions still work; the report then carries a roundoff bound
zf = CartanVector((0.5, -0.5))
rf = futaki(flag2, j2, zf, 1, 1)
print("float path:", rf.value, "bound:", rf.error_bound, "vanishes:", rf.vanishes)
