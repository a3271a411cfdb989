#!/usr/bin/env python3
# End to end: search a flag for an Einstein diameter, solve the metric
# profile from its first integral, verify the Einstein equations, export.

import numpy as np

from flagke import (
    LieAlgebraSpec,
    build_flag,
    build_root_system,
    build_segment_polynomial,
    default_complex_structure,
    make_base,
    profile_solve,
    search_diameters,
    verify_profile,
)
from flagke.cli import export_profile
from flagke.model import CenterLine
from flagke.rootsys import CartanVector

# the product of two CP^2 flags: paint the second node of each factor
system = build_root_system(LieAlgebraSpec.parse("A2xA2"))
flag = build_flag(system, [1, 3])
j = default_complex_structure(flag)

# find every obstruction zero on the circle of unit center directions, in integers
probe = make_base(flag, j, flag.center_basis[0])
result = search_diameters(probe)
print("sphere-in-chamber hypothesis:", result.hypothesis.ok,
      "(distance^2 =", result.hypothesis.min_distance_sq, ")")
for cand in result.candidates:
    print("zero at Z =", [str(v) for v in cand.z_values],
          "exact:", cand.confirmed_exact, "admissible KE:", cand.ke_ok)

winner = next(c for c in result.candidates if c.ke_ok)
base = CenterLine(flag=flag, j=j, z=CartanVector(winner.z_values))

# the profile: f' = sqrt(u(f)) with u = -2 int_0^f P(v)(v-m1) dv / P(f)
sp = build_segment_polynomial(base, 1, 1)
print("P coefficients:", [str(c) for c in sp.coeffs])

profile = profile_solve(sp, grid_size=512)
print("delta =", profile.delta)
print("diagnostics:", {k: float(v) for k, v in profile.diagnostics.items()})

# Einstein residuals along the solved metric, both tangential and normal
report = verify_profile(sp, profile, n_check=64)
for key, val in report.items():
    print("%-26s %.3e" % (key, val))

# table excerpt and the CSV/JSON export used by the command line
files = export_profile(profile, sp, "/tmp/einstein_profile.csv")
print("wrote", files)
data = np.genfromtxt(files["table"], delimiter=",", skip_header=1)
for row in data[:: len(data) // 8]:
    print("t=%.4f  f=%.5f  f'=%.5f  f''=%+.5f" % (row[0], row[1], row[2], row[3]))
