"""Restriction to generic lines and the Garnier-solution parametrization.

Restricts the corrected quintic connection along x = a y + b, prints the
restricted Riccati coefficients over 2 y (y-1) Q, eliminates b via
c^2 = 1 - 4ab to rationalize the movable poles, and extracts the
symmetrized coordinates (S_q, P_q) with the field-by-field agreement
report against the quoted reference formulas.
"""

from quintic_garnier.garnier import (alphas_report, garnier_parametrization,
                                     h21_extract, parity_invariance,
                                     pole_positions, pole_positions_at,
                                     restrict_to_line)
from quintic_garnier.ring import serialize_poly
from quintic_garnier.fractions import serialize_frac

print("=== restriction along x = a y + b ===")
rest = restrict_to_line(mode="ab")
a2, a1, a0 = rest.alphas()
print("denominator:", serialize_poly(rest.denominator))
print("alpha2:", serialize_poly(a2))
print("alpha1:", serialize_poly(a1))
print("alpha0:", serialize_poly(a0))

rep = alphas_report()
print("\nagainst the quoted coefficients:")
print("  alpha1 matches:", rep["alpha1"]["matches"])
print("  alpha0 matches:", rep["alpha0"]["matches"])
print("  alpha2 matches:", rep["alpha2"]["matches"],
      "| difference:", rep["alpha2"]["delta_vs_reference"])

print("\n=== movable poles in the (a, c) parameters ===")
t1, t2 = pole_positions()
print("t1 =", serialize_poly(t1))
print("t2 =", serialize_poly(t2))
print("rational instance a=1, c=4:", pole_positions_at(1, 4)[:2])

print("\n=== the lower-left assembly and its quadratic numerator ===")
h = h21_extract()
print("numerator:", serialize_poly(h.numerator))
print("leading coefficient:", serialize_frac(h.leading))
print("residue at infinity vanishes:", h.residue_at_infinity_vanishes)
print("partial-fraction assembly verified:", h.assembly_verified)

print("\n=== the Garnier parametrization ===")
data, report = garnier_parametrization()
for name, val in (("t1", data.t1), ("t2", data.t2), ("S_q", data.S_q),
                  ("P_q", data.P_q), ("S_p", data.S_p), ("gamma", data.gamma)):
    print(f"{name:5s} = {serialize_frac(val)}")
print("\nagreement report:")
print("  t1 matches quoted variants (with a^-2, without):",
      report["t1"]["matches_44"], report["t1"]["matches_45"])
print("  S_q matches:", report["S_q"]["matches_45"])
print("  P_q matches as quoted / after repairing the parameter factor:",
      report["P_q"]["matches_45"], report["P_q"]["matches_45_repaired"])
print("  parity invariance (c -> -c, t1 <-> t2):", parity_invariance(data))
