"""The quintic-polar connections: flatness, pullback chain, residues.

Rebuilds the corrected quintic connection from the covering construction
(double cover ramified on the order-two line, elementary transform, fiber
involution), verifies every link of the chain exactly, and prints the
residue table with eigenvalues along each polar divisor.
"""

from quintic_garnier.connections import (
    CASE1_DIVISORS, QUINTIC2_DIVISORS, build_omega0, build_omega1,
    build_riccati1, case1_connection, flat_case1_connection,
    flat_representative, is_flat, map_cover_bar, map_elementary,
    map_involution, pullback_riccati, residue, riccati_of_connection)
from quintic_garnier.fractions import serialize_frac

print("=== the covering chain, link by link ===")
w0, w1 = build_omega0(), build_omega1()
print("diagonal form is closed:            ", w0.d().is_zero())
print("elementary transform pulls w1 to w0:",
      map_elementary().pull_one_form(w1) == w0)
r1 = build_riccati1()
print("fiber involution fixes the Riccati: ",
      pullback_riccati(r1, map_involution()) == r1)

rep, report = flat_representative()
print("derived connection is trace-free:   ", rep.is_trace_free())
print("derived connection is flat:         ", is_flat(rep))
print("its Riccati pulls back to the cover:",
      pullback_riccati(riccati_of_connection(rep), map_cover_bar()) == r1)

print("\n=== residue table of the derived connection ===")
for name, chart in QUINTIC2_DIVISORS.items():
    rd = residue(rep, chart)
    eig = ", ".join(serialize_frac(e) for e in rd.eigenvalues)
    print(f"{name:9s} consistent={rd.consistent} eigenvalues: {eig}")

print("\n=== transcribed variants vs the derived representative ===")
for variant, info in report["variants"].items():
    bad = [k for k, v in info["entries"].items() if not (v["dx"] and v["dy"])]
    print(f"{variant}: matches={info['matches']}, differing entries: {bad}")

print("\n=== the conic-with-tangents family ===")
cf = flat_case1_connection()
print("derived representative flat:", is_flat(cf))
print("transcribed display flat:   ", is_flat(case1_connection()),
      "(known transcription defect, see the verification suite)")
for name in ("x", "y", "tangent-conic"):
    rd = residue(cf, CASE1_DIVISORS[name])
    eig = ", ".join(serialize_frac(e) for e in rd.eigenvalues)
    print(f"{name:14s} consistent={rd.consistent} eigenvalues: {eig}")
