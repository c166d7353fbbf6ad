"""Matrix groups over Z: orders, finiteness certificates, finite orbits.

Run with:  python3 demos/02_finite_orbits.py
"""

import math

from icckit import (
    BasisOrbits,
    GroupInfinite,
    IntMatrix,
    MatGroupGens,
    basis_orbits,
    finite_orbit_sublattice,
    matrix_order,
    orbit_bfs,
)

print("=== Element orders ===")
for rows in ([[0, -1], [1, 0]], [[1, 1], [0, 1]], [[2, 1], [1, 1]]):
    m = IntMatrix.from_rows(rows)
    print(f"order{m} = {matrix_order(m)}")

print()
print("=== Group finiteness: closed basis orbits, or a mod-3 congruence witness ===")
rot = IntMatrix.from_rows([[0, -1], [1, 0]])
refl = IntMatrix.from_rows([[1, 0], [0, -1]])
cert = basis_orbits(MatGroupGens(2, (rot, refl)))
assert isinstance(cert, BasisOrbits)
sizes = [len(orbit) for orbit in cert.orbits]
print(f"<rot4, refl>: finite, basis orbits of sizes {sizes} bound its order by {math.prod(sizes)}")
print(f"  orbit of (1,0): {sorted(cert.orbits[0])}")

shear = IntMatrix.from_rows([[1, 1], [0, 1]])
cert = basis_orbits(MatGroupGens(2, (shear,)))
assert isinstance(cert, GroupInfinite)
print(f"<shear>: infinite, witness {cert.witness_matrix} "
      f"(word {cert.witness_word}) lies in the congruence kernel")

print()
print("=== Orbits under a matrix group ===")
neg = IntMatrix.from_rows([[-1, 0], [0, -1]])
print(f"orbit of (3,5) under <-I>: {sorted(orbit_bfs(MatGroupGens(2, (neg,)), (3, 5), 100).vectors)}")
hyper = MatGroupGens(2, (IntMatrix.from_rows([[2, 1], [1, 1]]),))
print(f"orbit of (1,0) under the hyperbolic map: {orbit_bfs(hyper, (1, 0), 1000)}")

print()
print("=== The finite-orbit sublattice ===")
# Infinite dihedral image: each generator has order <= 2, yet their
# product is a shear, so only the fixed line keeps finite orbits.
g1 = IntMatrix.from_rows([[1, 1], [0, -1]])
g2 = IntMatrix.from_rows([[1, 0], [0, -1]])
cert = finite_orbit_sublattice(MatGroupGens(2, (g1, g2)))
print(f"generators g1={g1}, g2={g2}")
print(f"finite-orbit sublattice F = span{cert.lattice.basis}")
print(f"closed basis orbits certifying a finite induced action: "
      f"{[sorted(orbit) for orbit in cert.basis_orbits]}")
print(f"induced generators on F: {', '.join(map(str, cert.induced_gens))}")
for word, matrix in cert.infinite_order_witnesses:
    print(f"discovery step: word {word} acted with infinite order ({matrix})")
