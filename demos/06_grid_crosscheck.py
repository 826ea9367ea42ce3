"""Independent verification: transcendental roots vs grid diagonalization.

Every spectral number in this package comes from root-finding on the
matching conditions.  A second, unrelated route -- finite differences on a
uniform grid, whose lowest eigenvalues come from certified shift-invert
Lanczos -- must agree, and its error must shrink like dx^2.
"""

import math

import numpy as np

from dwell import (
    TABLE1_WELL,
    aligned_size,
    build_eigenfunction,
    build_grid_hamiltonian,
    eigenvector,
    lowest_eigenvalues,
    solve_below_barrier,
    to_dimensionless,
)

result = solve_below_barrier(to_dimensionless(TABLE1_WELL))
h = build_grid_hamiltonian(TABLE1_WELL, 20_000)
grid = lowest_eigenvalues(h, len(result.levels))

print(f"{'level':>5} {'matching (J)':>16} {'grid (J)':>16} {'rel diff':>10}")
for level, e_grid in zip(result.levels, grid):
    rel = abs(float(e_grid) / level.energy - 1.0)
    print(f"{level.index:>5} {level.energy:>16.8e} {float(e_grid):>16.8e} {rel:>10.2e}")

print("\ngrid convergence of the ground level (aligned sizes):")
e_ref = result.levels[0].energy
prev = None
n = aligned_size(TABLE1_WELL, 2500)
for _ in range(4):
    err = abs(float(lowest_eigenvalues(build_grid_hamiltonian(TABLE1_WELL, n), 1)[0])
              / e_ref - 1.0)
    line = f"  n = {n:>6}: rel err = {err:.3e}"
    if prev is not None:
        line += f"  (order {math.log2(prev / err):.2f})"
    print(line)
    prev = err
    n *= 2

# eigenvectors agree pointwise with the analytic pieces
x = h.positions
psi0 = build_eigenfunction(TABLE1_WELL, result.levels[0])
v0 = eigenvector(h, float(grid[0]))
dev = np.max(np.abs(v0 - psi0(x))) * math.sqrt(TABLE1_WELL.a)
print(f"\nground-state grid vector vs analytic form: "
      f"max deviation {dev:.2e} (a-scaled units)")
nodes = int(np.sum(np.sign(v0[np.abs(v0) > 1e-6 * np.max(np.abs(v0))][1:])
                   != np.sign(v0[np.abs(v0) > 1e-6 * np.max(np.abs(v0))][:-1])))
print(f"interior node count of the grid ground state: {nodes}")
