"""A complete orthonormal basis of 2x2x2 made of maximally entangled states.

Start from (|000> + |111>)/sqrt(2) and act with identity/Pauli factors on
the last two qubits.  The resulting eight vectors are pairwise orthogonal,
span the whole space, and every one has all three single-qubit reduced
states equal to I/2 -- the strictest reading of "maximally entangled".
"""

import numpy as np

from umeb import (
    Strict,
    all_bipartitions,
    check_completeness,
    check_orthonormal,
    gram_matrix,
    is_maximally_entangled,
    meb8,
)

basis = meb8()
print(f"basis {basis.name}: {len(basis)} vectors in {basis.shape}")

onb = check_orthonormal(basis)
print(f"orthonormality residual: {onb.residual:.3e}")

rank, complete = check_completeness(basis)
print(f"rank {rank} of {basis.shape.total}: {'complete' if complete else 'not complete'}")

print("\nreduced states of the first vector (all I/2):")
t = basis.kets[0].amps.reshape(basis.shape.dims)
for cut in all_bipartitions(basis.shape):
    # amplitudes as a dim(A) x dim(B) matrix M across the cut; rho = M M^dagger
    m = np.moveaxis(t, cut.sites, range(len(cut.sites))).reshape(cut.dim_a, cut.dim_b)
    rho = m @ m.conj().T
    print(f"  sites {cut.sites}:")
    for row in rho:
        print("    " + "  ".join(f"{z.real:+.3f}{z.imag:+.3f}j" for z in row))

print("\nper-vector strict maximal-entanglement residuals:")
for label, ket in zip(basis.labels, basis.kets):
    chk = is_maximally_entangled(ket, Strict())
    print(f"  {label}: max residual {chk.max_residual:.3e} -> {'ok' if chk.ok else 'FAIL'}")

g = gram_matrix(basis.kets)
print(f"\nlargest off-diagonal Gram entry: {np.max(np.abs(g - np.eye(8))):.3e}")
print("conclusion: the whole 8-dimensional space is spanned by maximally")
print("entangled states; nothing here can be unextendible.")
