"""Two unextendible maximally entangled families in 2x3.

With unequal local dimensions a maximally entangled state means Schmidt
coefficients (1/sqrt(2), 1/sqrt(2)) across the only cut.  Each family has
four such vectors; their two-dimensional orthogonal complement consists
entirely of product vectors (everything is tagged |2> on the second
subsystem), so no fifth maximally entangled vector exists: the defect is
constant at its positive floor over the whole complement sphere.
"""

import numpy as np

from umeb import (
    Bipartition,
    GhzType,
    Strict,
    check_orthonormal,
    orthonormal_complement,
    schmidt_coefficients,
    umeb_2x3_type1,
    umeb_2x3_type2,
    unextendibility_search,
)

for family in (umeb_2x3_type1(), umeb_2x3_type2()):
    print(f"family {family.name}: {len(family)} vectors in {family.shape}")
    print(f"  orthonormality residual: {check_orthonormal(family).residual:.3e}")

    cut = Bipartition(family.shape, (0,))
    for label, ket in zip(family.labels, family.kets):
        sc = schmidt_coefficients(ket, cut)
        print(f"  {label}: Schmidt coefficients {np.round(sc, 12)}")

    comp = orthonormal_complement(family.kets)
    print(f"  complement dimension: {len(comp)}")
    for v in comp:
        nz = np.nonzero(np.abs(v.amps) > 1e-12)[0]
        print(f"    complement vector supported on flat indices {nz.tolist()}")

    for pred, pred_name in ((GhzType(2), "ghz2"), (Strict(), "strict")):
        res = unextendibility_search(family, pred)
        spread = res.per_restart_minima[-1] - res.per_restart_minima[0]
        print(
            f"  search under {pred_name}: min defect {res.min_defect:.12g} "
            f"(restart spread {spread:.1e}) -> {res.verdict}"
        )
    print()

print("the ghz2 floor 0.25 is the defect of a product state: the reduced")
print("state is pure, and ||rho^2 - rho/2||_F^2 = 1/4 for any pure rho.")
