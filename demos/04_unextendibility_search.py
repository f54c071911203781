"""How the unextendibility certificate works.

The search takes the orthogonal complement of a basis, parametrizes its
unit sphere by real coordinates in an orthonormal frame, and minimizes a
smooth entanglement defect with multi-start projected gradient descent.
A minimum bounded away from zero means no state of the requested
entanglement class survives orthogonally to the basis; a minimum at zero
produces the extending state itself as a witness.

Both outcomes appear below on the same twelve-vector family in 2x3x3,
just by changing the predicate -- unextendibility is a statement about a
class of states, not about the family alone.
"""

import numpy as np

from umeb import (
    Bipartition,
    CutRestricted,
    DecomposedVector,
    GhzType,
    Ket,
    LabeledBasis,
    SearchConfig,
    Strict,
    SystemShape,
    orthonormal_complement,
    random_unit_ket,
    schmidt_coefficients,
    stack_amps,
    umeb_2x3x3_first,
    unextendibility_search,
)

family = umeb_2x3x3_first()
comp = orthonormal_complement(family.kets)
print(f"family {family.name}: complement dimension {len(comp)}")

for pred, pred_name, target in (
    (GhzType(2), "ghz2", "1/4"),
    (Strict(), "strict", "5/6"),
):
    res = unextendibility_search(family, pred)
    print(f"\npredicate {pred_name}: verdict {res.verdict}")
    print(f"  min defect {res.min_defect:.12f} (analytic floor {target})")
    print(f"  per-restart minima (first 5): {np.round(res.per_restart_minima[:5], 9)}")

pred = CutRestricted(Bipartition(family.shape, (0,)), 2)
res = unextendibility_search(family, pred)
print(f"\npredicate cut1 (maximal entanglement across the first cut only):")
print(f"  verdict {res.verdict}, min defect {res.min_defect:.3e}")
w = res.witness
print(f"  witness orthogonality to the family: "
      f"{np.max(np.abs(stack_amps(family.kets).conj() @ w.amps)):.3e}")
sc = schmidt_coefficients(w, Bipartition(family.shape, (0,)))
print(f"  witness Schmidt coefficients across the first cut: {np.round(sc, 9)}")

# comparison: a random 12-dimensional subspace.  GHZ-type states are
# scarce enough in 18 dimensions that a random 6-dimensional complement
# also misses them -- but only barely.  Its defect floor is a thin,
# seed-dependent accident (around 1e-3 here), while the family above is
# pinned at the structural value 1/4, three hundred times larger.
rng = np.random.default_rng(2)
shape = SystemShape((2, 3, 3))
q, _ = np.linalg.qr(stack_amps(random_unit_ket(shape, rng) for _ in range(12)).T)
random_basis = LabeledBasis(
    "random-12", shape, tuple(f"r{i}" for i in range(12)),
    tuple(DecomposedVector(Ket(shape, v)) for v in q.T),
)
res = unextendibility_search(random_basis, GhzType(2), SearchConfig(restarts=8))
print(f"\nrandom 12-dimensional comparison set: verdict {res.verdict} "
      f"(min defect {res.min_defect:.3e})")
print("both complements miss the GHZ-type class, but the family's gap is")
print("structural (exactly 1/4) where the random set's is a thin accident.")
