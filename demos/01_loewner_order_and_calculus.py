"""Loewner order, functional calculus, and sector estimates.

Walks the dense linear-algebra substrate: certifying Hermitian matrices,
comparing them in the positive semidefinite order, applying scalar
functions through eigendecompositions, and estimating the sector that
contains a numerical range.
"""

import numpy as np

from opmono.matcore import (
    funcalc,
    herm_certify,
    loewner_leq,
    loewner_margin,
    sector_estimate,
)

rng = np.random.default_rng(1)

# Certify and symmetrize a noisy Hermitian matrix.
g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
h = (g + g.conj().T) / 2 + 1e-12 * rng.normal(size=(4, 4))
a = herm_certify(h)
print("Hermitian defect after certification:", np.linalg.norm(a - a.conj().T))

# The Loewner order: A <= A + P for any PSD bump P.
p = g @ g.conj().T / 4
print("A <= A + P:", loewner_leq(a, a + p))
print("order margin lambda_min(P):", f"{loewner_margin(a, a + p):.4f}")

# Functional calculus: the square root of a positive matrix squares back.
spd = p + np.eye(4)
root = funcalc(np.sqrt, spd)
print("|| sqrt(A)^2 - A || =", f"{np.linalg.norm(root @ root - spd):.2e}")

# Sector estimate: a normal matrix with eigenvalues 1 and 1+i sits in the
# quarter-plane sector.
est = sector_estimate(np.diag([1.0, 1.0 + 1.0j]))
print(f"sector half-angle: {np.degrees(est.alpha):.2f} deg (expected 45)")
print(f"real-part margin:  {est.margin:.3f}")

