"""Shorted operators and Schur complements.

The shorted operator of a PSD matrix on a subspace is the maximal
self-adjoint compression sitting below the matrix; it is monotone and
concave in its argument.  For sectorial matrices the Schur complement obeys
the sec^2(alpha) singular-value bound, and complements of matrices with PSD
imaginary part keep a PSD imaginary part.
"""

import numpy as np

from opmono.matcore import im_part, min_eig
from opmono.schur import (
    PivotSubspace,
    schur_generic,
    sector_bound_check,
    shorted_psd,
)

rng = np.random.default_rng(3)

# Hand example: shorting [[2, 1], [1, 1]] onto the first coordinate gives [1].
a = np.array([[2.0, 1.0], [1.0, 1.0]])
s = PivotSubspace.from_indices(2, [0])
print("shorted([[2,1],[1,1]]) on e1:", shorted_psd(a, s).shorted.real)

# Monotonicity: A <= B implies shorted(A) <= shorted(B).
g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
a = g @ g.conj().T / 5
b = a + np.eye(5)
pivot = PivotSubspace.from_indices(5, [0, 1, 2])
sa = shorted_psd(a, pivot).shorted
sb = shorted_psd(b, pivot).shorted
print("monotonicity margin:", f"{min_eig(sb - sa):.4f}")

# Maximality: the embedded shorted operator sits below A.
print("A - iota(shorted(A)) min eigenvalue:", f"{min_eig(a - pivot.embed(sa)):.2e}")

# Half-plane preservation: Im A >= 0 passes to the Schur complement.
upper = (g + g.conj().T) / 2 + 1j * (g @ g.conj().T / 5 + 0.1 * np.eye(5))
comp = schur_generic(upper, pivot, keep="perp")
print("Im(Schur complement) min eigenvalue:", f"{min_eig(im_part(comp)):.2e}")

# The sec^2(alpha) bound for a sectorial matrix.
sector_mat = np.diag([1.0, 1.0 + 1.0j])
report = sector_bound_check(sector_mat, PivotSubspace.from_indices(2, [0]))
sv, bound = report.singular_value_pairs[0]
print(f"sigma(S(A)) = {sv:.4f} <= sec^2(alpha) sigma(A22) = {bound:.4f}: {report.passed}")
