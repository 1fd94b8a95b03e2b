"""Quadrature representations and free analytic continuation.

A one-variable operator monotone function integrates rational cells
lam x / (lam + x); each cell is the pivot Schur complement of a tiny 2 x 2
pencil, so Gauss quadrature assembles a block-diagonal pencil representation
that lies below the function in the Loewner order.
The same pencil evaluates at non-Hermitian arguments: inputs with positive
imaginary part map to outputs with positive imaginary part, which is the
analytic-continuation face of operator monotonicity.
"""

import numpy as np

from opmono.matcore import funcalc, im_part, min_eig
from opmono.represent import rep_eval, rep_eval_complex, rep_from_quadrature
from opmono.sampling import rand_herm, rand_psd

rng = np.random.default_rng(7)

rep = rep_from_quadrature("sqrt", nodes=64, interval=(0.1, 10.0))
print("cells:", rep.meta["nodes"], " scalar error at 100 sampled points:",
      f"{rep.meta['scalar_error']:.2e}")

# Hermitian round trip against the functional calculus.
a = np.diag([1.0, 4.0, 9.0])
out = rep_eval(rep, (a,))
print("rep(diag(1,4,9)) diagonal:", np.round(np.diag(out).real, 5))

g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
spd = (g @ g.conj().T) / 5 + 0.5 * np.eye(5)
err = np.linalg.norm(rep_eval(rep, (spd,)) - funcalc(np.sqrt, spd))
print("matrix round-trip error:", f"{err:.2e}")

# Principal branch at complex scalar points.
for z in (1j, 1 + 1j):
    got = rep_eval_complex(rep, (z * np.eye(2),))[0, 0]
    print(f"rep({z}) = {got:.6f}   principal sqrt = {np.sqrt(z):.6f}")

# Upper half-space maps to the upper half-space.
for _ in range(3):
    n = int(rng.integers(2, 6))
    z = rand_herm(rng, n) + 1j * (rand_psd(rng, n) + 0.1 * np.eye(n))
    w = rep_eval_complex(rep, (z,))
    print(f"n={n}: min eig of Im(output) = {min_eig(im_part(w)):.4f}")
