"""Supporting pencils at hypograph boundary points and exact reconstruction.

At a boundary point (F(A), A) of the hypograph, the gradient matrices of
X -> v* F(X) v lift the affine support functional to a linear pencil that
is PSD on the whole hypograph (checked on sampled graph points (F(X), X),
its worst members) and exactly tight at the point.
Schur-complement elimination of the pencil then recovers F(A)v without
ever calling F -- that is the reconstruction identity.
"""

import numpy as np

from opmono.freefun import geometric_mean_2_fn, lift_scalar
from opmono.matcore import funcalc, min_eig
from opmono.represent import direct_sum_rep, reconstruct, rep_eval, support_pencil
from opmono.sampling import rand_tuple_interval, rand_unit_vector

rng = np.random.default_rng(6)

# Certificate for the square root at a random base point.
a = rand_tuple_interval(rng, 1, 4, 0.5, 2.0)
v = rand_unit_vector(rng, 4)
cert = support_pencil(lift_scalar("sqrt"), a, v, validation_samples=200, seed=7)
print("support margin over 200 graph samples:", f"{cert.support_margin:.2e}")
print("trace bound slack:", f"{cert.trace_slack:.4f}")
print("pencil coefficient / dominance margins:",
      f"{cert.pencil.coeff_margin:.1e} / {cert.pencil.dominance_margin:.1e}")

# Reconstruction: the pencil alone recovers sqrt(A) v.
rec = reconstruct(cert)
truth = funcalc(np.sqrt, a[0]) @ cert.v
print("|| reconstructed - sqrt(A) v || =", f"{np.linalg.norm(rec.value - truth):.2e}")
print("tightness residual:", f"{rec.residual:.2e}")

# Direct sums of base points give a representation exact on every direction.
fn = geometric_mean_2_fn()
points = [
    (rand_tuple_interval(rng, 2, 3, 0.5, 2.0), rand_unit_vector(rng, 3))
    for _ in range(3)
]
ds = direct_sum_rep(fn, points, validation_samples=80, seed=8)
print("direct-sum residuals:", [f"{r:.1e}" for r in ds.residuals])

# The packaged representation is itself an operator monotone function.
x = rand_tuple_interval(rng, 2, 3, 0.5, 2.0)
y = tuple(xi + 0.1 * np.eye(3) for xi in x)
fx = rep_eval(ds.rep, x)
fy = rep_eval(ds.rep, y)
print("representation monotonicity margin:", f"{min_eig(fy - fx):.4f}")
