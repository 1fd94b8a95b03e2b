"""Linear matrix pencils: construction, tensor evaluation, direct sums.

A pencil B_0, ..., B_k with PSD coefficients and dominant B_0 evaluates at
a matrix tuple through Kronecker products.  Evaluations inherit
sectoriality from their arguments on the range of the coefficient sum.
"""

import numpy as np

from opmono.pencil import (
    RawPencil,
    pencil_direct_sum,
    pencil_eval,
    pencil_eval_shifted,
    pencil_new,
    pencil_sectorial_check,
)

rng = np.random.default_rng(2)


def rand_psd(n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n


# A valid pencil: B_0 dominates the coefficient sum.
b1, b2 = rand_psd(3), rand_psd(3)
pencil = pencil_new([b1 + b2 + 0.5 * np.eye(3), b1, b2])
print("coefficient margin:", f"{pencil.coeff_margin:.3e}")
print("dominance margin:  ", f"{pencil.dominance_margin:.3e}")

# Evaluating at scalar multiples of the identity reduces to a matrix sum.
x = (1.3 * np.eye(1), 0.4 * np.eye(1))
lhs = pencil_eval(pencil, x)
rhs = pencil.b0 + 1.3 * b1 + 0.4 * b2
print("scalar substitution check:", f"{np.linalg.norm(lhs - rhs):.2e}")

# The shifted evaluation annihilates the coefficient terms at the identity.
shifted = pencil_eval_shifted(pencil, (np.eye(2), np.eye(2)))
print(
    "shift annihilation:",
    f"{np.linalg.norm(shifted - np.kron(pencil.b0, np.eye(2))):.2e}",
)

# Direct sums stack coefficients block-diagonally and evaluations follow.
double = pencil_direct_sum([pencil, pencil])
print("direct sum size:", double.size, "(arity", double.arity, ")")

# A homogeneous pencil evaluated at sectorial arguments stays sectorial,
# with an angle no larger than the worst argument angle.
raw = RawPencil((np.zeros((3, 3)), b1, b2))
args = (np.diag([1.0, 1.0 + 1.0j]), np.eye(2) + 0.2j * np.eye(2))
est = pencil_sectorial_check(raw, args)
print(f"pencil evaluation sector: {np.degrees(est.alpha):.2f} deg (inputs at 45)")
