"""Exact Frechet-derivative adjoints for the catalogue functions.

The supporting-pencil construction needs the gradient matrices G_i of
X -> v* F(X) v to near machine precision: the reconstruction identity is
exactly tight only for a true subgradient, and finite-difference noise gets
amplified through the (often barely-conditioned) eliminated block.  For
every catalogue function the adjoint of the slot derivative applied to a
Hermitian seed W (usually vv*) is available in closed form:

  * the lifts and the two-argument geometric, power and Karcher means: one
    congruence of the Loewner matrices (``loewner_matrix``) of their
    representing function (``freefun._loewner_vgrad``), for a lift the
    Daleckii-Krein map, which is self-adjoint under the trace pairing;
  * harmonic/arithmetic means: explicit congruence sandwiches;
  * power and Karcher means of three or more arguments: one implicit-function
    solve of the equation they share, sum w_i f(Z^{-1/2} X_i Z^{-1/2}) = f(1) I
    (``freefun._implicit_vgrad``), assembled on a real Hermitian basis.  Only
    it uses ``solve_linear_map``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .matcore import dagger, herm_part

__all__ = [
    "hermitian_basis",
    "loewner_matrix",
    "dk_map",
    "solve_linear_map",
]


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the real space of n x n Hermitian matrices, stacked (n^2, n, n).

    The diagonal units come first, then for each p < q in row-major order
    the real symmetric and the imaginary antisymmetric unit.
    """
    p, q = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(p.size)
    s = 1.0 / np.sqrt(2.0)
    out = np.zeros((n * n, n, n), dtype=complex)
    out[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    out[sym, p, q] = out[sym, q, p] = s
    out[sym + 1, p, q] = 1j * s
    out[sym + 1, q, p] = -1j * s
    return out


def loewner_matrix(
    w: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    fprime: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """The Loewner matrices [f[w_i, w_j]] of stacked spectra ``(..., n)``, shape ``(..., n, n)``.

    f[a, b] = (f(a) - f(b)) / (a - b), and f'((a + b) / 2) where |a - b| is
    below 1e-8 (1 + |a| + |b|), on the diagonal too.  For a real spectrum the
    matrix is the divided-difference table of the Daleckii-Krein map, and it
    is PSD for every spectrum exactly when f is operator monotone (Loewner,
    *Math. Z.* 38, 1934).
    """
    lam_i, lam_j = w[..., :, None], w[..., None, :]
    diff = lam_i - lam_j
    close = np.abs(diff) < 1e-8 * (1.0 + np.abs(lam_i) + np.abs(lam_j))
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = (f(lam_i) - f(lam_j)) / np.where(close, 1.0, diff)
    return np.where(close, fprime((lam_i + lam_j) / 2), phi)


def dk_map(
    a: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    fprime: Callable[[np.ndarray], np.ndarray],
    eig: tuple[np.ndarray, np.ndarray] | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Daleckii-Krein derivative of the functional calculus at Hermitian ``a``.

    Returns the (self-adjoint) linear map H -> U (Phi o (U* H U)) U* with
    Phi = ``loewner_matrix`` of f on the spectrum.  ``eig``, when given, is
    the caller's ``eigh`` of Herm(a), which is then not repeated.
    """
    w, u = np.linalg.eigh(herm_part(a)) if eig is None else eig
    phi = loewner_matrix(w, f, fprime)

    def apply(h: np.ndarray) -> np.ndarray:
        return u @ (phi * (dagger(u) @ h @ u)) @ dagger(u)

    return apply


def solve_linear_map(
    apply: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray
) -> np.ndarray:
    """Solve apply(u) = rhs for Hermitian u by dense assembly on the basis.

    ``apply`` is an R-linear map on Hermitian matrices that broadcasts over
    a leading stack axis; it maps the whole basis in one call.
    """
    basis = hermitian_basis(rhs.shape[0])
    mat = np.einsum("rij,cji->rc", basis, apply(basis)).real
    vec = np.einsum("rij,ji->r", basis, rhs).real
    return herm_part(np.einsum("r,rij->ij", np.linalg.solve(mat, vec), basis))
